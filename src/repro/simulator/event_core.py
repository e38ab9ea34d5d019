"""The skip executor: heap-organised segments, batched accounting.

:class:`EventCore` executes every batchable skip of
:class:`~repro.simulator.engine.Simulator` through one method,
:meth:`EventCore.skip`.  The round loop keeps making every *decision* -- full
rounds run the eight steps of Figure 2, and ``Simulator._fast_forward``
decides *whether* a skip is sanctioned (witnesses, policy bounds, admission
quiescence) and how far it may reach -- and hands the sanctioned skip here.
The clock then jumps from event to event:

* upcoming **completions** come from the execution model's completion heap:
  each running job's epoch (see :mod:`repro.simulator.execution`) carries a
  resumable probe -- :meth:`~repro.simulator.execution.ExecutionModel.steady_scan`,
  the one multi-round fold -- that scans only as far as a skip needs;
* **arrivals**, **cluster/timeline churn**, the **pause** of the running
  ``_advance_loop(stop_time)`` call (a federation routing event, a shadow
  run's horizon) and **policy events** are boundaries -- rounds at which the
  full loop must run again or stop;
* the rounds *between* events carry no decisions by construction, so their
  observable product -- the round log and the clock -- is materialised in
  batch: one run of the :class:`~repro.simulator.engine.RoundLog` per
  segment and a computed clock jump.  Running jobs' progress is deferred, so
  a skip folds nothing: it advances the model's fold clock, and a job is
  settled when something reads it.  A completing round is one ordinary
  ``advance_running`` round over the completing jobs.  With no trace
  recorder attached, a segment's records are O(1).

The reference is the plain stepping loop (``fast_forward=False``), and
bit-identity with it rests on three mechanisms the parity fuzz harness
exercises:

1. **the clock is computed** -- simulated time is always
   ``round_number * round_duration`` (see ``BloxManager.advance_time``), so a
   jump of any length lands on the float the stepping loop reaches, and "how
   many rounds fit before this horizon" is one comparison per candidate round
   against that same product;
2. **progress accounting** -- the fold replays the exact per-round float
   operations of ``ExecutionModel.advance_running`` (same values, same
   order), and a completing round *is* one of its rounds, so completion
   times agree to the last bit;
3. **tie-breaking** -- a completion in the same round as a boundary is left to
   that round's full pass through the loop (advance -> prune -> admit ->
   schedule), and completions sharing a round materialise in ascending job id,
   the order the loop's per-round steps visit jobs.
"""

from __future__ import annotations

import math

from repro.core.job import JobStatus
from repro.telemetry.events import EVENT_ROUND


class EventCore:
    """Skip executor bound to one :class:`Simulator` instance."""

    def __init__(self, sim) -> None:
        self.sim = sim

    # ------------------------------------------------------------------
    # Round arithmetic on the computed clock
    # ------------------------------------------------------------------

    def _rounds_until(self, horizon: float, round_cap: int) -> int:
        """Rounds skippable before ``horizon``, capped.

        The largest ``k <= round_cap`` whose round still starts strictly
        before the horizon, ``(round_number + k) * round_duration < horizon``
        -- the comparison a stepping loop would make one round at a time.
        The division only seeds the answer; the two adjust loops decide it
        against that exact product.
        """
        if round_cap <= 0:
            return 0
        if horizon == math.inf:
            return round_cap
        mgr = self.sim.manager
        rd = mgr.round_duration
        base = mgr.round_number
        guess = min(max(int(horizon / rd) - base, 0), round_cap)
        while guess > 0 and (base + guess) * rd >= horizon:
            guess -= 1
        while guess < round_cap and (base + guess + 1) * rd < horizon:
            guess += 1
        return guess

    # ------------------------------------------------------------------
    # Batched round records
    # ------------------------------------------------------------------

    def _append_records(self, rounds: int) -> None:
        """Advance ``rounds`` skipped rounds: clock, log run, trace events.

        Nothing observable changes between events, so every row shares one
        set of counts/utilisation values; only the round number and its
        computed time vary -- which is exactly one run of the round log, an
        O(1) append.  A trace recorder still gets one event per round.
        """
        if rounds <= 0:
            return
        sim = self.sim
        mgr = sim.manager
        recorder = sim._recorder
        rd = mgr.round_duration
        first = mgr.round_number + 1
        mgr.round_number += rounds
        mgr.current_time = mgr.round_number * rd
        job_state = sim.job_state
        running = job_state.count_with_status(JobStatus.RUNNING)
        queued = job_state.count_active() - running
        utilization = sim.cluster_state.utilization()
        busy = sim.cluster_state.busy_capacity()
        healthy = sim.cluster_state.healthy_capacity()
        scheduler_name = (
            getattr(sim.scheduling_policy, "current_name", None)
            or sim.scheduling_policy.name
        )
        admission_name = (
            getattr(sim.admission_policy, "current_name", None)
            or sim.admission_policy.name
        )
        from repro.simulator.engine import RoundRecord

        sim._round_log.append_run(
            RoundRecord(
                first, first * rd, running, queued, utilization,
                scheduler_name, admission_name, busy, healthy,
            ),
            rounds,
        )
        if recorder is None:
            return
        for number in range(first, first + rounds):
            clock = number * rd
            recorder.emit(
                EVENT_ROUND,
                clock,
                {
                    "round": number,
                    "running": running,
                    "queued": queued,
                    "utilization": utilization,
                    "busy_capacity": busy,
                    "healthy_capacity": healthy,
                },
            )

    # ------------------------------------------------------------------
    # The skip executor (dispatch target of Simulator._fast_forward)
    # ------------------------------------------------------------------

    def skip(self, horizon: float, through_completions: bool = True) -> bool:
        """Skip the sanctioned rounds before ``horizon`` in batch.

        Entered at the end of a full round whose skip ``_fast_forward``
        sanctioned, with ``horizon`` the first round that must run in full
        (arrival, cluster event or policy event) or pause.  Returns whether every
        tracked job finished inside the skip.

        * the execution model's completion heap names the next completion
          round, resuming only the probes that have not scanned that far;
        * between completion rounds nothing observable changes: the round
          records are appended in batch and progress stays deferred;
        * with ``through_completions`` (the gang witness: a completion cannot
          change a decision, so the skip chains on), at each completion
          round exactly the completing jobs are folded -- settled to the
          round before, then one ordinary ``advance_running`` round in
          ascending job id -- and pruned;
        * without it (the decision-stable witness: freed GPUs must go to a
          queued job in that very round), the skip ends at the round before
          the first completion;
        * when the skip ends (arrival, cluster event, pause, policy event or
          the round budget) the fold clock moves to its last round.

        With no running job only the round records accumulate.  A completion
        tied with a boundary round is not materialised here: the skip stops
        one round short and the boundary's full round applies it.
        """
        sim = self.sim
        mgr = sim.manager
        job_state = sim.job_state
        cluster = sim.cluster_state
        execution = sim.execution_model
        rd = mgr.round_duration
        entry_round = mgr.round_number

        # The skip cannot extend past the horizon as of the entry round.
        end = entry_round + self._rounds_until(horizon, sim.max_rounds - 1 - entry_round)
        if end == entry_round:
            return False
        if not through_completions:
            first = execution.next_completion(end, cluster)
            if first is not None:
                end = first - 1
                if end == entry_round:
                    return False

        while True:
            # Never past ``end``, should the horizon move out.
            segment_cap = min(
                self._rounds_until(horizon, sim.max_rounds - 1 - mgr.round_number),
                end - mgr.round_number,
            )
            boundary = execution.next_completion(mgr.round_number + segment_cap, cluster)
            if boundary is None:
                # The next event is a boundary (or the round budget): skip
                # straight to it and hand the loop back.
                self._append_records(segment_cap)
                execution.fold_through(mgr.round_number, cluster)
                job_state.current_time = mgr.current_time
                return False
            self._append_records(boundary - 1 - mgr.round_number)
            mgr.advance_time()
            execution.fold_round(job_state, cluster, boundary, mgr.current_time - rd, rd)
            mgr.prune_completed_jobs(cluster, job_state)
            job_state.current_time = mgr.current_time
            if sim._tracked_all_finished():
                # The simulation ends at this round exactly as the full loop
                # would; the remaining jobs settle when the loop returns.
                return True
            sim._round_log.append(sim._round_record())
            if not job_state.count_active():
                return False
            # The gang witness is preserved by construction (the remaining
            # jobs keep running on their exact gangs), so chain directly into
            # the next segment.
            horizon = sim._boundary_horizon()
