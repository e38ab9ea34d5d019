"""The skip executor: heap-organised segments, batched accounting.

:class:`EventCore` executes every batchable skip of
:class:`~repro.simulator.engine.Simulator` through one method,
:meth:`EventCore.skip`.  The round loop keeps making every *decision* -- full
rounds run the eight steps of Figure 2, and ``Simulator._fast_forward``
decides *whether* a skip is sanctioned (witnesses, policy bounds, admission
quiescence) and how far it may reach -- and hands the sanctioned skip here.
The clock then jumps from event to event:

* upcoming **completions** are probed once per (job, allocation epoch) with
  :meth:`~repro.simulator.execution.ExecutionModel.steady_scan`, the one
  multi-round fold, and cached (resumably) in :class:`_CompletionProbe`
  entries; a skip keeps them in a ``heapq`` of ``(round, job_id, job)`` tuples;
* **arrivals**, **cluster/timeline churn**, the **pause** of the running
  ``_advance_loop(stop_time)`` call (a federation routing event, a shadow
  run's horizon) and **policy events** are boundaries -- rounds at which the
  full loop must run again or stop;
* the rounds *between* events carry no decisions by construction, so their
  observable product -- the round log, the clock, and each running job's
  progress accounting -- is materialised in batch: one run of the
  :class:`~repro.simulator.engine.RoundLog` per segment, a computed clock
  jump, and per job one fold written back
  (:meth:`~repro.simulator.execution.ExecutionModel.adopt_steady`): the
  probe's own when it stopped at the round the job is owed up to, a fresh
  ``steady_scan`` from the job's state otherwise.  A completing round is one
  ordinary ``advance_running`` round.  With no trace recorder attached, a
  segment's records are O(1).

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

import heapq
import math
from typing import Dict, List, Optional, Tuple

from repro.core.exceptions import SimulationError
from repro.core.job import Job, JobStatus
from repro.telemetry.events import EVENT_ROUND


class _CompletionProbe:
    """Cached, resumable completion probe for one job.

    The absolute round in which a running job completes is invariant while
    its (membership version, allocation version, rate, work target) stamp
    holds, because every execution path replays the same per-round fold from
    the same history.  So the probe is taken once per allocation epoch,
    scanning lazily only as far as the caller's current horizon needs, and
    resumed from its saved ``(work, pending, attained)`` state when a later
    call needs to see further.  For the same reason that state *is* the
    job's state after round ``scanned_through`` -- once the completion is
    found, the round before it -- which lets a skip write it back instead
    of folding the rounds again.  It lives until the job is pruned
    (:meth:`EventCore.forget`).
    """

    __slots__ = (
        "membership",
        "alloc",
        "rate",
        "target",
        "event_round",
        "scanned_through",
        "work",
        "pending",
        "attained",
    )

    def __init__(
        self,
        membership: int,
        alloc: int,
        rate: float,
        target: float,
        scanned_through: int,
        work: float,
        pending: float,
        attained: float,
    ) -> None:
        self.membership = membership
        self.alloc = alloc
        self.rate = rate
        self.target = target
        #: Absolute completion round once found; ``None`` while unknown.
        self.event_round: Optional[int] = None
        self.scanned_through = scanned_through
        self.work = work
        self.pending = pending
        self.attained = attained


class EventCore:
    """Skip executor bound to one :class:`Simulator` instance."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self._probes: Dict[int, _CompletionProbe] = {}

    def forget(self, job_id: int) -> None:
        """Drop the completion probe of a job that was pruned."""
        self._probes.pop(job_id, None)

    # ------------------------------------------------------------------
    # Round arithmetic on the computed clock
    # ------------------------------------------------------------------

    def _rounds_until(self, horizon: float, round_cap: int) -> int:
        """Rounds skippable before ``horizon``, capped.

        The largest ``k <= round_cap`` whose round still starts strictly
        before the horizon, ``(round_number + k) * round_duration < horizon``
        -- the comparison the per-round light loop makes one round at a time.
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
    # Completion events
    # ------------------------------------------------------------------

    def _completion_event_round(self, job: Job, cap_round: int) -> Optional[int]:
        """Absolute round in which ``job`` completes, or None if past ``cap_round``.

        Every running job is probed, whatever its rate.  Cache-validated
        against the job's version stamps; scans resume from the cached
        state, so across a whole run each round of a job's life is probed at
        most once per allocation epoch.
        """
        sim = self.sim
        execution = sim.execution_model
        cluster = sim.cluster_state
        rate, _, num_gpus = execution.cached_rate(job, cluster)
        target = execution.termination.work_target(job)
        membership = cluster.membership_version
        alloc = cluster.alloc_version(job.job_id)
        probe = self._probes.get(job.job_id)
        if (
            probe is None
            or probe.membership != membership
            or probe.alloc != alloc
            or probe.rate != rate
            or probe.target != target
        ):
            probe = _CompletionProbe(
                membership,
                alloc,
                rate,
                target,
                scanned_through=sim.manager.round_number,
                work=job.work_done,
                pending=job.pending_overhead,
                attained=job.attained_service,
            )
            self._probes[job.job_id] = probe
        if probe.event_round is None and cap_round > probe.scanned_through:
            completing, probe.work, probe.pending, probe.attained = execution.steady_scan(
                target,
                rate,
                sim.manager.round_duration,
                num_gpus,
                probe.work,
                probe.pending,
                probe.attained,
                cap_round - probe.scanned_through,
            )
            if completing is None:
                probe.scanned_through = cap_round
            else:
                probe.event_round = probe.scanned_through + completing
                probe.scanned_through = probe.event_round - 1
        if probe.event_round is not None and probe.event_round <= cap_round:
            return probe.event_round
        return None

    def _catch_up(self, job: Job, from_round: int, through_round: int) -> None:
        """Write a running job's skipped rounds ``from_round + 1 .. through_round``.

        The job's own state is that of ``from_round``.  Adopts the probe's
        fold when the probe stopped exactly at ``through_round``; otherwise
        folds the rounds again from the job's own state, and that fold must
        not complete.
        """
        if through_round == from_round:
            return
        sim = self.sim
        execution = sim.execution_model
        probe = self._probes[job.job_id]
        if probe.scanned_through == through_round:
            work, pending, attained = probe.work, probe.pending, probe.attained
        else:
            _, _, num_gpus = execution.cached_rate(job, sim.cluster_state)
            completing, work, pending, attained = execution.steady_scan(
                probe.target,
                probe.rate,
                sim.manager.round_duration,
                num_gpus,
                job.work_done,
                job.pending_overhead,
                job.attained_service,
                through_round - from_round,
            )
            if completing is not None:
                raise SimulationError(
                    f"job {job.job_id} completed in skipped round "
                    f"{from_round + completing}, before round {through_round}; "
                    "event-core accounting diverged"
                )
        execution.adopt_steady(job, sim.cluster_state, work, pending, attained)

    # ------------------------------------------------------------------
    # The skip executor (dispatch target of Simulator._fast_forward)
    # ------------------------------------------------------------------

    def skip(self, horizon: float, through_completions: bool = True) -> bool:
        """Skip the sanctioned rounds before ``horizon`` in batch.

        Entered at the end of a full round whose skip ``_fast_forward``
        sanctioned, with ``horizon`` the first round that must run in full
        (arrival, cluster event or policy event) or pause.  Returns whether every
        tracked job finished inside the skip.

        * every running job's completion round (cache-amortised probes)
          seeds a min-heap of ``(round, job_id, job)``;
        * between completion rounds nothing observable changes: the round
          records are appended in batch and job accounting is *deferred*;
        * with ``through_completions`` (the gang witness: a completion cannot
          change a decision, so the skip chains on), at each completion
          round exactly the completing jobs are materialised -- caught up to
          the round before, then one ordinary ``advance_running`` round in
          ascending job id -- and pruned;
        * without it (the decision-stable witness: freed GPUs must go to a
          queued job in that very round), the skip ends at the round before
          the first completion;
        * every still-running job is caught up once, when the skip ends
          (arrival, cluster event, pause, policy event or the round budget).

        With no running job only the round records accumulate.  A completion
        tied with a boundary round is not materialised here: the skip stops
        one round short and the boundary's full round applies it.
        """
        sim = self.sim
        mgr = sim.manager
        job_state = sim.job_state
        execution = sim.execution_model
        rd = mgr.round_duration
        entry_round = mgr.round_number

        # The skip cannot extend past the horizon as of the entry round, so
        # that is where probing stops.
        end = entry_round + self._rounds_until(horizon, sim.max_rounds - 1 - entry_round)
        if end == entry_round:
            return False

        jobs = job_state.running_jobs()
        completions: List[Tuple[int, int, Job]] = []
        for job in jobs:
            completing = self._completion_event_round(job, end)
            if completing is not None:
                completions.append((completing, job.job_id, job))
        if completions and not through_completions:
            end = min(completions)[0] - 1
            if end == entry_round:
                return False
            completions = []
        heapq.heapify(completions)

        def finish() -> None:
            # Jobs materialised mid-skip are exactly the completed ones, so
            # every still-running job owes the same span.
            for job in jobs:
                if job.status is JobStatus.RUNNING:
                    self._catch_up(job, entry_round, mgr.round_number)
            job_state.current_time = mgr.current_time

        while True:
            # Never past the probed rounds, should the horizon move out.
            segment_cap = min(
                self._rounds_until(horizon, sim.max_rounds - 1 - mgr.round_number),
                end - mgr.round_number,
            )
            if not completions or completions[0][0] > mgr.round_number + segment_cap:
                # The next event is a boundary (or the round budget): skip
                # straight to it and hand the loop back.
                self._append_records(segment_cap)
                finish()
                return False
            boundary = completions[0][0]
            self._append_records(boundary - 1 - mgr.round_number)
            mgr.advance_time()
            completing_jobs = []
            while completions and completions[0][0] == boundary:
                job = heapq.heappop(completions)[2]
                self._catch_up(job, entry_round, boundary - 1)
                completing_jobs.append(job)
            execution.advance_running(
                completing_jobs, sim.cluster_state, mgr.current_time - rd, rd
            )
            for job in completing_jobs:
                if job.status is not JobStatus.COMPLETED:
                    raise SimulationError(
                        f"job {job.job_id} did not complete in its probed "
                        f"round {boundary}; event-core accounting diverged"
                    )
            sim._prune_completed_jobs()
            if sim._tracked_all_finished():
                # The simulation ends at this round exactly as the full loop
                # would; materialise the remaining jobs' deferred rounds so
                # their work/service accounting matches a per-round run.
                finish()
                return True
            job_state.current_time = mgr.current_time
            sim._round_log.append(sim._round_record())
            if not job_state.count_active():
                finish()
                return False
            # The gang witness is preserved by construction (the remaining
            # jobs keep running on their exact gangs), so chain directly into
            # the next segment.
            horizon = sim._boundary_horizon()
