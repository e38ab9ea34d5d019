"""The skip executor: heap-organised strides, batched accounting.

:class:`EventCore` executes every batchable skip of
:class:`~repro.simulator.engine.Simulator`.  The round loop keeps making every
*decision* -- full rounds run the eight steps of Figure 2, and
``Simulator._fast_forward`` decides *whether* a skip is sanctioned
(witnesses, policy bounds, admission quiescence) and how far it may reach --
and hands the sanctioned skip here.  The clock then jumps from event to event:

* upcoming **completions** are probed once per (job, allocation epoch) via the
  exact replay of :meth:`~repro.simulator.execution.ExecutionModel.steady_scan`
  and cached (resumably) in :class:`_CompletionProbe` entries; the gang chain
  keeps them in a ``heapq`` of ``(round, job_id)`` tuples;
* **arrivals**, **cluster/timeline churn** (including federation routing
  bounds surfaced through ``ClusterManager.next_event_time``) and **policy
  events** are boundaries -- rounds at which the full loop must run again;
* the rounds *between* events carry no decisions by construction, so their
  observable product -- the round log, the clock, and each running job's
  progress accounting -- is materialised in batch: constant-field
  :class:`~repro.simulator.engine.RoundRecord` rows, a computed clock jump,
  and :meth:`~repro.simulator.execution.ExecutionModel.advance_steady`
  constant-delta folds.  With the round log disabled
  (``round_log_limit=0``) and no trace recorder attached, a whole segment is
  literally O(1).

The reference is the plain stepping loop (``fast_forward=False``), and
bit-identity with it rests on three mechanisms the parity fuzz harness
exercises:

1. **the clock is computed** -- simulated time is always
   ``round_number * round_duration`` (see ``BloxManager.advance_time``), so a
   jump of any length lands on the float the stepping loop reaches, and "how
   many rounds fit before this horizon" is one comparison per candidate round
   against that same product;
2. **progress accounting** -- deferred/batched advancement replays the exact
   per-round float fold of ``ExecutionModel.advance`` (same values, same
   order), so completion times agree to the last bit;
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
    resumed from its saved ``(work, pending)`` state when a later call needs
    to see further.  It lives until the job is pruned
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
        """Advance ``rounds`` skipped rounds: clock, log rows, trace events.

        Nothing observable changes between events, so every row shares one
        set of counts/utilisation values; only the round number and its
        computed time vary.  With the log disabled and no recorder the whole
        segment collapses to the O(1) clock jump.
        """
        if rounds <= 0:
            return
        sim = self.sim
        mgr = sim.manager
        log = sim._round_log
        recorder = sim._recorder
        rd = mgr.round_duration
        first = mgr.round_number + 1
        mgr.round_number += rounds
        mgr.current_time = mgr.round_number * rd
        if recorder is None and getattr(log, "maxlen", None) == 0:
            return
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

        # Rows are built positionally -- RoundRecord(round_number, time,
        # running_jobs, queued_jobs, utilization, scheduler_name,
        # admission_name, busy_capacity, healthy_capacity) -- and the
        # recorder-free loop is split from the recording one: on a long-horizon run
        # this is where nearly every row of the log is made.
        if recorder is None:
            log.extend(  # a generator: a bounded ring never holds the segment
                RoundRecord(
                    number, number * rd, running, queued, utilization,
                    scheduler_name, admission_name, busy, healthy,
                )
                for number in range(first, first + rounds)
            )
            return
        for number in range(first, first + rounds):
            clock = number * rd
            log.append(
                RoundRecord(
                    number, clock, running, queued, utilization,
                    scheduler_name, admission_name, busy, healthy,
                )
            )
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

    def _completion_event_round(
        self, job: Job, rate: float, cap_round: int
    ) -> Optional[int]:
        """Absolute round in which ``job`` completes, or None if past ``cap_round``.

        Cache-validated against the job's version stamps; scans resume from
        the cached state, so across a whole run each round of a job's life is
        probed at most once per allocation epoch.
        """
        if rate <= 0:
            return None
        sim = self.sim
        execution = sim.execution_model
        cluster = sim.cluster_state
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
            )
            self._probes[job.job_id] = probe
        if probe.event_round is None and cap_round > probe.scanned_through:
            completing, work, pending = execution.steady_scan(
                target,
                rate,
                sim.manager.round_duration,
                probe.work,
                probe.pending,
                cap_round - probe.scanned_through,
            )
            if completing is not None:
                probe.event_round = probe.scanned_through + completing
            else:
                probe.scanned_through = cap_round
                probe.work = work
                probe.pending = pending
        if probe.event_round is not None and probe.event_round <= cap_round:
            return probe.event_round
        return None

    # ------------------------------------------------------------------
    # Skip executors (dispatch targets of Simulator._fast_forward)
    # ------------------------------------------------------------------

    def idle(self, horizon: float) -> bool:
        """Idle segments: no active jobs, so only the log rows accumulate."""
        sim = self.sim
        mgr = sim.manager
        rounds = self._rounds_until(horizon, sim.max_rounds - 1 - mgr.round_number)
        if rounds > 0:
            self._append_records(rounds)
            sim.job_state.current_time = mgr.current_time
        return False

    def steady(self, horizon: float) -> bool:
        """Decision-stable strides: batched records + one replay per job.

        The stride length is the smaller of the horizon and one round *short
        of* the earliest completing round: a completion frees GPUs that the
        next full round must be able to hand to a queued job.
        """
        sim = self.sim
        mgr = sim.manager
        job_state = sim.job_state
        execution = sim.execution_model
        rounds = self._rounds_until(horizon, sim.max_rounds - 1 - mgr.round_number)
        if rounds == 0:
            return False
        base = mgr.round_number
        advancing = job_state.running_jobs()
        for job in advancing:
            rate = execution.cached_rate(job, sim.cluster_state)[0]
            completing = self._completion_event_round(job, rate, base + rounds)
            if completing is not None:
                rounds = min(rounds, completing - base - 1)
        if rounds <= 0:
            return False
        # The final round's record is appended after completions are applied
        # and pruned, mirroring the per-round order of operations.
        self._append_records(rounds - 1)
        mgr.advance_time()
        final_round_start = mgr.current_time - mgr.round_duration
        for job in advancing:
            execution.advance_steady(
                job, sim.cluster_state, final_round_start, mgr.round_duration, rounds
            )
        sim._prune_completed_jobs()
        if sim._tracked_all_finished():
            return True
        job_state.current_time = mgr.current_time
        sim._round_log.append(sim._round_record())
        return False

    def chain(self, horizon: float) -> bool:
        """Chained gang-steady strides with deferred per-job advancement.

        Entered with the gang witness held (every active job RUNNING on
        exactly its requested gang, all composed policies steady-state safe),
        the stride accelerable and ``horizon`` the next arrival or cluster
        event as of the entry round.  Under the witness a completion cannot
        change any scheduling decision -- the remaining jobs simply keep
        their gangs -- so whole drain phases collapse into one chain:

        * every running job's completion round (cache-amortised probes) seeds
          a min-heap of ``(round, job_id)``;
        * between completion rounds nothing observable changes: the round
          records are appended in batch and job advancement is *deferred*;
        * at each completion round exactly the completing jobs are
          materialised (advanced through the round, completed, pruned); every
          other job's accounting is flushed once, when the chain exits at the
          first boundary (arrival, cluster event or the round budget).

        A completion tied with a boundary round is not materialised here: the
        chain stops one round short and the boundary's full round applies it.
        """
        sim = self.sim
        mgr = sim.manager
        job_state = sim.job_state
        execution = sim.execution_model
        rd = mgr.round_duration
        entry_round = mgr.round_number

        probe_cap = sim.max_rounds - 1 - entry_round
        if probe_cap <= 0:
            return False
        # The chain cannot extend past the first arrival or cluster event, so
        # probing beyond that horizon is wasted work.  An upper bound is
        # enough: completions probed past the chain's actual end are simply
        # never reached.
        if horizon != math.inf:
            to_horizon = int((horizon - mgr.current_time) / rd) + 2
            probe_cap = min(probe_cap, max(1, to_horizon))

        jobs = job_state.running_jobs()
        by_id: Dict[int, Job] = {}
        completions: List[Tuple[int, int]] = []
        for job in jobs:
            rate = execution.cached_rate(job, sim.cluster_state)[0]
            by_id[job.job_id] = job
            completing = self._completion_event_round(
                job, rate, entry_round + probe_cap
            )
            if completing is not None:
                completions.append((completing, job.job_id))
        heapq.heapify(completions)

        def flush_running() -> None:
            # Jobs materialised mid-chain are exactly the completed ones, so
            # every still-running job owes the same span.
            owed = mgr.round_number - entry_round
            if owed > 0:
                final_round_start = mgr.current_time - rd
                for job in jobs:
                    if job.status == JobStatus.RUNNING:
                        execution.advance_steady(
                            job, sim.cluster_state, final_round_start, rd, owed
                        )
            job_state.current_time = mgr.current_time

        while True:
            segment_cap = self._rounds_until(
                horizon, sim.max_rounds - 1 - mgr.round_number
            )
            if not completions or completions[0][0] > mgr.round_number + segment_cap:
                # The next event is a boundary (or the round budget): skip
                # straight to it and hand the loop back.
                self._append_records(segment_cap)
                flush_running()
                return False
            boundary = completions[0][0]
            self._append_records(boundary - 1 - mgr.round_number)
            mgr.advance_time()
            while completions and completions[0][0] == boundary:
                _, job_id = heapq.heappop(completions)
                if not execution.advance_steady(
                    by_id[job_id],
                    sim.cluster_state,
                    mgr.current_time - rd,
                    rd,
                    boundary - entry_round,
                ):
                    raise SimulationError(
                        f"job {job_id} did not complete in its probed "
                        f"round {boundary}; event-core accounting diverged"
                    )
            sim._prune_completed_jobs()
            if sim._tracked_all_finished():
                # The simulation ends at this round exactly as the full loop
                # would; materialise the remaining jobs' deferred rounds so
                # their work/service accounting matches a per-round run.
                flush_running()
                return True
            job_state.current_time = mgr.current_time
            sim._round_log.append(sim._round_record())
            if not job_state.count_active():
                flush_running()
                return False
            # The gang witness is preserved by construction (the remaining
            # jobs keep running on their exact gangs), so chain directly into
            # the next segment.
            horizon = sim._boundary_horizon()
