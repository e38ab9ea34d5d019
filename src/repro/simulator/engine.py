"""The round-based simulation driver.

:class:`Simulator` composes the Blox abstractions exactly as the scheduling
loop in Figure 2 of the paper: every round it updates cluster membership,
advances running jobs, prunes completed jobs, pops newly arrived jobs from the
wait queue, runs the admission, scheduling and placement policies and applies
the resulting decision.  The same composition runs on the deployment path (see
:mod:`repro.runtime`); only the ``BloxManager`` backend and the launch and
preemption mechanisms change.
"""

from __future__ import annotations

import collections.abc
import math
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.abstractions import (
    AdmissionPolicy,
    ClusterManager,
    MetricCollector,
    PlacementPolicy,
    SchedulingPolicy,
    TerminationPolicy,
)
from repro.core.blox_manager import BloxManager
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import ConfigurationError, SimulationError
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.metrics.summary import SummaryStats, average, jct_summary
from repro.simulator.execution import ExecutionModel
from repro.simulator.overheads import OverheadModel
from repro.telemetry.events import (
    EVENT_CLUSTER,
    EVENT_DECISION,
    EVENT_EVICTION,
    EVENT_ROUND,
)

if TYPE_CHECKING:  # imported where a recorder is attached, not by every run
    from repro.telemetry.recorder import TelemetryObserver, TraceRecorder


@dataclass(slots=True)
class RoundRecord:
    """One row of the per-round log: what one simulated round looked like.

    The simulator stores rows as runs (see :class:`RoundLog`), so a row is
    materialised only when the log is read.  Positional construction is
    part of the contract -- keep the field order.
    """

    round_number: int
    time: float
    running_jobs: int
    queued_jobs: int
    utilization: float
    scheduler_name: str
    admission_name: str
    #: Compute-weighted capacity in use / available on healthy nodes this
    #: round (O(1) cached counters); scenario reports integrate these over
    #: time into a capacity-weighted utilisation that stays meaningful while
    #: nodes fail, recover or change GPU generation mid-run.
    busy_capacity: float = 0.0
    healthy_capacity: float = 0.0


def _payload(record: RoundRecord) -> tuple:
    """The seven fields a run's rows share (everything but number and time)."""
    return (
        record.running_jobs,
        record.queued_jobs,
        record.utilization,
        record.scheduler_name,
        record.admission_name,
        record.busy_capacity,
        record.healthy_capacity,
    )


class RoundLog(collections.abc.Sequence):
    """The simulator's round log: one :class:`RoundRecord` row per round, stored as runs.

    A run is ``(first round, count, payload)``: ``count`` consecutive rounds
    whose rows differ only in the round number and its computed time
    ``round_number * round_duration``.  A run is kept as its first row plus
    one entry of a cumulative row-count array, so a skipped segment of any
    length costs one append and a one-round run about what a row costs.

    A row joins the previous run only when it follows that run directly, its
    payload fields are equal and its time is on the computed clock.  Joining
    is greedy and decided per adjacent pair of rows, so equal rows always
    make equal runs, however the rows were batched on the way in.

    As a sequence it is the rows: ``len``, lazy iteration, int and slice
    indexing (a slice is a list), and ``==`` against another log or any
    sequence of rows.  It pickles as its runs.
    """

    __slots__ = ("round_duration", "_heads", "_ends", "_next_round", "_tail")

    def __init__(self, round_duration: float) -> None:
        self.round_duration = round_duration
        #: The first row of each run.
        self._heads: List[RoundRecord] = []
        #: Rows through the end of each run (cumulative counts).
        self._ends = array("q")
        #: The round number a row must carry to extend the last run.
        self._next_round: Optional[int] = None
        #: The payload of the last run (``_payload`` of its first row).
        self._tail: Optional[tuple] = None

    def append(self, record: RoundRecord) -> None:
        """Add one round's row."""
        self.append_run(record, 1)

    def append_run(self, record: RoundRecord, count: int) -> None:
        """Add ``record`` and the ``count - 1`` rounds after it, same payload."""
        self.append_rows(record.round_number, record.time, _payload(record), count)

    def append_rows(self, number: int, time: float, payload: tuple, count: int) -> None:
        """Add ``count`` rows from round ``number``, the first at ``time``.

        ``payload`` holds the seven fields after number and time, in
        :class:`RoundRecord` order; a row object is built only when the rows
        start a new run.
        """
        ends = self._ends
        if (
            number == self._next_round
            and time == number * self.round_duration
            and payload == self._tail
        ):
            ends[-1] += count
        else:
            self._heads.append(RoundRecord(number, time, *payload))
            ends.append(ends[-1] + count if ends else count)
            self._tail = payload
        self._next_round = number + count

    def runs(self) -> Iterator[Tuple[RoundRecord, int]]:
        """``(first row, count)`` per run, in order."""
        start = 0
        for head, end in zip(self._heads, self._ends):
            yield head, end - start
            start = end

    def copy(self) -> "RoundLog":
        """An independent log with the same rows, in O(runs)."""
        clone = RoundLog(self.round_duration)
        clone._heads = self._heads.copy()
        clone._ends = self._ends[:]
        clone._next_round = self._next_round
        clone._tail = self._tail
        return clone

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self) -> Iterator[RoundRecord]:
        rd = self.round_duration
        for head, count in self.runs():
            yield head
            if count > 1:
                payload = _payload(head)
                first = head.round_number
                for number in range(first + 1, first + count):
                    yield RoundRecord(number, number * rd, *payload)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("round log index out of range")
        run = bisect_right(self._ends, index)
        head = self._heads[run]
        offset = index - (self._ends[run - 1] if run else 0)
        if not offset:
            return head
        number = head.round_number + offset
        return RoundRecord(number, number * self.round_duration, *_payload(head))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RoundLog) and other.round_duration == self.round_duration:
            # Runs are canonical (see the class docstring), so equal rows
            # are equal runs.
            return self._heads == other._heads and self._ends == other._ends
        if not isinstance(other, collections.abc.Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"RoundLog(rows={len(self)}, runs={len(self._heads)})"


@dataclass
class SimulationResult:
    """Everything an experiment needs after a simulation finished."""

    jobs: List[Job]
    tracked_job_ids: List[int]
    round_duration: float
    rounds: int
    end_time: float
    #: The simulator's :class:`RoundLog` (any sequence of rows compares).
    round_log: Sequence[RoundRecord] = field(default_factory=list)
    #: Wall-clock seconds :meth:`Simulator.run` took; lets sweep workers
    #: report rounds/s without timing around the process boundary.  Never
    #: part of parity comparisons.
    wall_time_s: float = 0.0
    #: Running jobs forced off their GPUs by cluster events (failures,
    #: scale-in, upgrades) -- as opposed to policy-initiated preemptions.
    eviction_count: int = 0

    # ------------------------------------------------------------------
    # Job views
    # ------------------------------------------------------------------

    def tracked_jobs(self) -> List[Job]:
        wanted = set(self.tracked_job_ids)
        return [j for j in self.jobs if j.job_id in wanted]

    def finished_jobs(self, tracked_only: bool = True) -> List[Job]:
        jobs = self.tracked_jobs() if tracked_only else self.jobs
        return [j for j in jobs if j.completion_time is not None]

    # ------------------------------------------------------------------
    # Headline metrics
    # ------------------------------------------------------------------

    def jcts(self, tracked_only: bool = True) -> List[float]:
        return [j.job_completion_time() for j in self.finished_jobs(tracked_only)]

    def responsiveness_values(self, tracked_only: bool = True) -> List[float]:
        values = [j.responsiveness() for j in self.finished_jobs(tracked_only)]
        return [v for v in values if v is not None]

    def avg_jct(self, tracked_only: bool = True) -> float:
        return average(self.jcts(tracked_only))

    def avg_responsiveness(self, tracked_only: bool = True) -> float:
        return average(self.responsiveness_values(tracked_only))

    def makespan(self, tracked_only: bool = True) -> float:
        finished = self.finished_jobs(tracked_only)
        if not finished:
            return 0.0
        return max(j.completion_time for j in finished) - min(j.arrival_time for j in finished)

    def summary(self) -> SummaryStats:
        return jct_summary(self.jobs, self.tracked_job_ids)

    def completion_fraction(self, tracked_only: bool = True) -> float:
        jobs = self.tracked_jobs() if tracked_only else self.jobs
        if not jobs:
            return 0.0
        return len([j for j in jobs if j.completion_time is not None]) / len(jobs)


class Simulator:
    """Composes policies into the Blox scheduling loop and runs it to completion."""

    def __init__(
        self,
        cluster_state: ClusterState,
        jobs: Iterable[Job],
        scheduling_policy: SchedulingPolicy,
        placement_policy: Optional[PlacementPolicy] = None,
        admission_policy: Optional[AdmissionPolicy] = None,
        round_duration: float = 300.0,
        overhead_model: Optional[OverheadModel] = None,
        termination_policy: Optional[TerminationPolicy] = None,
        metric_collectors: Sequence[MetricCollector] = (),
        cluster_manager: Optional[ClusterManager] = None,
        tracked_job_ids: Optional[Sequence[int]] = None,
        max_rounds: int = 200_000,
        fast_forward: bool = True,
        job_state: Optional[JobState] = None,
        manager_factory: Optional[Callable[..., BloxManager]] = None,
        allow_empty_workload: bool = False,
        recorder: Optional["TraceRecorder"] = None,
    ) -> None:
        from repro.policies.admission.accept_all import AcceptAll
        from repro.policies.placement.consolidated import ConsolidatedPlacement

        if max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")

        self.cluster_state = cluster_state
        self.job_state = job_state if job_state is not None else JobState()
        self.jobs = sorted(jobs, key=lambda j: (j.arrival_time, j.job_id))
        if not self.jobs and not allow_empty_workload:
            # Federation shards start empty and receive jobs via routing
            # (allow_empty_workload=True); everywhere else an empty workload
            # is a configuration mistake.
            raise ConfigurationError("cannot simulate an empty workload")
        self.scheduling_policy = scheduling_policy
        self.placement_policy = placement_policy or ConsolidatedPlacement()
        self.admission_policy = admission_policy or AcceptAll()
        self.execution_model = ExecutionModel(
            overhead_model=overhead_model, termination_policy=termination_policy
        )
        self.metric_collectors = list(metric_collectors)
        self.max_rounds = max_rounds
        # The deployment path (repro.runtime.CentralScheduler) substitutes a
        # BloxManager subclass that ties the lease lifecycle to job
        # completion; everything else about the loop is shared.
        if manager_factory is None:
            manager_factory = BloxManager
        self.manager = manager_factory(
            trace_jobs=self.jobs,
            round_duration=round_duration,
            execution_model=self.execution_model,
            cluster_manager=cluster_manager,
        )
        if tracked_job_ids is None:
            self.tracked_job_ids = [j.job_id for j in self.jobs]
        else:
            self.tracked_job_ids = list(tracked_job_ids)

        # Event-skipping -- every skip one batch in :meth:`_skip` -- is
        # enabled only when nothing needs the rounds it jumps:
        # * every composed policy declares it safe to skip its per-round
        #   calls while nothing can change;
        # * rates are drift-free: per-round jitter's RNG must be drawn once
        #   per job per round, in order, which a batched skip cannot do;
        # * no metric collector is attached: collectors sample every round
        #   by contract;
        # * the BloxManager keeps the stock clock: a subclass overriding
        #   advance_time expects one call per round;
        # * the ClusterManager can predict its events: one that overrides
        #   update() but not next_event_time() has per-round effects, and
        #   treating its inherited "no events ever" as truth would silently
        #   skip them.
        cluster_manager_cls = type(self.manager.cluster_manager)
        self._skippable = (
            bool(fast_forward)
            and getattr(self.scheduling_policy, "supports_fast_forward", True)
            and getattr(self.admission_policy, "supports_fast_forward", True)
            and getattr(self.placement_policy, "supports_fast_forward", True)
            and self.execution_model.jitter_free
            and not self.metric_collectors
            and type(self.manager).advance_time is BloxManager.advance_time
            and (
                cluster_manager_cls.update is ClusterManager.update
                or cluster_manager_cls.next_event_time
                is not ClusterManager.next_event_time
            )
        )
        # Skipping rounds *with running jobs* additionally requires that
        # rescheduling an unchanged set of running gang jobs is a no-op.
        self._steady_state_safe = (
            getattr(self.scheduling_policy, "steady_state_safe", False)
            and getattr(self.admission_policy, "steady_state_safe", False)
            and getattr(self.placement_policy, "steady_state_safe", False)
        )
        # Decision-stable skipping (the path for elastic/discretised policies)
        # requires the scheduling policy to bound when its decision next
        # changes.  A policy that does not override next_policy_event_time
        # keeps the base "may change any round" contract, so the detection
        # mirrors the ClusterManager.next_event_time check above.
        self._policy_event_aware = (
            type(self.scheduling_policy).next_policy_event_time
            is not SchedulingPolicy.next_policy_event_time
            and getattr(self.placement_policy, "steady_state_safe", False)
            and getattr(self.admission_policy, "steady_state_safe", True)
        )
        #: Whether the most recent full round's placement decision was empty
        #: (nothing suspended, nothing launched).  The elastic fast-forward
        #: path uses this as its fixed-point witness.
        self._last_decision_noop = False

        # Loop state lives on the instance so the loop is *resumable*: the
        # federation layer (src/repro/federation/) pauses a shard's loop at
        # routing events, submits routed jobs, and resumes it -- see
        # :meth:`_advance_loop`.  ``run()`` still drives a single
        # start-to-finish pass over this state.
        self._round_log = RoundLog(round_duration)
        self._eviction_count = 0
        self._wall_time = 0.0
        #: Where the current ``_advance_loop`` call pauses (``None``: never);
        #: every skip stops short of it, as of a cluster event.
        self._stop_time: Optional[float] = None

        # Sanctioned skips execute in one batch (:meth:`_skip`).  Where a skip
        # may run, running jobs' progress is deferred too: a full round then
        # folds only the jobs whose completion round has come.
        self.execution_model.attach(
            self.job_state,
            self.manager.round_number,
            self.manager.round_duration,
            defer=self._skippable,
        )

        # Telemetry is opt-in and read-only: the recorder hooks only observe
        # state (never draw RNG or mutate anything), so a traced run stays
        # bit-identical to an untraced one, and it deliberately is not a
        # MetricCollector -- collectors disable fast-forward, which would
        # turn "record a trace" into a multi-x slowdown.
        self._recorder = recorder
        self._telemetry_observer: Optional[TelemetryObserver] = None
        if recorder is not None:
            from repro.telemetry.recorder import TelemetryObserver

            self._telemetry_observer = TelemetryObserver(recorder, clock=self.manager)
            # The registry holds observers weakly; the instance attribute
            # above is the strong reference keeping it alive.
            self.job_state.add_observer(self._telemetry_observer)

    @property
    def fast_forward(self) -> bool:
        """Whether this run may skip rounds (and so defers progress).

        Read-only: ``__init__`` decides it once, together with the execution
        model's deferral, which a skip relies on.
        """
        return self._skippable

    # ------------------------------------------------------------------

    def _tracked_all_finished(self) -> bool:
        # Cheap necessary condition first: tracked finished jobs are a subset
        # of all finished jobs, so the per-id scan can be skipped most rounds.
        if self.job_state.count_finished() < len(self.tracked_job_ids):
            return False
        for job_id in self.tracked_job_ids:
            if job_id in self.job_state:
                if not self.job_state.get(job_id).is_finished:
                    return False
            else:
                return False
        return True

    def _stalled(self) -> bool:
        """True when nothing can ever make progress again (guards against livelock)."""
        if not self.manager.all_arrived():
            return False
        if self.job_state.count_active():
            return False
        if self.admission_policy.pending_jobs():
            return False
        if self.job_state.count_with_status(JobStatus.WAITING_ADMISSION):
            return False
        return True

    def _collect_metrics(self) -> None:
        """Step 7 of the loop; collectors read the application metrics."""
        for collector in self.metric_collectors:
            collector.collect(self.job_state, self.cluster_state, self.manager.current_time)

    def _log_rounds(self, count: int = 1, skipped: bool = False) -> None:
        """Log the ``count`` rounds ending at the current one, and trace them.

        A full round and a skip's completion round log one row; a
        ``skipped`` segment, in which nothing observable changes, repeats
        the payload of the row before it (the round before the segment) and
        logs all its rows as one run of the round log, an O(1) append.
        Every row is logged here, so the traced ``round`` stream equals the
        round log.  A skip runs only on the computed clock, where round
        ``n`` starts at ``n * round_duration``; a single row takes the
        manager's clock.
        """
        mgr = self.manager
        rd = mgr.round_duration
        first = mgr.round_number + 1 - count
        if skipped:
            time = first * rd
            payload = self._round_log._tail
        else:
            time = mgr.current_time if count == 1 else first * rd
            running = self.job_state.count_with_status(JobStatus.RUNNING)
            payload = (
                running,
                self.job_state.count_active() - running,
                self.cluster_state.utilization(),
                getattr(self.scheduling_policy, "current_name", None) or self.scheduling_policy.name,
                getattr(self.admission_policy, "current_name", None) or self.admission_policy.name,
                self.cluster_state.busy_capacity(),
                self.cluster_state.healthy_capacity(),
            )
        self._round_log.append_rows(first, time, payload, count)
        if self._recorder is None:
            return
        running, queued, utilization, _, _, busy, healthy = payload
        for number in range(first, first + count):
            self._recorder.emit(
                EVENT_ROUND,
                time if number == first else number * rd,
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
    # Event-skipping fast-forward
    # ------------------------------------------------------------------

    def _gang_steady_witness(self) -> bool:
        """Whether rescheduling is provably a no-op this round (gang path).

        Requires every composed policy to be ``steady_state_safe``, every
        active job to be RUNNING, and each to hold exactly its requested gang.
        """
        job_state = self.job_state
        if not self._steady_state_safe:
            return False
        if job_state.count_with_status(JobStatus.RUNNING) != job_state.count_active():
            return False
        get = job_state.get
        for job_id in job_state.ids_with_status(JobStatus.RUNNING):
            job = get(job_id)
            if len(job.allocated_gpus) != job.num_gpus:
                return False
        return True

    def _boundary_horizon(self) -> float:
        """Time of the next arrival, cluster event or pause (``inf`` if none).

        Every skip path reads its horizon here, so no skip crosses the
        ``stop_time`` of the ``_advance_loop`` call that runs it.
        """
        mgr = self.manager
        horizon = math.inf
        for bound in (
            mgr.cluster_manager.next_event_time(mgr.current_time),
            mgr.next_arrival_time(),
            self._stop_time,
        ):
            if bound is not None and bound < horizon:
                horizon = bound
        return horizon

    def _fast_forward(self) -> bool:
        """Skip rounds during which no scheduling decision can change.

        Called at the end of a full round, *before* ``advance_time``.  While no
        arrival, cluster event, admission release or scheduling change can
        occur, the only per-round work is advancing running jobs and logging;
        the cluster update, admission, scheduling, placement and launch steps
        are guaranteed no-ops.  This method decides whether a skip is
        sanctioned and how far it may reach; :meth:`_skip` runs it in
        batch, keeping work/overhead accounting, completion times and the
        round log bit-identical to a run with fast-forward disabled.

        Returns ``True`` when every tracked job finished during the skip (the
        caller must then stop exactly as the full loop would).
        """
        mgr = self.manager
        job_state = self.job_state

        # The admission pipeline must be quiescent: a policy whose accept([])
        # has per-round side effects (steady_state_safe=False) can never be
        # skipped, and otherwise nothing may be queued inside the policy or
        # waiting for admission in the registry.
        if not getattr(self.admission_policy, "steady_state_safe", True):
            return False
        if job_state.count_with_status(JobStatus.WAITING_ADMISSION):
            return False
        if self.admission_policy.pending_jobs():
            return False

        boundary = self._boundary_horizon()
        policy_bound: Optional[float] = None
        # With no active job, or under the gang witness -- audited policies,
        # every active job already running, each holding exactly its
        # requested gang -- a completion cannot change any decision, so a
        # skip runs through completions to the next arrival, cluster event or
        # pause.
        through_completions = True
        if job_state.count_active() and not self._gang_steady_witness():
            # Decision-stable (elastic/discretised policies): this round's
            # decision was empty, and the policy guarantees
            # -- via next_policy_event_time -- that absent external events
            # it re-emits the same schedule until the returned time.  An
            # unchanged schedule against unchanged state places the same
            # empty delta, so the skipped rounds are provably identical.
            if not (self._policy_event_aware and self._last_decision_noop):
                return False
            bound = self.scheduling_policy.next_policy_event_time(
                job_state, self.cluster_state, mgr.current_time
            )
            if bound is not None:
                # One-round safety margin: the policy computes its next
                # internal event in closed form, and the accumulated
                # floating-point state it predicts may cross a threshold
                # up to one ulp away from the closed form.  Resuming a
                # round early costs one cheap full round and removes the
                # risk of skipping a round whose decision differed.
                policy_bound = bound - mgr.round_duration
                if policy_bound <= mgr.current_time:
                    return False
            # Unlike the gang path (where nothing is waiting for GPUs), a
            # completion here frees GPUs that a queued job must receive in
            # that very round -- so the skip must stop *before* the first
            # completion, not merely break at it: the skip stops at the
            # round before the first probed completion.
            through_completions = False

        # Nothing may fire before the next arrival, cluster event or pause
        # (or, on the decision-stable path, the policy's own next event).
        horizon = boundary if policy_bound is None else min(boundary, policy_bound)
        return self._skip(horizon, through_completions)

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
        rd = self.manager.round_duration
        base = self.manager.round_number
        guess = min(max(int(horizon / rd) - base, 0), round_cap)
        while guess > 0 and (base + guess) * rd >= horizon:
            guess -= 1
        while guess < round_cap and (base + guess + 1) * rd < horizon:
            guess += 1
        return guess

    def _skip(self, horizon: float, through_completions: bool = True) -> bool:
        """Skip the sanctioned rounds before ``horizon`` in batch.

        The one skip executor.  Entered at the end of a full round whose skip
        :meth:`_fast_forward` sanctioned, with ``horizon`` the first round
        that must run in full (arrival, cluster event or policy event) or
        pause.  Returns whether every tracked job finished inside the skip.

        * the execution model's completion heap names the next completion
          round, resuming only the probes that have not scanned that far;
        * between completion rounds nothing observable changes: the clock
          jumps, the rounds are logged as one run and progress stays
          deferred (a job settles when something reads it);
        * with ``through_completions`` (the gang witness: a completion cannot
          change a decision, so the skip chains on), at each completion
          round exactly the completing jobs are folded -- settled to the
          round before, then one ordinary ``advance_running`` round in
          ascending job id, the order stepping visits them -- and pruned;
        * without it (the decision-stable witness: freed GPUs must go to a
          queued job in that very round), the skip ends at the round before
          the first completion;
        * when the skip ends (arrival, cluster event, pause, policy event or
          the round budget) the fold clock moves to its last round.

        Stepping (``fast_forward=False``) is the reference.  Bit-identity
        with it rests on the computed clock (round ``n`` starts at ``n *
        round_duration``, so a jump of any length lands on the float
        stepping reaches), on the fold replaying ``advance_running``'s float
        operations in order, and on leaving a completion tied with a
        boundary round to that round's full pass: the skip stops one round
        short of it.
        """
        mgr = self.manager
        job_state = self.job_state
        cluster = self.cluster_state
        execution = self.execution_model
        rd = mgr.round_duration
        entry_round = mgr.round_number

        # The skip cannot extend past the horizon as of the entry round.
        end = entry_round + self._rounds_until(horizon, self.max_rounds - 1 - entry_round)
        if end == entry_round:
            return False
        if not through_completions:
            first = execution.next_completion(end, cluster)
            if first is not None:
                end = first - 1
                if end == entry_round:
                    return False

        # The last round the skip may reach; it moves only with the horizon
        # (the last round starting before it does not depend on the round
        # the count starts from), and never past ``end``, should the horizon
        # move out.
        reach, reach_horizon = end, horizon
        while True:
            if horizon != reach_horizon:
                reach = min(
                    mgr.round_number
                    + self._rounds_until(horizon, self.max_rounds - 1 - mgr.round_number),
                    end,
                )
                reach_horizon = horizon
            boundary = execution.next_completion(reach, cluster)
            # Jump to the round before the completion, or (none coming) to
            # the next boundary or the round budget.
            last = reach if boundary is None else boundary - 1
            if last > mgr.round_number:
                rows = last - mgr.round_number
                mgr.round_number = last
                mgr.current_time = last * rd
                self._log_rounds(rows, skipped=True)
            if boundary is None:
                execution.fold_through(mgr.round_number, cluster)
                job_state.current_time = mgr.current_time
                return False
            mgr.advance_time()
            execution.fold_round(job_state, cluster, boundary, mgr.current_time - rd, rd)
            mgr.prune_completed_jobs(cluster, job_state)
            job_state.current_time = mgr.current_time
            if self._tracked_all_finished():
                # The simulation ends at this round exactly as the full loop
                # would; the remaining jobs settle when the loop returns.
                return True
            self._log_rounds()
            if not job_state.count_active():
                return False
            # The gang witness is preserved by construction (the remaining
            # jobs keep running on their exact gangs), so chain directly into
            # the next segment.
            horizon = self._boundary_horizon()

    def _advance_loop(self, stop_time: Optional[float]) -> bool:
        """Drive the scheduling loop; return ``True`` once the run finished.

        With ``stop_time=None`` this is the classic start-to-finish loop.
        With a bound, the loop *pauses* -- returns ``False`` -- at the top of
        the first round whose start time is ``>= stop_time``, before any of
        that round's steps execute.  The stop time bounds every skip
        (:meth:`_boundary_horizon`), so a fast-forwarded run pauses at the
        same round as a stepping one.  Because rounds are atomic and all loop
        state (clock, round log, eviction count) lives on the instance, a
        paused loop can be resumed (possibly with new jobs submitted to the
        manager's wait queue in between) and replays exactly the rounds a
        single uninterrupted run would: the federation layer relies on this to
        interleave shard execution with routing decisions, and the
        synthesizer to end a shadow run at its horizon.  ``False`` with the
        round budget exhausted means the run did not finish (callers decide
        whether that is an error).
        """
        mgr = self.manager
        self._stop_time = stop_time
        wall_start = time.perf_counter()
        try:
            while mgr.round_number < self.max_rounds:
                if stop_time is not None and mgr.current_time >= stop_time:
                    return False  # paused before this round's steps ran

                # 1. Cluster membership changes (failures force a reschedule).
                affected = mgr.update_cluster(self.cluster_state)
                if self._recorder is not None:
                    # Timeline firings become first-class `cluster` events.
                    # Fast-forward always stops for cluster events, so this
                    # per-round drain sees every firing; read-only, so
                    # recording stays schedule-neutral.
                    for applied_time, event, evicted in (
                        mgr.cluster_manager.drain_applied()
                    ):
                        payload = {
                            "event": event.kind,
                            "scheduled_time": event.time,
                            "evicted_jobs": list(evicted),
                        }
                        payload.update(event.describe())
                        self._recorder.emit(EVENT_CLUSTER, applied_time, payload)
                for job_id in affected:
                    if job_id in self.job_state:
                        job = self.job_state.get(job_id)
                        if job.status == JobStatus.RUNNING:
                            mgr.preemptor.preempt(job, self.cluster_state, mgr.current_time)
                            self._eviction_count += 1
                            if self._recorder is not None:
                                self._recorder.emit(
                                    EVENT_EVICTION,
                                    mgr.current_time,
                                    {"job_id": job_id},
                                )

                # 2./3. Progress from the previous round, then free completed jobs.
                mgr.update_metrics(self.cluster_state, self.job_state)
                mgr.prune_completed_jobs(self.cluster_state, self.job_state)

                if self._tracked_all_finished():
                    return True

                # 4. Admission of newly arrived jobs.
                self.job_state.current_time = mgr.current_time
                new_jobs = mgr.pop_wait_queue()
                accepted = self.admission_policy.accept(new_jobs, self.cluster_state, self.job_state)
                self.job_state.add_new_jobs(accepted, mgr.current_time)

                # 5. Scheduling and placement.
                schedule = self.scheduling_policy.schedule(self.job_state, self.cluster_state)
                decision = self.placement_policy.place(schedule, self.cluster_state, self.job_state)

                # 6. Apply the decision (recording, for the decision-stable
                # fast-forward path, whether it was empty).
                self._last_decision_noop = not (decision.to_launch or decision.to_suspend)
                launched = mgr.exec_jobs(decision, self.cluster_state, self.job_state)
                # Trace non-empty decisions.  exec_jobs reports the launches
                # it applied, so tracing never re-scans the launch map; the
                # event lands after the status transitions it caused, at the
                # same simulated time.
                if self._recorder is not None and (launched or decision.to_suspend):
                    self._recorder.emit(
                        EVENT_DECISION,
                        mgr.current_time,
                        {
                            "launch": [[jid, sorted(gpus)] for jid, gpus in launched or ()],
                            "suspend": sorted(decision.to_suspend),
                        },
                    )

                # 7. Metric collection.
                self._collect_metrics()

                self._log_rounds()

                if self._stalled():
                    return True

                # 8. Event-skipping: jump over rounds in which nothing can change.
                if self._skippable and self._fast_forward():
                    return True

                mgr.advance_time()
            return False
        finally:
            # Whoever regains control (a caller reading results, a federation
            # pause, a checkpoint pickling this object) sees every job's
            # stored progress settled.
            self.execution_model.settle_all()
            self._wall_time += time.perf_counter() - wall_start

    def flush_telemetry(self) -> None:
        """Push buffered trace records to the recorder's sink, if any."""
        if self._recorder is not None:
            flush = getattr(self._recorder.sink, "flush", None)
            if flush is not None:
                flush()

    def build_result(self) -> SimulationResult:
        """Snapshot the loop state into a :class:`SimulationResult`.

        The round log is copied (O(runs)), so a result built at a pause does
        not grow when the loop resumes.
        """
        mgr = self.manager
        return SimulationResult(
            jobs=self.job_state.all_jobs(),
            tracked_job_ids=self.tracked_job_ids,
            round_duration=mgr.round_duration,
            rounds=mgr.round_number,
            end_time=mgr.current_time,
            round_log=self._round_log.copy(),
            wall_time_s=self._wall_time,
            eviction_count=self._eviction_count,
        )

    def run(self) -> SimulationResult:
        """Run the scheduling loop until every tracked job finished."""
        if not self._advance_loop(None):
            raise SimulationError(
                f"simulation did not finish within {self.max_rounds} rounds; "
                "the workload is likely too large for the cluster or a policy is starving jobs"
            )
        self.flush_telemetry()
        return self.build_result()
