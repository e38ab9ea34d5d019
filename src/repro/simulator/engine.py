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

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    List,
    MutableSequence,
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
from repro.core.blox_manager import BloxManager, is_lease_renewal
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import ConfigurationError, SimulationError
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.metrics.summary import SummaryStats, average, cdf_points, jct_summary
from repro.simulator.event_core import EventCore
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
    """One row of the per-round log kept by the simulator.

    Slotted: a long-horizon run keeps one row per simulated round, so the
    per-instance ``__dict__`` was most of the log's memory.  The event core
    builds skipped rounds' rows positionally -- keep the field order.
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


@dataclass
class SimulationResult:
    """Everything an experiment needs after a simulation finished."""

    jobs: List[Job]
    tracked_job_ids: List[int]
    round_duration: float
    rounds: int
    end_time: float
    round_log: List[RoundRecord] = field(default_factory=list)
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

    def jct_cdf(self, tracked_only: bool = True) -> Tuple[List[float], List[float]]:
        return cdf_points(self.jcts(tracked_only))

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
        execution_model: Optional[ExecutionModel] = None,
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
        round_log_limit: Optional[int] = None,
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
        if execution_model is not None:
            self.execution_model = execution_model
        else:
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

        # Event-skipping is only enabled when every composed policy declares it
        # safe to skip its per-round calls while nothing can change.
        self.fast_forward = (
            bool(fast_forward)
            and getattr(self.scheduling_policy, "supports_fast_forward", True)
            and getattr(self.admission_policy, "supports_fast_forward", True)
            and getattr(self.placement_policy, "supports_fast_forward", True)
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
        # mirrors the ClusterManager.next_event_time migration check below.
        # A drift-free execution rate (no per-round jitter RNG that strides
        # must not consume out of order) is required both for predicting
        # completion times and for batched per-job advancement.
        self._jitter_free = (
            type(self.execution_model.overheads).iteration_jitter
            is OverheadModel.iteration_jitter
        )
        self._policy_event_aware = (
            type(self.scheduling_policy).next_policy_event_time
            is not SchedulingPolicy.next_policy_event_time
            and getattr(self.placement_policy, "steady_state_safe", False)
            and getattr(self.admission_policy, "steady_state_safe", True)
            and self._jitter_free
        )
        # Batched strides additionally require that nothing observes the
        # intermediate rounds: collectors sample per round by contract, and a
        # BloxManager subclass overriding advance_time expects one call per
        # round, so either keeps the per-round light loop.
        manager_type = type(self.manager)
        self._stride_accelerable = (
            self._jitter_free
            and not self.metric_collectors
            and manager_type.advance_time is BloxManager.advance_time
        )
        # Batched idle segments also skip the per-round update_metrics/prune
        # no-ops, so a manager overriding either keeps those per-round too.
        self._idle_batchable = (
            manager_type.update_metrics is BloxManager.update_metrics
            and manager_type.prune_completed_jobs is BloxManager.prune_completed_jobs
        )
        #: Whether the most recent full round's placement decision was a pure
        #: lease renewal (nothing suspended, nothing newly launched).  The
        #: elastic fast-forward path uses this as its fixed-point witness.
        self._last_decision_noop = False
        # A ClusterManager subclass that overrides update() but not
        # next_event_time() has per-round effects the simulator cannot predict;
        # treating its inherited "no events ever" as truth would silently skip
        # its events, so such managers disable event skipping entirely.
        manager_cls = type(self.manager.cluster_manager)
        if (
            manager_cls.update is not ClusterManager.update
            and manager_cls.next_event_time is ClusterManager.next_event_time
        ):
            self.fast_forward = False

        # Loop state lives on the instance so the loop is *resumable*: the
        # federation layer (src/repro/federation/) pauses a shard's loop at
        # routing events, submits routed jobs, and resumes it -- see
        # :meth:`_advance_loop`.  ``run()`` still drives a single
        # start-to-finish pass over this state.
        #
        # ``round_log_limit`` bounds the per-round history: N keeps the last N
        # records (a deque ring), 0 disables the log entirely.  Streaming
        # federation workers use this so 64-shard million-job runs do not
        # accumulate unbounded per-round rows; the limit never changes what
        # rounds execute, only what is retained.
        if round_log_limit is not None and round_log_limit < 0:
            raise ConfigurationError(
                f"round_log_limit must be >= 0 or None, got {round_log_limit}"
            )
        self._round_log_limit = round_log_limit
        self._round_log: MutableSequence[RoundRecord] = (
            deque(maxlen=round_log_limit) if round_log_limit is not None else []
        )
        self._eviction_count = 0
        self._wall_time = 0.0

        # Sanctioned skips that are batchable (idle segments, decision-stable
        # strides, the gang drain chain) execute in the event core; everything
        # else takes the per-round light loop below.
        self._event_core = EventCore(self)

        # Telemetry is opt-in and read-only: the recorder hooks only observe
        # state (never draw RNG or mutate anything), so a traced run stays
        # bit-identical to an untraced one, and it deliberately is not a
        # MetricCollector -- collectors disable steady-mode strides, which
        # would turn "record a trace" into a multi-x slowdown.
        self._recorder = recorder
        self._telemetry_observer: Optional[TelemetryObserver] = None
        if recorder is not None:
            from repro.telemetry.recorder import TelemetryObserver

            self._telemetry_observer = TelemetryObserver(recorder, clock=self.manager)
            # The registry holds observers weakly; the instance attribute
            # above is the strong reference keeping it alive.
            self.job_state.add_observer(self._telemetry_observer)

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

    def _prune_completed_jobs(self) -> List[Job]:
        """Step 3 of the loop; a pruned job also gives up its probe and cached rate."""
        released = self.manager.prune_completed_jobs(self.cluster_state, self.job_state)
        for job in released:
            self._event_core.forget(job.job_id)
            self.execution_model.forget(job.job_id)
        return released

    def _collect_metrics(self) -> None:
        """Step 7 of the loop; collectors read the application metrics."""
        if self.metric_collectors:
            self.execution_model.publish_owed_metrics()
            for collector in self.metric_collectors:
                collector.collect(
                    self.job_state, self.cluster_state, self.manager.current_time
                )

    def _round_record(self) -> RoundRecord:
        mgr = self.manager
        running = self.job_state.count_with_status(JobStatus.RUNNING)
        record = RoundRecord(
            round_number=mgr.round_number,
            time=mgr.current_time,
            running_jobs=running,
            queued_jobs=self.job_state.count_active() - running,
            utilization=self.cluster_state.utilization(),
            scheduler_name=getattr(self.scheduling_policy, "current_name", None)
            or self.scheduling_policy.name,
            admission_name=getattr(self.admission_policy, "current_name", None)
            or self.admission_policy.name,
            busy_capacity=self.cluster_state.busy_capacity(),
            healthy_capacity=self.cluster_state.healthy_capacity(),
        )
        # Every appended RoundRecord -- full rounds, light rounds, steady
        # strides, the drain chain -- is built here, so this is the single
        # choke point that makes the traced round stream equal the round log.
        if self._recorder is not None:
            self._recorder.emit(
                EVENT_ROUND,
                record.time,
                {
                    "round": record.round_number,
                    "running": record.running_jobs,
                    "queued": record.queued_jobs,
                    "utilization": record.utilization,
                    "busy_capacity": record.busy_capacity,
                    "healthy_capacity": record.healthy_capacity,
                },
            )
        return record

    # ------------------------------------------------------------------
    # Event-skipping fast-forward
    # ------------------------------------------------------------------

    def _decision_is_noop(self, decision) -> bool:
        """Whether applying ``decision`` leaves job and cluster state unchanged.

        True when nothing is suspended and nothing is launched -- an empty
        delta, or one whose every launch entry is a listed lease renewal (the
        job is already RUNNING on exactly those GPUs).  Must be evaluated
        *before* ``exec_jobs`` applies the decision.
        """
        if decision.to_suspend:
            return False
        for job_id, gpu_ids in decision.to_launch.items():
            if not is_lease_renewal(self.job_state.get(job_id), gpu_ids):
                return False
        return True

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
        for job in job_state.running_jobs():
            if len(job.allocated_gpus) != job.num_gpus:
                return False
        return True

    def _earliest_completion_bound(self) -> Optional[float]:
        """Earliest time any running job can reach its termination target.

        Uses the execution model's own rate function, so the estimate matches
        what the per-round ``advance`` calls will accumulate (modulo
        floating-point association, which the caller's one-round margin
        absorbs).  ``None`` when no running job can finish (e.g. zero rates).
        """
        mgr = self.manager
        earliest: Optional[float] = None
        for job in self.job_state.running_jobs():
            rate = self.execution_model.cached_rate(job, self.cluster_state)[0]
            if rate <= 0:
                continue
            target = self.execution_model.termination.work_target(job)
            remaining = max(0.0, target - job.work_done)
            finish = mgr.current_time + job.pending_overhead + remaining / rate
            if earliest is None or finish < earliest:
                earliest = finish
        return earliest

    def _boundary_horizon(self) -> float:
        """Time of the next arrival or cluster event (``inf`` if neither)."""
        mgr = self.manager
        next_event = mgr.cluster_manager.next_event_time(mgr.current_time)
        next_arrival = mgr.next_arrival_time()
        bounds = [t for t in (next_event, next_arrival) if t is not None]
        return min(bounds) if bounds else math.inf

    def _fast_forward(self, round_log: List[RoundRecord]) -> bool:
        """Skip rounds during which no scheduling decision can change.

        Called at the end of a full round, *before* ``advance_time``.  While no
        arrival, cluster event, admission release or scheduling change can
        occur, the only per-round work is advancing running jobs and logging --
        so we run exactly those steps ("light rounds") and skip the cluster
        update, admission, scheduling, placement and launch steps, which are
        guaranteed no-ops.  Light rounds execute the same ``advance`` calls in
        the same order as full rounds, so work/overhead accounting, completion
        times, metric collection and the round log stay bit-identical to a run
        with fast-forward disabled.

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
        running = job_state.count_with_status(JobStatus.RUNNING)
        active = job_state.count_active()
        # A stride can run in *steady* mode -- per-job tight-loop accounting
        # via ExecutionModel.advance_steady plus batched round records -- when
        # per-round observation is provably equivalent to batched observation:
        # no metric collectors sample intermediate rounds, the rate model is
        # drift-free (no per-round jitter RNG), and the stride is bounded to
        # end strictly before the earliest completion.
        steady_mode = False
        if active:
            # Rounds with active jobs can be skipped on one of two witnesses.
            # Gang steady state: audited policies, every active job already
            # running, and each holding exactly its requested gang.
            gang_steady = self._gang_steady_witness()
            if gang_steady:
                # The chain's deferred bookkeeping (one probe + one flush per
                # job) only pays for itself on long strides; near an arrival
                # or cluster event the per-round light loop is cheaper and
                # bit-identical, so short windows fall through to it.
                if (
                    self._stride_accelerable
                    and boundary - mgr.current_time > mgr.round_duration
                ):
                    return self._event_core.chain(boundary)
                # Not accelerable (collectors, jitter or a manager with its
                # own advance_time), or a short window: fall through to the
                # per-round light loop, which breaks at completions.
            else:
                # Decision-stable (elastic/discretised policies): this round's
                # decision was a pure lease renewal, and the policy guarantees
                # -- via next_policy_event_time -- that absent external events
                # it re-emits the same schedule until the returned time.  An
                # unchanged schedule against unchanged state places the same
                # no-op, so the skipped rounds are provably identical.
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
                # Unlike the gang path (where nothing is waiting for GPUs and
                # a completion therefore cannot change the next decision), a
                # completion here frees GPUs that a queued job must receive in
                # that very round -- so the stride must stop *before* the
                # first completion, not merely break at it.  Steady strides
                # enforce this by excluding the completing round from the
                # probe-sized stride; the light loop (collectors present)
                # bounds the horizon by the closed-form completion estimate
                # with a one-round safety margin.
                steady_mode = self._stride_accelerable
                if not steady_mode:
                    completion = self._earliest_completion_bound()
                    if completion is not None:
                        completion -= mgr.round_duration
                        if completion <= mgr.current_time:
                            return False
                        if policy_bound is None or completion < policy_bound:
                            policy_bound = completion

        # Nothing may fire before the next arrival or cluster event (or, on
        # the decision-stable path, the policy's own next event).
        horizon = boundary if policy_bound is None else min(boundary, policy_bound)

        if steady_mode:
            return self._event_core.steady(horizon)
        if not active and self._stride_accelerable and self._idle_batchable:
            return self._event_core.idle(horizon)
        return self._fast_forward_light(horizon, running, round_log)

    def _fast_forward_light(
        self,
        horizon: float,
        running: int,
        round_log: List[RoundRecord],
    ) -> bool:
        """The per-round light loop: advance + log, nothing else.

        Handles the skip cases the event core does not claim: idle stretches
        observed by collectors, short gang-steady windows (where the chain's
        bookkeeping costs more than it saves) and every stride that is not
        accelerable.  Breaks back to the full loop as soon as a completion
        changes the steady state.
        """
        mgr = self.manager
        job_state = self.job_state
        while (
            mgr.round_number + 1 < self.max_rounds
            and (mgr.round_number + 1) * mgr.round_duration < horizon
        ):
            mgr.advance_time()
            mgr.update_metrics(self.cluster_state, job_state)
            released = self._prune_completed_jobs()
            if self._tracked_all_finished():
                return True
            # Keep the sanctioned "now" side-channel fresh for collectors,
            # mirroring the refresh the full loop does before its policy calls.
            job_state.current_time = mgr.current_time
            self._collect_metrics()
            round_log.append(self._round_record())
            if released or job_state.count_with_status(JobStatus.RUNNING) != running:
                # A completion changed the steady state; let the full loop
                # take over again (its next rounds are no-ops for the policies
                # but cheap, and they re-establish the skip conditions).
                break
        return False

    def _advance_loop(self, stop_time: Optional[float]) -> bool:
        """Drive the scheduling loop; return ``True`` once the run finished.

        With ``stop_time=None`` this is the classic start-to-finish loop.
        With a bound, the loop *pauses* -- returns ``False`` -- at the top of
        the first round whose start time is ``>= stop_time``, before any of
        that round's steps execute.  Because rounds are atomic and all loop
        state (clock, round log, eviction count) lives on the instance, a
        paused loop can be resumed (possibly with new jobs submitted to the
        manager's wait queue in between) and replays exactly the rounds a
        single uninterrupted run would: the federation layer relies on this to
        interleave shard execution with routing decisions.  ``False`` with the
        round budget exhausted means the run did not finish (callers decide
        whether that is an error).
        """
        mgr = self.manager
        round_log = self._round_log
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
                self._prune_completed_jobs()

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
                # fast-forward path, whether it was a pure lease renewal; this
                # must be judged against the pre-application state).
                if self.fast_forward and self._policy_event_aware:
                    self._last_decision_noop = self._decision_is_noop(decision)
                launched = mgr.exec_jobs(decision, self.cluster_state, self.job_state)
                # Trace non-trivial decisions (pure lease renewals are noise).
                # exec_jobs reports what it actually applied, so tracing never
                # re-scans the launch map; the event lands after the status
                # transitions it caused, at the same simulated time.
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

                round_log.append(self._round_record())

                if self._stalled():
                    return True

                # 8. Event-skipping: jump over rounds in which nothing can change.
                if self.fast_forward and self._fast_forward(round_log):
                    return True

                mgr.advance_time()
            return False
        finally:
            # Whoever regains control (a caller reading results, a federation
            # pause, a checkpoint pickling this object) sees every job's
            # application metrics written.
            self.execution_model.publish_owed_metrics()
            self._wall_time += time.perf_counter() - wall_start

    def flush_telemetry(self) -> None:
        """Push buffered trace records to the recorder's sink, if any."""
        if self._recorder is not None:
            flush = getattr(self._recorder.sink, "flush", None)
            if flush is not None:
                flush()

    def build_result(self) -> SimulationResult:
        """Snapshot the loop state into a :class:`SimulationResult`."""
        mgr = self.manager
        round_log = self._round_log
        if self._round_log_limit is not None:
            round_log = list(round_log)
        return SimulationResult(
            jobs=self.job_state.all_jobs(),
            tracked_job_ids=self.tracked_job_ids,
            round_duration=mgr.round_duration,
            rounds=mgr.round_number,
            end_time=mgr.current_time,
            round_log=round_log,
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
