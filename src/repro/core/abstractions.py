"""The seven Blox abstractions as Python base classes.

Blox decomposes a DL scheduler into (Figure 1 of the paper):

1. **Job admission policy** -- gatekeeper for newly arriving jobs.
2. **Cluster management** -- node add/remove, failure detection.
3. **Job scheduling policy** -- prioritises runnable jobs each round.
4. **Job placement policy** -- maps prioritised jobs to concrete GPUs.
5. **Job launch mechanism** -- starts jobs on their assigned workers.
6. **Job preemption and restart** -- checkpoints and stops jobs losing GPUs.
7. **Metric collection** -- aggregates job- and cluster-level metrics.

Every abstraction receives the two shared data structures
(:class:`~repro.core.job_state.JobState` and
:class:`~repro.core.cluster_state.ClusterState`) plus abstraction-specific
inputs, matching Table 6 of the paper.  Concrete instances live in
:mod:`repro.policies`; the simulation and deployment runtimes call them through
these interfaces, which is what makes policies reusable across both paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.cluster_state import ClusterState
from repro.core.job import Job
from repro.core.job_state import JobState, JobStateObserver

__all__ = [
    "AdmissionPolicy",
    "ClusterManager",
    "JobLauncher",
    "JobStateObserver",
    "MetricCollector",
    "PlacementDecision",
    "PlacementPolicy",
    "PreemptionMechanism",
    "ScheduleEntry",
    "SchedulingPolicy",
    "TerminationPolicy",
]


@dataclass(frozen=True)
class ScheduleEntry:
    """One row of the priority list produced by a scheduling policy.

    ``gpu_demand`` is the number of GPUs the policy wants to give the job this
    round.  For gang-scheduled policies this equals the job's request; elastic
    policies (Optimus, Pollux) may ask for more or fewer GPUs.
    """

    job_id: int
    gpu_demand: int

    def __post_init__(self) -> None:
        if self.gpu_demand < 0:
            raise ValueError(f"gpu_demand must be >= 0, got {self.gpu_demand}")


@dataclass
class PlacementDecision:
    """Output of a placement policy for one round: the allocation *delta*.

    ``to_launch`` maps job id -> concrete GPU ids for every job whose
    allocation changes this round: launches, moves and resizes.
    ``to_suspend`` lists jobs running in the previous round that must be
    preempted (because they were not selected, or their placement changed).
    A running job named in neither keeps exactly the GPUs it holds.  A job
    listed in ``to_launch`` must hold no GPUs once ``to_suspend`` is applied:
    ``exec_jobs`` raises ``AllocationError`` for one that still does.

    ``aux_per_gpu`` maps a launched job id -> the ``(CPU cores, host memory
    GB)`` per GPU the launcher reserves for it (Synergy).  A launch not listed
    reserves the job's full demand and runs at full CPU speed.
    """

    to_launch: Dict[int, List[int]] = field(default_factory=dict)
    to_suspend: List[int] = field(default_factory=list)
    aux_per_gpu: Dict[int, Tuple[float, float]] = field(default_factory=dict)


class AdmissionPolicy:
    """Decides which newly submitted jobs are allowed to enter the schedulable pool.

    ``accept`` is called once per round with the jobs that arrived since the
    previous round; it may hold jobs back internally (admission queue) and
    release them in a later round, which is how the threshold policies used in
    the composition case study (§5.1) work.
    """

    name = "admission"

    #: Whether the simulator may skip this policy's per-round calls during
    #: event-free stretches (see :class:`repro.simulator.engine.Simulator`).
    #: Policies whose behaviour depends on being invoked every round must set
    #: this to ``False``.
    supports_fast_forward = True

    #: Whether ``accept([])`` with an empty pending queue is a guaranteed
    #: no-op, so the call can be skipped while the admission pipeline is
    #: quiescent.  Subclasses with per-round side effects must set ``False``.
    steady_state_safe = True

    def accept(
        self,
        new_jobs: Sequence[Job],
        cluster_state: ClusterState,
        job_state: JobState,
    ) -> List[Job]:
        raise NotImplementedError

    def pending_jobs(self) -> List[Job]:
        """Jobs currently held back by the policy (empty for accept-all)."""
        return []


class SchedulingPolicy:
    """Orders runnable jobs by priority and decides their GPU demand for the round.

    ``schedule`` returns the priority list as any iterable of
    :class:`ScheduleEntry` -- a list, or a lazy stream, which the stock gang
    policies return so that a round costs what placement reads rather than
    the backlog's length.  The caller reads it at most once, in the same
    round, before any job's status or allocation changes; it may stop
    early.  So anything the policy must do every round (index upkeep,
    promotions) happens when ``schedule`` is called, not as
    the stream is read.

    A schedule that knows its own order may carry ``select(remaining,
    held) -> (selected, suspended)``, placement's selection answered without
    iterating: ``selected`` maps job id -> demand for the entries the
    placement walk would take but not keep, in stream order (GPU choice
    depends on launch order), and ``suspended`` holds the running ids it
    would not keep.  It must equal
    :func:`~repro.policies.placement.base.walk_schedule` over
    ``iter(schedule)`` at the same ``remaining`` GPUs and ``held`` (job id
    -> GPU ids held).  Placement calls it when present; a schedule wrapped
    in a generator or any other iterable falls back to the walk.

    Progress (``work_done``, ``attained_service``, ``pending_overhead``) reads
    current on every job whenever a policy runs (a job whose progress is
    deferred settles on the read), and so does ``job.metrics``, the
    application metrics the execution model's rate derives from it
    (``"loss" | "progress" | "iteration_time" | "throughput" |
    "attained_service"``), computed on each read.
    """

    name = "scheduling"

    #: Whether the simulator may skip this policy's ``schedule`` calls while
    #: the cluster is idle (no active jobs).  Policies with per-call internal
    #: clocks (e.g. the synthesizer's evaluation counter) must set ``False``.
    supports_fast_forward = True

    #: Whether, when every active job is RUNNING with exactly its requested
    #: gang and nothing else can change, this policy is guaranteed to re-emit
    #: the same demands (so rescheduling is a no-op and the round can be
    #: skipped).  Conservatively ``False``; audited stateless gang policies
    #: (FIFO, SRTF, LAS) opt in.
    steady_state_safe = False

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> Iterable[ScheduleEntry]:
        raise NotImplementedError

    def next_policy_event_time(
        self,
        job_state: JobState,
        cluster_state: ClusterState,
        now: float,
    ) -> Optional[float]:
        """Earliest future time at which this policy's decision may change.

        The contract: assuming no *external* event occurs in the meantime --
        no arrival, completion, admission release or cluster membership change
        -- the policy guarantees that every ``schedule()`` call at a time
        strictly before the returned value produces exactly the entries it
        produced this round.  The simulator uses this (together with the
        observation that applying an unchanged schedule to unchanged state is
        a no-op) to fast-forward elastic and discretised policies through
        event-free stretches; see
        :meth:`repro.simulator.engine.Simulator._fast_forward`.

        Returning ``now`` (the default) declares "my decision may change any
        round", which disables decision-stable skipping for this policy.
        ``None`` means "never, absent external events" (policies whose
        decision is a pure function of the job set, statuses, profiles and
        allocations -- FIFO, Pollux).  Discretised policies return their next
        internal event: Tiresias' queue-demotion crossings and
        starvation-promotion deadlines are computable in closed form from
        attained service and the thresholds.
        """
        return now


class PlacementPolicy:
    """Maps the priority list to concrete GPUs and decides which jobs to suspend.

    ``place`` receives what :meth:`SchedulingPolicy.schedule` returned this
    round: an iterable it may read once, in priority order, and stop reading
    whenever the rest cannot change the decision.  It must finish reading
    before it changes any job or cluster state.
    """

    name = "placement"

    #: See :attr:`SchedulingPolicy.supports_fast_forward`.
    supports_fast_forward = True

    #: Whether a steady-state round (all jobs kept) is a guaranteed no-op for
    #: this policy.  ``BasePlacementPolicy`` sets this to ``True``.
    steady_state_safe = False

    def place(
        self,
        schedule: Iterable[ScheduleEntry],
        cluster_state: ClusterState,
        job_state: JobState,
    ) -> PlacementDecision:
        raise NotImplementedError


class ClusterManager:
    """Tracks cluster membership: node arrivals, failures and removals."""

    name = "cluster-management"

    def update(self, cluster_state: ClusterState, current_time: float) -> List[int]:
        """Apply membership changes; returns job ids that must be rescheduled."""
        return []

    def next_event_time(self, current_time: float) -> Optional[float]:
        """Earliest future time at which :meth:`update` may change anything.

        ``None`` means "no scheduled events ever" (the default manager never
        changes membership).  The simulator uses this to fast-forward through
        event-free stretches.  Subclasses that override :meth:`update` without
        overriding this method get event skipping disabled automatically (the
        simulator cannot predict their events); override it -- returning
        ``current_time`` disables skipping explicitly, a concrete event time
        re-enables it -- to opt back in.
        """
        return None

    def drain_applied(self) -> List[Tuple[float, object, Tuple[int, ...]]]:
        """Events applied since the last drain, for the ``cluster`` trace kind.

        Returns ``(applied time, event, evicted job ids)`` triples; managers
        without an event stream (this default) report nothing.  The engine
        drains once per round right after :meth:`update`, so emission is
        read-only and schedule-neutral; wrapper managers must delegate to
        their inner manager or the timeline's firings disappear from traces.
        """
        return []


class MetricCollector:
    """Aggregates job- and cluster-level metrics at the end of every round."""

    name = "metric-collection"

    def collect(
        self,
        job_state: JobState,
        cluster_state: ClusterState,
        current_time: float,
    ) -> None:
        return None


class JobLauncher:
    """Starts (or resumes) a job on its assigned GPUs.

    In simulation this only updates job state and charges a launch overhead; the
    deployment runtime instead instructs the per-node WorkerManager.
    ``aux_per_gpu`` is the decision's per-GPU ``(CPU cores, host memory GB)``
    request for the job (see :class:`PlacementDecision`), ``None`` if none.
    """

    name = "job-launch"

    def launch(
        self,
        job: Job,
        gpu_ids: Sequence[int],
        cluster_state: ClusterState,
        current_time: float,
        aux_per_gpu: Optional[Tuple[float, float]] = None,
    ) -> None:
        raise NotImplementedError


class PreemptionMechanism:
    """Checkpoints and stops a job that loses its allocation this round."""

    name = "job-preemption"

    def preempt(self, job: Job, cluster_state: ClusterState, current_time: float) -> None:
        raise NotImplementedError


class TerminationPolicy:
    """Decides when a job is done.

    The default behaviour (epoch-based) finishes a job when it has executed the
    work the user asked for; the loss-based policy of §5.3 terminates earlier
    once the job's loss has converged.
    """

    name = "termination"

    def work_target(self, job: Job) -> float:
        """Seconds of (requested-allocation) work after which the job is complete.

        Must be a pure function of the job's static description (duration,
        convergence fraction, ...): the execution model reads it once per
        allocation, not once per round, and completion probes size skips
        with it.  A target that moves with progress, metrics or time is not
        re-read until the job's allocation or the cluster membership changes.
        """
        raise NotImplementedError

