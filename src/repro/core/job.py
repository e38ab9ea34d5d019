"""The :class:`Job` record: the unit of work scheduled by every policy.

A ``Job`` combines the static description found in a workload trace (arrival
time, requested GPUs, model profile) with the dynamic state maintained by the
scheduler across rounds (attained service, work completed, current allocation).
Blox keeps all of this in a dictionary-style ``JobState``; we keep the per-job
fields on a dataclass for readability and let
:class:`~repro.core.job_state.JobState` own the collection.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.exceptions import ConfigurationError


class JobStatus(enum.Enum):
    """Lifecycle of a job inside the scheduler.

    The transitions are::

        SUBMITTED -> WAITING_ADMISSION -> RUNNABLE -> RUNNING <-> PREEMPTED
                                                        |
                                                        v
                                                    COMPLETED / FAILED / TERMINATED
    """

    SUBMITTED = "submitted"
    WAITING_ADMISSION = "waiting_admission"
    RUNNABLE = "runnable"
    RUNNING = "running"
    PREEMPTED = "preempted"
    COMPLETED = "completed"
    TERMINATED = "terminated"
    FAILED = "failed"

    @property
    def is_terminal(self) -> bool:
        """Whether the job will never run again."""
        return self in (JobStatus.COMPLETED, JobStatus.TERMINATED, JobStatus.FAILED)

    @property
    def is_active(self) -> bool:
        """Whether the job is admitted and still has work to do."""
        return self in (JobStatus.RUNNABLE, JobStatus.RUNNING, JobStatus.PREEMPTED)


_job_counter = itertools.count()


def _next_job_id() -> int:
    return next(_job_counter)


class _StatusField:
    """Data descriptor routing ``job.status`` writes through the owning registry.

    :class:`~repro.core.job_state.JobState` keeps status-indexed job sets; for
    those indexes to stay correct *every* status write -- whether it goes
    through ``JobState.set_status`` or assigns ``job.status`` directly (as the
    launch/preemption mechanisms and the execution model do) -- must notify the
    registry.  The descriptor stores the raw value in ``job.__dict__`` and
    calls back into the registry recorded by ``JobState.track``.
    """

    def __set_name__(self, owner, name) -> None:
        self._attr = "_" + name

    def __get__(self, obj, objtype=None):
        if obj is None:
            # Dataclasses read the class attribute to obtain the __init__
            # default for the field.
            return JobStatus.SUBMITTED
        return obj.__dict__[self._attr]

    def __set__(self, obj, value) -> None:
        old = obj.__dict__.get(self._attr)
        obj.__dict__[self._attr] = value
        registry = obj.__dict__.get("_registry")
        if registry is not None and old is not value:
            registry._reindex_status(obj, old, value)


class _ProgressField:
    """Data descriptor routing progress writes through the owning registry.

    Scheduling policies keep ordered priority structures keyed on attained
    service / remaining work (see
    :class:`~repro.policies.scheduling.priority_index.RunnablePriorityIndex`).
    For those structures to stay correct, every write to ``attained_service``
    and ``work_done`` -- the execution model updates both once per running job
    per round -- notifies the registry recorded by ``JobState.track``, which
    forwards to its observers.  Untracked jobs pay only a dict store.

    The raw value lives in ``job.__dict__["_" + name]``; nothing outside this
    module touches it there.  :meth:`Job.add_progress` is the one shortcut:
    it stores both fields directly while the registry has no progress
    observer (nobody to notify).
    """

    def __init__(self, default: float = 0.0) -> None:
        self._default = default

    def __set_name__(self, owner, name) -> None:
        self._name = name
        self._attr = "_" + name

    def __get__(self, obj, objtype=None):
        if obj is None:
            # Dataclasses read the class attribute to obtain the __init__
            # default for the field.
            return self._default
        return obj.__dict__[self._attr]

    def __set__(self, obj, value) -> None:
        state = obj.__dict__
        old = state.get(self._attr)
        state[self._attr] = value
        registry = state.get("_registry")
        if (
            registry is not None
            and registry._progress_observers
            and old is not None
            and old != value
        ):
            registry._notify_progress(obj, self._name, old, value)


@dataclass
class ScalingProfile:
    """How a job's throughput scales with the number of allocated GPUs.

    The throughput of a data-parallel DNN training job scales sub-linearly with
    the number of workers because of communication.  We model the speedup of
    running on ``g`` GPUs relative to a single GPU with the classic
    efficiency-decay form::

        speedup(g) = g / (1 + alpha * (g - 1))

    where ``alpha`` in ``[0, 1]`` captures the communication overhead per extra
    worker (``alpha = 0`` is perfect linear scaling).  ``max_useful_gpus`` caps
    the number of GPUs beyond which adding workers yields no further speedup;
    elastic policies such as Pollux and Optimus use it to bound allocations.
    """

    alpha: float = 0.05
    max_useful_gpus: int = 16

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError(f"scaling alpha must be in [0, 1], got {self.alpha}")
        if self.max_useful_gpus < 1:
            raise ConfigurationError(
                f"max_useful_gpus must be >= 1, got {self.max_useful_gpus}"
            )

    def speedup(self, num_gpus: int) -> float:
        """Return the speedup of ``num_gpus`` GPUs relative to one GPU."""
        if num_gpus <= 0:
            return 0.0
        effective = min(num_gpus, self.max_useful_gpus)
        return effective / (1.0 + self.alpha * (effective - 1))

    def marginal_speedup(self, num_gpus: int) -> float:
        """Speedup gained by going from ``num_gpus`` to ``num_gpus + 1`` GPUs."""
        return self.speedup(num_gpus + 1) - self.speedup(num_gpus)


@dataclass
class Job:
    """A DL training job as seen by the scheduler.

    Parameters mirror the information available in the traces used by the Blox
    paper: arrival time, requested GPU count and isolated run time, plus the
    profile data (per-iteration time, scaling behaviour, placement sensitivity,
    resource demands, loss curve) associated with the model the job trains.
    """

    # --- static description -------------------------------------------------
    arrival_time: float
    num_gpus: int
    duration: float
    job_id: int = field(default_factory=_next_job_id)
    model_name: str = "generic"
    gpu_type: str = "v100"
    iteration_time: float = 1.0
    scaling: ScalingProfile = field(default_factory=ScalingProfile)
    placement_sensitive: bool = False
    skew: float = 0.0
    comm_intensity: float = 0.1
    cpu_demand_per_gpu: float = 3.0
    mem_demand_per_gpu: float = 16.0
    convergence_fraction: float = 1.0
    loss_threshold: float = 0.0
    batch_size: int = 32
    max_batch_scale: int = 8
    user: str = "default"
    metadata: Dict[str, object] = field(default_factory=dict)

    # --- dynamic state ------------------------------------------------------
    status: JobStatus = _StatusField()
    admitted_time: Optional[float] = None
    first_schedule_time: Optional[float] = None
    completion_time: Optional[float] = None
    attained_service: float = _ProgressField(0.0)
    work_done: float = _ProgressField(0.0)
    allocated_gpus: List[int] = field(default_factory=list)
    num_preemptions: int = 0
    num_launches: int = 0
    pending_overhead: float = 0.0
    metrics: Dict[str, object] = field(default_factory=dict)
    per_gpu_throughput: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ConfigurationError(f"job {self.job_id} requests {self.num_gpus} GPUs")
        if self.duration <= 0:
            raise ConfigurationError(f"job {self.job_id} has non-positive duration")
        if self.iteration_time <= 0:
            raise ConfigurationError(f"job {self.job_id} has non-positive iteration time")
        if not 0.0 < self.convergence_fraction <= 1.0:
            raise ConfigurationError(
                f"convergence_fraction must be in (0, 1], got {self.convergence_fraction}"
            )

    # --- pickling ---------------------------------------------------------

    def __getstate__(self):
        """Pickle support (federation workers ship jobs across processes).

        ``_registry`` is the backref to the owning
        :class:`~repro.core.job_state.JobState` installed by ``track``; it is
        runtime wiring, and keeping it would drag the entire registry (and
        every other job in it) into every pickled job.  It is dropped here and
        restored by ``JobState.__setstate__`` on the registry side, so a job
        pickled *inside* its registry round-trips fully bound while a job
        pickled alone arrives unbound (track it to re-bind).
        """
        state = self.__dict__.copy()
        state.pop("_registry", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)

    # --- progress ---------------------------------------------------------

    def add_progress(self, work: float, service: float) -> None:
        """``work_done += work`` then ``attained_service += service``, in one call.

        The execution model's write, once per running job per round.  Same
        values and same notifications as the two assignments; while the
        registry has no progress observer (nobody to notify) both sums are
        stored without the descriptor calls.
        """
        state = self.__dict__
        registry = state.get("_registry")
        if registry is not None and registry._progress_observers:
            self.work_done = state["_work_done"] + work
            self.attained_service = state["_attained_service"] + service
        else:
            state["_work_done"] += work
            state["_attained_service"] += service

    # --- derived quantities ---------------------------------------------

    @property
    def total_iterations(self) -> float:
        """Number of iterations the user asked for (epoch-based termination)."""
        return self.duration / self.iteration_time

    @property
    def total_work(self) -> float:
        """Total GPU-normalised work in seconds on the requested allocation."""
        return self.duration

    @property
    def remaining_work(self) -> float:
        """Seconds of work left assuming the requested allocation."""
        return max(0.0, self.duration - self.work_done)

    @property
    def progress_fraction(self) -> float:
        """Fraction of the requested work already completed, in ``[0, 1]``."""
        if self.duration <= 0:
            return 1.0
        return min(1.0, self.work_done / self.duration)

    @property
    def is_running(self) -> bool:
        return self.status == JobStatus.RUNNING

    @property
    def is_finished(self) -> bool:
        return self.status.is_terminal

    @property
    def is_distributed(self) -> bool:
        """Whether the job requests more than one GPU."""
        return self.num_gpus > 1

    def job_completion_time(self) -> Optional[float]:
        """JCT = completion time minus arrival time, or ``None`` if unfinished."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time

    def responsiveness(self) -> Optional[float]:
        """Time from submission until the job first received GPUs."""
        if self.first_schedule_time is None:
            return None
        return self.first_schedule_time - self.arrival_time

    # --- speed model ------------------------------------------------------

    def throughput_factor(self, allocated_gpus: int) -> float:
        """Rate of progress relative to running on the requested allocation.

        A job that asked for ``num_gpus`` GPUs and received ``allocated_gpus``
        progresses at ``speedup(allocated) / speedup(requested)`` of its
        isolated rate.  Elastic schedulers (Pollux, Optimus) may allocate more
        or fewer GPUs than requested.
        """
        if allocated_gpus <= 0:
            return 0.0
        requested_speedup = self.scaling.speedup(self.num_gpus)
        if requested_speedup <= 0:
            return 0.0
        return self.scaling.speedup(allocated_gpus) / requested_speedup

    def copy_static(self) -> "Job":
        """Return a fresh copy with the static description but reset dynamic state.

        Used by shadow simulations (the automatic scheduler synthesizer) and by
        experiment harnesses that run the same trace under several policies.
        """
        return Job(
            arrival_time=self.arrival_time,
            num_gpus=self.num_gpus,
            duration=self.duration,
            job_id=self.job_id,
            model_name=self.model_name,
            gpu_type=self.gpu_type,
            iteration_time=self.iteration_time,
            scaling=ScalingProfile(self.scaling.alpha, self.scaling.max_useful_gpus),
            placement_sensitive=self.placement_sensitive,
            skew=self.skew,
            comm_intensity=self.comm_intensity,
            cpu_demand_per_gpu=self.cpu_demand_per_gpu,
            mem_demand_per_gpu=self.mem_demand_per_gpu,
            convergence_fraction=self.convergence_fraction,
            loss_threshold=self.loss_threshold,
            batch_size=self.batch_size,
            max_batch_scale=self.max_batch_scale,
            user=self.user,
            metadata=dict(self.metadata),
            per_gpu_throughput=dict(self.per_gpu_throughput),
        )

    def snapshot(self) -> "Job":
        """Return a deep-enough copy including dynamic state.

        The synthesizer forks the live system state into a shadow simulation;
        list/dict fields are copied so the shadow run cannot mutate the live job.
        """
        clone = self.copy_static()
        clone.status = self.status
        clone.admitted_time = self.admitted_time
        clone.first_schedule_time = self.first_schedule_time
        clone.completion_time = self.completion_time
        clone.attained_service = self.attained_service
        clone.work_done = self.work_done
        clone.allocated_gpus = list(self.allocated_gpus)
        clone.num_preemptions = self.num_preemptions
        clone.num_launches = self.num_launches
        clone.pending_overhead = self.pending_overhead
        clone.metrics = dict(self.metrics)
        return clone
