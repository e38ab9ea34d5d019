"""The :class:`Job` record: the unit of work scheduled by every policy.

A ``Job`` combines the static description found in a workload trace (arrival
time, requested GPUs, model profile) with the dynamic state maintained by the
scheduler across rounds (attained service, work completed, current allocation).
Blox keeps all of this in a dictionary-style ``JobState``; we keep the per-job
fields on a slotted dataclass -- a trace holds one per job, so a job carries
no instance dict -- and let :class:`~repro.core.job_state.JobState` own the
collection.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, List, Mapping, Optional

from repro.core.exceptions import ConfigurationError

if TYPE_CHECKING:
    from repro.core.job_state import JobState
    from repro.simulator.execution import _Epoch


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

    # Members are singletons: identity hashing is exact and runs in C, where
    # ``Enum.__hash__`` is Python code run on every status-set move.
    __hash__ = object.__hash__

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
    registry.  The descriptor stores the raw value in the job's ``_status``
    slot and calls back into the registry ``JobState.track`` recorded in its
    ``_registry`` slot.
    """

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj._status

    def __set__(self, obj, value) -> None:
        old = obj._status
        obj._status = value
        registry = obj._registry
        if registry is not None and old is not value:
            registry._reindex_status(obj, old, value)


class _ProgressField:
    """Data descriptor for a job's progress: settled on read and on write.

    ``work_done``, ``attained_service`` and ``pending_overhead`` are written
    by the execution model (and the launch and preemption mechanisms).  While
    a running job's progress is deferred, its ``_epoch`` slot holds its epoch
    record (see :mod:`repro.simulator.execution`): a read first settles the
    job up to the model's fold clock, and a write settles it, stores the
    value and restarts the epoch from it.

    The raw value lives in the job's ``"_" + name`` slot; only this module
    and the execution model's folds touch it there (a fold reads it only
    where no epoch is pending).  :meth:`Job.add_progress` and
    :meth:`Job.store_progress` are the shortcuts the folds write through.
    """

    def __set_name__(self, owner, name) -> None:
        self._attr = "_" + name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        epoch = obj._epoch
        if epoch is not None:
            epoch.settle()
        return getattr(obj, self._attr)

    def __set__(self, obj, value) -> None:
        epoch = obj._epoch
        if epoch is not None:
            epoch.settle()
        setattr(obj, self._attr, value)
        if epoch is not None:
            epoch.rebase()


@dataclass(slots=True)
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


@dataclass(slots=True)
class Job:
    """A DL training job as seen by the scheduler.

    Parameters mirror the information available in the traces used by the Blox
    paper: arrival time, requested GPU count and isolated run time, plus the
    profile data (per-iteration time, scaling behaviour, placement sensitivity,
    resource demands, loss curve) associated with the model the job trains.

    The record is slotted: a job carries no instance dict.  ``status``,
    ``attained_service``, ``work_done`` and ``pending_overhead`` are data
    descriptors over the private slots of the same name with a leading
    underscore; a job starts ``SUBMITTED`` with no progress.  A status write
    notifies the owning registry; a progress read or write settles a
    deferred job first.  ``_registry`` and
    ``_epoch`` are runtime wiring, ``None`` when absent.  Equality compares
    the stored slots, without settling a deferred job.  :attr:`metrics` is
    not stored: it is computed from the progress fields, ``_rate`` and the
    two flags on each read.
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
    max_batch_scale: int = 8
    user: str = "default"

    # --- dynamic state ------------------------------------------------------
    _status: JobStatus = field(default=JobStatus.SUBMITTED, init=False, repr=False)
    admitted_time: Optional[float] = None
    first_schedule_time: Optional[float] = None
    completion_time: Optional[float] = None
    _attained_service: float = field(default=0.0, init=False, repr=False)
    _work_done: float = field(default=0.0, init=False, repr=False)
    allocated_gpus: List[int] = field(default_factory=list)
    num_preemptions: int = 0
    num_launches: int = 0
    _pending_overhead: float = field(default=0.0, init=False, repr=False)
    #: The rate of the latest advanced round that made progress: ``0.0`` if
    #: every advanced round stalled, ``None`` if the job never advanced.
    #: Written by the execution model's folds (a deferred job's on settle).
    _rate: Optional[float] = field(default=None, init=False, repr=False)
    #: Whether an advanced round ran the job across more than one node.
    was_fragmented: bool = field(default=False, init=False)
    #: Why admission rejected the job (it is then ``FAILED``), or ``None``.
    admission_rejected: Optional[str] = field(default=None, init=False)

    # --- runtime wiring (never compared, never pickled) ---------------------
    #: The owning :class:`~repro.core.job_state.JobState`, set by ``track``.
    _registry: Optional[JobState] = field(default=None, init=False, repr=False, compare=False)
    #: The execution model's epoch record while the job's progress is deferred.
    _epoch: Optional[_Epoch] = field(default=None, init=False, repr=False, compare=False)

    status = _StatusField()
    attained_service = _ProgressField()
    work_done = _ProgressField()
    pending_overhead = _ProgressField()

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

        The state is the tuple of slot values, in ``__slots__`` order, less
        the runtime wiring, which unpickles as ``None``.  ``_registry`` is
        the backref to the owning :class:`~repro.core.job_state.JobState`
        installed by ``track``; keeping it would drag the entire registry
        (and every other job in it) into every pickled job.
        ``JobState.__setstate__`` restores it on the registry side, so a job
        pickled *inside* its registry round-trips fully bound while a job
        pickled alone arrives unbound (track it to re-bind).  A deferred job
        settles first, and its epoch record stays behind: no deferred state
        crosses a pickle.
        """
        epoch = self._epoch
        if epoch is not None:
            epoch.settle()
        return _job_state(self)

    def __setstate__(self, state) -> None:
        for name, value in zip(_STATE_SLOTS, state):
            setattr(self, name, value)
        self._registry = self._epoch = None

    # --- progress ---------------------------------------------------------

    def add_progress(self, work: float, service: float) -> None:
        """``work_done += work`` then ``attained_service += service``, in one call.

        The execution model's write, once per running job per round; the
        caller has settled the job, so both sums go straight to the slots.
        """
        self._work_done += work
        self._attained_service += service

    def store_progress(self, work: float, pending: float, attained: float) -> None:
        """Write all three progress fields at once: a settled epoch's write.

        Never settles (the caller is the settle).
        """
        self._pending_overhead = pending
        self._work_done = work
        self._attained_service = attained

    # --- derived quantities ---------------------------------------------

    @property
    def metrics(self) -> Mapping[str, object]:
        """The application-metric bus, computed on read (a read-only mapping).

        The five application metrics the paper's schedulers consume are pure
        functions of the job's progress and ``_rate``: exactly what a write
        after every advanced round would have left.  ``loss``, ``progress``
        and ``attained_service`` once the job advanced, ``iteration_time``
        and ``throughput`` once a round made progress, plus
        ``was_fragmented`` and ``admission_rejected`` when set.
        """
        # Progress first: the read settles a deferred job, which writes _rate.
        work_done = self.work_done
        rate = self._rate
        metrics = {}
        if self.was_fragmented:
            metrics["was_fragmented"] = True
        if self.admission_rejected is not None:
            metrics["admission_rejected"] = self.admission_rejected
        if rate is not None:
            duration = self.duration
            progress = 1.0 if duration <= 0 else min(1.0, work_done / duration)
            # A simple exponentially decaying loss curve: reaches ~1% of its
            # initial value at the job's convergence point and stays flat after.
            convergence_progress = min(1.0, progress / self.convergence_fraction)
            metrics["loss"] = 10.0 * (0.01 ** convergence_progress)
            metrics["progress"] = progress
            if rate > 0:
                iteration_time = self.iteration_time
                metrics["iteration_time"] = iteration_time / rate
                metrics["throughput"] = rate / iteration_time
            metrics["attained_service"] = self.attained_service
        return MappingProxyType(metrics)

    @property
    def total_iterations(self) -> float:
        """Number of iterations the user asked for (epoch-based termination)."""
        return self.duration / self.iteration_time

    @property
    def remaining_work(self) -> float:
        """Seconds of work left assuming the requested allocation."""
        return max(0.0, self.duration - self.work_done)

    @property
    def is_running(self) -> bool:
        return self.status == JobStatus.RUNNING

    @property
    def is_finished(self) -> bool:
        return self.status.is_terminal

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
            max_batch_scale=self.max_batch_scale,
            user=self.user,
        )

    def snapshot(self) -> "Job":
        """Return a deep-enough copy including dynamic state.

        The synthesizer forks the live system state into a shadow simulation;
        the list field is copied so the shadow run cannot mutate the live job.
        ``_rate`` is read after the progress fields, which settle a deferred job.
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
        clone._rate = self._rate
        clone.was_fragmented = self.was_fragmented
        clone.admission_rejected = self.admission_rejected
        return clone


#: The slots a pickled :class:`Job` carries: all but the runtime wiring.
_STATE_SLOTS = tuple(name for name in Job.__slots__ if name not in ("_registry", "_epoch"))
_job_state = operator.attrgetter(*_STATE_SLOTS)
