"""Observer-maintained priority structures for scheduling policies.

Every seed scheduling policy re-sorted the whole runnable set each round --
O(n log n) per round with attribute-access sort keys, even while nothing about
the ordering changed.  :class:`RunnablePriorityIndex` replaces that with a
*tiered* structure maintained through the :class:`~repro.core.job_state.JobStateObserver`
hooks:

* the **idle tier** (RUNNABLE / PREEMPTED jobs) is kept permanently sorted.
  Its keys are *frozen while idle*: attained service, remaining work, arrival
  time and job id only change while a job is RUNNING (the execution model
  advances running jobs only), so an idle job's priority is computed once on
  entry and cached until it leaves the tier.  Keys that change for other
  reasons must be repositioned explicitly (:meth:`RunnablePriorityIndex.reposition`,
  used by Tiresias' starvation promotions) or, for continuously drifting
  keys, by subclassing and overriding ``on_progress``;
* the **running tier** is small (bounded by cluster capacity, not queue
  length) and its keys drift every round, so it is sorted fresh at schedule
  time and merged with the idle tier in O(running log running + n).

Keys must be tuples whose *last* component is the job id, making them a total
order; the two sorted tiers then merge deterministically into exactly the list
``sorted(runnable_jobs(), key=...)`` would produce, which is what the
schedule-parity tests assert policy by policy.

The index binds lazily to whichever :class:`~repro.core.job_state.JobState` the
policy is called with; rebinding (a shadow simulation, a fresh run reusing the
policy object) detaches from the old registry and rebuilds from scratch, and
notifies the owner through the ``on_rebuild`` callback so per-job memo caches
(goodput curves, preferred GPU types) can be dropped with it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.abstractions import ScheduleEntry
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState, JobStateObserver

#: Key type: a tuple ending in the job id (total order over jobs).
PriorityKey = Tuple
KeyFn = Callable[[Job], PriorityKey]

_IDLE_STATUSES = (JobStatus.RUNNABLE, JobStatus.PREEMPTED)


def arrival_key(job: Job) -> PriorityKey:
    """Arrival order: the key of every FIFO-ordered tier (FIFO, Pollux, Synergy)."""
    return (job.arrival_time, job.job_id)


class RunnablePriorityIndex(JobStateObserver):
    """Tiered (idle sorted / running unsorted) view of the runnable jobs."""

    def __init__(
        self,
        idle_key: KeyFn,
        on_rebuild: Optional[Callable[[], None]] = None,
        on_transition: Optional[Callable[[Job, Optional[JobStatus]], None]] = None,
        on_idle_enter: Optional[Callable[[Job], None]] = None,
    ) -> None:
        #: ``on_rebuild`` fires before a wholesale rebuild (drop memo caches);
        #: ``on_transition(job, old_status)`` fires on every tracked
        #: status change *before* the tiers are updated, so owners can refresh
        #: state the idle key depends on (Tiresias' wait clock);
        #: ``on_idle_enter(job)`` fires after a job is inserted into the idle
        #: tier (its key is available via :meth:`idle_key_of`).
        self._idle_key_fn = idle_key
        self._on_rebuild = on_rebuild
        self._on_transition = on_transition
        self._on_idle_enter = on_idle_enter
        self._job_state: Optional[JobState] = None
        #: ``bind_epoch`` of the bound registry at attach time; a mismatch
        #: means the registry crossed a pickle boundary (which drops observer
        #: registrations) and the index must re-attach even though the object
        #: identity is unchanged (checkpoint/restart of a whole simulator).
        self._bound_epoch: int = -1
        #: Sorted list of (key, job) for RUNNABLE/PREEMPTED jobs.
        self._idle: List[Tuple[PriorityKey, Job]] = []
        self._idle_keys: Dict[int, PriorityKey] = {}
        self._running: Dict[int, Job] = {}
        #: job id -> the frozen entry :meth:`gang_entries` last emitted for it;
        #: dropped when the job leaves the index, so it never outlives the job.
        self._entries: Dict[int, ScheduleEntry] = {}

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------

    @property
    def job_state(self) -> Optional[JobState]:
        """The registry this index is currently bound to (None before bind)."""
        return self._job_state

    def bind(self, job_state: JobState) -> None:
        """Attach to ``job_state``, rebuilding if it differs from the bound one.

        Rebinding also triggers when the registry's ``bind_epoch`` moved: the
        same object crossed a pickle boundary (shard checkpoint/restart),
        which silently dropped this index from its observer lists, so the
        identity short-circuit alone would leave the index permanently stale.
        """
        epoch = getattr(job_state, "bind_epoch", 0)
        if self._job_state is job_state and self._bound_epoch == epoch:
            return
        if self._job_state is not None:
            self._job_state.remove_observer(self)
        self._job_state = job_state
        self._bound_epoch = epoch
        job_state.add_observer(self)
        self.rebuild()

    def rebuild(self) -> None:
        """Recompute both tiers from the bound registry's status indexes."""
        self._idle = []
        self._idle_keys = {}
        self._running = {}
        self._entries = {}
        if self._on_rebuild is not None:
            self._on_rebuild()
        if self._job_state is None:
            return
        for job in self._job_state.runnable_jobs():
            if job.status == JobStatus.RUNNING:
                self._running[job.job_id] = job
            else:
                self._insert_idle(job)
        self._idle.sort(key=lambda entry: entry[0])

    # ------------------------------------------------------------------
    # Observer hooks
    # ------------------------------------------------------------------

    def on_job_tracked(self, job: Job) -> None:
        if self._on_transition is not None:
            self._on_transition(job, None)
        self._discard(job.job_id)
        self._admit(job)

    def on_status_change(self, job: Job, old, new) -> None:
        if self._on_transition is not None:
            self._on_transition(job, old)
        self._discard(job.job_id)
        self._admit(job)

    # NOTE: the index deliberately does NOT override on_progress.  Idle keys
    # are frozen by construction -- attained service and remaining work only
    # change while a job is RUNNING, and the running tier is re-keyed at
    # schedule time -- and JobState skips the progress dispatch entirely for
    # observers that leave on_progress unimplemented, keeping the execution
    # model's two writes per running job per round off the notification path.
    # A policy whose idle keys do drift (a continuously-keyed structure)
    # should subclass and override on_progress to call reposition().

    # ------------------------------------------------------------------
    # Mutation helpers
    # ------------------------------------------------------------------

    def _admit(self, job: Job) -> None:
        if job.status == JobStatus.RUNNING:
            self._running[job.job_id] = job
        elif job.status in _IDLE_STATUSES:
            self._insert_idle(job, sort=True)
        else:
            self._entries.pop(job.job_id, None)

    def _insert_idle(self, job: Job, sort: bool = False) -> None:
        key = self._idle_key_fn(job)
        self._idle_keys[job.job_id] = key
        if sort:
            insort(self._idle, (key, job), key=lambda entry: entry[0])
        else:
            self._idle.append((key, job))
        if self._on_idle_enter is not None:
            self._on_idle_enter(job)

    def _remove_idle(self, job_id: int) -> None:
        key = self._idle_keys.pop(job_id)
        index = bisect_left(self._idle, key, key=lambda entry: entry[0])
        while index < len(self._idle) and self._idle[index][1].job_id != job_id:
            index += 1
        if index < len(self._idle):
            del self._idle[index]

    def _discard(self, job_id: int) -> None:
        self._running.pop(job_id, None)
        if job_id in self._idle_keys:
            self._remove_idle(job_id)

    def reposition(self, job: Job) -> None:
        """Recompute an idle job's key and move it to its new position.

        Used for key changes driven by wall-clock time rather than job state
        (Tiresias' starvation promotions).  No-op for jobs outside the idle
        tier.
        """
        if job.job_id in self._idle_keys:
            self._remove_idle(job.job_id)
            self._insert_idle(job, sort=True)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._idle) + len(self._running)

    def idle_entries(self) -> List[Tuple[PriorityKey, Job]]:
        """The idle tier, sorted by key (the live list; do not mutate)."""
        return self._idle

    def idle_jobs(self) -> List[Job]:
        return [job for _, job in self._idle]

    def running_jobs(self) -> List[Job]:
        """The running tier (unordered)."""
        return list(self._running.values())

    def idle_key_of(self, job_id: int) -> Optional[PriorityKey]:
        return self._idle_keys.get(job_id)

    def ordered(self, running_key: KeyFn) -> List[Job]:
        """All runnable jobs, ordered as a full sort by key would order them.

        ``running_key`` computes the (drifting) keys of the running tier; they
        must be tuples comparable with the idle keys and ending in the job id.
        """
        running = sorted(
            ((running_key(job), job) for job in self._running.values()),
            key=lambda entry: entry[0],
        )
        return merge_by_key(self._idle, running)

    def gang_entries(self, ordered: List[Job]) -> List[ScheduleEntry]:
        """One entry per job of ``ordered``, each asking for its requested gang.

        The schedule of every gang policy.  An entry is frozen, so the one
        built for a job is reused round after round while the job's request
        is unchanged; most of a backlog's entries are never looked at by
        placement, and none of them is rebuilt.  ``ordered`` must hold jobs
        of the bound registry's runnable set (what :meth:`ordered` returns).
        """
        cache = self._entries
        entries = []
        for job in ordered:
            entry = cache.get(job.job_id)
            if entry is None or entry.gpu_demand != job.num_gpus:
                entry = cache[job.job_id] = ScheduleEntry(
                    job_id=job.job_id, gpu_demand=job.num_gpus
                )
            entries.append(entry)
        return entries

    def check_invariants(self) -> None:
        """Assert the tiers exactly mirror the bound registry (test support)."""
        assert self._job_state is not None, "index is not bound"
        runnable = {job.job_id: job for job in self._job_state.runnable_jobs()}
        members = set(self._idle_keys) | set(self._running)
        assert members == set(runnable), (
            f"index members {sorted(members)} != runnable {sorted(runnable)}"
        )
        assert not (set(self._idle_keys) & set(self._running)), "job in both tiers"
        for job_id, job in self._running.items():
            assert job.status == JobStatus.RUNNING, f"job {job_id} mis-tiered"
        keys = [key for key, _ in self._idle]
        assert keys == sorted(keys), "idle tier out of order"
        for key, job in self._idle:
            assert job.status in _IDLE_STATUSES, f"job {job.job_id} mis-tiered"
            assert self._idle_keys[job.job_id] == key, "idle key cache drifted"
        assert set(self._entries) <= members, "entry cached for a job that left"


def merge_by_key(
    first: List[Tuple[PriorityKey, Job]],
    second: List[Tuple[PriorityKey, Job]],
) -> List[Job]:
    """Merge two key-sorted (key, job) lists into one job list.

    Keys are unique (they end in the job id), so the merge is deterministic.
    """
    out: List[Job] = []
    i = j = 0
    while i < len(first) and j < len(second):
        if first[i][0] <= second[j][0]:
            out.append(first[i][1])
            i += 1
        else:
            out.append(second[j][1])
            j += 1
    out.extend(job for _, job in first[i:])
    out.extend(job for _, job in second[j:])
    return out
