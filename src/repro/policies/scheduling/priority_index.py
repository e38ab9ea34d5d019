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
  reasons need a :meth:`RunnablePriorityIndex.rebuild` (Gavel's, when the
  best GPU type present changes);
* the **running tier** is small (bounded by cluster capacity, not queue
  length).  By default its keys drift every round (attained service,
  remaining work), so it is sorted fresh at schedule time; a policy whose
  running keys change only at its own events passes a ``running_key`` at
  construction instead, and the tier is kept sorted -- insorted on entering
  RUNNING, removed on leaving, repositioned where the policy says a key
  changed.  Either way it is merged with the idle tier *lazily*: the merge
  yields jobs as the consumer pulls them, so a round costs at most
  O(running log running + read) where ``read`` is how far placement gets
  before the healthy GPUs run out.

Keys must be tuples whose *last* component is the job id, making them a total
order; the two sorted tiers then merge deterministically into exactly the
order ``sorted(runnable_jobs(), key=...)`` would produce, which is what the
schedule-parity tests assert policy by policy.  A stream from :meth:`ordered`
or :meth:`gang_entries` reads the live tiers, so it must be consumed in the
round it was made, before any job changes status (the
:class:`~repro.core.abstractions.SchedulingPolicy` contract).  The
:class:`GangStream` of a kept-sorted index also answers placement's
selection itself, from prefix sums of the running tier's gangs.

The index binds lazily to whichever :class:`~repro.core.job_state.JobState` the
policy is called with; rebinding (a shadow simulation, a fresh run reusing the
policy object) detaches from the old registry and rebuilds from scratch, and
notifies the owner through the ``on_rebuild`` callback so per-job memo caches
(goodput gain tables, demotion bounds) can be dropped with it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import accumulate, islice
from operator import itemgetter
from typing import AbstractSet, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.core.abstractions import ScheduleEntry
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState, JobStateObserver
from repro.policies.placement.base import walk_schedule

#: Key type: a tuple ending in the job id (total order over jobs).
PriorityKey = Tuple
KeyFn = Callable[[Job], PriorityKey]

_IDLE_STATUSES = (JobStatus.RUNNABLE, JobStatus.PREEMPTED)


def arrival_key(job: Job) -> PriorityKey:
    """Arrival order: the key of every FIFO-ordered tier (FIFO, Pollux, Synergy)."""
    return (job.arrival_time, job.job_id)


class RunnablePriorityIndex(JobStateObserver):
    """Tiered view of the runnable jobs: idle sorted, running sorted on demand or kept sorted."""

    def __init__(
        self,
        idle_key: KeyFn,
        running_key: Optional[KeyFn] = None,
        on_rebuild: Optional[Callable[[], None]] = None,
        on_transition: Optional[Callable[[Job, Optional[JobStatus]], None]] = None,
        on_running_enter: Optional[Callable[[Job], None]] = None,
    ) -> None:
        #: ``running_key``, if given, promises running keys that change only
        #: where the owner calls :meth:`reposition`: the running tier is then
        #: kept sorted.  ``on_rebuild`` fires before a wholesale rebuild (drop
        #: memo caches); ``on_transition(job, old_status)`` fires on every
        #: tracked status change *before* the tiers are updated, so owners
        #: can drop per-job state (Pollux's gain tables, Tiresias' demotion
        #: bounds); ``on_running_enter(job)`` fires after a job is inserted
        #: into the running tier.
        self._idle_key_fn = idle_key
        self._running_key_fn = running_key
        self._on_rebuild = on_rebuild
        self._on_transition = on_transition
        self._on_running_enter = on_running_enter
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
        #: With a ``running_key``: sorted list of (key, job) for RUNNING jobs.
        self._running_sorted: List[Tuple[PriorityKey, Job]] = []
        self._running_keys: Dict[int, PriorityKey] = {}
        #: With a ``running_key``: the running jobs that entered RUNNING
        #: holding other than ``num_gpus`` GPUs (an elastic policy placed
        #: them), and the prefix sums of ``num_gpus`` over the sorted tier
        #: (``None`` once the tier changed).  Both serve :class:`GangStream`.
        self._inexact: Set[int] = set()
        self._prefix: Optional[List[int]] = None
        #: job id -> the frozen entry :meth:`entry_for` last returned for it;
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
        self._running_sorted = []
        self._running_keys = {}
        self._inexact = set()
        self._prefix = None
        self._entries = {}
        if self._on_rebuild is not None:
            self._on_rebuild()
        if self._job_state is None:
            return
        for job in self._job_state.runnable_jobs():
            if job.status == JobStatus.RUNNING:
                self._insert_running(job)
            else:
                self._insert_idle(job)
        self._idle.sort(key=itemgetter(0))
        self._running_sorted.sort(key=itemgetter(0))

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

    # NOTE: progress writes notify nobody.  Idle keys are frozen by
    # construction -- attained service and remaining work only change while
    # a job is RUNNING -- drifting running keys are computed at schedule
    # time, and a kept-sorted running tier moves only where its owner
    # repositions it.  A policy whose idle keys do drift must rebuild()
    # where they change.

    # ------------------------------------------------------------------
    # Mutation helpers
    # ------------------------------------------------------------------

    def _admit(self, job: Job) -> None:
        if job.status == JobStatus.RUNNING:
            self._insert_running(job, sort=True)
        elif job.status in _IDLE_STATUSES:
            self._insert_idle(job, sort=True)
        else:
            self._entries.pop(job.job_id, None)

    def _insert_idle(self, job: Job, sort: bool = False) -> None:
        _insert(self._idle, self._idle_keys, self._idle_key_fn(job), job, sort)

    def _insert_running(self, job: Job, sort: bool = False) -> None:
        self._running[job.job_id] = job
        if self._running_key_fn is not None:
            key = self._running_key_fn(job)
            _insert(self._running_sorted, self._running_keys, key, job, sort)
            self._prefix = None
            if len(job.allocated_gpus) != job.num_gpus:
                self._inexact.add(job.job_id)
        if self._on_running_enter is not None:
            self._on_running_enter(job)

    def _discard(self, job_id: int) -> None:
        if self._running.pop(job_id, None) is not None:
            if job_id in self._running_keys:
                _remove(self._running_sorted, self._running_keys, job_id)
                self._inexact.discard(job_id)
                self._prefix = None
        elif job_id in self._idle_keys:
            _remove(self._idle, self._idle_keys, job_id)

    def reposition(self, job: Job) -> None:
        """Recompute a running job's key and move it in the kept-sorted tier.

        Used for key changes the observer hooks cannot see: the owner's own
        events (Tiresias' demotions).  No-op for jobs outside that tier.
        """
        job_id = job.job_id
        if job_id in self._running_keys:
            _remove(self._running_sorted, self._running_keys, job_id)
            key = self._running_key_fn(job)  # type: ignore[misc]
            _insert(self._running_sorted, self._running_keys, key, job, True)
            self._prefix = None

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

    def running_entries(self) -> List[Tuple[PriorityKey, Job]]:
        """The kept-sorted running tier, by key (the live list; do not mutate)."""
        return self._running_sorted

    def running_key_of(self, job_id: int) -> Optional[PriorityKey]:
        """A running job's key in the kept-sorted tier (as last positioned)."""
        return self._running_keys.get(job_id)

    def ordered(self, running_key: Optional[KeyFn] = None) -> Iterator[Job]:
        """All runnable jobs, lazily, in the order a full sort by key gives.

        Built with a ``running_key``, the index merges its two sorted tiers
        and takes no argument.  Otherwise ``running_key`` computes the
        (drifting) keys of the running tier; they must be tuples comparable
        with the idle keys and ending in the job id, and the running tier is
        keyed and sorted now.  The merge with the idle tier runs as the
        stream is read, so jobs behind the last one read cost nothing.
        """
        if self._running_key_fn is not None:
            return _merge_jobs(self._idle, self._running_sorted)
        running = sorted(
            ((running_key(job), job) for job in self._running.values()),  # type: ignore[misc]
            key=itemgetter(0),
        )
        return _merge_jobs(self._idle, running)

    def gang_entries(self, ordered: Optional[Iterable[Job]] = None) -> Iterable[ScheduleEntry]:
        """One entry per job of ``ordered``, each asking for its requested gang.

        The schedule of every gang policy, yielded as it is read.  ``ordered``
        must hold jobs of the bound registry's runnable set (what
        :meth:`ordered` returns); omitted, it is the merged tiers of an index
        built with a ``running_key``, returned as a :class:`GangStream` that
        also answers placement's selection without building entries.
        """
        if ordered is None:
            return GangStream(self)
        return self._entries_of(ordered)

    def _entries_of(self, ordered: Iterable[Job]) -> Iterator[ScheduleEntry]:
        entry_for = self.entry_for
        for job in ordered:
            yield entry_for(job, job.num_gpus)

    def entry_for(self, job: Job, demand: int) -> ScheduleEntry:
        """The frozen entry giving ``job`` ``demand`` GPUs.

        The one construction site of a policy's entries: the entry built for
        a job is reused round after round while its demand is unchanged, and
        dropped when the job leaves the index.
        """
        entry = self._entries.get(job.job_id)
        if entry is None or entry.gpu_demand != demand:
            entry = self._entries[job.job_id] = ScheduleEntry(job.job_id, demand)
        return entry

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
        if self._running_key_fn is not None:
            fresh = sorted(
                ((self._running_key_fn(job), job.job_id) for job in self._running.values()),
                key=itemgetter(0),
            )
            kept = [(key, job.job_id) for key, job in self._running_sorted]
            assert kept == fresh, "running tier differs from a fresh sort by running_key"
            assert set(self._running_keys) == set(self._running), "running key cache drifted"
            inexact = {
                job_id
                for job_id, job in self._running.items()
                if len(job.allocated_gpus) != job.num_gpus
            }
            assert self._inexact == inexact, "held-count record drifted"


class GangStream:
    """The gang schedule of an index that keeps its running tier sorted.

    Iterating yields one entry per runnable job, asking for its requested
    gang, in merged key order.  :meth:`select` gives placement the same
    answer as :func:`~repro.policies.placement.base.walk_schedule` over that
    iteration, read off the tiers without building an entry: a round costs
    one bisect per idle job placement reaches instead of one entry per job.
    Like any stream, it is valid only in the round it was made.
    """

    __slots__ = ("_index",)

    def __init__(self, index: RunnablePriorityIndex) -> None:
        self._index = index

    def __iter__(self) -> Iterator[ScheduleEntry]:
        index = self._index
        return _merge_entries(index._idle, index._running_sorted, index._entries)

    def select(
        self, remaining: int, held: Mapping[int, AbstractSet[int]]
    ) -> Tuple[Dict[int, int], Iterable[int]]:
        """Placement's selection: ``(selected demands, unkept running ids)``.

        Walks the idle tier in key order.  The running jobs keyed before the
        next idle job form a block; a block whose summed gangs fit is kept
        whole (every running job holds its gang, see below), an idle job that
        fits is selected.  The first entry that does not fit hands the rest
        of the stream to the plain walk.  While a running job holds other
        than its gang (placed by an elastic policy before a switch), the
        whole selection is the plain walk.
        """
        index = self._index
        if index._inexact:
            return walk_schedule(self, remaining, held, index._running.keys())
        running = index._running_sorted
        prefix = index._prefix
        if prefix is None:
            prefix = index._prefix = list(
                accumulate((job.num_gpus for _, job in running), initial=0)
            )
        idle = index._idle
        n_idle, n_running = len(idle), len(running)
        selected: Dict[int, int] = {}
        first_key = itemgetter(0)
        i = r = 0
        while remaining:
            if i < n_idle:
                key, job = idle[i]
                end = bisect_left(running, key, r, n_running, key=first_key)
            else:
                end = n_running
            block = prefix[end] - prefix[r]
            if block > remaining:
                fit = bisect_right(prefix, prefix[r] + remaining, r, end) - 1
                remaining -= prefix[fit] - prefix[r]
                return self._walk_tail(selected, i, fit, remaining, held)
            remaining -= block
            r = end
            if i == n_idle or not remaining:
                break
            demand = job.num_gpus
            if demand > remaining:
                return self._walk_tail(selected, i, r, remaining, held)
            selected[job.job_id] = demand
            remaining -= demand
            i += 1
        return selected, [job.job_id for _, job in islice(running, r, None)]

    def _walk_tail(
        self,
        selected: Dict[int, int],
        idle_from: int,
        running_from: int,
        remaining: int,
        held: Mapping[int, AbstractSet[int]],
    ) -> Tuple[Dict[int, int], Iterable[int]]:
        """Finish a selection with the plain walk from the given tier offsets."""
        index = self._index
        tail = index._running_sorted[running_from:]
        stream = _merge_entries(index._idle, tail, index._entries, idle_from)
        more, suspended = walk_schedule(stream, remaining, held, {job.job_id for _, job in tail})
        selected.update(more)
        return selected, suspended


def _insert(
    tier: List[Tuple[PriorityKey, Job]],
    keys: Dict[int, PriorityKey],
    key: PriorityKey,
    job: Job,
    sort: bool,
) -> None:
    """Add ``job`` under ``key`` to a sorted tier (appended when ``sort`` is off)."""
    keys[job.job_id] = key
    if sort:
        insort(tier, (key, job), key=itemgetter(0))
    else:
        tier.append((key, job))


def _remove(
    tier: List[Tuple[PriorityKey, Job]], keys: Dict[int, PriorityKey], job_id: int
) -> None:
    """Drop a job from a sorted tier, found by its cached key."""
    key = keys.pop(job_id)
    index = bisect_left(tier, key, key=itemgetter(0))
    while index < len(tier) and tier[index][1].job_id != job_id:
        index += 1
    if index < len(tier):
        del tier[index]


def _merge_entries(
    first: List[Tuple[PriorityKey, Job]],
    second: List[Tuple[PriorityKey, Job]],
    entries: Dict[int, ScheduleEntry],
    start: int = 0,
) -> Iterator[ScheduleEntry]:
    """The gang entries of two key-sorted tiers, in merged key order.

    :func:`_merge_jobs` and :meth:`RunnablePriorityIndex.entry_for` in one
    generator: each job's cached entry is yielded directly (ties would go to
    ``first``).  ``start`` skips the head of ``first``.
    """
    i, n = start, len(first)
    j, m = 0, len(second)
    while True:
        if i < n and (j == m or first[i][0] <= second[j][0]):
            job = first[i][1]
            i += 1
        elif j < m:
            job = second[j][1]
            j += 1
        else:
            return
        entry = entries.get(job.job_id)
        if entry is None or entry.gpu_demand != job.num_gpus:
            entry = entries[job.job_id] = ScheduleEntry(job.job_id, job.num_gpus)
        yield entry


def _merge_jobs(
    first: List[Tuple[PriorityKey, Job]],
    second: List[Tuple[PriorityKey, Job]],
) -> Iterator[Job]:
    """Yield the jobs of two key-sorted (key, job) lists in merged key order.

    Keys are unique (they end in the job id), so the merge is deterministic;
    ties would go to ``first``.
    """
    i, n = 0, len(first)
    for key, job in second:
        while i < n and first[i][0] <= key:
            yield first[i][1]
            i += 1
        yield job
    yield from map(itemgetter(1), islice(first, i, None))
