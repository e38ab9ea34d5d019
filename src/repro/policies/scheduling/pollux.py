"""Pollux: goodput-driven co-adaptive scheduling (simplified model).

Pollux jointly adapts each job's GPU count and batch size to maximise cluster
*goodput* -- throughput discounted by the statistical efficiency of training at
a larger effective batch size.  Two properties of the real system drive the
behaviour reproduced in the paper's Figures 8 and 9:

* at low load, Pollux expands jobs beyond their requested GPU count when
  resources are idle (better JCT than FIFO/LAS, equal responsiveness);
* Pollux avoids preempting running jobs, so at very high load it shrinks
  allocations to one GPU per running job and newly arriving jobs simply queue,
  degrading both JCT and responsiveness towards FIFO.

We model goodput as ``speedup(g) * statistical_efficiency(g)`` where the
statistical efficiency decays gently as the job scales out (the larger the
effective batch, the less useful each example).  Allocation is water-filling
over marginal goodput, with running jobs guaranteed at least one GPU (no
preemption) and queued jobs served in arrival order.

The seed water-fills greedily: each spare GPU goes to the job whose next GPU
adds the most goodput (ties to the lower job id), while that gain exceeds
``_MIN_GAIN``.  ``gains[g]``, the goodput a ``g+1``-th GPU adds, depends only
on the job's static profile ``(scaling, num_gpus, max_batch_scale)``, so it is
memoized per job (invalidated by :meth:`PolluxScheduling.invalidate_profile`).
A job's next units form a *chain*: ``gains[1:]`` for a running job (its first
GPU is guaranteed), ``[gains[0] - RESTART_PENALTY] + gains[1:]`` for a waiting
one, cut before the first value ``<= _MIN_GAIN``.  The greedy takes units in
one *static* order: by ``(-min(chain[:g+1]), job id, g)``, the negated
prefix minimum first.  A unit can be taken only after every unit before it
in its chain, and once the lowest of those is taken it is at least as large
as everything else on offer, so it is taken next (ties to the lower job id,
then in chain order).  Non-monotone tables need no special case.  A round's
allocation is therefore a selection, not a simulation: sort the current
chains' keys, take the ``R``-th as a threshold (``R`` = the spare GPUs), give
each job its units below it (a bisect) and the units tied at it to ascending
job ids.  The chains' keys live in the same memo as the table.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, islice
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core.abstractions import ScheduleEntry, SchedulingPolicy
from repro.core.cluster_state import ClusterState
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.policies.scheduling.priority_index import RunnablePriorityIndex, arrival_key

#: Statistical efficiency lost per data-parallel replica beyond the first.
EFFICIENCY_DECAY = 0.03

#: Goodput a waiting job's first GPU forgoes: starting a job costs a
#: checkpoint-restore, so growing a running job is preferred on a near tie
#: (Pollux's re-allocation penalty).
RESTART_PENALTY = 0.05

#: Minimum marginal goodput for which another GPU is still worth handing out
#: (matches the seed's strictly-greater comparison against this epsilon).
_MIN_GAIN = 1e-12

#: A job's memo: its gain table, and the unit keys of its running and its
#: waiting chain (see the module docstring).
_Table = Tuple[List[float], List[float], List[float]]


def _chain_keys(chain_gains: Iterable[float]) -> List[float]:
    """Each unit's key: the negated prefix minimum, up to the first gain not worth a GPU."""
    keys: List[float] = []
    low = float("inf")
    for gain in chain_gains:
        if gain <= _MIN_GAIN:
            break
        if gain < low:
            low = gain
        keys.append(-low)
    return keys


class PolluxAllocation:
    """One round's Pollux allocation, in schedule order.

    Iterating yields one entry per allocated job: running jobs, then waiting
    ones, each in arrival order.  :meth:`select` answers placement's
    selection from the demands without building an entry.
    """

    __slots__ = ("_jobs", "_demands", "_running", "_entry_for")

    def __init__(
        self,
        jobs: List[Job],
        demands: Dict[int, int],
        running: List[Job],
        entry_for: Callable[[Job, int], ScheduleEntry],
    ) -> None:
        #: Allocated jobs and ``job id -> GPUs``, both in schedule order, and
        #: every running job.
        self._jobs = jobs
        self._demands = demands
        self._running = running
        self._entry_for = entry_for

    def __iter__(self) -> Iterator[ScheduleEntry]:
        entry_for, demands = self._entry_for, self._demands
        return (entry_for(job, demands[job.job_id]) for job in self._jobs)

    def select(
        self, remaining: int, held: Mapping[int, AbstractSet[int]]
    ) -> Tuple[Dict[int, int], List[int]]:
        """What :func:`~repro.policies.placement.base.walk_schedule` returns
        over this allocation's entries, read off the demands."""
        kept = set()
        selected: Dict[int, int] = {}
        held_gpus = held.get
        for job_id, demand in self._demands.items():
            if remaining == 0:
                break
            if demand <= remaining:
                remaining -= demand
                gpus = held_gpus(job_id)
                if gpus is not None and len(gpus) == demand:
                    kept.add(job_id)
                else:
                    selected[job_id] = demand
        return selected, [job.job_id for job in self._running if job.job_id not in kept]


class PolluxScheduling(SchedulingPolicy):
    """Goodput-maximising elastic allocation without preemption, by one static unit order."""

    name = "pollux"

    def __init__(self) -> None:
        #: job id -> its memo (:data:`_Table`); one per runnable job that has
        #: been scheduled, dropped when the job finishes.
        self._gain_tables: Dict[int, _Table] = {}
        #: Running and waiting tiers both order by (arrival, id) -- static
        #: keys -- so the index keeps both permanently sorted.
        self._index = RunnablePriorityIndex(
            idle_key=arrival_key,
            running_key=arrival_key,
            on_rebuild=self._gain_tables.clear,
            on_transition=self._on_transition,
        )

    def _on_transition(self, job: Job, old) -> None:
        # old=None means the job was (re)tracked: a replacement object may
        # carry a different profile, so its memoized table must go; a
        # finished job's goes with it (nothing outlives its job).
        if old is None or job.is_finished:
            self._gain_tables.pop(job.job_id, None)

    # ------------------------------------------------------------------
    # Goodput model
    # ------------------------------------------------------------------

    def statistical_efficiency(self, job: Job, num_gpus: int) -> float:
        """Diminishing usefulness of additional data-parallel replicas."""
        extra = max(0, num_gpus - 1)
        scale_limit = max(1, job.max_batch_scale)
        overscale = max(0, num_gpus - scale_limit)
        return 1.0 / (1.0 + EFFICIENCY_DECAY * extra + 0.5 * overscale)

    def goodput(self, job: Job, num_gpus: int) -> float:
        if num_gpus <= 0:
            return 0.0
        return job.scaling.speedup(num_gpus) * self.statistical_efficiency(job, num_gpus)

    def _table(self, job: Job) -> _Table:
        """The job's memo: ``gains[g]`` = goodput added by a ``g+1``-th GPU
        (empty past the cap), then its running and waiting chain keys."""
        table = self._gain_tables.get(job.job_id)
        if table is None:
            cap = min(job.scaling.max_useful_gpus, job.num_gpus * max(1, job.max_batch_scale))
            values = [self.goodput(job, g) for g in range(cap + 1)]
            gains = [values[g + 1] - values[g] for g in range(cap)]
            waiting = [gains[0] - RESTART_PENALTY, *gains[1:]] if gains else []
            table = (gains, _chain_keys(gains[1:]), _chain_keys(waiting))
            self._gain_tables[job.job_id] = table
        return table

    def invalidate_profile(self, job_id: int) -> None:
        """Drop the memoized gain table after a job's profile changed.

        The table depends only on ``(scaling, num_gpus, max_batch_scale)``;
        callers that update any of these mid-run (an online profiler) must
        invalidate so the next round recomputes it.
        """
        self._gain_tables.pop(job_id, None)

    def marginal_goodput(self, job: Job, num_gpus: int) -> float:
        gains = self._table(job)[0]
        if num_gpus >= len(gains):
            return 0.0
        gain = gains[num_gpus]
        if num_gpus == 0 and job.status != JobStatus.RUNNING:
            gain -= RESTART_PENALTY
        return gain

    def next_policy_event_time(
        self, job_state: JobState, cluster_state: ClusterState, now: float
    ) -> Optional[float]:
        # The allocation is a pure function of the runnable set, job statuses,
        # profiles and healthy capacity -- none of which drift between
        # external events -- so the decision never changes on its own.
        return None

    # ------------------------------------------------------------------

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> PolluxAllocation:
        self._index.bind(job_state)
        running = [job for _, job in self._index.running_entries()]
        capacity = cluster_state.healthy_gpus()
        entry_for = self._index.entry_for
        # Running jobs are never preempted: each keeps one GPU, in arrival
        # order, while capacity lasts; only then are spare units handed out.
        spare = capacity - len(running)
        if spare <= 0:
            allocated = running[:capacity]
            demands = dict.fromkeys([job.job_id for job in allocated], 1)
            return PolluxAllocation(allocated, demands, running, entry_for)
        tables, table = self._gain_tables, self._table
        waiting = [job for _, job in self._index.idle_entries()]
        chains = [(tables.get(job.job_id) or table(job))[1] for job in running]
        chains += [(tables.get(job.job_id) or table(job))[2] for job in waiting]
        counts = list(map(len, chains))
        if sum(counts) > spare:
            _water_fill(running + waiting, chains, counts, spare)
        demands = {job.job_id: 1 + count for job, count in zip(running, counts)}
        allocated = list(running)
        for job, count in zip(waiting, islice(counts, len(running), None)):
            if count:
                demands[job.job_id] = count
                allocated.append(job)
        return PolluxAllocation(allocated, demands, running, entry_for)


def _water_fill(jobs: List[Job], chains: List[List[float]], counts: List[int], spare: int) -> None:
    """Cut ``counts`` (each job's chain length) to its units among the first
    ``spare`` of the static order: those keyed below the ``spare``-th key,
    then the ones tied at it, to ascending job ids."""
    order = sorted(chain.from_iterable(chains))
    threshold = order[spare - 1]
    ties = spare - bisect_left(order, threshold)
    tied: List[Tuple[int, int, int]] = []
    for position, keys in enumerate(chains):
        below = counts[position] = bisect_left(keys, threshold)
        if below < len(keys) and keys[below] == threshold:
            count = bisect_right(keys, threshold, below) - below
            tied.append((jobs[position].job_id, position, count))
    for _, position, count in sorted(tied):
        count = min(count, ties)
        counts[position] += count
        ties -= count
        if not ties:
            break
