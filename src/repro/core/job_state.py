"""``JobState``: the shared view of every job the scheduler knows about.

Blox models job state as a flexible key-value store because different
schedulers track different metrics.  Here each job is a
:class:`~repro.core.job.Job` dataclass with an open ``metrics`` dictionary, and
``JobState`` owns the collection: active jobs, jobs waiting for admission and
finished jobs, plus the query helpers that scheduling policies rely on.

The registry is *status-indexed*: one id-set per :class:`JobStatus`, updated
through a single transition path.  :meth:`set_status` is the explicit
transition API; direct ``job.status = ...`` writes from mechanisms and the
execution model are also routed here by the status descriptor on ``Job``, so
the views (``runnable_jobs``, ``running_jobs``, ``finished_jobs``, ...) read
an index instead of scanning and re-sorting the whole registry every round.
"""

from __future__ import annotations

import weakref
from typing import AbstractSet, Dict, Iterable, List, Optional, Set

from repro.core.exceptions import UnknownJobError
from repro.core.job import Job, JobStatus

#: Statuses in which a job is admitted and still has work to do / terminal
#: statuses.  Derived from the JobStatus predicates so there is exactly one
#: source of truth for the status partition.
ACTIVE_STATUSES = tuple(s for s in JobStatus if s.is_active)
FINISHED_STATUSES = tuple(s for s in JobStatus if s.is_terminal)


class JobStateObserver:
    """Receives change notifications from a :class:`JobState` registry.

    Scheduling policies register an observer (via :meth:`JobState.add_observer`)
    to maintain incremental priority structures instead of re-scanning and
    re-sorting the registry every round.  Two hooks cover every membership
    and status change:

    * :meth:`on_job_tracked` -- a job entered the registry (or replaced a
      previously tracked object with the same id);
    * :meth:`on_status_change` -- a status transition, fired both by
      :meth:`JobState.set_status` and by direct ``job.status = ...`` writes
      (the status descriptor routes them here).

    Progress (``attained_service`` / ``work_done``) has no hook: it accrues
    only while a job is RUNNING, so an index keyed on it can refresh a job's
    key at its status transitions.

    Hooks fire *after* the registry's own indexes are updated, so observers may
    query the registry from inside a hook.  Observers must not mutate job
    status or progress from inside a hook (no re-entrant transitions).
    """

    def on_job_tracked(self, job: Job) -> None:
        return None

    def on_status_change(self, job: Job, old: Optional[JobStatus], new: JobStatus) -> None:
        return None


class JobState:
    """Registry of all submitted jobs with status-indexed views."""

    def __init__(self) -> None:
        self._jobs: Dict[int, Job] = {}
        self._by_status: Dict[JobStatus, Set[int]] = {s: set() for s in JobStatus}
        #: The same sets, grouped, so the active / finished counts are a few
        #: ``len`` calls with no status hashing (aliases: nothing to maintain).
        self._active_sets = tuple(self._by_status[s] for s in ACTIVE_STATUSES)
        self._finished_sets = tuple(self._by_status[s] for s in FINISHED_STATUSES)
        #: Observers are held weakly: an observer is typically owned by a
        #: scheduling policy, and policies may be swapped mid-run (the
        #: synthesizer does) without an unregister call -- a strong list would
        #: keep every stale policy index alive and dispatching forever.
        self._observers: List[weakref.ref] = []
        #: Memoized sorted views keyed by the requested status tuple,
        #: invalidated on any status transition or (re)tracking.  The hot loop
        #: reads views like running_jobs() several times per round while
        #: transitions happen at most a few times per round.
        self._view_cache: Dict[tuple, List[Job]] = {}
        #: Ids that entered a terminal status (or were tracked in one) since
        #: :meth:`take_newly_finished` last ran: the newly-finished part of a
        #: round's allocation delta, which the manager's prune step consumes
        #: instead of rescanning every GPU-holding job.
        self._newly_finished: Set[int] = set()
        #: Simulated (or wall-clock) time of the current round; the scheduling
        #: loop refreshes this before invoking policies so policies that need a
        #: notion of "now" (Themis' fairness estimate, Tiresias' starvation
        #: guard, Optimus' convergence rate) can read it without a side channel.
        self.current_time: float = 0.0
        #: Incremented every time this registry crosses a pickle boundary.
        #: ``__getstate__`` drops observer registrations (they are weak refs
        #: to live policy objects), but when a *whole simulator* is pickled --
        #: checkpoint/restart of a federation shard -- the policy index comes
        #: along in the same graph, still pointing at this registry by
        #: identity, and its ``bind()`` would short-circuit forever.  Indexes
        #: compare this epoch on bind and re-attach when it moved.
        self.bind_epoch: int = 0

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------

    def add_observer(self, observer: JobStateObserver) -> None:
        """Register an observer for tracking and status notifications.

        Registering the same observer twice is a no-op (each observer receives
        every notification exactly once).  The registry holds observers
        *weakly*: a garbage-collected observer (e.g. the priority index of a
        policy the synthesizer swapped out) silently drops off the dispatch
        lists, so callers must keep a strong reference to an observer they
        want notified.
        """
        if any(ref() is observer for ref in self._observers):
            return
        self._observers.append(weakref.ref(observer))

    def remove_observer(self, observer: JobStateObserver) -> None:
        """Detach a previously registered observer (no-op if absent)."""
        self._observers = [
            ref for ref in self._observers if ref() is not None and ref() is not observer
        ]

    def _prune_observers(self) -> None:
        """Drop the weak observer refs whose observer died."""
        self._observers = [ref for ref in self._observers if ref() is not None]

    def __getstate__(self):
        """Pickle support (parallel sweeps ship results across processes).

        Observer registrations are runtime wiring to live policy objects --
        weak references that neither can nor should cross a process boundary
        -- so they are dropped; a policy on the receiving side re-binds
        lazily.  The memoized views are likewise rebuildable.
        """
        state = self.__dict__.copy()
        state["_observers"] = []
        state["_view_cache"] = {}
        return state

    def __setstate__(self, state) -> None:
        """Re-install the registry backref each job's ``__getstate__`` dropped.

        After this, status writes on the unpickled jobs keep the unpickled
        registry's indexes in sync exactly as on the original -- the contract
        the federation worker protocol relies on when a whole shard result
        crosses the process boundary.
        """
        self.__dict__.update(state)
        # A restored registry has no observers; any index unpickled in the
        # same graph must notice and re-attach (see ``bind_epoch``).
        self.bind_epoch = state.get("bind_epoch", 0) + 1
        for job in self._jobs.values():
            job._registry = self

    # ------------------------------------------------------------------
    # Status index maintenance
    # ------------------------------------------------------------------

    def _reindex_status(self, job: Job, old: Optional[JobStatus], new: JobStatus) -> None:
        """Move a tracked job between status sets (called by the Job descriptor)."""
        if self._jobs.get(job.job_id) is not job:
            return
        if old is not None:
            self._by_status[old].discard(job.job_id)
        self._by_status[new].add(job.job_id)
        if new in FINISHED_STATUSES:
            self._newly_finished.add(job.job_id)
        if self._view_cache:
            self._view_cache.clear()
        if self._observers:
            dead = False
            for ref in self._observers:
                observer = ref()
                if observer is None:
                    dead = True
                else:
                    observer.on_status_change(job, old, new)
            if dead:
                self._prune_observers()

    def set_status(self, job_id: int, status: JobStatus) -> Job:
        """Transition a job to ``status``, keeping the status indexes in sync.

        This is the canonical transition API; assigning ``job.status`` directly
        is equivalent for tracked jobs (the descriptor notifies the registry)
        but callers holding only an id should use this.
        """
        job = self.get(job_id)
        job.status = status
        return job

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_new_jobs(self, jobs: Iterable[Job], current_time: float = 0.0) -> List[Job]:
        """Add admitted jobs and mark them runnable.

        Mirrors ``job_state.add_new_jobs(accepted_jobs)`` in the Blox workflow.
        Returns the list of jobs added (useful for logging/tests).
        """
        added = []
        for job in jobs:
            self.track(job)
            job.status = JobStatus.RUNNABLE
            if job.admitted_time is None:
                job.admitted_time = current_time
            added.append(job)
        return added

    def track(self, job: Job) -> None:
        """Track a job without changing its status (used for admission queues).

        A job belongs to at most one registry: tracking an object another
        ``JobState`` still owns would leave that registry's status index
        permanently stale, so it is rejected -- track a ``snapshot()`` or
        ``copy_static()`` of the job instead.
        """
        foreign = job._registry
        if foreign is not None and foreign is not self:
            raise ValueError(
                f"job {job.job_id} is already tracked by another JobState; "
                "track a snapshot() or copy_static() of it instead"
            )
        previous = self._jobs.get(job.job_id)
        if previous is not None and previous is not job:
            self._by_status[previous.status].discard(previous.job_id)
            previous._registry = None
        self._jobs[job.job_id] = job
        job._registry = self
        self._by_status[job.status].add(job.job_id)
        if job.status in FINISHED_STATUSES:
            self._newly_finished.add(job.job_id)
        if self._view_cache:
            self._view_cache.clear()
        if self._observers:
            dead = False
            for ref in self._observers:
                observer = ref()
                if observer is None:
                    dead = True
                else:
                    observer.on_job_tracked(job)
            if dead:
                self._prune_observers()

    def take_newly_finished(self) -> List[int]:
        """Ids that turned terminal since the previous call, ascending.

        The record is handed over, not copied: each finished job is reported
        exactly once, so nothing here outlives the prune that consumes it.
        """
        taken = sorted(self._newly_finished)
        self._newly_finished.clear()
        return taken

    # ------------------------------------------------------------------
    # Lookup and views
    # ------------------------------------------------------------------

    def get(self, job_id: int) -> Job:
        if job_id not in self._jobs:
            raise UnknownJobError(job_id)
        return self._jobs[job_id]

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._jobs

    def __len__(self) -> int:
        return len(self._jobs)

    def all_jobs(self) -> List[Job]:
        return sorted(self._jobs.values(), key=lambda j: j.job_id)

    def jobs_with_status(self, *statuses: JobStatus) -> List[Job]:
        cached = self._view_cache.get(statuses)
        if cached is None:
            ids: List[int] = []
            for status in dict.fromkeys(statuses):
                ids.extend(self._by_status[status])
            cached = [self._jobs[i] for i in sorted(ids)]
            self._view_cache[statuses] = cached
        # Return a copy: callers may hold the list across transitions.
        return list(cached)

    def ids_with_status(self, status: JobStatus) -> AbstractSet[int]:
        """The ids of the jobs in one status: the live index set, read-only.

        It changes with every transition; copy it to keep it across one.
        """
        return self._by_status[status]

    def count_with_status(self, *statuses: JobStatus) -> int:
        """O(1)-per-status count of jobs in the given statuses."""
        if len(statuses) == 1:
            return len(self._by_status[statuses[0]])
        return sum(len(self._by_status[s]) for s in dict.fromkeys(statuses))

    def active_jobs(self) -> List[Job]:
        """Jobs that have been admitted and still have work left."""
        return self.jobs_with_status(*ACTIVE_STATUSES)

    def count_active(self) -> int:
        return sum(map(len, self._active_sets))

    def running_jobs(self) -> List[Job]:
        return self.jobs_with_status(JobStatus.RUNNING)

    def runnable_jobs(self) -> List[Job]:
        """Jobs eligible for scheduling this round (running or waiting to run)."""
        return self.jobs_with_status(
            JobStatus.RUNNABLE, JobStatus.RUNNING, JobStatus.PREEMPTED
        )

    def finished_jobs(self) -> List[Job]:
        return self.jobs_with_status(*FINISHED_STATUSES)

    def count_finished(self) -> int:
        return sum(map(len, self._finished_sets))

    def waiting_admission_jobs(self) -> List[Job]:
        return self.jobs_with_status(JobStatus.WAITING_ADMISSION)

    # ------------------------------------------------------------------
    # Aggregates used by policies and experiments
    # ------------------------------------------------------------------

    def snapshot(self) -> "JobState":
        """Deep copy of the registry used by shadow simulations."""
        clone = JobState()
        clone.current_time = self.current_time
        for job in self._jobs.values():
            clone.track(job.snapshot())
        return clone

    # ------------------------------------------------------------------
    # Invariant checking (test support)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the status indexes exactly partition the tracked jobs."""
        seen: Set[int] = set()
        for status, ids in self._by_status.items():
            for job_id in sorted(ids):
                assert job_id in self._jobs, f"index references unknown job {job_id}"
                assert self._jobs[job_id].status is status, (
                    f"job {job_id} indexed under {status} but has status "
                    f"{self._jobs[job_id].status}"
                )
                assert job_id not in seen, f"job {job_id} indexed under two statuses"
                seen.add(job_id)
        assert seen == set(self._jobs), "status index does not cover the registry"
        for count, statuses in (
            (self.count_active(), ACTIVE_STATUSES),
            (self.count_finished(), FINISHED_STATUSES),
        ):
            recount = sum(1 for j in self._jobs.values() if j.status in statuses)
            assert count == recount, f"count over {statuses} is {count}, recount {recount}"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"JobState(total={len(self._jobs)}, active={self.count_active()}, "
            f"finished={self.count_finished()})"
        )
