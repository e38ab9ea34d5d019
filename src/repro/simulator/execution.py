"""The job execution model: how fast a job progresses given its allocation.

A job's rate of progress during a round depends on

* how many GPUs it was allocated relative to its request (scaling curve),
* the GPU generation it landed on (compute factor),
* whether its allocation is consolidated on one node or fragmented across the
  network (placement efficiency, a function of the model's communication
  intensity and the cross-node bandwidth),
* any CPU/memory throttling imposed by resource-sensitive placement (Synergy),
* pending launch/restore overheads charged by the overhead model.

All schedulers share this model, which is what makes comparisons across
policies "on a common footing" as the paper argues.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.abstractions import TerminationPolicy
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import SimulationError
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState, JobStateObserver
from repro.simulator.overheads import OverheadModel

#: Cross-node bandwidth (Gbps) at which a fragmented placement-sensitive job
#: pays its nominal communication penalty.  Faster networks shrink the penalty,
#: slower networks grow it -- this is what flips the Tiresias placement result
#: when moving from 100 Gbps P100 clusters to 10 Gbps V100 clusters (Fig. 10).
REFERENCE_NETWORK_BW_GBPS = 40.0


def _blind_rounds(gap: float, rate: float, round_duration: float, left: int) -> int:
    """How many of ``left`` drained rounds :meth:`ExecutionModel.steady_scan` folds untested.

    The closed-form count of rounds a job ``gap`` work short of its target
    at ``rate`` cannot complete in, one round short (the test of the last
    blind round then has a whole round of slack against float drift), capped
    at ``left``; ``<= 0`` means none.  A wrong estimate costs time, not
    exactness: the scan tests the last blind round and refolds if it
    completes.  NaN and infinite gaps fold everything or nothing, never raise.
    """
    return int(max(0.0, min(left + 1.0, gap / rate / round_duration))) - 1


#: Below this many adds :func:`_repeat_add` runs the plain loop, which is
#: cheaper than its closed form for so few rounds.
_FOLD_CUTOFF = 32

#: Every integer of magnitude up to ``2**53`` is a float.
_GRAIN = 1 << 53


def _repeat_add(x: float, d: float, n: int) -> float:
    """``x`` after ``n`` sequential ``x += d``, bit for bit, in O(binades) steps.

    When ``x`` and ``d`` are integers over a common power-of-two denominator
    whose every partial sum stays within ``2**53`` of those units, each add is
    exact and so is the closed-form sum (the usual case: integral
    ``round_duration * rate``).  Otherwise :func:`_binade_step` jumps through
    each binade at once.  A zero step or a non-finite operand reaches a fixed
    point after one add; a finite sum that overflows stays ``inf``.
    """
    if n < _FOLD_CUTOFF:
        for _ in range(n):
            x += d
        return x
    if d == 0.0 or not (math.isfinite(x) and math.isfinite(d)):
        return x + d
    x_num, x_den = x.as_integer_ratio()
    d_num, d_den = d.as_integer_ratio()
    den = max(x_den, d_den)
    start = x_num * (den // x_den)
    end = start + n * d_num * (den // d_den)
    if abs(start) <= _GRAIN and abs(end) <= _GRAIN:
        return end / den
    while n >= _FOLD_CUTOFF:
        if not math.isfinite(x):
            return x  # overflowed: inf absorbs every finite step
        x, taken = _binade_step(x, d, n)
        n -= taken
    for _ in range(n):
        x += d
    return x


def _binade_step(x: float, d: float, n: int) -> Tuple[float, int]:
    """``(x after k adds of d, k)`` for some ``1 <= k <= n``.

    ``x`` and ``d`` are finite and ``d`` is not zero.  Inside ``x``'s binade
    every float is a multiple ``X * u`` of one ulp ``u``, so an add that
    stays inside is ``X += D``, ``D`` being ``d / u`` rounded to the nearest
    integer: all the adds that keep ``X`` strictly inside are taken as one
    jump, and the real add after them crosses into the next binade.  A
    single real add is taken instead where the jump fails -- at an exact
    half-ulp tie (round-half-even then depends on ``X``) and near zero.
    """
    if abs(x) < 4.0 * abs(d):
        return x + d, 1
    exp = math.frexp(x)[1]
    ulp_exp = max(exp - 53, -1074)  # subnormals share the one ulp 2**-1074
    units = int(math.ldexp(abs(x), -ulp_exp))
    scaled = math.ldexp(abs(d), -ulp_exp)  # < 2**51: |d| <= |x| / 4
    whole = int(scaled)
    fraction = scaled - whole
    if fraction == 0.5:
        return x + d, 1
    step = whole + (fraction > 0.5)
    if (x > 0.0) == (d > 0.0):  # away from zero: stay below the next binade
        slack = (1 << (exp - ulp_exp)) - 1 - units
    else:  # towards zero: stay above the binade's least float
        slack = units - (1 << (exp - 1 - ulp_exp)) - 1
        step = -step
    taken = min(slack // abs(step), n) if step else n
    if slack < 0 or not taken:
        return x + d, 1
    result = math.ldexp(float(units + taken * step), ulp_exp)
    if x < 0.0:
        result = -result
    if taken < n:
        return result + d, taken + 1
    return result, taken


def _rounds_short(gap: float, rate: float, round_duration: float, target: float) -> int:
    """Rounds from a state ``gap`` work short of ``target`` that surely cannot complete.

    A round adds at most ``round_duration * rate`` work, and float rounding
    can add to that and to the completion test at most a few ulps of
    ``target``; both are covered by ``slack``, and one more round is given
    up for the rounding of this bound itself.  Unlike :func:`_blind_rounds`
    nothing tests the result afterwards, so it must hold even where each
    add rounds up by a whole ulp.  A NaN gap gives none (probe now) and an
    infinite one the cap; neither raises.
    """
    step = round_duration * rate
    if not step > 0.0:
        return 0
    slack = (abs(target) + step) * 2.0**-50
    return int(min(max(0.0, (gap - step - slack) / (step + slack)), 2.0**40)) - 1


#: Rounds a completion probe scans past the round it was resumed for.  A probe
#: is resumed only once its job could complete (:func:`_rounds_short`), so
#: it usually finds the completion within these rounds.
_PROBE_AHEAD = 16


class _Epoch:
    """What the model keeps of one running job for one allocation.

    The facts a round needs that only change with the allocation -- rate,
    fragmentation, GPU count, work target -- keyed by the job's allocation
    record (:meth:`ClusterState.allocation`, compared by identity: every
    assignment makes a new one).  A membership change reaches a running job
    only by evicting it, which drops that record, so the key alone suffices.

    While the run defers progress (see :meth:`ExecutionModel.attach`) the
    record is also the job's *epoch*, from the first fold after its launch
    until it leaves RUNNING: the base state ``(work, pending, attained)`` it
    had after fold round ``round``, and a resumable completion probe -- the
    state after ``probe_round`` and, once found, the absolute round
    ``completes`` in which it completes.  ``round`` is ``None`` for a record
    whose job's fields are current (no deferral).  ``serial`` names the one
    live completion-heap entry of the record (0: none).
    """

    __slots__ = (
        "model", "job", "cluster", "alloc", "rate", "fragmented", "num_gpus",
        "target", "round", "work", "pending", "attained", "probe_round",
        "probe_work", "probe_pending", "probe_attained", "completes", "serial",
    )

    def __init__(self, model: "ExecutionModel", job: Job, cluster_state: ClusterState) -> None:
        job_id = job.job_id
        self.model = model
        self.job = job
        self.cluster = cluster_state
        alloc = self.alloc = cluster_state.allocation(job_id)
        self.rate = model.effective_rate(job, cluster_state)
        self.fragmented = alloc is not None and len(alloc.nodes) > 1
        self.num_gpus = 0 if alloc is None else len(alloc.gpu_ids)
        self.target = model.termination.work_target(job)
        self.round: Optional[int] = None
        self.completes: Optional[int] = None
        self.serial = 0

    def settle(self) -> None:
        """Bring the job's progress fields up to the fold clock (no-op when current).

        The read path of a deferred job's ``work_done``,
        ``attained_service`` and ``pending_overhead``.  Folds through
        :meth:`ExecutionModel.steady_scan` (the probe's state when it stopped
        exactly there), writes the three fields and the job's rate once (as
        the folded rounds would have), and rebases the epoch.
        """
        model = self.model
        fold_round = model._fold_round
        if self.round == fold_round:
            return
        if self.probe_round == fold_round:
            work, pending, attained = self.probe_work, self.probe_pending, self.probe_attained
        else:
            completing, work, pending, attained = model.steady_scan(
                self.target,
                self.rate,
                model._round_duration,
                self.num_gpus,
                self.work,
                self.pending,
                self.attained,
                fold_round - self.round,
            )
            if completing is not None:
                raise SimulationError(
                    f"job {self.job.job_id} completed in round {self.round + completing}, "
                    f"before fold round {fold_round}; deferred progress diverged"
                )
        self.round = fold_round
        self.work, self.pending, self.attained = work, pending, attained
        job = self.job
        job.store_progress(work, pending, attained)
        if self.rate > 0 or job._rate is None:
            job._rate = self.rate

    def rebase(self) -> None:
        """Restart the epoch from the job's fields after a write to them."""
        self.model._start(self, self.model._fold_round)


class ExecutionModel(JobStateObserver):
    """Advances running jobs through simulated time.

    Eagerly, one round at a time (:meth:`advance_running`), or -- attached to
    a run that defers progress -- one epoch per running job, settled when
    read (see :meth:`attach`).
    """

    def __init__(
        self,
        overhead_model: Optional[OverheadModel] = None,
        termination_policy: Optional[TerminationPolicy] = None,
    ) -> None:
        from repro.policies.termination.epoch import EpochBasedTermination

        self.overheads = overhead_model if overhead_model is not None else OverheadModel()
        self.termination = (
            termination_policy if termination_policy is not None else EpochBasedTermination()
        )
        #: Whether rates are drift-free.  A running job's effective rate is
        #: then a pure function of its allocation, so one record serves every
        #: round of it; per-round jitter's RNG must be consumed exactly once
        #: per round instead.  Deferred progress and the simulator's skips
        #: both require it.
        self.jitter_free = (
            type(self.overheads).iteration_jitter is OverheadModel.iteration_jitter
        )
        #: job id -> the record of the job's current allocation (see
        #: :class:`_Epoch`); closed when the job leaves RUNNING.
        self._records: Dict[int, _Epoch] = {}
        #: The registry this model observes, and its ``bind_epoch`` when it
        #: last attached (a mismatch: the registry crossed a pickle).
        self._job_state: Optional[JobState] = None
        self._bound_epoch = -1
        #: Whether progress on ``_job_state`` is deferred.
        self._defer = False
        #: The fold clock: the last round whose progress the eager loop would
        #: have applied.  Settling folds a deferred job up to it.
        self._fold_round = 0
        self._round_duration = 0.0
        #: Jobs that entered RUNNING since the last fold; their epochs open
        #: at the next one.
        self._opening: Dict[int, Job] = {}
        #: Min-heap of ``(round, job_id, serial, record)``: a found completion
        #: round, or the round by which a probe must scan further.
        self._completions: List[Tuple[int, int, int, _Epoch]] = []
        self._serial = 0

    # ------------------------------------------------------------------
    # Rate model
    # ------------------------------------------------------------------

    def placement_efficiency(self, job: Job, cluster_state: ClusterState) -> float:
        """Throughput multiplier for the job's current placement (1.0 = ideal).

        Consolidated jobs (all GPUs on one node) and single-GPU jobs run at
        full speed.  Fragmented multi-GPU jobs pay a penalty proportional to
        the model's communication intensity and inversely proportional to the
        cross-node bandwidth of the nodes they span.
        """
        alloc = cluster_state.allocation(job.job_id)
        if alloc is None or len(alloc.nodes) <= 1:
            return 1.0
        bottleneck_bw = alloc.bandwidth
        if bottleneck_bw <= 0:
            raise SimulationError(f"node with non-positive network bandwidth hosting job {job.job_id}")
        penalty = job.comm_intensity * (REFERENCE_NETWORK_BW_GBPS / bottleneck_bw)
        return 1.0 / (1.0 + penalty)

    def effective_rate(self, job: Job, cluster_state: ClusterState) -> float:
        """Progress in requested-allocation seconds per wall-clock second.

        The one definition of how fast an allocation runs: the job's scaling
        on its GPU count, times the slowest held GPU type's compute factor,
        times the cross-node placement efficiency, times the CPU factor of a
        throttled launch, times the overhead model's jitter.  A launch on a
        CPU request records the granted share of the job's CPU demand with
        the allocation; CPU starvation slows the input pipeline linearly,
        bounded below so a job never fully stalls on CPU alone.
        """
        alloc = cluster_state.allocation(job.job_id)
        if alloc is None:
            return 0.0
        scaling = job.throughput_factor(len(alloc.gpu_ids))
        compute_factor = alloc.compute_factor
        placement = self.placement_efficiency(job, cluster_state)
        share = alloc.cpu_share
        cpu_factor = 1.0 if share is None else 0.4 + 0.6 * share
        jitter = self.overheads.iteration_jitter(job)
        return scaling * compute_factor * placement * cpu_factor * jitter

    def epoch(self, job: Job, cluster_state: ClusterState) -> _Epoch:
        """The record of the job's current allocation: rate, fragmentation, GPUs, target.

        One record serves every round until the job's allocation changes.
        Recomputed on every call when the overhead model has per-round
        jitter (the RNG draw must happen exactly once per job per round).
        """
        job_id = job.job_id
        record = self._records.get(job_id)
        if (
            record is not None
            and record.job is job
            and record.cluster is cluster_state
            and record.alloc is cluster_state.allocation(job_id)
            and self.jitter_free
        ):
            return record
        record = self._records[job_id] = _Epoch(self, job, cluster_state)
        return record

    # ------------------------------------------------------------------
    # The registry: where epochs open and close
    # ------------------------------------------------------------------

    def attach(
        self, job_state: JobState, round_number: int, round_duration: float, defer: bool
    ) -> None:
        """Observe the run's registry, from fold round ``round_number`` on.

        With ``defer`` (the simulator passes its ``fast_forward``: its skip
        executor may run, so rates are drift-free, no metric collector is
        attached and the clock is the stock one), a
        running job's progress is an epoch: one record and a completion-heap
        entry, folded only when the job completes, leaves RUNNING or has its
        progress read.  Otherwise :meth:`fold_round` folds every running job
        every round.  Either way a job's record closes when it leaves
        RUNNING.
        """
        for record in list(self._records.values()):
            self._close(record)
        if self._job_state is not None and self._job_state is not job_state:
            self._job_state.remove_observer(self)
        self._job_state = job_state
        self._bound_epoch = -1
        self._defer = defer and self.jitter_free
        self._fold_round = round_number
        self._round_duration = round_duration
        self._opening = {}
        self._completions = []
        self._rebind()

    def _rebind(self) -> None:
        """Re-attach to the registry if it crossed a pickle (see ``bind_epoch``).

        The copy holds no epoch (:meth:`__getstate__`), and every job was
        settled as it was pickled, so each running job reopens one at the
        next fold.
        """
        job_state = self._job_state
        if job_state is None or job_state.bind_epoch == self._bound_epoch:
            return
        self._bound_epoch = job_state.bind_epoch
        job_state.add_observer(self)
        if self._defer:
            for job in job_state.running_jobs():
                if job.job_id not in self._records:
                    self._opening[job.job_id] = job

    def on_job_tracked(self, job: Job) -> None:
        record = self._records.get(job.job_id)
        if record is not None and record.job is not job:
            self._close(record)
        self._opening.pop(job.job_id, None)
        if self._defer and job.status is JobStatus.RUNNING:
            self._opening[job.job_id] = job

    def on_status_change(self, job: Job, old: Optional[JobStatus], new: JobStatus) -> None:
        if new is JobStatus.RUNNING:
            if self._defer:
                self._opening[job.job_id] = job
        elif old is JobStatus.RUNNING:
            self._opening.pop(job.job_id, None)
            record = self._records.get(job.job_id)
            if record is not None and record.job is job:
                self._close(record)

    def _close(self, record: _Epoch) -> None:
        """End a record: settle its job and forget it."""
        job_id = record.job.job_id
        if record.round is not None:
            record.settle()
            record.round = None
            record.job._epoch = None
        record.serial = 0
        record.alloc = None  # a stale heap entry must not keep a released allocation alive
        if self._records.get(job_id) is record:
            del self._records[job_id]
            if not self._records:
                self._completions.clear()  # only stale entries are left

    def __getstate__(self):
        """No deferred state crosses a pickle.

        Each job settles itself as it is pickled
        (``Job.__getstate__``); the copy reopens the epochs when it next
        folds (:meth:`_rebind`).
        """
        state = self.__dict__.copy()
        if self._defer:
            state["_records"] = {}
            state["_opening"] = {}
            state["_completions"] = []
        return state

    # ------------------------------------------------------------------
    # Deferred epochs
    # ------------------------------------------------------------------

    def _open_pending(self, cluster_state: ClusterState) -> None:
        """Open the epochs of the jobs that entered RUNNING since the last fold.

        The base state is the job's own, at the fold clock; its launch
        overhead is already in it.  Writes ``was_fragmented`` in the round
        the eager loop first would.
        """
        if not self._opening:
            return
        fold_round = self._fold_round
        records = self._records
        for job_id, job in self._opening.items():
            record = records.get(job_id)
            if record is not None:
                self._close(record)
            record = records[job_id] = _Epoch(self, job, cluster_state)
            if not record.num_gpus:
                raise SimulationError(f"running job {job_id} holds no GPUs")
            if record.fragmented:
                job.was_fragmented = True
            self._start(record, fold_round)
            job._epoch = record
        self._opening.clear()

    def _start(self, record: _Epoch, fold_round: int) -> None:
        """Base the epoch (and its probe) on the job's fields at ``fold_round``."""
        job = record.job  # current: the epoch is not open yet, or just settled
        record.round = record.probe_round = fold_round
        record.work = record.probe_work = job._work_done
        record.pending = record.probe_pending = job._pending_overhead
        record.attained = record.probe_attained = job._attained_service
        record.completes = None
        self._wait(record)

    def _wait(self, record: _Epoch) -> None:
        """Queue the probe's resumption for the first round its job could complete.

        A stalled job (non-positive rate) never completes and leaves the heap.
        """
        if record.rate <= 0:
            record.serial = 0
            return
        short = _rounds_short(
            record.target - record.probe_work, record.rate, self._round_duration, record.target
        )
        self._push(record, record.probe_round + 1 + max(0, short))

    def _push(self, record: _Epoch, at: int) -> None:
        self._serial += 1
        record.serial = self._serial
        heapq.heappush(self._completions, (at, record.job.job_id, self._serial, record))

    def _probe(self, record: _Epoch, through: int) -> None:
        """Resume the record's completion probe up to round ``through``.

        The probe's state is the job's state after ``probe_round``; once the
        completion is found, after the round before it.
        """
        completing, record.probe_work, record.probe_pending, record.probe_attained = (
            self.steady_scan(
                record.target,
                record.rate,
                self._round_duration,
                record.num_gpus,
                record.probe_work,
                record.probe_pending,
                record.probe_attained,
                through - record.probe_round,
            )
        )
        if completing is not None:
            record.completes = record.probe_round + completing
            record.probe_round = record.completes - 1
            self._push(record, record.completes)
        else:
            record.probe_round = through
            self._wait(record)

    def next_completion(self, cap_round: int, cluster_state: ClusterState) -> Optional[int]:
        """The earliest round ``<= cap_round`` in which a running job completes.

        ``None`` when no deferred job completes by then.  Opens pending
        epochs and resumes only the probes that have not yet scanned that
        far, so across a run each round of an epoch is probed at most once.
        """
        self._rebind()
        self._open_pending(cluster_state)
        heap = self._completions
        while heap:
            at, _, serial, record = heap[0]
            if record.serial != serial:
                heapq.heappop(heap)  # its job left RUNNING, or a newer entry exists
            elif at > cap_round:
                return None
            elif record.completes is not None:
                return at
            else:
                heapq.heappop(heap)
                self._probe(record, cap_round)
        return None

    def fold_through(self, round_number: int, cluster_state: ClusterState) -> None:
        """Advance the fold clock to ``round_number``; no job may complete by then."""
        if self.next_completion(round_number, cluster_state) is not None:
            raise SimulationError(
                f"a job completes by round {round_number}; deferred progress diverged"
            )
        self._fold_round = round_number

    def fold_round(
        self,
        job_state: JobState,
        cluster_state: ClusterState,
        round_number: int,
        round_start: float,
        round_duration: float,
    ) -> None:
        """Apply the progress of round ``round_number`` to the running set.

        Eagerly, unless progress on ``job_state`` is deferred: then this
        opens the epochs of jobs that entered RUNNING since the last fold,
        settles each job whose probed completion round is ``round_number``
        to the round before, and runs one ordinary :meth:`advance_running`
        round over those jobs, in ascending id.  No other job is touched.
        """
        if job_state is self._job_state:
            self._rebind()
        if not self._defer or job_state is not self._job_state:
            self.advance_running(
                job_state.running_jobs(), cluster_state, round_start, round_duration
            )
            return
        self._open_pending(cluster_state)
        heap = self._completions
        due: List[_Epoch] = []
        while heap and heap[0][0] <= round_number:
            at, _, serial, record = heapq.heappop(heap)
            if record.serial != serial:
                continue
            if record.completes is None:
                self._probe(record, round_number + _PROBE_AHEAD)
            elif at == round_number:
                due.append(record)
            else:
                raise SimulationError(
                    f"job {record.job.job_id} completes in round {at}, already "
                    f"folded (fold round {round_number}); deferred progress diverged"
                )
        if not due:
            self._fold_round = round_number
            return
        self._fold_round = round_number - 1
        for record in due:
            record.settle()
            record.round = None
            record.serial = 0
            record.job._epoch = None
        self._fold_round = round_number
        jobs = [record.job for record in due]
        self.advance_running(jobs, cluster_state, round_start, round_duration)
        for job in jobs:
            if job.status is not JobStatus.COMPLETED:
                raise SimulationError(
                    f"job {job.job_id} did not complete in its probed round "
                    f"{round_number}; deferred progress diverged"
                )

    # ------------------------------------------------------------------
    # Round advancement
    # ------------------------------------------------------------------

    def advance_running(
        self,
        jobs: Iterable[Job],
        cluster_state: ClusterState,
        round_start: float,
        round_duration: float,
    ) -> None:
        """Advance jobs across one round of wall-clock time.

        ``jobs`` must be RUNNING, with current progress fields, and in
        ascending job id (the order ``JobState.running_jobs()`` yields): that
        order is the jitter-RNG draw order, the progress-observer
        notification order and the order in which completions flip status.
        Updates ``work_done``, ``attained_service`` and ``pending_overhead``;
        a job that reaches its termination target is marked completed with
        a sub-round-accurate completion time.  A round that makes progress
        records its rate on the job (a stalled one only where none is yet),
        which ``job.metrics`` derives the application metrics from.

        This is the one per-round fold: :meth:`advance` is its one-job call,
        and :meth:`steady_scan` replays exactly these floating-point
        operations in this order.
        """
        epoch = self.epoch
        running = JobStatus.RUNNING
        for job in jobs:
            if job.status is not running:
                raise SimulationError(
                    f"cannot advance job {job.job_id} in status {job.status}"
                )
            job_id = job.job_id
            record = epoch(job, cluster_state)
            rate = record.rate
            num_gpus = record.num_gpus
            if not num_gpus:
                raise SimulationError(f"running job {job_id} holds no GPUs")
            if record.fragmented:
                job.was_fragmented = True

            # The fold owns these jobs' progress (none is deferred), so it
            # reads and writes the stored values without the descriptors.
            pending = job._pending_overhead
            if pending:
                overhead_used = min(pending, round_duration)
                job._pending_overhead = pending - overhead_used
                available = round_duration - overhead_used
            else:
                overhead_used = 0.0
                available = round_duration

            remaining = record.target - job._work_done
            if not remaining > 0.0:
                remaining = 0.0

            completed = False
            if rate <= 0:
                compute_seconds = 0.0
                work = 0.0
            else:
                time_to_finish = remaining / rate
                if time_to_finish <= available:
                    compute_seconds = time_to_finish
                    work = remaining
                    completed = True
                else:
                    compute_seconds = available
                    work = available * rate

            job.add_progress(work, num_gpus * (compute_seconds + overhead_used))
            if rate > 0 or job._rate is None:
                job._rate = rate

            if completed:
                # completion_time first: the status setter notifies JobState
                # observers, which read the JCT off the job.
                job.completion_time = round_start + overhead_used + compute_seconds
                job.status = JobStatus.COMPLETED

    def advance(
        self,
        job: Job,
        cluster_state: ClusterState,
        round_start: float,
        round_duration: float,
    ) -> bool:
        """Advance one running job across one round; returns whether it completed.

        The one-job call of :meth:`advance_running`.
        """
        self.advance_running((job,), cluster_state, round_start, round_duration)
        return job.status is JobStatus.COMPLETED

    def settle_all(self) -> None:
        """Bring every deferred job's progress fields up to the fold clock.

        A read settles a job by itself; this is for what compares the raw
        slots (``Job.__eq__``).  The loop calls it whenever it returns.
        """
        for record in self._records.values():
            if record.round is not None:
                record.settle()

    @staticmethod
    def steady_scan(
        target: float,
        rate: float,
        round_duration: float,
        num_gpus: int,
        work: float,
        pending: float,
        attained: float,
        max_rounds: int,
    ) -> Tuple[Optional[int], float, float, float]:
        """Fold up to ``max_rounds`` constant-rate rounds: the one multi-round fold.

        Replays the per-round accounting of :meth:`advance_running` from the
        explicit ``(work, pending, attained)`` state -- without touching any
        job -- and returns ``(completing_round, work, pending, attained)``
        where ``completing_round`` is 1-based within *this* scan or ``None``.
        The returned state is always a real job state: after ``max_rounds``
        rounds when nothing completes, else after the rounds *before* the
        completing one.  A caller can resume the scan from it later -- an
        epoch's completion probe amortises probing this way -- write it to
        the job (settling an epoch), and execute a completing round with
        :meth:`advance_running`.

        The per-round operations are identical, in identical order, to
        :meth:`advance_running` under a constant rate, so the fold is
        bit-identical to stepping.  Once overhead has drained, the rounds
        that cannot complete are folded blind by :func:`_repeat_add`, the
        closed form of the same adds, so a scan costs O(binades) steps, not
        one per round.  A non-positive rate only drains overhead: once
        ``pending`` is exactly 0.0 each of its rounds adds 0.0, a no-op of
        any length, so the scan returns there.
        """
        # advance_running's completion test is ``remaining / rate <=
        # available`` with ``remaining`` clamped at 0.0; since ``available``
        # is never negative, ``not gap / rate > available`` decides the same.
        i = 1
        while i <= max_rounds and pending != 0.0:
            overhead_used = min(pending, round_duration)
            available = round_duration - overhead_used
            if rate <= 0:
                available = 0.0  # a stalled round computes nothing
            elif not (target - work) / rate > available:
                return i, work, pending, attained
            pending -= overhead_used
            work += available * rate
            attained += num_gpus * (available + overhead_used)
            i += 1
        if rate <= 0:
            return None, work, pending, attained
        # Drained: every round has overhead_used == 0.0 and available ==
        # round_duration, so a non-completing round is two adds with constant
        # operands.  The rounds that cannot complete are folded blind, in
        # closed form, and only the last of them is tested: the test is
        # monotone (work never decreases, so the gap never grows), so its
        # passing proves every blind round took the no-completion arm.  If it
        # fails, the estimate overshot and the checked loop runs from the
        # saved state.
        work_delta = round_duration * rate
        service_delta = num_gpus * (round_duration + 0.0)
        # With one round left the blind fold is the checked loop's one test.
        blind = (
            _blind_rounds(target - work, rate, round_duration, max_rounds - i + 1)
            if i < max_rounds
            else 0
        )
        if blind > 0:
            blind_work = _repeat_add(work, work_delta, blind - 1)
            blind_attained = _repeat_add(attained, service_delta, blind - 1)
            if (target - blind_work) / rate > round_duration:
                work = blind_work + work_delta
                attained = blind_attained + service_delta
                i += blind
        while i <= max_rounds:
            if not (target - work) / rate > round_duration:
                return i, work, pending, attained
            work += work_delta
            attained += service_delta
            i += 1
        return None, work, pending, attained
