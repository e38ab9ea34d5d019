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

from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from repro.core.abstractions import TerminationPolicy
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import SimulationError
from repro.core.job import Job, JobStatus
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


class _Facts(NamedTuple):
    """What a round needs of one job that only changes with its allocation.

    Valid for ``job`` on ``cluster`` while both version stamps hold; see
    :meth:`ExecutionModel._facts`.
    """

    cluster: ClusterState
    membership_version: int
    alloc_version: int
    rate: float
    fragmented: bool
    num_gpus: int
    work_target: float
    job: Job


class ExecutionModel:
    """Advances running jobs through simulated time, one round at a time."""

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
        #: then a pure function of its allocation and the cluster's
        #: membership, both covered by the cluster's version stamps; per-round
        #: jitter's RNG must be consumed exactly once per round instead.  The
        #: rate cache and the simulator's skips both require it.
        self.jitter_free = (
            type(self.overheads).iteration_jitter is OverheadModel.iteration_jitter
        )
        #: job id -> the job's allocation facts (see :meth:`_facts`), valid
        #: until its allocation or the cluster membership changes.
        self._rate_cache: Dict[int, _Facts] = {}
        #: job id -> the facts of the job's latest round whose application
        #: metrics :meth:`advance_running` has not written yet.  Nothing
        #: reads those five values between rounds unless a collector runs or
        #: the loop hands control back, so they are written then
        #: (:meth:`publish_owed_metrics`) instead of once per job per round.
        self._owed: Dict[int, _Facts] = {}

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
        nodes = cluster_state.nodes_for_job(job.job_id)
        if len(nodes) <= 1:
            return 1.0
        bandwidths = [cluster_state.node(n).network_bw_gbps for n in nodes]
        bottleneck_bw = min(bandwidths)
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
        gpus = cluster_state.gpus_for_job(job.job_id)
        if not gpus:
            return 0.0
        scaling = job.throughput_factor(len(gpus))
        compute_factor = min(g.gpu_type.compute_factor for g in gpus)
        placement = self.placement_efficiency(job, cluster_state)
        share = cluster_state.cpu_share(job.job_id)
        cpu_factor = 1.0 if share is None else 0.4 + 0.6 * share
        jitter = self.overheads.iteration_jitter(job)
        return scaling * compute_factor * placement * cpu_factor * jitter

    def _facts(self, job: Job, cluster_state: ClusterState) -> _Facts:
        """The job's rate, fragmentation, GPU count and work target, memoized.

        All four are pure functions of state covered by the cluster's version
        stamps, so one entry serves every round until the job's allocation
        or the cluster membership changes -- the same delta the rest of a
        full round iterates over.  Recomputed on every call when the overhead
        model has per-round jitter (the RNG draw must happen exactly once per
        job per round).
        """
        job_id = job.job_id
        membership = cluster_state.membership_version
        alloc = cluster_state.alloc_version(job_id)
        if self.jitter_free:
            entry = self._rate_cache.get(job_id)
            if (
                entry is not None
                and entry.cluster is cluster_state
                and entry.membership_version == membership
                and entry.alloc_version == alloc
                and entry.job is job
            ):
                return entry
        entry = _Facts(
            cluster_state,
            membership,
            alloc,
            self.effective_rate(job, cluster_state),
            len(cluster_state.nodes_for_job(job_id)) > 1,
            cluster_state.num_gpus_for_job(job_id),
            self.termination.work_target(job),
            job,
        )
        if self.jitter_free:
            self._rate_cache[job_id] = entry
        return entry

    def cached_rate(self, job: Job, cluster_state: ClusterState) -> Tuple[float, bool, int]:
        """``(effective_rate, is_fragmented, num_gpus)``, memoized per allocation."""
        facts = self._facts(job, cluster_state)
        return facts.rate, facts.fragmented, facts.num_gpus

    def forget(self, job_id: int) -> None:
        """Drop the cached facts of a job that was pruned."""
        self._rate_cache.pop(job_id, None)

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
        """Advance the running set across one round of wall-clock time.

        ``jobs`` must be RUNNING and in ascending job id (the order
        ``JobState.running_jobs()`` yields): that order is the jitter-RNG
        draw order, the progress-observer notification order and the order in
        which completions flip status.  Updates ``work_done``,
        ``attained_service`` and ``pending_overhead``; a job that reaches its
        termination target is marked completed with a sub-round-accurate
        completion time.  The five application metrics are *owed*, not
        written, unless the job completes (observers of the transition may
        read them) or stalls; see :meth:`publish_owed_metrics`.

        This is the one per-round fold: :meth:`advance` is its one-job call,
        and :meth:`steady_scan` replays exactly these floating-point
        operations in this order.
        """
        facts = self._facts
        owed = self._owed
        running = JobStatus.RUNNING
        for job in jobs:
            if job.status is not running:
                raise SimulationError(
                    f"cannot advance job {job.job_id} in status {job.status}"
                )
            job_id = job.job_id
            entry = facts(job, cluster_state)
            rate = entry.rate
            num_gpus = entry.num_gpus
            if not num_gpus:
                raise SimulationError(f"running job {job_id} holds no GPUs")
            if entry.fragmented:
                job.metrics["was_fragmented"] = True

            pending = job.pending_overhead
            if pending:
                overhead_used = min(pending, round_duration)
                job.pending_overhead = pending - overhead_used
                available = round_duration - overhead_used
            else:
                overhead_used = 0.0
                available = round_duration

            remaining = entry.work_target - job.work_done
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

            if rate > 0 and not completed:
                owed[job_id] = entry
                continue
            self._publish(job, rate)
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

        The one-job call of :meth:`advance_running`.  A lone caller reads the
        job straight afterwards, so its metrics are published, not owed.
        """
        self.advance_running((job,), cluster_state, round_start, round_duration)
        self.publish_owed_metrics()
        return job.status is JobStatus.COMPLETED

    def publish_owed_metrics(self) -> None:
        """Write the application metrics :meth:`advance_running` still owes.

        The values are pure functions of each job's current progress and the
        rate of its latest round, neither of which moves between rounds, so
        writing them late yields exactly what a per-round write would have
        left.  The scheduling loop calls this before metric collectors run
        and whenever it returns.
        """
        if self._owed:
            for entry in self._owed.values():
                self._update_app_metrics(entry.job, entry.rate)
            self._owed.clear()

    def _publish(self, job: Job, rate: float) -> None:
        """Write one job's application metrics now, settling any older debt."""
        older = self._owed.pop(job.job_id, None)
        if older is not None and rate <= 0:
            # A stalled round reports no iteration time or throughput; the
            # last progressing round's must stand, as if written back then.
            self._update_app_metrics(job, older.rate)
        self._update_app_metrics(job, rate)

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
        completing one.  A caller can resume the scan from it later -- the
        event core's completion probes amortise probing this way -- write it
        to the job (:meth:`adopt_steady`), and execute a completing round
        with :meth:`advance_running`.

        The per-round operations are identical, in identical order, to
        :meth:`advance_running` under a constant rate, so the fold is
        bit-identical to stepping.  A non-positive rate only drains overhead:
        once ``pending`` is exactly 0.0 each of its rounds adds 0.0, a no-op
        of any length, so the scan returns there.
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
        # operands.  The rounds that cannot complete are folded blind and
        # only the last of them is tested: the test is monotone (work never
        # decreases, so the gap never grows), so its passing proves every
        # blind round took the no-completion arm.  If it fails, the estimate
        # overshot and the checked loop runs from the saved state.
        work_delta = round_duration * rate
        service_delta = num_gpus * (round_duration + 0.0)
        blind = _blind_rounds(target - work, rate, round_duration, max_rounds - i + 1)
        if blind > 0:
            blind_work, blind_attained = work, attained
            for _ in range(blind - 1):
                blind_work += work_delta
                blind_attained += service_delta
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

    def adopt_steady(
        self,
        job: Job,
        cluster_state: ClusterState,
        work: float,
        pending: float,
        attained: float,
    ) -> None:
        """Write a non-completing fold :meth:`steady_scan` made to the job.

        ``(work, pending, attained)`` must be a scan's state after exactly
        the rounds the job is owed, with no completion among them; the job
        then ends where that many :meth:`advance_running` rounds would leave
        it.  The application metrics are owed, or for a stalled job written,
        as those rounds would leave them.
        """
        if job.status is not JobStatus.RUNNING:
            raise SimulationError(f"cannot advance job {job.job_id} in status {job.status}")
        facts = self._facts(job, cluster_state)
        if not facts.num_gpus:
            raise SimulationError(f"running job {job.job_id} holds no GPUs")
        if facts.fragmented:
            job.metrics["was_fragmented"] = True
        job.work_done = work
        job.attained_service = attained
        job.pending_overhead = pending
        if facts.rate > 0:
            self._owed[job.job_id] = facts
        else:
            self._publish(job, facts.rate)

    def _update_app_metrics(self, job: Job, rate: float) -> None:
        """Push the application-level metrics the paper's schedulers consume."""
        duration = job.duration
        progress = 1.0 if duration <= 0 else min(1.0, job.work_done / duration)
        # A simple exponentially decaying loss curve: reaches ~1% of its initial
        # value at the job's convergence point and stays flat afterwards.
        convergence_progress = min(1.0, progress / job.convergence_fraction)
        loss = 10.0 * (0.01 ** convergence_progress)
        metrics = job.metrics
        metrics["loss"] = loss
        metrics["progress"] = progress
        if rate > 0:
            iteration_time = job.iteration_time
            metrics["iteration_time"] = iteration_time / rate
            metrics["throughput"] = rate / iteration_time
        metrics["attained_service"] = job.attained_service
