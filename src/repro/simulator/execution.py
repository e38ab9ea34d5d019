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
        # A running job's effective rate is a pure function of its allocation
        # and the cluster's membership, both covered by the cluster's version
        # stamps -- unless the overhead model injects per-round jitter, whose
        # RNG must be consumed exactly once per round.  The cache keys on the
        # cluster object identity plus both stamps.
        self._rates_cacheable = (
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
        """Progress in requested-allocation seconds per wall-clock second."""
        gpus = cluster_state.gpus_for_job(job.job_id)
        if not gpus:
            return 0.0
        scaling = job.throughput_factor(len(gpus))
        compute_factor = min(g.gpu_type.compute_factor for g in gpus)
        placement = self.placement_efficiency(job, cluster_state)
        cpu_factor = float(job.metrics.get("cpu_throughput_factor", 1.0))
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
        if self._rates_cacheable:
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
        if self._rates_cacheable:
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
        and :meth:`advance_steady` / :meth:`steady_scan` replay exactly these
        floating-point operations in this order.
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
        work: float,
        pending: float,
        max_rounds: int,
    ) -> Tuple[Optional[int], float, float]:
        """Pure, resumable probe for the round in which a job would complete.

        Replays up to ``max_rounds`` rounds of the per-round accounting from
        the explicit ``(work, pending)`` state -- without touching any job --
        and returns
        ``(completing_round, work, pending)`` where ``completing_round`` is
        1-based within *this* scan or ``None``.  When no completion is found
        the returned state is exactly the state after ``max_rounds`` rounds,
        so a caller can resume the scan later from where it stopped -- the
        event core's completion-probe cache uses this to amortise probing
        across fast-forward entries (each round of a job's life is scanned at
        most once per allocation epoch).  On a completion the returned state
        is mid-round and must not be resumed from.

        The per-round operations are identical, in identical order, to
        :meth:`advance` under a constant rate -- that identity is what lets a
        probe taken rounds ago still name the exact absolute completion
        round, because every execution path (full rounds, steady strides,
        deferred flushes) replays this same fold.
        """
        if rate <= 0:
            return None, work, pending
        # General fold only while overhead is draining; once pending hits
        # exactly 0.0 every later round has overhead_used == 0.0 and
        # available == round_duration, so the loop switches to a fast fold
        # with constant operands and no min/max calls -- identical values,
        # identical float-operation order.
        i = 1
        while i <= max_rounds and pending != 0.0:
            overhead_used = min(pending, round_duration)
            pending -= overhead_used
            available = round_duration - overhead_used
            remaining = max(0.0, target - work)
            if remaining / rate <= available:
                return i, work, pending
            work += available * rate
            i += 1
        work_delta = round_duration * rate
        while i <= max_rounds:
            remaining = target - work
            if remaining < 0.0:
                remaining = 0.0
            if remaining / rate <= round_duration:
                return i, work, pending
            work += work_delta
            i += 1
        return None, work, pending

    def advance_steady(
        self,
        job: Job,
        cluster_state: ClusterState,
        final_round_start: float,
        round_duration: float,
        rounds: int,
    ) -> bool:
        """Advance one running job across ``rounds`` steady-state rounds at once.

        The one k-round replay: used by the skip executor when the job's
        allocation, placement and rate are constant across the stride.  The
        per-round work/overhead/service accounting is replayed with exactly
        the floating-point operations :meth:`advance` would perform (same
        values, same order), so the job's state after the call is
        bit-identical to ``rounds`` individual ``advance`` calls -- including
        the sub-round completion time if the job finishes in the stride's
        final round (callers size strides with :meth:`steady_scan` so a
        completion can only fall there).  The application metrics are pure
        functions of the final state and the constant rate, so they are owed
        exactly as :meth:`advance_running` owes them (written here only on a
        completion or a stall; see :meth:`publish_owed_metrics`).

        ``final_round_start`` is the wall-clock start of the stride's *last*
        round, taken from the manager's clock so a completion time
        assigned here is bit-identical to the one ``advance`` would assign.
        Returns whether the job completed; a completion before the final
        round raises :class:`SimulationError` before any progress is written.
        """
        if job.status != JobStatus.RUNNING:
            raise SimulationError(f"cannot advance job {job.job_id} in status {job.status}")
        facts = self._facts(job, cluster_state)
        rate, num_gpus, target = facts.rate, facts.num_gpus, facts.work_target
        if not num_gpus:
            raise SimulationError(f"running job {job.job_id} holds no GPUs")
        if facts.fragmented:
            job.metrics["was_fragmented"] = True

        work = job.work_done
        attained = job.attained_service
        pending = job.pending_overhead
        completed = False
        overhead_used = 0.0
        compute_seconds = 0.0
        # General fold while overhead drains.  A non-positive rate needs no
        # more than that: once pending is exactly 0.0 each of its rounds adds
        # 0.0 work and 0.0 service, a no-op of any length.
        index = 0
        while index < rounds and pending != 0.0:
            overhead_used = min(pending, round_duration)
            pending -= overhead_used
            available = round_duration - overhead_used
            remaining = max(0.0, target - work)
            if rate <= 0:
                compute_seconds = 0.0
                work_delta = 0.0
            else:
                time_to_finish = remaining / rate
                if time_to_finish <= available:
                    compute_seconds = time_to_finish
                    work_delta = remaining
                    completed = True
                else:
                    compute_seconds = available
                    work_delta = available * rate
            work += work_delta
            attained += num_gpus * (compute_seconds + overhead_used)
            if completed:
                if index != rounds - 1:
                    raise SimulationError(
                        f"job {job.job_id} completed in stride round {index + 1} "
                        f"of {rounds}; the stride was sized past its completion"
                    )
                break
            index += 1
        if rate > 0 and index < rounds and not completed:
            # Overhead drained, positive rate: every round has overhead_used
            # == 0.0 and available == round_duration, so a non-completing
            # round is two adds with constant operands.  All rounds but the
            # last are folded blind; the per-round completion test
            # ``remaining / rate <= round_duration`` is monotone along the
            # stride (work never decreases, so remaining never increases), so
            # one test on the round before the last, with the exact operands
            # the per-round loop would use there, proves every blind round
            # took the no-completion arm.
            work_delta = round_duration * rate
            service_delta = num_gpus * (round_duration + 0.0)
            overhead_used = 0.0
            blind = rounds - index - 1
            if blind > 0:
                for _ in range(blind - 1):
                    work += work_delta
                    attained += service_delta
                if max(0.0, target - work) / rate <= round_duration:
                    raise SimulationError(
                        f"job {job.job_id} completed before the final round of "
                        f"its {rounds}-round stride; the stride was sized past "
                        "its completion"
                    )
                work += work_delta
                attained += service_delta
            remaining = max(0.0, target - work)
            compute_seconds = remaining / rate
            if compute_seconds <= round_duration:
                completed = True
                work += remaining
                attained += num_gpus * (compute_seconds + 0.0)
            else:
                work += work_delta
                attained += service_delta
        job.work_done = work
        job.attained_service = attained
        job.pending_overhead = pending
        if rate > 0 and not completed:
            self._owed[job.job_id] = facts
        else:
            self._publish(job, rate)
        if completed:
            job.completion_time = final_round_start + overhead_used + compute_seconds
            job.status = JobStatus.COMPLETED
        return completed

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
