"""Independent reference implementations the parity gates compare against.

Kept because they share no logic with the code under test, not because they
are slow (the speed baseline is ``benchmarks/run.py`` on the parent commit):

* :class:`LegacySimulator` -- the stepping loop on *scan state*:
  :class:`LegacyClusterState` answers every query by scanning all GPU rows,
  :class:`LegacyJobState` every view by scanning and sorting the registry,
  :class:`LegacyBloxManager` prunes by re-scanning every finished job.
  Mutations still maintain the indexes (the overridden queries ignore them),
  so it is an oracle for the indexed state layer: the ``scan-state`` leg of
  the core bench cell and ``tests/test_schedule_parity.py``.
* the six sort-based ``Legacy*Scheduling`` policies -- full re-sorts of the
  runnable set every round, Pollux's O(capacity x jobs) water-filling scan,
  Gavel's per-job rebuild of the cluster GPU-type set, Tiresias' linear
  scan of its queue thresholds.  They are the oracle for the incremental
  policies and run on the stepping engine only (``fast_forward=False``;
  they declare no ``steady_state_safe`` / ``next_policy_event_time`` and
  validate nothing): the ``reference-policy`` leg of the policy matrix and
  ``tests/test_policy_incremental.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.cluster.gpu_types import GPU_TYPES
from repro.cluster.node import GPU
from repro.core.abstractions import ScheduleEntry, SchedulingPolicy
from repro.core.blox_manager import BloxManager
from repro.core.cluster_state import Allocation, ClusterState, gpu_type_key
from repro.core.exceptions import UnknownNodeError
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.policies.scheduling.pollux import EFFICIENCY_DECAY, RESTART_PENALTY
from repro.policies.scheduling.tiresias import QUEUE_THRESHOLDS
from repro.simulator.engine import Simulator


class LegacyClusterState(ClusterState):
    """Seed-style cluster state: every query is a full scan of the GPU table."""

    def free_gpus(self, gpu_type=None) -> List[GPU]:
        out = []
        for gpu in self.gpus.values():
            if not gpu.is_free:
                continue
            if self.nodes[gpu.node_id].failed:
                continue
            if gpu_type is not None and gpu_type_key(gpu.gpu_type) != gpu_type_key(gpu_type):
                continue
            out.append(gpu)
        return sorted(out, key=lambda g: g.gpu_id)

    def num_free_gpus(self, gpu_type=None) -> int:
        return len(self.free_gpus(gpu_type))

    def free_count_buckets(self) -> Dict[int, Set[int]]:
        per_node: Dict[int, int] = {}
        for gpu in self.free_gpus():
            per_node[gpu.node_id] = per_node.get(gpu.node_id, 0) + 1
        buckets: Dict[int, Set[int]] = {}
        for node_id, count in per_node.items():
            buckets.setdefault(count, set()).add(node_id)
        return buckets

    def gpus_on_node(self, node_id: int) -> List[GPU]:
        if node_id not in self.nodes:
            raise UnknownNodeError(node_id)
        return sorted(
            (g for g in self.gpus.values() if g.node_id == node_id),
            key=lambda g: g.local_gpu_id,
        )

    def free_gpus_on_node(self, node_id: int) -> List[GPU]:
        return [g for g in self.gpus_on_node(node_id) if g.is_free]

    def gpus_for_job(self, job_id: int) -> List[GPU]:
        return sorted(
            (g for g in self.gpus.values() if g.job_id == job_id),
            key=lambda g: g.gpu_id,
        )

    def nodes_for_job(self, job_id: int) -> List[int]:
        return sorted({g.node_id for g in self.gpus_for_job(job_id)})

    def allocation(self, job_id: int) -> Optional[Allocation]:
        held = {g.gpu_id for g in self.gpus_for_job(job_id)}
        if not held:
            return None
        return self._derive(held, self.cpu_share(job_id))

    def jobs_with_allocations(self) -> List[int]:
        return sorted({g.job_id for g in self.gpus.values() if g.job_id is not None})

    def utilization(self) -> float:
        if not self.gpus:
            return 0.0
        busy = sum(1 for g in self.gpus.values() if not g.is_free)
        return busy / len(self.gpus)


class LegacyJobState(JobState):
    """Seed-style job registry: every view scans and sorts the whole registry."""

    def jobs_with_status(self, *statuses: JobStatus) -> List[Job]:
        wanted = set(statuses)
        return sorted(
            (j for j in self._jobs.values() if j.status in wanted),
            key=lambda j: j.job_id,
        )

    def count_with_status(self, *statuses: JobStatus) -> int:
        return len(self.jobs_with_status(*statuses))

    def active_jobs(self) -> List[Job]:
        return [j for j in self.all_jobs() if j.status.is_active]

    def count_active(self) -> int:
        return len(self.active_jobs())

    def finished_jobs(self) -> List[Job]:
        return [j for j in self.all_jobs() if j.is_finished]

    def count_finished(self) -> int:
        return len(self.finished_jobs())


class LegacyBloxManager(BloxManager):
    """Seed-style pruning: rescan every finished job's GPUs each round."""

    def prune_completed_jobs(self, cluster_state, job_state):
        finished_holding_gpus = [
            job
            for job in job_state.finished_jobs()
            if cluster_state.gpus_for_job(job.job_id)
        ]
        for job in finished_holding_gpus:
            cluster_state.release_job(job.job_id)
            job.allocated_gpus = []
        return finished_holding_gpus


class LegacyFifoScheduling(SchedulingPolicy):
    """Seed FIFO: full re-sort of the runnable set every round."""

    name = "fifo"

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> List[ScheduleEntry]:
        ordered = sorted(job_state.runnable_jobs(), key=lambda j: (j.arrival_time, j.job_id))
        return [ScheduleEntry(job_id=j.job_id, gpu_demand=j.num_gpus) for j in ordered]


class LegacySrtfScheduling(SchedulingPolicy):
    """Seed SRTF: full re-sort of the runnable set every round."""

    name = "srtf"

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> List[ScheduleEntry]:
        ordered = sorted(
            job_state.runnable_jobs(),
            key=lambda j: (j.remaining_work, j.arrival_time, j.job_id),
        )
        return [ScheduleEntry(job_id=j.job_id, gpu_demand=j.num_gpus) for j in ordered]


class LegacyLasScheduling(SchedulingPolicy):
    """Seed LAS: full re-sort of the runnable set every round."""

    name = "las"

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> List[ScheduleEntry]:
        ordered = sorted(
            job_state.runnable_jobs(),
            key=lambda j: (j.attained_service, j.arrival_time, j.job_id),
        )
        return [ScheduleEntry(job_id=j.job_id, gpu_demand=j.num_gpus) for j in ordered]


class LegacyTiresiasScheduling(SchedulingPolicy):
    """Seed Tiresias: full re-sort, no event bounds."""

    name = "tiresias"

    @staticmethod
    def queue_index(job: Job) -> int:
        for index, threshold in enumerate(QUEUE_THRESHOLDS):
            if job.attained_service < threshold:
                return index
        return len(QUEUE_THRESHOLDS)

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> List[ScheduleEntry]:
        ordered = sorted(
            job_state.runnable_jobs(),
            key=lambda j: (self.queue_index(j), j.arrival_time, j.job_id),
        )
        return [ScheduleEntry(job_id=j.job_id, gpu_demand=j.num_gpus) for j in ordered]


class LegacyGavelScheduling(SchedulingPolicy):
    """Seed Gavel: rebuilds the cluster GPU-type set per job per round."""

    name = "gavel"

    @staticmethod
    def job_throughput_on(job: Job, gpu_type_name: str) -> float:
        gpu_type = GPU_TYPES.get(gpu_type_name)
        return gpu_type.compute_factor if gpu_type is not None else 1.0

    def best_gpu_type(self, job: Job, cluster_state: ClusterState) -> Optional[str]:
        present = {
            node.gpu_type_name for node in cluster_state.nodes.values() if not node.failed
        }
        if not present:
            return None
        return max(present, key=lambda t: self.job_throughput_on(job, t))

    def normalised_service(self, job: Job, cluster_state: ClusterState) -> float:
        gpus = cluster_state.gpus_for_job(job.job_id)
        if gpus:  # a gang runs at its slowest held type
            throughput = min(self.job_throughput_on(job, gpu.gpu_type.name) for gpu in gpus)
        else:
            type_name = self.best_gpu_type(job, cluster_state) or "v100"
            throughput = self.job_throughput_on(job, type_name)
        return job.attained_service * throughput

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> List[ScheduleEntry]:
        jobs = job_state.runnable_jobs()
        ordered = sorted(
            jobs,
            key=lambda j: (self.normalised_service(j, cluster_state), j.arrival_time, j.job_id),
        )
        entries = []
        for job in ordered:
            entries.append(ScheduleEntry(job_id=job.job_id, gpu_demand=job.num_gpus))
        return entries


class LegacyPolluxScheduling(SchedulingPolicy):
    """Seed Pollux: O(capacity x jobs) greedy water-filling scan, no memoization."""

    name = "pollux"

    def statistical_efficiency(self, job: Job, num_gpus: int) -> float:
        extra = max(0, num_gpus - 1)
        scale_limit = max(1, job.max_batch_scale)
        overscale = max(0, num_gpus - scale_limit)
        return 1.0 / (1.0 + EFFICIENCY_DECAY * extra + 0.5 * overscale)

    def goodput(self, job: Job, num_gpus: int) -> float:
        if num_gpus <= 0:
            return 0.0
        return job.scaling.speedup(num_gpus) * self.statistical_efficiency(job, num_gpus)

    def marginal_goodput(self, job: Job, num_gpus: int) -> float:
        cap = min(job.scaling.max_useful_gpus, job.num_gpus * max(1, job.max_batch_scale))
        if num_gpus >= cap:
            return 0.0
        gain = self.goodput(job, num_gpus + 1) - self.goodput(job, num_gpus)
        if num_gpus == 0 and job.status != JobStatus.RUNNING:
            gain -= RESTART_PENALTY
        return gain

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> List[ScheduleEntry]:
        jobs = job_state.runnable_jobs()
        if not jobs:
            return []
        capacity = sum(
            node.num_gpus for node in cluster_state.nodes.values() if not node.failed
        )

        running = [j for j in jobs if j.status == JobStatus.RUNNING]
        waiting = sorted(
            (j for j in jobs if j.status != JobStatus.RUNNING),
            key=lambda j: (j.arrival_time, j.job_id),
        )

        allocation: Dict[int, int] = {j.job_id: 0 for j in jobs}
        by_id = {j.job_id: j for j in jobs}

        remaining = capacity
        for job in sorted(running, key=lambda j: (j.arrival_time, j.job_id)):
            if remaining <= 0:
                break
            allocation[job.job_id] = 1
            remaining -= 1

        while remaining > 0:
            best_id = None
            best_gain = 1e-12
            for job_id, gpus in allocation.items():
                gain = self.marginal_goodput(by_id[job_id], gpus)
                if gain > best_gain:
                    best_gain = gain
                    best_id = job_id
            if best_id is None:
                break
            allocation[best_id] += 1
            remaining -= 1

        ordered = sorted(running, key=lambda j: (j.arrival_time, j.job_id)) + waiting
        return [
            ScheduleEntry(job_id=j.job_id, gpu_demand=allocation[j.job_id])
            for j in ordered
            if allocation[j.job_id] > 0
        ]


#: Registry name -> reference implementation, for the policies the policy
#: matrix pairs against their current (``SCHEDULING_POLICIES``) selves.
LEGACY_SCHEDULING = {
    "fifo": LegacyFifoScheduling,
    "srtf": LegacySrtfScheduling,
    "las": LegacyLasScheduling,
    "tiresias": LegacyTiresiasScheduling,
    "gavel": LegacyGavelScheduling,
    "pollux": LegacyPolluxScheduling,
}


class LegacySimulator(Simulator):
    """The scheduling loop on seed-cost state, with event skipping disabled.

    The passed-in cluster is rebuilt as a :class:`LegacyClusterState` (same
    nodes, GPU ids and assignments), so the simulation mutates the rebuilt
    copy, not the object the caller handed in.
    """

    def __init__(self, cluster_state, *args, **kwargs) -> None:
        if not isinstance(cluster_state, LegacyClusterState):
            cluster_state = cluster_state.copy_as(LegacyClusterState)
        kwargs["fast_forward"] = False
        kwargs.setdefault("job_state", LegacyJobState())
        super().__init__(cluster_state, *args, **kwargs)
        self.manager = LegacyBloxManager(
            trace_jobs=self.jobs,
            round_duration=self.manager.round_duration,
            execution_model=self.execution_model,
            cluster_manager=self.manager.cluster_manager,
        )
