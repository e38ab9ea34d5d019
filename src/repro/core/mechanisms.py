"""Simulation-mode job launch and preemption mechanisms.

In a real deployment the launch mechanism shells out to the WorkerManager on
each node and the preemption mechanism revokes leases so jobs checkpoint at the
next iteration boundary (see :mod:`repro.runtime`).  In simulation these two
abstractions only need to keep the shared state consistent and charge the
corresponding overheads; as the paper notes, this is exactly the pair of
modules that differs between simulation and cluster runs.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.abstractions import JobLauncher, PreemptionMechanism
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import AllocationError
from repro.core.job import Job, JobStatus
from repro.simulator.overheads import OverheadModel


class SimulatedLauncher(JobLauncher):
    """Assigns GPUs, reserves auxiliary resources and charges launch overheads."""

    name = "simulated-launch"

    def __init__(self, overheads: Optional[OverheadModel] = None) -> None:
        self.overheads = overheads if overheads is not None else OverheadModel()

    def launch(
        self,
        job: Job,
        gpu_ids: Sequence[int],
        cluster_state: ClusterState,
        current_time: float,
        aux_per_gpu: Optional[Tuple[float, float]] = None,
    ) -> None:
        if not gpu_ids:
            raise AllocationError(f"cannot launch job {job.job_id} with an empty allocation")
        cluster_state.assign(job.job_id, gpu_ids)
        self._reserve_aux_resources(job, cluster_state, aux_per_gpu)
        job.allocated_gpus = sorted(gpu_ids)
        job.status = JobStatus.RUNNING
        job.pending_overhead += self.overheads.launch_overhead(job)
        job.num_launches += 1
        if job.first_schedule_time is None:
            job.first_schedule_time = current_time

    def _reserve_aux_resources(
        self,
        job: Job,
        cluster_state: ClusterState,
        aux_per_gpu: Optional[Tuple[float, float]],
    ) -> None:
        """Reserve CPU cores and host memory alongside the GPUs.

        Resource-sensitive placement (Synergy) puts the per-GPU ``(cpu, mem)``
        it wants for the job on the decision; without one the job gets its
        full demand and no throttling.  A requested launch records the
        granted share of the job's CPU demand with its allocation, which is
        what the execution model's rate reads.
        """
        cpu_per_gpu, mem_per_gpu = aux_per_gpu or (job.cpu_demand_per_gpu, job.mem_demand_per_gpu)

        gpus = cluster_state.gpus_for_job(job.job_id)
        total_cpu_granted = 0.0
        per_node_counts = {}
        for gpu in gpus:
            per_node_counts[gpu.node_id] = per_node_counts.get(gpu.node_id, 0) + 1
        for node_id, count in per_node_counts.items():
            node = cluster_state.node(node_id)
            cpu_wanted = float(cpu_per_gpu) * count
            mem_wanted = float(mem_per_gpu) * count
            cpu_granted = min(cpu_wanted, max(0.0, node.cpu_free))
            mem_granted = min(mem_wanted, max(0.0, node.mem_free))
            # Reserve through the cluster so the job->aux-node index stays in
            # sync and release_job can free it without scanning every node.
            cluster_state.reserve_aux(job.job_id, node_id, cpu_granted, mem_granted)
            total_cpu_granted += cpu_granted

        if aux_per_gpu is not None:
            demand = job.cpu_demand_per_gpu * max(1, len(gpus))
            share = 1.0 if demand <= 0 else min(1.0, total_cpu_granted / demand)
            cluster_state.set_cpu_share(job.job_id, share)


class SimulatedPreemption(PreemptionMechanism):
    """Checkpoints a job (charging overhead) and releases its GPUs."""

    name = "simulated-preemption"

    def __init__(self, overheads: Optional[OverheadModel] = None) -> None:
        self.overheads = overheads if overheads is not None else OverheadModel()

    def preempt(self, job: Job, cluster_state: ClusterState, current_time: float) -> None:
        cluster_state.release_job(job.job_id)
        job.allocated_gpus = []
        if job.status == JobStatus.RUNNING:
            job.status = JobStatus.PREEMPTED
            job.num_preemptions += 1
            # The checkpoint save plus the restore on the next launch are both
            # paid when the job next runs.
            job.pending_overhead += self.overheads.preemption_overhead(job)
