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
        """Assign the GPUs with CPU cores and host memory alongside; start the job.

        ``aux_per_gpu`` is Synergy's per-GPU ``(cpu, mem)`` request; without
        one the job gets its full demand, unthrottled.  A requested launch
        records the granted share of its CPU demand, which the rate reads.
        """
        if not gpu_ids:
            raise AllocationError(f"cannot launch job {job.job_id} with an empty allocation")
        request = aux_per_gpu or (job.cpu_demand_per_gpu, job.mem_demand_per_gpu)
        granted = cluster_state.assign(job.job_id, gpu_ids, request)
        if aux_per_gpu is not None:
            demand = job.cpu_demand_per_gpu * len(gpu_ids)
            share = 1.0 if demand <= 0 else min(1.0, granted / demand)
            cluster_state.set_cpu_share(job.job_id, share)
        self.allocated(job, cluster_state)
        job.allocated_gpus = sorted(gpu_ids)
        job.status = JobStatus.RUNNING
        job.pending_overhead += self.overheads.launch_overhead(job)
        job.num_launches += 1
        if job.first_schedule_time is None:
            job.first_schedule_time = current_time

    def allocated(self, job: Job, cluster_state: ClusterState) -> None:
        """Hook between the job's allocation and its RUNNING write (no-op in simulation)."""


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
