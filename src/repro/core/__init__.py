"""Core abstractions and shared data structures of the toolkit."""

from repro.core.job import Job, JobStatus, ScalingProfile
from repro.core.job_state import JobState
from repro.core.cluster_state import ClusterState
from repro.core.abstractions import (
    AdmissionPolicy,
    ClusterManager,
    JobLauncher,
    MetricCollector,
    PlacementDecision,
    PlacementPolicy,
    PreemptionMechanism,
    ScheduleEntry,
    SchedulingPolicy,
    TerminationPolicy,
)
from repro.core.blox_manager import BloxManager
from repro.core.mechanisms import SimulatedLauncher, SimulatedPreemption
from repro.core import exceptions

__all__ = [
    "Job",
    "JobStatus",
    "ScalingProfile",
    "JobState",
    "ClusterState",
    "AdmissionPolicy",
    "ClusterManager",
    "JobLauncher",
    "MetricCollector",
    "PlacementDecision",
    "PlacementPolicy",
    "PreemptionMechanism",
    "ScheduleEntry",
    "SchedulingPolicy",
    "TerminationPolicy",
    "BloxManager",
    "SimulatedLauncher",
    "SimulatedPreemption",
    "exceptions",
]
