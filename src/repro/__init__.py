"""repro: a reproduction of Blox, a modular toolkit for deep learning schedulers.

The package mirrors the structure described in the Blox paper (EuroSys '24):

* :mod:`repro.core` -- the seven scheduler abstractions, the ``JobState`` and
  ``ClusterState`` shared data structures and the composable scheduling loop.
* :mod:`repro.cluster` -- the cluster substrate (nodes, GPUs, cluster builders).
* :mod:`repro.workloads` -- model profiles, trace schema and trace generators
  (Philly-like, Pollux-like, Tiresias-like, bursty).
* :mod:`repro.policies` -- concrete instances of the admission, scheduling,
  placement and termination abstractions (FIFO, LAS, SRTF, Tiresias, Optimus,
  Gavel, Pollux, Themis, Synergy, ...).
* :mod:`repro.simulator` -- the round-based simulation engine and execution
  model shared by all policies.
* :mod:`repro.runtime` -- the deployment-path components (CentralScheduler,
  WorkerManager, BloxClientLibrary) with central and optimistic lease renewal.
* :mod:`repro.synthesizer` -- the automatic scheduler synthesizer.
* :mod:`repro.experiments` -- the paper's figures as one table of data.
"""

from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.core.cluster_state import ClusterState
from repro.core.blox_manager import BloxManager
from repro.simulator.engine import Simulator, SimulationResult
from repro.cluster.builder import build_cluster

__version__ = "0.1.0"

__all__ = [
    "Job",
    "JobStatus",
    "JobState",
    "ClusterState",
    "BloxManager",
    "Simulator",
    "SimulationResult",
    "build_cluster",
    "__version__",
]
