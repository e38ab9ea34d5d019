"""Launch, preemption and checkpoint overheads.

Round-based schedulers preempt and restart jobs at iteration boundaries; each
launch pays a process start + checkpoint restore cost and each preemption pays
a checkpoint save cost.  The fidelity experiment (Fig. 18) compares the plain
simulator against a "cluster run"; we stand in for the real cluster with
:class:`ClusterOverheadModel`, which adds the profiled overheads plus run-to-run
jitter, matching how the paper profiles launch/preemption overheads per model.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.core.exceptions import ConfigurationError
from repro.core.job import Job

#: Default per-model checkpoint/restore costs (seconds).  Larger models take
#: longer to checkpoint and to rebuild their input pipelines.
DEFAULT_LAUNCH_OVERHEAD: Dict[str, float] = {
    "resnet18": 15.0,
    "cyclegan": 30.0,
    "resnet50": 35.0,
    "lstm": 20.0,
    "recoder": 25.0,
    "transformer": 30.0,
    "a3c": 10.0,
    "generic": 20.0,
}

DEFAULT_PREEMPTION_OVERHEAD: Dict[str, float] = {
    "resnet18": 10.0,
    "cyclegan": 25.0,
    "resnet50": 30.0,
    "lstm": 15.0,
    "recoder": 20.0,
    "transformer": 25.0,
    "a3c": 8.0,
    "generic": 15.0,
}


#: The cluster model's extra fixed cost per launch (seconds) and the standard
#: deviation of its per-round rate jitter.
CLUSTER_EXTRA_LAUNCH_SECONDS = 12.0
CLUSTER_JITTER_STD = 0.04


class OverheadModel:
    """Deterministic launch/preemption overheads used by the plain simulator.

    ``scale`` turns overheads off (``scale=0``) or exaggerates them.  No run
    description sets it (every run pays the per-model tables above); it is
    the paper's overhead-free simulator, which unit tests use to isolate
    placement and rate arithmetic from launch costs.
    """

    def __init__(self, scale: float = 1.0) -> None:
        if scale < 0:
            raise ConfigurationError(f"overhead scale must be >= 0, got {scale}")
        self.scale = scale

    def _lookup(self, table: Dict[str, float], job: Job) -> float:
        return table.get(job.model_name, table["generic"]) * self.scale

    def launch_overhead(self, job: Job) -> float:
        """Seconds lost when (re)starting a job: process start + checkpoint restore."""
        return self._lookup(DEFAULT_LAUNCH_OVERHEAD, job)

    def preemption_overhead(self, job: Job) -> float:
        """Seconds lost when checkpointing a job at preemption time."""
        return self._lookup(DEFAULT_PREEMPTION_OVERHEAD, job)

    def iteration_jitter(self, job: Job) -> float:
        """Multiplicative per-round jitter on execution rate (1.0 = none)."""
        return 1.0


class ClusterOverheadModel(OverheadModel):
    """Overheads plus run-to-run variability, standing in for a real cluster run.

    Real clusters deviate from the simulator because of hardware variability,
    data-loading stalls and interference.  We model this as (i) a small extra
    fixed cost per launch (:data:`CLUSTER_EXTRA_LAUNCH_SECONDS`) and (ii) a
    per-round multiplicative jitter on the execution rate drawn from a seeded
    Gaussian (:data:`CLUSTER_JITTER_STD`), so "cluster" runs are reproducible
    yet differ from plain simulation by a few per cent -- the regime the
    fidelity experiment (Fig. 18) measures.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._rng = random.Random(seed)

    def launch_overhead(self, job: Job) -> float:
        return super().launch_overhead(job) + CLUSTER_EXTRA_LAUNCH_SECONDS

    def iteration_jitter(self, job: Job) -> float:
        # Clamp so pathological draws can never stall or wildly speed up a job.
        jitter = self._rng.gauss(1.0, CLUSTER_JITTER_STD)
        return min(1.2, max(0.8, jitter))
