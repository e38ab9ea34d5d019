"""Workloads: model profiles, trace schema and trace generators."""

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.core.exceptions import ConfigurationError
from repro.workloads.models import ModelProfile, PHILLY_MODELS, get_model, model_names
from repro.workloads.trace import Trace
from repro.workloads.philly import PhillyTraceGenerator, generate_philly_trace
from repro.workloads.pollux_trace import generate_pollux_trace
from repro.workloads.tiresias_trace import generate_tiresias_trace
from repro.workloads.bursty import (
    add_daily_spike,
    add_spike,
    generate_spiked_philly_trace,
    make_bursty_trace,
)
from repro.workloads.parsers import load_trace_csv, save_trace_csv
from repro.workloads.convergence import assign_convergence_profiles

__all__ = [
    "ModelProfile",
    "PHILLY_MODELS",
    "get_model",
    "model_names",
    "Trace",
    "PhillyTraceGenerator",
    "generate_philly_trace",
    "generate_pollux_trace",
    "generate_tiresias_trace",
    "add_daily_spike",
    "add_spike",
    "generate_spiked_philly_trace",
    "make_bursty_trace",
    "load_trace_csv",
    "save_trace_csv",
    "assign_convergence_profiles",
    "WORKLOAD_GENERATORS",
    "WorkloadSpec",
    "workload_param_names",
]

#: Workload generator registry: name -> callable(num_jobs, jobs_per_hour, seed,
#: **params).  The key is what ``RunSpec(workload=...)``, ``python -m
#: repro.trace record --workload`` and ``WorkloadSpec(generator=...)`` resolve.
WORKLOAD_GENERATORS: Dict[str, Callable[..., Trace]] = {
    "philly": generate_philly_trace,
    "philly-spikes": generate_spiked_philly_trace,
    "pollux": generate_pollux_trace,
    "tiresias": generate_tiresias_trace,
}

#: Where a generator's ``**kwargs`` land, for the ones that take any.
_KWARGS_TARGETS = {
    generate_philly_trace: PhillyTraceGenerator,
    generate_spiked_philly_trace: generate_philly_trace,
}


def workload_param_names(generator: str) -> frozenset:
    """The names ``WorkloadSpec.params`` may carry for ``generator``: every
    keyword it (or what its ``**kwargs`` reach) accepts beyond the three
    sizing arguments the spec passes itself."""
    import inspect

    def keywords(fn) -> set:
        parameters = inspect.signature(fn).parameters.values()
        names = {p.name for p in parameters if p.kind is not p.VAR_KEYWORD}
        if len(names) < len(parameters):
            names |= keywords(_KWARGS_TARGETS[fn])
        return names

    return frozenset(
        keywords(WORKLOAD_GENERATORS[generator]) - {"num_jobs", "jobs_per_hour", "seed"}
    )


@dataclass(frozen=True)
class WorkloadSpec:
    """Reference to a trace generator plus its sizing parameters."""

    generator: str = "philly"
    num_jobs: int = 120
    jobs_per_hour: float = 8.0
    #: Extra generator kwargs as a tuple of (name, value) pairs so the spec
    #: stays hashable/frozen.
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.generator not in WORKLOAD_GENERATORS:
            known = ", ".join(sorted(WORKLOAD_GENERATORS))
            raise ConfigurationError(
                f"unknown workload generator {self.generator!r}; known: {known}"
            )
        if self.num_jobs < 1:
            raise ConfigurationError(f"num_jobs must be >= 1, got {self.num_jobs}")
        if self.jobs_per_hour <= 0:
            raise ConfigurationError(f"jobs_per_hour must be > 0, got {self.jobs_per_hour}")

    def build(self, seed: int) -> Trace:
        return WORKLOAD_GENERATORS[self.generator](
            num_jobs=self.num_jobs,
            jobs_per_hour=self.jobs_per_hour,
            seed=seed,
            **dict(self.params),
        )
