"""The per-package manifest: repo knowledge the generic rules consult.

The linter's rules are generic AST checks; everything repo-specific --
which packages sit on the simulation path, which files are allowed to read
wall-clock and for what, which classes cross process pipes, which functions
are hot -- is declared here so adding an exception is a reviewed one-line
manifest change rather than an inline suppression scattered in code.

Tests construct custom :class:`LintManifest` instances to lint fixture
snippets under virtual paths; ``default_manifest()`` is what the CLI uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

#: Packages whose code executes inside the simulated clock: reading
#: wall-clock or process environment here breaks replay determinism.
#: (telemetry/bench/dashboard/trace/experiments are deliberately absent --
#: they wrap runs and may read the real clock.)
SIMULATION_PACKAGES: Tuple[str, ...] = (
    "repro.core",
    "repro.cluster",
    "repro.simulator",
    "repro.policies",
    "repro.scenarios",
    "repro.federation",
    "repro.runtime",
    "repro.workloads",
    "repro.metrics",
    "repro.baselines",
    "repro.synthesizer",
)

#: (path suffix, rule id) -> callees that file may legitimately use.
#: Wall-clock reads on the simulation path that are *measurement*, not
#: schedule input: bench wall-time accounting in the engines and the
#: parallel supervisor's liveness heartbeats.  Each entry names the exact
#: callees so a new clock read in the same file still gets flagged.
WALLCLOCK_ALLOWLIST: Dict[Tuple[str, str], FrozenSet[str]] = {
    # Engine wall-time accounting around the round loop (reported in
    # BENCH_core.json; never fed back into the schedule).
    ("repro/simulator/engine.py", "D102"): frozenset({"time.perf_counter"}),
    # Serial federation engine: same wall-time bookkeeping.
    ("repro/federation/engine.py", "D102"): frozenset({"time.perf_counter"}),
    # Parallel workers: monotonic supervisor heartbeats/timeouts and
    # perf_counter wall-time breakdowns (both excluded from parity by
    # NONDETERMINISTIC_KINDS).
    ("repro/federation/parallel.py", "D102"): frozenset(
        {"time.perf_counter", "time.monotonic"}
    ),
    # Scenario-matrix CLI entry point: stamps wall-clock `started_at` into
    # report metadata (never consumed by the simulation itself).
    ("repro/scenarios/__main__.py", "D102"): frozenset({"time.time"}),
}

#: Classes that cross process pipes (spawned federation workers, checkpoint
#: snapshots) and therefore must stay pickle-clean: no lambdas, open
#: handles, locks, or weakrefs in instance state without a
#: ``__getstate__``/``__setstate__`` pair.  class name -> defining file.
PICKLE_REGISTRY: Dict[str, str] = {
    "Job": "repro/core/job.py",
    "JobState": "repro/core/job_state.py",
    "ShardViewSummary": "repro/federation/router.py",
    "ScenarioManagerFactory": "repro/federation/engine.py",
    "RunSpec": "repro/telemetry/runspec.py",
    # What the worker protocol's ``finish`` reply ships back.
    "SimulationResult": "repro/simulator/engine.py",
    "RoundLog": "repro/simulator/engine.py",
    "RoundRecord": "repro/simulator/engine.py",
    "ShardFinishStats": "repro/federation/engine.py",
    "TimelineClusterManager": "repro/scenarios/timeline.py",
    "ClusterEvent": "repro/scenarios/events.py",
    "NodeFailureEvent": "repro/scenarios/events.py",
    "NodeRecoveryEvent": "repro/scenarios/events.py",
    "ScaleOutEvent": "repro/scenarios/events.py",
    "ScaleInEvent": "repro/scenarios/events.py",
    "GpuUpgradeEvent": "repro/scenarios/events.py",
}

#: Functions that are hot even without a ``# hot-path`` marker, as
#: ``<path suffix>::<qualified name>``.  H102 bans logging/telemetry emit
#: calls inside these and inside any function whose ``def`` line (or the
#: line above it) carries a ``# hot-path`` comment.
HOT_PATH_FUNCTIONS: FrozenSet[str] = frozenset(
    {
        "repro/core/job.py::_StatusField.__set__",
        "repro/core/job.py::_ProgressField.__get__",
        "repro/core/job.py::_ProgressField.__set__",
        "repro/core/job.py::Job.add_progress",
        "repro/core/job.py::Job.store_progress",
        "repro/core/job_state.py::JobState._reindex_status",
        "repro/simulator/execution.py::ExecutionModel.advance",
        "repro/simulator/execution.py::ExecutionModel.advance_running",
        "repro/simulator/execution.py::ExecutionModel.steady_scan",
        # Deferred progress: the settle path every progress read may take,
        # and the per-round fold / skip queries of the completion heap.
        "repro/simulator/execution.py::_Epoch.settle",
        "repro/simulator/execution.py::ExecutionModel._probe",
        "repro/simulator/execution.py::ExecutionModel.fold_round",
        "repro/simulator/execution.py::ExecutionModel.next_completion",
        "repro/simulator/engine.py::RoundLog.append",
        "repro/simulator/engine.py::RoundLog.append_run",
        # Simulator._log_rounds is deliberately absent: it *is* the
        # round-record choke point, so telemetry emission belongs there.
        "repro/simulator/engine.py::Simulator._skip",
        "repro/simulator/engine.py::Simulator._rounds_until",
        # A full round's schedule -> place path: the priority stream, the
        # elastic water-fills, the schedules' own selections and the
        # placement walk every other schedule takes.
        "repro/policies/scheduling/priority_index.py::RunnablePriorityIndex.ordered",
        "repro/policies/scheduling/priority_index.py::RunnablePriorityIndex.gang_entries",
        "repro/policies/scheduling/priority_index.py::GangStream.select",
        "repro/policies/scheduling/priority_index.py::_merge_entries",
        "repro/policies/scheduling/pollux.py::PolluxScheduling.schedule",
        "repro/policies/scheduling/pollux.py::_water_fill",
        "repro/policies/scheduling/pollux.py::PolluxAllocation.select",
        "repro/policies/scheduling/optimus.py::OptimusScheduling.schedule",
        "repro/policies/placement/base.py::BasePlacementPolicy.place",
        "repro/policies/placement/base.py::walk_schedule",
        # The free-count index and the placement view's reads of it: called
        # per launch (queries) or per GPU assigned / freed (maintenance).
        "repro/core/cluster_state.py::ClusterState._refile",
        "repro/policies/placement/base.py::AvailabilityView._refile",
        "repro/policies/placement/base.py::AvailabilityView._free_list",
        "repro/policies/placement/base.py::AvailabilityView.node_ids",
        "repro/policies/placement/base.py::AvailabilityView.best_fit",
        "repro/policies/placement/base.py::AvailabilityView.nodes_by_free_count",
        "repro/policies/placement/base.py::AvailabilityView.free_on_node",
        "repro/policies/placement/base.py::AvailabilityView.take",
    }
)

#: Where the policy reference doc lives (for C103) and which package
#: prefixes hold registry policies (for the C rules' class discovery).
POLICY_DOC_PATH = "docs/policies.md"
POLICY_PACKAGE_PREFIXES: Tuple[str, ...] = (
    "repro.policies",
    "repro.synthesizer",
)

#: Base-class names that mark a class as part of the policy registry, and
#: which contract family applies to it.
SCHEDULING_POLICY_BASES: FrozenSet[str] = frozenset({"SchedulingPolicy"})
OTHER_POLICY_BASES: FrozenSet[str] = frozenset(
    {"AdmissionPolicy", "PlacementPolicy", "TerminationPolicy", "Router"}
)


@dataclass(frozen=True)
class LintManifest:
    """Bundles the repo knowledge above; tests swap in custom instances."""

    simulation_packages: Tuple[str, ...] = SIMULATION_PACKAGES
    wallclock_allowlist: Dict[Tuple[str, str], FrozenSet[str]] = field(
        default_factory=lambda: dict(WALLCLOCK_ALLOWLIST)
    )
    pickle_registry: Dict[str, str] = field(
        default_factory=lambda: dict(PICKLE_REGISTRY)
    )
    hot_path_functions: FrozenSet[str] = HOT_PATH_FUNCTIONS
    policy_doc_path: str = POLICY_DOC_PATH
    policy_package_prefixes: Tuple[str, ...] = POLICY_PACKAGE_PREFIXES

    # ------------------------------------------------------------------

    def module_for(self, rel: str) -> Optional[str]:
        """Dotted module for a repo-relative path, ``None`` outside ``src/``.

        Virtual fixture paths used by tests follow the same convention, so
        ``"src/repro/simulator/fake.py"`` lands in simulation scope.
        """
        parts = rel.replace("\\", "/").split("/")
        if "src" in parts:
            parts = parts[parts.index("src") + 1 :]
        if not parts or parts[0] != "repro" or not parts[-1].endswith(".py"):
            return None
        parts[-1] = parts[-1][: -len(".py")]
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    def is_simulation_module(self, module: Optional[str]) -> bool:
        if module is None:
            return False
        return any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in self.simulation_packages
        )

    def wallclock_allowed(self, rel: str, rule_id: str, callee: str) -> bool:
        rel = rel.replace("\\", "/")
        for (suffix, rule), callees in sorted(self.wallclock_allowlist.items()):
            if rule == rule_id and rel.endswith(suffix) and callee in callees:
                return True
        return False

    def pickle_registry_class(self, rel: str, class_name: str) -> bool:
        expected = self.pickle_registry.get(class_name)
        return expected is not None and rel.replace("\\", "/").endswith(expected)

    def is_hot_path_function(self, rel: str, qualname: str) -> bool:
        rel = rel.replace("\\", "/")
        key_tail = f"::{qualname}"
        return any(
            rel.endswith(entry.split("::", 1)[0]) and entry.endswith(key_tail)
            for entry in sorted(self.hot_path_functions)
        )

    def is_policy_module(self, module: Optional[str]) -> bool:
        if module is None:
            return False
        return any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in self.policy_package_prefixes
        )


def default_manifest() -> LintManifest:
    return LintManifest()
