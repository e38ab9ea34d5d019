"""The bench CLIs as a gate matrix: inventory, exit codes, the one writer.

Every ``python -m repro.bench`` mode (and ``python -m repro.scenarios``) is a
list of cells run through ``run_cell`` and written by ``write_artifact``.
These tests drive the smoke configurations of all of them in-process and pin
what the refactor must not lose: the *set of gates*, that a perturbed leg
turns into exit status 1 in every mode, and that the four artifacts share one
shape -- the shape ``tools/check_docs.py`` validates the checked-in files
against.
"""

import contextlib
import gc
import importlib.util
import io
import json
import warnings
from pathlib import Path

import pytest

from repro.bench import cells, workload
from repro.bench.__main__ import main as bench_main
from repro.scenarios.__main__ import main as scenarios_main

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every gate any mode reports.  A superset of the booleans the per-mode
#: exit-code checks read before the modes became cell lists; a gate may be
#: added here, never silently dropped.
GATES = {
    "BENCH_core.json": {
        "core parity",
        "scan-state parity",
        "traced parity",
        "telemetry overhead",
        "policy-matrix parity",
        "event_core: event-core timed parity",
        "event_core: event-core round-log parity",
        "event_core: event-core speedup",
    },
    "BENCH_scenarios.json": {"scenario-matrix parity"},
    "BENCH_runtime.json": {
        "deployment-vs-simulation parity",
        "deployment-vs-stepping parity",
        "lease claim central_grows_with_cluster",
        "lease claim optimistic_independent_of_cluster",
        "lease claim optimistic_grows_with_revocations",
        "chaos: faulted parity",
        "chaos: zero leaked leases",
        "chaos: recovery counters non-zero",
    },
    "BENCH_federation.json": {
        "federation fast-forward parity",
        "serial/parallel parity",
        "shard invariants",
        "multi-shard gain",
        "scaling parity",
        "scaling speedup",
        "stream_demo: stream demo all jobs finished",
        "chaos: kill parity",
        "chaos: kills recovered",
        "chaos: degrade conservation",
    },
}

#: The CI federation step that exercises the parallel legs, the cheapest
#: configuration with every federation gate in it.
FEDERATION = [
    "--federation", "--smoke", "--shards", "1,2", "--workers", "2",
    "--routers", "round-robin,queue-delay",
]  # fmt: skip


def run(main, argv):
    """``main(argv)`` with its JSON report swallowed; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def gate_names(block, prefix=""):
    names = {prefix + name for name in block["gates"]}
    for name, section in block["sections"].items():
        if "gates" in section:
            names |= gate_names(section, f"{prefix}{name}: ")
    return names


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gate_inventory_and_one_artifact_shape(tmp_path, monkeypatch, check_docs):
    monkeypatch.chdir(tmp_path)
    assert run(bench_main, ["--smoke"]) == 0
    assert run(bench_main, ["--events", "--smoke"]) == 0  # merges into the file above
    assert run(scenarios_main, ["--smoke", "--processes", "1"]) == 0
    assert run(bench_main, ["--runtime", "--smoke"]) == 0
    assert run(bench_main, FEDERATION + ["--stream", "40"]) == 0
    assert run(bench_main, ["--chaos", "--smoke"]) == 0  # a section in two files

    artifacts = {path.name: json.loads(path.read_text()) for path in tmp_path.glob("*.json")}
    assert {name: gate_names(block) for name, block in artifacts.items()} == GATES
    for name, block in artifacts.items():
        assert check_docs.validate_artifact(block, name) == []
        assert tuple(block) == check_docs.ARTIFACT_KEYS
    # Every later leg of every cell was compared to the first one.
    for block in artifacts.values():
        for cell in block["cells"].values():
            assert list(cell["parity"]["legs"]) == list(cell["legs"])[1:]
    # A full run keeps the sections other commands merged in.
    assert run(bench_main, ["--runtime", "--smoke"]) == 0
    assert "chaos" in json.loads((tmp_path / "BENCH_runtime.json").read_text())["sections"]


@pytest.mark.parametrize(
    "main,argv",
    [
        (bench_main, ["--smoke", "--no-policies"]),
        (bench_main, ["--events", "--smoke"]),
        (scenarios_main, ["--smoke", "--processes", "1"]),
        (bench_main, ["--runtime", "--smoke"]),
        (bench_main, FEDERATION),
        (bench_main, ["--chaos", "--smoke"]),
    ],
    ids=["core", "events", "scenarios", "runtime", "federation", "chaos"],
)
def test_a_perturbed_leg_fails_the_command(main, argv, monkeypatch, capsys):
    """Shift one completion time in the second leg any mode runs: exit 1."""
    real_timed, calls = cells.timed, []

    def perturbing_timed(engine, facts=None):
        run = real_timed(engine, facts)
        calls.append(run)
        if len(calls) == 2:
            shards = getattr(run.result, "shard_results", [run.result])
            finished = next(job for job in shards[0].jobs if job.completion_time is not None)
            finished.completion_time += 1.0
        return run

    monkeypatch.setattr(cells, "timed", perturbing_timed)
    assert main(argv + ["--out", "-"]) == 1
    assert "GATE FAILED" in capsys.readouterr().err


def test_section_run_into_a_missing_or_unparseable_artifact(tmp_path, capsys):
    missing = tmp_path / "fresh.json"
    assert run(bench_main, ["--events", "--smoke", "--out", str(missing)]) == 0
    fresh = json.loads(missing.read_text())
    assert list(fresh["sections"]) == ["event_core"] and fresh["cells"] == {}

    broken = tmp_path / "broken.json"
    broken.write_text('{"benchmark": "core", ')
    capsys.readouterr()
    assert run(bench_main, ["--events", "--smoke", "--out", str(broken)]) == 2
    assert str(broken) in capsys.readouterr().err
    assert broken.read_text() == '{"benchmark": "core", '
    with pytest.raises(cells.ArtifactError, match="broken.json"):
        cells.write_artifact(str(broken), {"sections": {"chaos": {}}})


def test_traced_leg_closes_the_trace_it_counts():
    spec = workload.SMOKE
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run = cells.TRACED.run(spec)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert run.facts["events"] > len(run.result.jobs)
