"""Tier-1 smoke test of the repo benchmark (about ten seconds).

Runs ``run.py --smoke`` (about 1/20 of the job counts, one untraced and one
traced repetition per workload) and checks what the benchmark promises: every
metric named in ``BENCHMARK.json`` is emitted, span self times add up to the
traced run, a seed fixes the outcome exactly, and a broken run is counted as
failed operations rather than reported as a fast one.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import child  # the test's own directory is on sys.path (rootdir import mode)
import run
import spans

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEED, OTHER_SEED = 7, 8


def run_benchmark(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Result files of two smoke invocations with the same seed."""
    files = []
    for index in range(2):
        out = tmp_path_factory.mktemp("bench") / f"smoke-{index}.json"
        done = run_benchmark("--smoke", "--seed", SEED, "--out", out)
        assert done.returncode == 0, done.stdout + done.stderr
        files.append(out)
    return files


def results_of(path) -> dict:
    return {r["workload"]: r for r in json.loads(Path(path).read_text())["results"]}


def exact_counts(result) -> dict:
    """Every per-layer count and ratio (all but the tracing overhead are exact)."""
    return {
        spec["name"]: result["per_layer"][spec["name"]]["value"]
        for spec in SPEC["per_layer"]
        if spec["unit"] in ("count", "ratio") and spec["name"] != "trace.overhead_frac"
    }


def test_every_named_metric_is_emitted(smoke):
    results = results_of(smoke[0])
    assert list(results) == [w["name"] for w in SPEC["workloads"]]
    for result in results.values():
        assert result["failed"] == 0 and not result["failures"]
        for kind in ("end_to_end", "per_layer"):
            for spec in SPEC[kind]:
                assert NAME.match(spec["name"]), spec["name"]
                value = result[kind][spec["name"]]["value"]
                assert value is None or math.isfinite(value), spec["name"]
        assert result["end_to_end"]["unfinished_jobs"]["value"] == 0


def test_span_self_times_add_up_to_the_traced_run(smoke):
    for result in results_of(smoke[0]).values():
        layers = result["per_layer"]
        total = sum(layers[f"{name}.self_s"]["value"] for name in spans.RUN_SPANS)
        assert total == pytest.approx(layers["trace.run_wall_s"]["value"], rel=0.01)


def test_a_seed_fixes_counts_and_digest(smoke):
    first, again = (results_of(path) for path in smoke)
    for name in first:
        assert first[name]["digest"] is not None
        assert first[name]["digest"] == again[name]["digest"]
        assert exact_counts(first[name]) == exact_counts(again[name])
        other = child.run_rep(name, OTHER_SEED, first[name]["scale"], traced=False)
        assert other["digest"] not in (None, first[name]["digest"])
        for metric in ("avg_jct_h", "p99_jct_h", "makespan_days"):
            assert (
                first[name]["end_to_end"][metric]["value"]
                == again[name]["end_to_end"][metric]["value"]
            )


def test_compare_reports_every_workload_and_the_digest(smoke):
    done = run_benchmark("--compare", smoke[0], smoke[1])
    for workload in SPEC["workloads"]:
        rows = [line for line in done.stdout.splitlines() if line.startswith(workload["name"])]
        assert len(rows) == len(SPEC["end_to_end"]) + 2  # + unfinished_jobs + digest
        assert "identical" in rows[-1]


def test_driver_result_line():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = run_benchmark(
            "--workload", "runtime-leases", "--seed", SEED, "--smoke", "--trace", trace
        )
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [spec["name"] for spec in SPEC[kind]]
        for spec in SPEC[kind]:
            entry = line["metrics"][spec["name"]]
            assert entry["unit"] == spec["unit"] and math.isfinite(entry["value"])


def test_a_broken_run_is_failed_operations_not_a_fast_run():
    # Test-only fixture: a round budget far too small for the workload.
    broken = child.run_rep("philly-contended", SEED, 0.05, traced=False, max_rounds=5)
    assert broken["failures"] and "run raised" in broken["failures"][0]
    assert broken["metrics"]["unfinished_jobs"] == broken["tracked_jobs"] > 0
    assert broken["metrics"]["jobs_per_s"] is None and broken["digest"] is None


def test_a_failed_traced_repetition_still_yields_a_result_line():
    good = child.run_rep("philly-contended", SEED, 0.05, traced=False)
    broken = child.run_rep("philly-contended", SEED, 0.05, traced=True, max_rounds=5)
    assert broken["layers"] == {}
    result = run.summarise("philly-contended", [good, broken], {"failures": [], "rounds": 0})
    assert result["failed"] >= broken["tracked_jobs"] and result["failures"]
    for trace in (False, True):
        line = json.loads(run.result_line(result, trace))
        assert line["correct"] is False and line["failed"] == result["failed"]


def test_compare_verdicts_use_what_lies_between_the_sets():
    def sample(q1, median, q3):
        return {"value": median, "q1": q1, "q3": q3}

    steady = sample(0.99, 1.0, 1.01)
    assert run._verdict(steady, sample(1.01, 1.02, 1.03), "lower", 0.1)[0] == "ok"
    assert run._verdict(steady, sample(1.19, 1.2, 1.21), "lower", 0.1)[0] == "regressed"
    assert run._verdict(steady, sample(0.79, 0.8, 0.81), "higher", 0.1)[0] == "regressed"
    # Worse by more than the bound, but the quartiles overlap: not resolved.
    assert run._verdict(sample(0.9, 1.0, 1.2), sample(0.95, 1.15, 1.3), "lower", 0.1)[0] == "unresolved"
    # Medians agree, but the sets are wider than the bound: not "unchanged".
    assert run._verdict(sample(0.9, 1.0, 1.1), sample(0.9, 1.0, 1.1), "lower", 0.1)[0] == "unresolved"
    # Bound 0 (simulated metrics at an equal seed): any worsening is a regression.
    assert run._verdict(steady, sample(1.0, 1.0 + 1e-12, 1.0), "lower", 0.0)[0] == "regressed"
    assert run._verdict(steady, steady, "lower", 0.0)[0] == "ok"
