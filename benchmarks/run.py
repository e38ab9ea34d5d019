"""The repo benchmark: one command, four workloads, every metric by name.

    python3 benchmarks/run.py                          # all workloads, end-to-end + per-layer
    python3 benchmarks/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 benchmarks/run.py --smoke                  # ~1/20 inputs, 1 rep + 1 traced rep
    python3 benchmarks/run.py --compare A.json B.json  # verdict per workload x metric

Batch, closed loop, single process: repetitions run one at a time, each in a
fresh child (``child.py``), round-robin over the workloads, until ``--seconds``
of measurement per workload have elapsed.  End-to-end metrics are medians over
the untraced repetitions.  With ``--trace 1`` every untraced repetition is
followed by a traced one; the per-layer metrics are medians over the traced
ones (``trace.overhead_frac`` over the adjacent pairs).  After the repetitions,
outside every timed region, a 1/10-size variant is run with the default engine
and with the plain round loop and must agree exactly.

With ``--workload`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  Metric names, units,
directions and bounds are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: Reported with the end-to-end metrics but not in BENCHMARK.json, which takes
#: no metric that is always 0: it is the ``failed`` count of the result line.
UNFINISHED = {"name": "unfinished_jobs", "unit": "count", "better": "lower", "bound": 0.0}
#: Exact for a seed: ``--compare`` holds them to bound 0 when seed and scale are
#: equal.  Their bounds in BENCHMARK.json only cover runs with different seeds.
SIMULATED = ("avg_jct_h", "p99_jct_h", "makespan_days")
DEFAULT_SEED = 20240301
SMOKE_SCALE = 0.05
ORACLE_SCALE = 0.1
#: Repetitions whose process_time / perf_counter falls below this were
#: descheduled by the shared host; they are flagged, never dropped.
DISTURBED_BELOW = 0.9


def child(*args) -> dict:
    """Run ``child.py`` to completion and return the JSON object it printed."""
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child {args} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def machine_block() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def git(*args) -> Optional[str]:
        try:
            done = subprocess.run(["git", *args], capture_output=True, text=True, cwd=HERE)
        except OSError:  # no git here
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain")),  # true: the tree differs from git_sha
    }


def stats(values: List[Optional[float]]) -> dict:
    """Median with sample count, min, max and quartiles; None values are dropped."""
    kept = [v for v in values if v is not None]
    if not kept:
        return {"value": None, "n": 0, "min": None, "max": None, "q1": None, "q3": None, "values": values}
    q1, _, q3 = statistics.quantiles(kept, n=4) if len(kept) > 1 else kept * 3
    return {
        "value": statistics.median(kept),
        "n": len(kept),
        "min": min(kept),
        "max": max(kept),
        "q1": q1,
        "q3": q3,
        "values": values,
    }


def measure(names: List[str], seed: int, seconds: float, trace: bool, scale: float) -> List[dict]:
    """All repetitions of the named workloads plus each one's oracle check.

    Repetitions go round-robin over the workloads, so that in a run of all four
    each workload's samples span the whole run and a slow phase of the shared
    host falls on all of them alike.  A traced repetition directly follows the
    untraced one it is paired with, which saw the same phase more often than not.
    """
    min_cycles = 1 if scale == SMOKE_SCALE else 3
    load_before = os.getloadavg()
    reps: Dict[str, List[dict]] = {name: [] for name in names}
    started = time.perf_counter()
    cycles = 0
    while cycles < min_cycles or time.perf_counter() - started < seconds * len(names):
        for name in names:
            for traced in range(2 if trace else 1):
                reps[name].append(child("rep", name, seed, scale, traced))
        cycles += 1
    measured_s = time.perf_counter() - started
    oracles = {name: child("oracle", name, seed, scale * ORACLE_SCALE) for name in names}
    host = {
        "seed": seed,
        "scale": scale,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "measured_s": measured_s,
    }
    return [{**summarise(name, reps[name], oracles[name]), **host} for name in names]


def summarise(workload: str, reps: List[dict], oracle: dict) -> dict:
    """One workload's metrics and failure count from its repetitions and oracle check."""
    # Failures of the run as a whole; each repetition already counted its own
    # failed checks into its ``unfinished_jobs``.
    run_failures = list(oracle["failures"])
    digests = {r["digest"] for r in reps}
    if len(digests) > 1:
        run_failures.append(f"schedule digest differs between repetitions: {sorted(map(str, digests))}")
    plain_reps = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    end_to_end = {
        name: stats([r["metrics"][name] for r in plain_reps])
        for name in [*END_TO_END, UNFINISHED["name"]]
    }
    per_layer = {}
    if traced_reps:
        # A traced repetition whose run raised has no layers: its values are
        # None, dropped by stats(), and the failure is carried by ``failed``.
        names = dict.fromkeys(n for r in traced_reps for n in r["layers"])
        per_layer = {n: stats([r["layers"].get(n) for r in traced_reps]) for n in names}
        per_layer["trace.run_wall_s"] = stats([r["metrics"]["run_wall_s"] for r in traced_reps])
        per_layer["trace.overhead_frac"] = stats(
            [
                t["metrics"]["run_wall_s"] / p["metrics"]["run_wall_s"] - 1.0
                for p, t in zip(plain_reps, traced_reps)
            ]
        )
    return {
        "workload": workload,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "digest": digests.pop() if len(digests) == 1 else None,
        "attempted": sum(r["tracked_jobs"] for r in reps),
        "failed": sum(r["metrics"]["unfinished_jobs"] for r in reps) + len(run_failures),
        "failures": [f for r in reps for f in r["failures"]] + run_failures,
        "cpu_ratios": [r["cpu_ratio"] for r in reps],
        "oracle_rounds": oracle["rounds"],
    }


def print_table(result: dict, out=sys.stdout) -> None:
    print(f"\n== {result['workload']}  seed={result['seed']}  scale={result['scale']}", file=out)
    print(
        f"   load {result['loadavg_before'][0]:.2f} -> {result['loadavg_after'][0]:.2f}, "
        f"digest {str(result['digest'])[:16]}, oracle rounds {result['oracle_rounds']}, "
        f"attempted {result['attempted']}, failed {result['failed']}",
        file=out,
    )
    for index, ratio in enumerate(result["cpu_ratios"]):
        if ratio < DISTURBED_BELOW:
            print(f"   rep {index} disturbed by the host: cpu ratio {ratio:.2f}", file=out)
    for failure in result["failures"]:
        print(f"   FAILED: {failure}", file=out)
    for name, s in result["end_to_end"].items():
        spec = END_TO_END.get(name, UNFINISHED)
        print(
            f"   {name:<44} {_fmt(s['value']):>12} {spec['unit']:<7} n={s['n']} "
            f"min={_fmt(s['min'])} q1={_fmt(s['q1'])} q3={_fmt(s['q3'])} bound={spec['bound']}",
            file=out,
        )
    for name, s in result["per_layer"].items():
        unit = PER_LAYER.get(name, {}).get("unit", "")
        print(f"   {name:<44} {_fmt(s['value']):>12} {unit:<7} n={s['n']}", file=out)


def _fmt(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.6g}"


def result_line(result: dict, trace: bool) -> str:
    """The one JSON object a driver reads: every metric of the requested kind."""
    source, specs = (
        (result["per_layer"], PER_LAYER) if trace else (result["end_to_end"], END_TO_END)
    )
    missing = [name for name in specs if name not in source]
    if missing and not result["failed"]:
        raise RuntimeError(f"metrics in BENCHMARK.json that were not emitted: {missing}")
    metrics = {
        # A hook that is gone, or a run that failed, has no value; the line
        # needs a number, and the failure is carried by ``failed``.
        name: {"value": source.get(name, {}).get("value") or 0.0, "unit": spec["unit"]}
        for name, spec in specs.items()
    }
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: medians, delta, bound, verdict."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    by_name = {r["workload"]: r for r in b["results"]}
    regressed = 0
    print(f"{'workload':<20}{'metric':<20}{'A':>12}{'B':>12}{'delta':>9}{'bound':>7}  verdict")
    for res_a in a["results"]:
        res_b = by_name.get(res_a["workload"])
        if res_b is None:
            continue
        same_inputs = (res_a["seed"], res_a["scale"]) == (res_b["seed"], res_b["scale"])
        for name, spec in {**END_TO_END, UNFINISHED["name"]: UNFINISHED}.items():
            bound = 0.0 if same_inputs and name in SIMULATED else spec["bound"]
            sa, sb = res_a["end_to_end"][name], res_b["end_to_end"][name]
            verdict, delta = _verdict(sa, sb, spec["better"], bound)
            regressed += verdict == "regressed"
            print(
                f"{res_a['workload']:<20}{name:<20}{_fmt(sa['value']):>12}"
                f"{_fmt(sb['value']):>12}{delta:>+9.3f}{bound:>7}  {verdict}"
            )
        if same_inputs:
            same = res_a["digest"] == res_b["digest"] and res_a["digest"] is not None
            regressed += not same
            print(f"{res_a['workload']:<20}{'schedule digest':<20}{'identical' if same else 'DIFFERENT':>33}")
    return 1 if regressed else 0


def _verdict(sa: dict, sb: dict, better: str, bound: float):
    """Verdict on B against A from what lies between the two sets.

    ``regressed``: B's median is worse than A's by more than the bound and the
    two interquartile ranges do not overlap.  ``unresolved``: the median is
    that much worse but the ranges overlap, or it is not but the two sets'
    quartiles together span more than the bound, so "unchanged" cannot be
    told from a change of the bound's size.  Otherwise ``ok``.
    """
    va, vb = sa["value"], sb["value"]
    if va is None or vb is None:
        return "unresolved", float("nan")
    delta = (vb - va) / va if va else float(vb != va)
    worse = delta if better == "lower" else -delta
    if bound == 0:
        return ("regressed" if worse > 0 else "ok"), delta
    overlap = sa["q1"] <= sb["q3"] and sb["q1"] <= sa["q3"]
    span = (max(sa["q3"], sb["q3"]) - min(sa["q1"], sb["q1"])) / abs(va)
    if worse > bound:
        return ("unresolved" if overlap else "regressed"), delta
    return ("unresolved" if span > bound else "ok"), delta


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload and end with a result line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        help="measurement time per workload (default: run_seconds of BENCHMARK.json, "
        "twice that without --workload, where untraced and traced repetitions share it)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true", help="~1/20 inputs, 1 rep + 1 traced rep")
    parser.add_argument("--out", help="write the results as JSON to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = args.seconds
    if seconds is None:
        seconds = SPEC["run_seconds"] * (1 if args.workload else 2)
    if args.smoke:
        seconds = 0.0
    if args.workload:
        # One workload: the table goes to stderr so stdout ends with the line.
        results = measure([args.workload], args.seed, seconds, bool(args.trace), scale)
        print_table(results[0], out=sys.stderr)
        print(result_line(results[0], bool(args.trace)))
    else:
        results = measure(WORKLOADS, args.seed, seconds, args.trace != 0, scale)
        for result in results:
            print_table(result)
    if args.out:
        document = {"machine": machine_block(), "results": results}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 1 if any(r["failed"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
