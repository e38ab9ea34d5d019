"""One repetition (or one oracle check) in a fresh process.

``run.py`` starts this file once per repetition, never two at a time, so
``peak_rss_mib`` and the heap/GC state belong to that repetition only.  The
last line of standard output is one JSON object.

    python3 benchmarks/child.py rep    <workload> <seed> <scale> <traced 0|1>
    python3 benchmarks/child.py oracle <workload> <seed> <scale>
"""

import time

ENTRY = time.perf_counter()  # set-up time starts before anything of repro is imported

import hashlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans
import workloads


def schedule_digest(result) -> str:
    """sha256 over every job's completion time, the round count and end time."""
    digest = hashlib.sha256()
    for job in sorted(result.jobs, key=lambda j: j.job_id):
        done = job.completion_time
        digest.update(f"{job.job_id}:{done.hex() if done is not None else None};".encode())
    digest.update(f"{result.rounds};{result.end_time.hex()}".encode())
    return digest.hexdigest()


def output_failures(built, result) -> list:
    """Output checks after a repetition; each returned string is one failure."""
    failures = []
    simulator = spans.simulator_of(built.engine)
    for owner, label in ((simulator.cluster_state, "cluster_state"), (simulator.job_state, "job_state")):
        try:
            owner.check_invariants()
        except Exception as exc:  # any invariant error is a reported failure, not a crash
            failures.append(f"{label}.check_invariants: {exc!r}")
    leaked = getattr(built.engine, "leaked_leases", lambda: 0)()
    if leaked:
        failures.append(f"{leaked} leaked leases")
    return failures


def run_rep(workload: str, seed: int, scale: float, traced: bool, **knobs) -> dict:
    """Build, run and check one repetition; ``knobs`` is for tests only."""
    timer = workloads.SetupTimer()
    with timer.span("import.s"):
        import repro.policies.scheduling  # noqa: F401
        import repro.runtime.central_scheduler  # noqa: F401  (pulls in the simulator too)
        import repro.scenarios.spec  # noqa: F401
    built = workloads.build(workload, seed, scale, timer, **knobs)
    setup_s = time.perf_counter() - ENTRY

    tracer = spans.Tracer()
    counts = spans.instrument(tracer, built) if traced else {}
    result, failures = None, []
    cpu_start, wall_start = time.process_time(), time.perf_counter()
    try:
        result = tracer.run_root("simulator.loop", built.engine.run)
    except Exception:  # a run that raises is a failed run, reported with its traceback
        failures.append("run raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
    run_wall_s = time.perf_counter() - wall_start
    cpu_ratio = (time.process_time() - cpu_start) / run_wall_s

    tracked = built.num_jobs
    metrics = {
        "setup_s": setup_s,
        "run_wall_s": run_wall_s,
        "wall_s_per_sim_day": None,
        "jobs_per_s": None,
        "peak_rss_mib": None,
        "avg_jct_h": None,
        "p99_jct_h": None,
        "makespan_days": None,
        "unfinished_jobs": tracked,
    }
    layers, digest = {}, None
    if result is not None:
        tracked = len(result.tracked_job_ids)
        finished = len(result.finished_jobs())
        summary_start = time.perf_counter()
        summary = result.summary()
        summary_s = time.perf_counter() - summary_start
        metrics.update(
            wall_s_per_sim_day=run_wall_s / (result.end_time / workloads.DAY),
            jobs_per_s=finished / run_wall_s,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            avg_jct_h=summary.avg_jct / workloads.HOUR,
            p99_jct_h=summary.p99_jct / workloads.HOUR,
            makespan_days=summary.makespan / workloads.DAY,
        )
        failures += output_failures(built, result)
        metrics["unfinished_jobs"] = tracked - finished + len(failures)
        digest = schedule_digest(result)
        if traced:
            layers = layer_metrics(tracer, counts, timer, built, result, summary_s)
    return {
        "metrics": metrics,
        "layers": layers,
        "tracked_jobs": tracked,
        "digest": digest,
        "failures": failures,
        "cpu_ratio": cpu_ratio,
        "traced": traced,
    }


def layer_metrics(tracer, counts, timer, built, result, summary_s: float) -> dict:
    """Every per-layer metric of a traced repetition, by name."""
    engine = built.engine
    layers = {}
    for name in spans.RUN_SPANS:
        layers[f"{name}.self_s"] = tracer.value(name, "self_s")
        layers[f"{name}.calls"] = tracer.value(name, "calls")
    layers["metrics.summary.self_s"] = summary_s
    layers["metrics.summary.calls"] = 1
    for name in (
        "import.s",
        "workloads.generate.s",
        "cluster.build.s",
        "scenarios.compile.s",
        "simulator.construct.s",
        "runtime.construct.s",
    ):
        layers[name] = timer.spans.get(name, 0.0)
    for name in spans.SAMPLED:
        layers[f"{name}.p99_ms"] = tracer.p99_ms(name)

    full = tracer.value("policies.scheduling.schedule", "calls")
    layers["simulator.rounds_total"] = result.rounds
    layers["simulator.rounds_full"] = full
    layers["simulator.skip_ratio"] = 1.0 - full / result.rounds if full is not None else None
    layers["simulator.round_log_len"] = len(result.round_log)
    layers["simulator.evictions"] = result.eviction_count
    layers["core.exec_jobs.launches"] = counts["launches"]
    layers["core.exec_jobs.suspends"] = counts["suspends"]
    # exec_jobs skips exactly the entries is_lease_renewal() calls no-ops and
    # returns the rest, so entries - applied is the renewal count.
    entries = counts["launch_entries"]
    layers["policies.placement.renewal_ratio"] = (
        (entries - counts["launches"]) / entries if entries else 0.0
    )
    manager = getattr(engine, "manager", None)
    timeline = getattr(manager, "cluster_manager", None)
    timeline = getattr(timeline, "inner", timeline)  # the runtime wraps it for membership sync
    layers["scenarios.events_applied"] = getattr(timeline, "events_applied", 0)

    channel = getattr(engine, "channel", None)
    rpc_calls = getattr(channel, "lifetime_calls", 0)
    layers["runtime.rpc.calls_per_full_round"] = rpc_calls / full if full else 0.0
    latencies = getattr(engine, "lease_latencies_ms", list)()
    layers["runtime.lease.preemptions"] = len(latencies)
    layers["runtime.lease.leaked"] = getattr(engine, "leaked_leases", lambda: 0)()
    layers["runtime.lease.latency_ms_p50"] = statistics.median(latencies) if latencies else 0.0
    return layers


def run_oracle(workload: str, seed: int, scale: float) -> dict:
    """Default engine vs the plain round loop (``fast_forward=False``).

    The plain loop is the paper's section-3 round abstraction and the ROADMAP's
    designated oracle; this is the only place the harness passes a knob, and it
    runs outside every timed region.
    """
    outcomes = []
    for knobs in ({}, {"fast_forward": False}):
        result = workloads.build(workload, seed, scale, **knobs).engine.run()
        outcomes.append(
            (
                {job.job_id: job.completion_time for job in result.jobs},
                result.rounds,
                result.round_log,
            )
        )
    failures = [
        f"oracle: {what} differ between the default engine and fast_forward=False"
        for what, default, plain in zip(("completion times", "round counts", "round logs"), *outcomes)
        if default != plain
    ]
    return {"failures": failures, "rounds": outcomes[0][1]}


def main(argv) -> int:
    mode, workload, seed, scale = argv[0], argv[1], int(argv[2]), float(argv[3])
    if mode == "rep":
        out = run_rep(workload, seed, scale, traced=argv[4] == "1")
    else:
        out = run_oracle(workload, seed, scale)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
