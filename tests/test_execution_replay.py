"""Direct differential tests for the k-round replay of ``ExecutionModel``.

``advance`` (one round) is the stepping reference; ``advance_steady`` is the
one k-round replay the skip executor uses and ``steady_scan`` the pure probe
that sizes its strides.  The end-to-end parity suites compare whole runs;
these compare the three folds job by job on seeded random states, bit for
bit, and keep numpy off the simulation path.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster.builder import build_cluster
from repro.core.exceptions import SimulationError
from repro.core.job import Job, JobStatus
from repro.simulator.execution import ExecutionModel

REPO_ROOT = Path(__file__).resolve().parents[1]

ROUND_DURATIONS = (300.0, 60.0, 287.5, 299.25, 100.1)
MAX_ROUNDS = 160
BASE_ROUND = 7  # strides start mid-run, so completion times are not round-relative


def make_case(seed):
    """One seeded ``(job, cluster, round_duration)``; same seed, equal copies."""
    rng = random.Random(seed)
    round_duration = rng.choice(ROUND_DURATIONS)
    cluster = build_cluster(num_nodes=4, gpus_per_node=4)
    duration = rng.uniform(200.0, 30000.0)
    job = Job(
        arrival_time=0.0,
        num_gpus=rng.choice((1, 2, 4, 8)),
        duration=duration,
        job_id=1,
        comm_intensity=rng.choice((0.0, 0.1, 0.37)),
        iteration_time=rng.uniform(0.05, 2.0),
    )
    # The rate comes from the allocation: under/over-allocated and possibly
    # fragmented across nodes, so it is rarely a round number.
    cluster.assign(job.job_id, rng.sample(sorted(cluster.gpus), rng.randint(1, 8)))
    job.status = JobStatus.RUNNING
    job.work_done = rng.choice((0.0, rng.uniform(0.0, 0.99 * duration)))
    job.attained_service = rng.uniform(0.0, 5000.0)
    job.pending_overhead = rng.choice(
        (
            0.0,
            rng.uniform(0.0, round_duration),  # drains inside the first round
            round_duration,  # swallows exactly one round
            rng.uniform(round_duration, 3.5 * round_duration),  # spans several
        )
    )
    if rng.random() < 0.1:
        job.metrics["cpu_throughput_factor"] = 0.0  # zero rate: never completes
    return job, cluster, round_duration


def snapshot(job):
    """Every field the replay writes, floats as hex so -0.0 and ulps show."""
    return (
        job.work_done.hex(),
        job.attained_service.hex(),
        job.pending_overhead.hex(),
        sorted((key, repr(value)) for key, value in job.metrics.items()),
        job.status,
        None if job.completion_time is None else job.completion_time.hex(),
    )


def step_reference(seed):
    """Snapshots after each ``advance`` call, and the completing round (or None)."""
    job, cluster, rd = make_case(seed)
    model = ExecutionModel()
    states = []
    for index in range(1, MAX_ROUNDS + 1):
        completed = model.advance(job, cluster, (BASE_ROUND + index - 1) * rd, rd)
        states.append(snapshot(job))
        if completed:
            return states, index
    return states, None


def replay(seed, rounds):
    job, cluster, rd = make_case(seed)
    model = ExecutionModel()
    completed = model.advance_steady(
        job, cluster, (BASE_ROUND + rounds - 1) * rd, rd, rounds
    )
    model.publish_owed_metrics()  # a stride owes its metrics like a round does
    return job, completed


@pytest.mark.parametrize("seed", range(300))
def test_replay_and_probe_match_stepping_bit_for_bit(seed):
    states, completing = step_reference(seed)
    rng = random.Random(seed ^ 0x5EED)
    strides = {1, len(states), rng.randint(1, len(states)), rng.randint(1, len(states))}
    for rounds in sorted(strides):
        job, completed = replay(seed, rounds)
        assert snapshot(job) == states[rounds - 1], (seed, rounds)
        assert completed == (rounds == completing)

    job, cluster, rd = make_case(seed)
    model = ExecutionModel()
    rate, _, num_gpus = model.cached_rate(job, cluster)
    found, work, pending, attained = model.steady_scan(
        model.termination.work_target(job),
        rate,
        rd,
        num_gpus,
        job.work_done,
        job.pending_overhead,
        job.attained_service,
        MAX_ROUNDS,
    )
    assert found == completing
    if completing is None:
        # A scan that found nothing is resumable: it holds the stepped state
        # (a zero-rate job is never probed, so its scan does not even drain),
        # and adopting it leaves the job exactly where stepping does.
        if rate > 0:
            assert (work.hex(), attained.hex(), pending.hex()) == states[-1][:3]
            model.adopt_steady(job, cluster, work, pending, attained)
            model.publish_owed_metrics()
            assert snapshot(job) == states[-1]
    else:
        # A stride sized one round past the completion must not be applied.
        with pytest.raises(SimulationError, match="sized past its completion"):
            model.advance_steady(
                job, cluster, (BASE_ROUND + completing) * rd, rd, completing + 1
            )
        assert snapshot(job)[:3] == snapshot(make_case(seed)[0])[:3]
        assert job.status == JobStatus.RUNNING and job.completion_time is None


def test_sweep_covers_every_arm_of_the_replay():
    """The seeds above must reach each shape the replay distinguishes."""
    seen = set()
    for seed in range(300):
        job, _cluster, rd = make_case(seed)
        _states, completing = step_reference(seed)
        zero_rate = job.metrics.get("cpu_throughput_factor") == 0.0
        seen.add(
            (
                "zero-rate" if zero_rate else "positive-rate",
                "no-overhead"
                if job.pending_overhead == 0.0
                else "sub-round"
                if job.pending_overhead < rd
                else "multi-round",
                "completes" if completing is not None else "runs-on",
            )
        )
    for overhead in ("no-overhead", "sub-round", "multi-round"):
        assert ("positive-rate", overhead, "completes") in seen
        assert ("positive-rate", overhead, "runs-on") in seen
        assert ("zero-rate", overhead, "runs-on") in seen


@pytest.mark.parametrize("pending", [0.0, 450.0])
def test_zero_rate_job_is_a_no_op_of_any_length(pending):
    def zero_rate_job():
        cluster = build_cluster(num_nodes=1, gpus_per_node=4)
        job = Job(arrival_time=0.0, num_gpus=2, duration=5000.0, job_id=1)
        cluster.assign(job.job_id, [0, 1])
        job.status = JobStatus.RUNNING
        job.work_done = 1234.5
        job.pending_overhead = pending
        job.metrics["cpu_throughput_factor"] = 0.0
        return job, cluster

    stepped, cluster = zero_rate_job()
    model = ExecutionModel()
    for index in range(50):
        assert model.advance(stepped, cluster, index * 300.0, 300.0) is False
    for rounds in (50, 10**9):  # the long stride must not cost a loop per round
        job, cluster = zero_rate_job()
        assert ExecutionModel().advance_steady(job, cluster, 0.0, 300.0, rounds) is False
        assert snapshot(job) == snapshot(stepped)
    assert stepped.work_done == 1234.5
    assert stepped.attained_service == 2 * pending


def test_simulation_path_never_imports_numpy():
    """README: no third-party runtime dependencies -- even where numpy is installed.

    Nor anything that only a recording run needs: the sinks' ``sqlite3`` and
    ``orjson`` and the artifact header's ``platform`` stay out of every
    unrecorded core, runtime and federation run (each benchmark child, sweep
    worker and spawned shard worker pays for what this path imports).
    """
    code = (
        "import sys\n"
        "import repro.simulator.engine, repro.runtime.central_scheduler\n"
        "import repro.federation.engine\n"
        "from repro.telemetry.runspec import RunSpec\n"
        "for mode in ('core', 'runtime', 'federation'):\n"
        "    RunSpec(mode=mode).build().run()\n"
        "loaded = [m for m in ('numpy', 'sqlite3', 'orjson', 'platform') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
