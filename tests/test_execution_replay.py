"""Direct differential tests for the one multi-round fold of ``ExecutionModel``.

``advance`` (one round) is the stepping reference; ``steady_scan`` is the one
multi-round fold deferred progress uses -- as an epoch's completion probe,
and written back when the epoch settles -- and a completing round is one
ordinary ``advance_running`` round.  The end-to-end parity suites compare whole runs;
these compare the fold with stepping job by job on seeded random states, bit
for bit (3,000 seeds under ``pytest --fuzz``), compare the fold's closed-form
repeated add with the literal loop it replaces, and keep numpy off the
simulation path.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster.builder import build_cluster
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.simulator import execution
from repro.simulator.execution import (
    _FOLD_CUTOFF,
    ExecutionModel,
    _blind_rounds,
    _repeat_add,
    _rounds_short,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

ROUND_DURATIONS = (300.0, 60.0, 287.5, 299.25, 100.1)
MAX_ROUNDS = 160
BASE_ROUND = 7  # folds start mid-run, so completion times are not round-relative
SEEDS = range(300)
FUZZ_SEEDS = range(300, 3000)


class ScaledRateModel(ExecutionModel):
    """The stock rate times a per-job factor: 0.0 stalls a job on its GPUs."""

    def __init__(self, factors):
        super().__init__()
        self.factors = factors

    def effective_rate(self, job, cluster_state):
        return super().effective_rate(job, cluster_state) * self.factors.get(job.job_id, 1.0)


def make_case(seed):
    """One seeded ``(job, cluster, round_duration, model)``; same seed, equal copies."""
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
    stalled = rng.random() < 0.1  # zero rate: never completes
    model = ScaledRateModel({job.job_id: 0.0} if stalled else {})
    return job, cluster, round_duration, model


def snapshot(job):
    """Every field the fold writes, floats as hex so -0.0 and ulps show."""
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
    job, cluster, rd, model = make_case(seed)
    states = []
    for index in range(1, MAX_ROUNDS + 1):
        completed = model.advance(job, cluster, (BASE_ROUND + index - 1) * rd, rd)
        states.append(snapshot(job))
        if completed:
            return states, index
    return states, None


def scan(model, job, cluster, rd, rounds):
    epoch = model.epoch(job, cluster)
    return model.steady_scan(
        epoch.target,
        epoch.rate,
        rd,
        epoch.num_gpus,
        job.work_done,
        job.pending_overhead,
        job.attained_service,
        rounds,
    )


def defer(job, cluster, rd, model):
    """Attach ``model`` to a registry holding ``job`` with progress deferred."""
    job_state = JobState()
    job_state.track(job)
    model.attach(job_state, BASE_ROUND, rd, defer=True)
    return job_state


def fold(job, cluster, rd, model, rounds):
    """``rounds`` rounds as deferred progress runs them: the fold clock moves
    over the first ``rounds - 1``, the last is folded (one ``advance_running``
    round if the job completes in it), and reading the job settles it."""
    job_state = defer(job, cluster, rd, model)
    if rounds > 1:
        model.fold_through(BASE_ROUND + rounds - 1, cluster)
    model.fold_round(job_state, cluster, BASE_ROUND + rounds, (BASE_ROUND + rounds - 1) * rd, rd)
    return job


def check_fold_matches_stepping(seed):
    states, completing = step_reference(seed)
    # stepped[r] is the state after r rounds.
    stepped = [snapshot(make_case(seed)[0])] + states
    rng = random.Random(seed ^ 0x5EED)
    last = len(states)
    for rounds in sorted({1, last, max(1, last - 1), rng.randint(1, last), rng.randint(1, last)}):
        assert snapshot(fold(*make_case(seed), rounds)) == stepped[rounds], (seed, rounds)

    # A full-length scan names the completing round and holds the stepped
    # state of the round before it (of its last round when none completes).
    job, cluster, rd, model = make_case(seed)
    epoch = model.epoch(job, cluster)
    if completing is not None:
        # A probe resumes no later than the first round that could complete.
        short = _rounds_short(epoch.target - job.work_done, epoch.rate, rd, epoch.target)
        assert short < completing, (seed, short, completing)
    found, work, pending, attained = scan(model, job, cluster, rd, MAX_ROUNDS)
    assert found == completing, seed
    expected = stepped[MAX_ROUNDS if found is None else found - 1]
    assert (work.hex(), attained.hex(), pending.hex()) == expected[:3], seed


@pytest.mark.parametrize("seed", SEEDS)
def test_replay_and_probe_match_stepping_bit_for_bit(seed):
    check_fold_matches_stepping(seed)


@pytest.mark.fuzz
def test_fold_matches_stepping_wide_sweep():
    for seed in FUZZ_SEEDS:
        check_fold_matches_stepping(seed)


def drained_arm(seed):
    """Which arm a full-length scan of ``seed`` takes once overhead drained.

    ``"blind"``: rounds folded untested, the last one's test accepted them;
    ``"overshoot"``: that test found a completion; ``"per-round"``: no blind
    rounds, every round tested.  ``None`` when the scan never gets there.
    """
    job, cluster, rd, model = make_case(seed)
    rate = model.epoch(job, cluster).rate
    states, completing = step_reference(seed)
    stepped = [snapshot(job)] + states
    drained = next(
        (r for r, state in enumerate(stepped) if float.fromhex(state[2]) == 0.0), None
    )
    if rate <= 0 or drained is None or drained == MAX_ROUNDS:
        return None
    if completing is not None and completing <= drained:
        return None
    gap = job.duration - float.fromhex(stepped[drained][0])
    blind = _blind_rounds(gap, rate, rd, MAX_ROUNDS - drained)
    if blind <= 0:
        return "per-round"
    if completing is not None and completing <= drained + blind:
        return "overshoot"
    return "blind"


def test_sweep_covers_every_arm_of_the_replay():
    """The seeds above must reach each shape the fold distinguishes."""
    seen, arms = set(), set()
    for seed in SEEDS:
        job, _cluster, rd, model = make_case(seed)
        _states, completing = step_reference(seed)
        zero_rate = model.factors.get(job.job_id) == 0.0
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
        arms.add(drained_arm(seed))
    for overhead in ("no-overhead", "sub-round", "multi-round"):
        assert ("positive-rate", overhead, "completes") in seen
        assert ("positive-rate", overhead, "runs-on") in seen
        assert ("zero-rate", overhead, "runs-on") in seen
    assert {"blind", "per-round"} <= arms


def test_blind_overshoot_falls_back_to_the_checked_loop():
    """A closed-form estimate float rounding defeats: the guard must catch it.

    At ``work_done == 1e16`` one ulp is 2.0, so each round's work delta of
    1.5 rounds up to 2.0 and the job completes in round 76, while the
    estimate (150 / 1.5 rounds of work to go) folds 99 rounds blind.
    """
    def overshooting_job():
        cluster = build_cluster(num_nodes=1, gpus_per_node=4)
        job = Job(arrival_time=0.0, num_gpus=1, duration=1e16 + 150.0, job_id=1)
        cluster.assign(job.job_id, [0])
        job.status = JobStatus.RUNNING
        job.work_done = 1e16
        return job, cluster

    def half_rate():
        return ScaledRateModel({1: 0.5})

    rd = 3.0
    stepped, cluster = overshooting_job()
    model = half_rate()
    rate = model.epoch(stepped, cluster).rate
    assert rd * rate == 1.5 and 1e16 + 1.5 == 1e16 + 2.0
    completing = next(
        index
        for index in range(1, 200)
        if model.advance(stepped, cluster, (BASE_ROUND + index - 1) * rd, rd)
    )
    assert completing == 76
    assert _blind_rounds(150.0, rate, rd, 1000) >= completing  # the estimate overshoots
    assert _rounds_short(150.0, rate, rd, 1e16 + 150.0) < completing  # the bound does not

    job, cluster = overshooting_job()
    model = half_rate()
    found, _, _, _ = scan(model, job, cluster, rd, 1000)
    assert found == completing
    # The epoch's probe and settle both scan past the overshoot.
    job, cluster = overshooting_job()
    assert snapshot(fold(job, cluster, rd, half_rate(), completing)) == snapshot(stepped)


@pytest.mark.parametrize("pending", [0.0, 450.0])
def test_zero_rate_job_is_a_no_op_of_any_length(pending):
    def zero_rate_job():
        cluster = build_cluster(num_nodes=1, gpus_per_node=4)
        job = Job(arrival_time=0.0, num_gpus=2, duration=5000.0, job_id=1)
        cluster.assign(job.job_id, [0, 1])
        job.status = JobStatus.RUNNING
        job.work_done = 1234.5
        job.pending_overhead = pending
        return job, cluster

    def stalled():
        return ScaledRateModel({1: 0.0})

    stepped, cluster = zero_rate_job()
    model = stalled()
    for index in range(50):
        assert model.advance(stepped, cluster, index * 300.0, 300.0) is False
    # A zero-rate scan drains the overhead and returns: the long settle must
    # not cost a loop per round.
    for rounds in (50, 10**9):
        job, cluster = zero_rate_job()
        model = stalled()
        found, _, _, _ = scan(model, job, cluster, 300.0, rounds)
        assert found is None
        assert snapshot(fold(job, cluster, 300.0, model, rounds)) == snapshot(stepped)
    assert stepped.work_done == 1234.5
    assert stepped.attained_service == 2 * pending


# ----------------------------------------------------------------------
# The closed-form repeated add against the literal loop
# ----------------------------------------------------------------------


def literal_loop(x, d, n):
    for _ in range(n):
        x += d
    return x


def bits(value):
    """A float's identity: its hex, with every NaN one value."""
    return "nan" if value != value else value.hex()


def ulp_of(x):
    return math.ldexp(1.0, max(math.frexp(x)[1] - 53, -1074))


def random_case(rng):
    """One seeded ``(x, d, n)`` drawn from the shapes a fold meets and worse."""
    kind = rng.randrange(7)
    if kind == 0:  # a drained job: work and attained service grow from 0
        x, d = rng.choice((0.0, rng.uniform(0.0, 1e6))), rng.uniform(1e-3, 600.0)
    elif kind == 1:  # integral, dyadic and non-dyadic round deltas
        x = float(rng.randrange(10**7)) * rng.choice((1.0, 0.5, 0.1))
        d = 60.0 * rng.choice((1.0, 0.5, 0.75, 1 / 1.4, 0.9, 1 / 3))
    elif kind == 2:  # either sign, crossing zero
        x, d = rng.uniform(-1e4, 1e4), rng.uniform(-50.0, 50.0)
    elif kind == 3:  # an exact half-ulp tie, either direction
        x = math.ldexp(rng.randrange(1 << 52, 1 << 53), rng.randrange(-60, 60))
        d = ulp_of(x) * (rng.randrange(0, 64) + 0.5) * rng.choice((1, -1))
    elif kind == 4:  # steps that land on a binade boundary
        x = math.ldexp(1.0, rng.randrange(-20, 60)) - rng.randrange(0, 64) * 0.25
        d = rng.choice((0.25, 0.5, 1.0, 3.0, -0.25, -1.0))
    elif kind == 5:  # the top binade overflows, the subnormals share one ulp
        x, d = rng.uniform(1e300, 1.7e308), rng.uniform(1e290, 1e296)
        if rng.random() < 0.5:
            x, d = rng.uniform(-1e-308, 1e-308), rng.uniform(-1e-310, 1e-310)
    else:  # below the ulp: a no-op, or half a binade's ulp on the way down
        x = math.ldexp(1.0, rng.randrange(-40, 40)) * rng.choice((1, -1))
        d = ulp_of(x) * rng.uniform(0.1, 0.6) * rng.choice((1, -1))
    n = rng.choice((rng.randrange(0, 2 * _FOLD_CUTOFF), rng.randrange(0, 3000)))
    return x, d, n


#: Cases the random draw reaches rarely or never, each with its loop result.
ADVERSARIAL = [
    (0.0, 60.0, 1000),
    (-0.0, 60.0 * (1 / 1.4), 1000),
    (-0.0, -0.0, 100),
    (-0.0, 0.0, 100),
    (5.0, -0.0, 100),
    (float(2**53 - 64), 1.0, 64),  # the last partial sum is the grain exactly
    (float(2**53 - 64), 1.0, 65),  # one past it: the binade path takes over
    (float(2**53 - 64) / 4, 0.25, 64),
    (float(2**53 - 64) / 4, 0.25, 65),
    (float(2**52 + 1), 0.5, 100),  # a tie from an odd multiple of the ulp
    (float(2**52 + 2), 0.5, 100),
    (float(2**52 + 1), 1.5, 100),
    (float(2**52 + 1), -0.5, 100),
    (float(2**52), -0.375, 100),  # below the binade the ulp halves
    (float(2**53 - 7), 3.0, 100),  # lands on the boundary, then across it
    (float(2**53 - 7), 2.75, 100),
    (1.7976931348623157e308, 1e292, 100),  # overflows to inf and stays
    (-1.7976931348623157e308, -1e292, 100),
    (1e-310, 3e-311, 5000),  # subnormal steps out of the subnormal range
    (3e-310, -1e-311, 5000),
    (math.inf, 1.0, 100),
    (1.0, math.inf, 100),
    (math.inf, -math.inf, 100),
    (-math.inf, 1.0, 100),
    (math.nan, 1.0, 100),
    (1.0, math.nan, 100),
]


def check_repeat_add(x, d, n):
    assert bits(_repeat_add(x, d, n)) == bits(literal_loop(x, d, n)), (x.hex(), d.hex(), n)


@pytest.mark.parametrize("case", ADVERSARIAL, ids=lambda case: f"{case[0]!r}+{case[1]!r}x{case[2]}")
def test_repeat_add_matches_the_loop_on_adversarial_cases(case):
    check_repeat_add(*case)


def test_repeat_add_matches_the_loop_on_a_seeded_sample():
    rng = random.Random(0xADD)
    for _ in range(1500):
        check_repeat_add(*random_case(rng))


@pytest.mark.fuzz
def test_repeat_add_matches_the_loop_wide_sweep():
    rng = random.Random(0xF0DD)
    for _ in range(60000):
        check_repeat_add(*random_case(rng))


def test_a_million_round_fold_takes_a_step_per_binade(monkeypatch):
    """A non-dyadic delta defeats the exact sum; the fold still costs
    O(binades) helper steps, not one per round."""
    steps = []
    step = execution._binade_step

    def counted(x, d, n):
        steps.append(n)
        return step(x, d, n)

    monkeypatch.setattr(execution, "_binade_step", counted)
    for x, d in ((0.0, 60.0 * (1 / 1.4)), (12345.678, 0.1), (1e9 + 0.5, -0.3)):
        steps.clear()
        assert bits(_repeat_add(x, d, 10**6)) == bits(literal_loop(x, d, 10**6))
        assert 0 < len(steps) <= 64, (x, d, len(steps))
    steps.clear()
    assert _repeat_add(7.0, 60.0, 10**6) == 7.0 + 60.0 * 10**6 and not steps


def test_simulation_path_never_imports_numpy():
    """README: no third-party runtime dependencies -- even where numpy is installed.

    Nor anything that only a recording run needs: the sink's ``orjson`` and
    the artifact header's ``platform`` (and ``sqlite3``, which nothing
    imports) stay out of every unrecorded core, runtime and federation run (each benchmark child, sweep
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
