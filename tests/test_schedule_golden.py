"""Golden schedules: per-job end state of whole runs, pinned as constants.

Stepping (``fast_forward=False``) shares ``place`` / ``exec_jobs`` /
``ExecutionModel.advance`` with the default engine, so no parity gate can see
a behaviour change in them: both legs move together.  These hashes were
recorded at the commit *before* the allocation delta became the unit of a
full round (``0106a45``; the nine ``synergy-proportional`` cells in the PR
that registered that placement) and every later commit must reproduce them --
each is a sha256 over every job's completion time, progress accounting, launch and
preemption counts and its whole ``metrics`` dictionary.  They were re-recorded
once, with no schedule change, when the scheduler-internal keys left
``job.metrics``: each equals the old run's hash with those keys dropped.  The
same test pins that bus: a job's metrics hold only the keys of ``METRIC_BUS``.

Tier-1 runs nine policies x two placements plus the twelve mode/scenario
cases; ``pytest --fuzz`` runs all 66.  Fifteen cases repeat another's
hash by construction; ``EQUIVALENT`` declares each, and any other pair of
equal hashes fails.  To re-record after an *intended*
schedule change: ``PYTHONPATH=src python tests/test_schedule_golden.py``.
"""

import hashlib

import pytest

from repro.cluster.builder import build_cluster
from repro.core.job import JobStatus
from repro.core.job_state import JobStateObserver
from repro.policies.placement import PLACEMENT_POLICIES
from repro.policies.scheduling import SCHEDULING_POLICIES, TiresiasScheduling
from repro.runtime.central_scheduler import CentralScheduler
from repro.simulator.engine import Simulator
from repro.simulator.overheads import OverheadModel
from repro.telemetry.runspec import RunSpec
from repro.workloads.philly import generate_philly_trace

#: Placements whose nine policy cells run in tier-1; the other five are ``fuzz``.
TIER1_PLACEMENTS = ("consolidated", "first-free")
MODE_POLICIES = ("pollux", "tiresias", "fifo")

_BASE = dict(num_jobs=120, jobs_per_hour=30.0, num_nodes=6)


def _cases():
    cases = {}
    for policy in SCHEDULING_POLICIES:
        for placement in PLACEMENT_POLICIES:
            cases[f"{policy}/{placement}"] = RunSpec(
                policy=policy, placement=placement, **_BASE
            )
    for policy in MODE_POLICIES:
        for scenario in ("failure-storm", "spot-market"):
            cases[f"{policy}/{scenario}-smoke"] = RunSpec(
                policy=policy, scenario=scenario, scenario_smoke=True
            )
        cases[f"{policy}/runtime"] = RunSpec(mode="runtime", policy=policy, **_BASE)
        # Eight nodes: a shard must own 16 GPUs for the trace's largest gang.
        cases[f"{policy}/federation-2"] = RunSpec(
            mode="federation", policy=policy, shards=2, **{**_BASE, "num_nodes": 8}
        )
    return cases


CASES = _cases()


def jobs_of(result):
    """Every job of a core, runtime or federation result, by ascending id."""
    jobs = result.jobs() if callable(result.jobs) else result.jobs
    return sorted(jobs, key=lambda job: job.job_id)


def job_state_hash(jobs) -> str:
    digest = hashlib.sha256()
    for job in jobs:
        digest.update(
            repr(
                (
                    job.job_id,
                    job.completion_time,
                    job.work_done,
                    job.attained_service,
                    job.pending_overhead,
                    job.num_launches,
                    job.num_preemptions,
                    job.first_schedule_time,
                    sorted((key, repr(value)) for key, value in job.metrics.items()),
                )
            ).encode()
        )
    return digest.hexdigest()


GOLDEN = {
    "fifo/first-free": "b54a0b7ffb83279ccf8d14f531f3bc1546b187b70b74d4da76c6c6aa4d4d9956",
    "fifo/consolidated": "33aae88042b6a69680b4d4c24240eb45aeb895922e8ef07b040d2c498ba48f40",
    "fifo/tiresias-placement": "15d7f1776973b9c5dc3364755f07dabd36bce180a672a36b91d154f6a407a76a",
    "fifo/tiresias-plus": "c265c7c5be5df044873a82d7588008ee31a53cf1cb53d9601deeab330f54d25e",
    "fifo/synergy-tune": "07c7e1eb3fd7103e9d257d3788ab4dc610c810cde87c8cb5f30313bce0c9c81c",
    "fifo/synergy-proportional": "0f11ad6f51527267bc07c3d85da4380e27c668a7bde59244ed916a64975d69d4",
    "las/first-free": "2c998debbfbd4147c500b1a8b77565e35abf54336a2c201584a1ce92a61cfaee",
    "las/consolidated": "0dfc137ef26dfdd731e8d1e87280cf2f1f05b2e16dcfcb7ba3e0683293ed449c",
    "las/tiresias-placement": "941f5a22c6f3fa42867e63171e73a381f0d2b9b6ae958136baf274bfa7482109",
    "las/tiresias-plus": "c14fb647869769b5ed87b64263770710808b4f281da31c7a64996ccc72a91d27",
    "las/synergy-tune": "460a34a1c69a1e6557382814b147ec95c5432e06ca891072ae27125e4bbf7a5f",
    "las/synergy-proportional": "4d08ba39fc22166d502c4db17b11f96c89b2705b8d33d3dd7cf88f79b628237b",
    "srtf/first-free": "b81d962807d8808fc9017fd49bb5fff31dd25dad8e3d201d680840899b0be9ca",
    "srtf/consolidated": "389bc0b66b592f516bb6c766f29c7877bc39fffaed8421d64462d1ecba6d53be",
    "srtf/tiresias-placement": "9c15b8cc8aa62dd0022a0cdd9e980c8a6b2e4c91cf6a2a5fdb3faa934e70b8ef",
    "srtf/tiresias-plus": "50d9c30feea77a98f60e9d7624571a6b5ec4f439f892c5654a4bc449ba333751",
    "srtf/synergy-tune": "de1e95a27ad651bc0c0e7184196e8bc8710e63f687fd3bea83ecfdb987cb1f18",
    "srtf/synergy-proportional": "293928857cc144ac76aa0d703851eb2df07564b899c6d28982bd208e33970950",
    "tiresias/first-free": "4d0f5a74a160b492045c9d9a95782a276c7287b08e6c2b1adad1bd417ce94bad",
    "tiresias/consolidated": "138430fcc25fcbbac84dca8ac0cf2d5432089a8ffef9fc13748b5ee23482630c",
    "tiresias/tiresias-placement": "fa3830ebd14f4eb6998bac065983d4683e57b2d3ff442aae3cc095ebed926f44",
    "tiresias/tiresias-plus": "cd4e0ce136e9b803cec6eb6935b2c437e7d0570df778f529f71a195673bdd2c5",
    "tiresias/synergy-tune": "ef199354348cb9e7f2fd274570e875afbda7b73b5b66b91f620e682a38d2c26b",
    "tiresias/synergy-proportional": "b66f7e2a6ba363a8c0715bf123fbf4f2d1e1f5798a54125288b039ecf69f3e4d",
    "optimus/first-free": "d141cbc97021f14696aca1280f1e416c036b4b58d8deab518f74a4eb19d45b83",
    "optimus/consolidated": "831b87f37f4d9494776bf546a050394a5a8aec6d3d224cf3fb8428e6e706b083",
    "optimus/tiresias-placement": "39e1b9ed2bb829d4d0dceec72b3c020ec07bf587727a5fd2226280f1ddcb196b",
    "optimus/tiresias-plus": "f659558da74672204a8833e4298678b9e9fb138072551f73dd49e906ac463e08",
    "optimus/synergy-tune": "440ede67683b12db3bc5e226501f695321a9a2ee89bd0001f87359ad2fccb3f1",
    "optimus/synergy-proportional": "8f80fd28d07ff48c041ec59619db1beef6c93287721eb6063d93d0e49064479c",
    "gavel/first-free": "2c998debbfbd4147c500b1a8b77565e35abf54336a2c201584a1ce92a61cfaee",
    "gavel/consolidated": "0dfc137ef26dfdd731e8d1e87280cf2f1f05b2e16dcfcb7ba3e0683293ed449c",
    "gavel/tiresias-placement": "941f5a22c6f3fa42867e63171e73a381f0d2b9b6ae958136baf274bfa7482109",
    "gavel/tiresias-plus": "c14fb647869769b5ed87b64263770710808b4f281da31c7a64996ccc72a91d27",
    "gavel/synergy-tune": "460a34a1c69a1e6557382814b147ec95c5432e06ca891072ae27125e4bbf7a5f",
    "gavel/synergy-proportional": "4d08ba39fc22166d502c4db17b11f96c89b2705b8d33d3dd7cf88f79b628237b",
    "pollux/first-free": "05e5dbc7053db47879a0eba1d09e497a7ee14af9e26c0ba84e4c8ec9cf05f72c",
    "pollux/consolidated": "f4fcc565b57b9435e9c63e1cbb127bb265303157efb0517ff33043c83ed11347",
    "pollux/tiresias-placement": "8390a0876fc278bc3a2fb07ce668fc5824da3e75975244bb8ddb17c13df8f88c",
    "pollux/tiresias-plus": "49bffa04f330122d6c310b7fd9b9222908572c50a1ef5f2a6d9ce83fdfd0cd9a",
    "pollux/synergy-tune": "994d5fbc24bd1a6cd8d17a86766bab95f3d26b269f010874631b03ce3dc889a5",
    "pollux/synergy-proportional": "7685ba065ef6dfc1ed5f2e8d3378a380a052808c5e753712c760ac48c223256e",
    "themis/first-free": "66d949503c20db7101c55b23e1ce2ba5c161c4e4903ba3c5b836f4447a4242fb",
    "themis/consolidated": "87ab22efdb7a964ba443bbb4ab363e487bf97f6595e1f8649a3496b184503bcd",
    "themis/tiresias-placement": "fa9f1fca38c9fe9a1c0aa2dd2e939381d39b45cb8bcfb46abf014a2c8befb9cd",
    "themis/tiresias-plus": "13be3f75f1b9a3397246c893d770529ca05be49e6a178c8ea560f3681e188095",
    "themis/synergy-tune": "a9ae270efe27bda57e189263b629b7507d5a9d94570858cef17ead90f1ab5752",
    "themis/synergy-proportional": "77e3250dd76333bedb4c17b7dbd30a93fb14f4da35852d9decf9d780f7693f89",
    "synergy/first-free": "b54a0b7ffb83279ccf8d14f531f3bc1546b187b70b74d4da76c6c6aa4d4d9956",
    "synergy/consolidated": "33aae88042b6a69680b4d4c24240eb45aeb895922e8ef07b040d2c498ba48f40",
    "synergy/tiresias-placement": "15d7f1776973b9c5dc3364755f07dabd36bce180a672a36b91d154f6a407a76a",
    "synergy/tiresias-plus": "c265c7c5be5df044873a82d7588008ee31a53cf1cb53d9601deeab330f54d25e",
    "synergy/synergy-tune": "07c7e1eb3fd7103e9d257d3788ab4dc610c810cde87c8cb5f30313bce0c9c81c",
    "synergy/synergy-proportional": "0f11ad6f51527267bc07c3d85da4380e27c668a7bde59244ed916a64975d69d4",
    "pollux/failure-storm-smoke": "44a2d5a7cdd7907508b801dbf724ef915daad3f302bab284a1c44b03495af480",
    "pollux/spot-market-smoke": "67dbd52e150aa96def29f8f226e1ecb37678fa0c4f8c4b666b140b25024177e8",
    "pollux/runtime": "f4fcc565b57b9435e9c63e1cbb127bb265303157efb0517ff33043c83ed11347",
    "pollux/federation-2": "70a3dfae3efee8910f06b18bdc54c1136f93b45206d6edec7d318cd09d4cc42c",
    "tiresias/failure-storm-smoke": "520ac4cfc13172d8379c1d0c43abe597fcc33aac85d146f5d808c2e71d1c6a67",
    "tiresias/spot-market-smoke": "b97410abe83db65ef43ea3aa7d88206ec221b0f6f57dad8f8cc92c6febe6019a",
    "tiresias/runtime": "138430fcc25fcbbac84dca8ac0cf2d5432089a8ffef9fc13748b5ee23482630c",
    "tiresias/federation-2": "54ee1d9f3516f09019c2f8ee00b6eb18a4c105d88311decc198c1e7fe1045a04",
    "fifo/failure-storm-smoke": "81683f6bfc7eda0cb92fbf61932a669988a50d5f09bfde0e33abf39c7de12b6e",
    "fifo/spot-market-smoke": "ec13b865a12a8ed706e2ba7874ac794a38de39ae706ff4130eed3e081bb31fab",
    "fifo/runtime": "33aae88042b6a69680b4d4c24240eb45aeb895922e8ef07b040d2c498ba48f40",
    "fifo/federation-2": "c56a11a77d0d9e448a016be20923ae1523d79b72d872b8db29d166b378c4a5af",
}


def _params():
    for case_id in CASES:
        rest = case_id.partition("/")[2]
        tier1 = rest in TIER1_PLACEMENTS or rest not in PLACEMENT_POLICIES
        yield pytest.param(
            case_id, id=case_id, marks=() if tier1 else pytest.mark.fuzz
        )


def test_every_case_has_a_recorded_hash():
    assert sorted(GOLDEN) == sorted(CASES)
    assert len(CASES) == 66


#: Cases whose schedule equals another case's by construction: ``case ->
#: (twin, why)``.  A twin is never itself a key, so the twins and the
#: undeclared cases are the distinct behaviours the constants pin.
EQUIVALENT = {
    **{
        f"synergy/{placement}": (f"fifo/{placement}", "Synergy orders jobs as FIFO does")
        for placement in PLACEMENT_POLICIES
    },
    **{
        f"gavel/{placement}": (f"las/{placement}", "on one GPU type Gavel is LAS")
        for placement in PLACEMENT_POLICIES
    },
    **{
        f"{policy}/runtime": (
            f"{policy}/consolidated",
            "the deployment path reproduces the simulator's schedule",
        )
        for policy in ("fifo", "tiresias", "pollux")
    },
}


def test_equal_hashes_are_exactly_the_declared_equivalences():
    for case, (twin, _why) in EQUIVALENT.items():
        assert twin in GOLDEN and twin not in EQUIVALENT, case
        assert GOLDEN[case] == GOLDEN[twin], f"{case} no longer equals {twin}"
    distinct = [case for case in GOLDEN if case not in EQUIVALENT]
    by_hash = {}
    for case in distinct:
        by_hash.setdefault(GOLDEN[case], []).append(case)
    assert [cases for cases in by_hash.values() if len(cases) > 1] == []
    assert len(EQUIVALENT) == 15 and len(distinct) == 51


#: What ``job.metrics`` may carry: the five application metrics the execution
#: model publishes, its fragmentation flag, and an admission rejection.
METRIC_BUS = frozenset(
    ("loss", "progress", "iteration_time", "throughput", "attained_service",
     "was_fragmented", "admission_rejected")
)


@pytest.mark.parametrize("case_id", _params())
def test_schedule_matches_the_recorded_hash(case_id):
    jobs = jobs_of(CASES[case_id].build().run())
    assert job_state_hash(jobs) == GOLDEN[case_id]
    for job in jobs:
        assert set(job.metrics) <= METRIC_BUS, (job.job_id, sorted(set(job.metrics) - METRIC_BUS))


# ----------------------------------------------------------------------
# The metric bus, read anywhere
# ----------------------------------------------------------------------


def metrics_of(jobs):
    return [(job.job_id, sorted(job.metrics.items())) for job in jobs]


class MetricReadingTiresias(TiresiasScheduling):
    """Reads every job's metric bus as ``schedule`` starts, keyed by round.

    A job launched in an earlier round has been advanced since, so its
    ``attained_service`` metric must equal its progress field: a job whose
    metric lags is recorded in ``stale``.
    """

    def __init__(self):
        super().__init__()
        self.manager = None  # the run's BloxManager: the round clock
        self.samples = {}
        self.stale = []

    def schedule(self, job_state, cluster_state):
        jobs = job_state.all_jobs()
        self.samples[self.manager.round_number] = metrics_of(jobs)
        self.stale += [
            job.job_id
            for job in jobs
            if job.num_launches and job.metrics.get("attained_service") != job.attained_service
        ]
        return super().schedule(job_state, cluster_state)


class CompletionWitness(JobStateObserver):
    """Reads a job's metrics at the moment its status flips to COMPLETED."""

    def __init__(self):
        self.seen = []

    def on_status_change(self, job, old, new):
        if new is JobStatus.COMPLETED:
            self.seen += metrics_of([job])


def observe(engine):
    """What each kind of reader sees of ``job.metrics`` over one contended run."""
    trace = generate_philly_trace(num_jobs=60, jobs_per_hour=40.0, seed=9)
    policy = MetricReadingTiresias()
    cluster = build_cluster(num_nodes=4, gpus_per_node=4)
    if engine == "runtime":
        sim = CentralScheduler(cluster, trace.fresh_jobs(), policy, overhead_model=OverheadModel())
    else:
        sim = Simulator(cluster, trace.fresh_jobs(), policy, fast_forward=engine == "default")
    policy.manager = sim.manager
    witness = CompletionWitness()
    sim.job_state.add_observer(witness)
    last_arrival = max(job.arrival_time for job in sim.jobs)
    pauses = []
    for step in range(1, 7):
        sim._advance_loop(step * last_arrival / 6)
        pauses.append(metrics_of(sim.job_state.all_jobs()))
    result = sim.run()
    assert policy.stale == [], engine
    return {
        "schedule": policy.samples,
        "completion": witness.seen,
        "pause": pauses,
        "end of run": metrics_of(result.jobs),
    }


def test_every_engine_reads_the_same_current_metrics_wherever_they_are_read():
    """No reader calls anything first: ``job.metrics`` is computed on read.

    The default engine and the deployment path defer progress and skip
    rounds; stepping advances every job every round.  All three agree at
    every full round the default engine runs, at every completion, at every
    pause and at the end, and no launched job's metrics lag its progress.
    """
    default, stepping, runtime = (observe(e) for e in ("default", "stepping", "runtime"))
    assert runtime == default
    for point in ("completion", "pause", "end of run"):
        assert default[point] == stepping[point], point
    full_rounds = default["schedule"]
    assert full_rounds == {r: stepping["schedule"][r] for r in full_rounds}
    # Not vacuous: the default engine skipped rounds, and jobs had run and
    # reported by the first pause.
    assert len(full_rounds) < len(stepping["schedule"])
    assert len(default["completion"]) == 60
    assert any(metrics for _, metrics in default["pause"][0])


if __name__ == "__main__":
    for case_id, spec in CASES.items():
        print(f'    "{case_id}": "{job_state_hash(jobs_of(spec.build().run()))}",')
