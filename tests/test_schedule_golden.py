"""Golden schedules: per-job end state of whole runs, pinned as constants.

Stepping (``fast_forward=False``) shares ``place`` / ``exec_jobs`` /
``ExecutionModel.advance`` with the default engine, so no parity gate can see
a behaviour change in them: both legs move together.  These hashes were
recorded at the commit *before* the allocation delta became the unit of a
full round (``0106a45``; the nine ``synergy-proportional`` cells in the PR
that registered that placement) and every later commit must reproduce them --
each is a sha256 over every job's completion time, progress accounting, launch and
preemption counts and its whole ``metrics`` dictionary.

Tier-1 runs nine policies x two placements plus the twelve mode/scenario
cases; ``pytest --fuzz`` runs all 75.  To re-record after an *intended*
schedule change: ``PYTHONPATH=src python tests/test_schedule_golden.py``.
"""

import hashlib

import pytest

from repro.cluster.builder import build_cluster
from repro.core.abstractions import MetricCollector
from repro.core.job import JobStatus
from repro.core.job_state import JobStateObserver
from repro.policies.placement import PLACEMENT_POLICIES
from repro.policies.scheduling import SCHEDULING_POLICIES, TiresiasScheduling
from repro.simulator.engine import Simulator
from repro.simulator.execution import ExecutionModel
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
    "fifo/first-free": "c668515a681e8e8242a2314295463ee2dced47bc42646567b83b79ac96ecd5ad",
    "fifo/consolidated": "7ce90681cd4710432e625d10938c91223ff65729200bc99200f11eb3b0820532",
    "fifo/tiresias-placement": "3fab631d5ea2633028e359cd09c2b6653fe189092218397299ad2bce7f3e89d4",
    "fifo/tiresias-plus": "f6d02dee10a6d9687a3af50a37b41936fe8864c800f805c54938946a378e4d5c",
    "fifo/synergy-tune": "4f53feebcddc945a605ac63a43eeeabd504a29d8f96f5814c62a5e96baf2af75",
    "fifo/synergy-proportional": "b2c5ffe80e5f8860d6be8379f848ad0d52769738ef8d7e40adc6260e1ab17b62",
    "fifo/intra-node-bandwidth-aware": "d18762d8d445b57575cd4c40a2b4a95f299e3442d502737e14cd77094c8c0f22",
    "las/first-free": "18d89c53ebe907c81ba4150a2f33fed8c356cd004f32b9f48fd095a48717cb3e",
    "las/consolidated": "8d4fad8f046be50746019481ed6c88c7fa51086cd550bb16dc5548a994fe1bab",
    "las/tiresias-placement": "8bdaf21a0e96306e59649f9d4c6171b1f5be209a453cfb8d4245c04667b99e2e",
    "las/tiresias-plus": "b035c8b4ff71f9504910e03d8146275ead032b6f7b9012579d31c53cb87de0ef",
    "las/synergy-tune": "6c28ac1b0c3d024d8367e97a63f8fc9a75c26db84f7aa4d4747e8953b684b48e",
    "las/synergy-proportional": "b0ee22bf358a3daa7e0e4d5e84e59059f6e83b92634facf7eecc4a7a84dc1f1a",
    "las/intra-node-bandwidth-aware": "e3d9d0b9c98a3a3c6088b328cb9b03f9967f3166197180eedeaa426b799e7730",
    "srtf/first-free": "6b14780d51647486f4bcd84bb66c377ea59312385c170d4939f7b1d7f329485d",
    "srtf/consolidated": "3a11e451f02a01961923a820444e7db26cb9aaed6cb84d42cbd808b32e06e192",
    "srtf/tiresias-placement": "911414320e76325d6ea49276d09d2244ae3e55c1e5e7c7f31a336ce856563f13",
    "srtf/tiresias-plus": "db77a43cbf4beebec67b76d771b0ca519c40a6054fcd8f5185cf6ea9c811c43f",
    "srtf/synergy-tune": "b45d6b20452c27cf4d6e3b761a47b03e28eb62466266634690d95118061b62f7",
    "srtf/synergy-proportional": "07ac69c449128ac3dcf9bb7a5ee5fa85fa16167f8e2a8b1d980cf5edd4fad036",
    "srtf/intra-node-bandwidth-aware": "f43e13385a1f46a247eaeab07c4f002be11cb6d29cdea87fb78afd3fdf64440b",
    "tiresias/first-free": "b3a40899b64044e5a1ebfe99fd975b0ac1e39cc97cd2be18c350de86730e65fc",
    "tiresias/consolidated": "6c5b18bab6e4d8ec2dcfdbbb2bd29fc351805a81d68223b712e7580f925f1544",
    "tiresias/tiresias-placement": "d9207db716fc4ef4865556c6787ed9a2b34833f91fe95bf8e045b8a1d7f64898",
    "tiresias/tiresias-plus": "c1d29aba3dbfd16dab8b391b919f972bc82e8f4ce9aa936803567c10b9fcf86e",
    "tiresias/synergy-tune": "d98ee1070708f00f91764b0c03d504be4057d9c55d9c6d00d55a0a103061a08e",
    "tiresias/synergy-proportional": "67b69b8e81aba0b00a76efd13be8c5a8b5028fc4116ba14e55e4dc72d39a631a",
    "tiresias/intra-node-bandwidth-aware": "914d56bcdc56ca9d36ad985ac0c28a331f9412caa6f80fea2b358229667a02ed",
    "optimus/first-free": "0283fe00f300376d48f70ed2dd5f941e5b696bcc8c3075d10ec6447a576d1d18",
    "optimus/consolidated": "36f589a7f75bb273e09d0a91d31b0f99fee142add00a37b5a83230a440342715",
    "optimus/tiresias-placement": "e0258fd89d2c8d097d7075dca6c571612e03cc8478c6543c5d3fd3abd5a0f9d0",
    "optimus/tiresias-plus": "d21fbb27f19bbbd17c9a2ca755cbbfd6e9a36d731b59a31e85cde08b269310b0",
    "optimus/synergy-tune": "46997e3f042950ce8ff6727dedecfd536d467c60053ccfd7d2a4a4b7082b1b99",
    "optimus/synergy-proportional": "efc6d22531fa80f6a84c63705714e1d67f0cabf7d0d16c031e93b3a7cfa2f72e",
    "optimus/intra-node-bandwidth-aware": "05459af361f11e9e9b9b0161d54b6a4abbcc588d2c4ecd45a92dbb11b348b6ba",
    "gavel/first-free": "18d89c53ebe907c81ba4150a2f33fed8c356cd004f32b9f48fd095a48717cb3e",
    "gavel/consolidated": "8d4fad8f046be50746019481ed6c88c7fa51086cd550bb16dc5548a994fe1bab",
    "gavel/tiresias-placement": "8bdaf21a0e96306e59649f9d4c6171b1f5be209a453cfb8d4245c04667b99e2e",
    "gavel/tiresias-plus": "b035c8b4ff71f9504910e03d8146275ead032b6f7b9012579d31c53cb87de0ef",
    "gavel/synergy-tune": "6c28ac1b0c3d024d8367e97a63f8fc9a75c26db84f7aa4d4747e8953b684b48e",
    "gavel/synergy-proportional": "b0ee22bf358a3daa7e0e4d5e84e59059f6e83b92634facf7eecc4a7a84dc1f1a",
    "gavel/intra-node-bandwidth-aware": "e3d9d0b9c98a3a3c6088b328cb9b03f9967f3166197180eedeaa426b799e7730",
    "pollux/first-free": "ea48a9abca316475099b9cc7e475c10f769b47913edd1966b3aaf75ca1887ce0",
    "pollux/consolidated": "b61040335b031617473a068192a9af4378a3cb318980e02414ff5ab2b23de70f",
    "pollux/tiresias-placement": "98d07184adcc912258fb4c6c8f12dcd9bef88043d09f4d3b0b950c6ece2f707f",
    "pollux/tiresias-plus": "1a4f5a5f27e87a4d6d3e220702316da1f7298f4a4dbc0644a3e7bbdefce4c05f",
    "pollux/synergy-tune": "5decfdb94ab84aa6c73bbb3807b2469b15699844e37356915620fa7e4829c829",
    "pollux/synergy-proportional": "55a4eb5fce069897f605dd75df3af5a42a5d54e430e1fb7ddbfb62d365f451cf",
    "pollux/intra-node-bandwidth-aware": "771b07d55332a3dfdfb0630b91d714cbd739cc7b772a289168431b36e5aacde3",
    "themis/first-free": "c44736f5c7ece0f2f72274a13c675466b307af1b466e6a89fc652828053304bf",
    "themis/consolidated": "cd26b5c0fbf3268ed3088054a4881bd6802d19a74b6f7ffad193d290e9a09416",
    "themis/tiresias-placement": "25fac9c4539e3ee2d9074fad37f2b83c918ac4d9df9270c89852a7a6a1b3c963",
    "themis/tiresias-plus": "1b950313cfc4a0b495c169747d6c2be6c8e3d0894ab03b09fc12b7c20f4f3281",
    "themis/synergy-tune": "586b94b859fe5cdd92dd4e64a199d105d4a7d88b6f11364c4ffec6abca05fccd",
    "themis/synergy-proportional": "e72da4fdbaf7f9920b2954dd51e59835cd9fc31ceaf2268d078d4191a16826c9",
    "themis/intra-node-bandwidth-aware": "6f07dac90a6e2d6ef418bf6c22fe23d2a587026e911e61a78f06e3252b20b76c",
    "synergy/first-free": "74b98093569c409945c8b9fcee373e69db323a3d356ba87550116ae942f903e2",
    "synergy/consolidated": "00ae564e08c06895b5dba9d75de63e196039a8c11822c7e8a669ed08ecc33c8c",
    "synergy/tiresias-placement": "2b9a26fb771d5b2e311cd7189425bafd3edf6a66fd55b2153736b4a2c369a531",
    "synergy/tiresias-plus": "98612362ba3cf70024ad37292ddeb6554d535f2c4226aaa975c9bacb57a25727",
    "synergy/synergy-tune": "a405fc511ea3b9bb62712d4ab5a1ed2bc0f289c106d22f2d2562570eeb2bd377",
    "synergy/synergy-proportional": "a42fc7418ee118a0e1fc3f75a4ed722ba59ab3e9202c08b0fc8a56465e44cfd3",
    "synergy/intra-node-bandwidth-aware": "de1997007a5c5677251b2507adca43f19adf014bce9c28ec36b5764162620eb1",
    "pollux/failure-storm-smoke": "5afcdd7a35f9c20e7cc02329718493e6d19ad6f277fe52a0ef57277be2315834",
    "pollux/spot-market-smoke": "b94daf4a5f31eb0d0f06e50fcb1345276f70e000ff9244116bcba3eb17f333f0",
    "pollux/runtime": "b61040335b031617473a068192a9af4378a3cb318980e02414ff5ab2b23de70f",
    "pollux/federation-2": "2c5b21501dcc29d4aaaca9e9b34d9617d4b5545857deb8c3e9c79d79c4d92b4e",
    "tiresias/failure-storm-smoke": "57ae18bb06d65634eafd538bab7475e6904b977a02afda0fef9b0bc2c6c98329",
    "tiresias/spot-market-smoke": "2b0c051a0a2833c9e5da9cac3346e630b4b9e5a58edbfd26f4c4e7fb73a4b902",
    "tiresias/runtime": "6c5b18bab6e4d8ec2dcfdbbb2bd29fc351805a81d68223b712e7580f925f1544",
    "tiresias/federation-2": "ef05c86ce5a58a0de8cdc9f6d4040f2f5059e4a85ff3f14ea6776e70f59b8f49",
    "fifo/failure-storm-smoke": "c70dc3b3943da511f7f2f5f57bc1981e1321378101b944c7cb89f16f34ef5123",
    "fifo/spot-market-smoke": "701dedc6312d3a5c8cda5bdce9a6b4185373609c5b26ccf8a19459957f0b01a2",
    "fifo/runtime": "7ce90681cd4710432e625d10938c91223ff65729200bc99200f11eb3b0820532",
    "fifo/federation-2": "80293424f366db239ae2f891c8ac3300fa83c8fb6d5abd663a4cefb8f6a27eaf",
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
    assert len(CASES) == 75


@pytest.mark.parametrize("case_id", _params())
def test_schedule_matches_the_recorded_hash(case_id):
    result = CASES[case_id].build().run()
    assert job_state_hash(jobs_of(result)) == GOLDEN[case_id]


# ----------------------------------------------------------------------
# Owed application metrics
# ----------------------------------------------------------------------


class EagerMetrics(ExecutionModel):
    """Writes the application metrics once per job per round: the reference."""

    def advance_running(self, *args):
        super().advance_running(*args)
        self.publish_owed_metrics()


def metrics_of(jobs):
    return [(job.job_id, sorted(job.metrics.items())) for job in jobs]


class CompletionWitness(JobStateObserver):
    """Reads a job's metrics at the moment its status flips to COMPLETED."""

    def __init__(self, model):
        self.model = model
        self.seen = []
        self.most_owed = 0

    def on_status_change(self, job, old, new):
        self.most_owed = max(self.most_owed, len(self.model._owed))
        if new is JobStatus.COMPLETED:
            self.seen += metrics_of([job])


class RunningJobsCollector(MetricCollector):
    def __init__(self):
        self.samples = []

    def collect(self, job_state, cluster_state, current_time):
        self.samples.append(metrics_of(job_state.running_jobs()))


def observe(model, with_collector):
    """What each kind of reader sees of ``job.metrics`` over one contended run."""
    trace = generate_philly_trace(num_jobs=60, jobs_per_hour=40.0, seed=9)
    collector = RunningJobsCollector()
    sim = Simulator(
        build_cluster(num_nodes=4, gpus_per_node=4),
        trace.fresh_jobs(),
        TiresiasScheduling(),
        execution_model=model,
        metric_collectors=[collector] if with_collector else [],
    )
    witness = CompletionWitness(model)
    sim.job_state.add_observer(witness)
    last_arrival = max(job.arrival_time for job in sim.jobs)
    pauses = []
    for step in range(1, 7):
        sim._advance_loop(step * last_arrival / 6)
        pauses.append(metrics_of(sim.job_state.all_jobs()))
    result = sim.run()
    seen = {
        "completion": witness.seen,
        "collector": collector.samples,
        "pause": pauses,
        "end of run": metrics_of(result.jobs),
    }
    return seen, witness.most_owed


@pytest.mark.parametrize("with_collector", [False, True])
def test_owed_metrics_equal_eager_ones_wherever_they_can_be_read(with_collector):
    owed, most_owed = observe(ExecutionModel(), with_collector)
    eager, _ = observe(EagerMetrics(), with_collector)
    for point in eager:
        assert owed[point] == eager[point], point
    assert len(owed["completion"]) == 60 and any(owed["pause"][0])
    # Not vacuous: between observation points the default model did owe.
    assert most_owed > 0


class MetricReadingTiresias(TiresiasScheduling):
    """Reads the metric bus inside ``schedule``; publishes first if given the model."""

    def __init__(self, model=None):
        super().__init__()
        self.model = model
        self.samples = []

    def schedule(self, job_state, cluster_state):
        if self.model is not None:
            self.model.publish_owed_metrics()
        self.samples.append(metrics_of(job_state.running_jobs()))
        return super().schedule(job_state, cluster_state)


def test_a_policy_reading_application_metrics_must_publish_them_first():
    """Steps 4-6 run between ``update_metrics`` and the next metrics write."""

    def run(model, publishing):
        policy = MetricReadingTiresias(model if publishing else None)
        trace = generate_philly_trace(num_jobs=60, jobs_per_hour=40.0, seed=9)
        sim = Simulator(
            build_cluster(num_nodes=4, gpus_per_node=4),
            trace.fresh_jobs(),
            policy,
            execution_model=model,
        )
        return policy.samples, job_state_hash(jobs_of(sim.run()))

    eager, end_state = run(EagerMetrics(), publishing=False)
    published, published_end = run(ExecutionModel(), publishing=True)
    lagging, lagging_end = run(ExecutionModel(), publishing=False)
    assert published == eager
    # The documented lag is real (docs/policies.md, authoring checklist) ...
    assert lagging != eager
    # ... and neither reading nor publishing moves the schedule.
    assert published_end == lagging_end == end_state


if __name__ == "__main__":
    for case_id, spec in CASES.items():
        print(f'    "{case_id}": "{job_state_hash(jobs_of(spec.build().run()))}",')
