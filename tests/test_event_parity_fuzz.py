"""Property-based differential fuzzing: the default simulator vs stepping.

Each drawn spec is a random point in (workload x cluster shape x round
duration x policy x placement x churn) space; the property is always the
same: the default run (skips executed by ``Simulator._skip``) must replay the
plain stepping loop (``fast_forward=False``) bit-identically -- per-job
completion times, the full round log, round count and end time -- and both
must leave the shared state in the same condition as judged by
``check_invariants()``.

Two tiers:

* the **fixed corpus** (always on) replays a handful of frozen seeds chosen
  to cover every drawn dimension at least once -- non-integral round
  durations, every policy and placement, churn on and off;
* the **wide sweep** (``pytest --fuzz``) draws a few dozen fresh specs; it
  is marked ``fuzz`` and skipped by default so tier-1 wall time stays flat.
"""

import random

import pytest

from repro.cluster.builder import build_cluster
from repro.core.abstractions import ClusterManager
from repro.metrics.parity import schedule_diff
from repro.policies.placement import PLACEMENT_POLICIES
from repro.policies.scheduling import SCHEDULING_POLICIES
from repro.simulator.engine import Simulator
from repro.workloads.philly import generate_philly_trace

#: Registry names the generator draws from.  Frozen (not "every registered
#: name") so the corpus seeds below keep drawing the same specs.
POLICIES = ("fifo", "las", "srtf", "tiresias")
PLACEMENTS = ("consolidated", "first-free")
#: Round durations the generator draws from; the non-integral entries put
#: fractional products into every horizon comparison of the computed clock.
ROUND_DURATIONS = (60.0, 150.0, 300.0, 287.5, 299.25)

#: Frozen corpus seeds (always run).  Together the specs they draw cover all
#: four policies, both placements, integral and non-integral round durations,
#: and churn both on and off -- re-derive with ``_draw_spec`` if the
#: generator changes.
FIXED_CORPUS_SEEDS = (11, 67, 99, 104, 108, 125, 131, 195)

#: Wide-sweep seeds (``--fuzz`` only).
FUZZ_SWEEP_SEEDS = tuple(range(1000, 1040))


class ScriptedChurn(ClusterManager):
    """Deterministic fail/recover script with a predictable event horizon."""

    name = "scripted-churn"

    def __init__(self, script):
        #: ``script`` is a list of ``(time, action, node_id)`` tuples with
        #: action in {"fail", "recover"}; sorted so ``next_event_time`` can
        #: report the earliest unapplied entry.
        self.script = sorted(script)
        self.index = 0

    def update(self, cluster_state, current_time):
        affected = []
        while self.index < len(self.script) and self.script[self.index][0] <= current_time:
            _, action, node_id = self.script[self.index]
            self.index += 1
            if action == "fail":
                affected.extend(cluster_state.mark_node_failed(node_id))
            else:
                cluster_state.mark_node_recovered(node_id)
        return affected

    def next_event_time(self, current_time):
        if self.index >= len(self.script):
            return None
        return self.script[self.index][0]


def _draw_spec(seed):
    rng = random.Random(seed)
    # Cluster shapes stay comfortably above the largest Philly gang (8 GPUs):
    # an infeasible draw would starve under FIFO on *both* runs, which
    # times out the run instead of testing parity.
    nodes = rng.randint(4, 8)
    round_duration = rng.choice(ROUND_DURATIONS)
    spec = {
        "seed": seed,
        "nodes": nodes,
        "gpus_per_node": rng.choice((4, 8)),
        "jobs": rng.randint(8, 32),
        "jobs_per_hour": rng.choice((1.0, 3.0, 6.0, 10.0)),
        "round_duration": round_duration,
        "policy": rng.choice(sorted(POLICIES)),
        "placement": rng.choice(sorted(PLACEMENTS)),
        "churn": None,
    }
    if rng.random() < 0.5:
        # One fail/recover pair per churn run, landing on round boundaries
        # a few dozen rounds in, so failures hit live allocations.
        node_id = rng.randrange(nodes)
        fail_round = rng.randint(5, 40)
        recover_round = fail_round + rng.randint(3, 30)
        spec["churn"] = (
            (fail_round * round_duration, "fail", node_id),
            (recover_round * round_duration, "recover", node_id),
        )
    return spec


def _run(spec, fast_forward):
    trace = generate_philly_trace(
        num_jobs=spec["jobs"], jobs_per_hour=spec["jobs_per_hour"], seed=spec["seed"]
    )
    manager = ScriptedChurn(list(spec["churn"])) if spec["churn"] else None
    simulator = Simulator(
        cluster_state=build_cluster(
            num_nodes=spec["nodes"], gpus_per_node=spec["gpus_per_node"]
        ),
        jobs=trace.fresh_jobs(),
        scheduling_policy=SCHEDULING_POLICIES[spec["policy"]](),
        placement_policy=PLACEMENT_POLICIES[spec["placement"]](),
        round_duration=spec["round_duration"],
        cluster_manager=manager,
        fast_forward=fast_forward,
    )
    result = simulator.run()
    return simulator, result


def _invariant_outcome(simulator):
    """The state-invariant verdict after a run: None, or the failure text."""
    try:
        simulator.cluster_state.check_invariants()
        simulator.job_state.check_invariants()
    except Exception as exc:  # noqa: BLE001 - the outcome itself is the datum
        return f"{type(exc).__name__}: {exc}"
    return None


def _assert_parity(spec):
    default_sim, default = _run(spec, fast_forward=True)
    stepping_sim, stepping = _run(spec, fast_forward=False)

    diff = schedule_diff(default, stepping)
    assert diff.identical, (diff.first_divergence, spec)
    assert _invariant_outcome(default_sim) == _invariant_outcome(stepping_sim), spec


def test_corpus_covers_every_drawn_dimension():
    """The frozen corpus must keep covering all policies/placements/etc."""
    specs = [_draw_spec(seed) for seed in FIXED_CORPUS_SEEDS]
    assert {s["policy"] for s in specs} == set(POLICIES)
    assert {s["placement"] for s in specs} == set(PLACEMENTS)
    assert any(not float(s["round_duration"]).is_integer() for s in specs)
    assert any(float(s["round_duration"]).is_integer() for s in specs)
    assert any(s["churn"] for s in specs)
    assert any(not s["churn"] for s in specs)


@pytest.mark.parametrize("seed", FIXED_CORPUS_SEEDS)
def test_default_vs_stepping_parity_fixed_corpus(seed):
    _assert_parity(_draw_spec(seed))


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", FUZZ_SWEEP_SEEDS)
def test_default_vs_stepping_parity_fuzz_sweep(seed):
    _assert_parity(_draw_spec(seed))
