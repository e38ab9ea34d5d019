"""Schedule-parity regression tests for the event-skipping fast-forward.

The fast-forward must be a pure performance feature: one seeded workload run
through FIFO + consolidated placement with the flag off and on must produce
identical per-job completion times and identical round logs.  A second test
proves the same against the seed-cost legacy implementations (full-scan state,
every round executed), which is the pre-refactor baseline the benchmark
compares against.
"""

import pytest

from repro.bench.legacy import LegacySimulator
from repro.cluster.builder import build_cluster
from repro.core.abstractions import ClusterManager
from repro.core.blox_manager import BloxManager
from repro.metrics.collector import UtilizationCollector
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.scheduling.fifo import FifoScheduling
from repro.policies.scheduling.srtf import SrtfScheduling
from repro.simulator.engine import Simulator
from repro.simulator.overheads import ClusterOverheadModel
from repro.synthesizer.auto_scheduler import AutoSchedulerSynthesizer
from repro.workloads.philly import generate_philly_trace


def run(trace, simulator_cls=Simulator, scheduling_factory=FifoScheduling, **kwargs):
    sim = simulator_cls(
        cluster_state=build_cluster(num_nodes=4, gpus_per_node=4),
        jobs=trace.fresh_jobs(),
        scheduling_policy=scheduling_factory(),
        placement_policy=ConsolidatedPlacement(),
        **kwargs,
    )
    return sim.run()


def assert_identical(first, second):
    assert first.rounds == second.rounds
    first_completions = {j.job_id: j.completion_time for j in first.jobs}
    second_completions = {j.job_id: j.completion_time for j in second.jobs}
    assert first_completions == second_completions
    assert first.round_log == second.round_log
    assert first.end_time == second.end_time


@pytest.fixture(scope="module")
def trace():
    return generate_philly_trace(num_jobs=40, jobs_per_hour=5.0, seed=99)


def test_fast_forward_flag_preserves_schedule(trace):
    with_skip = run(trace, fast_forward=True)
    without_skip = run(trace, fast_forward=False)
    assert_identical(without_skip, with_skip)
    assert len(with_skip.finished_jobs()) == 40


def test_fast_forward_matches_legacy_baseline(trace):
    """The indexed, event-skipping core replays the seed's schedule exactly."""
    legacy = run(trace, simulator_cls=LegacySimulator)
    indexed = run(trace, fast_forward=True)
    assert_identical(legacy, indexed)


def test_fast_forward_parity_under_srtf(trace):
    """SRTF opts into steady-state skipping; parity must hold there too."""
    with_skip = run(trace, scheduling_factory=SrtfScheduling, fast_forward=True)
    without_skip = run(trace, scheduling_factory=SrtfScheduling, fast_forward=False)
    assert_identical(without_skip, with_skip)


class UpdateOnlyClusterManager(ClusterManager):
    """Overrides update() but not next_event_time: its events are unpredictable."""

    def update(self, cluster_state, current_time):
        return []


class CountingManager(BloxManager):
    """Overrides ``advance_time``, so it must see one call per round."""

    advances = 0

    def advance_time(self):
        super().advance_time()
        self.advances += 1


def _synthesizer():
    synth = AutoSchedulerSynthesizer.from_grid(
        ["fifo"], ["accept-all"], evaluate_every=10, horizon_rounds=4
    )
    return {"scheduling_policy": synth, "admission_policy": synth}


#: Every reason a run steps every round instead of fast-forwarding, as the
#: Simulator keyword arguments that give it (built fresh per run).
STEPPING_REASONS = {
    "synthesizer-opt-out": _synthesizer,
    "update-only-cluster-manager": lambda: {"cluster_manager": UpdateOnlyClusterManager()},
    "metric-collector": lambda: {"metric_collectors": [UtilizationCollector()]},
    "per-round-jitter": lambda: {"overhead_model": ClusterOverheadModel()},
    "advance-time-override": lambda: {"manager_factory": CountingManager},
}


def _sim(trace, fast_forward, **kwargs):
    kwargs.setdefault("scheduling_policy", FifoScheduling())
    return Simulator(
        cluster_state=build_cluster(num_nodes=4, gpus_per_node=4),
        jobs=trace.fresh_jobs(),
        placement_policy=ConsolidatedPlacement(),
        fast_forward=fast_forward,
        **kwargs,
    )


@pytest.mark.parametrize("reason", list(STEPPING_REASONS))
def test_each_reason_to_step_disables_fast_forward(trace, reason):
    """Each reason alone turns fast-forward and deferred progress off, and
    the run is the stepping run bit for bit."""
    sim = _sim(trace, True, **STEPPING_REASONS[reason]())
    assert sim.fast_forward is False
    assert sim.execution_model._defer is False
    result = sim.run()
    assert_identical(result, _sim(trace, False, **STEPPING_REASONS[reason]()).run())
    if reason == "advance-time-override":
        assert sim.manager.advances == result.rounds


def test_fast_forward_is_fixed_when_the_run_is_built():
    """``__init__`` decides the skip predicate and the deferral with it.

    Switching skips on afterwards for a run it refused (a collector) sent
    the skip executor an eager model with no completion heap: skips jumped
    past completions and a 30-job FIFO run never finished.  The flag is
    read-only, and the refused run is the stepping run bit for bit.
    """
    trace30 = generate_philly_trace(num_jobs=30, jobs_per_hour=5.0, seed=99)
    sim = _sim(trace30, True, metric_collectors=[UtilizationCollector()])
    assert sim.fast_forward is False
    with pytest.raises(AttributeError):
        sim.fast_forward = True
    stepping = _sim(trace30, False, metric_collectors=[UtilizationCollector()])
    assert_identical(sim.run(), stepping.run())


def test_stock_and_migrated_runs_fast_forward(trace):
    """Without a reason to step (the table above is not vacuous), and with a
    cluster manager that also overrides next_event_time, a run skips."""

    class Migrated(UpdateOnlyClusterManager):
        def next_event_time(self, current_time):
            return None

    for kwargs in ({}, {"cluster_manager": Migrated()}):
        sim = _sim(trace, True, **kwargs)
        assert sim.fast_forward is True
        assert sim.execution_model._defer is True


def test_admission_with_per_round_side_effects_is_never_skipped(trace):
    """steady_state_safe=False on an admission policy must disable all skipping,
    including during fully idle stretches (the documented opt-out contract)."""
    from repro.policies.admission.accept_all import AcceptAll

    class CountingAdmission(AcceptAll):
        steady_state_safe = False

        def __init__(self):
            super().__init__()
            self.calls = 0

        def accept(self, new_jobs, cluster_state, job_state):
            self.calls += 1
            return super().accept(new_jobs, cluster_state, job_state)

    with_skip_policy = CountingAdmission()
    with_skip = run(trace, admission_policy=with_skip_policy, fast_forward=True)
    without_skip_policy = CountingAdmission()
    without_skip = run(trace, admission_policy=without_skip_policy, fast_forward=False)
    assert_identical(without_skip, with_skip)
    assert with_skip_policy.calls == without_skip_policy.calls


def test_fast_forward_parity_with_scheduled_cluster_events(trace):
    """Event skipping must stop exactly at failures/recoveries a manager schedules."""

    class OneFailure(ClusterManager):
        def __init__(self):
            self.failed = False
            self.recovered = False

        def update(self, cluster_state, current_time):
            if not self.failed and current_time >= 50_000:
                self.failed = True
                return cluster_state.mark_node_failed(2)
            if not self.recovered and current_time >= 150_000:
                self.recovered = True
                cluster_state.mark_node_recovered(2)
            return []

        def next_event_time(self, current_time):
            if not self.failed:
                return 50_000.0
            if not self.recovered:
                return 150_000.0
            return None

    with_skip = run(trace, cluster_manager=OneFailure(), fast_forward=True)
    without_skip = run(trace, cluster_manager=OneFailure(), fast_forward=False)
    assert_identical(without_skip, with_skip)
