"""End-to-end determinism and correctness tests for the ``Simulator``."""

import pytest

from repro.cluster.builder import build_cluster
from repro.policies.placement.consolidated import ConsolidatedPlacement
from repro.policies.scheduling.fifo import FifoScheduling
from repro.policies.scheduling.las import LasScheduling
from repro.policies.admission.threshold import ThresholdAdmission
from repro.policies.termination import LossBasedTermination
from repro.simulator.engine import Simulator
from repro.simulator.overheads import OverheadModel
from repro.workloads.philly import generate_philly_trace


def run_once(trace, scheduling_factory=FifoScheduling, **kwargs):
    sim = Simulator(
        cluster_state=build_cluster(num_nodes=4, gpus_per_node=4),
        jobs=trace.fresh_jobs(),
        scheduling_policy=scheduling_factory(),
        placement_policy=ConsolidatedPlacement(),
        **kwargs,
    )
    result = sim.run()
    sim.cluster_state.check_invariants()
    sim.job_state.check_invariants()
    return result


def test_simulation_is_deterministic():
    trace = generate_philly_trace(num_jobs=30, jobs_per_hour=6.0, seed=13)
    first = run_once(trace)
    second = run_once(trace)
    assert first.rounds == second.rounds
    assert {j.job_id: j.completion_time for j in first.jobs} == {
        j.job_id: j.completion_time for j in second.jobs
    }
    assert first.round_log == second.round_log


def test_all_tracked_jobs_finish_and_metrics_are_sane():
    trace = generate_philly_trace(num_jobs=30, jobs_per_hour=6.0, seed=13)
    result = run_once(trace)
    finished = result.finished_jobs()
    assert len(finished) == 30
    assert all(j.completion_time is not None for j in finished)
    assert all(j.completion_time >= j.arrival_time for j in finished)
    assert result.avg_jct() > 0
    assert 0.0 < result.completion_fraction() <= 1.0
    assert result.round_log, "round log must not be empty"
    # Round numbers in the log are strictly increasing and times follow rounds.
    numbers = [r.round_number for r in result.round_log]
    assert numbers == sorted(numbers) and len(set(numbers)) == len(numbers)


def test_admission_policy_composition_runs_to_completion():
    trace = generate_philly_trace(num_jobs=30, jobs_per_hour=8.0, seed=5)
    result = run_once(
        trace,
        scheduling_factory=LasScheduling,
        admission_policy=ThresholdAdmission(threshold_factor=1.2),
    )
    assert len(result.finished_jobs()) == 30


def test_simulator_runs_on_the_termination_policy_and_overheads_it_is_given():
    """The one execution model a Simulator builds holds both, and the
    manager's execution, launch and preemption run on it."""
    trace = generate_philly_trace(num_jobs=5, jobs_per_hour=6.0, seed=13)
    termination = LossBasedTermination()
    overheads = OverheadModel(scale=0.0)
    sim = Simulator(
        build_cluster(num_nodes=2),
        trace.fresh_jobs(),
        FifoScheduling(),
        overhead_model=overheads,
        termination_policy=termination,
    )
    assert sim.execution_model.termination is termination
    assert sim.execution_model.overheads is overheads
    manager = sim.manager
    assert manager.execution is sim.execution_model
    assert manager.launcher.overheads is overheads
    assert manager.preemptor.overheads is overheads


def test_max_rounds_guard_raises():
    from repro.core.exceptions import SimulationError

    trace = generate_philly_trace(num_jobs=30, jobs_per_hour=6.0, seed=13)
    with pytest.raises(SimulationError):
        run_once(trace, max_rounds=3)
