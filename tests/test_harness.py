"""Tests for the experiment harness sweep runner."""

from dataclasses import replace
from functools import partial

import pytest

from repro.experiments.harness import run_sweep
from repro.telemetry.runspec import RunSpec


def run_spec(spec):
    result = spec.build().run()
    return spec.policy, result.rounds, result.avg_jct()


def make_tasks():
    base = RunSpec(num_jobs=20, jobs_per_hour=6.0, num_nodes=4, seed=17)
    return [partial(run_spec, replace(base, policy=policy)) for policy in ("fifo", "srtf")]


def test_run_sweep_serial_and_parallel_agree():
    serial = run_sweep(make_tasks(), processes=1)
    parallel = run_sweep(make_tasks(), processes=2)
    assert [label for label, _, _ in serial] == ["fifo", "srtf"]
    assert serial == parallel
    assert all(rounds > 0 for _, rounds, _ in serial)


def test_run_sweep_names_the_unpicklable_task():
    tasks = make_tasks()
    # A lambda cannot cross the process boundary; with every figure task a
    # partial over a frozen spec that is a caller bug, not a reason to rerun
    # the sweep serially.
    tasks.append(lambda: None)
    with pytest.raises(ValueError, match="sweep task 2 "):
        run_sweep(tasks, processes=2)
    # In-process execution never pickles.
    assert len(run_sweep(tasks, processes=1)) == 3


def test_run_sweep_empty():
    assert run_sweep([]) == []
