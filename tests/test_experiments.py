"""Every figure of ``repro.experiments.figures.FIGURES``, at its smoke size,
against rows recorded at the parent.

Each figure is a grid of :class:`~repro.telemetry.runspec.RunSpec` points
(``dataclasses.replace`` over one base spec) and one row function;
``PINNED`` holds the ``ExperimentTable.rows`` its smoke grid produced at
``d01b2be`` (the last commit where the runners built their engines by hand),
float for float, so a change to a row function, a registry entry or a
workload generator that moves a figure shows up here.  Re-record only for an
intended schedule change: ``PYTHONPATH=src python tests/test_experiments.py``
prints the table.
"""

import pickle
import pprint
import re
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

import repro.experiments.harness as harness
from repro.experiments.__main__ import main
from repro.experiments.figures import FIGURES
from repro.telemetry.runspec import RunSpec

#: Seconds one smoke figure may take (the slowest is under 1 s).
WALL_BUDGET_S = 10.0
#: Wall-clock columns of the federation table; everything else is pinned.
TIMING_COLUMNS = {"wall_s_per_sim_day", "wall_s", "routing_s", "advance_s"}

EXPERIMENTS_DIR = Path(harness.__file__).parent


def smoke_rows(name):
    table = harness.run_figure(FIGURES[name], smoke=True)
    return [{k: v for k, v in row.items() if k not in TIMING_COLUMNS} for row in table.rows]


PINNED = {'fig3': [{'interval_minutes': 2.0,
           'blox_avg_jct_hours': 2.946596555910997,
           'reference_avg_jct_hours': 2.0958342496324494,
           'relative_deviation': 0.4059301475905107},
          {'interval_minutes': 8.0,
           'blox_avg_jct_hours': 2.5223376594576803,
           'reference_avg_jct_hours': 2.1769377404020576,
           'relative_deviation': 0.15866320503581832}],
 'fig4': [{'quantile': 25.0,
           'blox_jct_hours': 1.9396147522014435,
           'reference_jct_hours': 1.8989897522014434,
           'relative_deviation': 0.021392953781295954},
          {'quantile': 50.0,
           'blox_jct_hours': 3.0251928901408327,
           'reference_jct_hours': 2.9443897048369814,
           'relative_deviation': 0.027443101424756908},
          {'quantile': 75.0,
           'blox_jct_hours': 65.76105641960983,
           'reference_jct_hours': 45.65440406262381,
           'relative_deviation': 0.44040991816267866},
          {'quantile': 90.0,
           'blox_jct_hours': 307.98699642903057,
           'reference_jct_hours': 138.45018297616025,
           'relative_deviation': 1.2245329678044765}],
 'fig5': [{'mode': 'proportional',
           'implementation': 'blox',
           'avg_jct_hours': 15.384909113527796,
           'median_jct_hours': 6.607856547645875},
          {'mode': 'proportional',
           'implementation': 'reference',
           'avg_jct_hours': 11.118397507104913,
           'median_jct_hours': 6.601606547645875},
          {'mode': 'tune',
           'implementation': 'blox',
           'avg_jct_hours': 15.168686001848739,
           'median_jct_hours': 5.941189880979208},
          {'mode': 'tune',
           'implementation': 'reference',
           'avg_jct_hours': 10.901408464053308,
           'median_jct_hours': 5.934939880979208}],
 'fig6_7': [{'policy': 'fifo',
             'jobs_per_hour': 2.0,
             'avg_jct_hours': 8.523899769669027,
             'avg_responsiveness_hours': 2.168504828549387,
             'avg_preemptions': 0.12},
            {'policy': 'tiresias',
             'jobs_per_hour': 2.0,
             'avg_jct_hours': 9.112855325224583,
             'avg_responsiveness_hours': 0.07517149521605372,
             'avg_preemptions': 1.68},
            {'policy': 'optimus',
             'jobs_per_hour': 2.0,
             'avg_jct_hours': 5.940499465308776,
             'avg_responsiveness_hours': 0.03850482854938705,
             'avg_preemptions': 4.52},
            {'policy': 'fifo',
             'jobs_per_hour': 6.0,
             'avg_jct_hours': 12.152227659902465,
             'avg_responsiveness_hours': 5.012834942849797,
             'avg_preemptions': 0.32},
            {'policy': 'tiresias',
             'jobs_per_hour': 6.0,
             'avg_jct_hours': 10.75901506915462,
             'avg_responsiveness_hours': 0.08950160951646283,
             'avg_preemptions': 2.56},
            {'policy': 'optimus',
             'jobs_per_hour': 6.0,
             'avg_jct_hours': 6.920799266632757,
             'avg_responsiveness_hours': 0.04283494284979616,
             'avg_preemptions': 1.28}],
 'fig8_9': [{'policy': 'fifo',
             'jobs_per_hour': 10.0,
             'avg_jct_hours': 3.925710635106978,
             'avg_responsiveness_hours': 1.4902263314376973},
            {'policy': 'las',
             'jobs_per_hour': 10.0,
             'avg_jct_hours': 5.430015303533008,
             'avg_responsiveness_hours': 0.040226331437697514},
            {'policy': 'pollux',
             'jobs_per_hour': 10.0,
             'avg_jct_hours': 3.9084377302286204,
             'avg_responsiveness_hours': 0.23022633143769755},
            {'policy': 'fifo',
             'jobs_per_hour': 30.0,
             'avg_jct_hours': 5.868565012977812,
             'avg_responsiveness_hours': 2.2700754438125657},
            {'policy': 'las',
             'jobs_per_hour': 30.0,
             'avg_jct_hours': 6.115103718480757,
             'avg_responsiveness_hours': 0.043408777145899025},
            {'policy': 'pollux',
             'jobs_per_hour': 30.0,
             'avg_jct_hours': 4.4693223400042,
             'avg_responsiveness_hours': 0.6900754438125657}],
 'fig10': [{'placement': 'tiresias-placement',
            'jobs_per_hour': 2.0,
            'avg_jct_hours': 22.04697427238392,
            'avg_responsiveness_hours': 0.1477535599617555,
            'fragmented_jobs': 9},
           {'placement': 'consolidated',
            'jobs_per_hour': 2.0,
            'avg_jct_hours': 21.986025198309843,
            'avg_responsiveness_hours': 0.1477535599617555,
            'fragmented_jobs': 8},
           {'placement': 'tiresias-placement',
            'jobs_per_hour': 6.0,
            'avg_jct_hours': 23.766184582577495,
            'avg_responsiveness_hours': 0.21702896443169667,
            'fragmented_jobs': 9},
           {'placement': 'consolidated',
            'jobs_per_hour': 6.0,
            'avg_jct_hours': 23.708660508503417,
            'avg_responsiveness_hours': 0.21702896443169667,
            'fragmented_jobs': 8}],
 'fig11': [{'placement': 'tiresias',
            'placement_sensitive_models': '5/8',
            'avg_jct_hours': 22.194707632116877},
           {'placement': 'tiresias+',
            'placement_sensitive_models': '5/8',
            'avg_jct_hours': 22.194707632116877},
           {'placement': 'tiresias',
            'placement_sensitive_models': '8/8',
            'avg_jct_hours': 28.299291342988788},
           {'placement': 'tiresias+',
            'placement_sensitive_models': '8/8',
            'avg_jct_hours': 27.09736125587425}],
 'fig12_13': [{'workload': 'philly',
               'admission': 'accept-all',
               'avg_jct_hours': 12.30114129627854,
               'avg_responsiveness_hours': 0.0379701202576401},
              {'workload': 'philly',
               'admission': 'accept-1.5x',
               'avg_jct_hours': 18.347885740722983,
               'avg_responsiveness_hours': 7.1013034535909725},
              {'workload': 'philly',
               'admission': 'accept-1.2x',
               'avg_jct_hours': 15.731040877117328,
               'avg_responsiveness_hours': 5.49797012025764},
              {'workload': 'philly',
               'admission': 'accept-1x',
               'avg_jct_hours': 15.6600591970618,
               'avg_responsiveness_hours': 5.754636786924307},
              {'workload': 'philly+spikes',
               'admission': 'accept-all',
               'avg_jct_hours': 12.818137819550673,
               'avg_responsiveness_hours': 0.0379701202576401},
              {'workload': 'philly+spikes',
               'admission': 'accept-1.5x',
               'avg_jct_hours': 19.001219074056316,
               'avg_responsiveness_hours': 7.661303453590973},
              {'workload': 'philly+spikes',
               'admission': 'accept-1.2x',
               'avg_jct_hours': 16.397470608221695,
               'avg_responsiveness_hours': 6.291303453590973},
              {'workload': 'philly+spikes',
               'admission': 'accept-1x',
               'avg_jct_hours': 16.16648892816617,
               'avg_responsiveness_hours': 6.381303453590973}],
 'fig18': [{'policy': 'fifo',
            'sim_avg_jct_hours': 15.770248063431936,
            'cluster_avg_jct_hours': 15.76457048433417,
            'avg_jct_deviation': 0.0003600183760540107,
            'sim_p95_jct_hours': 50.78167129252696,
            'cluster_p95_jct_hours': 50.74926403750578,
            'lease_rounds': 0},
           {'policy': 'srtf',
            'sim_avg_jct_hours': 15.461914730098602,
            'cluster_avg_jct_hours': 15.444296223600169,
            'avg_jct_deviation': 0.001139477665346092,
            'sim_p95_jct_hours': 51.808521740293415,
            'cluster_p95_jct_hours': 51.706947452998335,
            'lease_rounds': 4},
           {'policy': 'tiresias',
            'sim_avg_jct_hours': 15.896868433802307,
            'cluster_avg_jct_hours': 15.900689451356008,
            'avg_jct_deviation': 0.00024036290981538166,
            'sim_p95_jct_hours': 51.12910184808252,
            'cluster_p95_jct_hours': 51.120752996951175,
            'lease_rounds': 8}],
 'fig19': [{'protocol': 'central',
            'num_nodes': 4,
            'num_gpus': 16,
            'revocations': 0,
            'latency_ms': 0.8000000000000004},
           {'protocol': 'central',
            'num_nodes': 4,
            'num_gpus': 16,
            'revocations': 2,
            'latency_ms': 0.8000000000000004},
           {'protocol': 'optimistic',
            'num_nodes': 4,
            'num_gpus': 16,
            'revocations': 0,
            'latency_ms': 0.0},
           {'protocol': 'optimistic',
            'num_nodes': 4,
            'num_gpus': 16,
            'revocations': 2,
            'latency_ms': 0.04},
           {'protocol': 'central',
            'num_nodes': 8,
            'num_gpus': 32,
            'revocations': 0,
            'latency_ms': 1.600000000000001},
           {'protocol': 'central',
            'num_nodes': 8,
            'num_gpus': 32,
            'revocations': 2,
            'latency_ms': 1.600000000000001},
           {'protocol': 'optimistic',
            'num_nodes': 8,
            'num_gpus': 32,
            'revocations': 0,
            'latency_ms': 0.0},
           {'protocol': 'optimistic',
            'num_nodes': 8,
            'num_gpus': 32,
            'revocations': 2,
            'latency_ms': 0.04}],
 'federation': [{'router': 'round-robin',
                 'num_shards': 1,
                 'workers': 0,
                 'makespan_h': 98.98,
                 'avg_jct_h': 11.48,
                 'p99_jct_h': 69.66,
                 'finished': 60},
                {'router': 'round-robin',
                 'num_shards': 2,
                 'workers': 0,
                 'makespan_h': 113.16,
                 'avg_jct_h': 15.31,
                 'p99_jct_h': 79.98,
                 'finished': 60},
                {'router': 'queue-delay',
                 'num_shards': 1,
                 'workers': 0,
                 'makespan_h': 98.98,
                 'avg_jct_h': 11.48,
                 'p99_jct_h': 69.66,
                 'finished': 60},
                {'router': 'queue-delay',
                 'num_shards': 2,
                 'workers': 0,
                 'makespan_h': 206.53,
                 'avg_jct_h': 13.91,
                 'p99_jct_h': 128.34,
                 'finished': 60}]}


def test_every_figure_module_is_covered():
    assert set(PINNED) == set(FIGURES)
    assert all(name == figure.name for name, figure in FIGURES.items())


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_rows_match_the_parent(name):
    started = time.perf_counter()
    rows = smoke_rows(name)
    elapsed = time.perf_counter() - started
    assert rows == PINNED[name]
    assert elapsed < WALL_BUDGET_S, f"{name} took {elapsed:.1f}s"


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_every_point_pickles(name):
    figure = FIGURES[name]
    for point in figure.full + figure.smoke:
        task = partial(figure.row, point)
        assert pickle.loads(pickle.dumps(task)).args == (point,)


def test_fig6_7_cells_cross_the_process_boundary():
    figure = FIGURES["fig6_7"]
    tasks = [partial(figure.row, point) for point in figure.smoke[:2]]
    rows = [row for rows in harness.run_sweep(tasks, processes=2) for row in rows]
    assert rows == PINNED["fig6_7"][:2]



def test_fig13_smoke_reaches_the_spike_path():
    philly = RunSpec(policy="las", seed=17, num_jobs=40, jobs_per_hour=2.0, num_nodes=4,
                     workload_params=(("tracked_window", (5, 30)),))
    spiked = replace(philly, workload="philly-spikes",
                     workload_params=philly.workload_params + (("jobs_per_spike", 16),))
    base_trace, spiked_trace = philly.trace(), spiked.trace()
    # The spike adds jobs and reorders arrivals; the tracked set stays the
    # base window's job ids, so Fig. 12 and Fig. 13 report the same jobs.
    assert len(spiked_trace) == len(base_trace) + 16
    assert spiked_trace.tracked_ids() == base_trace.tracked_ids()
    rows = PINNED["fig12_13"]
    assert all(spike["avg_jct_hours"] != plain["avg_jct_hours"]
               for plain, spike in zip(rows[:4], rows[4:]))


def test_spec_build_is_the_only_engine_path_in_experiments():
    hand_built = re.compile(
        r"Simulator\(|CentralScheduler\(|build_cluster\(|generate_\w*_trace\(|\blambda\b"
    )
    for path in sorted(EXPERIMENTS_DIR.glob("*.py")):
        assert not hand_built.search(path.read_text()), path.name
    public = {name for name, value in vars(harness).items()
              if getattr(value, "__module__", None) == harness.__name__}
    assert public == {"ExperimentTable", "Figure", "_fmt", "run_figure", "run_sweep"}


def test_cli_prints_the_selected_smoke_table(capsys):
    assert main(["--smoke", "--only", "fig19"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("== fig19 ==")
    assert out.count("== ") == 1
    assert "optimistic  8" in out

    assert main(["--smoke", "--only", "fig18"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(line for line in lines if line.startswith("policy "))
    column = header.split().index("avg_jct_deviation")
    fifo = next(line for line in lines if line.startswith("fifo "))
    # 0.00036 must keep its digits, not print as 0.00.
    assert float(fifo.split()[column]) == pytest.approx(0.00036, rel=1e-3)


if __name__ == "__main__":
    print("PINNED = " + pprint.pformat(
        {name: smoke_rows(name) for name in FIGURES}, width=96, sort_dicts=False, compact=True
    ))
