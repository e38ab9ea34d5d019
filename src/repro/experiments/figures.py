"""Every reproduced figure of the Blox paper, as one table of data.

``FIGURES`` maps a name to a :class:`~repro.experiments.harness.Figure`: the
paper's claim in words, the full and the smoke grid of points, and the one
``row(point)`` function that is the only per-figure code.  A point is a
:class:`~repro.telemetry.runspec.RunSpec` made by ``dataclasses.replace``
over one base spec (Fig. 19's is a :class:`LeasePoint`), so any figure point
can be recorded, replayed or given a ``stepping`` leg as a bench cell.
``python -m repro.experiments`` prints the tables; ``tests/test_experiments.py``
pins every smoke table.
"""

from __future__ import annotations

from dataclasses import replace
from inspect import cleandoc
from itertools import product
from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.baselines.pollux_reference import simulate_pollux_reference
from repro.baselines.reference import average_jct, jct_list
from repro.baselines.synergy_reference import simulate_synergy_reference
from repro.baselines.tiresias_reference import simulate_tiresias_reference
from repro.experiments.harness import Figure
from repro.metrics.summary import average, percentile
from repro.runtime.lease import build_lease_setup
from repro.simulator.overheads import ClusterOverheadModel
from repro.telemetry.runspec import RunSpec

Row = Dict[str, object]

#: Heavy-tailed duration parameters of the Philly sweeps: long jobs carry
#: enough of the total work for the preemption-vs-ordering trade-off between
#: FIFO and LAS-style policies to be visible at high load.
HEAVY_TAIL = (("median_duration_hours", 2.5), ("duration_sigma", 1.8))


def _window(first: int, last: int) -> Tuple[Tuple[str, object], ...]:
    """The generator parameter that reports only jobs ``first..last``."""
    return (("tracked_window", (first, last)),)


def _sweep(base: RunSpec, **axes: Sequence[object]) -> Tuple[RunSpec, ...]:
    """``replace(base, ...)`` at every combination of ``axes``, first axis outermost."""
    return tuple(replace(base, **dict(zip(axes, values))) for values in product(*axes.values()))


def _hours(seconds: float) -> float:
    return seconds / 3600.0


def _deviation(value: float, reference: float) -> float:
    return abs(value - reference) / reference if reference > 0 else 0.0


def _jct(result) -> Row:
    return dict(
        avg_jct_hours=_hours(result.avg_jct()),
        avg_responsiveness_hours=_hours(result.avg_responsiveness()),
    )


def _total_gpus(spec: RunSpec) -> int:
    return spec.num_nodes * spec.gpus_per_node


# ----------------------------------------------------------------------
# Figs. 3-5: Blox implementations against independent references
# ----------------------------------------------------------------------


def pollux_row(spec: RunSpec) -> List[Row]:
    blox_h = _hours(spec.build().run().avg_jct())
    reference = simulate_pollux_reference(
        spec.trace().fresh_jobs(), total_gpus=_total_gpus(spec), round_duration=spec.round_duration
    )
    reference_h = _hours(average_jct(reference))
    return [dict(
        interval_minutes=spec.round_duration / 60.0,
        blox_avg_jct_hours=blox_h,
        reference_avg_jct_hours=reference_h,
        relative_deviation=_deviation(blox_h, reference_h),
    )]


def tiresias_row(spec: RunSpec) -> List[Row]:
    blox_jcts = spec.build().run().jcts()
    reference_jcts = jct_list(simulate_tiresias_reference(
        spec.trace().fresh_jobs(), total_gpus=_total_gpus(spec), round_duration=spec.round_duration
    ))
    rows = []
    for quantile in (25.0, 50.0, 75.0, 90.0):
        blox_h = _hours(percentile(blox_jcts, quantile))
        reference_h = _hours(percentile(reference_jcts, quantile))
        rows.append(dict(
            quantile=quantile,
            blox_jct_hours=blox_h,
            reference_jct_hours=reference_h,
            relative_deviation=_deviation(blox_h, reference_h),
        ))
    return rows


def synergy_row(spec: RunSpec) -> List[Row]:
    mode = spec.placement[len("synergy-"):]
    blox_jcts = spec.build().run().jcts()
    reference_jcts = jct_list(simulate_synergy_reference(
        spec.trace().fresh_jobs(),
        total_gpus=_total_gpus(spec),
        mode=mode,
        round_duration=spec.round_duration,
    ))
    return [
        dict(
            mode=mode,
            implementation=implementation,
            avg_jct_hours=_hours(average(jcts)),
            median_jct_hours=_hours(percentile(jcts, 50)),
        )
        for implementation, jcts in (("blox", blox_jcts), ("reference", reference_jcts))
    ]


POLLUX = RunSpec(
    policy="pollux", workload="pollux", seed=0, num_jobs=160, jobs_per_hour=20.0, num_nodes=16
)
TIRESIAS = RunSpec(
    policy="tiresias", placement="tiresias-placement", workload="tiresias", seed=0,
    num_jobs=60, jobs_per_hour=6.0, num_nodes=16,
)
SYNERGY = RunSpec(policy="synergy", seed=0, num_jobs=200, jobs_per_hour=6.0, num_nodes=32)
SYNERGY_MODES = ("synergy-proportional", "synergy-tune")

FIG3 = Figure(
    name="fig3",
    description=cleandoc("""
        Figure 3: reproducing Pollux -- average JCT (hours) vs. scheduling interval.
        The paper reruns the Pollux OSDI '21 experiment (their Sec. 5.3.2) in Blox
        and compares against the Pollux artifact: average JCT on the Pollux trace as
        the scheduling round length varies over 1/2/4/8 minutes, on a 64-GPU
        cluster, and claims the two agree within a few per cent.  Here the author
        implementation is the independent reference simulator in
        repro.baselines.pollux_reference.  This reproduction does not meet that
        claim yet: at full size Blox-Pollux's average JCT is 47-67 % above the
        reference's (ROADMAP item 2).
    """),
    full=_sweep(POLLUX, round_duration=(60.0, 120.0, 240.0, 480.0)),
    smoke=_sweep(replace(POLLUX, num_jobs=24, num_nodes=4), round_duration=(120.0, 480.0)),
    row=pollux_row,
)
FIG4 = Figure(
    name="fig4",
    description=cleandoc("""
        Figure 4: reproducing Tiresias -- JCT distribution quantiles (hours) of
        Blox-Tiresias vs the reference.  The paper compares the CDF of JCTs produced
        by the Tiresias implementation in Blox with the Tiresias open-source
        simulator on the Tiresias trace and claims they match.  Here an independent
        discrete-LAS reference simulator stands in for the open-source one.  This
        reproduction does not meet that claim yet: at full size the quantiles
        deviate by up to 167 % (ROADMAP item 2).
    """),
    full=(TIRESIAS,),
    smoke=(replace(TIRESIAS, num_jobs=20, num_nodes=4),),
    row=tiresias_row,
)
FIG5 = Figure(
    name="fig5",
    description=cleandoc("""
        Figure 5: reproducing Synergy -- JCT statistics (hours) of Proportional vs
        Synergy-Tune.  The paper reproduces Figure 9(b) of the Synergy OSDI '22
        paper on the Philly trace and claims Blox's implementation matches the
        original, where Tune beats Proportional.  Here both modes run in Blox and
        in an independent reference simulator.  This reproduction does not meet
        that claim yet: at full size Blox's average JCT is 44 % (Proportional) and
        56 % (Tune) above the reference's, and Blox's Tune is worse than its
        Proportional (ROADMAP item 2).
    """),
    full=_sweep(SYNERGY, placement=SYNERGY_MODES),
    smoke=_sweep(replace(SYNERGY, num_jobs=24, num_nodes=4), placement=SYNERGY_MODES),
    row=synergy_row,
)


# ----------------------------------------------------------------------
# Figs. 6-13: policy, placement and admission sweeps
# ----------------------------------------------------------------------


def policy_load_row(spec: RunSpec) -> List[Row]:
    result = spec.build().run()
    tracked = result.tracked_jobs()
    return [dict(
        policy=spec.policy,
        jobs_per_hour=spec.jobs_per_hour,
        **_jct(result),
        avg_preemptions=sum(j.num_preemptions for j in tracked) / max(1, len(tracked)),
    )]


def elastic_load_row(spec: RunSpec) -> List[Row]:
    return [dict(policy=spec.policy, jobs_per_hour=spec.jobs_per_hour, **_jct(spec.build().run()))]


def placement_load_row(spec: RunSpec) -> List[Row]:
    result = spec.build().run()
    return [dict(
        placement=spec.placement,
        jobs_per_hour=spec.jobs_per_hour,
        **_jct(result),
        fragmented_jobs=sum(1 for job in result.tracked_jobs() if job.was_fragmented),
    )]


#: Fig. 11 row label of each placement.
PROFILE_LABELS = {"tiresias-placement": "tiresias", "tiresias-plus": "tiresias+"}


def placement_profile_row(spec: RunSpec) -> List[Row]:
    count = dict(spec.workload_params)["placement_sensitive_count"]
    return [dict(
        placement=PROFILE_LABELS[spec.placement],
        placement_sensitive_models=f"{count}/8",
        avg_jct_hours=_hours(spec.build().run().avg_jct()),
    )]


def admission_row(spec: RunSpec) -> List[Row]:
    return [dict(
        workload="philly+spikes" if spec.workload == "philly-spikes" else "philly",
        admission=spec.admission,
        **_jct(spec.build().run()),
    )]


LOADS_6_7 = RunSpec(
    seed=7, num_jobs=600, num_nodes=32, workload_params=_window(100, 250) + HEAVY_TAIL
)
LOADS_8_9 = RunSpec(
    workload="pollux", seed=3, num_jobs=320, num_nodes=16, workload_params=_window(60, 220)
)
LOADS_10 = RunSpec(
    policy="tiresias", seed=11, num_jobs=400, num_nodes=32, workload_params=_window(80, 220)
)
PROFILES_11 = RunSpec(policy="tiresias", seed=13, num_jobs=400, jobs_per_hour=8.0, num_nodes=32)
ADMISSION_12 = RunSpec(
    policy="las", seed=17, num_jobs=400, jobs_per_hour=8.0, num_nodes=32,
    workload_params=_window(80, 250) + HEAVY_TAIL,
)
#: Every Figs. 6-13 smoke run: 40 jobs, of which 5..30 are reported, on 4 nodes.
SMOKE_SIZE = dict(num_jobs=40, num_nodes=4)
ADMISSIONS = ("accept-all", "accept-1.5x", "accept-1.2x", "accept-1x")
PLACEMENTS_10 = ("tiresias-placement", "consolidated")


def _profiles(base: RunSpec, window, counts) -> Tuple[RunSpec, ...]:
    mixes = tuple(window + (("placement_sensitive_count", count),) for count in counts)
    return _sweep(base, workload_params=mixes, placement=tuple(PROFILE_LABELS))


def _admissions(philly: RunSpec) -> Tuple[RunSpec, ...]:
    # ``philly-spikes`` tracks the base trace's window by job id, so both
    # workloads report the same steady-state jobs.
    spiked = replace(
        philly,
        workload="philly-spikes",
        workload_params=philly.workload_params + (("jobs_per_spike", 16),),
    )
    return _sweep(philly, admission=ADMISSIONS) + _sweep(spiked, admission=ADMISSIONS)


FIG6_7 = Figure(
    name="fig6_7",
    description=cleandoc("""
        Figures 6 and 7: average JCT and responsiveness (hours) for FIFO, Tiresias
        and Optimus on the Philly trace as the arrival rate varies from 1 to 9
        jobs/hour on a 128-GPU cluster, consolidated placement for every policy.
        The paper's findings: Optimus wins on JCT at low load; at high load
        Tiresias' JCT exceeds FIFO's while its responsiveness stays low; FIFO's
        responsiveness is by far the worst at high load.
    """),
    full=_sweep(
        LOADS_6_7,
        jobs_per_hour=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0),
        policy=("fifo", "tiresias", "optimus"),
    ),
    smoke=_sweep(
        replace(LOADS_6_7, **SMOKE_SIZE, workload_params=_window(5, 30) + HEAVY_TAIL),
        jobs_per_hour=(2.0, 6.0),
        policy=("fifo", "tiresias", "optimus"),
    ),
    row=policy_load_row,
)
FIG8_9 = Figure(
    name="fig8_9",
    description=cleandoc("""
        Figures 8 and 9: average JCT and responsiveness (hours) for Pollux, FIFO and
        LAS on the Pollux trace as the arrival rate varies from 5 to 40 jobs/hour on
        64 GPUs (short jobs, so contention needs a higher rate to appear).  The
        paper's findings: at low and medium load Pollux's elastic allocations give
        it the best JCT with responsiveness on par with the others; past ~20
        jobs/hour its no-preemption design degrades both towards FIFO, while LAS
        keeps responsiveness low by preempting long jobs.
    """),
    full=_sweep(
        LOADS_8_9,
        jobs_per_hour=(5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0),
        policy=("fifo", "las", "pollux"),
    ),
    smoke=_sweep(
        replace(LOADS_8_9, **SMOKE_SIZE, workload_params=_window(5, 30)),
        jobs_per_hour=(10.0, 30.0),
        policy=("fifo", "las", "pollux"),
    ),
    row=elastic_load_row,
)
FIG10 = Figure(
    name="fig10",
    description=cleandoc("""
        Figure 10: average JCT and responsiveness (hours) of the Tiresias
        skew-heuristic placement vs consolidated placement on a V100/10 Gbps
        cluster as load varies, both under Tiresias scheduling.  The heuristic
        consolidates only high-skew jobs; on the P100/100 Gbps cluster it was
        designed for, fragmenting the other jobs is nearly free.  With more compute
        and less network, fragmenting any distributed job hurts, so blanket
        consolidation wins at higher loads.
    """),
    full=_sweep(
        LOADS_10, jobs_per_hour=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0), placement=PLACEMENTS_10
    ),
    smoke=_sweep(
        replace(LOADS_10, **SMOKE_SIZE, workload_params=_window(5, 30)),
        jobs_per_hour=(2.0, 6.0),
        placement=PLACEMENTS_10,
    ),
    row=placement_load_row,
)
FIG11 = Figure(
    name="fig11",
    description=cleandoc("""
        Figure 11: average JCT (hours) of the Tiresias skew heuristic vs
        profile-based Tiresias+ as the workload mix evolves so that 5, 6, 7 and
        finally all 8 of the Table-2 models benefit from consolidation.  The
        heuristic only identifies the first five; Tiresias+ consults profiled
        placement preferences, so it keeps consolidating the right jobs as the mix
        shifts and its advantage grows.
    """),
    full=_profiles(PROFILES_11, _window(80, 220), (5, 6, 7, 8)),
    smoke=_profiles(replace(PROFILES_11, **SMOKE_SIZE), _window(5, 30), (5, 8)),
    row=placement_profile_row,
)
FIG12_13 = Figure(
    name="fig12_13",
    description=cleandoc("""
        Figures 12 and 13: average JCT and responsiveness (hours) when composing
        FIFO admission control with LAS scheduling.  At high load LAS keeps
        responsiveness low but repeatedly preempts admitted jobs, inflating average
        JCT; admitting new jobs only while the admitted GPU demand is below N times
        the cluster size trades some responsiveness for a better JCT.  Figure 12
        runs the Philly trace at 8 jobs/hour; Figure 13 adds a spike of 16 short
        jobs during one hour of every day.
    """),
    full=_admissions(ADMISSION_12),
    # 2 jobs/h stretches the 40 jobs past hour 10, where the daily spike lands.
    smoke=_admissions(replace(
        ADMISSION_12, **SMOKE_SIZE, jobs_per_hour=2.0, workload_params=_window(5, 30) + HEAVY_TAIL
    )),
    row=admission_row,
)


# ----------------------------------------------------------------------
# Figs. 18-19: the deployment path
# ----------------------------------------------------------------------


def fidelity_row(spec: RunSpec) -> List[Row]:
    sim = spec.build().run()
    deployment = replace(spec, mode="runtime").build(overhead_model=ClusterOverheadModel(seed=1))
    cluster = deployment.run()
    sim_h, cluster_h = _hours(sim.avg_jct()), _hours(cluster.avg_jct())
    return [dict(
        policy=spec.policy,
        sim_avg_jct_hours=sim_h,
        cluster_avg_jct_hours=cluster_h,
        avg_jct_deviation=_deviation(cluster_h, sim_h),
        sim_p95_jct_hours=_hours(percentile(sim.jcts(), 95.0)),
        cluster_p95_jct_hours=_hours(percentile(cluster.jcts(), 95.0)),
        lease_rounds=len(deployment.lease_latencies_ms()),
    )]


class LeasePoint(NamedTuple):
    """One Fig. 19 measurement: a cluster size, a renewal protocol, a revoke count."""

    num_nodes: int
    protocol: str
    revocations: int


#: Fig. 19's cluster sizes (nodes of 4 GPUs) and revocations per round.
LEASE_SIZES = (4, 8, 16, 32, 64, 128)
LEASE_REVOCATIONS = (0, 2, 8)
GPUS_PER_NODE = 4


def lease_grid(sizes: Sequence[int], revocations: Sequence[int] = LEASE_REVOCATIONS):
    """Size-major, then protocol, then revocation count."""
    return tuple(
        LeasePoint(*point) for point in product(sizes, ("central", "optimistic"), revocations)
    )


def measure_lease_round(num_nodes: int, protocol: str, revocations: int) -> float:
    """Critical-path latency (ms) of one renewal round with ``revocations`` revokes.

    A fresh Fig. 19 setup (one single-GPU job per GPU) is built per
    measurement because a renewal round mutates lease state.  Revoked jobs
    are spread one per node so worker-side handling never serialises on a
    single node -- the scheduler side is what the figure compares.
    """
    manager, _workers, _channel = build_lease_setup(num_nodes, protocol=protocol)
    if revocations > num_nodes * GPUS_PER_NODE:
        raise ValueError("cannot revoke more jobs than were granted")
    # Round-robin across nodes: job ids are laid out GPUS_PER_NODE per node,
    # so node i % num_nodes contributes its (i // num_nodes)-th job.
    revoked = [(i % num_nodes) * GPUS_PER_NODE + i // num_nodes for i in range(revocations)]
    return manager.renewal_round(revoked)


def lease_row(point: LeasePoint) -> List[Row]:
    return [dict(
        protocol=point.protocol,
        num_nodes=point.num_nodes,
        num_gpus=point.num_nodes * GPUS_PER_NODE,
        revocations=point.revocations,
        latency_ms=measure_lease_round(*point),
    )]


#: Scheduling policy -> the placement it runs with in Fig. 18.
FIDELITY_PLACEMENTS = {
    "fifo": "consolidated",
    "srtf": "consolidated",
    "tiresias": "tiresias-placement",
}
FIDELITY = RunSpec(seed=0, num_jobs=60, jobs_per_hour=6.0, num_nodes=8)


def _fidelity(base: RunSpec) -> Tuple[RunSpec, ...]:
    return tuple(
        replace(base, policy=policy, placement=placement)
        for policy, placement in FIDELITY_PLACEMENTS.items()
    )


FIG18 = Figure(
    name="fig18",
    description=cleandoc("""
        Figure 18: simulation-vs-cluster fidelity of the shared scheduling loop --
        average and p95 JCT (hours) through plain simulation and through the
        deployment path, and their relative deviation per policy.  The paper runs
        identical workloads through the simulator and on a real cluster and reports
        under ~5 % average-JCT error.  Here the deployment path is the in-process
        CentralScheduler (RPC launch/preempt, optimistic leases) driven by the
        ClusterOverheadModel, which adds the profiled launch costs plus seeded
        run-to-run jitter -- the regime a real cluster exhibits.
    """),
    full=_fidelity(FIDELITY),
    smoke=_fidelity(replace(FIDELITY, num_jobs=12, num_nodes=4)),
    row=fidelity_row,
)
FIG19 = Figure(
    name="fig19",
    description=cleandoc("""
        Figure 19: lease-renewal scalability -- critical-path latency (ms) of one
        round of lease traffic, one single-GPU job per GPU, as the cluster grows.
        Central renewal serialises a check/renew pair per leased GPU on the
        scheduler, so its latency grows linearly with cluster size; optimistic
        renewal only touches revoked jobs (one scheduler-issued revoke each, peers
        reached worker-to-worker), so its latency depends on the revocation count
        alone and stays flat as the cluster scales.
    """),
    full=lease_grid(LEASE_SIZES),
    smoke=lease_grid((4, 8), (0, 2)),
    row=lease_row,
)


# ----------------------------------------------------------------------
# Federation scaling
# ----------------------------------------------------------------------


def federation_row(spec: RunSpec) -> List[Row]:
    result = spec.build().run()
    stats = result.pooled_stats()
    sim_days = max(shard.end_time for shard in result.shard_results) / 86400.0
    return [dict(
        router=spec.router,
        num_shards=spec.shards,
        workers=result.workers,
        wall_s=round(result.wall_time_s, 3),
        wall_s_per_sim_day=round(result.wall_time_s / sim_days, 4),
        routing_s=round(result.routing_time_s, 3),
        advance_s=round(result.advance_time_s, 3),
        makespan_h=round(_hours(stats.makespan), 2),
        avg_jct_h=round(_hours(stats.avg_jct), 2),
        p99_jct_h=round(_hours(stats.p99_jct), 2),
        finished=stats.count,
    )]


#: The seeded Philly benchmark workload as a federation: 600 jobs at 8/h on
#: 64 nodes; the smoke run is ``RunSpec``'s default 60 jobs at 4/h on 16.
FEDERATION = RunSpec(mode="federation", num_jobs=600, jobs_per_hour=8.0, num_nodes=64)
ROUTERS = ("round-robin", "queue-delay")

FEDERATION_SCALING = Figure(
    name="federation",
    description=cleandoc("""
        Federation scaling: the benchmark cluster (64 nodes; 16 in the smoke run)
        split into 1..8 equal shards, each running its own FIFO + consolidated
        scheduling loop, with a router distributing the seeded Philly workload
        across them.  Total GPU capacity and offered load are constant across the
        sweep, so the series isolates what sharding buys (smaller per-round
        scheduling and placement state, independently fast-forwarding shards --
        wall seconds per simulated day) and what it costs (loss of global placement
        freedom -- makespan and JCT inflation), and how much of that cost a
        predictive router recovers over the static baseline.  The shards run in
        this process.
    """),
    full=_sweep(FEDERATION, router=ROUTERS, shards=(1, 2, 4, 8)),
    smoke=_sweep(RunSpec(mode="federation", num_nodes=16), router=ROUTERS, shards=(1, 2)),
    row=federation_row,
    in_process=True,
)

FIGURES: Dict[str, Figure] = {
    figure.name: figure
    for figure in (
        FIG3, FIG4, FIG5, FIG6_7, FIG8_9, FIG10, FIG11, FIG12_13, FIG18, FIG19, FEDERATION_SCALING
    )
}
