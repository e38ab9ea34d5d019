"""The four benchmark workloads: seeded inputs and the engine that runs them.

Every builder goes through the public entry points
(``repro.simulator.engine.Simulator``, ``repro.runtime.central_scheduler.
CentralScheduler``) and passes **no optional engine knob**: whatever the
defaults are is what gets measured.  The only caller that passes one is the
differential oracle in ``child.py`` (``fast_forward=False``), outside every
timed region.  Nothing is imported from ``repro.bench``.

Inputs come from the public generators with the run's ``--seed``; load is set
by the generators' own parameters (job count, arrival rate, duration
distribution) and nowhere else.  Duration tails are clamped well below each
horizon, so a run's length is set by its arrivals and not by its single longest
job: the benchmark is accepted by comparing runs made with different seeds.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

HOUR = 3600.0
DAY = 86400.0


@dataclass
class Built:
    """A constructed engine plus the layer instances the tracer wraps."""

    engine: object  # Simulator or CentralScheduler; the measured call is .run()
    scheduling: object
    placement: object
    admission: object
    num_jobs: int


class SetupTimer:
    """Accumulates the set-up spans (``*.s``) of one child process."""

    def __init__(self) -> None:
        self.spans: Dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name] = self.spans.get(name, 0.0) + time.perf_counter() - start


def _scaled(count: int, scale: float) -> int:
    return max(20, int(round(count * scale)))


# Decision-heavy regime of Blox Fig. 8-9.  Jobs arrive at ~1.7x what 1024 GPUs
# can serve, so a backlog of thousands builds and then drains: every round of
# the busy period is a full round with long Tiresias queues, priority
# preemption and consolidated placement over 256 nodes.  Policy, placement,
# launch and ``ExecutionModel.advance`` work shows here; skip-executor work
# must not (only the final gang-steady drain is skipped).
def build_philly_contended(seed: int, scale: float, timer: SetupTimer, **knobs) -> Built:
    from repro.cluster.builder import build_cluster
    from repro.policies.admission.accept_all import AcceptAll
    from repro.policies.placement.consolidated import ConsolidatedPlacement
    from repro.policies.scheduling import TiresiasScheduling
    from repro.simulator.engine import Simulator
    from repro.workloads.philly import generate_philly_trace

    num_jobs = _scaled(7200, scale)
    with timer.span("workloads.generate.s"):
        jobs = generate_philly_trace(
            num_jobs=num_jobs,
            jobs_per_hour=230.0,
            seed=seed,
            median_duration_hours=2.0,
            duration_sigma=1.0,
            max_duration_hours=12.0,
        ).jobs
    with timer.span("cluster.build.s"):
        cluster = build_cluster(256)
    policies = (TiresiasScheduling(), ConsolidatedPlacement(), AcceptAll())
    with timer.span("simulator.construct.s"):
        engine = Simulator(cluster, jobs, *policies, round_duration=300.0, **knobs)
    return Built(engine, *policies, num_jobs=num_jobs)


# The mirror image: 8 % load on 256 GPUs over ~100 simulated days of 60 s
# rounds.  More than 98 % of the ~150k rounds are skipped, so the skip
# executors, ``RoundRecord`` construction and the round log (which dominates
# RSS) are nearly all of the wall time.  The "one engine / integer clock" item
# and any round-record or memory work show here and nowhere else.  The size
# stays below the default ``max_rounds`` (200k) so no knob is needed.
def build_philly_longhorizon(seed: int, scale: float, timer: SetupTimer, **knobs) -> Built:
    from repro.cluster.builder import build_cluster
    from repro.policies.admission.accept_all import AcceptAll
    from repro.policies.placement.consolidated import ConsolidatedPlacement
    from repro.policies.scheduling import FifoScheduling
    from repro.simulator.engine import Simulator
    from repro.workloads.philly import generate_philly_trace

    num_jobs = _scaled(2400, scale)
    with timer.span("workloads.generate.s"):
        jobs = generate_philly_trace(
            num_jobs=num_jobs,
            jobs_per_hour=1.0,
            seed=seed,
            median_duration_hours=5.0,
            duration_sigma=1.0,
            max_duration_hours=60.0,
        ).jobs
    with timer.span("cluster.build.s"):
        cluster = build_cluster(64)
    policies = (FifoScheduling(), ConsolidatedPlacement(), AcceptAll())
    with timer.span("simulator.construct.s"):
        engine = Simulator(cluster, jobs, *policies, round_duration=60.0, **knobs)
    return Built(engine, *policies, num_jobs=num_jobs)


# The same scheduling/placement/launch layers used differently: Pollux
# re-allocates elastically every full round (memoised goodput curves), the node
# set changes under it (Bernoulli churn, spot waves, alternating scale-out of
# v100/a100 nodes and scale-in) and evicts running jobs, and fast-forward goes
# through the decision-stable ``next_policy_event_time`` path instead of the
# gang chain.  A gain for gang policies that costs elastic ones, or a cache
# that is wrong under churn, shows here.
def build_churn_elastic(seed: int, scale: float, timer: SetupTimer, **knobs) -> Built:
    from repro.cluster.builder import ClusterSpec
    from repro.policies.admission.accept_all import AcceptAll
    from repro.policies.placement.consolidated import ConsolidatedPlacement
    from repro.policies.scheduling import PolluxScheduling
    from repro.scenarios.spec import (
        BernoulliChurn,
        ScaleIn,
        ScaleOut,
        ScenarioSpec,
        SpotWave,
        WorkloadSpec,
    )
    from repro.simulator.engine import Simulator

    num_jobs = _scaled(4800, scale)
    jobs_per_hour = 8.0
    # The timeline covers the arrivals plus the drain of the last jobs.
    horizon_s = num_jobs / jobs_per_hour * HOUR + 2.0 * DAY
    round_s = 300.0
    timeline: List = [
        BernoulliChurn(
            failure_prob=0.0015,
            recovery_prob=0.05,
            horizon_rounds=int(horizon_s / round_s),
        ),
        SpotWave(
            at=6.0 * HOUR,
            fraction=0.25,
            outage=1.0 * HOUR,
            period=12.0 * HOUR,
            repeat=max(1, int(horizon_s / (12.0 * HOUR))),
        ),
    ]
    for index in range(max(1, int(horizon_s / DAY))):
        # Alternate v100 / a100 so the pool turns heterogeneous and back.
        timeline.append(
            ScaleOut(
                at=(index + 0.25) * DAY,
                num_nodes=8,
                gpu_type="a100" if index % 2 else "v100",
            )
        )
        timeline.append(ScaleIn(at=(index + 0.75) * DAY, num_nodes=8))
    spec = ScenarioSpec(
        name="churn-elastic",
        cluster=ClusterSpec(num_nodes=64),
        workload=WorkloadSpec(
            "philly",
            num_jobs=num_jobs,
            jobs_per_hour=jobs_per_hour,
            params=(
                ("median_duration_hours", 4.5),
                ("duration_sigma", 0.8),
                ("max_duration_hours", 16.0),
            ),
        ),
        timeline=tuple(timeline),
        round_duration=round_s,
    )
    with timer.span("scenarios.compile.s"):  # generates the trace too
        compiled = spec.compile(seed)
    with timer.span("cluster.build.s"):
        cluster = compiled.build_cluster()
    policies = (PolluxScheduling(), ConsolidatedPlacement(), AcceptAll())
    with timer.span("simulator.construct.s"):
        engine = Simulator(
            cluster,
            compiled.trace.jobs,
            *policies,
            round_duration=round_s,
            cluster_manager=compiled.make_cluster_manager(),
            **knobs,
        )
    return Built(engine, *policies, num_jobs=num_jobs)


# The deployment path of Blox section 3 / Fig. 18-19: the same loop, but
# launches, preemptions and completions go through the optimistic lease
# protocol over the in-memory RPC channel and every round pulls worker metrics
# from all 64 WorkerManagers.  Collectors disable strides, so the *light-round*
# skip path runs too.  RPC, lease and collector work shows here and is absent
# from the three simulator workloads.  ``OverheadModel()`` is the deterministic
# overhead model (the default cluster model draws jitter), a model input rather
# than an engine knob.
def build_runtime_leases(seed: int, scale: float, timer: SetupTimer, **knobs) -> Built:
    from repro.cluster.builder import build_cluster
    from repro.policies.admission.accept_all import AcceptAll
    from repro.policies.placement.consolidated import ConsolidatedPlacement
    from repro.policies.scheduling import TiresiasScheduling
    from repro.runtime.central_scheduler import CentralScheduler
    from repro.simulator.overheads import OverheadModel
    from repro.workloads.philly import generate_philly_trace

    num_jobs = _scaled(4000, scale)
    with timer.span("workloads.generate.s"):
        jobs = generate_philly_trace(
            num_jobs=num_jobs,
            jobs_per_hour=60.0,
            seed=seed,
            median_duration_hours=2.0,
            duration_sigma=0.7,
            max_duration_hours=6.0,
        ).jobs
    with timer.span("cluster.build.s"):
        cluster = build_cluster(64)
    policies = (TiresiasScheduling(), ConsolidatedPlacement(), AcceptAll())
    with timer.span("runtime.construct.s"):
        engine = CentralScheduler(
            cluster,
            jobs,
            *policies,
            round_duration=300.0,
            overhead_model=OverheadModel(),
            **knobs,
        )
    return Built(engine, *policies, num_jobs=num_jobs)


BUILDERS: Dict[str, Callable[..., Built]] = {
    "philly-contended": build_philly_contended,
    "philly-longhorizon": build_philly_longhorizon,
    "churn-elastic": build_churn_elastic,
    "runtime-leases": build_runtime_leases,
}


def build(name: str, seed: int, scale: float, timer: Optional[SetupTimer] = None, **knobs) -> Built:
    return BUILDERS[name](seed, scale, timer or SetupTimer(), **knobs)
