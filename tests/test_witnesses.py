"""Hand-derived witnesses: expected values that come from arithmetic, not runs.

A parity gate compares two engines, and a golden hash compares a run with an
earlier one; neither can tell that both were wrong.  Each witness here sets
up a case small enough to work out on paper and checks the simulator against
that derivation, on the default engine and on the stepping reference
(``fast_forward=False``) -- and the scheduling witnesses also on the
deployment path (``CentralScheduler`` with the simulation overhead model).
"""

import pytest

from repro.bench.legacy import LegacyGavelScheduling
from repro.cluster.builder import build_cluster
from repro.cluster.node import Node
from repro.core.cluster_state import ClusterState
from repro.core.job import Job, JobStatus
from repro.core.job_state import JobState
from repro.policies.scheduling import (
    FifoScheduling,
    GavelScheduling,
    SrtfScheduling,
    TiresiasScheduling,
)
from repro.policies.termination import EpochBasedTermination, LossBasedTermination
from repro.runtime.central_scheduler import CentralScheduler
from repro.simulator.engine import Simulator
from repro.simulator.overheads import OverheadModel

DURATION = 7_200.0
#: The default ``OverheadModel``'s generic launch overhead.
LAUNCH_S = 20.0
FRACTIONS = (0.4, 1.0, 0.01)


def _completions(termination, fast_forward):
    jobs = [
        Job(arrival_time=0.0, num_gpus=1, duration=DURATION, convergence_fraction=f)
        for f in FRACTIONS
    ]
    sim = Simulator(
        build_cluster(num_nodes=1, gpus_per_node=4),
        jobs,
        FifoScheduling(),
        termination_policy=termination,
        fast_forward=fast_forward,
    )
    sim.run()
    sim.cluster_state.check_invariants()
    sim.job_state.check_invariants()
    return [job.completion_time for job in jobs]


@pytest.mark.parametrize("fast_forward", [True, False], ids=["default", "stepping"])
def test_loss_based_termination_finishes_at_the_converged_fraction(fast_forward):
    """Blox section 5.3: a job ends once its loss converges, not after every epoch.

    One idle 4-GPU V100 node and three 1-GPU jobs arriving at 0, so FIFO
    launches all three in the first round on one GPU each: speed 1.0 (one
    GPU, no cross-node link, no CPU throttle).  A launch first pays the
    default 20 s generic overhead, then runs at that speed until the work
    target ``duration * max(min_fraction, min(1, convergence_fraction))``
    with the default ``min_fraction`` 0.05:

    * 0.4  -> 20 + 0.4  * 7200 = 2900 s;
    * 1.0  -> 20 + 1.0  * 7200 = 7220 s;
    * 0.01 -> held at the floor, 20 + 0.05 * 7200 = 380 s.
    """
    assert _completions(LossBasedTermination(), fast_forward) == [2_900.0, 7_220.0, 380.0]


@pytest.mark.parametrize("fast_forward", [True, False], ids=["default", "stepping"])
def test_epoch_based_termination_ignores_convergence(fast_forward):
    """The same three jobs under the default policy run their full 7200 s of
    work after the 20 s launch: 7220 s each, whatever their convergence."""
    assert _completions(EpochBasedTermination(), fast_forward) == [7_220.0] * 3


# ----------------------------------------------------------------------
# Scheduling on one idle node
# ----------------------------------------------------------------------
#
# Shared arithmetic: one idle 4-GPU V100 node, 300 s rounds, every job
# arriving at 0.  A job runs at speed 1.0 on its requested GPUs (one node,
# so no cross-node term; no CPU throttle); a launch pays the default 20 s
# generic overhead first; a job is launched only at a round boundary, the
# first one at or after the GPUs it needs are freed.

ENGINES = ("default", "stepping", "runtime")
ROUND_S = 300.0


def _schedule(jobs, policy, engine):
    """Run ``jobs`` on one idle 4-GPU node; ``{job_id: (start, completion)}``."""
    cluster = build_cluster(num_nodes=1, gpus_per_node=4)
    if engine == "runtime":
        scheduler = CentralScheduler(cluster, jobs, policy, overhead_model=OverheadModel())
        scheduler.run()
        job_state = scheduler._simulator.job_state
        assert scheduler.leaked_leases() == 0
    else:
        sim = Simulator(cluster, jobs, policy, fast_forward=engine == "default")
        sim.run()
        job_state = sim.job_state
    cluster.check_invariants()
    job_state.check_invariants()
    return {job.job_id: (job.first_schedule_time, job.completion_time) for job in jobs}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", [FifoScheduling, TiresiasScheduling], ids=["fifo", "tiresias"])
@pytest.mark.parametrize("gpus", [1, 4])
def test_isolated_job_finishes_after_its_launch_and_its_work(gpus, policy, engine):
    """Alone on the node, a 7200 s job with 1 or 4 GPUs fits at once: it
    launches in round 0 at t = 0 and ends at 0 + 20 + 7200 = 7220 s, under
    FIFO and under Tiresias (nothing to order, nothing to demote against)."""
    job = Job(arrival_time=0.0, num_gpus=gpus, duration=DURATION, job_id=0)
    assert _schedule([job], policy(), engine) == {0: (0.0, 7_220.0)}


def _two_full_node_jobs():
    # The long job has the lower id, so FIFO's (arrival, id) order runs it first.
    return [
        Job(arrival_time=0.0, num_gpus=4, duration=7_200.0, job_id=0),
        Job(arrival_time=0.0, num_gpus=4, duration=3_600.0, job_id=1),
    ]


@pytest.mark.parametrize("engine", ENGINES)
def test_fifo_runs_two_full_node_jobs_back_to_back_on_round_boundaries(engine):
    """Two 4-GPU jobs fill the node one at a time.  FIFO launches the first
    arrival (the 7200 s job) at 0: it ends at 20 + 7200 = 7220 s.  The freed
    GPUs go out at the next round boundary, ceil(7220 / 300) * 300 = 7500 s,
    so the 3600 s job ends at 7500 + 20 + 3600 = 11120 s."""
    assert _schedule(_two_full_node_jobs(), FifoScheduling(), engine) == {
        0: (0.0, 7_220.0),
        1: (7_500.0, 11_120.0),
    }


@pytest.mark.parametrize("engine", ENGINES)
def test_srtf_runs_the_short_job_first(engine):
    """SRTF orders by remaining work, so the 3600 s job runs first: it ends
    at 20 + 3600 = 3620 s.  The next boundary is ceil(3620 / 300) * 300 =
    3900 s, where the 7200 s job launches and ends at 3900 + 20 + 7200 =
    11120 s -- the same makespan as FIFO, a shorter mean."""
    assert _schedule(_two_full_node_jobs(), SrtfScheduling(), engine) == {
        0: (3_900.0, 11_120.0),
        1: (0.0, 3_620.0),
    }


def _long_and_short_full_node_jobs():
    # The long job has the lower id, so it runs first on an (arrival, id) tie.
    return [
        Job(arrival_time=0.0, num_gpus=4, duration=7_200.0, job_id=0),
        Job(arrival_time=0.0, num_gpus=4, duration=600.0, job_id=1),
    ]


@pytest.mark.parametrize("engine", ENGINES)
def test_tiresias_demotes_the_long_job_at_its_queue_threshold(engine):
    """Both jobs start in queue 0 (below 3600 GPU-s), so the 7200 s job A
    (id 0) launches at 0.  Its service counts the 20 s launch, 4 GPU-s per
    second, so it reaches the first threshold, 3600 GPU-s, at 3600 / 4 =
    900 s, a round boundary: A drops to queue 1 there with 900 - 20 = 880 s
    of work done, and the 600 s job B, still in queue 0, preempts it.  B
    ends at 900 + 20 + 600 = 1520 s.  The next boundary is ceil(1520 /
    300) * 300 = 1800 s, where A relaunches paying its 15 s checkpoint
    restore and the 20 s launch, then runs its 7200 - 880 = 6320 s left:
    it ends at 1800 + 35 + 6320 = 8155 s after one preemption."""
    jobs = _long_and_short_full_node_jobs()
    assert _schedule(jobs, TiresiasScheduling(), engine) == {
        0: (0.0, 8_155.0),
        1: (900.0, 1_520.0),
    }
    assert [job.num_preemptions for job in jobs] == [1, 0]


@pytest.mark.parametrize("engine", ENGINES)
def test_fifo_never_preempts_the_long_job(engine):
    """The contrast case: FIFO runs A (id 0) 0 -> 20 + 7200 = 7220 s, then
    B at the next boundary, ceil(7220 / 300) * 300 = 7500 s, to 7500 + 20 +
    600 = 8120 s."""
    jobs = _long_and_short_full_node_jobs()
    assert _schedule(jobs, FifoScheduling(), engine) == {
        0: (0.0, 7_220.0),
        1: (7_500.0, 8_120.0),
    }
    assert [job.num_preemptions for job in jobs] == [0, 0]


def test_gavel_normalises_a_gang_by_its_slowest_held_type():
    """A v100 node (GPUs 0-1, factor 1.0) and a k80 node (GPUs 2-3, factor
    0.3).  Gang G (4 GPUs, 1000 GPU-s attained) runs on both, so it runs at
    the k80's speed: normalised service 1000 x 0.3 = 300.  Idle W (2 GPUs,
    500 GPU-s) is normalised by the best type present, v100: 500 x 1.0 =
    500.  Gavel orders by the lower value, so G comes first -- in the policy
    and in its sort-based reference."""
    cluster = ClusterState()
    cluster.add_node(Node(node_id=0, num_gpus=2, gpu_type_name="v100"))
    cluster.add_node(Node(node_id=1, num_gpus=2, gpu_type_name="k80"))
    gang = Job(arrival_time=0.0, num_gpus=4, duration=DURATION, job_id=0)
    waiting = Job(arrival_time=0.0, num_gpus=2, duration=DURATION, job_id=1)
    job_state = JobState()
    job_state.add_new_jobs([gang, waiting])
    cluster.assign(gang.job_id, [0, 1, 2, 3])
    gang.allocated_gpus = [0, 1, 2, 3]
    gang.status = JobStatus.RUNNING
    gang.attained_service = 1_000.0
    waiting.attained_service = 500.0
    assert cluster.allocation(gang.job_id).compute_factor == 0.3
    for policy in (GavelScheduling(), LegacyGavelScheduling()):
        order = [entry.job_id for entry in policy.schedule(job_state, cluster)]
        assert order == [gang.job_id, waiting.job_id], type(policy).__name__


# ----------------------------------------------------------------------
# The application metrics
# ----------------------------------------------------------------------
#
# ``job.metrics`` derives five values from the job's progress and the rate r
# of its latest round that made progress: ``progress`` = work_done /
# duration, ``loss`` = 10 * 0.01 ** min(1, progress / convergence_fraction),
# ``iteration_time`` = job.iteration_time / r, ``throughput`` =
# r / job.iteration_time and ``attained_service`` (GPU-seconds held, the
# launch overhead included).  A job alone on the node runs at r = 1.0, and
# its iteration time is the default 1.0 s.


@pytest.mark.parametrize("engine", ENGINES)
def test_an_isolated_job_ends_with_the_metrics_of_its_whole_run(engine):
    """The isolated 1-GPU 7200 s job above ends at 7220 s with all its work
    done: progress 7200 / 7200 = 1.0, loss 10 * 0.01 ** min(1, 1.0 / 1.0) =
    0.1, iteration time 1.0 / 1.0 = 1.0 s, throughput 1.0 / 1.0 = 1.0
    iteration/s, and 1 GPU held for 20 + 7200 = 7220 GPU-seconds."""
    job = Job(arrival_time=0.0, num_gpus=1, duration=DURATION, job_id=0)
    assert _schedule([job], FifoScheduling(), engine) == {0: (0.0, 7_220.0)}
    assert dict(job.metrics) == {
        "loss": 0.1,
        "progress": 1.0,
        "iteration_time": 1.0,
        "throughput": 1.0,
        "attained_service": 7_220.0,
    }


class ArrivalReadingFifo(FifoScheduling):
    """FIFO that reads job 1's metric bus in the round job 2 first shows up."""

    def __init__(self):
        super().__init__()
        self.seen = None

    def schedule(self, job_state, cluster_state):
        if self.seen is None and 2 in job_state:
            self.seen = dict(job_state.get(1).metrics)
        return super().schedule(job_state, cluster_state)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_policy_reads_the_metrics_of_the_rounds_run_so_far(engine):
    """Job 1 (7200 s, convergence fraction 0.5) launches at 0; job 2 (600 s)
    arrives at 3600 s, so every engine runs that round in full and calls
    ``schedule``, with no call to make first.  Job 1 has then run rounds
    0-11: 3600 s on its GPU, 20 s of them the launch, so work 3580 s,
    progress 3580 / 7200, loss 10 * 0.01 ** min(1, (3580 / 7200) / 0.5) =
    10 * 0.01 ** (3580 / 3600), attained service 1 * 3600 = 3600
    GPU-seconds, and rate 1.0.  Job 2 takes a free GPU at once and ends at
    3600 + 20 + 600 = 4220 s."""
    jobs = [
        Job(arrival_time=0.0, num_gpus=1, duration=DURATION, convergence_fraction=0.5, job_id=1),
        Job(arrival_time=3_600.0, num_gpus=1, duration=600.0, job_id=2),
    ]
    policy = ArrivalReadingFifo()
    assert _schedule(jobs, policy, engine) == {1: (0.0, 7_220.0), 2: (3_600.0, 4_220.0)}
    assert policy.seen == {
        "loss": 10.0 * 0.01 ** (3_580.0 / 3_600.0),
        "progress": 3_580.0 / 7_200.0,
        "iteration_time": 1.0,
        "throughput": 1.0,
        "attained_service": 3_600.0,
    }
