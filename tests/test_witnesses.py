"""Hand-derived witnesses: expected values that come from arithmetic, not runs.

A parity gate compares two engines, and a golden hash compares a run with an
earlier one; neither can tell that both were wrong.  Each witness here sets
up a case small enough to work out on paper and checks the simulator against
that derivation, on the default engine and on the stepping reference
(``fast_forward=False``).
"""

import pytest

from repro.cluster.builder import build_cluster
from repro.core.job import Job
from repro.policies.scheduling.fifo import FifoScheduling
from repro.policies.termination import EpochBasedTermination, LossBasedTermination
from repro.simulator.engine import Simulator

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
