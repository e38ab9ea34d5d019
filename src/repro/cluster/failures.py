"""Failure injection for the cluster-management abstraction.

The cluster management abstraction in Blox is responsible for detecting failed
nodes and removing them from the schedulable pool.  For simulation we inject
failures (and optional recoveries) with a seeded random process so tests are
deterministic.

Two ways to run the same process:

* :meth:`FailureInjector.step` -- the original per-round form: called once per
  scheduling round with the live cluster, drawing one Bernoulli sample per
  node per round.  Using it forces every round to execute (the simulator
  cannot predict when the next failure lands), which throws away the
  event-skipping speedups.
* :meth:`FailureInjector.compile_timeline` -- the timeline-compiling adapter:
  pre-samples the *entire* process with the same seed and the exact same draw
  order, producing a deterministic stream of
  :class:`~repro.scenarios.events.ClusterEvent`s.  Driven through a
  :class:`~repro.scenarios.timeline.TimelineClusterManager`, the schedule is
  identical to per-round stepping (see the parity test in
  ``tests/test_failure_timeline.py``) while fast-forward stays active between
  the pre-sampled failures.

Seed semantics (shared by both forms): one ``random.Random(seed)`` stream;
each round visits nodes in id order and draws exactly one sample per node --
a failure check for healthy nodes, a recovery check for failed ones.  The
health evolution seen by the draws is the injector's own (nothing else fails
or recovers nodes in between), which is what makes pre-sampling exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Sequence

from repro.core.cluster_state import ClusterState
from repro.core.exceptions import ConfigurationError

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.scenarios.events import ClusterEvent
    from repro.scenarios.timeline import TimelineClusterManager


@dataclass
class FailureInjector:
    """Randomly fails (and recovers) nodes at each scheduling round.

    ``failure_prob`` is the per-node probability of failing in a given round;
    ``recovery_prob`` the per-round probability that a failed node comes back.
    With the defaults (both 0) the injector is a no-op, which is what the
    paper's main experiments assume.
    """

    failure_prob: float = 0.0
    recovery_prob: float = 0.0
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_prob <= 1.0:
            raise ConfigurationError("failure_prob must be in [0, 1]")
        if not 0.0 <= self.recovery_prob <= 1.0:
            raise ConfigurationError("recovery_prob must be in [0, 1]")
        self._rng = random.Random(self.seed)

    def step(self, cluster_state: ClusterState) -> List[int]:
        """Apply one round of failures/recoveries; returns job ids to reschedule."""
        affected_jobs: List[int] = []
        if self.failure_prob == 0.0 and self.recovery_prob == 0.0:
            return affected_jobs
        for node in list(cluster_state.nodes.values()):
            if not node.failed and self._rng.random() < self.failure_prob:
                affected_jobs.extend(cluster_state.mark_node_failed(node.node_id))
            elif node.failed and self._rng.random() < self.recovery_prob:
                # Go through the indexed API so the cluster's cached free-GPU
                # counters stay consistent with node health.
                cluster_state.mark_node_recovered(node.node_id)
        return affected_jobs

    # ------------------------------------------------------------------
    # Timeline compilation
    # ------------------------------------------------------------------

    def compile_timeline(
        self,
        node_ids: Sequence[int],
        round_duration: float,
        num_rounds: int,
        start_round: int = 0,
    ) -> List["ClusterEvent"]:
        """Pre-sample ``num_rounds`` rounds of the process into concrete events.

        Replays exactly the draw sequence :meth:`step` would consume when
        called once per round starting at round ``start_round`` (time
        ``start_round * round_duration``) on a cluster whose nodes are
        ``node_ids`` in iteration order: per round, one draw per node -- a
        failure check while healthy, a recovery check while failed -- against
        a private health ledger seeded all-healthy.  A fresh
        ``random.Random(self.seed)`` is used, so compiling does not perturb
        (and is not perturbed by) any interleaved :meth:`step` calls.

        Returns, per round that changed anything, a
        :class:`~repro.scenarios.events.NodeFailureEvent` and/or
        :class:`~repro.scenarios.events.NodeRecoveryEvent` stamped with the
        round's start time.  Within a round the failure event precedes the
        recovery event; both list nodes in draw order, so the affected-job
        ids reported when the timeline is applied match what interleaved
        per-node :meth:`step` processing reports (distinct nodes' health
        changes commute, and only failures report affected jobs).
        """
        from repro.scenarios.events import ClusterEvent, NodeFailureEvent, NodeRecoveryEvent

        if round_duration <= 0:
            raise ConfigurationError(f"round_duration must be > 0, got {round_duration}")
        if num_rounds < 0:
            raise ConfigurationError(f"num_rounds must be >= 0, got {num_rounds}")
        events: List[ClusterEvent] = []
        if self.failure_prob == 0.0 and self.recovery_prob == 0.0:
            return events
        rng = random.Random(self.seed)
        failed = {node_id: False for node_id in node_ids}
        for round_number in range(start_round, start_round + num_rounds):
            time = round_number * round_duration
            fails: List[int] = []
            recoveries: List[int] = []
            for node_id in node_ids:
                if not failed[node_id] and rng.random() < self.failure_prob:
                    failed[node_id] = True
                    fails.append(node_id)
                elif failed[node_id] and rng.random() < self.recovery_prob:
                    failed[node_id] = False
                    recoveries.append(node_id)
            if fails:
                events.append(NodeFailureEvent(time=time, node_ids=tuple(fails)))
            if recoveries:
                events.append(NodeRecoveryEvent(time=time, node_ids=tuple(recoveries)))
        return events

    def as_cluster_manager(
        self,
        node_ids: Sequence[int],
        round_duration: float,
        num_rounds: int,
        start_round: int = 0,
    ) -> "TimelineClusterManager":
        """Timeline cluster manager driving the pre-sampled failure process.

        Drop-in for wiring the injector into a
        :class:`~repro.simulator.engine.Simulator`: unlike per-round
        :meth:`step` calls, the resulting manager exposes
        ``next_event_time`` so event-skipping stays enabled between failures.
        """
        from repro.scenarios.timeline import TimelineClusterManager

        return TimelineClusterManager(
            self.compile_timeline(node_ids, round_duration, num_rounds, start_round)
        )
