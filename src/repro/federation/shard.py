"""One federation shard: an independent cluster + policy stack, pausable.

A shard is a full Blox scheduling loop -- its own
:class:`~repro.core.cluster_state.ClusterState`, policy composition and
(optionally) scenario timeline -- that the federation engine can *pause* at
routing events and *resume* after submitting routed gangs.  Everything about
the loop (full rounds, light rounds, steady strides, the gang drain chain,
``check_invariants``) is inherited unchanged from
:class:`~repro.simulator.engine.Simulator`; the shard adds exactly three
things:

* it starts with an **empty workload** and receives jobs via :meth:`submit`
  (``BloxManager.submit_job``), so from the shard's point of view a routed
  gang is indistinguishable from a trace job that was there from the start;
* a :class:`BoundedClusterManager` wraps the shard's cluster manager and
  additionally bounds ``next_event_time`` by the federation's next routing
  event, so per-shard event-skipping fast-forward stays active *between*
  routing events and stops, exactly as for churn events, one round short of
  each one;
* while ``accepting`` is set, the shard's finish conditions
  (``_tracked_all_finished`` / ``_stalled``) are suppressed -- a shard that
  drained its current jobs merely idles (cheap light rounds) until the next
  routing event, because more gangs may still be routed to it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.abstractions import (
    AdmissionPolicy,
    ClusterManager,
    PlacementPolicy,
    SchedulingPolicy,
)
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import SimulationError
from repro.core.job import Job
from repro.federation.router import ShardViewSummary, summarize_shard
from repro.simulator.engine import SimulationResult, Simulator

__all__ = ["BoundedClusterManager", "ShardSimulator"]


class BoundedClusterManager(ClusterManager):
    """Wraps a shard's cluster manager with a routing-event bound.

    ``update`` delegates to the inner manager (a scenario
    :class:`~repro.scenarios.timeline.TimelineClusterManager`, or the inert
    default); ``next_event_time`` returns the earlier of the inner manager's
    next event and the federation's next routing event (``bound``).  The
    bound is what keeps a shard's fast-forward *sound* under routing: the
    shard cannot see the global arrival stream, so without the bound it would
    skip straight past the round in which a routed gang must be admitted.
    Advertising the routing event as a cluster event makes every skip path
    (light rounds, steady strides, the drain chain) stop one round
    short of it for free, with no changes to the engine.
    """

    name = "federation-bounded"

    def __init__(self, inner: Optional[ClusterManager] = None) -> None:
        self.inner = inner if inner is not None else ClusterManager()
        #: Next routing event time, maintained by the federation engine
        #: (``None`` while draining, after all gangs are routed).
        self.bound: Optional[float] = None
        # Mirror the engine's migration check: an inner manager that overrides
        # update() without next_event_time() has unpredictable per-round
        # effects.  This wrapper overrides both, which would mask the check,
        # so the shard consults this flag and disables fast-forward itself.
        inner_cls = type(self.inner)
        self.inner_predictable = not (
            inner_cls.update is not ClusterManager.update
            and inner_cls.next_event_time is ClusterManager.next_event_time
        )

    def update(self, cluster_state: ClusterState, current_time: float) -> List[int]:
        return self.inner.update(cluster_state, current_time)

    def drain_applied(self):
        # Delegate so shard-scenario timeline firings reach the shard's
        # trace stream (the bound is routing metadata, not a cluster event).
        return self.inner.drain_applied()

    def next_event_time(self, current_time: float) -> Optional[float]:
        inner_next = self.inner.next_event_time(current_time)
        if self.bound is None:
            return inner_next
        if inner_next is None:
            return self.bound
        return min(inner_next, self.bound)


class ShardSimulator(Simulator):
    """A pausable :class:`Simulator` that receives its workload via routing."""

    def __init__(
        self,
        shard_id: int,
        cluster_state: ClusterState,
        scheduling_policy: SchedulingPolicy,
        placement_policy: Optional[PlacementPolicy] = None,
        admission_policy: Optional[AdmissionPolicy] = None,
        cluster_manager: Optional[ClusterManager] = None,
        **kwargs,
    ) -> None:
        bounded = BoundedClusterManager(cluster_manager)
        super().__init__(
            cluster_state=cluster_state,
            jobs=(),
            scheduling_policy=scheduling_policy,
            placement_policy=placement_policy,
            admission_policy=admission_policy,
            cluster_manager=bounded,
            tracked_job_ids=[],
            allow_empty_workload=True,
            **kwargs,
        )
        self.shard_id = shard_id
        self.bounded_manager = bounded
        if not bounded.inner_predictable:
            # The wrapper overrides both ClusterManager hooks, so the base
            # class could not see that the *inner* manager's events are
            # unpredictable; apply its auto-disable rule here.
            self.fast_forward = False
        #: While True the shard may still receive routed gangs: finish
        #: conditions are suppressed and ``run_until`` merely pauses.
        self.accepting = True

    # ------------------------------------------------------------------
    # Finish conditions are deferred while the shard still accepts gangs
    # ------------------------------------------------------------------

    def _tracked_all_finished(self) -> bool:
        if self.accepting:
            return False
        return super()._tracked_all_finished()

    def _stalled(self) -> bool:
        if self.accepting:
            return False
        return super()._stalled()

    # ------------------------------------------------------------------
    # Federation driver API
    # ------------------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Route a gang to this shard (must be called while paused)."""
        if not self.accepting:
            raise SimulationError(
                f"shard {self.shard_id} is draining; cannot route job {job.job_id}"
            )
        self.manager.submit_job(job)
        self.jobs.append(job)
        self.tracked_job_ids.append(job.job_id)

    def view_summary(self) -> ShardViewSummary:
        """Routing digest of this shard at its current pause point.

        Both federation backends feed routers exactly this -- the local one
        reads it in-process, a pool worker sends it back over the pipe -- so
        routing inputs are bit-identical in both modes.  At a pause the arrival queue is always empty (the preceding
        arrival round popped every previously routed gang), so the queue terms
        start at zero and the engine layers same-round gangs on via
        :meth:`ShardViewSummary.with_queued`.
        """
        return summarize_shard(
            shard_id=self.shard_id,
            cluster_state=self.cluster_state,
            job_state=self.job_state,
            current_time=self.manager.current_time,
            queued_jobs=tuple(self.manager.queued_jobs()),
        )

    def run_until(self, stop_time: float) -> None:
        """Advance the shard's loop, pausing before the round at ``stop_time``.

        The pause lands at the top of the first round whose start time is
        ``>= stop_time`` -- i.e. exactly before the round in which a gang
        arriving at ``stop_time`` would be popped from the wait queue -- so a
        subsequent :meth:`submit` is indistinguishable from the gang having
        been in the trace all along.  The routing bound feeds
        ``next_event_time`` so fast-forward skips the gap but never the
        boundary round.
        """
        self.bounded_manager.bound = stop_time
        finished = self._advance_loop(stop_time)
        if finished:
            # accepting suppresses every finish condition, and a paused loop
            # returns False; anything else is a driver bug.
            raise SimulationError(
                f"shard {self.shard_id} finished while still accepting gangs"
            )
        if self.manager.round_number >= self.max_rounds:
            raise SimulationError(
                f"shard {self.shard_id} exhausted its round budget "
                f"({self.max_rounds}) before reaching time {stop_time}"
            )

    def finish(self) -> SimulationResult:
        """Stop accepting gangs and run the shard to completion."""
        self.accepting = False
        self.bounded_manager.bound = None
        if not self._advance_loop(None):
            raise SimulationError(
                f"shard {self.shard_id} did not finish within {self.max_rounds} "
                "rounds; the routed workload is likely too large for the shard"
            )
        # Worker-process shards (factory trace_dir) must not rely on
        # interpreter exit to flush their trace files.
        self.flush_telemetry()
        return self.build_result()
