"""One federation shard: an independent cluster + policy stack, pausable.

A shard is a full Blox scheduling loop -- its own
:class:`~repro.core.cluster_state.ClusterState`, policy composition and
(optionally) scenario timeline -- that the federation engine can *pause* at
routing events and *resume* after submitting routed gangs.  Everything about
the loop (full rounds, skips,
``check_invariants``) is inherited unchanged from
:class:`~repro.simulator.engine.Simulator`, including the pause: the engine
bounds every skip by the ``stop_time`` of :meth:`ShardSimulator.run_until`, so
per-shard fast-forward stays active *between* routing events and stops,
exactly as for churn events, one round short of each one.  The shard adds
exactly two things:

* it starts with an **empty workload** and receives jobs via :meth:`submit`
  (``BloxManager.submit_job``), so from the shard's point of view a routed
  gang is indistinguishable from a trace job that was there from the start;
* while ``accepting`` is set, the shard's finish conditions
  (``_tracked_all_finished`` / ``_stalled``) are suppressed -- a shard that
  drained its current jobs merely idles (skipped rounds) until the next
  routing event, because more gangs may still be routed to it.
"""

from __future__ import annotations

from typing import Optional

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

__all__ = ["ShardSimulator"]


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
        super().__init__(
            cluster_state=cluster_state,
            jobs=(),
            scheduling_policy=scheduling_policy,
            placement_policy=placement_policy,
            admission_policy=admission_policy,
            cluster_manager=cluster_manager,
            tracked_job_ids=[],
            allow_empty_workload=True,
            **kwargs,
        )
        self.shard_id = shard_id
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
        been in the trace all along.  The engine bounds its skips by
        ``stop_time``, so fast-forward skips the gap but never the boundary
        round.
        """
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
        if not self._advance_loop(None):
            raise SimulationError(
                f"shard {self.shard_id} did not finish within {self.max_rounds} "
                "rounds; the routed workload is likely too large for the shard"
            )
        # Worker-process shards (factory trace_dir) must not rely on
        # interpreter exit to flush their trace files.
        self.flush_telemetry()
        return self.build_result()
