"""Timeline-driven cluster management that composes with fast-forward.

:class:`TimelineClusterManager` is the bridge between a compiled scenario's
event stream and the scheduling loop: it implements the two-method
:class:`~repro.core.abstractions.ClusterManager` contract -- ``update``
applies every event whose time has arrived, ``next_event_time`` exposes the
next pending event -- so the simulator's event-skipping fast-forward stays
active *between* churn events instead of being disabled by churn, and stops
exactly one round before each event so the event's round executes in full.

Determinism: the stream is fixed at construction, events at equal times keep
their compile order (stable sort), and nothing here draws randomness.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.abstractions import ClusterManager
from repro.core.cluster_state import ClusterState
from repro.scenarios.events import ClusterEvent

__all__ = ["TimelineClusterManager"]


class TimelineClusterManager(ClusterManager):
    """Applies a pre-compiled, sorted stream of cluster events."""

    name = "scenario-timeline"

    def __init__(self, events: Sequence[ClusterEvent]) -> None:
        self._events: List[ClusterEvent] = sorted(events, key=lambda e: e.time)
        self._next = 0
        #: Number of events applied so far.
        self.events_applied = 0
        #: Full applied records ``(time, event, affected job ids)`` for the
        #: telemetry drain; ``_drained`` is the cursor of what was already
        #: reported, so each firing is emitted exactly once even across
        #: checkpoint/restore (both lists pickle with the manager).
        self._applied_events: List[Tuple[float, ClusterEvent, Tuple[int, ...]]] = []
        self._drained = 0

    # ------------------------------------------------------------------
    # ClusterManager contract
    # ------------------------------------------------------------------

    def update(self, cluster_state: ClusterState, current_time: float) -> List[int]:
        """Apply every event due by ``current_time``; returns affected job ids."""
        affected: List[int] = []
        while self._next < len(self._events) and self._events[self._next].time <= current_time:
            event = self._events[self._next]
            self._next += 1
            ids = event.apply(cluster_state)
            self.events_applied += 1
            self._applied_events.append((current_time, event, tuple(ids)))
            for job_id in ids:
                if job_id not in affected:
                    affected.append(job_id)
        return affected

    def next_event_time(self, current_time: float) -> Optional[float]:
        """Time of the next pending event; ``None`` once the stream is drained.

        The engine consults this only after ``update`` ran at the current
        time, so the head of the stream is always strictly in the future --
        returning it re-enables fast-forward for the whole gap up to (one
        round short of) the event.
        """
        del current_time
        if self._next >= len(self._events):
            return None
        return self._events[self._next].time

    def drain_applied(self) -> List[Tuple[float, ClusterEvent, Tuple[int, ...]]]:
        """Applied events not yet reported to telemetry (cursor advances).

        Called by the engine once per round after :meth:`update`; the
        returned triples become ``cluster`` trace events.  Purely a read of
        already-recorded state -- draining (or never draining) cannot change
        the schedule.
        """
        out = self._applied_events[self._drained :]
        self._drained = len(self._applied_events)
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def pending_events(self) -> int:
        return len(self._events) - self._next

