"""Per-layer spans recorded from outside the program under test.

The tracer wraps the public callables of each layer **on the constructed
instances** (instance attributes shadow the class methods), so nothing under
``src/`` is edited and the ``type(policy).method is Base.method`` contract
checks in ``Simulator.__init__`` are unaffected.  Hooks are resolved with
``getattr`` at wrap time: a hook a later refactor removed is reported as
``None`` instead of failing, so end-to-end measurement survives restructuring.

Each span keeps, in memory, its call count and *self* time
(duration minus the time its child spans cover).  Nesting follows the Python
call stack: a wrapper saves the running child total of its parent, runs the
call, and hands its own duration back to the parent -- a span stack without a
list.  Only the spans named in ``SAMPLED`` also keep every call's duration
(thousands of samples, enough for a real p99); doing so for the ~10^5 RPC calls
would cost more than the calls themselves.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

#: Spans whose per-call durations are kept for a tail percentile.
SAMPLED = (
    "policies.scheduling.schedule",
    "policies.placement.place",
    "runtime.lease.renewal_round",
)

#: Every run span, in report order.  ``simulator.loop`` is the root.
RUN_SPANS = (
    "simulator.loop",
    "core.update_cluster",
    "scenarios.timeline.update",
    "simulator.execution.advance",
    "simulator.execution.steady",
    "core.prune",
    "core.pop_wait_queue",
    "policies.admission.accept",
    "core.job_state.add_new_jobs",
    "policies.scheduling.schedule",
    "policies.scheduling.next_event",
    "policies.placement.place",
    "core.exec_jobs",
    "runtime.rpc.call",
    "runtime.lease.grant",
    "runtime.lease.renewal_round",
    "runtime.lease.complete",
    "runtime.lease.sync_membership",
    "runtime.worker_metrics.collect",
)


class Span:
    __slots__ = ("calls", "self_s", "samples")

    def __init__(self, name: str) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.samples: Optional[List[float]] = [] if name in SAMPLED else None


class Tracer:
    """Wraps instance callables into named, nestable spans."""

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {}
        #: Span names for which no hook could be resolved (reported as ``None``).
        self.missing: set = set()
        #: Time covered by the finished children of the span now running.
        self._child_s = 0.0

    def wrap(self, name: str, owner: object, attr: str, observe: Optional[Callable] = None) -> None:
        """Shadow ``owner.attr`` with a timed wrapper feeding span ``name``.

        ``observe(args, result)`` runs outside the timed interval; it lets a
        caller count what went through the boundary.  Several hooks may feed
        one span (the steady-state executors do).
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            if name not in self.spans:
                self.missing.add(name)
            return
        self.missing.discard(name)
        setattr(owner, attr, self._timed(self.spans.setdefault(name, Span(name)), fn, observe))

    def run_root(self, name: str, fn: Callable):
        """Run ``fn`` as the root span and return its result."""
        return self._timed(self.spans.setdefault(name, Span(name)), fn, None)()

    def _timed(self, span: Span, fn: Callable, observe: Optional[Callable]) -> Callable:
        clock = time.perf_counter
        samples = span.samples

        def wrapper(*args, **kwargs):
            parent_children = self._child_s
            self._child_s = 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span.calls += 1
                span.self_s += elapsed - self._child_s
                self._child_s = parent_children + elapsed
                if samples is not None:
                    samples.append(elapsed)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def value(self, name: str, field: str) -> Optional[float]:
        """``self_s`` / ``calls`` of a span; 0 if never called, None if unhooked."""
        if name in self.missing:
            return None
        span = self.spans.get(name)
        if span is None:
            return 0
        return getattr(span, field)

    def p99_ms(self, name: str) -> Optional[float]:
        if name in self.missing:
            return None
        span = self.spans.get(name)
        if span is None or not span.samples:
            return 0.0
        ordered = sorted(span.samples)
        return 1000.0 * ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def simulator_of(engine):
    """The ``Simulator`` behind an engine (CentralScheduler keeps its own private)."""
    return getattr(engine, "_simulator", engine)


def instrument(tracer: Tracer, built) -> Dict[str, int]:
    """Wrap every layer boundary of a built workload; returns live counters."""
    counts = {"launch_entries": 0, "launches": 0, "suspends": 0}
    engine = built.engine
    # The public ``manager`` property covers most hooks; the one that needs the
    # private Simulator degrades to None if that moves.
    simulator = simulator_of(engine)
    manager = getattr(engine, "manager", None)
    execution = getattr(manager, "execution", None)
    lease = getattr(engine, "lease_manager", None)

    def count_decision(args, launched) -> None:
        decision = args[0]
        counts["launch_entries"] += len(decision.to_launch)
        counts["suspends"] += len(decision.to_suspend)
        counts["launches"] += len(launched)

    tracer.wrap("core.update_cluster", manager, "update_cluster")
    tracer.wrap("scenarios.timeline.update", getattr(manager, "cluster_manager", None), "update")
    tracer.wrap("simulator.execution.advance", manager, "update_metrics")
    for attr in ("advance_steady", "advance_steady_bulk", "steady_scan", "steady_completion_round"):
        tracer.wrap("simulator.execution.steady", execution, attr)
    tracer.wrap("core.prune", manager, "prune_completed_jobs")
    tracer.wrap("core.pop_wait_queue", manager, "pop_wait_queue")
    tracer.wrap("policies.admission.accept", built.admission, "accept")
    tracer.wrap("core.job_state.add_new_jobs", getattr(simulator, "job_state", None), "add_new_jobs")
    tracer.wrap("policies.scheduling.schedule", built.scheduling, "schedule")
    tracer.wrap("policies.scheduling.next_event", built.scheduling, "next_policy_event_time")
    tracer.wrap("policies.placement.place", built.placement, "place")
    tracer.wrap("core.exec_jobs", manager, "exec_jobs", observe=count_decision)
    if lease is not None:
        tracer.wrap("runtime.rpc.call", getattr(engine, "channel", None), "call")
        tracer.wrap("runtime.lease.grant", lease, "grant")
        tracer.wrap("runtime.lease.renewal_round", lease, "renewal_round")
        tracer.wrap("runtime.lease.complete", lease, "complete")
        tracer.wrap("runtime.lease.sync_membership", lease, "sync_membership")
        tracer.wrap("runtime.worker_metrics.collect", getattr(engine, "worker_metrics", None), "collect")
    return counts
