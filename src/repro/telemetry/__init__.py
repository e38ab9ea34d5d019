"""Streaming telemetry: typed trace events, pluggable sinks, replay tooling.

See ``docs/observability.md``.  The layer has four parts:

* :mod:`repro.telemetry.events` -- the versioned event schema
  (:class:`TraceEvent`, :class:`TraceHeader`, :func:`run_metadata`);
* :mod:`repro.telemetry.sinks` -- JSONL / SQLite / ring-buffer sinks plus
  readers and the incremental :class:`TraceFollower`;
* :mod:`repro.telemetry.recorder` -- :class:`TraceRecorder` (per-source
  monotonic sequence numbers) and the job-transition observer;
* :mod:`repro.telemetry.runspec` / :mod:`repro.telemetry.diff` -- replayable
  run descriptions and stream diffing, the engine behind
  ``python -m repro.trace`` (imported lazily: runspec depends on the
  simulator, which itself records through this package).
"""

from repro.telemetry.events import (
    EVENT_DECISION,
    EVENT_EVICTION,
    EVENT_FEDERATION,
    EVENT_JOB,
    EVENT_LEASE,
    EVENT_ROUND,
    EVENT_ROUTE,
    EVENT_RPC_FAULTS,
    EVENT_SUPERVISOR,
    EVENT_TIMING,
    NONDETERMINISTIC_KINDS,
    SCHEMA_VERSION,
    TraceEvent,
    TraceFormatError,
    TraceHeader,
    config_hash,
    merge_events,
    run_metadata,
)
#: Names served lazily (PEP 562).  Every engine imports event-kind constants
#: from :mod:`repro.telemetry.events`, which runs this file first; importing
#: the recorder and the sinks here would make each simulation process pay for
#: ``sqlite3`` and ``orjson`` although only a recording run builds a sink.
_LAZY = {
    "TelemetryObserver": "repro.telemetry.recorder",
    "TraceRecorder": "repro.telemetry.recorder",
    "JsonlSink": "repro.telemetry.sinks",
    "RingBufferSink": "repro.telemetry.sinks",
    "SqliteSink": "repro.telemetry.sinks",
    "TraceFollower": "repro.telemetry.sinks",
    "TraceSink": "repro.telemetry.sinks",
    "open_sink": "repro.telemetry.sinks",
    "read_trace": "repro.telemetry.sinks",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "SCHEMA_VERSION",
    "NONDETERMINISTIC_KINDS",
    "EVENT_ROUND",
    "EVENT_JOB",
    "EVENT_DECISION",
    "EVENT_EVICTION",
    "EVENT_ROUTE",
    "EVENT_LEASE",
    "EVENT_RPC_FAULTS",
    "EVENT_FEDERATION",
    "EVENT_TIMING",
    "EVENT_SUPERVISOR",
    "TraceEvent",
    "TraceHeader",
    "TraceFormatError",
    "config_hash",
    "run_metadata",
    "merge_events",
    "TraceRecorder",
    "TelemetryObserver",
    "TraceSink",
    "JsonlSink",
    "SqliteSink",
    "RingBufferSink",
    "TraceFollower",
    "open_sink",
    "read_trace",
]
