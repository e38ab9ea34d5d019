"""Versioned event schema for the streaming telemetry layer.

Every run -- simulator, deployment runtime, or federation -- can stream a
totally ordered sequence of typed :class:`TraceEvent` records to a sink (see
:mod:`repro.telemetry.sinks`).  The schema is deliberately small:

* ``source`` -- which loop emitted the event (``"sim"``, ``"runtime"``,
  ``"federation"``, ``"shard3"``, ...).  Parallel federation workers each
  write their own stream; sources are the merge unit.
* ``seq`` -- per-source monotonic sequence number, assigned by the
  :class:`~repro.telemetry.recorder.TraceRecorder` at emission time.  Within
  one source the sequence is gap-free and strictly increasing, which is what
  makes multi-stream merges deterministic: the global order is
  ``(time, source, seq)`` and ties cannot occur within a source.
* ``time`` -- simulated time (seconds).  Never wall-clock: traces must be
  bit-identical across replays, and wall-clock is not.
* ``kind`` -- the event type (one of the ``EVENT_*`` constants below).
* ``payload`` -- a JSON-safe dict of kind-specific fields.

Kinds whose payloads are inherently non-deterministic (wall-clock timing
breakdowns, supervisor restarts caused by injected kills) are listed in
:data:`NONDETERMINISTIC_KINDS`; ``python -m repro.trace diff`` excludes them
by default so replay parity is judged on the deterministic schedule stream.

The trace *header* carries the schema version, self-describing run metadata
(:func:`run_metadata`: seed, config hash, repro version, python version,
caller-supplied start time) and -- for recorded runs -- the replayable
:class:`~repro.telemetry.runspec.RunSpec` as a plain dict.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

# Re-exported: trace files, run specs and workload files share one error type,
# so ``except TraceFormatError`` means the same whichever module it came from.
from repro.core.exceptions import TraceFormatError  # noqa: F401

#: Bump on any incompatible change to the record layout below.
#: v2: added the ``cluster`` event kind (scenario timeline firings).  v1
#: traces remain readable -- the version gate only rejects *newer* files.
SCHEMA_VERSION = 2

# ---------------------------------------------------------------------------
# Event kinds
# ---------------------------------------------------------------------------

#: One per appended :class:`~repro.simulator.engine.RoundRecord` (full rounds,
#: light fast-forward rounds, steady strides and the drain chain all pass
#: through the same choke point, so traced round streams equal ``round_log``).
EVENT_ROUND = "round"
#: Job lifecycle transition, emitted from the ``JobStateObserver`` hooks.
EVENT_JOB = "job"
#: A non-trivial schedule/placement decision (new launches or suspensions;
#: pure lease renewals are not decisions).
EVENT_DECISION = "decision"
#: A running job evicted by a cluster membership change.
EVENT_EVICTION = "eviction"
#: A scenario-timeline cluster event fired (NodeFailure / ScaleOut / ...).
#: Payload: event kind, its scheduled time, the declarative event fields
#: (node ids, counts, gpu type) and the evicted job ids.  Fully
#: deterministic -- the timeline is compiled from the seed -- so replays
#: must reproduce these bit-identically and ``trace diff`` checks them.
EVENT_CLUSTER = "cluster"
#: Federation router sent a gang to a shard.
EVENT_ROUTE = "route"
#: Lease protocol transition (grant / revoke / complete).
EVENT_LEASE = "lease"
#: Periodic RPC-channel fault/retry counter snapshot (FaultStats).
EVENT_RPC_FAULTS = "rpc-faults"
#: Periodic federation state snapshot (per-shard queue depth / utilisation).
EVENT_FEDERATION = "federation"
#: Periodic wall-clock timing counters (FederationTiming) -- non-deterministic.
EVENT_TIMING = "timing"
#: Supervisor action on a parallel worker (restart / checkpoint / degrade).
EVENT_SUPERVISOR = "supervisor"

#: Kinds whose payloads may legitimately differ between a run and its replay
#: (wall-clock timings; supervisor actions triggered by injected faults).
#: ``trace diff`` skips these unless asked not to.
NONDETERMINISTIC_KINDS = frozenset({EVENT_TIMING, EVENT_SUPERVISOR})


class TraceEvent(NamedTuple):
    """One typed telemetry event.  Immutable and JSON-round-trippable.

    A NamedTuple rather than a (frozen) dataclass: events are constructed on
    the engine's hot path -- once per round even through the fast-forward
    strides -- and tuple construction is several times cheaper than frozen
    dataclass ``__init__``, which matters for the bench's recording-overhead
    gate.
    """

    source: str
    seq: int
    time: float
    kind: str
    payload: Mapping[str, object] = {}

    def sort_key(self) -> Tuple[float, str, int]:
        """Deterministic global merge order across per-source streams."""
        return (self.time, self.source, self.seq)

    def as_record(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "seq": self.seq,
            "time": self.time,
            "kind": self.kind,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "TraceEvent":
        try:
            return cls(
                source=record["source"],
                seq=int(record["seq"]),
                time=float(record["time"]),
                kind=record["kind"],
                payload=dict(record.get("payload") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"malformed trace event record: {record!r}") from exc


@dataclass
class TraceHeader:
    """First record of every trace: schema version + run metadata (+ spec)."""

    schema_version: int = SCHEMA_VERSION
    metadata: Dict[str, object] = field(default_factory=dict)
    #: Replayable run description (``RunSpec.as_dict()``) when the trace was
    #: recorded through ``python -m repro.trace record`` / ``run_recorded``.
    spec: Optional[Dict[str, object]] = None

    def as_record(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "schema_version": self.schema_version,
            "metadata": dict(self.metadata),
        }
        if self.spec is not None:
            record["spec"] = dict(self.spec)
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "TraceHeader":
        if "schema_version" not in record:
            raise TraceFormatError(
                f"trace header missing schema_version: {record!r}"
            )
        version = int(record["schema_version"])
        if version > SCHEMA_VERSION:
            raise TraceFormatError(
                f"trace schema v{version} is newer than supported v{SCHEMA_VERSION}"
            )
        spec = record.get("spec")
        return cls(
            schema_version=version,
            metadata=dict(record.get("metadata") or {}),
            spec=dict(spec) if spec is not None else None,
        )


# ---------------------------------------------------------------------------
# Run metadata
# ---------------------------------------------------------------------------


def config_hash(config: Mapping[str, object]) -> str:
    """Stable short hash of a JSON-safe config mapping (order-insensitive)."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def run_metadata(
    seed: int,
    config: Mapping[str, object],
    started_at: Optional[float] = None,
) -> Dict[str, object]:
    """Self-describing metadata stamped into bench artifacts and trace headers.

    ``started_at`` is a wall-clock timestamp *passed in by the caller* (the
    CLI entry points pass ``time.time()``); library code never reads the
    clock itself so recorded payloads stay deterministic.
    """
    # Imported lazily: repro/__init__ imports the engine, which imports this
    # module -- a top-level "from repro import __version__" would be circular
    # -- and ``platform`` is needed by artifact writers only, not by every
    # process that imports an event-kind constant.
    import platform

    from repro import __version__

    return {
        "seed": seed,
        "config_hash": config_hash(config),
        "repro_version": __version__,
        "python": platform.python_version(),
        "started_at": started_at,
    }


def merge_events(streams: List[List[TraceEvent]]) -> List[TraceEvent]:
    """Deterministically merge per-source streams by ``(time, source, seq)``.

    Each input stream must be sorted by its own ``sort_key`` (true for any
    single-source stream, since ``seq`` is monotonic and time never goes
    backwards within a source); the result is then independent of the input
    stream order and of the OS/process interleaving that produced the files.
    """
    import heapq

    return list(heapq.merge(*streams, key=TraceEvent.sort_key))
