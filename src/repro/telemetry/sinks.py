"""Trace sinks: a JSONL file or an in-memory ring buffer.

A sink accepts one :class:`~repro.telemetry.events.TraceHeader` followed by
any number of :class:`~repro.telemetry.events.TraceEvent` records.  Both
stock sinks are append-oriented:

* :class:`JsonlSink` -- one JSON object per line; the first line is the
  header (recognisable by its ``schema_version`` key).  The one trace file
  format, and the one the dashboard tails.
* :class:`RingBufferSink` -- bounded in-memory buffer for live consumers and
  tests; never touches the filesystem.

:func:`read_trace` loads a trace file back, and :class:`TraceFollower`
incrementally polls a growing one -- the mechanism behind
``python -m repro.dashboard``'s live view.  Both report a line that is not
a UTF-8 JSON object as :class:`~repro.telemetry.events.TraceFormatError`
naming the file and line.

The file sink intentionally refuses pickling: a recorder crossing a process
boundary (e.g. into a supervised federation worker that will be checkpointed)
would otherwise re-emit duplicate records after restore.  Worker-side
tracing instead opens its sinks *inside* the worker (see
``UniformShardFactory.trace_dir``).
"""

from __future__ import annotations

import collections
import io
import json
import os
from typing import Deque, List, Optional, Tuple

from repro.telemetry.events import (
    TraceEvent,
    TraceFormatError,
    TraceHeader,
)


class TraceSink:
    """Interface: ``write_header`` once, ``emit`` many, ``close`` once."""

    def write_header(self, header: TraceHeader) -> None:
        raise NotImplementedError

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def bind_emitter(self, source: str):
        """A fused ``emit(kind, time, payload)`` closure for one source.

        Owns that source's monotonic sequence counter, so the whole
        recorder -> sink path is one closure frame per event.  File sinks
        override this to bind their write handle directly.
        """
        emit_event = self.emit
        seq = 0

        def emit(kind: str, time: float, payload) -> None:
            nonlocal seq
            seq += 1
            emit_event(TraceEvent(source, seq, time, kind, payload))

        return emit

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# One shared C-accelerated encoder: json.dumps with non-default options
# builds a fresh JSONEncoder per call, which the per-event hot path below
# cannot afford.  ensure_ascii=False matches orjson's raw-UTF-8 output, so
# the canonical trace bytes are identical with or without the accelerator.
_ENCODE = json.JSONEncoder(
    ensure_ascii=False, sort_keys=True, separators=(",", ":")
).encode

try:  # optional accelerator; the stdlib encoder below is the fallback
    import orjson as _orjson
except ImportError:  # pragma: no cover - depends on the environment
    _orjson = None

if _orjson is not None:
    # orjson with OPT_SORT_KEYS produces the same compact sorted form as
    # the stdlib encoder above at ~5x less per-event cost, which is what
    # keeps recording inside the bench's overhead gate.
    def _encode_line(
        record,
        _dumps=_orjson.dumps,
        _opt=_orjson.OPT_SORT_KEYS | _orjson.OPT_APPEND_NEWLINE,
    ) -> bytes:
        return _dumps(record, option=_opt)

else:

    def _encode_line(record) -> bytes:
        return (_ENCODE(record) + "\n").encode("utf-8")


class JsonlSink(TraceSink):
    """Append-only JSON-lines sink; deterministic byte output for a given stream."""

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        # Binary handle: lines are encoded straight to UTF-8 bytes, skipping
        # the TextIOWrapper layer on the per-event hot path.
        self._handle: Optional[io.BufferedWriter] = open(self.path, "wb")

    def write_header(self, header: TraceHeader) -> None:
        self._write_line(header.as_record())

    def emit(self, event: TraceEvent) -> None:
        self._write_line(event.as_record())

    def bind_emitter(self, source: str):
        handle = self._handle
        if handle is None:
            raise TraceFormatError(f"trace sink {self.path} already closed")
        write = handle.write
        seq = 0

        # One encoder call for the whole line, byte-identical to
        # _write_line(event.as_record()).  This is the engine's per-round
        # write -- every dict copy, throwaway encoder or intermediate
        # TraceEvent here shows up in the bench's recording-overhead gate.
        def emit(kind: str, time: float, payload, _encode=_encode_line) -> None:
            nonlocal seq
            seq += 1
            write(
                _encode(
                    {
                        "kind": kind,
                        "payload": payload if payload else {},
                        "seq": seq,
                        "source": source,
                        "time": time,
                    }
                )
            )

        return emit

    def _write_line(self, record) -> None:
        if self._handle is None:
            raise TraceFormatError(f"trace sink {self.path} already closed")
        self._handle.write(_encode_line(record))

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __getstate__(self):
        raise TypeError(
            "JsonlSink holds an open file handle and cannot cross a process "
            "or checkpoint boundary; open the sink inside the worker instead"
        )


class RingBufferSink(TraceSink):
    """Keep the last ``capacity`` events in memory (``None`` = unbounded)."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 0:
            raise TraceFormatError("ring buffer capacity must be >= 0")
        self.capacity = capacity
        self.header: Optional[TraceHeader] = None
        self._events: Deque[TraceEvent] = collections.deque(maxlen=capacity)

    def write_header(self, header: TraceHeader) -> None:
        self.header = header

    def emit(self, event: TraceEvent) -> None:
        self._events.append(event)

    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------


def _decode_record(line: bytes, path: str, lineno: int) -> Optional[dict]:
    """One trace line as its record, ``None`` for a blank line."""
    try:
        text = line.decode("utf-8").strip()
        if not text:
            return None
        record = json.loads(text)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError both
        raise TraceFormatError(
            f"{path}:{lineno}: not a JSONL trace record ({exc})"
        ) from None
    if not isinstance(record, dict):
        raise TraceFormatError(f"{path}:{lineno}: not a JSONL trace record")
    return record


def read_trace(path: str) -> Tuple[TraceHeader, List[TraceEvent]]:
    """Load a JSONL trace back into (header, events), events in file order."""
    path = os.fspath(path)
    if not os.path.exists(path):
        raise TraceFormatError(f"no such trace: {path}")
    header: Optional[TraceHeader] = None
    events: List[TraceEvent] = []
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, 1):
            record = _decode_record(line, path, lineno)
            if record is None:
                continue
            if header is None:
                header = TraceHeader.from_record(record)
            else:
                events.append(TraceEvent.from_record(record))
    if header is None:
        raise TraceFormatError(f"trace {path} has no header line")
    return header, events


class TraceFollower:
    """Incrementally read a growing trace file (the dashboard's tail loop).

    ``poll()`` returns only the records appended since the previous call,
    following the file by byte offset (a partial trailing line is left for
    the next poll).
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self.header: Optional[TraceHeader] = None
        self._offset = 0
        self._lineno = 0

    def poll(self) -> List[TraceEvent]:
        if not os.path.exists(self.path) or os.path.getsize(self.path) == 0:
            return []
        events: List[TraceEvent] = []
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            while True:
                line = handle.readline()
                if not line or not line.endswith(b"\n"):
                    break  # incomplete trailing line: retry next poll
                self._offset = handle.tell()
                self._lineno += 1
                record = _decode_record(line, self.path, self._lineno)
                if record is None:
                    continue
                if self.header is None:
                    self.header = TraceHeader.from_record(record)
                else:
                    events.append(TraceEvent.from_record(record))
        return events
