"""The TraceRecorder: per-source monotonic event emission into one sink.

A recorder binds one ``source`` name to a sink and stamps every event with
the next sequence number for that source.  Multiple recorders (sources) may
share one sink -- the serial federation engine records its own routing
events as ``"federation"`` while each in-process shard records rounds as
``"shard<N>"`` into the same file; readers regroup by source and merge with
:func:`~repro.telemetry.events.merge_events`.

Recording must never perturb the schedule.  Every emission point in the
engine only *reads* state (no RNG draws, no state writes), and the job
observer below hears membership and status changes only, never a progress
write.  The parity tests in ``tests/test_telemetry.py`` hold a traced run
bit-identical to an untraced one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.core.job import Job, JobStatus
from repro.core.job_state import JobStateObserver
from repro.telemetry.events import EVENT_JOB, TraceHeader

if TYPE_CHECKING:  # the sink is handed in; importing sinks pulls orjson
    from repro.telemetry.sinks import TraceSink

#: Emit one rpc-faults counter snapshot every this many RPC calls.
DEFAULT_RPC_STATS_INTERVAL = 1024
#: Emit one federation state snapshot every this many routing pauses.
DEFAULT_FEDERATION_INTERVAL = 16


class TraceRecorder:
    """Append typed events for one ``source`` with monotonic sequence numbers."""

    def __init__(self, sink: TraceSink, source: str = "sim") -> None:
        self.sink = sink
        self.source = source
        # emit(kind, time, payload) is the hot path: one sink-bound closure
        # frame that owns this source's sequence counter.
        self.emit: Callable[[str, float, Dict[str, object]], None] = (
            sink.bind_emitter(source)
        )

    def write_header(self, header: TraceHeader) -> None:
        self.sink.write_header(header)

    def close(self) -> None:
        self.sink.close()


_TERMINAL = (JobStatus.COMPLETED, JobStatus.TERMINATED, JobStatus.FAILED)
#: ``Enum.name`` is a DynamicClassAttribute lookup -- precompute it once.
_STATUS_NAMES = {status: status.name for status in JobStatus}


class TelemetryObserver(JobStateObserver):
    """Streams job lifecycle transitions as ``job`` events.

    ``clock`` supplies the simulated time at emission (the engine passes the
    BloxManager clock).  Progress writes notify no observer, so attaching
    this one adds zero per-round progress cost.

    The registry holds observers weakly -- whoever attaches one must keep a
    strong reference (the Simulator stores it on the instance).
    """

    def __init__(self, recorder: TraceRecorder, clock) -> None:
        self.recorder = recorder
        # ``clock`` is any object with a ``current_time`` attribute (the
        # engine passes its BloxManager); reading the attribute per event is
        # one frame cheaper than calling a closure.
        self.clock = clock

    def on_job_tracked(self, job: Job) -> None:
        self.recorder.emit(
            EVENT_JOB,
            self.clock.current_time,
            {"job_id": job.job_id, "op": "tracked", "num_gpus": job.num_gpus},
        )

    def on_status_change(
        self, job: Job, old: Optional[JobStatus], new: JobStatus
    ) -> None:
        payload: Dict[str, object] = {
            "job_id": job.job_id,
            "op": "status",
            "from": _STATUS_NAMES[old] if old is not None else None,
            "to": _STATUS_NAMES[new],
        }
        if new in _TERMINAL and job.completion_time is not None:
            payload["jct"] = job.completion_time - job.arrival_time
        self.recorder.emit(EVENT_JOB, self.clock.current_time, payload)
