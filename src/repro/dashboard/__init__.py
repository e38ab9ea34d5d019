"""``python -m repro.dashboard``: a stdlib-only live view over a trace file.

Tails a JSONL telemetry trace with a
:class:`~repro.telemetry.sinks.TraceFollower` and serves a small
auto-refreshing web page -- cluster utilisation, queue depth, per-shard
imbalance and restart counters, and live JCT percentiles -- from
``http.server``.  No third-party dependencies, no websockets: the page
polls ``/data`` (a JSON snapshot) every couple of seconds, which is plenty
for a scheduler whose rounds are minutes long.

The aggregation lives in :class:`DashboardAggregator`, a pure fold over
:class:`~repro.telemetry.events.TraceEvent` streams, so tests (and
``--once``, the CI smoke mode) can use it without binding a port.
"""

from __future__ import annotations

import argparse
import http.server
import json
import math
import sys
import threading
from typing import Dict, List, Optional

from repro.telemetry.events import (
    EVENT_FEDERATION,
    EVENT_JOB,
    EVENT_ROUND,
    EVENT_ROUTE,
    EVENT_RPC_FAULTS,
    EVENT_SUPERVISOR,
    TraceEvent,
    TraceFormatError,
)
from repro.telemetry.sinks import TraceFollower


def percentile(values: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (q in [0, 100]); None on empty input."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


class DashboardAggregator:
    """Folds a trace's event stream into the dashboard's display state."""

    def __init__(self) -> None:
        self.events_seen = 0
        self.last_time = 0.0
        #: source -> latest round payload (utilisation / queue / running).
        self.rounds: Dict[str, Dict[str, object]] = {}
        #: source -> supervisor restart / degrade counters.
        self.restarts: Dict[str, Dict[str, int]] = {}
        self.jcts: List[float] = []
        self.jobs_tracked = 0
        self.jobs_finished = 0
        self.routed: Dict[str, int] = {}
        self.rpc_faults: Dict[str, object] = {}
        self.federation: Dict[str, object] = {}

    def consume(self, events: List[TraceEvent]) -> None:
        for event in events:
            self.events_seen += 1
            self.last_time = max(self.last_time, event.time)
            payload = dict(event.payload)
            if event.kind == EVENT_ROUND:
                self.rounds[event.source] = payload
            elif event.kind == EVENT_JOB:
                op = payload.get("op")
                if op == "tracked":
                    self.jobs_tracked += 1
                elif op == "status" and "jct" in payload:
                    self.jobs_finished += 1
                    self.jcts.append(float(payload["jct"]))
            elif event.kind == EVENT_SUPERVISOR:
                counters = self.restarts.setdefault(
                    event.source, {"restart": 0, "degrade": 0, "checkpoint": 0}
                )
                op = str(payload.get("op"))
                counters[op] = counters.get(op, 0) + 1
            elif event.kind == EVENT_ROUTE:
                shard = f"shard{payload.get('shard')}"
                self.routed[shard] = self.routed.get(shard, 0) + 1
            elif event.kind == EVENT_RPC_FAULTS:
                self.rpc_faults = payload
            elif event.kind == EVENT_FEDERATION:
                self.federation = payload

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe state for ``/data`` and the ``--once`` text view."""
        shards = sorted(s for s in self.rounds if s.startswith("shard"))
        utils = [float(self.rounds[s].get("utilization", 0.0)) for s in shards]
        imbalance = (max(utils) - min(utils)) if len(utils) > 1 else 0.0
        return {
            "events": self.events_seen,
            "sim_time": self.last_time,
            "jobs": {
                "tracked": self.jobs_tracked,
                "finished": self.jobs_finished,
                "in_flight": self.jobs_tracked - self.jobs_finished,
            },
            "jct": {
                "p50": percentile(self.jcts, 50),
                "p90": percentile(self.jcts, 90),
                "p99": percentile(self.jcts, 99),
            },
            "sources": {
                source: {
                    "round": payload.get("round"),
                    "running": payload.get("running"),
                    "queued": payload.get("queued"),
                    "utilization": payload.get("utilization"),
                    "routed": self.routed.get(source),
                    "restarts": self.restarts.get(source, {}).get("restart", 0),
                }
                for source, payload in sorted(self.rounds.items())
            },
            "shard_imbalance": round(imbalance, 6),
            "supervisor": self.restarts,
            "rpc_faults": self.rpc_faults,
            "federation": self.federation,
        }

    def render_text(self) -> str:
        """Plain-text snapshot (the ``--once`` mode / smoke check)."""
        snap = self.snapshot()
        lines = [
            f"events={snap['events']}  sim_time={snap['sim_time']:.0f}s",
            "jobs: tracked={tracked} finished={finished} in-flight={in_flight}".format(
                **snap["jobs"]
            ),
        ]
        jct = snap["jct"]
        if jct["p50"] is not None:
            lines.append(
                "jct: p50={p50:.0f}s p90={p90:.0f}s p99={p99:.0f}s".format(**jct)
            )
        for source, row in snap["sources"].items():
            util = row["utilization"]
            lines.append(
                f"  {source:<12} round={row['round']} running={row['running']} "
                f"queued={row['queued']} "
                f"util={'-' if util is None else format(float(util), '.3f')} "
                f"restarts={row['restarts']}"
            )
        if len([s for s in snap["sources"] if s.startswith("shard")]) > 1:
            lines.append(f"shard imbalance (max-min util): {snap['shard_imbalance']:.3f}")
        return "\n".join(lines)


_PAGE = """<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>repro dashboard</title>
<style>
 body { font-family: ui-monospace, monospace; background: #111; color: #ddd;
        margin: 2em; }
 h1 { font-size: 1.1em; color: #9cf; }
 table { border-collapse: collapse; margin: 1em 0; }
 td, th { padding: 0.25em 0.9em; border-bottom: 1px solid #333;
          text-align: right; }
 th { color: #9cf; } td:first-child, th:first-child { text-align: left; }
 .bar { display: inline-block; height: 0.7em; background: #4a8;
        vertical-align: middle; }
 #meta { color: #888; }
</style></head>
<body>
<h1>repro telemetry &mdash; <span id="trace"></span></h1>
<div id="meta">waiting for data&hellip;</div>
<table id="jobs"></table>
<table id="sources"></table>
<script>
function row(cells, tag) {
  return "<tr>" + cells.map(c => "<" + (tag||"td") + ">" + c +
         "</" + (tag||"td") + ">").join("") + "</tr>";
}
function fmt(x, d) { return x == null ? "-" : Number(x).toFixed(d); }
async function tick() {
  try {
    const r = await fetch("/data");
    const s = await r.json();
    document.getElementById("trace").textContent = s.trace;
    document.getElementById("meta").textContent =
      s.events + " events, sim time " + fmt(s.sim_time, 0) + "s" +
      (s.shard_imbalance ? ", shard imbalance " + fmt(s.shard_imbalance, 3) : "");
    document.getElementById("jobs").innerHTML =
      row(["jobs tracked", "finished", "in flight",
           "JCT p50", "p90", "p99"], "th") +
      row([s.jobs.tracked, s.jobs.finished, s.jobs.in_flight,
           fmt(s.jct.p50, 0) + "s", fmt(s.jct.p90, 0) + "s",
           fmt(s.jct.p99, 0) + "s"]);
    let html = row(["source", "round", "running", "queued",
                    "utilization", "", "restarts"], "th");
    for (const [src, v] of Object.entries(s.sources)) {
      const u = v.utilization == null ? 0 : v.utilization;
      html += row([src, v.round, v.running, v.queued, fmt(v.utilization, 3),
        '<span class="bar" style="width:' + Math.round(u * 120) + 'px"></span>',
        v.restarts]);
    }
    document.getElementById("sources").innerHTML = html;
  } catch (e) { document.getElementById("meta").textContent = "poll failed: " + e; }
}
tick(); setInterval(tick, 2000);
</script>
</body></html>
"""


class _Handler(http.server.BaseHTTPRequestHandler):
    aggregator: DashboardAggregator
    follower: TraceFollower
    lock: threading.Lock
    trace_path: str

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/data":
            with self.lock:
                self.aggregator.consume(self.follower.poll())
                body = dict(self.aggregator.snapshot(), trace=self.trace_path)
            payload = json.dumps(body).encode("utf-8")
            self._respond(payload, "application/json")
        elif self.path == "/":
            self._respond(_PAGE.encode("utf-8"), "text/html; charset=utf-8")
        else:
            self.send_error(404)

    def _respond(self, body: bytes, content_type: str) -> None:
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args: object) -> None:  # quiet by default
        pass


def serve(trace_path: str, host: str, port: int) -> None:
    aggregator = DashboardAggregator()
    handler = type(
        "BoundHandler",
        (_Handler,),
        {
            "aggregator": aggregator,
            "follower": TraceFollower(trace_path),
            "lock": threading.Lock(),
            "trace_path": trace_path,
        },
    )
    with http.server.ThreadingHTTPServer((host, port), handler) as server:
        bound = server.socket.getsockname()
        print(f"dashboard on http://{bound[0]}:{bound[1]}/ tailing {trace_path}")
        server.serve_forever()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dashboard",
        description=(
            "Live web dashboard over a JSONL telemetry trace. "
            "Tails the file as the run writes it; works equally on a "
            "finished trace."
        ),
    )
    parser.add_argument("trace", help="trace file to tail")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8800)
    parser.add_argument(
        "--once",
        action="store_true",
        help="print one text snapshot of the trace and exit (no server)",
    )
    args = parser.parse_args(argv)

    if args.once:
        aggregator = DashboardAggregator()
        try:
            aggregator.consume(TraceFollower(args.trace).poll())
        except TraceFormatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(aggregator.render_text())
        return 0
    try:
        serve(args.trace, args.host, args.port)
    except KeyboardInterrupt:
        pass
    return 0
