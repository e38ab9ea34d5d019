"""Truly parallel federation: shard worker processes behind pipes.

:class:`WorkerPoolBackend` is the multiprocess
:class:`~repro.federation.engine.ShardBackend`: a
:class:`~repro.federation.engine.FederationEngine` built on it runs the exact
routing loop of an in-process one -- same
:func:`~repro.federation.engine.drive_federation`, same routers, same global
``(arrival_time, job_id)`` order -- but executes the shards in worker
processes, so an N-shard federation uses up to N cores instead of one.

Protocol
--------

Each worker owns one or more :class:`~repro.federation.shard.ShardSimulator`
instances (shard ``i`` lives on worker ``i % workers``) built *in the worker*
by :meth:`~repro.telemetry.runspec.RunSpec.shard` from the run's plain-data
spec -- the one a trace header carries -- and its shard keywords; live
simulators never cross the pipe on the hot path (they *do* cross it as opaque
checkpoint blobs under supervision, which is safe since the PR 6 picklability
contract plus registry ``bind_epoch`` healing made whole-simulator round-trips
bit-exact).  Over its duplex pipe a worker answers:

* ``("advance", stop_time)`` -> ``("ok", [ShardViewSummary, ...])`` -- run
  every owned shard to the pause point before ``stop_time`` and report their
  routing summaries, in owned-shard order;
* ``("submit", shard_id, job)`` -- queue a routed gang; fire-and-forget, the
  pipe's FIFO ordering guarantees it is applied before the next ``advance``;
* ``("finish", reduce)`` -> ``("ok", [SimulationResult, ...])`` -- drain the
  owned shards to completion and ship back their full results, or, given a
  module-level ``reduce(shard_id, result)``, what it makes of each *inside
  the worker* (streaming runs reduce to ``ShardFinishStats``: the parent
  never holds a full shard result);
* ``("checkpoint",)`` -> ``("ok", [bytes, ...])`` -- pickle every owned shard
  and ship the blobs (supervision only);
* ``("restore", [blob_or_None, ...])`` -> ``("ok", None)`` -- rebuild owned
  shards from checkpoint blobs (``None`` means "build fresh from the
  spec": the shard never reached a checkpoint);
* ``("hang", seconds)`` -- sleep without replying (test hook: a worker whose
  main loop is stuck but whose heartbeat thread keeps beating, the case only
  a bounded collect timeout can detect);
* ``("close",)`` -- exit.

Any worker-side exception is shipped back as ``("error", traceback)`` and
re-raised in the parent as a :class:`~repro.federation.FatalWorkerError`; a
worker that dies without replying (crash, ``os._exit``, OOM-kill) or goes
silent is detected by polling with liveness checks and raised as a
:class:`~repro.federation.RetryableWorkerError` -- which, under supervision,
is caught and recovered instead.

Supervision
-----------

Pass a :class:`SupervisorConfig` to enable the recovery layer (see
``docs/robustness.md``).  The parent then keeps, per shard, the last
checkpoint blob plus a *command log* of everything sent since that checkpoint
(advances, and submits as pickled-at-send job bytes).  Workers emit
heartbeats from a side thread.  When a worker crashes, hangs past
``collect_timeout_s``, or goes silent past ``heartbeat_timeout_s``, the
supervisor respawns it with exponential backoff, restores its shards from
their checkpoints, replays the command log, and re-sends the in-flight
command.  Because shards are deterministic functions of their command
history, the recovered run is **bit-identical to a fault-free run** -- the
chaos leg of ``python -m repro.bench --chaos`` gates on exactly this.

When the restart budget is exhausted, ``on_unrecoverable`` picks the policy:
``"raise"`` aborts with :class:`~repro.federation.FatalWorkerError`;
``"degrade"`` marks the worker's shards dead -- their un-checkpointed
(queued-but-unrouted) jobs become *orphans* that
:func:`~repro.federation.engine.drive_federation` deterministically re-routes
to surviving shards, while jobs already inside the dead shards' checkpoints
are reported lost via :class:`~repro.metrics.summary.FaultStats`.

Determinism
-----------

Bit-identical to the in-process backend by construction: routing consumes only
``ShardViewSummary`` messages, which workers compute with the same
:meth:`~repro.federation.shard.ShardSimulator.view_summary` the serial
backend calls in-process, and same-round refreshes happen parent-side via
``with_queued`` on both backends.  Shards never observe anything but their own
submitted gangs and clock bounds, so their schedules -- and hence the round
logs, job timings and results -- match the serial run exactly.
``python -m repro.bench --federation`` gates on this parity, and
``--chaos`` gates on it surviving worker kills.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.exceptions import ConfigurationError, SimulationError
from repro.core.job import Job
from repro.federation import FatalWorkerError, RetryableWorkerError
from repro.federation.engine import ShardBackend, finish_shards
from repro.federation.router import ShardViewSummary
from repro.metrics.summary import FaultStats
from repro.simulator.engine import SimulationResult
from repro.telemetry.events import EVENT_SUPERVISOR
from repro.telemetry.recorder import TraceRecorder
from repro.telemetry.runspec import RunSpec

__all__ = [
    "SupervisorConfig",
    "WorkerKillPlan",
    "WorkerPoolBackend",
    "default_worker_count",
]

#: Seconds between liveness checks while waiting on a worker reply.
_POLL_INTERVAL_S = 0.2

#: Sentinel distinguishing "use the backend default" from an explicit None
#: (= unbounded) in ``_recv``.
_DEFAULT_TIMEOUT = object()

#: Seconds a (re)spawned worker has to build its shards and say ready.
_HANDSHAKE_TIMEOUT_S = 120.0


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def default_worker_count(num_shards: int) -> int:
    """Workers to use when unspecified: one per shard, capped at usable cores."""
    return max(1, min(num_shards, usable_cores()))


@dataclass(frozen=True)
class SupervisorConfig:
    """Recovery policy of a supervised :class:`WorkerPoolBackend`.

    Defaults are tuned for simulation workloads: cheap frequent checkpoints
    (shards pickle in milliseconds), short backoff (respawning a worker is
    fork + restore, not a container pull).  All knobs are documented in
    ``docs/robustness.md``.
    """

    #: Checkpoint every N successful advances (arrival boundaries); 0
    #: disables periodic checkpoints (recovery then replays from the start,
    #: still bit-exact but O(run) instead of O(interval)).
    checkpoint_interval: int = 8
    #: Seconds between worker heartbeats (side thread; beats even while the
    #: main loop computes an advance).
    heartbeat_interval_s: float = 0.5
    #: Declare a worker silent after this many seconds without *any* message;
    #: ``None`` disables the silence detector (collect timeouts still apply).
    heartbeat_timeout_s: Optional[float] = 10.0
    #: Respawn attempts per incident before the worker is unrecoverable.
    #: The counter resets after every successful advance, so the budget
    #: bounds consecutive failures, not lifetime failures.
    max_restarts: int = 2
    #: Exponential backoff before respawn attempt k: ``base * 2**(k-1)``,
    #: capped at ``backoff_max_s``.
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    #: What to do when the restart budget is exhausted: ``"raise"`` aborts
    #: the run, ``"degrade"`` marks the shards dead and re-routes their
    #: orphaned jobs to survivors.
    on_unrecoverable: str = "raise"

    def __post_init__(self) -> None:
        if self.on_unrecoverable not in ("raise", "degrade"):
            raise ConfigurationError(
                "on_unrecoverable must be 'raise' or 'degrade', got "
                f"{self.on_unrecoverable!r}"
            )
        for name in ("max_restarts", "checkpoint_interval", "backoff_base_s", "backoff_max_s"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)}")
        # A zero interval is a busy-looping heartbeat thread; a zero timeout
        # declares every worker silent at once.
        if self.heartbeat_interval_s <= 0 or (
            self.heartbeat_timeout_s is not None and self.heartbeat_timeout_s <= 0
        ):
            raise ConfigurationError(
                "heartbeat_interval_s and heartbeat_timeout_s (unless None) must be "
                f"positive, got {self.heartbeat_interval_s} and {self.heartbeat_timeout_s}"
            )


@dataclass(frozen=True)
class WorkerKillPlan:
    """Deterministic SIGKILL injection for chaos tests and the chaos bench.

    Each entry ``(advance_index, worker_index)`` kills that worker at the
    given 0-based advance call -- ``when="before"`` ahead of the broadcast
    (the submit window is in flight), ``when="after"`` between broadcast and
    collect (the advance itself is in flight).  Recovery parity must hold for
    either timing, which is exactly what makes the checkpoint/replay design
    trustworthy: the *result* may not depend on when the kill lands.
    """

    kills: Tuple[Tuple[int, int], ...]
    when: str = "before"

    def __post_init__(self) -> None:
        if self.when not in ("before", "after"):
            raise ConfigurationError(
                f"kill plan 'when' must be 'before' or 'after', got {self.when!r}"
            )


def _worker_main(
    conn,
    spec: RunSpec,
    shard_kwargs: Mapping[str, object],
    shard_ids: Sequence[int],
    build: bool = True,
    heartbeat_interval_s: Optional[float] = None,
) -> None:
    """Worker process entry point: build owned shards, answer the protocol.

    ``build=False`` is the respawn path: the supervisor restores state via
    ``("restore", blobs)`` right after the handshake, so building shards here
    would be wasted work thrown away a message later.
    """
    send_lock = threading.Lock()

    def send(message) -> None:
        # The heartbeat thread and the main loop share the pipe; Connection
        # writes are not atomic across threads, so serialise them.
        with send_lock:
            conn.send(message)

    if heartbeat_interval_s is not None:
        stop_beating = threading.Event()

        def beat() -> None:
            while not stop_beating.wait(heartbeat_interval_s):
                try:
                    send(("heartbeat", None))
                except Exception:
                    return

        threading.Thread(target=beat, daemon=True, name="shard-heartbeat").start()
    try:
        shards = (
            {shard_id: spec.shard(shard_id, **shard_kwargs) for shard_id in shard_ids}
            if build
            else {}
        )
        durations = [shards[s].manager.round_duration for s in shards]
        send(("ready", durations))
    except BaseException:
        try:
            send(("error", traceback.format_exc()))
        finally:
            conn.close()
        return
    try:
        while True:
            message = conn.recv()
            command = message[0]
            if command == "advance":
                stop_time = message[1]
                for shard_id in shard_ids:
                    shards[shard_id].run_until(stop_time)
                send(("ok", [shards[s].view_summary() for s in shard_ids]))
            elif command == "submit":
                _, shard_id, job = message
                if isinstance(job, (bytes, bytearray)):
                    # Replayed submit: the supervisor logs jobs as the bytes
                    # pickled at original send time, for bit-equality.
                    job = pickle.loads(job)
                shards[shard_id].submit(job)
            elif command == "checkpoint":
                send(("ok", [pickle.dumps(shards[s]) for s in shard_ids]))
            elif command == "restore":
                blobs = message[1]
                shards = {
                    shard_id: (
                        pickle.loads(blob)
                        if blob is not None
                        else spec.shard(shard_id, **shard_kwargs)
                    )
                    for shard_id, blob in zip(shard_ids, blobs)
                }
                send(("ok", None))
            elif command == "finish":
                send(("ok", finish_shards((shards[s] for s in shard_ids), message[1])))
            elif command == "hang":
                time.sleep(message[1])
            elif command == "close":
                return
            else:
                raise SimulationError(f"unknown federation worker command {command!r}")
    except EOFError:
        # Parent vanished; nothing to report to.
        return
    except BaseException:
        try:
            send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


def _dead_summary(shard_id: int, current_time: float) -> ShardViewSummary:
    """Routing view of a dead shard: zero capacity.

    ``total_gpus=0`` makes the driver's feasibility filter exclude the shard
    for every gang (no job needs zero GPUs), and the routers' load key
    already ranks ``healthy_capacity <= 0`` shards maximally loaded -- so a
    dead shard needs no special case anywhere downstream of this summary.
    """
    return ShardViewSummary(
        shard_id=shard_id,
        current_time=current_time,
        total_gpus=0,
        healthy_capacity=0.0,
        capacity_utilization=1.0,
    )


def _empty_result(shard_id: int, round_duration: float) -> SimulationResult:
    """Placeholder finish payload of a dead shard (degraded runs)."""
    return SimulationResult(
        jobs=[],
        tracked_job_ids=[],
        round_duration=round_duration,
        rounds=0,
        end_time=0.0,
        round_log=[],
    )


class WorkerPoolBackend(ShardBackend):
    """Shards distributed over worker processes, driven via duplex pipes.

    Implements the :class:`~repro.federation.engine.ShardBackend` contract,
    so :func:`~repro.federation.engine.drive_federation` runs on it unchanged.
    Shard ``i`` lives on worker ``i % workers``, which keeps any number of
    shards runnable on a fixed pool (the 64-shard demo on an 8-worker pool)
    and spreads the lockstep load evenly for uniform shards.  Constructing
    one validates and allocates bookkeeping only; :meth:`start` (or ``with``)
    spawns the workers, :meth:`close` ends them.

    With ``supervisor=None`` (the default) behavior is exactly the
    pre-supervision backend: no heartbeats, no checkpoints, no command log,
    and any worker failure raises.  ``collect_timeout_s`` bounds every reply
    wait independently of supervision (``None`` preserves the historical
    unbounded blocking collect).
    """

    def __init__(
        self,
        spec: RunSpec,
        workers: int,
        shard_kwargs: Optional[Mapping[str, object]] = None,
        mp_context: Optional[str] = None,
        collect_timeout_s: Optional[float] = None,
        supervisor: Optional[SupervisorConfig] = None,
        kill_plan: Optional[WorkerKillPlan] = None,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        if spec.mode != "federation":
            raise ConfigurationError(f"a worker pool runs a federation spec, not {spec.mode!r}")
        shard_kwargs = dict(shard_kwargs or {})
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if collect_timeout_s is not None and collect_timeout_s <= 0:
            raise ConfigurationError(
                f"collect_timeout_s must be positive or None, got {collect_timeout_s}"
            )
        if supervisor is not None and shard_kwargs.get("trace_dir") is not None:
            # Checkpoints pickle whole shards; a shard tracing to an open
            # JSONL handle cannot cross that boundary, and replaying a
            # restored shard would re-emit duplicate trace records anyway.
            raise ConfigurationError(
                "supervised worker pools cannot use trace_dir; "
                "record supervisor telemetry on the parent recorder instead"
            )
        num_shards = self.num_shards = spec.shards
        self.workers = min(workers, num_shards)
        for _, worker_index in kill_plan.kills if kill_plan is not None else ():
            if not 0 <= worker_index < self.workers:
                # _inject_kills would never fire: a chaos leg could "pass"
                # without killing anything.
                raise ConfigurationError(
                    f"kill plan names worker {worker_index}, but the pool has "
                    f"workers 0..{self.workers - 1}"
                )
        self.collect_timeout_s = collect_timeout_s
        self.spec = spec
        self.shard_kwargs = shard_kwargs
        self._supervisor = supervisor
        self._kill_plan = kill_plan
        self._ctx = multiprocessing.get_context(mp_context)
        self._owned: List[List[int]] = [[] for _ in range(self.workers)]
        for shard_id in range(num_shards):
            self._owned[shard_id % self.workers].append(shard_id)
        self._conns: List[object] = [None] * self.workers
        self._procs: List[object] = [None] * self.workers
        self._phase: List[str] = ["spawn"] * self.workers
        self._last_beat: List[float] = [0.0] * self.workers
        self._restarts: List[int] = [0] * self.workers
        self._started = False
        self._closed = False
        # Supervision state: per-shard checkpoint blobs (None = build fresh
        # from the spec), plus the global command log since the last
        # checkpoint.  Only populated when a supervisor is configured.
        self._checkpoints: List[Optional[bytes]] = [None] * num_shards
        self._log: List[tuple] = []
        self._advance_index = 0
        self._advances_since_checkpoint = 0
        self._submit_counts: List[int] = [0] * num_shards
        self._dead_workers: set = set()
        self._dead_shards: set = set()
        #: Orphans awaiting re-route: (job, shard it was originally routed to).
        self._orphans: List[Tuple[Job, int]] = []
        self._stat_restarts = 0
        self._stat_checkpoints = 0
        self._stat_replayed = 0
        self._stat_rerouted = 0
        self._stat_lost = 0
        # Parent-side telemetry: supervisor actions (restart / checkpoint /
        # degrade) with the running FaultStats counters, stamped with the
        # last advanced-to simulated time.
        self._recorder = recorder
        self._now = 0.0

    def start(self) -> None:
        """Spawn the workers and wait for their handshakes."""
        if self._started:
            raise ConfigurationError("a WorkerPoolBackend starts once; build one per run")
        self._started = True
        try:
            for worker_index in range(self.workers):
                self._spawn(worker_index, build=True)
            self.round_duration = self._handshake()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, worker_index: int, build: bool) -> None:
        heartbeat = (
            self._supervisor.heartbeat_interval_s
            if self._supervisor is not None
            else None
        )
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self.spec,
                self.shard_kwargs,
                self._owned[worker_index],
                build,
                heartbeat,
            ),
            name=f"federation-shard-worker-{worker_index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._conns[worker_index] = parent_conn
        self._procs[worker_index] = proc
        self._last_beat[worker_index] = time.monotonic()
        self._phase[worker_index] = "handshake"

    def _reap(self, worker_index: int) -> None:
        """Tear down a failed worker's process and pipe (idempotent)."""
        proc = self._procs[worker_index]
        conn = self._conns[worker_index]
        if proc is not None:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5.0)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass

    def _describe(self, worker_index: int) -> str:
        """Identify a worker in error messages: shards, pid, last phase."""
        proc = self._procs[worker_index]
        pid = proc.pid if proc is not None else None
        return (
            f"federation worker {worker_index} (shards "
            f"{self._owned[worker_index]}, pid {pid}, "
            f"phase {self._phase[worker_index]!r})"
        )

    # ------------------------------------------------------------------
    # Pipe plumbing with crash detection
    # ------------------------------------------------------------------

    def _recv(self, worker_index: int, timeout_s=_DEFAULT_TIMEOUT):
        """Receive one reply, raising instead of hanging if the worker died.

        Heartbeat messages are drained (and refresh the liveness clock) but
        never returned.  Raises :class:`RetryableWorkerError` for death,
        silence, or a blown collect timeout, and :class:`FatalWorkerError`
        for a worker-shipped exception -- a deterministic failure that replay
        would only reproduce.
        """
        if timeout_s is _DEFAULT_TIMEOUT:
            timeout_s = self.collect_timeout_s
        conn = self._conns[worker_index]
        proc = self._procs[worker_index]
        cfg = self._supervisor
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while True:
            try:
                if conn.poll(_POLL_INTERVAL_S):
                    reply = conn.recv()
                    self._last_beat[worker_index] = time.monotonic()
                    if reply[0] == "heartbeat":
                        continue
                    break
            except (EOFError, OSError):
                raise RetryableWorkerError(
                    f"{self._describe(worker_index)} closed its pipe "
                    f"unexpectedly (exitcode {proc.exitcode})"
                )
            if not proc.is_alive():
                # One final drain: the worker may have replied (or shipped an
                # error) just before exiting.
                if conn.poll(0):
                    try:
                        reply = conn.recv()
                        if reply[0] != "heartbeat":
                            break
                    except (EOFError, OSError):
                        pass
                raise self._died(worker_index, "without replying")
            if deadline is not None and time.monotonic() > deadline:
                raise RetryableWorkerError(
                    f"{self._describe(worker_index)} did not reply within "
                    f"{timeout_s:g}s (collect timeout)"
                )
            if (
                cfg is not None
                and cfg.heartbeat_timeout_s is not None
                and time.monotonic() - self._last_beat[worker_index]
                > cfg.heartbeat_timeout_s
            ):
                raise RetryableWorkerError(
                    f"{self._describe(worker_index)} went silent (no heartbeat "
                    f"for {cfg.heartbeat_timeout_s:g}s)"
                )
        tag, payload = reply
        if tag == "error":
            raise FatalWorkerError(f"{self._describe(worker_index)} failed:\n{payload}")
        return tag, payload

    def _send(self, worker_index: int, message: tuple, phase: Optional[str] = None) -> None:
        self._phase[worker_index] = phase if phase is not None else message[0]
        try:
            self._conns[worker_index].send(message)
        except (BrokenPipeError, OSError):
            raise self._died(worker_index, f"before receiving {message[0]!r}")

    def _died(self, worker_index: int, detail: str) -> RetryableWorkerError:
        """The one message for a worker process found dead, sending or receiving."""
        return RetryableWorkerError(
            f"{self._describe(worker_index)} died with exitcode "
            f"{self._procs[worker_index].exitcode} {detail}"
        )

    def _handshake(self) -> float:
        durations = set()
        for worker_index in range(self.workers):
            tag, payload = self._recv(worker_index, _HANDSHAKE_TIMEOUT_S)
            if tag != "ready":
                raise FatalWorkerError(
                    f"{self._describe(worker_index)} sent {tag!r} instead of "
                    "the ready handshake"
                )
            durations.update(payload)
            self._phase[worker_index] = "idle"
        if len(durations) != 1:
            raise ConfigurationError(
                "shards must share one round_duration for lockstep routing, "
                f"got {sorted(durations)}"
            )
        return durations.pop()

    # ------------------------------------------------------------------
    # Supervision: respawn, replay, degrade
    # ------------------------------------------------------------------

    def _worker_failure(
        self, worker_index: int, exc: RetryableWorkerError, resend: Optional[tuple]
    ) -> bool:
        """React to a retryable failure: recover (True) or degrade (False).

        Unsupervised backends re-raise -- the historical contract.  Under
        supervision, the worker is respawned with exponential backoff, its
        shards restored from their last checkpoints, the command log since
        those checkpoints replayed, and the in-flight command (``resend``)
        re-sent.  Replay is what buys bit-identical results: a shard is a
        deterministic function of its command history, and the log *is* that
        history.
        """
        if self._supervisor is None:
            raise exc
        cfg = self._supervisor
        self._reap(worker_index)
        while self._restarts[worker_index] < cfg.max_restarts:
            self._restarts[worker_index] += 1
            self._stat_restarts += 1
            delay = min(
                cfg.backoff_base_s * (2 ** (self._restarts[worker_index] - 1)),
                cfg.backoff_max_s,
            )
            if delay > 0:
                time.sleep(delay)
            try:
                self._respawn_and_replay(worker_index)
                if resend is not None:
                    self._send(worker_index, resend)
                self._emit_supervisor(
                    "restart",
                    worker=worker_index,
                    attempt=self._restarts[worker_index],
                )
                return True
            except RetryableWorkerError:
                self._reap(worker_index)
        if cfg.on_unrecoverable == "degrade":
            self._degrade(worker_index)
            self._emit_supervisor("degrade", worker=worker_index)
            return False
        raise FatalWorkerError(
            f"{self._describe(worker_index)} unrecoverable after "
            f"{cfg.max_restarts} restart attempts: {exc}"
        ) from exc

    def _respawn_and_replay(self, worker_index: int) -> None:
        self._spawn(worker_index, build=False)
        tag, _ = self._recv(worker_index, _HANDSHAKE_TIMEOUT_S)
        if tag != "ready":
            raise FatalWorkerError(
                f"{self._describe(worker_index)} sent {tag!r} instead of the "
                "ready handshake after respawn"
            )
        blobs = [self._checkpoints[s] for s in self._owned[worker_index]]
        self._send(worker_index, ("restore", blobs), phase="restore")
        self._recv(worker_index)
        owned = set(self._owned[worker_index])
        replayed = 0
        for entry in self._log:
            if entry[0] == "advance":
                self._send(
                    worker_index,
                    ("advance", entry[1]),
                    phase=f"replay-advance t={entry[1]}",
                )
                self._recv(worker_index)
                replayed += 1
            elif entry[0] == "submit" and entry[1] in owned:
                self._send(
                    worker_index,
                    ("submit", entry[1], entry[2]),
                    phase=f"replay-submit shard {entry[1]}",
                )
                replayed += 1
        self._stat_replayed += replayed
        self._phase[worker_index] = "idle"

    def _degrade(self, worker_index: int) -> None:
        """Mark a worker's shards dead; extract their re-routable orphans.

        The orphans are exactly the submit-log window: jobs routed to the
        shard after its last checkpoint, which no surviving state has seen --
        re-routing them is therefore safe (no double execution).  Jobs
        already inside the checkpoint are gone with the shard and counted as
        lost.
        """
        self._dead_workers.add(worker_index)
        self._reap(worker_index)
        self._phase[worker_index] = "dead"
        for shard_id in self._owned[worker_index]:
            if shard_id in self._dead_shards:
                continue
            self._dead_shards.add(shard_id)
            window = [e for e in self._log if e[0] == "submit" and e[1] == shard_id]
            for entry in window:
                self._orphans.append((pickle.loads(entry[2]), shard_id))
            self._stat_rerouted += len(window)
            self._stat_lost += self._submit_counts[shard_id] - len(window)
        if len(self._dead_shards) >= self.num_shards:
            raise FatalWorkerError(
                "every federation shard is dead; nothing left to degrade onto"
            )

    def _checkpoint(self) -> None:
        by_shard = self._gather(("checkpoint",))
        for shard_id, blob in by_shard.items():
            self._checkpoints[shard_id] = blob
        # The blobs capture everything the log would replay; truncating it
        # here is what keeps parent-side memory bounded on streaming runs.
        self._log.clear()
        self._advances_since_checkpoint = 0
        self._stat_checkpoints += 1
        self._emit_supervisor("checkpoint")

    def _emit_supervisor(self, op: str, **extra) -> None:
        """Stream a supervisor action plus the live FaultStats counters."""
        if self._recorder is None:
            return
        payload = {"op": op, "advance_index": self._advance_index}
        payload.update(extra)
        payload.update(self.fault_stats().as_dict())
        self._recorder.emit(EVENT_SUPERVISOR, self._now, payload)

    def _inject_kills(self, when: str) -> None:
        plan = self._kill_plan
        if plan is None or plan.when != when:
            return
        for advance_index, worker_index in plan.kills:
            if advance_index != self._advance_index:
                continue
            if worker_index in self._dead_workers:
                continue
            proc = self._procs[worker_index]
            if proc is not None and proc.pid is not None and proc.is_alive():
                os.kill(proc.pid, signal.SIGKILL)

    # ------------------------------------------------------------------
    # Broadcast/collect
    # ------------------------------------------------------------------

    def _gather(self, command: tuple, after_send=None) -> Dict[int, object]:
        """Broadcast ``command``, collect replies, keyed by shard id.

        The broadcast goes out to every live worker *before* any reply is
        awaited -- this is the parallelism: all workers advance their shards
        simultaneously while the parent blocks on the slowest one.  Failures
        on either leg route through :meth:`_worker_failure`; a shard with no
        reply (degraded mid-gather) is simply absent from the mapping.
        """
        for worker_index in range(self.workers):
            if worker_index in self._dead_workers:
                continue
            try:
                self._send(worker_index, command)
            except RetryableWorkerError as exc:
                self._worker_failure(worker_index, exc, resend=command)
        if after_send is not None:
            after_send()
        by_shard: Dict[int, object] = {}
        for worker_index in range(self.workers):
            if worker_index in self._dead_workers:
                continue
            payload = self._collect(worker_index, command)
            if payload is None:
                continue
            for shard_id, item in zip(self._owned[worker_index], payload):
                by_shard[shard_id] = item
            self._phase[worker_index] = "idle"
        return by_shard

    def _collect(self, worker_index: int, command: tuple):
        while True:
            try:
                _, payload = self._recv(worker_index)
                return payload
            except RetryableWorkerError as exc:
                if not self._worker_failure(worker_index, exc, resend=command):
                    return None

    # ------------------------------------------------------------------
    # ShardBackend contract
    # ------------------------------------------------------------------

    def advance(self, stop_time: float) -> List[ShardViewSummary]:
        self._inject_kills("before")
        by_shard = self._gather(
            ("advance", stop_time), after_send=lambda: self._inject_kills("after")
        )
        self._advance_index += 1
        if self._supervisor is not None:
            self._log.append(("advance", stop_time))
            self._advances_since_checkpoint += 1
            for worker_index in range(self.workers):
                if worker_index not in self._dead_workers:
                    self._restarts[worker_index] = 0
            interval = self._supervisor.checkpoint_interval
            if interval > 0 and self._advances_since_checkpoint >= interval:
                self._checkpoint()
        if not by_shard:
            raise FatalWorkerError(
                "every federation shard is dead; nothing left to advance"
            )
        now = next(iter(by_shard.values())).current_time
        self._now = now
        return [
            by_shard[shard_id] if shard_id in by_shard else _dead_summary(shard_id, now)
            for shard_id in range(self.num_shards)
        ]

    def submit(self, shard_id: int, job: Job) -> None:
        if shard_id in self._dead_shards:
            raise SimulationError(
                f"shard {shard_id} is dead; the router must not route to it"
            )
        worker_index = shard_id % self.workers
        message = ("submit", shard_id, job)
        try:
            self._send(worker_index, message, phase=f"submit shard {shard_id}")
        except RetryableWorkerError as exc:
            if not self._worker_failure(worker_index, exc, resend=message):
                # Degraded on the spot: the job never reached any shard, so
                # it goes straight to the orphan queue for re-routing.
                self._orphans.append((job, shard_id))
                self._stat_rerouted += 1
                return
        if self._supervisor is not None:
            self._log.append(("submit", shard_id, pickle.dumps(job)))
            self._submit_counts[shard_id] += 1

    def take_orphans(self) -> List[Tuple[Job, int]]:
        """Drain jobs stranded by dead shards, in deterministic route order."""
        orphans = sorted(
            self._orphans, key=lambda entry: (entry[0].arrival_time, entry[0].job_id)
        )
        self._orphans = []
        return orphans

    def dead_shard_ids(self) -> frozenset:
        return frozenset(self._dead_shards)

    def finish(self, reduce: Optional[Callable] = None) -> List:
        by_shard = self._gather(("finish", reduce))
        for shard_id in range(self.num_shards):
            if shard_id not in by_shard:  # dead shard (degraded runs)
                empty = _empty_result(shard_id, self.round_duration)
                by_shard[shard_id] = empty if reduce is None else reduce(shard_id, empty)
        return [by_shard[shard_id] for shard_id in range(self.num_shards)]

    def fault_stats(self) -> FaultStats:
        """Recovery counters of this run (federation half of the record)."""
        return FaultStats(
            worker_restarts=self._stat_restarts,
            checkpoints=self._stat_checkpoints,
            replayed_commands=self._stat_replayed,
            dead_shards=len(self._dead_shards),
            rerouted_jobs=self._stat_rerouted,
            lost_jobs=self._stat_lost,
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker_index, conn in enumerate(self._conns):
            if conn is None or worker_index in self._dead_workers:
                continue
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            if conn is not None:
                conn.close()
