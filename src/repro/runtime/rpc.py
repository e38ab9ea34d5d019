"""An in-memory stand-in for the gRPC layer used by the real Blox deployment.

Every call between the CentralScheduler, the WorkerManagers and the client
library goes through an :class:`InMemoryRpcChannel`.  The channel delivers
messages synchronously (the components run in one process here) but accounts
for the *cost* each call would have over the network using a simple
:class:`RpcCostModel`; the lease-renewal scalability experiment (Fig. 19)
takes the busiest endpoint of a round of lease traffic as that round's
critical-path latency.

Cost attribution is **caller-aware**: every call bills its client-side cost
(``base_ms``: serialisation + network round trip) to the *calling* endpoint
and its handling cost (``server_ms``) to the *receiving* endpoint.  Calls a
handler makes while serving a request are automatically attributed to the
endpoint running that handler (the channel keeps a context stack), so when a
worker fans a lease revocation out to its peers, the fan-out bills the worker
and its peers -- never the scheduler that sent the single original revoke.
Independent endpoints proceed in parallel in the modelled network, which is
why the critical path is the per-endpoint *maximum*, not the global sum.

Fault injection
---------------

The chaos half of the robustness layer (``docs/robustness.md``): a
:class:`FaultPlan` draws one fault per *delivery attempt* from a per-seed
RNG, scenario-engine style -- same seed, same call sequence, same faults --
and the channel absorbs the failures with a :class:`RetryPolicy`
(exponential backoff, billed to the caller: waiting is latency) plus
idempotency tokens.  Every ``call()`` gets a token (auto-generated when the
caller does not pass one), the first *executed* delivery caches its result
under that token, and later deliveries of the same token return the cache
without re-running the handler.  Together these give **exactly-once**
semantics per logical call under drops (handler never ran -- retry runs it),
lost replies (handler ran, reply vanished -- the retry is deduplicated) and
duplicates (second delivery suppressed), which is what lets a chaos run's
*schedule* stay bit-identical to a fault-free run even though its fault and
latency counters differ.  When retries are disabled or exhausted the call
raises :class:`~repro.core.exceptions.RpcFaultError`.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.exceptions import ConfigurationError, RpcFaultError
from repro.metrics.summary import FaultStats
from repro.telemetry.events import EVENT_RPC_FAULTS

#: Completed-call results remembered for duplicate suppression.  Bounds the
#: dedup memory; old tokens can only be re-delivered within a retry window,
#: which is far narrower than this.
_DEDUP_CACHE_SIZE = 4096


@dataclass(frozen=True)
class RpcCostModel:
    """Latency model for one RPC between two components.

    ``base_ms`` is the per-call client-side overhead (serialisation + network
    round trip), billed to the caller; ``server_ms`` is the time the receiving
    server spends handling the call, billed to the callee.  Calls into a
    single server serialise on that server, which is what makes a centralised
    lease server a bottleneck as the cluster scales.
    """

    base_ms: float = 0.02
    server_ms: float = 0.03

    def __post_init__(self) -> None:
        if self.base_ms < 0 or self.server_ms < 0:
            raise ConfigurationError("RPC cost components must be >= 0")


@dataclass(frozen=True)
class FaultSpec:
    """Per-delivery fault probabilities (cumulative; must sum to <= 1).

    ``drop``: the request vanishes before the handler runs.  ``lose_reply``:
    the handler runs but the reply vanishes -- the dangerous one, since a
    naive retry would re-execute a non-idempotent operation.  ``duplicate``:
    the request is delivered twice back to back.  ``delay``: the call
    succeeds but pays ``delay_ms`` extra latency.
    """

    drop_rate: float = 0.0
    lose_reply_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    delay_ms: float = 5.0

    def __post_init__(self) -> None:
        rates = (
            self.drop_rate,
            self.lose_reply_rate,
            self.duplicate_rate,
            self.delay_rate,
        )
        if any(r < 0 for r in rates) or sum(rates) > 1.0:
            raise ConfigurationError(
                f"fault rates must be >= 0 and sum to <= 1, got {rates}"
            )
        if self.delay_ms < 0:
            raise ConfigurationError(f"delay_ms must be >= 0, got {self.delay_ms}")


class FaultPlan:
    """Seeded fault source: one RNG draw per delivery attempt.

    Deterministic the same way scenario timelines are: the channel consumes
    draws in call order (the runtime is single-threaded), so a given
    ``(spec, seed)`` injects the same fault at the same call every run --
    which is what makes chaos runs replayable and their parity gates
    meaningful.  ``methods``, when given, restricts injection to those RPC
    method names (other calls always succeed).
    """

    def __init__(
        self,
        spec: FaultSpec,
        seed: int = 0,
        methods: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.methods = None if methods is None else frozenset(methods)
        self._rng = random.Random(seed)
        self.drops = 0
        self.lost_replies = 0
        self.duplicates = 0
        self.delays = 0

    @property
    def faults_injected(self) -> int:
        return self.drops + self.lost_replies + self.duplicates + self.delays

    def draw(self, endpoint: str, method: str) -> str:
        """Fault of the next delivery attempt: one of drop/lose_reply/
        duplicate/delay/ok."""
        if self.methods is not None and method not in self.methods:
            return "ok"
        roll = self._rng.random()
        spec = self.spec
        threshold = spec.drop_rate
        if roll < threshold:
            self.drops += 1
            return "drop"
        threshold += spec.lose_reply_rate
        if roll < threshold:
            self.lost_replies += 1
            return "lose_reply"
        threshold += spec.duplicate_rate
        if roll < threshold:
            self.duplicates += 1
            return "duplicate"
        threshold += spec.delay_rate
        if roll < threshold:
            self.delays += 1
            return "delay"
        return "ok"


@dataclass(frozen=True)
class RetryPolicy:
    """How many delivery attempts a call gets, and what waiting costs.

    Backoff before attempt ``k`` (k >= 2) is ``base * 2**(k-2)`` capped at
    ``backoff_max_ms``, billed to the *caller* -- time spent waiting for a
    retry is latency on that endpoint's critical path, exactly like the
    round trip itself.
    """

    max_attempts: int = 4
    backoff_base_ms: float = 1.0
    backoff_max_ms: float = 50.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_ms < 0 or self.backoff_max_ms < 0:
            raise ConfigurationError("backoff components must be >= 0")

    def backoff_ms(self, attempt: int) -> float:
        if attempt <= 1:
            return 0.0
        return min(self.backoff_base_ms * (2 ** (attempt - 2)), self.backoff_max_ms)


@dataclass
class RpcCall:
    """A record of one delivered message (kept for tests and debugging)."""

    target: str
    method: str
    payload: Any
    caller: Optional[str] = None


class InMemoryRpcChannel:
    """Synchronous message delivery with per-endpoint cost accounting.

    ``fault_plan``/``retry_policy`` arm the chaos layer; both default to off,
    in which case delivery, accounting and the call log behave exactly as the
    fault-free channel always has (single attempt, no token bookkeeping
    beyond an unused counter).
    """

    def __init__(
        self,
        cost_model: RpcCostModel = RpcCostModel(),
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.cost_model = cost_model
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        #: endpoint -> method -> handler: one nested lookup per message, and
        #: an endpoint leaves the cluster as one key.
        self._handlers: Dict[str, Dict[str, Callable[[Any], Any]]] = {}
        self.call_log: List[RpcCall] = []
        #: Total busy time per endpoint in milliseconds, used to compute the
        #: critical-path latency of a round of lease traffic.
        self.endpoint_busy_ms: Dict[str, float] = {}
        self.total_calls = 0
        #: Endpoints currently executing a handler (innermost last); nested
        #: calls made from inside a handler bill their client-side cost to the
        #: endpoint running that handler.
        self._context: List[str] = []
        #: idempotency token -> cached handler result (bounded LRU-ish).
        self._dedup: "OrderedDict[str, Any]" = OrderedDict()
        self._token_seq = 0
        # Lifetime counters (never cleared by reset_accounting -- the fault
        # record spans the whole run, while busy-time resets every round).
        self.lifetime_calls = 0
        self.retries = 0
        self.duplicates_suppressed = 0
        self.exhausted = 0
        #: Optional telemetry: (recorder, clock, interval).  Every
        #: ``interval`` calls the channel streams a FaultStats snapshot, so
        #: chaos runs are observable live instead of only post-run.
        self._telemetry: Optional[Tuple] = None

    def set_telemetry(self, recorder, clock, interval: int = 1024) -> None:
        """Stream periodic ``rpc-faults`` counter snapshots to ``recorder``."""
        if interval < 1:
            raise ConfigurationError(f"telemetry interval must be >= 1, got {interval}")
        self._telemetry = (recorder, clock, interval)

    def register(self, endpoint: str, method: str, handler: Callable[[Any], Any]) -> None:
        """Register a handler for ``method`` on ``endpoint``."""
        self._handlers.setdefault(endpoint, {})[method] = handler

    def unregister_endpoint(self, endpoint: str) -> None:
        """Drop every handler of ``endpoint`` (the node left the cluster)."""
        self._handlers.pop(endpoint, None)

    def has_endpoint(self, endpoint: str) -> bool:
        return endpoint in self._handlers

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def _bill(self, endpoint: Optional[str], cost_ms: float) -> None:
        if endpoint is None or cost_ms == 0.0:
            return
        self.endpoint_busy_ms[endpoint] = (
            self.endpoint_busy_ms.get(endpoint, 0.0) + cost_ms
        )

    def _execute(
        self, endpoint: str, handler: Callable[[Any], Any], payload: Any, token: str
    ) -> Any:
        """Run the handler at most once per token; duplicates hit the cache."""
        if token in self._dedup:
            self.duplicates_suppressed += 1
            return self._dedup[token]
        self._context.append(endpoint)
        try:
            result = handler(payload)
        finally:
            self._context.pop()
        self._dedup[token] = result
        while len(self._dedup) > _DEDUP_CACHE_SIZE:
            self._dedup.popitem(last=False)
        return result

    def call(
        self,
        endpoint: str,
        method: str,
        payload: Any = None,
        caller: Optional[str] = None,
        log: bool = True,
        idempotency_token: Optional[str] = None,
    ) -> Any:
        """Deliver a message, attributing client cost to the caller and server
        cost to the receiver.

        ``caller`` names the endpoint issuing the call; when omitted, a call
        made from inside a handler is attributed to the endpoint running that
        handler.  ``log=False`` skips the per-call record (bulk traffic such
        as metric pulls would otherwise dominate the log) but still counts
        and bills the call.  ``idempotency_token`` names the *logical*
        operation: deliveries sharing a token execute the handler once and
        share its result.  Protocol code passes stable tokens (e.g. one per
        lease revocation); anonymous calls get a fresh per-call token, which
        still protects them against the channel's own retries and injected
        duplicates.
        """
        try:
            handler = self._handlers[endpoint][method]
        except KeyError:
            raise ConfigurationError(
                f"no handler registered for {method!r} on {endpoint!r}"
            ) from None
        if caller is None and self._context:
            caller = self._context[-1]
        self.total_calls += 1
        self.lifetime_calls += 1
        if self._telemetry is not None:
            recorder, clock, interval = self._telemetry
            if self.lifetime_calls % interval == 0:
                recorder.emit(
                    EVENT_RPC_FAULTS, clock(), self.fault_stats().as_dict()
                )
        if log:
            self.call_log.append(
                RpcCall(target=endpoint, method=method, payload=payload, caller=caller)
            )
        if self.fault_plan is None and idempotency_token is None:
            # Fault-free fast path: what ``_bill`` does, in the same order
            # (caller first, so the float sums are the historical ones).
            busy = self.endpoint_busy_ms
            cost = self.cost_model
            if caller is not None and cost.base_ms != 0.0:
                busy[caller] = busy.get(caller, 0.0) + cost.base_ms
            if cost.server_ms != 0.0:
                busy[endpoint] = busy.get(endpoint, 0.0) + cost.server_ms
            self._context.append(endpoint)
            try:
                return handler(payload)
            finally:
                self._context.pop()
        if idempotency_token is None:
            self._token_seq += 1
            idempotency_token = f"auto:{self._token_seq}"
        max_attempts = 1 if self.retry_policy is None else self.retry_policy.max_attempts
        attempt = 0
        while True:
            attempt += 1
            if self.retry_policy is not None:
                self._bill(caller, self.retry_policy.backoff_ms(attempt))
            fault = (
                self.fault_plan.draw(endpoint, method)
                if self.fault_plan is not None
                else "ok"
            )
            self._bill(caller, self.cost_model.base_ms)
            if fault == "drop":
                # Request lost in flight: the server never saw it.
                delivered, result = False, None
            else:
                if fault == "delay":
                    self._bill(caller, self.fault_plan.spec.delay_ms)
                self._bill(endpoint, self.cost_model.server_ms)
                result = self._execute(endpoint, handler, payload, idempotency_token)
                if fault == "duplicate":
                    # Second copy of the same message arrives: it costs the
                    # server another handling slot, but the token suppresses
                    # re-execution.
                    self._bill(endpoint, self.cost_model.server_ms)
                    self._execute(endpoint, handler, payload, idempotency_token)
                # A lost reply executed the handler; the caller just cannot
                # know that -- only a deduplicated retry can surface the
                # cached result.
                delivered = fault != "lose_reply"
            if delivered:
                return result
            if attempt >= max_attempts:
                self.exhausted += 1
                raise RpcFaultError(
                    f"RPC {method!r} to {endpoint!r} failed after {attempt} "
                    f"attempt(s) under fault injection (last fault: {fault})"
                )
            self.retries += 1

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def busy_ms(self, endpoint: str) -> float:
        return self.endpoint_busy_ms.get(endpoint, 0.0)

    def critical_path_ms(self) -> float:
        """Busiest endpoint since the last reset: endpoints run in parallel,
        so the slowest one bounds the round."""
        if not self.endpoint_busy_ms:
            return 0.0
        return max(self.endpoint_busy_ms.values())

    def reset_accounting(self) -> None:
        """Clear cost counters (the call handlers stay registered).

        Lifetime fault/retry counters survive: they describe the run, not
        the round.
        """
        self.endpoint_busy_ms.clear()
        self.call_log.clear()
        self.total_calls = 0

    def fault_stats(self) -> FaultStats:
        """Chaos counters of this channel's lifetime (RPC half of the record)."""
        plan = self.fault_plan
        return FaultStats(
            rpc_calls=self.lifetime_calls,
            faults_injected=plan.faults_injected if plan is not None else 0,
            drops=plan.drops if plan is not None else 0,
            delays=plan.delays if plan is not None else 0,
            duplicates=plan.duplicates if plan is not None else 0,
            lost_replies=plan.lost_replies if plan is not None else 0,
            retries=self.retries,
            duplicates_suppressed=self.duplicates_suppressed,
            exhausted=self.exhausted,
        )
