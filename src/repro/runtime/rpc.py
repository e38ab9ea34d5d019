"""An in-memory stand-in for the gRPC layer used by the real Blox deployment.

Every call between the CentralScheduler, the WorkerManagers and the client
library goes through an :class:`InMemoryRpcChannel`.  The channel delivers
messages synchronously (the components run in one process here) but accounts
for the *cost* each call would have over the network using two constants,
:data:`RPC_BASE_MS` and :data:`RPC_SERVER_MS`; the lease-renewal scalability
experiment (Fig. 19) takes the busiest endpoint of a round of lease traffic as
that round's critical-path latency.

Cost attribution is **caller-aware**: every call bills its client-side cost
(``RPC_BASE_MS``: serialisation + network round trip) to the *calling*
endpoint and its handling cost (``RPC_SERVER_MS``) to the *receiving*
endpoint.  Calls a handler makes while serving a request are automatically
attributed to the endpoint running that handler (the channel keeps a context
stack), so when a worker fans a lease revocation out to its peers, the fan-out
bills the worker and its peers -- never the scheduler that sent the single
original revoke.
Independent endpoints proceed in parallel in the modelled network, which is
why the critical path is the per-endpoint *maximum*, not the global sum.

Fault injection
---------------

The chaos half of the robustness layer (``docs/robustness.md``): a
:class:`FaultPlan` draws one fault per *delivery attempt* from a per-seed
RNG -- same seed, same call sequence, same faults -- and the channel absorbs
them with a :class:`RetryPolicy` (exponential backoff, billed to the caller:
waiting is latency) plus idempotency tokens: the first *executed* delivery of
a token (auto-generated when the caller passes none) caches its result, and
later deliveries return the cache without re-running the handler.  That is
**exactly-once** per logical call under drops (the retry runs the handler),
lost replies (the retry is deduplicated) and duplicates (suppressed), so a
chaos run's *schedule* stays bit-identical to a fault-free run while its
fault and latency counters differ; disabled or exhausted retries raise
:class:`~repro.core.exceptions.RpcFaultError`.  Without a plan every call is
delivered exactly once by construction: no token, dedup cache or attempt loop.
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


#: The RPC cost model.  Every call bills ``RPC_BASE_MS`` (client-side
#: serialisation + network round trip) to the caller and ``RPC_SERVER_MS``
#: (the receiving server's handling time) to the callee, in milliseconds.
#: Calls into a single server serialise on that server, which is what makes
#: a centralised lease server a bottleneck as the cluster scales.
RPC_BASE_MS = 0.02
RPC_SERVER_MS = 0.03


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


#: Retry backoff before attempt ``k`` (k >= 2): ``RETRY_BACKOFF_BASE_MS *
#: 2**(k-2)`` capped at ``RETRY_BACKOFF_MAX_MS``, in milliseconds.
RETRY_BACKOFF_BASE_MS = 1.0
RETRY_BACKOFF_MAX_MS = 50.0


@dataclass(frozen=True)
class RetryPolicy:
    """How many delivery attempts a call gets.

    Backoff before attempt ``k`` (k >= 2) is :data:`RETRY_BACKOFF_BASE_MS`
    doubled per attempt and capped at :data:`RETRY_BACKOFF_MAX_MS`, billed
    to the *caller* -- time spent waiting for a retry is latency on that
    endpoint's critical path, exactly like the round trip itself.
    """

    max_attempts: int = 4

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def backoff_ms(self, attempt: int) -> float:
        if attempt <= 1:
            return 0.0
        return min(RETRY_BACKOFF_BASE_MS * (2 ** (attempt - 2)), RETRY_BACKOFF_MAX_MS)


class InMemoryRpcChannel:
    """Synchronous message delivery with per-endpoint cost accounting.

    ``fault_plan``/``retry_policy`` arm the chaos layer.  Without a plan
    (the default) every call takes the fast path: one attempt, billed and
    counted, no token or dedup cache (a retry policy alone has nothing to retry).
    """

    def __init__(
        self,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        #: endpoint -> method -> handler: one nested lookup per message, and
        #: an endpoint leaves the cluster as one key.
        self._handlers: Dict[str, Dict[str, Callable[[Any], Any]]] = {}
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
        if endpoint is not None and cost_ms != 0.0:
            busy = self.endpoint_busy_ms
            busy[endpoint] = busy.get(endpoint, 0.0) + cost_ms

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
        idempotency_token: Optional[str] = None,
    ) -> Any:
        """Deliver a message, attributing client cost to the caller and server
        cost to the receiver.

        ``caller`` names the endpoint issuing the call; when omitted, a call
        made from inside a handler is attributed to the endpoint running that
        handler.  ``idempotency_token`` names the *logical*
        operation: under a fault plan, deliveries sharing a token execute the
        handler once and share its result (anonymous calls get a fresh
        per-call token against the channel's own retries and duplicates);
        without one nothing delivers a call twice and the token is ignored.
        """
        try:
            handler = self._handlers[endpoint][method]
        except KeyError:
            raise ConfigurationError(
                f"no handler registered for {method!r} on {endpoint!r}"
            ) from None
        context = self._context
        if caller is None and context:
            caller = context[-1]
        self.total_calls += 1
        self.lifetime_calls += 1
        if self._telemetry is not None:
            recorder, clock, interval = self._telemetry
            if self.lifetime_calls % interval == 0:
                recorder.emit(
                    EVENT_RPC_FAULTS, clock(), self.fault_stats().as_dict()
                )
        if self.fault_plan is None:
            # Fault-free fast path: what ``_bill`` does, in the same order
            # (caller first, so the float sums are the historical ones).
            busy = self.endpoint_busy_ms
            if caller is not None:
                busy[caller] = busy.get(caller, 0.0) + RPC_BASE_MS
            busy[endpoint] = busy.get(endpoint, 0.0) + RPC_SERVER_MS
            context.append(endpoint)
            try:
                return handler(payload)
            finally:
                context.pop()
        if idempotency_token is None:
            self._token_seq += 1
            idempotency_token = f"auto:{self._token_seq}"
        max_attempts = 1 if self.retry_policy is None else self.retry_policy.max_attempts
        attempt = 0
        while True:
            attempt += 1
            if self.retry_policy is not None:
                self._bill(caller, self.retry_policy.backoff_ms(attempt))
            fault = self.fault_plan.draw(endpoint, method)
            self._bill(caller, RPC_BASE_MS)
            if fault == "drop":
                # Request lost in flight: the server never saw it.
                delivered, result = False, None
            else:
                if fault == "delay":
                    self._bill(caller, self.fault_plan.spec.delay_ms)
                self._bill(endpoint, RPC_SERVER_MS)
                result = self._execute(endpoint, handler, payload, idempotency_token)
                if fault == "duplicate":
                    # Second copy of the same message arrives: it costs the
                    # server another handling slot, but the token suppresses
                    # re-execution.
                    self._bill(endpoint, RPC_SERVER_MS)
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
