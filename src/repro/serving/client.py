"""Client APIs for the inference server: sync, ``asyncio`` and routing.

Three layers, each a thin veneer over :meth:`InferenceServer.submit`:

* :class:`InferenceClient` — synchronous per-query calls.  The verbs cover
  all ten typed kinds (``likelihood`` / ``log_likelihood`` / ``marginal``
  / ``conditional`` / ``mpe`` plus the analysis verbs ``sample`` /
  ``expectation`` / ``entropy`` / ``mutual_information`` / ``classify``);
  scalar in, scalar out, with the batching happening server-side.
  ``submit`` also accepts a typed :class:`repro.api.Query` object or its
  serialized payload directly.
* :class:`AsyncInferenceClient` — the same surface as coroutines, for
  ``asyncio`` applications.  Thousands of concurrent ``await`` s naturally
  fill the server's micro-batches (see ``examples/sensor_health_monitoring.py``).
* :class:`ModelRouter` — multi-model routing keyed by suite registry name:
  maps each model name to the server hosting it, so a deployment can shard
  models across servers while clients keep a single entry point.

Kinds are :class:`repro.api.QueryKind` values (``str``-enum members — the
historical raw strings still work, but unknown kinds fail at construction).

Both clients speak the resilience vocabulary of
:mod:`repro.serving.resilience`: a ``retry`` policy (jittered exponential
backoff over the typed retryable errors, bounded by a shared
:class:`~repro.serving.resilience.RetryBudget`), a per-model circuit
``breaker`` (:class:`~repro.serving.resilience.BreakerPolicy`), and a
per-call ``deadline_s`` that rides the request into the server (rows past
their deadline are dropped before execution) and bounds every client-side
wait.  All three are opt-in; an unconfigured client behaves exactly as
before.  Retries count ``serving_retries_total`` and breaker transitions
set the ``serving_breaker_state`` gauge, both on the server's metrics
registry.

The two clients share one request path.  Every verb is written once, on a
base class; every retry, budget, breaker and deadline decision is made by
one sans-I/O :class:`~repro.serving.resilience.CallPolicy` per logical
request; each client keeps only the loop that waits (``Future.result`` and
``time.sleep``, or ``wrap_future`` and ``asyncio.sleep``).
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Dict, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from ..api.queries import (
    Classify,
    Conditional,
    Entropy,
    Expectation,
    Marginal,
    MutualInformation,
    Query,
    QueryKind,
    Sample,
)
from ..observability import metrics_enabled
from .queue import BatchingPolicy
from .resilience import (
    BREAKER_STATES,
    RESULT_GRACE_S,
    BreakerPolicy,
    CallPolicy,
    CircuitBreaker,
    DeadlineExceededError,
    RetryBudget,
    RetryPolicy,
)
from .server import (
    KIND_LIKELIHOOD,
    KIND_LOG_LIKELIHOOD,
    KIND_MPE,
    InferenceServer,
    UnknownModelError,
)

__all__ = ["AsyncInferenceClient", "InferenceClient", "ModelRouter"]

Evidence = Union[Query, Mapping[int, int], Sequence, np.ndarray]


def _deadline_kwargs(remaining: Optional[float]) -> Dict[str, float]:
    """``deadline_s=remaining`` as kwargs, omitted entirely when unset.

    Omission (rather than an explicit ``deadline_s=None``) keeps the
    clients compatible with ``submit`` wrappers and test doubles written
    against the pre-deadline signature.
    """
    return {} if remaining is None else {"deadline_s": remaining}


class _QueryVerbs:
    """The query verbs, written once for both clients.

    Each verb hands :meth:`_request` two thunks, one building what to
    submit and one telling whether the result unwraps to its single row,
    plus the explicit kind (``None`` when the submitted query carries its
    own).  On :class:`InferenceClient` a verb returns the value; on
    :class:`AsyncInferenceClient` it returns a coroutine that builds and
    sends nothing until it is awaited.
    """

    def _request(self, build, scalar, kind, model, timeout, deadline_s):
        raise NotImplementedError

    def query(
        self,
        evidence: Evidence,
        kind: Union[str, QueryKind, None] = None,
        model: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ):
        """Submit and wait.  Single-row queries unwrap to a scalar result.

        A mapping or a single evidence row is a scalar query; a typed
        :class:`~repro.api.queries.Query` object, a serialized payload or
        a 2-D batch keeps its vector shape (the typed path is batch-first).
        """
        return self._request(
            lambda: evidence,
            lambda: _is_scalar(evidence),
            kind, model, timeout, deadline_s,
        )

    def likelihood(
        self,
        evidence: Evidence,
        model: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ):
        return self.query(evidence, KIND_LIKELIHOOD, model, timeout, deadline_s)

    def log_likelihood(
        self,
        evidence: Evidence,
        model: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ):
        return self.query(evidence, KIND_LOG_LIKELIHOOD, model, timeout, deadline_s)

    def marginal(
        self,
        evidence: Evidence,
        log: bool = False,
        normalize: bool = False,
        model: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ):
        """(Log-)marginal probability of the evidence, optionally / Z."""
        return self._request(
            lambda: Marginal(evidence, log=log, normalize=normalize),
            lambda: _is_scalar(evidence),
            None, model, timeout, deadline_s,
        )

    def conditional(
        self,
        query: Evidence,
        evidence: Evidence,
        log: bool = False,
        model: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ):
        """Batched conditional P(query | evidence), served in the log domain.

        Unwraps to a scalar only when *both* assignments are scalar-formed
        (a mapping or a single row) — a 2-D batch on either side keeps the
        vector shape.
        """
        return self._request(
            lambda: Conditional(evidence=evidence, query=query, log=log),
            lambda: _is_scalar(query) and _is_scalar(evidence),
            None, model, timeout, deadline_s,
        )

    def mpe(
        self,
        evidence: Evidence,
        model: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ):
        return self.query(evidence, KIND_MPE, model, timeout, deadline_s)

    def sample(
        self,
        evidence: Evidence,
        n_samples: int = 1,
        seed: int = 0,
        model: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ):
        """Seeded conditional samples; a scalar query unwraps to
        ``(n_samples, n_vars)``."""
        return self._request(
            lambda: Sample(evidence, n_samples=n_samples, seed=seed),
            lambda: _is_scalar(evidence),
            None, model, timeout, deadline_s,
        )

    def expectation(
        self,
        evidence: Evidence,
        variables=None,
        moment: int = 1,
        center: bool = False,
        model: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ):
        """Conditional moments per variable under the evidence."""
        return self._request(
            lambda: Expectation(
                evidence, variables=variables, moment=moment, center=center
            ),
            lambda: _is_scalar(evidence),
            None, model, timeout, deadline_s,
        )

    def entropy(
        self,
        evidence: Evidence,
        variables=None,
        model: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ):
        """Per-variable conditional entropy (nats) under the evidence."""
        return self._request(
            lambda: Entropy(evidence, variables=variables),
            lambda: _is_scalar(evidence),
            None, model, timeout, deadline_s,
        )

    def mutual_information(
        self,
        evidence: Optional[Evidence] = None,
        variables=None,
        normalize: bool = False,
        model: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ):
        """Pairwise (normalized) MI matrix; ``evidence=None`` = unconditional."""
        return self._request(
            lambda: MutualInformation(
                evidence, variables=variables, normalize=normalize
            ),
            lambda: evidence is None or _is_scalar(evidence),
            None, model, timeout, deadline_s,
        )

    def classify(
        self,
        evidence: Evidence,
        target: int,
        log: bool = False,
        model: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ):
        """Posterior over the target's states; scalar in, ``(n_states,)`` out."""
        return self._request(
            lambda: Classify(evidence, target=target, log=log),
            lambda: _is_scalar(evidence),
            None, model, timeout, deadline_s,
        )


class InferenceClient(_QueryVerbs):
    """Synchronous client bound to one server (and optionally one model).

    ``retry`` (a :class:`~repro.serving.resilience.RetryPolicy`) makes the
    blocking verbs transparently retry typed-retryable failures — load
    shedding, backpressure timeouts, worker crashes, transient executor
    faults, open breakers — with seeded jittered backoff.  ``retry_budget``
    bounds the extra traffic retrying may generate (defaults to a fresh
    :class:`~repro.serving.resilience.RetryBudget` when ``retry`` is set);
    an exhausted budget re-raises the original error.  ``breaker`` (a
    :class:`~repro.serving.resilience.BreakerPolicy`) maintains one
    circuit breaker per model: after ``failure_threshold`` consecutive
    failures the model's calls fail fast with
    :class:`~repro.serving.resilience.CircuitOpenError` until a cooldown
    probe succeeds.  :meth:`submit` stays the raw primitive — no retry,
    no breaker — for callers that manage futures themselves.
    """

    def __init__(
        self,
        server: InferenceServer,
        model: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        retry_budget: Optional[RetryBudget] = None,
        breaker: Optional[BreakerPolicy] = None,
    ):
        self._server = server
        self._model = model
        self._retry = retry
        if retry_budget is None and retry is not None:
            retry_budget = RetryBudget()
        self._budget = retry_budget
        self._breaker_policy = breaker
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()

    def _resolve(self, model: Optional[str]) -> str:
        name = model or self._model
        if name is None:
            raise ValueError("no model given and the client has no default model")
        return name

    # Resilience core ---------------------------------------------------- #
    def _breaker_for(self, name: str) -> Optional[CircuitBreaker]:
        """The (lazily created) circuit breaker guarding ``name``."""
        if self._breaker_policy is None:
            return None
        with self._breakers_lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                gauge = self._server.metrics.registry.gauge(
                    "serving_breaker_state", model=name
                )
                breaker = CircuitBreaker(
                    failure_threshold=self._breaker_policy.failure_threshold,
                    reset_timeout_s=self._breaker_policy.reset_timeout_s,
                    on_state_change=lambda state: gauge.set(BREAKER_STATES[state]),
                )
                self._breakers[name] = breaker
        return breaker

    def _count_retry(self) -> None:
        if metrics_enabled():
            self._server.metrics.registry.counter("serving_retries_total").inc()

    def _policy(self, name: str, deadline_s: Optional[float]) -> CallPolicy:
        """The call policy of one logical request to ``name``."""
        return CallPolicy(
            self._retry,
            self._budget,
            self._breaker_for(name),
            deadline_s,
            time.monotonic(),
            on_retry=self._count_retry,
        )

    def _send(self, name, payload, kind, timeout, remaining) -> Future:
        """One admission, carrying the deadline left (``None``: unbounded)."""
        return self._server.submit(
            name, payload, kind=kind, timeout=timeout, **_deadline_kwargs(remaining)
        )

    def _request(self, build, scalar, kind, model, timeout, deadline_s):
        """One resilient blocking request: the policy decides, this waits."""
        payload = build()
        name = self._resolve(model)
        policy = self._policy(name, deadline_s)
        while True:
            try:
                remaining = policy.start(time.monotonic())
                future = self._send(name, payload, kind, timeout, remaining)
                wait = None if remaining is None else remaining + RESULT_GRACE_S
                try:
                    result = future.result(timeout=wait)
                except DeadlineExceededError:
                    raise  # the server's own typed deadline failure
                except FuturesTimeoutError as exc:
                    future.cancel()
                    raise policy.timed_out() from exc
            except BaseException as exc:
                delay = policy.failed(exc, time.monotonic())
                if delay is None:
                    raise
                time.sleep(delay)
            else:
                policy.succeeded()
                return result[0] if scalar() else result

    def live_version(self, model: Optional[str] = None) -> Optional[str]:
        """The version of the (default) model currently taking traffic."""
        return self._server.live_version(self._resolve(model))

    def server_stats(self) -> Dict[str, object]:
        """The server's ``stats`` control payload (JSON-serializable).

        Hosted models with live versions, instantaneous queue depth, the
        :class:`~repro.serving.metrics.ServingMetrics` snapshot and the
        server's full metrics-registry snapshot — see
        :meth:`repro.serving.server.InferenceServer.stats`.
        """
        return self._server.control("stats")

    def submit(
        self,
        evidence: Evidence,
        kind: Union[str, QueryKind, None] = None,
        model: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ) -> Future:
        """Enqueue a query and return its future (the non-blocking primitive).

        ``evidence`` may be a typed :class:`repro.api.Query` (or its
        serialized payload), which carries its own kind — an explicitly
        passed ``kind`` that disagrees with it is rejected at admission
        (the named verbs rely on this: ``likelihood(LogLikelihood(...))``
        raises instead of silently serving log-domain values).  For plain
        evidence, ``kind=None`` defaults to ``log_likelihood``.
        ``timeout`` bounds the backpressure wait against a full admission
        queue (:class:`~repro.serving.queue.QueueFullError` on expiry) —
        the load-shedding knob under overload; ``deadline_s`` gives the
        request a server-side deadline.  This primitive never retries and
        never consults the breaker — the blocking verbs do.
        """
        return self._server.submit(
            self._resolve(model),
            evidence,
            kind=kind,
            timeout=timeout,
            deadline_s=deadline_s,
        )


class AsyncInferenceClient(_QueryVerbs):
    """``asyncio`` client: the same surface as :class:`InferenceClient`, awaited.

    Admission (which may block on backpressure) runs in the default
    executor, and the server-side :class:`~concurrent.futures.Future` is
    bridged with :func:`asyncio.wrap_future`, so the event loop is never
    blocked — concurrent tasks pile their rows into shared micro-batches.

    ``retry`` / ``retry_budget`` / ``breaker`` mirror
    :class:`InferenceClient` (the breakers and budget are shared with the
    underlying sync client, so mixed sync/async use of one deployment sees
    one consistent breaker state per model); retry backoff awaits
    ``asyncio.sleep``, and a task cancellation always propagates untouched
    after freeing the breaker's half-open probe slot it may hold.
    """

    def __init__(
        self,
        server: InferenceServer,
        model: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        retry_budget: Optional[RetryBudget] = None,
        breaker: Optional[BreakerPolicy] = None,
    ):
        self._sync = InferenceClient(
            server, model, retry=retry, retry_budget=retry_budget, breaker=breaker
        )

    async def _request(self, build, scalar, kind, model, timeout, deadline_s):
        """One resilient async request: the policy decides, this awaits."""
        sync = self._sync
        payload = build()
        name = sync._resolve(model)
        policy = sync._policy(name, deadline_s)
        loop = asyncio.get_running_loop()
        while True:
            try:
                remaining = policy.start(time.monotonic())
                future = await loop.run_in_executor(
                    None, sync._send, name, payload, kind, timeout, remaining
                )
                wait = None if remaining is None else remaining + RESULT_GRACE_S
                try:
                    result = await asyncio.wait_for(asyncio.wrap_future(future), wait)
                except DeadlineExceededError:
                    raise  # the server's own typed deadline failure
                except asyncio.TimeoutError as exc:
                    raise policy.timed_out() from exc
            except asyncio.CancelledError:
                policy.cancelled()  # task cancellation is not a service failure
                raise
            except BaseException as exc:
                delay = policy.failed(exc, time.monotonic())
                if delay is None:
                    raise
                await asyncio.sleep(delay)
            else:
                policy.succeeded()
                return result[0] if scalar() else result

    async def server_stats(self) -> Dict[str, object]:
        """Awaitable :meth:`InferenceClient.server_stats` (runs in the executor)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._sync.server_stats)


class ModelRouter:
    """Routes queries to the server hosting each model.

    ``routes`` maps model names to servers; queries for unlisted models fall
    back to ``default`` (when given).  :meth:`for_suite` is the one-call
    deployment of suite benchmarks onto a single shared server.
    """

    def __init__(
        self,
        routes: Optional[Mapping[str, InferenceServer]] = None,
        default: Optional[InferenceServer] = None,
    ):
        self._routes: Dict[str, InferenceServer] = dict(routes or {})
        self._default = default

    @classmethod
    def for_suite(
        cls,
        names: Optional[Iterable[str]] = None,
        policy: Optional[BatchingPolicy] = None,
        **server_kwargs,
    ) -> "ModelRouter":
        """Host suite benchmarks on one started server and route to it.

        ``names`` defaults to every registered suite benchmark.  The caller
        owns shutdown: ``router.servers()[0].stop()`` (or iterate
        :meth:`servers`).
        """
        from ..suite.registry import benchmark_names

        names = list(names) if names is not None else benchmark_names()
        server = InferenceServer(models=names, policy=policy, **server_kwargs).start()
        return cls(routes={name: server for name in names}, default=server)

    def add_route(self, model: str, server: InferenceServer) -> None:
        self._routes[model] = server

    def route(self, model: str) -> InferenceServer:
        """The server hosting ``model`` (raises :class:`UnknownModelError`)."""
        server = self._routes.get(model, self._default)
        if server is None:
            known = ", ".join(sorted(self._routes)) or "none"
            raise UnknownModelError(f"no route for model {model!r}; routed models: {known}")
        return server

    def models(self) -> list:
        """Explicitly routed model names, sorted."""
        return sorted(self._routes)

    def servers(self) -> list:
        """The distinct servers behind this router."""
        seen: list = []
        for server in [*self._routes.values(), self._default]:
            if server is not None and not any(server is s for s in seen):
                seen.append(server)
        return seen

    def client(self, model: str) -> InferenceClient:
        return InferenceClient(self.route(model), model)

    def async_client(self, model: str) -> AsyncInferenceClient:
        return AsyncInferenceClient(self.route(model), model)

    def query(
        self,
        model: str,
        evidence: Evidence,
        kind: Union[str, QueryKind, None] = None,
        timeout: Optional[float] = None,
    ):
        return self.client(model).query(evidence, kind=kind, timeout=timeout)

    def publish(self, model: str, version: str, candidate, validate: bool = True):
        """Publish a new version of ``model`` on the server hosting it.

        Routes to the same server queries for ``model`` go to, then defers
        to :meth:`repro.serving.server.InferenceServer.publish` — shadow
        validation, atomic hot-swap and the in-flight drain guarantee are
        the server's.  Returns its
        :class:`~repro.lifecycle.registry.PublishReport`.
        """
        return self.route(model).publish(model, version, candidate, validate=validate)

    def stop(self) -> None:
        """Stop (drain) every server behind this router."""
        for server in self.servers():
            server.stop()


def _is_scalar(evidence: Evidence) -> bool:
    """True when an assignment is scalar-formed: a mapping or a single row."""
    if isinstance(evidence, Query):
        return False
    if isinstance(evidence, Mapping):
        return "kind" not in evidence  # payloads are batch-first
    return np.asarray(evidence).ndim == 1

