"""The inference server: typed queries over batch-level sessions.

:class:`InferenceServer` owns a set of *served models* — suite benchmarks
resolved by registry name (:mod:`repro.suite.registry`) or explicitly
registered SPNs — each bound to an
:class:`~repro.api.session.InferenceSession` whose tape is compiled and
statically verified at registration, an admission queue
(:class:`~repro.serving.queue.MicroBatchQueue`) and a pool of worker
threads.  Clients submit **typed query objects**
(:mod:`repro.api.queries` — all ten kinds: likelihood, log-likelihood,
marginal, conditional, MPE, plus the analysis kinds sample, expectation,
entropy, mutual information and classify) or their serialized payloads;
workers pull
micro-batches off the queue, group the rows by ``(model, query group
key)`` — the group key carries the kind *and* every execution flag, so
coalescing can never merge rows that execute differently — rebuild one
batched query per group and execute it through the **same**
:meth:`InferenceSession.run` a direct caller would use.  A served answer is
therefore bit-identical to an offline one: the tape kernels are elementwise
across rows, making every row's value independent of its co-batched
company.  The tests cross-check this exactly, for conditionals included.

Lifecycle::

    from repro.api import Conditional

    with InferenceServer(models=["Audio", "CPU"]) as server:
        future = server.submit("Audio", {3: 1, 7: 0}, kind="log_likelihood")
        value = future.result()
        cond = server.submit("Audio", Conditional(query={5: 1}, evidence={3: 1}))

``submit`` returns a :class:`concurrent.futures.Future` (awaitable from
``asyncio`` via the async client in :mod:`repro.serving.client`).  Exiting
the context manager — or calling :meth:`InferenceServer.stop` — closes
admission and **drains**: every request admitted before the close still
completes with its correct value.

Query kinds are :class:`repro.api.QueryKind` values (a ``str`` enum, so the
historical raw strings still compare equal); an unknown kind string fails
at admission (:func:`repro.api.as_kind`), never inside the worker pool.

Resilience (see ``docs/robustness.md`` for the full semantics):

* **Deadlines** — ``submit(..., deadline_s=...)`` stamps an absolute
  deadline on every row; backpressure waits are clipped to it and workers
  drop rows whose deadline passed *before* the engine call, failing the
  request with :class:`~repro.serving.resilience.DeadlineExceededError`.
  An expired row never reaches ``execute_batch``.
* **Load shedding** — with ``max_in_flight`` set, admission refuses new
  requests beyond that many unresolved futures with
  :class:`~repro.serving.resilience.SheddingError` (a cheap, immediate
  rejection, distinct from the timed-out backpressure wait of
  :class:`~repro.serving.queue.QueueFullError`).
* **Self-healing workers** — a worker thread that dies mid-batch first
  *rescues* the batch (un-delivered items requeue at the front, bounded
  by ``max_rescues`` per item); a supervisor thread detects dead workers
  and restarts them, counting ``serving_worker_restarts_total``.

Fault sites (:mod:`repro.faults`) are resolved **once per batch**: the
worker's one batch loop, :meth:`InferenceServer._process_batch`, reads the
installed plan once and skips each fault site with an ``if plan is not
None`` test when there is none.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..api.queries import Conditional, Query, QueryKind, Sample, as_kind, query_type
from ..api.session import InferenceSession
from ..faults.hooks import active_plan as _active_fault_plan
from ..faults.plan import InjectedCrash, InjectedExecutorFault
from ..lifecycle.artifact import ModelArtifact
from ..lifecycle.registry import ModelRegistry, PublishReport
from ..observability import REGISTRY, TRACER, metrics_enabled
from ..spn.graph import SPN
from .metrics import ServingMetrics
from .queue import (
    BatchingPolicy,
    MicroBatchQueue,
    QueueClosedError,
    QueueFullError,
    WorkItem,
)
from .resilience import (
    RESULT_GRACE_S,
    DeadlineExceededError,
    SheddingError,
    WorkerCrashError,
)

__all__ = [
    "KIND_LIKELIHOOD",
    "KIND_LOG_LIKELIHOOD",
    "KIND_MARGINAL",
    "KIND_CONDITIONAL",
    "KIND_MPE",
    "KIND_SAMPLE",
    "KIND_EXPECTATION",
    "KIND_ENTROPY",
    "KIND_MUTUAL_INFORMATION",
    "KIND_CLASSIFY",
    "QUERY_KINDS",
    "InferenceServer",
    "ServedModel",
    "ServerClosedError",
    "UnknownModelError",
]

#: The query kinds a server answers — the shared :class:`repro.api.QueryKind`
#: vocabulary (``str``-valued enum members, so they compare equal to the
#: historical raw strings).  The value kinds batch through the compiled
#: tape; ``mpe`` runs the session's batched MPE search over the same tape.
KIND_LIKELIHOOD = QueryKind.LIKELIHOOD
KIND_LOG_LIKELIHOOD = QueryKind.LOG_LIKELIHOOD
KIND_MARGINAL = QueryKind.MARGINAL
KIND_CONDITIONAL = QueryKind.CONDITIONAL
KIND_MPE = QueryKind.MPE
KIND_SAMPLE = QueryKind.SAMPLE
KIND_EXPECTATION = QueryKind.EXPECTATION
KIND_ENTROPY = QueryKind.ENTROPY
KIND_MUTUAL_INFORMATION = QueryKind.MUTUAL_INFORMATION
KIND_CLASSIFY = QueryKind.CLASSIFY
QUERY_KINDS = tuple(QueryKind)


logger = logging.getLogger("repro.serving")


class UnknownModelError(ValueError):
    """Raised when a query names a model the server does not host."""


class ServerClosedError(RuntimeError):
    """Raised when submitting to a server that is not accepting work."""


@dataclass(frozen=True)
class ServedModel:
    """One hosted model *version*: its name, version, and bound session.

    ``session`` is the model's :class:`~repro.api.session.InferenceSession`
    — the exact object an offline caller would use, so serving cannot drift
    from direct execution; the SPN, evidence width and compiled tape are
    the session's (exposed as read-through properties).  ``n_vars`` is the
    model's evidence width: submitted rows are normalized to exactly this
    many columns (shorter rows are padded with
    :data:`~repro.spn.evaluate.MARGINALIZED`; unobserved surplus columns
    are trimmed exactly, observed ones are rejected at admission).  The
    ``tape`` is the one the session's passes run (compiled at
    registration, or shipped by an AOT artifact); the tape cache holds it
    while the model is served and recompiles it if the model changes.

    The server keeps exactly **one** canonical ``ServedModel`` per
    installed ``(name, version)`` and pins it on every admitted work item,
    so in-flight requests keep executing on the version they were admitted
    under across a hot-swap, and worker-side grouping by served model can
    never merge rows of different versions.
    """

    name: str
    session: InferenceSession = field(repr=False)
    version: str = "0"
    artifact: Optional[ModelArtifact] = field(repr=False, default=None, compare=False)

    @property
    def spn(self) -> SPN:
        return self.session.spn

    @property
    def n_vars(self) -> int:
        return self.session.n_vars

    @property
    def tape(self):
        return self.session.tape


@dataclass(frozen=True)
class _Installed:
    """Internal result of installing one version: the model and the report."""

    served: ServedModel
    report: PublishReport


class _PendingRequest:
    """Aggregates the row-level results of one submitted request.

    ``trace`` is the admission-time trace context (``None`` when tracing
    is off): the completing thread reactivates it so the response-scatter
    span lands on the same trace as the admission span.  ``slow_query_s``
    is the server's slow-query threshold; a completed request slower than
    it is logged (WARNING on the ``repro.serving`` logger) and counted.

    ``on_done`` (the server's in-flight release) is attached as a future
    done-callback: :class:`~concurrent.futures.Future` invokes callbacks
    exactly once — on ``set_result``, ``set_exception`` *or* ``cancel()``
    — so admission-controller slots are released on every outcome,
    including a caller-side cancellation that no worker ever observes.
    """

    def __init__(
        self,
        model: str,
        kind: QueryKind,
        n_rows: int,
        metrics: ServingMetrics,
        trace: object = None,
        slow_query_s: Optional[float] = None,
        on_done: Optional[Callable[[Future], None]] = None,
    ):
        self.model = model
        self.kind = kind
        self.trace = trace
        self._slow_query_s = slow_query_s
        self.future: Future = Future()
        self._results: List[object] = [None] * n_rows
        self._remaining = n_rows
        self._filled = [False] * n_rows
        self._lock = threading.Lock()
        self._done = False  # claimed under the lock: exactly one completer
        self._metrics = metrics
        self._created_at = perf_counter()
        if n_rows == 0:
            # A zero-row batch has nothing to deliver; resolve immediately
            # (mirroring evaluate_batch on an empty batch).
            self._done = True
            self._set_result()
        if on_done is not None:
            # Attached last: on a zero-row request the future is already
            # resolved and the callback fires (releasing the slot) here.
            self.future.add_done_callback(on_done)

    def _assemble(self) -> object:
        # Each kind reassembles its own per-row results (float stacking for
        # the value kinds, list for MPE, int64 stacking for Sample), so a
        # served result has exactly the type and dtype of offline
        # ``session.run``.
        return query_type(self.kind).assemble_rows(self._results)

    def _set_result(self) -> None:
        latency = perf_counter() - self._created_at
        if TRACER.enabled and self.trace is not None:
            # The completer may be any worker thread; reactivate the
            # admission context so the respond span joins the request's
            # trace (contextvars never crossed the queue).
            with TRACER.activate(self.trace):
                with TRACER.span(
                    "serving.respond",
                    model=self.model,
                    kind=self.kind.value,
                    latency_ms=latency * 1e3,
                ):
                    result = self._assemble()
        else:
            result = self._assemble()
        # Record before resolving: a caller that awaits the result and then
        # reads metrics.snapshot() must see its own request counted.
        if not self.future.cancelled():
            self._metrics.record_request(latency)
            if self._slow_query_s is not None and latency >= self._slow_query_s:
                if metrics_enabled():
                    self._metrics.registry.counter(
                        "serving_slow_requests_total"
                    ).inc()
                logger.warning(
                    "slow query: model=%s kind=%s latency_ms=%.3f threshold_ms=%.3f",
                    self.model,
                    self.kind.value,
                    latency * 1e3,
                    self._slow_query_s * 1e3,
                )
        try:
            self.future.set_result(result)
        except InvalidStateError:
            # The caller cancelled the future (e.g. an asyncio timeout
            # propagated through wrap_future) while its rows were queued;
            # the computed result is simply dropped.
            pass

    @property
    def abandoned(self) -> bool:
        """True once the request can no longer use results (failed/cancelled)."""
        with self._lock:
            return self._done or self.future.cancelled()

    def deliver(self, index: int, value: object) -> None:
        with self._lock:
            if self._done or self._filled[index]:
                # Idempotent per row: a crash-rescued item that was already
                # delivered before the worker died must not double-count
                # against ``_remaining`` when its requeued copy re-executes.
                return
            self._filled[index] = True
            self._results[index] = value
            self._remaining -= 1
            finished = self._remaining == 0
            if finished:
                self._done = True
        if finished:
            self._set_result()

    def fail(self, exc: BaseException) -> None:
        with self._lock:
            if self._done:
                return
            self._done = True
        try:
            self.future.set_exception(exc)
        except InvalidStateError:  # cancelled by the caller: nothing to report
            pass


class InferenceServer:
    """Dynamic-batching inference service over the model registries.

    Parameters
    ----------
    models:
        Models to host: suite benchmark names (resolved through
        :func:`repro.suite.registry.build_benchmark`), ``(name, spn)``
        pairs, or a ``{name: spn}`` mapping.  More can be added with
        :meth:`add_model` before :meth:`start`.
    policy:
        The :class:`~repro.serving.queue.BatchingPolicy` (batch size cap,
        wait window, queue depth).
    n_workers:
        Worker threads pulling micro-batches.  One worker already keeps the
        NumPy kernels busy; more help when MPE queries (Python-side search
        work) mix with batched likelihoods.
    slow_query_s:
        Slow-query threshold in seconds.  A request whose submit-to-result
        latency meets it is logged at WARNING on the ``repro.serving``
        logger and counted in ``serving_slow_requests_total``.  ``None``
        (default) disables the log.
    max_in_flight:
        Admission-control bound on unresolved requests.  Beyond it,
        :meth:`submit` raises
        :class:`~repro.serving.resilience.SheddingError` immediately
        (no encoding, no enqueue) instead of letting latency collapse
        under overload.  ``None`` (default) disables shedding; the
        bounded queue's backpressure still applies either way.
    max_rescues:
        How many times one work item may be rescued from a crashing
        worker before its request fails with
        :class:`~repro.serving.resilience.WorkerCrashError`.  Bounds the
        damage of a *deterministically* crashing batch (poison pill).
    heal_interval_s:
        The supervisor's poll interval for detecting and restarting dead
        worker threads.
    """

    def __init__(
        self,
        models: Union[Iterable[object], Mapping[str, SPN], None] = None,
        policy: Optional[BatchingPolicy] = None,
        n_workers: int = 1,
        slow_query_s: Optional[float] = None,
        max_in_flight: Optional[int] = None,
        max_rescues: int = 3,
        heal_interval_s: float = 0.05,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        if max_rescues < 0:
            raise ValueError(f"max_rescues must be >= 0, got {max_rescues}")
        if heal_interval_s <= 0:
            raise ValueError(f"heal_interval_s must be > 0, got {heal_interval_s}")
        self.policy = policy or BatchingPolicy()
        self.metrics = ServingMetrics()
        self.slow_query_s = slow_query_s
        #: The versioned model store (publish / hot-swap / rollback).
        self.registry = ModelRegistry()
        #: Canonical ServedModel per installed (name, version); admission
        #: pins these on work items, so identity grouping is exact.
        self._served: Dict[Tuple[str, str], ServedModel] = {}
        # Queue depth and queue wait live on the server's private registry
        # (alongside the ServingMetrics counters), so one snapshot shows
        # admission pressure next to throughput and latency.
        self._queue_wait = self.metrics.registry.histogram(
            "serving_queue_wait_seconds"
        )
        self._queue = MicroBatchQueue(
            self.policy,
            depth_gauge=self.metrics.registry.gauge("serving_queue_depth"),
        )
        # Resilience state.  Worker threads are supervised: the pool list,
        # the retired set (threads that exited *normally* on drain) and the
        # spawn counter share one lock; a pool thread that is dead but not
        # retired crashed, and the supervisor replaces it.
        self._workers: List[threading.Thread] = []
        self._n_workers = n_workers
        self._workers_lock = threading.Lock()
        self._retired: set = set()
        self._worker_seq = 0
        self._supervisor: Optional[threading.Thread] = None
        self._supervisor_stop = threading.Event()
        self.heal_interval_s = float(heal_interval_s)
        self.max_rescues = int(max_rescues)
        # Admission control: unresolved requests currently in the system.
        self._max_in_flight = max_in_flight
        self._in_flight_lock = threading.Lock()
        self._in_flight = 0
        self._in_flight_gauge = self.metrics.registry.gauge("serving_in_flight")
        self._shed_total = self.metrics.registry.counter("serving_shed_total")
        self._deadline_total = self.metrics.registry.counter(
            "serving_deadline_exceeded_total"
        )
        self._worker_restarts = self.metrics.registry.counter(
            "serving_worker_restarts_total"
        )
        self._abort = False
        self._started = False
        for entry in self._iter_model_entries(models):
            if isinstance(entry[0], ModelArtifact):
                self.add_artifact(entry[0])
            else:
                self.add_model(*entry)

    @staticmethod
    def _iter_model_entries(models) -> Iterable[Tuple]:
        if models is None:
            return
        if isinstance(models, Mapping):
            for name, spn in models.items():
                yield name, spn
            return
        for entry in models:
            if isinstance(entry, (str, ModelArtifact)):
                yield (entry,)
            else:
                yield tuple(entry)

    # ------------------------------------------------------------------ #
    # Model hosting (versioned registry)
    # ------------------------------------------------------------------ #
    def add_model(
        self, name: str, spn: Optional[SPN] = None, version: str = "0"
    ) -> ServedModel:
        """Host ``spn`` under ``name``; a bare suite name resolves itself.

        Installs ``version`` (default ``"0"``) as the live version without
        shadow validation — this is initial registration, there is no
        incumbent to validate against.  Later versions go through
        :meth:`publish`.  ``spn`` may also be a
        :class:`~repro.lifecycle.artifact.ModelArtifact` (equivalent to
        :meth:`add_artifact` with an explicit name).
        """
        if isinstance(spn, ModelArtifact):
            return self.add_artifact(spn, name=name)
        if self.registry.live_version(name) is not None:
            raise ValueError(f"model {name!r} is already hosted")
        session = InferenceSession(spn if spn is not None else name, warm=True)
        return self._install(name, version, session, artifact=None, validate=False).served

    def add_artifact(
        self, artifact: ModelArtifact, name: Optional[str] = None
    ) -> ServedModel:
        """Host an AOT artifact — cold start with zero compile/plan work.

        The session adopts the artifact's shipped tape and memory plan, so
        registration performs no linearization, no tape compilation, and no
        memory planning; the artifact's recorded name and version are used
        unless ``name`` overrides the former.
        """
        name = artifact.name if name is None else name
        if self.registry.live_version(name) is not None:
            raise ValueError(f"model {name!r} is already hosted")
        session = artifact.session()
        return self._install(
            name, artifact.version, session, artifact=artifact, validate=False
        ).served

    def publish(
        self,
        name: str,
        version: str,
        model: Union[ModelArtifact, SPN, InferenceSession, str],
        validate: bool = True,
    ) -> PublishReport:
        """Install a new version of ``name`` and atomically hot-swap to it.

        ``model`` is an AOT :class:`~repro.lifecycle.artifact.ModelArtifact`
        (the production path — no compilation on the serving box), an SPN, a
        suite benchmark name, or a prepared
        :class:`~repro.api.session.InferenceSession`.  With ``validate``
        (default) and an incumbent live, the candidate must replay the
        golden-evidence set within its artifact's recorded tolerance
        (bit-identical when no artifact is given) —
        :class:`~repro.lifecycle.registry.ShadowValidationError` otherwise,
        with the incumbent left serving.  The swap itself is one pointer
        flip in the registry; requests admitted before it drain on the old
        version's tape (they pinned their ServedModel at admission), and
        requests admitted after it run the new one.
        """
        version = str(version)
        artifact: Optional[ModelArtifact] = None
        if isinstance(model, ModelArtifact):
            artifact = model
            session = model.session()
        elif isinstance(model, InferenceSession):
            session = model
        else:
            session = InferenceSession(model, warm=True)
        return self._install(
            name, version, session, artifact=artifact, validate=validate
        ).report

    def _install(
        self,
        name: str,
        version: str,
        session: InferenceSession,
        artifact: Optional[ModelArtifact],
        validate: bool,
    ) -> "_Installed":
        version = str(version)
        served = ServedModel(
            name=name, session=session, version=version, artifact=artifact
        )
        # The canonical ServedModel must be resolvable before the registry
        # flips the live pointer: a submit racing the publish may resolve
        # the new version immediately after the flip.
        self._served[(name, version)] = served
        try:
            report = self.registry.publish(
                name, version, session, artifact=artifact, validate=validate
            )
        except BaseException:
            self._served.pop((name, version), None)
            raise
        return _Installed(served=served, report=report)

    def rollback(self, name: str, version: Optional[str] = None) -> ServedModel:
        """Re-point ``name`` at an older installed version (no revalidation)."""
        model = self.registry.rollback(name, version)
        return self._served[(name, model.version)]

    def models(self) -> List[str]:
        """Names of the hosted models, sorted."""
        return self.registry.names()

    def versions(self, name: str) -> List[str]:
        """Installed versions of ``name``, oldest first."""
        return self.registry.versions(name)

    def live_version(self, name: str) -> Optional[str]:
        """The version currently taking traffic for ``name``."""
        return self.registry.live_version(name)

    def model(self, name: str) -> ServedModel:
        """The live :class:`ServedModel` for ``name`` (one pointer read).

        Callers that hold the returned object keep the resolved version for
        as long as they need it — admission pins it on every work item, so
        a hot-swap never migrates in-flight rows to a different tape.
        """
        resolved = self.registry.resolve(name)
        if resolved is None:
            known = ", ".join(self.registry.names()) or "none"
            raise UnknownModelError(f"unknown model {name!r}; hosted models: {known}")
        return self._served[(name, resolved.version)]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        return self._started and not self._queue.closed

    def start(self) -> "InferenceServer":
        """Spawn the worker pool and its supervisor (idempotent)."""
        if self._queue.closed:
            raise ServerClosedError("server has been stopped; create a new one")
        if not self._started:
            self._started = True
            spawned = []
            with self._workers_lock:
                for _ in range(self._n_workers):
                    worker = self._new_worker()
                    self._workers.append(worker)
                    spawned.append(worker)
            for worker in spawned:
                worker.start()
            self._supervisor = threading.Thread(
                target=self._supervise, name="serving-supervisor", daemon=True
            )
            self._supervisor.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Close admission and shut the workers down.

        With ``drain=True`` (default) every already-admitted request still
        executes and completes normally before the workers exit.  With
        ``drain=False`` queued work is failed fast with
        :class:`ServerClosedError` instead of executed.

        Workers that crash *during* the drain are still healed: the join
        loop below alternates joining the current worker generation with a
        heal pass, and only finishes once every pool slot has retired
        normally — which, with the queue closed, means the queue is empty
        and every admitted request resolved.
        """
        if not drain:
            self._abort = True
        self._queue.close()
        while True:
            with self._workers_lock:
                pending = [w for w in self._workers if w not in self._retired]
            if not pending:
                break
            for worker in pending:
                worker.join()
            self._heal_workers()
        self._supervisor_stop.set()
        if self._supervisor is not None:
            self._supervisor.join()
            self._supervisor = None
        with self._workers_lock:
            self._workers.clear()
            self._retired.clear()

    def _new_worker(self) -> threading.Thread:
        """Build (not start) one worker thread; caller holds the pool lock."""
        self._worker_seq += 1
        return threading.Thread(
            target=self._worker_main,
            name=f"serving-worker-{self._worker_seq - 1}",
            daemon=True,
        )

    def _supervise(self) -> None:
        """Supervisor loop: periodically replace crashed worker threads."""
        while not self._supervisor_stop.wait(self.heal_interval_s):
            self._heal_workers()

    def _heal_workers(self) -> int:
        """Replace every dead-but-not-retired (i.e. crashed) pool thread.

        Returns the number of workers restarted.  Safe to call from the
        supervisor, from :meth:`stop`'s drain loop, or from tests that
        want a deterministic heal instant.
        """
        replacements: List[threading.Thread] = []
        with self._workers_lock:
            for i, worker in enumerate(self._workers):
                if worker.is_alive() or worker in self._retired:
                    continue
                fresh = self._new_worker()
                self._workers[i] = fresh
                replacements.append(fresh)
        if not replacements:
            return 0
        for worker in replacements:
            worker.start()
        if metrics_enabled():
            self._worker_restarts.inc(len(replacements))
        logger.warning("restarted %d crashed serving worker(s)", len(replacements))
        return len(replacements)

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        """The serving clock deadlines live on (monotonic, fault-skewable).

        With a fault plan carrying a ``clock.skew`` spec installed, the
        clock runs ``skew_s`` ahead — which ages every queued deadline at
        once, the classic way real deployments lose requests.
        """
        plan = _active_fault_plan()
        if plan is not None:
            return perf_counter() + plan.clock_skew()
        return perf_counter()

    def in_flight(self) -> int:
        """Unresolved requests currently admitted (the shedding quantity)."""
        with self._in_flight_lock:
            return self._in_flight

    def _acquire_slot(self) -> bool:
        with self._in_flight_lock:
            if (
                self._max_in_flight is not None
                and self._in_flight >= self._max_in_flight
            ):
                return False
            self._in_flight += 1
            count = self._in_flight
        self._in_flight_gauge.set(count)
        return True

    def _release_slot(self, _future: Future) -> None:
        # Future done-callback: fires exactly once per request, whether it
        # resolved, failed, or was cancelled by the caller.
        with self._in_flight_lock:
            self._in_flight -= 1
            count = self._in_flight
        self._in_flight_gauge.set(count)

    def submit(
        self,
        model: str,
        evidence: Union[Query, Mapping, Sequence, np.ndarray],
        kind: Union[str, QueryKind, None] = None,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ) -> Future:
        """Enqueue one query and return its :class:`~concurrent.futures.Future`.

        ``evidence`` is any of:

        * a **typed query object** (:mod:`repro.api.queries`) — the primary
          path, and the only way to submit conditionals; the object
          carries its kind, and an explicitly passed ``kind`` that
          disagrees with it is rejected (it would otherwise silently
          serve values of the wrong kind);
        * a **serialized query payload** (:func:`repro.api.serialize_query`
          output — recognized by its ``"kind"`` discriminator), which is
          deserialized and validated at admission, with the same
          mismatch check;
        * plain evidence — a ``{var: value}`` mapping, a single evidence
          row, or a 2-D array of rows (the
          :data:`~repro.spn.evaluate.MARGINALIZED` convention; float arrays
          are validated and coerced by
          :func:`~repro.spn.evaluate.as_evidence_array`) — paired with
          ``kind`` (default ``log_likelihood``), which is validated
          through :class:`repro.api.QueryKind` here, at construction time.

        The future resolves to exactly what offline ``session.run`` would
        return: a ``(n_rows,)`` float vector for the value kinds, per-row
        vectors/matrices for the analysis kinds (``sample`` stacks to an
        int64 ``(n_rows, n_samples, n_vars)`` array), or a list of
        ``{var: value}`` completions for ``mpe``.
        ``timeout`` bounds the backpressure wait when the queue is full
        (:class:`~repro.serving.queue.QueueFullError`).

        ``deadline_s`` gives the request a deadline, measured from this
        call on the serving clock.  The backpressure wait is clipped to
        it (a wait that would outlive the deadline fails with
        :class:`~repro.serving.resilience.DeadlineExceededError` instead
        of :class:`~repro.serving.queue.QueueFullError`), and rows still
        queued when it expires are dropped by the workers *before* the
        engine call, failing the future with the same typed error.
        ``deadline_s <= 0`` sheds synchronously.

        With ``max_in_flight`` configured, admission beyond that many
        unresolved requests raises
        :class:`~repro.serving.resilience.SheddingError` before anything
        is enqueued.

        When tracing is enabled the admission path opens a
        ``serving.admission`` span and its context rides every enqueued
        work item, so the request's queue-wait, execute and respond spans
        all share one trace id regardless of which worker threads touch
        its rows.
        """
        if not TRACER.enabled:
            return self._submit(model, evidence, kind, timeout, None, deadline_s)
        with TRACER.span("serving.admission", model=model) as span:
            return self._submit(model, evidence, kind, timeout, span, deadline_s)

    def _submit(self, model, evidence, kind, timeout, span, deadline_s=None) -> Future:
        served = self.model(model)
        query = self._as_query(served, evidence, kind)
        if not self.running:
            raise ServerClosedError("server is not running; call start() first")
        deadline_at = None
        if deadline_s is not None:
            deadline_s = float(deadline_s)
            if deadline_s <= 0:
                if metrics_enabled():
                    self._deadline_total.inc()
                raise DeadlineExceededError(
                    f"deadline_s={deadline_s} leaves no time to serve the request"
                )
            deadline_at = self._now() + deadline_s
        rows = query.split_rows()
        key = query.group_key()
        kind_label = query.kind.value
        trace = None
        if span is not None:
            span.set(kind=kind_label, n_rows=len(rows))
            trace = TRACER.current()
        if metrics_enabled():
            # Per-(model, kind) traffic counters go to the process-wide
            # registry: they aggregate across servers and are what the
            # `python -m repro.observability snapshot` CLI reports.
            REGISTRY.counter(
                "serving_requests_total", model=model, kind=kind_label
            ).inc()
            REGISTRY.counter(
                "serving_rows_total", model=model, kind=kind_label
            ).inc(len(rows))
        if not self._acquire_slot():
            if metrics_enabled():
                self._shed_total.inc()
            raise SheddingError(
                f"server is at max_in_flight={self._max_in_flight} unresolved "
                f"requests; load shed (retryable)"
            )
        # From here on, every outcome — delivery, failure, cancellation —
        # releases the slot through the request's future done-callback.
        request = _PendingRequest(
            model,
            query.kind,
            len(rows),
            self.metrics,
            trace=trace,
            slow_query_s=self.slow_query_s,
            on_done=self._release_slot,
        )
        admitted_at = perf_counter()
        # Pin the resolved version on every row: a hot-swap between admission
        # and execution must not migrate in-flight rows to a different tape.
        items = [
            WorkItem(
                model=model, kind=key, row=rows[i], index=i, request=request,
                served=served, trace=trace, admitted_at=admitted_at,
                deadline_at=deadline_at,
            )
            for i in range(len(rows))
        ]
        put_timeout = timeout
        if deadline_at is not None:
            # Never wait for queue space beyond the request's own deadline.
            remaining = max(0.0, deadline_at - self._now())
            put_timeout = remaining if timeout is None else min(timeout, remaining)
        try:
            self._queue.put_many(items, timeout=put_timeout)
        except QueueClosedError:
            request.fail(ServerClosedError("server stopped during admission"))
        except QueueFullError as exc:
            # Rows enqueued before the timeout deliver into an already-failed
            # request and are ignored; the caller sees the backpressure error
            # — typed as a deadline failure when it was the deadline, not the
            # caller's own timeout, that bounded the wait.
            if deadline_at is not None and self._now() >= deadline_at:
                if metrics_enabled():
                    self._deadline_total.inc()
                deadline_exc = DeadlineExceededError(
                    f"deadline ({deadline_s}s) expired while waiting for queue "
                    f"admission"
                )
                request.fail(deadline_exc)
                raise deadline_exc from exc
            request.fail(exc)
            raise
        return request.future

    def query(self, model, evidence, kind=None, timeout=None, deadline_s=None):
        """Blocking convenience wrapper around :meth:`submit`."""
        future = self.submit(
            model, evidence, kind=kind, timeout=timeout, deadline_s=deadline_s
        )
        # The result wait is bounded when the caller bounded the request;
        # the small grace covers delivery of the worker's own typed
        # deadline failure before the local TimeoutError backstop fires.
        wait = None if deadline_s is None else deadline_s + RESULT_GRACE_S
        return future.result(timeout=wait)

    # ------------------------------------------------------------------ #
    # Control plane (non-query requests)
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """One JSON-serializable reading of the server's state and telemetry.

        The payload bundles the hosted models with their live versions, the
        instantaneous queue depth, the :class:`ServingMetrics` snapshot
        (requests / throughput / occupancy / latency quantiles — ``None``
        quantiles while empty, never NaN) and the full private-registry
        snapshot (queue-wait histogram, slow-request counter, ...).  Every
        value round-trips through ``json.dumps`` — this is the payload the
        clients' ``server_stats()`` returns.
        """
        return {
            "models": {name: self.live_version(name) for name in self.models()},
            "running": self.running,
            "queue_depth": len(self._queue),
            "in_flight": self.in_flight(),
            "metrics": self.metrics.snapshot(),
            "registry": self.metrics.registry.snapshot(),
        }

    def control(self, op: str) -> Dict[str, object]:
        """Handle a control-plane request (one that is not a query).

        The control surface is deliberately tiny: ``"stats"`` returns
        :meth:`stats`.  Unknown ops raise ``ValueError`` at the call site —
        never inside the worker pool.
        """
        if op == "stats":
            return self.stats()
        raise ValueError(f"unknown control op {op!r}; supported ops: 'stats'")

    # ------------------------------------------------------------------ #
    # Query construction (everything becomes a typed query at admission)
    # ------------------------------------------------------------------ #
    def _as_query(self, served: ServedModel, evidence, kind) -> Query:
        """Coerce any accepted submission form to a width-normalized query.

        Typed queries pass through (re-encoded to the model's evidence
        width); payload dicts (string-keyed, carrying a ``"kind"``
        discriminator) deserialize; plain evidence pairs with ``kind``,
        which :func:`repro.api.as_kind` validates here — an unknown kind
        never reaches the worker pool.
        """
        if isinstance(evidence, Mapping) and "kind" in evidence:
            from ..api.queries import deserialize_query

            evidence = deserialize_query(evidence)
        if isinstance(evidence, Query):
            if kind is not None and as_kind(kind) != evidence.kind:
                raise ValueError(
                    f"kind {as_kind(kind).value!r} disagrees with the submitted "
                    f"{evidence.kind.value!r} query object"
                )
            return self._normalize_query(served, evidence)
        query_kind = as_kind(kind if kind is not None else KIND_LOG_LIKELIHOOD)
        if query_kind == QueryKind.CONDITIONAL:
            raise ValueError(
                "conditional queries carry two assignments; submit a typed "
                "repro.api.Conditional object (or its payload) instead of "
                "plain evidence with kind='conditional'"
            )
        return query_type(query_kind)(evidence=self._encode(served, evidence))

    def _normalize_query(self, served: ServedModel, query: Query) -> Query:
        """Re-encode a typed query's arrays to the model's evidence width."""
        if isinstance(query, Conditional):
            return Conditional(
                evidence=self._encode(served, query.evidence),
                query=self._encode(served, query.query),
                **query.params(),
            )
        if isinstance(query, Sample):
            # row_ids is array data (excluded from params so co-batching
            # stays row-scatter safe) and must survive re-encoding: it is
            # the identity that seeds each row's draws.
            return Sample(
                evidence=self._encode(served, query.evidence),
                row_ids=query.row_ids,
                **query.params(),
            )
        return type(query)(
            evidence=self._encode(served, query.evidence), **query.params()
        )

    @staticmethod
    def _encode(served: ServedModel, evidence) -> np.ndarray:
        """Normalize any accepted evidence form to a ``(k, n_vars)`` array.

        The mechanics — mapping layout, dtype validation, sentinel padding
        — are the session's
        (:meth:`repro.api.session.InferenceSession.encode`, one definition
        for every caller).  The serving layer adds its fixed-width
        admission policy on top, applied uniformly to every submission
        form (mappings, rows, batches, typed queries):

        * an **observed** variable outside the model's width is rejected —
          trimming it away would silently change the query the caller
          thinks they issued (unobserved surplus columns trim exactly:
          no indicator reads them, and MPE completions never contained
          them), which also keeps every served answer identical to
          offline ``session.run`` on the same admitted rows;
        * queued rows never alias a caller buffer that may be reused
          before the batch window closes.
        """
        wide = served.session.encode(evidence)
        n_vars = max(served.n_vars, 1)
        if wide.shape[1] > n_vars:
            surplus = wide[:, n_vars:]
            observed = surplus >= 0
            if observed.any():
                var = n_vars + int(np.argwhere(observed.any(axis=0))[0, 0])
                raise ValueError(
                    f"evidence variable {var} out of range for model "
                    f"{served.name!r} with {served.n_vars} variables"
                )
            return wide[:, :n_vars].copy()
        if isinstance(evidence, np.ndarray) and np.shares_memory(wide, evidence):
            return wide.copy()
        return wide

    # ------------------------------------------------------------------ #
    # Execution (worker side)
    # ------------------------------------------------------------------ #
    def _worker_main(self) -> None:
        """One worker generation: pull batches until drained, or die crashed.

        An exception escaping :meth:`_process_batch` (a real bug, or the
        injected ``serving.worker_crash``) kills this thread — but only
        after the batch in hand is rescued back onto the queue, so no
        admitted request is ever lost to a crash.  The supervisor notices
        the dead thread and starts a replacement.  Normal exit (queue
        closed and drained) records the thread as retired, which is how
        the supervisor tells a drained worker from a crashed one.
        """
        while True:
            batch = self._queue.get_batch()
            if batch is None:
                break
            if self._abort:
                for item in batch:
                    item.request.fail(
                        ServerClosedError("server stopped without draining")
                    )
                continue
            try:
                self._process_batch(batch)
            except BaseException:
                self._rescue_batch(batch)
                raise
        with self._workers_lock:
            self._retired.add(threading.current_thread())

    def _process_batch(self, batch: List[WorkItem]) -> None:
        """Process one micro-batch: record its queue wait, run each group.

        The fault plane is resolved once per batch (one module-attribute
        read); with no plan installed, each fault site costs one
        ``plan is not None`` test.  ``serving.worker_crash`` fires before
        anything is delivered, so a crashed batch is rescued whole;
        ``serving.slow_kernel`` and ``serving.executor_fault`` fire per
        engine-call group, the latter failing exactly that group's rows
        with the retryable injected error.
        """
        plan = _active_fault_plan()
        if plan is not None:
            plan.maybe_raise("serving.worker_crash", InjectedCrash)
        self._record_queue_wait(batch)
        for (served, kind), items in self._group_batch(batch).items():
            if plan is not None:
                plan.maybe_delay("serving.slow_kernel")
                try:
                    plan.maybe_raise("serving.executor_fault", InjectedExecutorFault)
                except InjectedExecutorFault as exc:
                    for item in items:
                        item.request.fail(exc)
                    continue
            self._run_group(served, kind, items)

    def _group_batch(
        self, batch: List[WorkItem]
    ) -> Dict[Tuple[ServedModel, tuple], List[WorkItem]]:
        """Group live rows by pinned (served model, group key); drop the rest.

        Rows whose request already failed (admission timeout) or was
        cancelled would compute and count for nobody; rows whose deadline
        has passed are failed here with
        :class:`~repro.serving.resilience.DeadlineExceededError` — the
        deadline gate: an expired row never reaches the engine call.
        Grouping by the *pinned* ServedModel (not the name) keeps rows
        admitted under different versions of one model in separate engine
        calls — each drains on its own tape.
        """
        groups: Dict[Tuple[ServedModel, tuple], List[WorkItem]] = {}
        now = None
        for item in batch:
            if item.request.abandoned:
                continue
            if item.deadline_at is not None:
                if now is None:
                    now = self._now()
                if now >= item.deadline_at:
                    self._expire(item)
                    continue
            groups.setdefault((item.served, item.kind), []).append(item)
        return groups

    def _run_group(
        self, served: ServedModel, kind: tuple, items: List[WorkItem]
    ) -> None:
        """Run one (model, kind) group as one engine call and deliver it.

        Record-then-deliver per group, before moving to the next: failed
        rows never inflate throughput, a caller woken by its result always
        sees its group already counted, and a fast likelihood group is
        never head-of-line blocked behind a slow MPE group that happened
        to share the micro-batch.
        """
        try:
            values = self._execute_group(served, kind, items)
        except BaseException as exc:  # noqa: BLE001 - forwarded to futures
            for item in items:
                item.request.fail(exc)
            return
        self.metrics.record_batch(len(items), self.policy.max_batch_size)
        for item, value in zip(items, values):
            item.request.deliver(item.index, value)

    def _expire(self, item: WorkItem) -> None:
        """Fail an expired row's request with the typed deadline error."""
        if metrics_enabled():
            self._deadline_total.inc()
        item.request.fail(
            DeadlineExceededError(
                f"deadline expired in queue before execution "
                f"(model {item.model!r})"
            )
        )

    def _rescue_batch(self, batch: List[WorkItem]) -> None:
        """Hand a dying worker's batch back to the queue (crash recovery).

        Called on the worker thread, after :meth:`_process_batch` raised
        and before the exception continues killing the thread.  Items of
        already-resolved requests are dropped; the rest requeue at the
        front, up to ``max_rescues`` attempts each — beyond that the
        request fails with
        :class:`~repro.serving.resilience.WorkerCrashError`, bounding the
        damage of a batch that crashes every worker that touches it.
        """
        rescued: List[WorkItem] = []
        for item in batch:
            if item.request.abandoned:
                continue
            item.attempts += 1
            if item.attempts > self.max_rescues:
                item.request.fail(
                    WorkerCrashError(
                        f"request abandoned after {item.attempts} worker "
                        f"crashes (model {item.model!r}; retryable)"
                    )
                )
                continue
            rescued.append(item)
        self._queue.requeue(rescued)

    def _record_queue_wait(self, batch: Sequence[WorkItem]) -> None:
        """Record each dequeued row's admission-to-dequeue wait.

        Metrics get the per-row wait distribution (the batch-assembly
        latency the wait-window knob trades against); tracing gets one
        ``serving.queue_wait`` event per row, emitted under the row's own
        admission trace so multi-batch requests still tell one story.
        """
        record = metrics_enabled()
        trace = TRACER.enabled
        if not (record or trace):
            return
        now = perf_counter()
        for item in batch:
            if item.admitted_at <= 0.0:
                continue
            wait_s = max(0.0, now - item.admitted_at)
            if record:
                self._queue_wait.observe(wait_s)
            if trace and item.trace is not None:
                with TRACER.activate(item.trace):
                    TRACER.event(
                        "serving.queue_wait",
                        model=item.model,
                        wait_ms=wait_s * 1e3,
                    )

    def _execute_group(
        self, served: ServedModel, key: tuple, items: Sequence[WorkItem]
    ) -> List[object]:
        """Run one group, under a ``serving.batch_execute`` span when tracing.

        The span is activated under the batch leader's admission context
        (the first traced item), so the session's ``session.run`` /
        ``session.tape_pass`` spans nest inside it and the whole engine
        call is attributable to a concrete request's trace.  Co-batched
        followers still link to the execution through their own
        ``serving.queue_wait`` events and ``serving.respond`` spans.
        """
        if not TRACER.enabled:
            return self._execute(served, key, items)
        leader = next((item.trace for item in items if item.trace is not None), None)
        if leader is None:
            return self._execute(served, key, items)
        with TRACER.activate(leader):
            with TRACER.span(
                "serving.batch_execute",
                model=served.name,
                version=served.version,
                kind=key[0].value,
                n_rows=len(items),
            ):
                return self._execute(served, key, items)

    def _execute(
        self, served: ServedModel, key: tuple, items: Sequence[WorkItem]
    ) -> List[object]:
        """Run one ``(served model, group key)`` group through its session.

        The group key is :meth:`repro.api.Query.group_key` — the kind plus
        every execution parameter — so the rows of a group can always be
        rebuilt into **one batched query** of that kind and executed by the
        model's :class:`~repro.api.session.InferenceSession`.  This is the
        bit-identical contract: a served row runs through the very same
        ``session.run`` (same cached tape, elementwise kernels) a direct
        caller uses, so its value does not depend on which micro-batch it
        landed in — for conditionals exactly as for likelihoods.  ``served``
        is the model *pinned at admission*, never re-resolved here: rows in
        flight across a hot-swap complete on the version that admitted them.
        """
        kind, params = key[0], dict(key[1:])
        batch = query_type(kind).join_rows([item.row for item in items], **params)
        return list(served.session.run(batch))
