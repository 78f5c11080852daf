"""Tests for the serving resilience layer: deadlines, shedding, retries,
circuit breakers, self-healing workers and the chaos soak harness."""

import asyncio
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import InferenceSession, LogLikelihood
from repro.faults import FaultPlan, FaultSpec, fault_scope
from repro.faults.soak import run_soak
from repro.serving import (
    BatchingPolicy,
    BreakerPolicy,
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    ExecutorFaultError,
    InferenceClient,
    AsyncInferenceClient,
    InferenceServer,
    QueueFullError,
    RetryBudget,
    RetryPolicy,
    SheddingError,
    WorkerCrashError,
    is_retryable,
)
from repro.serving.resilience import CallPolicy

BENCHMARK = "Banknote"
N_VARS = 4

# Injected worker crashes kill worker threads on purpose; pytest's
# unhandled-thread-exception warning is the expected trace of that.
pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)


def _row(seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(-1, 2, size=N_VARS).astype(np.float64)


def _wait_until(predicate, timeout_s=5.0, interval_s=0.005):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


def _crash_all_workers(server, plan):
    """Deterministically kill the (single-worker) pool: submit a sacrificial
    request whose batch fires ``serving.worker_crash`` once; the batch is
    rescued back onto the queue and the worker thread dies.  Callers use a
    huge ``heal_interval_s`` so the supervisor leaves the corpse alone and
    the test picks the heal instant via ``server._heal_workers()``."""
    sacrificial = server.submit(BENCHMARK, _row(1), kind="log_likelihood")
    assert _wait_until(
        lambda: plan.report()["serving.worker_crash"]["fired"] >= 1
        and all(not w.is_alive() for w in server._workers)
    ), "worker did not crash"
    return sacrificial


def _count_evaluations(server, counts):
    """Attach an on_evaluate hook to the live session, filling ``counts``
    (a dict) with per-domain engine-pass row totals."""
    session = server.model(BENCHMARK).session

    def on_evaluate(domain, n_rows):
        counts[domain] = counts.get(domain, 0) + n_rows

    session.on_evaluate = on_evaluate
    return session


# --------------------------------------------------------------------------- #
# Policies (pure unit tests)
# --------------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(
            base_delay_s=0.01, max_delay_s=0.05, multiplier=2.0, jitter=0.0
        )
        delays = policy.delays()
        assert [delays.next_delay() for _ in range(4)] == [
            0.01,
            0.02,
            0.04,
            0.05,  # capped
        ]

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(base_delay_s=0.1, jitter=0.5, seed=9)
        first = [policy.delays().next_delay() for _ in range(5)]
        assert first == [RetryPolicy(base_delay_s=0.1, jitter=0.5, seed=9).delays().next_delay() for _ in range(5)]
        assert all(0.05 <= d <= 0.1 for d in first)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)


class TestRetryBudget:
    def test_starts_at_min_tokens(self):
        budget = RetryBudget(ratio=0.2, min_tokens=2.0, max_tokens=10.0)
        assert budget.allow_retry()
        assert budget.allow_retry()
        assert not budget.allow_retry()  # bucket empty

    def test_requests_refill_the_bucket(self):
        budget = RetryBudget(ratio=0.5, min_tokens=0.0, max_tokens=10.0)
        assert not budget.allow_retry()
        for _ in range(2):
            budget.record_request()
        assert budget.allow_retry()

    def test_refill_caps_at_max_tokens(self):
        budget = RetryBudget(ratio=1.0, min_tokens=0.0, max_tokens=2.0)
        for _ in range(50):
            budget.record_request()
        assert budget.tokens == 2.0


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = {"now": 0.0}
        transitions = []
        breaker = CircuitBreaker(
            clock=lambda: clock["now"],
            on_state_change=transitions.append,
            **kwargs,
        )
        return breaker, clock, transitions

    def test_opens_after_consecutive_failures(self):
        breaker, _, transitions = self._breaker(failure_threshold=3)
        for _ in range(3):
            breaker.admit()
            breaker.record_failure()
        with pytest.raises(CircuitOpenError):
            breaker.admit()
        assert breaker.state == "open"
        assert transitions == ["open"]

    def test_success_resets_the_failure_streak(self):
        breaker, _, _ = self._breaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_closes_on_success(self):
        breaker, clock, transitions = self._breaker(
            failure_threshold=1, reset_timeout_s=10.0
        )
        breaker.record_failure()
        clock["now"] = 11.0
        breaker.admit()  # the probe
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert transitions == ["open", "half_open", "closed"]

    def test_half_open_admits_one_probe_at_a_time(self):
        breaker, clock, _ = self._breaker(failure_threshold=1, reset_timeout_s=1.0)
        breaker.record_failure()
        clock["now"] = 2.0
        breaker.admit()
        with pytest.raises(CircuitOpenError):
            breaker.admit()  # second concurrent probe refused

    def test_half_open_probe_failure_reopens(self):
        breaker, clock, _ = self._breaker(failure_threshold=1, reset_timeout_s=1.0)
        breaker.record_failure()
        clock["now"] = 2.0
        breaker.admit()
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.admit()  # cooldown restarted at t=2

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(reset_timeout_s=-1.0)


class TestIsRetryable:
    @pytest.mark.parametrize(
        "exc",
        [
            SheddingError("x"),
            WorkerCrashError("x"),
            CircuitOpenError("x"),
            ExecutorFaultError("x"),
            QueueFullError("x"),
        ],
    )
    def test_transient_failures_are_retryable(self, exc):
        assert is_retryable(exc)

    def test_injected_executor_fault_is_retryable(self):
        from repro.faults import InjectedExecutorFault

        assert is_retryable(InjectedExecutorFault("serving.executor_fault", 0))

    @pytest.mark.parametrize(
        "exc", [DeadlineExceededError("x"), ValueError("x"), KeyError("x")]
    )
    def test_terminal_failures_are_not(self, exc):
        assert not is_retryable(exc)


# --------------------------------------------------------------------------- #
# The call policy: a sans-I/O state machine, driven here on a fake clock
# --------------------------------------------------------------------------- #
_FAILURES = {
    "retryable": lambda: SheddingError("shed"),
    "fatal": lambda: ValueError("bad"),
    "deadline": lambda: DeadlineExceededError("deadline expired in queue"),
}

#: One request's script, per attempt: its outcome, the time that passes
#: before it starts (a sleep overshooting its backoff) and its duration.
_SCRIPTS = st.lists(
    st.tuples(
        st.sampled_from(["ok", *_FAILURES]),
        st.floats(0.0, 0.05),
        st.floats(0.0, 0.2),
    ),
    min_size=1,
    max_size=8,
)


class TestCallPolicy:
    @settings(max_examples=300, deadline=None)
    @given(
        max_attempts=st.integers(1, 6),
        ratio=st.floats(0.0, 1.0),
        min_tokens=st.integers(0, 4),
        deadline_s=st.none() | st.floats(0.01, 0.5),
        breaker=st.none() | st.tuples(st.integers(1, 3), st.floats(0.0, 0.3)),
        scripts=st.lists(_SCRIPTS, min_size=1, max_size=12),
    )
    def test_retries_respect_attempts_budget_and_deadline(
        self, max_attempts, ratio, min_tokens, deadline_s, breaker, scripts
    ):
        clock = [0.0]
        retry = RetryPolicy(
            max_attempts=max_attempts, base_delay_s=0.01, max_delay_s=0.1, seed=3
        )
        budget = RetryBudget(
            ratio=ratio, min_tokens=min_tokens, max_tokens=min_tokens + 4
        )
        circuit = None
        if breaker is not None:
            circuit = CircuitBreaker(*breaker, clock=lambda: clock[0])
        counted = []
        retries = 0
        for script in scripts:
            policy = CallPolicy(
                retry, budget, circuit, deadline_s, clock[0],
                on_retry=lambda: counted.append(clock[0]),
            )
            deadline_at = None if deadline_s is None else clock[0] + deadline_s
            outcomes = iter(script)
            attempts = 0
            while True:
                outcome, lag, elapsed = next(outcomes, ("ok", 0.0, 0.0))
                attempts += 1
                clock[0] += lag
                try:
                    remaining = policy.start(clock[0])
                except (CircuitOpenError, DeadlineExceededError) as exc:
                    error = exc
                else:
                    if deadline_at is not None:  # no attempt starts expired
                        assert 0.0 < remaining == deadline_at - clock[0]
                    clock[0] += elapsed
                    if outcome == "ok":
                        policy.succeeded()
                        break
                    error = _FAILURES[outcome]()
                delay = policy.failed(error, clock[0])
                if delay is None:
                    break
                retries += 1
                assert not isinstance(error, DeadlineExceededError)
                if deadline_at is not None:
                    assert clock[0] < deadline_at
                    assert delay <= deadline_at - clock[0]
                clock[0] += delay
            assert attempts <= max_attempts
        assert len(counted) == retries
        assert retries <= min_tokens + ratio * len(scripts) + 1e-9


# --------------------------------------------------------------------------- #
# Deadlines
# --------------------------------------------------------------------------- #
class TestDeadlines:
    def test_non_positive_deadline_sheds_synchronously(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            with pytest.raises(DeadlineExceededError):
                server.submit(BENCHMARK, _row(), deadline_s=0.0)

    def test_generous_deadline_serves_normally(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            offline = server.model(BENCHMARK).session.run(LogLikelihood(evidence=_row(2)))
            value = server.query(BENCHMARK, _row(2), deadline_s=30.0)
            assert np.array_equal(value, offline)

    def test_expired_rows_never_reach_the_engine(self):
        """The deadline gate, measured at the engine boundary: rows whose
        deadline passed while queued are dropped before ``execute`` — zero
        linear-domain tape passes happen for them."""
        plan = FaultPlan(seed=0, specs=[FaultSpec("serving.worker_crash", times=1)])
        server = InferenceServer(
            models=[BENCHMARK],
            policy=BatchingPolicy(max_batch_size=16, max_wait_s=0.005),
            n_workers=1,
            heal_interval_s=60.0,
        )
        counts = {}
        with fault_scope(plan):
            server.start()
            _count_evaluations(server, counts)
            sacrificial = _crash_all_workers(server, plan)
            expired = [
                server.submit(BENCHMARK, _row(i), kind="likelihood", deadline_s=0.05)
                for i in range(6)
            ]
            time.sleep(0.15)  # all six deadlines pass; no worker is alive
            assert server._heal_workers() == 1
            for future in expired:
                with pytest.raises(DeadlineExceededError):
                    future.result(timeout=5.0)
            assert sacrificial.result(timeout=5.0) is not None
        server.stop()
        assert counts.get("linear", 0) == 0  # not one expired row executed
        assert counts.get("log", 0) >= 1  # the sacrificial request did run
        deadline_counter = server.metrics.registry.counter(
            "serving_deadline_exceeded_total"
        )
        assert deadline_counter.value >= 6

    def test_deadline_bounds_the_backpressure_wait(self):
        """A full queue with a deadline shorter than the caller's timeout
        fails with the typed deadline error, not QueueFullError."""
        plan = FaultPlan(seed=0, specs=[FaultSpec("serving.worker_crash", times=1)])
        server = InferenceServer(
            models=[BENCHMARK],
            policy=BatchingPolicy(
                max_batch_size=4, max_wait_s=0.005, max_queue_depth=1
            ),
            n_workers=1,
            heal_interval_s=60.0,
        )
        with fault_scope(plan):
            server.start()
            sacrificial = _crash_all_workers(server, plan)
            # Queue holds the rescued row; depth 1 = full.
            started = time.perf_counter()
            with pytest.raises(DeadlineExceededError):
                server.submit(BENCHMARK, _row(), timeout=30.0, deadline_s=0.05)
            assert time.perf_counter() - started < 5.0  # waited ~deadline, not timeout
            server._heal_workers()
            assert sacrificial.result(timeout=5.0) is not None
        server.stop()


# --------------------------------------------------------------------------- #
# Load shedding
# --------------------------------------------------------------------------- #
class TestLoadShedding:
    def test_sheds_beyond_max_in_flight(self):
        plan = FaultPlan(seed=0, specs=[FaultSpec("serving.worker_crash", times=1)])
        server = InferenceServer(
            models=[BENCHMARK],
            policy=BatchingPolicy(max_batch_size=16, max_wait_s=0.005),
            n_workers=1,
            max_in_flight=2,
            heal_interval_s=60.0,
        )
        with fault_scope(plan):
            server.start()
            sacrificial = _crash_all_workers(server, plan)
            second = server.submit(BENCHMARK, _row(2))  # fills slot 2 of 2
            with pytest.raises(SheddingError):
                server.submit(BENCHMARK, _row(3))
            assert server.metrics.registry.counter("serving_shed_total").value == 1
            assert server.in_flight() == 2
            server._heal_workers()
            assert sacrificial.result(timeout=5.0) is not None
            assert second.result(timeout=5.0) is not None
            # Slots freed on delivery: admission opens again.
            assert _wait_until(lambda: server.in_flight() == 0)
            assert server.query(BENCHMARK, _row(4)) is not None
        server.stop()

    def test_shedding_is_not_queue_backpressure(self):
        assert not issubclass(SheddingError, QueueFullError)
        assert not issubclass(QueueFullError, SheddingError)

    def test_invalid_max_in_flight_rejected(self):
        with pytest.raises(ValueError):
            InferenceServer(models=[BENCHMARK], max_in_flight=0)


# --------------------------------------------------------------------------- #
# Client retries and breakers
# --------------------------------------------------------------------------- #
class _AwaitedClient:
    """An :class:`AsyncInferenceClient` whose verbs run to completion when
    called, so the blocking-client tests also drive the async loop."""

    def __init__(self, *args, **kwargs):
        self._client = AsyncInferenceClient(*args, **kwargs)

    def __getattr__(self, name):
        verb = getattr(self._client, name)
        return lambda *args, **kwargs: asyncio.run(verb(*args, **kwargs))


class TestClientRetries:
    """The retry and breaker loop of the blocking client; the subclass
    below runs every case again through the async client's loop."""

    client_type = InferenceClient

    def _flaky_server(self, server, failures, exc_factory):
        """Monkeypatch ``server.submit`` to fail its first ``failures``
        calls with ``exc_factory()`` and serve normally afterwards."""
        real_submit = server.submit
        state = {"calls": 0}

        def flaky(model, evidence, kind=None, timeout=None, deadline_s=None):
            state["calls"] += 1
            if state["calls"] <= failures:
                raise exc_factory()
            return real_submit(
                model, evidence, kind=kind, timeout=timeout, deadline_s=deadline_s
            )

        server.submit = flaky
        return state

    def test_retry_rides_through_transient_shedding(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            state = self._flaky_server(server, 2, lambda: SheddingError("shed"))
            client = self.client_type(
                server,
                BENCHMARK,
                retry=RetryPolicy(max_attempts=4, base_delay_s=0.0, jitter=0.0),
            )
            offline = server.model(BENCHMARK).session.run(LogLikelihood(evidence=_row(5)))
            assert client.query(_row(5)) == offline[0]
            assert state["calls"] == 3
            retries = server.metrics.registry.counter("serving_retries_total")
            assert retries.value == 2

    def test_attempts_exhausted_reraises_the_failure(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            self._flaky_server(server, 100, lambda: SheddingError("shed"))
            client = self.client_type(
                server,
                BENCHMARK,
                retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0),
            )
            with pytest.raises(SheddingError):
                client.query(_row())

    def test_non_retryable_failures_fail_fast(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            state = self._flaky_server(server, 100, lambda: ValueError("bad"))
            client = self.client_type(
                server,
                BENCHMARK,
                retry=RetryPolicy(max_attempts=5, base_delay_s=0.0, jitter=0.0),
            )
            with pytest.raises(ValueError):
                client.query(_row())
            assert state["calls"] == 1

    def test_exhausted_budget_denies_the_retry(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            state = self._flaky_server(server, 100, lambda: SheddingError("shed"))
            client = self.client_type(
                server,
                BENCHMARK,
                retry=RetryPolicy(max_attempts=10, base_delay_s=0.0, jitter=0.0),
                retry_budget=RetryBudget(ratio=0.0, min_tokens=1.0, max_tokens=1.0),
            )
            with pytest.raises(SheddingError):
                client.query(_row())
            assert state["calls"] == 2  # first attempt + the single budgeted retry

    def test_no_retry_policy_means_no_retries(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            state = self._flaky_server(server, 1, lambda: SheddingError("shed"))
            client = self.client_type(server, BENCHMARK)
            with pytest.raises(SheddingError):
                client.query(_row())
            assert state["calls"] == 1

    def test_breaker_opens_and_fails_fast(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            state = self._flaky_server(server, 100, lambda: SheddingError("shed"))
            client = self.client_type(
                server,
                BENCHMARK,
                breaker=BreakerPolicy(failure_threshold=3, reset_timeout_s=60.0),
            )
            for _ in range(3):
                with pytest.raises(SheddingError):
                    client.query(_row())
            calls_when_open = state["calls"]
            with pytest.raises(CircuitOpenError):
                client.query(_row())
            assert state["calls"] == calls_when_open  # the server was not touched
            gauge = server.metrics.registry.gauge(
                "serving_breaker_state", model=BENCHMARK
            )
            assert gauge.value == 2  # open

    def test_breaker_recovers_through_half_open_probe(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            state = self._flaky_server(server, 2, lambda: SheddingError("shed"))
            client = self.client_type(
                server,
                BENCHMARK,
                breaker=BreakerPolicy(failure_threshold=2, reset_timeout_s=0.02),
            )
            for _ in range(2):
                with pytest.raises(SheddingError):
                    client.query(_row())
            time.sleep(0.05)  # cooldown elapses; next call is the probe
            offline = server.model(BENCHMARK).session.run(LogLikelihood(evidence=_row(6)))
            assert client.query(_row(6)) == offline[0]
            gauge = server.metrics.registry.gauge(
                "serving_breaker_state", model=BENCHMARK
            )
            assert gauge.value == 0  # closed again
            assert state["calls"] == 3

    def test_server_deadline_failure_reaches_the_caller_untouched(self):
        """The worker's typed deadline failure is a TimeoutError too; the
        client must not replace it with its own local-timeout backstop."""
        with InferenceServer(models=[BENCHMARK]) as server:

            def expired(model, evidence, kind=None, timeout=None, deadline_s=None):
                future = Future()
                future.set_exception(
                    DeadlineExceededError("deadline expired in queue before execution")
                )
                return future

            server.submit = expired
            client = self.client_type(server, BENCHMARK)
            with pytest.raises(DeadlineExceededError, match="expired in queue") as info:
                client.query(_row(), deadline_s=1.0)
            assert info.value.__cause__ is None


class TestAsyncClientRetries(TestClientRetries):
    client_type = _AwaitedClient


# --------------------------------------------------------------------------- #
# Self-healing workers
# --------------------------------------------------------------------------- #
class TestSelfHealing:
    def test_crashed_worker_is_restarted_and_no_request_is_lost(self):
        plan = FaultPlan(seed=0, specs=[FaultSpec("serving.worker_crash", times=1)])
        server = InferenceServer(
            models=[BENCHMARK],
            policy=BatchingPolicy(max_batch_size=16, max_wait_s=0.005),
            n_workers=1,
            heal_interval_s=0.01,  # the supervisor heals on its own here
        )
        with fault_scope(plan):
            server.start()
            offline = server.model(BENCHMARK).session.run(LogLikelihood(evidence=_row(7)))
            value = server.query(BENCHMARK, _row(7), timeout=10.0)
            assert np.array_equal(value, offline)
            restarts = server.metrics.registry.counter(
                "serving_worker_restarts_total"
            )
            assert _wait_until(lambda: restarts.value >= 1)
        server.stop()

    def test_poison_batch_fails_typed_after_max_rescues(self):
        plan = FaultPlan(seed=0, specs=[FaultSpec("serving.worker_crash")])
        server = InferenceServer(
            models=[BENCHMARK],
            policy=BatchingPolicy(max_batch_size=16, max_wait_s=0.005),
            n_workers=1,
            max_rescues=2,
            heal_interval_s=0.01,
        )
        with fault_scope(plan):
            server.start()
            future = server.submit(BENCHMARK, _row(8))
            with pytest.raises(WorkerCrashError):
                future.result(timeout=10.0)
        server.stop()

    def test_stop_drains_through_crashes(self):
        """stop() must terminate (and resolve every future) even when the
        drain itself keeps crashing workers."""
        plan = FaultPlan(
            seed=1, specs=[FaultSpec("serving.worker_crash", rate=0.5, times=4)]
        )
        server = InferenceServer(
            models=[BENCHMARK],
            policy=BatchingPolicy(max_batch_size=4, max_wait_s=0.005),
            n_workers=2,
            heal_interval_s=60.0,  # the drain loop itself must heal
        )
        with fault_scope(plan):
            server.start()
            futures = [server.submit(BENCHMARK, _row(i)) for i in range(16)]
            server.stop()
            for future in futures:
                # Every future resolved: a delivered value, or the typed
                # rescue-limit failure when the crash schedule hammered one
                # batch past max_rescues — never an unresolved hang.
                assert future.done()
                try:
                    assert future.result(timeout=0.0) is not None
                except WorkerCrashError:
                    pass


# --------------------------------------------------------------------------- #
# Regression: partial-enqueue orphans (put_many timing out mid-request)
# --------------------------------------------------------------------------- #
class TestPartialEnqueueOrphans:
    def test_orphan_rows_are_skipped_not_executed(self):
        """A multi-row request whose ``put_many`` times out mid-enqueue
        leaves already-queued rows behind with a failed request.  Workers
        must skip them at the engine boundary: zero linear-domain tape
        passes, accounting back to zero, and the server keeps serving."""
        plan = FaultPlan(seed=0, specs=[FaultSpec("serving.worker_crash", times=1)])
        server = InferenceServer(
            models=[BENCHMARK],
            policy=BatchingPolicy(
                max_batch_size=4, max_wait_s=0.005, max_queue_depth=2
            ),
            n_workers=1,
            max_in_flight=8,
            heal_interval_s=60.0,
        )
        counts = {}
        with fault_scope(plan):
            server.start()
            _count_evaluations(server, counts)
            sacrificial = _crash_all_workers(server, plan)
            rows = np.stack([_row(i) for i in range(4)])
            # Depth 1 of 2 used by the rescued row: one orphan row enqueues,
            # then the second row's wait times out.
            with pytest.raises(QueueFullError):
                server.submit(BENCHMARK, rows, kind="likelihood", timeout=0.05)
            assert len(server._queue) == 2  # rescued row + the orphan
            server._heal_workers()
            assert sacrificial.result(timeout=5.0) is not None
            assert _wait_until(lambda: len(server._queue) == 0)
            assert _wait_until(lambda: server.in_flight() == 0)
            # The server still serves after the partial enqueue.
            assert server.query(BENCHMARK, _row(9), timeout=5.0) is not None
        server.stop()
        assert counts.get("linear", 0) == 0  # the orphan row never executed


# --------------------------------------------------------------------------- #
# Regression: async-client cancellation
# --------------------------------------------------------------------------- #
class TestAsyncCancellation:
    def test_cancelled_task_releases_accounting_and_leaks_nothing(self):
        plan = FaultPlan(seed=0, specs=[FaultSpec("serving.worker_crash", times=1)])
        server = InferenceServer(
            models=[BENCHMARK],
            policy=BatchingPolicy(max_batch_size=16, max_wait_s=0.005),
            n_workers=1,
            max_in_flight=4,
            heal_interval_s=60.0,
        )
        counts = {}

        async def scenario():
            client = AsyncInferenceClient(server, BENCHMARK)
            task = asyncio.ensure_future(client.likelihood(_row(3)))
            await asyncio.sleep(0.05)  # admitted; queued behind the dead pool
            assert server.in_flight() == 2  # sacrificial + the doomed task
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # Cancellation released the admission slot through the future's
            # done-callback — no wedged _remaining accounting, no leaked slot.
            assert _wait_until(lambda: server.in_flight() == 1)
            server._heal_workers()
            # The cancelled request's row is skipped; the stack still serves.
            value = await client.log_likelihood(_row(4))
            return value

        with fault_scope(plan):
            server.start()
            _count_evaluations(server, counts)
            sacrificial = _crash_all_workers(server, plan)
            value = asyncio.run(scenario())
            assert value is not None
            assert sacrificial.result(timeout=5.0) is not None
            assert _wait_until(lambda: server.in_flight() == 0)
        server.stop()
        assert counts.get("linear", 0) == 0  # the cancelled row never executed


    def test_cancelled_half_open_probe_frees_the_breaker_slot(self):
        """A half-open probe whose task is cancelled records no outcome,
        but must free the probe slot: the next call probes and closes the
        breaker instead of failing fast forever."""
        with InferenceServer(models=[BENCHMARK]) as server:
            real_submit = server.submit
            mode = {"now": "shed"}
            hung = threading.Event()

            def submit(model, evidence, kind=None, timeout=None, deadline_s=None):
                if mode["now"] == "shed":
                    raise SheddingError("shed")
                if mode["now"] == "hang":
                    hung.set()
                    return Future()  # never resolves
                return real_submit(
                    model, evidence, kind=kind, timeout=timeout, deadline_s=deadline_s
                )

            server.submit = submit
            client = AsyncInferenceClient(
                server,
                BENCHMARK,
                breaker=BreakerPolicy(failure_threshold=2, reset_timeout_s=0.02),
            )

            async def scenario():
                for _ in range(2):
                    with pytest.raises(SheddingError):
                        await client.log_likelihood(_row())
                await asyncio.sleep(0.05)  # cooldown over: the next call probes
                mode["now"] = "hang"
                probe = asyncio.ensure_future(client.log_likelihood(_row()))
                loop = asyncio.get_running_loop()
                assert await loop.run_in_executor(None, hung.wait, 5.0)
                probe.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await probe
                mode["now"] = "serve"
                return [await client.log_likelihood(_row(i)) for i in range(3)]

            values = asyncio.run(scenario())
            session = server.model(BENCHMARK).session
            for i, value in enumerate(values):
                assert value == session.run(LogLikelihood(evidence=_row(i)))[0]
            gauge = server.metrics.registry.gauge(
                "serving_breaker_state", model=BENCHMARK
            )
            assert gauge.value == 0  # closed by the probe after the cancelled one


# --------------------------------------------------------------------------- #
# The chaos soak (short seeded run; the 10^4 gate lives in the benchmark)
# --------------------------------------------------------------------------- #
class TestSoak:
    def test_short_soak_holds_every_invariant(self):
        report = run_soak(
            n_requests=200,
            seed=0,
            n_submitters=2,
            publish_crash=True,
            timeout_s=60.0,
        )
        assert report["invariants"]["clean"], report
        assert report["lost_requests"] == 0
        assert report["outcomes"].get("mismatch", 0) == 0
        assert report["publish"]["crashed"] is not None
        assert report["publish"]["live_after"] == report["publish"]["live_before"]

    def test_soak_cli_exits_zero(self, capsys):
        from repro.faults.__main__ import main

        assert main(["soak", "--requests", "60", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert '"clean": true' in out

    def test_soak_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            run_soak(n_requests=0)
        with pytest.raises(ValueError):
            run_soak(deadline_fraction=2.0)
