"""Resilience policies for the serving tier: typed failures, retries,
retry budgets and circuit breakers.

The serving failure vocabulary is **typed** so a caller can react per
failure mode instead of string-matching messages (the full failure-mode
table lives in ``docs/robustness.md``):

* :class:`DeadlineExceededError` — the request's own deadline expired
  (while waiting for admission, or in the queue before execution).  Not
  retryable: the caller already gave up on the answer.
* :class:`SheddingError` — the admission controller refused the request
  because ``max_in_flight`` requests are already in the system.  Distinct
  from :class:`~repro.serving.queue.QueueFullError` (a *timed-out wait*
  against the bounded queue): shedding is an immediate, cheap rejection
  made *before* any row is encoded or enqueued.  Retryable after backoff.
* :class:`WorkerCrashError` — a request's rows were re-enqueued by
  crashing workers more often than the rescue limit allows.  Retryable.
* :class:`CircuitOpenError` — the client-side circuit breaker for the
  target model is open; the request was never sent.  Retryable (the
  breaker's cooldown decides when a probe goes through).
* :class:`RetryBudgetExceededError` is **not** raised: an exhausted
  budget re-raises the *original* failure — the budget only decides
  whether another attempt is allowed.

:class:`RetryPolicy` is jittered exponential backoff with an explicit
seed (serving is a replay-deterministic hot path: the jitter sequence of
a client is a pure function of its policy seed).  :class:`RetryBudget` is
a token bucket shared by all requests of a client: each fresh request
earns ``ratio`` tokens, each retry spends one, so retries are bounded to
roughly ``ratio`` of traffic and a hard outage cannot trigger a retry
storm.  :class:`CircuitBreaker` is the standard three-state machine
(closed → open after ``failure_threshold`` consecutive failures → half
open after ``reset_timeout_s``, where a single probe decides).  All three
are thread-safe.

:class:`CallPolicy` combines them for one logical client request.  It is
sans-I/O: it takes the time and each attempt's outcome and answers what to
do next (send, back off, or give up), but never sleeps, waits or submits.
Both clients in :mod:`repro.serving.client` drive the same policy from
their own waiting loop (one breaker per model), and record
``serving_retries_total`` / ``serving_breaker_state`` on the server's
metrics registry.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

__all__ = [
    "BREAKER_STATES",
    "BreakerPolicy",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceededError",
    "ExecutorFaultError",
    "RETRYABLE_ERRORS",
    "RetryBudget",
    "RetryPolicy",
    "SheddingError",
    "WorkerCrashError",
    "is_retryable",
]


class DeadlineExceededError(TimeoutError):
    """The request's deadline expired before (or instead of) its answer."""


class SheddingError(RuntimeError):
    """Admission refused outright: the server is at max in-flight requests."""


class WorkerCrashError(RuntimeError):
    """The request's rows were rescued from crashing workers too many times."""


class CircuitOpenError(RuntimeError):
    """The client's circuit breaker for this model is open (request not sent)."""


class ExecutorFaultError(RuntimeError):
    """An engine call failed transiently; the request may be retried.

    Deployments raise (a subclass of) this to mark an executor failure
    retryable; the injected equivalent
    (:class:`repro.faults.InjectedExecutorFault`) is recognized by
    :func:`is_retryable` without inheriting from it, so injected chaos
    stays typed as injected.
    """


def _injected_fault_types() -> tuple:
    # Imported lazily: the serving layer must not pay a faults import at
    # module load for a type only used in the retryable check.
    from ..faults.plan import InjectedExecutorFault

    return (InjectedExecutorFault,)


#: Failure types a client may transparently retry: transient by
#: construction (shed/backpressure/crash/transient executor), never the
#: deadline (the caller gave up) and never validation errors.
RETRYABLE_ERRORS: Tuple[type, ...] = (
    SheddingError,
    WorkerCrashError,
    CircuitOpenError,
    ExecutorFaultError,
)


def is_retryable(exc: BaseException) -> bool:
    """Whether a client retry can possibly help with ``exc``."""
    from .queue import QueueFullError

    if isinstance(exc, RETRYABLE_ERRORS) or isinstance(exc, QueueFullError):
        return True
    return isinstance(exc, _injected_fault_types())


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff with a bounded attempt count.

    Attempt ``k`` (1-based) sleeps ``min(max_delay_s, base_delay_s *
    multiplier**(k-1))`` scaled by a seeded jitter factor drawn from
    ``[1 - jitter, 1]``.  ``max_attempts`` counts *total* attempts, so
    ``max_attempts=1`` disables retrying while keeping the typed-error
    and breaker behaviour.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.005
    max_delay_s: float = 0.25
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delays(self) -> "_DelaySequence":
        """A fresh seeded backoff sequence (one per logical request)."""
        return _DelaySequence(self)


class _DelaySequence:
    """The per-request backoff iterator (seeded, deterministic)."""

    def __init__(self, policy: RetryPolicy) -> None:
        self._policy = policy
        self._rng = random.Random(policy.seed)
        self._attempt = 0

    def next_delay(self) -> float:
        """The sleep before the next retry (0.0 on a zero-delay policy)."""
        self._attempt += 1
        policy = self._policy
        raw = min(
            policy.max_delay_s,
            policy.base_delay_s * policy.multiplier ** (self._attempt - 1),
        )
        scale = 1.0 - policy.jitter * self._rng.random()
        return raw * scale


class RetryBudget:
    """A token bucket bounding retries to a fraction of request traffic.

    Every fresh request deposits ``ratio`` tokens (capped at
    ``max_tokens``); every retry withdraws one.  An empty bucket denies
    the retry — the caller then re-raises the *original* error — so a
    full outage costs at most ``ratio`` extra traffic instead of
    ``max_attempts`` times the load.  ``min_tokens`` is the starting
    balance, letting a cold client retry its very first failures.
    """

    def __init__(
        self, ratio: float = 0.2, min_tokens: float = 10.0, max_tokens: float = 100.0
    ) -> None:
        if ratio < 0:
            raise ValueError(f"ratio must be >= 0, got {ratio}")
        if max_tokens < min_tokens:
            raise ValueError("max_tokens must be >= min_tokens")
        self.ratio = float(ratio)
        self.max_tokens = float(max_tokens)
        self._lock = threading.Lock()
        self._tokens = float(min_tokens)

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def record_request(self) -> None:
        """Deposit for one fresh (non-retry) request."""
        with self._lock:
            self._tokens = min(self.max_tokens, self._tokens + self.ratio)

    def allow_retry(self) -> bool:
        """Withdraw one token; ``False`` (deny) when the bucket is empty."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


#: Breaker state names → the numeric value recorded on the
#: ``serving_breaker_state`` gauge (dashboards alert on > 0).
BREAKER_STATES = {"closed": 0, "half_open": 1, "open": 2}


@dataclass(frozen=True)
class BreakerPolicy:
    """Configuration the clients build one :class:`CircuitBreaker` per model
    from (the breaker itself is stateful; the policy is shareable)."""

    failure_threshold: int = 5
    reset_timeout_s: float = 1.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.reset_timeout_s < 0:
            raise ValueError(f"reset_timeout_s must be >= 0, got {self.reset_timeout_s}")


class CircuitBreaker:
    """Three-state circuit breaker over one model's request stream.

    * **closed** — requests flow; ``failure_threshold`` *consecutive*
      failures trip the breaker open.
    * **open** — :meth:`admit` raises :class:`CircuitOpenError` without
      touching the server; after ``reset_timeout_s`` the next admit
      transitions to half-open.
    * **half-open** — exactly one probe request is admitted at a time;
      its success closes the breaker, its failure re-opens it (and the
      cooldown restarts).

    ``clock`` is injectable for tests (defaults to ``time.monotonic``).
    ``on_state_change(state_name)`` fires outside the breaker lock on
    every transition — the clients use it to keep the
    ``serving_breaker_state`` gauge current.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        on_state_change: Optional[Callable[[str], None]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout_s < 0:
            raise ValueError(f"reset_timeout_s must be >= 0, got {reset_timeout_s}")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout_s = float(reset_timeout_s)
        self._clock = clock
        self._on_state_change = on_state_change
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _transition(self, state: str) -> Optional[str]:
        """Set the state (caller holds the lock); returns it when changed."""
        if state == self._state:
            return None
        self._state = state
        return state

    def _notify(self, changed: Optional[str]) -> None:
        if changed is not None and self._on_state_change is not None:
            self._on_state_change(changed)

    def admit(self) -> None:
        """Gate one request; raises :class:`CircuitOpenError` when open."""
        changed = None
        with self._lock:
            if self._state == "open":
                if self._clock() - self._opened_at < self.reset_timeout_s:
                    raise CircuitOpenError(
                        f"circuit open ({self._consecutive_failures} consecutive "
                        f"failures); retry after {self.reset_timeout_s}s cooldown"
                    )
                changed = self._transition("half_open")
                self._probe_in_flight = False
            if self._state == "half_open":
                if self._probe_in_flight:
                    raise CircuitOpenError(
                        "circuit half-open: a probe request is already in flight"
                    )
                self._probe_in_flight = True
        self._notify(changed)

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            changed = self._transition("closed")
        self._notify(changed)

    def record_failure(self) -> None:
        changed = None
        with self._lock:
            self._consecutive_failures += 1
            if self._state == "half_open":
                changed = self._transition("open")
                self._opened_at = self._clock()
            elif (
                self._state == "closed"
                and self._consecutive_failures >= self.failure_threshold
            ):
                changed = self._transition("open")
                self._opened_at = self._clock()
            self._probe_in_flight = False
        self._notify(changed)

    def release(self) -> None:
        """Close an admitted request that ended with no outcome (cancelled).

        Frees the half-open probe slot and leaves the state alone, so the
        next :meth:`admit` may probe; a cancelled probe would otherwise
        hold the slot forever.
        """
        with self._lock:
            self._probe_in_flight = False


#: Extra seconds a deadline-bounded result wait allows past the deadline:
#: the worker's own typed DeadlineExceededError normally arrives within
#: this grace, so a caller's local backstop (which can only say "timed
#: out") stays the exception, not the rule.
RESULT_GRACE_S = 5.0


class CallPolicy:
    """Retry, budget, breaker and deadline decisions of one logical request.

    Sans-I/O: the caller passes the time and each attempt's outcome, and
    the policy answers what to do next; it never sleeps, waits or submits.
    Constructing it makes the ``budget`` deposit for the fresh request.
    Per attempt, the caller calls :meth:`start`, sends, then closes the
    attempt with exactly one of :meth:`succeeded`, :meth:`failed` or
    :meth:`cancelled`.  ``on_retry`` is called once per granted retry.
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy],
        budget: Optional[RetryBudget],
        breaker: Optional[CircuitBreaker],
        deadline_s: Optional[float],
        now: float,
        on_retry: Optional[Callable[[], None]] = None,
    ) -> None:
        self._retry = retry
        self._budget = budget
        self._breaker = breaker
        self._deadline_s = deadline_s
        self._deadline_at = None if deadline_s is None else now + float(deadline_s)
        self._delays = None if retry is None else retry.delays()
        self._on_retry = on_retry
        self._attempts = 0
        if budget is not None:
            budget.record_request()

    def start(self, now: float) -> Optional[float]:
        """Admit one attempt; return the deadline left (``None``: unbounded).

        Raises :class:`CircuitOpenError` when the breaker refuses, and
        :class:`DeadlineExceededError` when the deadline has passed.  Both
        are this attempt's failure: hand them to :meth:`failed`.
        """
        self._attempts += 1
        if self._breaker is not None:
            self._breaker.admit()
        if self._deadline_at is None:
            return None
        remaining = self._deadline_at - now
        if remaining <= 0.0:
            raise DeadlineExceededError(
                f"client deadline ({self._deadline_s}s) expired before the attempt"
            )
        return remaining

    def timed_out(self) -> DeadlineExceededError:
        """The error for a result wait that outlived the deadline and grace."""
        return DeadlineExceededError(
            f"no result within the client deadline ({self._deadline_s}s)"
        )

    def succeeded(self) -> None:
        if self._breaker is not None:
            self._breaker.record_success()

    def cancelled(self) -> None:
        """The caller was cancelled mid-attempt: no outcome to record."""
        if self._breaker is not None:
            self._breaker.release()

    def failed(self, exc: BaseException, now: float) -> Optional[float]:
        """Record a failed attempt; return the backoff, or ``None`` to re-raise.

        An open circuit is never counted against the breaker.  The retry
        checks run attempts, then :func:`is_retryable`, then the deadline,
        then the budget, so a budget token is spent only on a retry every
        other check allows.  The backoff is clipped to the deadline left.
        """
        if self._breaker is not None and not isinstance(exc, CircuitOpenError):
            self._breaker.record_failure()
        if self._retry is None or self._attempts >= self._retry.max_attempts:
            return None
        if not is_retryable(exc):
            return None
        if self._deadline_at is not None and now >= self._deadline_at:
            return None
        if self._budget is not None and not self._budget.allow_retry():
            return None
        if self._on_retry is not None:
            self._on_retry()
        delay = self._delays.next_delay()
        if self._deadline_at is not None:
            delay = min(delay, self._deadline_at - now)
        return delay
