"""Tests for the dynamic-batching inference service (repro.serving)."""

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.serving import (
    AsyncInferenceClient,
    BatchingPolicy,
    InferenceClient,
    InferenceServer,
    MicroBatchQueue,
    ModelRouter,
    QueueClosedError,
    QueueFullError,
    ServerClosedError,
    ServingMetrics,
    UnknownModelError,
    WorkItem,
)
from repro.api import (
    MPE,
    Classify,
    Conditional,
    InferenceSession,
    Likelihood,
    Marginal,
    QueryKind,
    deserialize_query,
    serialize_query,
)
from repro.serving.server import KIND_LIKELIHOOD, KIND_LOG_LIKELIHOOD, KIND_MPE
from repro.spn.evaluate import MARGINALIZED, evaluate_batch, evaluate_log_batch, row_evidence
from repro.spn.generate import RatSpnConfig, generate_rat_spn, random_evidence
from repro.spn.queries import mpe_row
from repro.suite.registry import build_benchmark, get_profile

BENCHMARK = "Banknote"
N_VARS = 4


@pytest.fixture(scope="module")
def spn():
    return build_benchmark(BENCHMARK)


@pytest.fixture(scope="module")
def rows():
    return random_evidence(N_VARS, observed_fraction=0.7, seed=3, n_samples=48)


def _item(i=0, request=None):
    return WorkItem(model="m", kind="k", row=i, index=0, request=request)


# --------------------------------------------------------------------------- #
# Queue
# --------------------------------------------------------------------------- #
class TestMicroBatchQueue:
    def test_batch_closes_at_max_size(self):
        q = MicroBatchQueue(BatchingPolicy(max_batch_size=4, max_wait_s=10.0))
        for i in range(9):
            q.put(_item(i))
        assert len(q.get_batch()) == 4  # full batch, no waiting despite max_wait
        assert len(q.get_batch()) == 4

    def test_partial_batch_flushes_after_wait_window(self):
        q = MicroBatchQueue(BatchingPolicy(max_batch_size=64, max_wait_s=0.01))
        q.put(_item())
        start = time.perf_counter()
        batch = q.get_batch()
        elapsed = time.perf_counter() - start
        assert len(batch) == 1
        assert elapsed < 1.0  # waited ~max_wait_s, not forever

    def test_backpressure_blocks_then_raises(self):
        q = MicroBatchQueue(BatchingPolicy(max_queue_depth=2, max_batch_size=2))
        q.put(_item(0))
        q.put(_item(1))
        with pytest.raises(QueueFullError):
            q.put(_item(2), timeout=0.01)

    def test_backpressure_releases_during_batch_window(self):
        # A producer blocked on a full queue must be admitted the moment
        # the consumer pops items — not only after the consumer's batch
        # window (2s here) has run its course.
        q = MicroBatchQueue(
            BatchingPolicy(max_queue_depth=2, max_batch_size=64, max_wait_s=2.0)
        )
        q.put(_item(0))
        q.put(_item(1))
        got = {}
        consumer = threading.Thread(target=lambda: got.setdefault("batch", q.get_batch()))
        consumer.start()
        time.sleep(0.05)  # consumer drained the queue; now inside its window
        start = time.perf_counter()
        q.put(_item(2), timeout=1.5)  # must not raise QueueFullError
        assert time.perf_counter() - start < 1.0
        q.close()
        consumer.join(timeout=5.0)
        assert len(got["batch"]) == 3

    def test_backpressure_releases_when_consumer_drains(self):
        q = MicroBatchQueue(
            BatchingPolicy(max_queue_depth=2, max_batch_size=2, max_wait_s=0.0)
        )
        q.put(_item(0))
        q.put(_item(1))
        threading.Timer(0.02, q.get_batch).start()
        q.put(_item(2), timeout=5.0)  # unblocked by the drain, no error

    def test_put_many_timeout_is_one_deadline(self):
        # The timeout bounds the whole multi-item admission, not each item.
        q = MicroBatchQueue(BatchingPolicy(max_queue_depth=1, max_batch_size=1))
        q.put(_item(0))
        start = time.perf_counter()
        with pytest.raises(QueueFullError):
            q.put_many([_item(1), _item(2), _item(3)], timeout=0.05)
        assert time.perf_counter() - start < 1.0

    def test_put_after_close_raises(self):
        q = MicroBatchQueue(BatchingPolicy())
        q.close()
        with pytest.raises(QueueClosedError):
            q.put(_item())

    def test_close_drains_then_returns_none(self):
        q = MicroBatchQueue(BatchingPolicy(max_batch_size=8))
        q.put(_item(0))
        q.put(_item(1))
        q.close()
        assert len(q.get_batch()) == 2
        assert q.get_batch() is None

    def test_empty_queue_flush_on_close(self):
        # A blocked consumer wakes promptly when an *empty* queue closes.
        q = MicroBatchQueue(BatchingPolicy(max_wait_s=30.0))
        got = {}

        def consume():
            got["batch"] = q.get_batch()

        worker = threading.Thread(target=consume)
        worker.start()
        time.sleep(0.02)
        q.close()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert got["batch"] is None

    def test_get_batch_timeout_returns_empty_list(self):
        q = MicroBatchQueue(BatchingPolicy())
        assert q.get_batch(timeout=0.01) == []

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchingPolicy(max_wait_s=-1.0)
        with pytest.raises(ValueError):
            BatchingPolicy(max_queue_depth=0)


# --------------------------------------------------------------------------- #
# Server: correctness (the bit-identical contract)
# --------------------------------------------------------------------------- #
class TestServerCorrectness:
    def test_served_likelihoods_bit_identical_to_direct(self, spn, rows):
        with InferenceServer(
            models=[BENCHMARK], policy=BatchingPolicy(max_batch_size=8, max_wait_s=0.001)
        ) as server:
            futures = [
                server.submit(BENCHMARK, rows[i], kind=KIND_LIKELIHOOD)
                for i in range(len(rows))
            ]
            served = np.array([f.result(timeout=30)[0] for f in futures])
        direct = evaluate_batch(spn, rows, engine="vectorized")
        assert np.array_equal(served, direct)  # exact, not allclose

    def test_served_log_likelihoods_bit_identical_to_direct(self, spn, rows):
        with InferenceServer(models=[BENCHMARK]) as server:
            served = server.query(BENCHMARK, rows, kind=KIND_LOG_LIKELIHOOD)
        assert np.array_equal(served, evaluate_log_batch(spn, rows, engine="vectorized"))

    def test_batch_composition_does_not_change_results(self, spn, rows):
        # The same row served alone and served inside a crowded batch must
        # produce the identical value: batching is invisible to correctness.
        lonely = InferenceServer(models=[BENCHMARK], policy=BatchingPolicy(max_batch_size=1))
        crowded = InferenceServer(
            models=[BENCHMARK], policy=BatchingPolicy(max_batch_size=48, max_wait_s=0.05)
        )
        with lonely, crowded:
            alone = lonely.query(BENCHMARK, rows[7], kind=KIND_LIKELIHOOD)[0]
            futures = [
                crowded.submit(BENCHMARK, rows[i], kind=KIND_LIKELIHOOD)
                for i in range(len(rows))
            ]
            together = futures[7].result(timeout=30)[0]
        assert alone == together

    def test_mpe_matches_direct_query(self, spn, rows):
        with InferenceServer(models=[BENCHMARK]) as server:
            served = server.query(BENCHMARK, rows[:4], kind=KIND_MPE)
        expected = [
            mpe_row(spn, row_evidence(row)) for row in rows[:4]
        ]
        assert served == expected

    def test_mapping_evidence_matches_row_evidence(self, spn):
        evidence = {0: 1, 2: 0}
        row = np.full((1, N_VARS), MARGINALIZED, dtype=np.int64)
        row[0, 0], row[0, 2] = 1, 0
        with InferenceServer(models=[BENCHMARK]) as server:
            from_mapping = server.query(BENCHMARK, evidence, kind=KIND_LIKELIHOOD)[0]
        assert from_mapping == evaluate_batch(spn, row, engine="vectorized")[0]

    def test_python_engine_serving(self, spn, rows):
        with InferenceServer() as server:
            server.publish(BENCHMARK, "1", InferenceSession(BENCHMARK, engine="python"))
            served = server.query(BENCHMARK, rows[:8], kind=KIND_LIKELIHOOD)
        assert np.array_equal(served, evaluate_batch(spn, rows[:8], engine="python"))

    def test_publish_verifies_the_tape_a_mutated_session_runs(self, monkeypatch):
        # Regression: a warm session whose model moved its root after
        # construction was gated, and exposed as ServedModel.tape, with the
        # tape compiled at construction while every served pass ran the new
        # network's freshly compiled, unverified tape.
        from repro.spn.compiled import cached_tape
        from repro.spn.graph import SPN
        from repro.statics import verifier

        spn = SPN()
        s0 = SPN.bernoulli_leaf(spn, 0, 0.5)
        p = spn.add_product([s0, SPN.bernoulli_leaf(spn, 1, 0.6)])
        spn.set_root(p)
        session = InferenceSession(spn, warm=True)
        q = spn.add_product([s0, SPN.bernoulli_leaf(spn, 1, 1.0)])
        spn.set_root(spn.add_sum([p, q], [0.5, 0.5]))
        verified = []
        verify_compiled = verifier.verify_compiled
        monkeypatch.setattr(
            verifier,
            "verify_compiled",
            lambda tape, plan=None: verified.append(tape) or verify_compiled(tape, plan),
        )
        with InferenceServer() as server:
            server.publish("m", "1", session)
            value = server.query("m", np.array([MARGINALIZED, 1]), kind=KIND_LIKELIHOOD)
            served = server.model("m")
        assert value[0] == pytest.approx(0.8)
        assert len(verified) == 1
        assert verified[0] is cached_tape(spn) and served.tape is verified[0]

    def test_short_and_long_rows_normalize_exactly(self, spn):
        short = np.array([1, 0], dtype=np.int64)  # missing vars marginalize
        # Unobserved surplus columns trim exactly; *observed* ones are
        # rejected at admission (trimming them would silently change the
        # query, and served MPE completions would diverge from offline).
        long = np.array([1, 0, -1, -1, MARGINALIZED, MARGINALIZED], dtype=np.int64)
        observed_surplus = np.array([1, 0, -1, -1, 5, 7], dtype=np.int64)
        full = np.array([[1, 0, MARGINALIZED, MARGINALIZED]], dtype=np.int64)
        expected = evaluate_batch(spn, full, engine="vectorized")[0]
        with InferenceServer(models=[BENCHMARK]) as server:
            assert server.query(BENCHMARK, short, kind=KIND_LIKELIHOOD)[0] == expected
            assert server.query(BENCHMARK, long, kind=KIND_LIKELIHOOD)[0] == expected
            with pytest.raises(ValueError, match="out of range"):
                server.submit(BENCHMARK, observed_surplus, kind=KIND_LIKELIHOOD)

    def test_empty_batch_resolves_immediately(self, spn):
        # A zero-row request has nothing to execute; it must resolve to an
        # empty result (like evaluate_batch), not hang forever.
        empty = np.zeros((0, N_VARS), dtype=np.int64)
        with InferenceServer(models=[BENCHMARK]) as server:
            result = server.submit(BENCHMARK, empty, kind=KIND_LIKELIHOOD).result(
                timeout=5
            )
            assert result.shape == (0,)
            mpe = server.submit(BENCHMARK, empty, kind=KIND_MPE).result(timeout=5)
            assert mpe == []
        assert evaluate_batch(spn, empty, engine="vectorized").shape == (0,)

    def test_cancelled_future_does_not_kill_worker(self, spn, rows):
        # A caller giving up on a queued request (asyncio timeouts cancel
        # the wrapped future) must not crash the worker delivering into it;
        # later requests keep being served.
        policy = BatchingPolicy(max_batch_size=64, max_wait_s=0.1)
        with InferenceServer(models=[BENCHMARK], policy=policy) as server:
            abandoned = server.submit(BENCHMARK, rows[0], kind=KIND_LIKELIHOOD)
            assert abandoned.cancel()  # still queued: cancellation wins
            value = server.query(BENCHMARK, rows[1], kind=KIND_LIKELIHOOD)[0]
            assert value == evaluate_batch(spn, rows[1:2], engine="vectorized")[0]
            # The worker survived; a fresh request after the batch window too.
            again = server.query(BENCHMARK, rows[2], kind=KIND_LIKELIHOOD)[0]
            assert again == evaluate_batch(spn, rows[2:3], engine="vectorized")[0]
            # The abandoned row was skipped, not computed-and-counted.
            assert server.metrics.snapshot()["rows"] == 2

    def test_request_completion_is_claimed_once(self):
        # fail/deliver/fail racing on one request must resolve the future
        # exactly once — the loser backs off instead of raising
        # InvalidStateError in a worker thread.
        from repro.serving.server import _PendingRequest

        request = _PendingRequest("m", KIND_LIKELIHOOD, 1, ServingMetrics())
        request.fail(RuntimeError("first"))
        request.fail(RuntimeError("second"))  # no InvalidStateError
        request.deliver(0, 1.0)  # ignored: request already failed
        with pytest.raises(RuntimeError, match="first"):
            request.future.result(timeout=1)

        delivered = _PendingRequest("m", KIND_LIKELIHOOD, 1, ServingMetrics())
        delivered.deliver(0, 2.5)
        delivered.fail(RuntimeError("late"))  # ignored: already resolved
        assert delivered.future.result(timeout=1)[0] == 2.5

    def test_submitted_rows_do_not_alias_caller_buffer(self, spn, rows):
        # A streaming client may reuse its read buffer immediately after
        # submit(); the queued rows must be a snapshot, not a view.
        policy = BatchingPolicy(max_batch_size=64, max_wait_s=0.2)
        buffer = np.array(rows[0], dtype=np.int64)
        expected = evaluate_batch(spn, buffer[None, :], engine="vectorized")[0]
        with InferenceServer(models=[BENCHMARK], policy=policy) as server:
            future = server.submit(BENCHMARK, buffer, kind=KIND_LIKELIHOOD)
            buffer[:] = 1 - np.maximum(buffer, 0)  # reuse before the window closes
            assert future.result(timeout=30)[0] == expected

    def test_explicit_spn_model(self):
        custom = generate_rat_spn(
            RatSpnConfig(n_vars=6, depth=6, repetitions=2, n_sums=2, seed=23)
        )
        data = random_evidence(6, observed_fraction=0.5, seed=5, n_samples=10)
        with InferenceServer(models=[("custom", custom)]) as server:
            served = server.query("custom", data, kind=KIND_LIKELIHOOD)
        assert np.array_equal(served, evaluate_batch(custom, data, engine="vectorized"))


# --------------------------------------------------------------------------- #
# Server: typed queries (all five kinds servable, bit-identical to offline)
# --------------------------------------------------------------------------- #
class TestTypedQueryServing:
    def conditional(self, rows, var=0, value=1):
        evidence = np.array(rows, copy=True)
        evidence[:, var] = MARGINALIZED
        query = np.full_like(evidence, MARGINALIZED)
        query[:, var] = value
        return Conditional(evidence=evidence, query=query)

    def test_served_conditional_bit_identical_to_offline_session(self, spn, rows):
        cond = self.conditional(rows)
        offline = InferenceSession(spn).run(cond)
        with InferenceServer(models=[BENCHMARK]) as server:
            served = server.submit(BENCHMARK, cond).result(timeout=30)
        assert np.array_equal(served, offline)  # exact, not allclose

    def test_served_marginal_bit_identical_to_offline_session(self, spn, rows):
        query = Marginal(rows, log=True, normalize=True)
        offline = InferenceSession(spn).run(query)
        with InferenceServer(models=[BENCHMARK]) as server:
            served = server.submit(BENCHMARK, query).result(timeout=30)
        assert np.array_equal(served, offline)

    def test_every_query_kind_served(self, spn, rows):
        session = InferenceSession(spn)
        queries = [
            Likelihood(rows),
            Marginal(rows, log=True),
            self.conditional(rows),
            MPE(rows[:3]),
        ]
        with InferenceServer(models=[BENCHMARK]) as server:
            for query in queries:
                served = server.submit(BENCHMARK, query).result(timeout=30)
                offline = session.run(query)
                if query.kind == QueryKind.MPE:
                    assert served == offline
                else:
                    assert np.array_equal(served, offline)
            # The legacy evidence+kind path still covers its three kinds.
            legacy = server.query(BENCHMARK, rows, kind="log_likelihood")
        assert np.array_equal(legacy, evaluate_log_batch(spn, rows, engine="vectorized"))

    def test_conditional_rows_scatter_across_micro_batches(self, spn, rows):
        # One conditional request larger than max_batch_size spans several
        # micro-batches and still reassembles bit-identically.
        cond = self.conditional(rows)
        offline = InferenceSession(spn).run(cond)
        policy = BatchingPolicy(max_batch_size=8, max_wait_s=0.001)
        with InferenceServer(models=[BENCHMARK], policy=policy) as server:
            served = server.submit(BENCHMARK, cond).result(timeout=30)
            assert server.metrics.n_batches >= len(rows) // 8
        assert np.array_equal(served, offline)

    def test_co_batched_conditionals_from_many_clients_exact(self, spn, rows):
        cond = self.conditional(rows)
        offline = InferenceSession(spn).run(cond)
        policy = BatchingPolicy(max_batch_size=64, max_wait_s=0.05)
        with InferenceServer(models=[BENCHMARK], policy=policy) as server:
            futures = [
                server.submit(
                    BENCHMARK,
                    Conditional(evidence=cond.evidence[i], query=cond.query[i]),
                )
                for i in range(len(rows))
            ]
            served = np.array([f.result(timeout=30)[0] for f in futures])
        assert np.array_equal(served, offline)

    def test_marginal_flag_variants_never_co_execute(self, spn, rows):
        # normalize=True and normalize=False rows must land in different
        # execution groups (the group key carries the flags); both answers
        # stay exact.
        session = InferenceSession(spn)
        policy = BatchingPolicy(max_batch_size=64, max_wait_s=0.05)
        with InferenceServer(models=[BENCHMARK], policy=policy) as server:
            plain = server.submit(BENCHMARK, Marginal(rows[:8], log=True))
            normalized = server.submit(
                BENCHMARK, Marginal(rows[:8], log=True, normalize=True)
            )
            got_plain = plain.result(timeout=30)
            got_normalized = normalized.result(timeout=30)
            assert server.metrics.snapshot()["batches"] == 2  # two groups
        assert np.array_equal(got_plain, session.run(Marginal(rows[:8], log=True)))
        assert np.array_equal(
            got_normalized, session.run(Marginal(rows[:8], log=True, normalize=True))
        )

    def test_serialized_payload_submission_round_trips(self, spn, rows):
        import json

        cond = self.conditional(rows)
        payload = json.loads(json.dumps(serialize_query(cond)))
        offline = InferenceSession(spn).run(cond)
        with InferenceServer(models=[BENCHMARK]) as server:
            served = server.submit(BENCHMARK, payload).result(timeout=30)
        assert np.array_equal(served, offline)
        assert np.array_equal(
            InferenceSession(spn).run(deserialize_query(payload)), offline
        )

    def test_empty_batch_payload_still_resolves_empty(self, rows):
        # Regression: a zero-row query submitted as its serialized payload
        # must resolve to an empty result, not a one-row marginalized one.
        import json

        empty = np.zeros((0, N_VARS), dtype=np.int64)
        payload = json.loads(json.dumps(serialize_query(Likelihood(empty))))
        with InferenceServer(models=[BENCHMARK]) as server:
            direct = server.submit(BENCHMARK, Likelihood(empty)).result(timeout=5)
            served = server.submit(BENCHMARK, payload).result(timeout=5)
        assert direct.shape == (0,)
        assert served.shape == (0,)

    def test_kind_mismatch_with_typed_query_rejected(self, rows):
        # A verb must not silently serve values of a different kind than
        # its name: an explicit kind that disagrees with the submitted
        # query object fails at admission.
        from repro.api import LogLikelihood

        with InferenceServer(models=[BENCHMARK]) as server:
            client = InferenceClient(server, model=BENCHMARK)
            with pytest.raises(ValueError, match="disagrees with"):
                client.likelihood(LogLikelihood(rows[:2]))
            with pytest.raises(ValueError, match="disagrees with"):
                server.submit(BENCHMARK, Likelihood(rows[:2]), kind="mpe")
            # No explicit kind: the object's own kind executes — through
            # the blocking convenience wrapper too.
            served = server.submit(BENCHMARK, LogLikelihood(rows[:2])).result(30)
            blocking = server.query(BENCHMARK, LogLikelihood(rows[:2]))
            via_query_verb = server.query(BENCHMARK, Likelihood(rows[:2]))
            spn = build_benchmark(BENCHMARK)
            assert np.array_equal(
                served, evaluate_log_batch(spn, rows[:2], engine="vectorized")
            )
            assert np.array_equal(blocking, served)
            assert np.array_equal(
                via_query_verb, evaluate_batch(spn, rows[:2], engine="vectorized")
            )

    def test_plain_conditional_kind_requires_typed_object(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            with pytest.raises(ValueError, match="typed"):
                server.submit(BENCHMARK, {0: 1}, kind="conditional")

    def test_typed_query_encoded_to_model_width(self, spn):
        # A typed query narrower/wider than the model normalizes exactly;
        # observed entries beyond the model's width are rejected on every
        # submission form (typed queries included), not silently trimmed.
        with InferenceServer(models=[BENCHMARK]) as server:
            narrow = server.submit(BENCHMARK, Likelihood({0: 1})).result(timeout=30)
            wide = server.submit(
                BENCHMARK, Likelihood(np.array([[1, -1, -1, -1, -1, -1]]))
            ).result(timeout=30)
            with pytest.raises(ValueError, match="out of range"):
                server.submit(BENCHMARK, Likelihood(np.array([[1, -1, -1, -1, 7, 9]])))
            with pytest.raises(ValueError, match="out of range"):
                server.submit(BENCHMARK, Marginal({N_VARS + 5: 1}))
            with pytest.raises(ValueError, match="out of range"):
                server.submit(
                    BENCHMARK, Conditional(query={N_VARS + 5: 1}, evidence={0: 1})
                )
        row = np.full((1, N_VARS), MARGINALIZED, dtype=np.int64)
        row[0, 0] = 1
        expected = evaluate_batch(spn, row, engine="vectorized")[0]
        assert narrow[0] == expected
        assert wide[0] == expected

    def test_served_mpe_matches_offline_for_wide_rows(self, spn):
        # Admitted wide rows (unobserved surplus) must produce the very
        # same MPE completions offline and served.
        wide = np.full((2, N_VARS + 3), MARGINALIZED, dtype=np.int64)
        wide[:, 0] = 1
        query = MPE(wide)
        offline = InferenceSession(spn).run(query)
        with InferenceServer(models=[BENCHMARK]) as server:
            served = server.submit(BENCHMARK, query).result(timeout=30)
        assert served == offline

    def test_conditional_verb_unwraps_symmetrically(self, spn):
        # A 2-D batch on *either* side keeps the vector shape; scalar only
        # when both assignments are scalar-formed.
        evidence_row = np.array([[MARGINALIZED, 0, MARGINALIZED, MARGINALIZED]])
        query_row = np.array([[1, MARGINALIZED, MARGINALIZED, MARGINALIZED]])
        with InferenceServer(models=[BENCHMARK]) as server:
            client = InferenceClient(server, model=BENCHMARK)
            scalar = client.conditional({0: 1}, {1: 0})
            from_2d_evidence = client.conditional({0: 1}, evidence_row)
            from_2d_query = client.conditional(query_row, {1: 0})
        assert isinstance(scalar, float)
        assert from_2d_evidence.shape == (1,)
        assert from_2d_query.shape == (1,)
        assert from_2d_evidence[0] == scalar
        assert from_2d_query[0] == scalar

    def test_client_verbs_for_marginal_and_conditional(self, spn):
        session = InferenceSession(spn)
        with InferenceServer(models=[BENCHMARK]) as server:
            client = InferenceClient(server, model=BENCHMARK)
            prob = client.conditional({0: 1}, {1: 0})
            assert prob == session.run(Conditional(evidence={1: 0}, query={0: 1}))[0]
            log_marg = client.marginal({0: 1}, log=True, normalize=True)
            assert (
                log_marg
                == session.run(Marginal({0: 1}, log=True, normalize=True))[0]
            )

    def test_async_client_conditional_verb(self, spn, rows):
        session = InferenceSession(spn)
        cond = self.conditional(rows[:8])

        async def run():
            server = InferenceServer(models=[BENCHMARK]).start()
            client = AsyncInferenceClient(server, model=BENCHMARK)
            values = await client.conditional(cond.query, cond.evidence)
            server.stop()
            return values

        values = asyncio.run(run())
        assert np.array_equal(values, session.run(cond))

    def test_queue_kind_is_group_key(self, rows):
        # Unknown-kind strings fail at admission, before any WorkItem exists.
        with InferenceServer(models=[BENCHMARK]) as server:
            with pytest.raises(ValueError, match="unknown query kind"):
                server.submit(BENCHMARK, rows[0], kind=object())


# --------------------------------------------------------------------------- #
# Analysis kinds: admission-time validation.  Malformed submissions of the
# new kinds must fail synchronously in the submitting thread — never inside
# a worker where the error would surface as a failed Future (or worse, a
# wedged batch).
# --------------------------------------------------------------------------- #
class TestAnalysisKindAdmission:
    def _classify_rows(self, rows, target):
        evidence = np.array(rows[:4], copy=True)
        evidence[:, target] = MARGINALIZED
        return evidence

    def test_unknown_kind_payload_fails_synchronously(self):
        # A payload with an unrecognized "kind" discriminator raises at
        # submit — no Future is created and no worker sees the request.
        payload = {
            "kind": "gradient",
            "evidence": [[1, -1, -1, -1]],
            "shape": [1, N_VARS],
        }
        with InferenceServer(models=[BENCHMARK]) as server:
            with pytest.raises(ValueError, match="unknown query kind"):
                server.submit(BENCHMARK, payload)
            # The pool is untouched: a follow-up query still serves.
            assert server.query(BENCHMARK, {0: 1}, kind="likelihood").shape == (1,)

    def test_malformed_classify_payload_fails_at_admission(self, rows):
        # A classify payload that lost its target is rejected when the
        # query object is rebuilt at admission, not during execution.
        import json

        query = Classify(evidence=self._classify_rows(rows, 0), target=0)
        payload = json.loads(json.dumps(serialize_query(query)))
        del payload["target"]
        with InferenceServer(models=[BENCHMARK]) as server:
            with pytest.raises(ValueError, match="requires a target"):
                server.submit(BENCHMARK, payload)

    def test_plain_evidence_with_classify_kind_fails_at_admission(self):
        # kind="classify" on plain evidence carries no target variable.
        with InferenceServer(models=[BENCHMARK]) as server:
            with pytest.raises(ValueError, match="requires a target"):
                server.submit(BENCHMARK, {0: 1}, kind="classify")

    def test_classify_target_in_evidence_raises_at_construction(self, rows):
        evidence = np.array(rows[:4], copy=True)
        evidence[:, 2] = 1  # the would-be target is observed everywhere
        with pytest.raises(ValueError, match="observed in evidence row"):
            Classify(evidence=evidence, target=2)

    def test_conflicting_classify_payload_fails_at_admission(self, rows):
        # The payload path rebuilds through the same constructor, so a
        # hand-corrupted payload whose evidence pins the target cannot
        # reach a worker either.
        import json

        query = Classify(evidence=self._classify_rows(rows, 2), target=2)
        payload = json.loads(json.dumps(serialize_query(query)))
        observed = np.array(self._classify_rows(rows, 2), copy=True)
        observed[:, 2] = 0
        payload["evidence"] = observed.tolist()
        with InferenceServer(models=[BENCHMARK]) as server:
            with pytest.raises(ValueError, match="observed in evidence row"):
                server.submit(BENCHMARK, payload)

    def test_invalid_variables_payload_fails_at_admission(self):
        # Duplicate variable selections are a construction-time error for
        # every analysis kind; the serving layer inherits it synchronously.
        payload = {
            "kind": "entropy",
            "evidence": [[-1, -1, -1, -1]],
            "shape": [1, N_VARS],
            "variables": [1, 1],
        }
        with InferenceServer(models=[BENCHMARK]) as server:
            with pytest.raises(ValueError, match="duplicates"):
                server.submit(BENCHMARK, payload)


# --------------------------------------------------------------------------- #
# Server: edge cases and lifecycle
# --------------------------------------------------------------------------- #
class TestServerLifecycle:
    def test_oversized_request_spans_micro_batches(self, spn, rows):
        # One request larger than max_batch_size completes correctly by
        # spanning several micro-batches (and larger than the queue depth,
        # exercising incremental admission under backpressure).
        policy = BatchingPolicy(max_batch_size=8, max_queue_depth=16, max_wait_s=0.001)
        with InferenceServer(models=[BENCHMARK], policy=policy) as server:
            served = server.query(BENCHMARK, rows, kind=KIND_LIKELIHOOD)
            assert server.metrics.n_batches >= len(rows) // 8
        assert np.array_equal(served, evaluate_batch(spn, rows, engine="vectorized"))

    def test_shutdown_drains_in_flight_requests(self, spn, rows):
        server = InferenceServer(
            models=[BENCHMARK], policy=BatchingPolicy(max_batch_size=4, max_wait_s=0.01)
        ).start()
        futures = [
            server.submit(BENCHMARK, rows[i], kind=KIND_LIKELIHOOD)
            for i in range(len(rows))
        ]
        server.stop()  # drain=True: every admitted request still completes
        served = np.array([f.result(timeout=30)[0] for f in futures])
        assert np.array_equal(served, evaluate_batch(spn, rows, engine="vectorized"))

    def test_shutdown_without_drain_fails_queued_requests(self, rows):
        # The batch window (10s) and size cap (64) guarantee the worker is
        # still collecting when stop(drain=False) lands, so every queued
        # request is failed fast instead of executed.
        policy = BatchingPolicy(max_batch_size=64, max_wait_s=10.0)
        server = InferenceServer(models=[BENCHMARK], policy=policy).start()
        futures = [server.submit(BENCHMARK, rows[i]) for i in range(8)]
        server.stop(drain=False)
        for future in futures:
            with pytest.raises(ServerClosedError):
                future.result(timeout=30)

    def test_submit_after_stop_raises(self):
        server = InferenceServer(models=[BENCHMARK]).start()
        server.stop()
        with pytest.raises(ServerClosedError):
            server.submit(BENCHMARK, {0: 1})

    def test_submit_before_start_raises(self):
        server = InferenceServer(models=[BENCHMARK])
        with pytest.raises(ServerClosedError):
            server.submit(BENCHMARK, {0: 1})

    def test_unknown_model_raises(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            with pytest.raises(UnknownModelError, match="unknown model 'Netflix'"):
                server.submit("Netflix", {0: 1})

    def test_unknown_kind_raises(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            with pytest.raises(ValueError, match="unknown query kind"):
                server.submit(BENCHMARK, {0: 1}, kind="gradient")

    def test_duplicate_model_rejected(self):
        server = InferenceServer(models=[BENCHMARK])
        with pytest.raises(ValueError, match="already hosted"):
            server.add_model(BENCHMARK)

    def test_out_of_range_mapping_variable_rejected(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            with pytest.raises(ValueError, match="out of range"):
                server.submit(BENCHMARK, {N_VARS + 3: 1})

    def test_fractional_mapping_value_rejected(self, spn):
        # {0: 0.7} must raise like array evidence does — not truncate to an
        # observed 0 (which would diverge from direct evaluation).
        with InferenceServer(models=[BENCHMARK]) as server:
            with pytest.raises(ValueError, match="integral"):
                server.submit(BENCHMARK, {0: 0.7})
            with pytest.raises(ValueError, match="integral"):
                server.submit(BENCHMARK, {0.5: 1})
            with pytest.raises(ValueError, match="int64 range"):
                server.submit(BENCHMARK, {0: 1e19})
            # Integral floats coerce exactly, mirroring as_evidence_array.
            value = server.query(BENCHMARK, {0: 1.0}, kind=KIND_LIKELIHOOD)[0]
        row = np.full((1, N_VARS), MARGINALIZED, dtype=np.int64)
        row[0, 0] = 1
        assert value == evaluate_batch(spn, row, engine="vectorized")[0]

    def test_metrics_visible_once_result_is(self, rows):
        # snapshot() immediately after a blocking query must include it.
        with InferenceServer(models=[BENCHMARK]) as server:
            for i in range(4):
                server.query(BENCHMARK, rows[i], kind=KIND_LIKELIHOOD)
                assert server.metrics.snapshot()["requests"] == i + 1

    def test_float_evidence_validation_applies_to_serving(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            with pytest.raises(ValueError, match="integral"):
                server.submit(BENCHMARK, np.array([0.7, 1.0, -1.0, 0.0]))
            # Integral-valued floats coerce exactly.
            value = server.query(
                BENCHMARK, np.array([1.0, 0.0, -1.0, -1.0]), kind=KIND_LIKELIHOOD
            )[0]
        spn = build_benchmark(BENCHMARK)
        row = np.array([[1, 0, MARGINALIZED, MARGINALIZED]])
        assert value == evaluate_batch(spn, row, engine="vectorized")[0]

    def test_served_model_metadata(self):
        server = InferenceServer(models=[BENCHMARK])
        served = server.model(BENCHMARK)
        assert served.n_vars == get_profile(BENCHMARK).model_vars
        assert served.tape is not None  # warm start pinned the compiled tape
        assert server.models() == [BENCHMARK]

    def test_multiple_workers_still_exact(self, spn, rows):
        policy = BatchingPolicy(max_batch_size=4, max_wait_s=0.0)
        with InferenceServer(models=[BENCHMARK], policy=policy, n_workers=4) as server:
            futures = [
                server.submit(BENCHMARK, rows[i], kind=KIND_LIKELIHOOD)
                for i in range(len(rows))
            ]
            served = np.array([f.result(timeout=30)[0] for f in futures])
        assert np.array_equal(served, evaluate_batch(spn, rows, engine="vectorized"))


# --------------------------------------------------------------------------- #
# Clients and routing
# --------------------------------------------------------------------------- #
class TestClients:
    def test_sync_client_scalar_queries(self, spn):
        with InferenceServer(models=[BENCHMARK]) as server:
            client = InferenceClient(server, model=BENCHMARK)
            evidence = {0: 1, 1: 0}
            assert client.likelihood(evidence) == evaluate_batch(
                spn, np.array([[1, 0, -1, -1]]), engine="vectorized"
            )[0]
            assert isinstance(client.log_likelihood(evidence), float)
            assert client.mpe(evidence)[0] == 1

    def test_client_plumbs_backpressure_timeout(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            seen = {}
            original = server.submit

            def capture(model, evidence, kind="log_likelihood", timeout=None):
                seen["timeout"] = timeout
                return original(model, evidence, kind=kind, timeout=timeout)

            server.submit = capture
            client = InferenceClient(server, model=BENCHMARK)
            assert isinstance(client.query({0: 1}, timeout=2.5), float)
            assert seen["timeout"] == 2.5

    def test_mixed_kind_batch_delivers_per_group(self, rows):
        # One micro-batch holding two query kinds executes as two engine
        # calls (two recorded groups), so a fast group is never blocked on
        # a slow one sharing the batch.
        policy = BatchingPolicy(max_batch_size=64, max_wait_s=0.5)
        with InferenceServer(models=[BENCHMARK], policy=policy) as server:
            futures = [
                server.submit(BENCHMARK, rows[0], kind=KIND_LIKELIHOOD),
                server.submit(BENCHMARK, rows[1], kind=KIND_MPE),
            ]
            for future in futures:
                future.result(timeout=30)
            assert server.metrics.snapshot()["batches"] == 2

    def test_client_without_model_requires_one(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            client = InferenceClient(server)
            with pytest.raises(ValueError, match="no model"):
                client.query({0: 1})
            assert isinstance(client.query({0: 1}, model=BENCHMARK), float)

    def test_async_client_concurrent_queries(self, spn, rows):
        async def run():
            # A generous wait window so the 16 concurrent submits co-batch
            # even on a slow, loaded CI runner.
            server = InferenceServer(
                models=[BENCHMARK],
                policy=BatchingPolicy(max_batch_size=16, max_wait_s=0.25),
            ).start()
            client = AsyncInferenceClient(server, model=BENCHMARK)
            values = await asyncio.gather(
                *[client.likelihood(rows[i]) for i in range(16)]
            )
            server.stop()
            return np.array(values), server.metrics.snapshot()

        values, snap = asyncio.run(run())
        assert np.array_equal(values, evaluate_batch(spn, rows[:16], engine="vectorized"))
        # Concurrent awaits actually co-batched (fewer batches than requests).
        assert snap["batches"] < snap["requests"]

    def test_router_routes_by_suite_name(self):
        router = ModelRouter.for_suite(["Banknote", "EEG-eye"])
        try:
            assert router.models() == ["Banknote", "EEG-eye"]
            assert len(router.servers()) == 1
            value = router.query("EEG-eye", {0: 1}, kind=KIND_LIKELIHOOD)
            spn = build_benchmark("EEG-eye")
            row = np.full((1, 14), MARGINALIZED, dtype=np.int64)
            row[0, 0] = 1
            assert value == evaluate_batch(spn, row, engine="vectorized")[0]
        finally:
            router.stop()

    def test_router_default_and_unknown(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            router = ModelRouter(routes={BENCHMARK: server})
            assert router.route(BENCHMARK) is server
            with pytest.raises(UnknownModelError, match="no route"):
                router.route("Netflix")
            fallback = ModelRouter(default=server)
            assert fallback.route("anything") is server

    def test_router_shards_models_across_servers(self, spn):
        a = InferenceServer(models=["Banknote"]).start()
        b = InferenceServer(models=["EEG-eye"]).start()
        router = ModelRouter(routes={"Banknote": a, "EEG-eye": b})
        try:
            assert router.route("Banknote") is a
            assert router.route("EEG-eye") is b
            assert len(router.servers()) == 2
            assert isinstance(router.query("Banknote", {0: 1}), float)
        finally:
            router.stop()


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_quantiles_and_counters(self):
        metrics = ServingMetrics()
        for latency in (0.010, 0.020, 0.030, 0.040):
            metrics.record_request(latency)
        metrics.record_batch(n_rows=3, capacity=4)
        metrics.record_batch(n_rows=1, capacity=4)
        snap = metrics.snapshot()
        assert snap["requests"] == 4
        assert snap["batches"] == 2
        assert snap["mean_batch_size"] == 2.0
        assert snap["mean_batch_occupancy"] == 0.5
        assert snap["latency_p50_ms"] == pytest.approx(25.0)
        assert metrics.latency_quantile(0.0) == pytest.approx(0.010)

    def test_empty_metrics_are_none_and_zero(self):
        metrics = ServingMetrics()
        snap = metrics.snapshot()
        assert snap["requests"] == 0
        assert snap["throughput_rps"] == 0.0
        # Empty-window quantiles are None (JSON-safe), never NaN; the
        # numeric accessor keeps the NaN convention for float arithmetic.
        assert snap["latency_p50_ms"] is None
        assert snap["latency_p99_ms"] is None
        assert np.isnan(metrics.latency_quantile(0.5))

    def test_snapshot_round_trips_through_json(self, rows):
        # Regression: an empty snapshot used to hold NaN quantiles, which
        # json.dumps emits as the invalid-JSON token `NaN`.
        empty = ServingMetrics().snapshot()
        assert json.loads(json.dumps(empty)) == empty
        with InferenceServer(models=[BENCHMARK]) as server:
            server.query(BENCHMARK, rows[:4], kind=KIND_LIKELIHOOD)
            snap = server.metrics.snapshot()
        restored = json.loads(json.dumps(snap))
        assert restored["requests"] == 1
        assert restored["latency_p50_ms"] > 0.0

    def test_failed_execution_not_counted_as_throughput(self, rows, monkeypatch):
        with InferenceServer(models=[BENCHMARK]) as server:
            monkeypatch.setattr(
                server,
                "_execute",
                lambda *a, **k: (_ for _ in ()).throw(RuntimeError("engine down")),
            )
            future = server.submit(BENCHMARK, rows[0], kind=KIND_LIKELIHOOD)
            with pytest.raises(RuntimeError, match="engine down"):
                future.result(timeout=30)
            snap = server.metrics.snapshot()
        assert snap["rows"] == 0  # failed rows never inflate throughput
        assert snap["requests"] == 0

    def test_server_records_traffic(self, rows):
        with InferenceServer(models=[BENCHMARK]) as server:
            server.query(BENCHMARK, rows[:8], kind=KIND_LIKELIHOOD)
            snap = server.metrics.snapshot()
        assert snap["rows"] == 8
        assert snap["requests"] == 1
        assert snap["batches"] >= 1


# --------------------------------------------------------------------------- #
# Stats endpoint (the serving API's control plane)
# --------------------------------------------------------------------------- #
class TestStatsEndpoint:
    def test_client_server_stats_against_live_server(self, rows):
        with InferenceServer(models=[BENCHMARK]) as server:
            client = InferenceClient(server, model=BENCHMARK)
            client.likelihood(rows[0])
            stats = client.server_stats()
            assert stats["models"] == {BENCHMARK: "0"}
            assert stats["running"] is True
            assert stats["queue_depth"] == 0
            assert stats["metrics"]["requests"] >= 1
            assert stats["metrics"]["latency_p50_ms"] > 0.0
            registry = stats["registry"]
            assert registry["serving_requests_total"] >= 1.0
            assert registry["serving_queue_wait_seconds"]["count"] >= 1
            # The whole payload is JSON-clean (the wire contract).
            assert json.loads(json.dumps(stats)) == stats

    def test_async_client_server_stats(self, rows):
        async def scenario():
            with InferenceServer(models=[BENCHMARK]) as server:
                client = AsyncInferenceClient(server, model=BENCHMARK)
                await client.log_likelihood(rows[0])
                return await client.server_stats()

        stats = asyncio.run(scenario())
        assert stats["metrics"]["requests"] >= 1
        assert stats["models"] == {BENCHMARK: "0"}

    def test_unknown_control_op_is_rejected(self):
        with InferenceServer(models=[BENCHMARK]) as server:
            with pytest.raises(ValueError, match="unknown control op"):
                server.control("reboot")
