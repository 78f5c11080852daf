"""The analysis-query surface vs. the brute-force enumeration oracle.

Every new analysis kind — ``Sample``, ``Expectation``, ``Entropy``,
``MutualInformation``, ``Classify`` — is property-tested against
:class:`tests.oracle.BruteForceOracle`, an exact joint-table reference
that shares no code with the batched engines (no tape, no log domain, no
replacement sweeps).  Tolerance policy (documented in ``tests/oracle.py``):
the engines compute ``exp(log-ratio)`` of two tape passes, so linear-domain
sums agree to ``rtol=1e-9``; entropies and mutual information additionally
get ``atol=1e-9`` (legitimately tiny values), and *normalized* mutual
information — a ratio of two tiny sums — gets ``atol=1e-6``.

Alongside the oracle properties: the seeded-determinism contract of
``Sample`` (identical draws across repeat runs, single-row resubmission
and serving micro-batch composition), plan-shape guarantees (fixed
pass counts verified against the session's evaluation hook), serialization
round-trips, serving bit-identity, construction-time validation, and the
zero-probability ``nan`` convention.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    Classify,
    Entropy,
    Expectation,
    InferenceSession,
    MutualInformation,
    Sample,
    deserialize_query,
    serialize_query,
)
from repro.serving import BatchingPolicy, InferenceClient, InferenceServer
from repro.spn.evaluate import MARGINALIZED
from repro.spn.generate import generate_rat_spn, random_evidence
from repro.spn.graph import SPN
from repro.suite.registry import build_benchmark
from oracle import BruteForceOracle
from strategies import small_rat_configs

_SETTINGS = settings(max_examples=25, deadline=None)

BENCHMARK = "Banknote"
N_VARS = 4


def _rows(config, seed, n_rows=4, observed=0.5):
    return random_evidence(
        config.n_vars, observed_fraction=observed, seed=seed, n_samples=n_rows
    )


def _variables(oracle, seed, at_most=3):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, min(at_most, len(oracle.variables)) + 1))
    return tuple(
        int(v)
        for v in rng.choice(oracle.variables, size=size, replace=False)
    )


# --------------------------------------------------------------------------- #
# Oracle agreement: every analysis kind, both engines
# --------------------------------------------------------------------------- #
class TestOracleAgreement:
    @_SETTINGS
    @given(
        config=small_rat_configs,
        seed=st.integers(0, 1000),
        engine=st.sampled_from(["python", "vectorized"]),
    )
    def test_expectation_matches_oracle(self, config, seed, engine):
        spn = generate_rat_spn(config)
        oracle = BruteForceOracle(spn)
        evidence = _rows(config, seed)
        variables = _variables(oracle, seed)
        rng = np.random.default_rng(seed)
        moment = int(rng.integers(1, 4))
        center = bool(rng.integers(2))
        query = Expectation(
            evidence=evidence, variables=variables, moment=moment, center=center
        )
        got = InferenceSession(spn, engine=engine).run(query)
        assert got.shape == (len(evidence), len(variables))
        expected = np.array([
            [oracle.expectation(row, v, moment=moment, center=center) for v in variables]
            for row in evidence
        ])
        # Centered moments cancel to near zero (binary domains, p close to
        # 1/2), so the engines' 1e-9-relative probabilities turn into a
        # 1e-9 *absolute* floor on the moment itself.
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)

    @_SETTINGS
    @given(
        config=small_rat_configs,
        seed=st.integers(0, 1000),
        engine=st.sampled_from(["python", "vectorized"]),
    )
    def test_entropy_matches_oracle(self, config, seed, engine):
        spn = generate_rat_spn(config)
        oracle = BruteForceOracle(spn)
        evidence = _rows(config, seed)
        variables = _variables(oracle, seed)
        got = InferenceSession(spn, engine=engine).run(
            Entropy(evidence=evidence, variables=variables)
        )
        expected = np.array([
            [oracle.entropy(row, v) for v in variables] for row in evidence
        ])
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)
        # Observed variables carry zero residual uncertainty.
        for i, row in enumerate(evidence):
            for j, v in enumerate(variables):
                if row[v] >= 0:
                    assert got[i, j] == pytest.approx(0.0, abs=1e-12)

    @_SETTINGS
    @given(
        config=small_rat_configs,
        seed=st.integers(0, 1000),
        engine=st.sampled_from(["python", "vectorized"]),
        normalize=st.booleans(),
    )
    def test_mutual_information_matches_oracle(self, config, seed, engine, normalize):
        spn = generate_rat_spn(config)
        oracle = BruteForceOracle(spn)
        evidence = _rows(config, seed)
        variables = _variables(oracle, seed)
        got = InferenceSession(spn, engine=engine).run(
            MutualInformation(
                evidence=evidence, variables=variables, normalize=normalize
            )
        )
        k = len(variables)
        assert got.shape == (len(evidence), k, k)
        expected = np.stack([
            oracle.mutual_information_matrix(row, variables, normalize=normalize)
            for row in evidence
        ])
        # Normalized MI is a ratio of two near-zero sums; plain MI and the
        # diagonal entropies agree at the standard tolerance.
        atol = 1e-6 if normalize else 1e-9
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=atol)
        # The matrix is symmetric by construction (nan rows included).
        np.testing.assert_array_equal(got, np.swapaxes(got, 1, 2))

    @_SETTINGS
    @given(
        config=small_rat_configs,
        seed=st.integers(0, 1000),
        engine=st.sampled_from(["python", "vectorized"]),
        log=st.booleans(),
    )
    def test_classify_matches_oracle(self, config, seed, engine, log):
        spn = generate_rat_spn(config)
        oracle = BruteForceOracle(spn)
        evidence = _rows(config, seed)
        target = oracle.variables[seed % len(oracle.variables)]
        evidence[:, target] = MARGINALIZED
        got = InferenceSession(spn, engine=engine).run(
            Classify(evidence=evidence, target=target, log=log)
        )
        assert got.shape == (len(evidence), len(oracle.domains[target]))
        expected = np.array([oracle.classify(row, target) for row in evidence])
        linear = np.exp(got) if log else got  # exp(-inf) == 0 exactly
        np.testing.assert_allclose(linear, expected, rtol=1e-9, atol=1e-12)
        # Posteriors are distributions over the target's states.
        np.testing.assert_allclose(linear.sum(axis=1), 1.0, rtol=1e-9)

    @_SETTINGS
    @given(
        config=small_rat_configs,
        seed=st.integers(0, 1000),
        engine=st.sampled_from(["python", "vectorized"]),
    )
    def test_samples_fall_in_the_oracle_support(self, config, seed, engine):
        spn = generate_rat_spn(config)
        oracle = BruteForceOracle(spn)
        evidence = _rows(config, seed, n_rows=3, observed=0.5)
        query = Sample(evidence=evidence, n_samples=3, seed=seed)
        got = InferenceSession(spn, engine=engine).run(query)
        assert got.shape == (3, 3, config.n_vars)
        assert got.dtype == np.int64
        for i, row in enumerate(evidence):
            support = oracle.support(row)
            for s in range(3):
                drawn = tuple(int(got[i, s, v]) for v in oracle.variables)
                assert drawn in support
                # Observed evidence is echoed verbatim, never resampled.
                for v in oracle.variables:
                    if row[v] >= 0:
                        assert got[i, s, v] == row[v]

    def test_sample_frequencies_match_the_joint(self, mixture_spn):
        # A two-component mixture (correlated variables): the empirical
        # joint over 4000 ancestral samples reproduces the exact joint.
        # Deterministic — fixed seed, fixed draw count.
        oracle = BruteForceOracle(mixture_spn)
        row = np.array([[MARGINALIZED, MARGINALIZED]])
        got = InferenceSession(mixture_spn).run(
            Sample(evidence=row, n_samples=4000, seed=7)
        )
        expected = oracle.dist(row[0], (0, 1))
        empirical = np.zeros_like(expected)
        for a, b in got[0]:
            empirical[a, b] += 1.0
        empirical /= got.shape[1]
        np.testing.assert_allclose(empirical, expected, atol=0.03)

    def test_conditional_sample_frequencies(self, mixture_spn):
        # Conditioning flips the mixture posterior: P(X1 | X0=1) is
        # dominated by the second component.  Frequencies must track the
        # *conditional*, not the marginal.
        oracle = BruteForceOracle(mixture_spn)
        row = np.array([[1, MARGINALIZED]])
        got = InferenceSession(mixture_spn).run(
            Sample(evidence=row, n_samples=4000, seed=13)
        )
        assert (got[0, :, 0] == 1).all()
        expected = oracle.dist(row[0], (1,))
        counts = np.bincount(got[0, :, 1], minlength=2) / got.shape[1]
        np.testing.assert_allclose(counts, expected, atol=0.03)


# --------------------------------------------------------------------------- #
# Seeded determinism (the Sample contract)
# --------------------------------------------------------------------------- #
class TestSampleDeterminism:
    @pytest.fixture(scope="class")
    def spn(self):
        return build_benchmark(BENCHMARK)

    @pytest.fixture(scope="class")
    def query(self):
        evidence = random_evidence(
            N_VARS, observed_fraction=0.5, seed=21, n_samples=6
        )
        return Sample(evidence=evidence, n_samples=3, seed=11)

    def test_identical_across_repeat_runs(self, spn, query):
        session = InferenceSession(spn)
        assert np.array_equal(session.run(query), session.run(query))

    def test_single_row_reproduces_its_batch_slice(self, spn, query):
        # row_ids pin the per-row streams: resubmitting any single row
        # with its original id reproduces that row's draws exactly.
        session = InferenceSession(spn)
        batch = session.run(query)
        for i in (0, 3, 5):
            solo = session.run(
                Sample(
                    evidence=query.evidence[i],
                    n_samples=query.n_samples,
                    seed=query.seed,
                    row_ids=np.array([i]),
                )
            )
            assert np.array_equal(solo[0], batch[i])

    def test_batch_composition_is_invisible(self, spn, query):
        # Splitting the batch in two (explicit row_ids) concatenates back
        # to the full-batch result bit-for-bit.
        session = InferenceSession(spn)
        batch = session.run(query)
        first = session.run(
            Sample(
                evidence=query.evidence[:2],
                n_samples=query.n_samples,
                seed=query.seed,
                row_ids=np.arange(2),
            )
        )
        rest = session.run(
            Sample(
                evidence=query.evidence[2:],
                n_samples=query.n_samples,
                seed=query.seed,
                row_ids=np.arange(2, 6),
            )
        )
        assert np.array_equal(np.concatenate([first, rest]), batch)

    def test_served_samples_bit_identical_to_offline(self, spn, query):
        # Micro-batching (3-row batches, two workers) re-scatters the rows
        # across sub-batches; row_ids travel with them, so the served
        # result is the offline result exactly.
        offline = InferenceSession(spn).run(query)
        policy = BatchingPolicy(max_batch_size=3, max_wait_s=0.001)
        with InferenceServer(
            models=[BENCHMARK], policy=policy, n_workers=2
        ) as server:
            served = server.submit(BENCHMARK, query).result(timeout=30)
        assert np.array_equal(served, offline)

    def test_distinct_seeds_decorrelate(self, spn, query):
        session = InferenceSession(spn)
        other = Sample(evidence=query.evidence, n_samples=3, seed=12)
        assert not np.array_equal(session.run(query), session.run(other))

    def test_group_key_excludes_row_ids_but_pins_the_stream(self, query):
        # Micro-batches may merge requests with different row_ids (the
        # draws are per-row), but never requests with different seeds or
        # draw counts.
        same = Sample(
            evidence=query.evidence[:2],
            n_samples=query.n_samples,
            seed=query.seed,
            row_ids=np.array([7, 9]),
        )
        assert same.group_key() == query.group_key()
        reseeded = Sample(evidence=query.evidence, n_samples=3, seed=99)
        widened = Sample(evidence=query.evidence, n_samples=4, seed=11)
        assert reseeded.group_key() != query.group_key()
        assert widened.group_key() != query.group_key()


# --------------------------------------------------------------------------- #
# Plan shapes: fixed pass counts, verified against actual evaluations
# --------------------------------------------------------------------------- #
class TestPlanShapes:
    @pytest.fixture(scope="class")
    def spn(self):
        return build_benchmark(BENCHMARK)

    def _count_evaluations(self, session, query):
        calls = []
        session.on_evaluate = lambda domain, rows: calls.append((domain, rows))
        try:
            session.run(query)
        finally:
            session.on_evaluate = None
        return calls

    def test_classify_is_two_log_passes(self, spn):
        evidence = random_evidence(N_VARS, observed_fraction=0.5, seed=2, n_samples=5)
        evidence[:, 0] = MARGINALIZED
        session = InferenceSession(spn)
        query = Classify(evidence=evidence, target=0)
        plan = session.plan(query)
        assert [(p.domain, p.operand) for p in plan.passes] == [
            ("log", "joint"), ("log", "evidence"),
        ]
        assert len(self._count_evaluations(session, query)) == 2

    def test_expectation_and_entropy_are_two_log_passes(self, spn):
        evidence = random_evidence(N_VARS, observed_fraction=0.5, seed=3, n_samples=5)
        session = InferenceSession(spn)
        for query in (
            Expectation(evidence=evidence, moment=2, center=True),
            Entropy(evidence=evidence),
        ):
            plan = session.plan(query)
            assert [(p.domain, p.operand) for p in plan.passes] == [
                ("log", "state-sweep"), ("log", "evidence"),
            ]
            assert len(self._count_evaluations(session, query)) == 2

    def test_mutual_information_is_three_log_passes(self, spn):
        evidence = random_evidence(N_VARS, observed_fraction=0.3, seed=4, n_samples=5)
        session = InferenceSession(spn)
        query = MutualInformation(evidence=evidence)
        plan = session.plan(query)
        assert [p.operand for p in plan.passes] == [
            "pair-sweep", "state-sweep", "evidence",
        ]
        assert len(self._count_evaluations(session, query)) == 3

    def test_sample_is_one_pass_per_free_variable(self, spn):
        evidence = np.full((3, N_VARS), MARGINALIZED, dtype=np.int64)
        evidence[:, 0] = 1  # observed everywhere: no pass for variable 0
        evidence[1, 2] = 0  # free in *some* row: still a chain pass
        session = InferenceSession(spn)
        query = Sample(evidence=evidence, n_samples=2, seed=0)
        plan = session.plan(query)
        assert [p.operand for p in plan.passes] == ["chain:1", "chain:2", "chain:3"]
        assert len(self._count_evaluations(session, query)) == 3

    def test_fully_observed_sample_needs_no_passes(self, spn):
        evidence = random_evidence(N_VARS, observed_fraction=1.0, seed=5, n_samples=4)
        session = InferenceSession(spn)
        query = Sample(evidence=evidence, n_samples=2, seed=0)
        assert session.plan(query).passes == ()
        assert self._count_evaluations(session, query) == []
        got = session.run(query)
        for s in range(2):
            assert np.array_equal(got[:, s, :], evidence)


# --------------------------------------------------------------------------- #
# Serialization and serving: payload round-trips, bit-identity to offline
# --------------------------------------------------------------------------- #
class TestServingAndSerialization:
    @pytest.fixture(scope="class")
    def spn(self):
        return build_benchmark(BENCHMARK)

    def queries(self):
        evidence = random_evidence(N_VARS, observed_fraction=0.5, seed=31, n_samples=7)
        free = np.array(evidence, copy=True)
        free[:, 1] = MARGINALIZED
        return [
            Sample(evidence=evidence, n_samples=2, seed=5),
            Expectation(evidence=evidence, variables=(0, 2), moment=2, center=True),
            Entropy(evidence=evidence),
            MutualInformation(evidence=evidence, variables=(0, 1, 3), normalize=True),
            Classify(evidence=free, target=1, log=True),
        ]

    def test_payload_round_trip_is_exact(self, spn):
        session = InferenceSession(spn)
        for query in self.queries():
            restored = deserialize_query(
                json.loads(json.dumps(serialize_query(query)))
            )
            assert restored.kind == query.kind
            assert restored.params() == query.params()
            assert np.array_equal(restored.evidence, query.evidence)
            assert np.array_equal(session.run(restored), session.run(query))

    def test_served_analysis_queries_bit_identical_to_offline(self, spn):
        session = InferenceSession(spn)
        policy = BatchingPolicy(max_batch_size=3, max_wait_s=0.001)
        with InferenceServer(
            models=[BENCHMARK], policy=policy, n_workers=2
        ) as server:
            for query in self.queries():
                offline = session.run(query)
                served = server.submit(BENCHMARK, query).result(timeout=30)
                via_payload = server.submit(
                    BENCHMARK, json.loads(json.dumps(serialize_query(query)))
                ).result(timeout=30)
                assert np.array_equal(served, offline), query.kind
                assert np.array_equal(via_payload, offline), query.kind

    def test_client_verbs_serve_the_analysis_kinds(self, spn):
        session = InferenceSession(spn)
        with InferenceServer(models=[BENCHMARK]) as server:
            client = InferenceClient(server, model=BENCHMARK)
            probs = client.classify({0: 1}, target=1)
            entropy = client.entropy({0: 1}, variables=(1,))
            mi = client.mutual_information()
            moments = client.expectation({0: 1}, variables=(1, 2))
            drawn = client.sample({0: 1}, n_samples=3, seed=2)
        free = np.full((1, N_VARS), MARGINALIZED, dtype=np.int64)
        free[0, 0] = 1
        assert np.array_equal(
            probs, session.run(Classify(evidence=free, target=1))[0]
        )
        assert entropy == session.run(Entropy(evidence=free, variables=(1,)))[0, 0]
        assert np.array_equal(mi, session.run(MutualInformation())[0])
        assert np.array_equal(
            moments, session.run(Expectation(evidence=free, variables=(1, 2)))[0]
        )
        assert np.array_equal(
            drawn, session.run(Sample(evidence=free, n_samples=3, seed=2))[0]
        )

    def test_zero_row_batches_resolve_empty(self, spn):
        session = InferenceSession(spn)
        empty = np.zeros((0, N_VARS), dtype=np.int64)
        assert session.run(Sample(evidence=empty, n_samples=2)).shape[0] == 0
        assert session.run(Entropy(evidence=empty)).shape == (0, N_VARS)
        assert session.run(Classify(evidence=empty, target=0)).shape == (0, 2)
        assert session.run(MutualInformation(evidence=empty)).shape == (
            0, N_VARS, N_VARS,
        )


# --------------------------------------------------------------------------- #
# Construction-time validation
# --------------------------------------------------------------------------- #
class TestValidation:
    def test_classify_requires_a_target(self):
        with pytest.raises(ValueError, match="requires a target"):
            Classify(evidence={0: 1})
        with pytest.raises(ValueError, match="non-negative"):
            Classify(evidence={0: 1}, target=-2)

    def test_classify_rejects_observed_target(self):
        with pytest.raises(ValueError, match="observed in evidence row"):
            Classify(evidence={0: 1, 1: 0}, target=1)

    def test_classify_unknown_target_fails_at_run(self, tiny_spn):
        query = Classify(evidence=np.full((1, 9), MARGINALIZED), target=7)
        with pytest.raises(ValueError, match="not a model variable"):
            InferenceSession(tiny_spn).run(query)

    def test_unknown_analysis_variable_fails_at_run(self, tiny_spn):
        session = InferenceSession(tiny_spn)
        for query in (
            Entropy(evidence={}, variables=(7,)),
            Expectation(evidence={}, variables=(7,)),
            MutualInformation(variables=(0, 7)),
        ):
            with pytest.raises(ValueError, match="not a model variable"):
                session.run(query)

    def test_variables_reject_duplicates_and_negatives(self):
        with pytest.raises(ValueError, match="duplicates"):
            Entropy(evidence={}, variables=(1, 1))
        with pytest.raises(ValueError, match="non-negative"):
            Expectation(evidence={}, variables=(-1,))

    def test_sample_parameter_validation(self):
        with pytest.raises(ValueError, match="n_samples"):
            Sample(evidence={}, n_samples=0)
        with pytest.raises(ValueError, match="seed"):
            Sample(evidence={}, seed=-1)
        with pytest.raises(ValueError, match="row_ids"):
            Sample(evidence=np.full((2, 2), MARGINALIZED), row_ids=np.array([0]))
        with pytest.raises(ValueError, match="row_ids"):
            Sample(evidence={}, row_ids=np.array([-3]))

    def test_expectation_moment_validation(self):
        with pytest.raises(ValueError, match="moment"):
            Expectation(evidence={}, moment=0)

    def test_mutual_information_defaults_to_one_marginal_row(self, tiny_spn):
        # MutualInformation() — no evidence at all — analyses the model's
        # prior: one fully-marginalized row over every variable.
        query = MutualInformation()
        assert query.n_rows == 1
        got = InferenceSession(tiny_spn).run(query)
        assert got.shape == (1, 2, 2)
        # tiny_spn's variables are independent: off-diagonal MI vanishes;
        # the diagonal carries the marginal entropies.
        assert got[0, 0, 1] == pytest.approx(0.0, abs=1e-9)
        for i, p in enumerate((0.3, 0.8)):
            h = -(p * math.log(p) + (1 - p) * math.log(1 - p))
            assert got[0, i, i] == pytest.approx(h, rel=1e-9)


# --------------------------------------------------------------------------- #
# Zero-probability evidence: nan results, Sample refuses
# --------------------------------------------------------------------------- #
class TestZeroProbabilityEvidence:
    @pytest.fixture()
    def contradiction(self):
        # P(X0=0) = 1: conditioning on X0=1 is a zero-probability event.
        spn = SPN()
        x0 = spn.add_indicator(0, 0)
        x1_0 = spn.add_indicator(1, 0)
        x1_1 = spn.add_indicator(1, 1)
        spn.set_root(
            spn.add_product([x0, spn.add_sum([x1_0, x1_1], weights=[0.5, 0.5])])
        )
        return spn

    @pytest.fixture()
    def impossible(self):
        return np.array([[1, MARGINALIZED]])

    def test_functionals_are_nan(self, contradiction, impossible):
        session = InferenceSession(contradiction)
        assert np.isnan(
            session.run(Expectation(evidence=impossible, variables=(1,)))
        ).all()
        assert np.isnan(
            session.run(Entropy(evidence=impossible, variables=(1,)))
        ).all()
        assert np.isnan(
            session.run(MutualInformation(evidence=impossible, variables=(0, 1)))
        ).all()
        assert np.isnan(
            session.run(Classify(evidence=impossible, target=1))
        ).all()

    def test_nan_rows_do_not_poison_the_batch(self, contradiction):
        batch = np.array([[0, MARGINALIZED], [1, MARGINALIZED]])
        session = InferenceSession(contradiction)
        got = session.run(Entropy(evidence=batch, variables=(1,)))
        assert got[0, 0] == pytest.approx(math.log(2), rel=1e-9)
        assert np.isnan(got[1, 0])

    def test_sample_refuses_impossible_evidence(self, contradiction, impossible):
        session = InferenceSession(contradiction)
        with pytest.raises(ValueError, match="probability zero"):
            session.run(Sample(evidence=impossible, n_samples=2))

    def test_oracle_agrees_on_the_convention(self, contradiction, impossible):
        oracle = BruteForceOracle(contradiction)
        assert oracle.prob(impossible[0]) == 0.0
        assert np.isnan(oracle.dist(impossible[0], (1,))).all()
        assert oracle.support(impossible[0]) == set()
