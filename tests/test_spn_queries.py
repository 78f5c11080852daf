"""Tests for marginal, conditional, likelihood and MPE queries on single rows.

Each answer is a one-row batch through :class:`repro.api.InferenceSession`;
the MPE tie test also drives the per-row engine
:func:`repro.spn.queries.mpe_row` directly.
"""

import math

import numpy as np
import pytest

from repro.api import MPE, Conditional, InferenceSession, LogLikelihood, Marginal
from repro.spn.datasets import DatasetSpec, generate_dataset
from repro.spn.evaluate import evaluate
from repro.spn.learn import learn_spn
from repro.spn.queries import mpe_row


def marginal(spn, evidence=None, log=False):
    return InferenceSession(spn).run(Marginal(dict(evidence or {}), log=log))[0]


def conditional(spn, query, evidence):
    return InferenceSession(spn).run(
        Conditional(evidence=dict(evidence), query=dict(query))
    )[0]


def mpe(spn, evidence=None):
    return InferenceSession(spn).run(MPE(dict(evidence or {})))[0]


class TestMarginals:
    def test_marginal_equals_evaluate(self, mixture_spn):
        assert marginal(mixture_spn, {0: 1}) == pytest.approx(evaluate(mixture_spn, {0: 1}))

    def test_log_marginal(self, mixture_spn):
        assert marginal(mixture_spn, {0: 1}, log=True) == pytest.approx(
            math.log(marginal(mixture_spn, {0: 1}))
        )

    def test_empty_evidence_is_partition_function(self, mixture_spn):
        assert marginal(mixture_spn) == pytest.approx(1.0)


class TestConditionals:
    def test_bayes_consistency(self, mixture_spn):
        # P(X0=1 | X1=1) = P(X0=1, X1=1) / P(X1=1)
        expected = marginal(mixture_spn, {0: 1, 1: 1}) / marginal(mixture_spn, {1: 1})
        assert conditional(mixture_spn, {0: 1}, {1: 1}) == pytest.approx(expected)

    def test_conditional_distribution_sums_to_one(self, mixture_spn):
        total = sum(conditional(mixture_spn, {0: v}, {1: 0}) for v in (0, 1))
        assert total == pytest.approx(1.0)

    def test_conflicting_query_rejected(self, mixture_spn):
        with pytest.raises(ValueError):
            conditional(mixture_spn, {0: 1}, {0: 0})

    def test_deep_network_underflow_no_spurious_zero_division(self):
        # Regression: a deep product chain drives the evidence probability
        # below the smallest positive float64 — a linear-domain conditional
        # reads 0/0 here.  The conditional itself is perfectly well-defined
        # (the chain factor cancels), and the log-domain plan computes it
        # exactly.
        from repro.spn.graph import SPN

        spn = SPN()
        x0 = SPN.bernoulli_leaf(spn, 0, 0.25)
        x1 = SPN.bernoulli_leaf(spn, 1, 0.5)
        deep = [spn.add_parameter(1e-2) for _ in range(400)]  # P ~ 1e-800
        spn.set_root(spn.add_product([x0, x1] + deep))
        assert evaluate(spn, {1: 1}) == 0.0  # the linear domain underflows
        assert conditional(spn, {0: 1}, {1: 1}) == pytest.approx(0.25)

    def test_deep_network_conditional_distribution_still_normalizes(self):
        from repro.spn.generate import RatSpnConfig, generate_rat_spn

        # 1000 variables, all observed but one: the evidence probability
        # underflows linearly, the conditional still sums to one.
        spn = generate_rat_spn(
            RatSpnConfig(n_vars=1000, depth=1000, repetitions=2, n_sums=2, seed=29)
        )
        rng = np.random.default_rng(5)
        evidence = {v: int(rng.integers(0, 2)) for v in spn.variables() if v != 0}
        assert evaluate(spn, evidence) == 0.0  # underflow, not zero probability
        total = sum(conditional(spn, {0: v}, evidence) for v in (0, 1))
        assert total == pytest.approx(1.0)


class TestLogLikelihood:
    def test_average_of_rows(self, mixture_spn):
        data = np.array([[0, 0], [1, 1]])
        expected = 0.5 * (
            math.log(evaluate(mixture_spn, {0: 0, 1: 0}))
            + math.log(evaluate(mixture_spn, {0: 1, 1: 1}))
        )
        values = InferenceSession(mixture_spn).run(LogLikelihood(data))
        assert values.mean() == pytest.approx(expected)

    def test_zero_column_batch_with_rows_still_scores(self, mixture_spn):
        # A (n, 0) batch has rows, all fully marginalized: each scores log Z.
        session = InferenceSession(mixture_spn)
        values = session.run(LogLikelihood(np.zeros((3, 0), dtype=int)))
        assert values.shape == (3,)
        assert values - session.log_partition() == pytest.approx(0.0)


class TestMpe:
    def test_tiny_spn_mode(self, tiny_spn):
        # Marginals are independent: mode is X0=0 (p=0.7), X1=1 (p=0.8).
        assert mpe(tiny_spn) == {0: 0, 1: 1}

    def test_respects_evidence(self, tiny_spn):
        assignment = mpe(tiny_spn, {0: 1})
        assert assignment[0] == 1
        assert assignment[1] == 1

    def test_assignment_has_positive_probability(self, small_random_spn):
        assignment = mpe(small_random_spn)
        assert evaluate(small_random_spn, assignment) > 0.0

    def test_covers_all_variables(self, small_rat_spn):
        assignment = mpe(small_rat_spn)
        assert sorted(assignment) == small_rat_spn.variables()

    def test_mpe_at_least_as_likely_as_random(self, small_rat_spn, rng):
        assignment = mpe(small_rat_spn)
        mpe_value = evaluate(small_rat_spn, assignment)
        for _ in range(10):
            random_assignment = {
                v: int(rng.integers(0, 2)) for v in small_rat_spn.variables()
            }
            assert mpe_value >= evaluate(small_rat_spn, random_assignment) - 1e-12

    def test_exact_mpe_beats_exhaustive_search_ties(self, small_rat_spn):
        # Small state space -> the exact path must return the global optimum.
        assignment = mpe(small_rat_spn)
        mpe_value = evaluate(small_rat_spn, assignment)
        import itertools

        for combo in itertools.product((0, 1), repeat=len(small_rat_spn.variables())):
            candidate = dict(zip(small_rat_spn.variables(), combo))
            assert mpe_value >= evaluate(small_rat_spn, candidate) - 1e-12

    def test_exact_mpe_survives_linear_domain_underflow(self):
        # Both branches underflow to 0.0 in the linear domain; the exact
        # enumeration must still rank them (it works in the log domain).
        from repro.spn.graph import SPN

        spn = SPN()
        worse = spn.add_product(
            [spn.add_indicator(0, 0)] + [spn.add_parameter(1e-2) for _ in range(500)]
        )
        better = spn.add_product(
            [spn.add_indicator(0, 1)] + [spn.add_parameter(2e-2) for _ in range(500)]
        )
        spn.set_root(spn.add_sum([worse, better], [0.5, 0.5]))
        assert mpe(spn) == {0: 1}

    def test_refinement_keeps_traced_value_of_ignored_variable(self):
        # Thirteen binary variables exceed the exact-enumeration budget, so
        # the max-product trace is refined.  Variable 12 is a fair coin the
        # distribution ignores: flipping it ties the incumbent exactly, and
        # a tie is not an improvement.  Scoring the incumbent with a
        # different engine (the python walk) than the flips once read some
        # of these ties as gains and flipped the traced 0 to 1.
        from repro.spn.graph import SPN

        for seed in range(20):
            probs = np.random.default_rng(seed).uniform(0.05, 0.95, 12)
            spn = SPN()
            leaves = [SPN.bernoulli_leaf(spn, var, p) for var, p in enumerate(probs)]
            leaves.append(SPN.bernoulli_leaf(spn, 12, 0.5))
            spn.set_root(spn.add_product(leaves))
            traced = mpe_row(spn, refine=False)
            assert traced[12] == 0  # max-product keeps the first tied child
            assert mpe_row(spn) == traced

    def test_learned_model_mpe_matches_cluster_structure(self):
        data = generate_dataset(DatasetSpec(n_vars=6, n_rows=500, n_clusters=1, noise=0.05, seed=8))
        spn = learn_spn(data)
        assignment = mpe(spn)
        # With one latent cause and low noise the mode is all-zeros or all-ones.
        values = set(assignment.values())
        assert len(values) == 1
