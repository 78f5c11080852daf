"""Tests for the LearnSPN-style structure learner and the synthetic datasets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import InferenceSession, LogLikelihood
from repro.spn.datasets import DatasetSpec, empirical_loglik, generate_dataset, train_test_split
from repro.spn.evaluate import MARGINALIZED, evaluate_batch, partition_function
from repro.spn.learn import LearnConfig, learn_spn, pairwise_mutual_information

from oracle import BruteForceOracle
from strategies import learn_configs


def log_likelihood(spn, data) -> float:
    """Average normalized log-likelihood of the rows of ``data``."""
    session = InferenceSession(spn)
    return float(session.run(LogLikelihood(data)).mean() - session.log_partition())


class TestDatasets:
    def test_shape_and_values(self):
        data = generate_dataset(DatasetSpec(n_vars=12, n_rows=200, seed=1))
        assert data.shape == (200, 12)
        assert set(np.unique(data)) <= {0, 1}

    def test_deterministic(self):
        spec = DatasetSpec(n_vars=6, n_rows=50, seed=9)
        assert np.array_equal(generate_dataset(spec), generate_dataset(spec))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            DatasetSpec(n_vars=0, n_rows=10)
        with pytest.raises(ValueError):
            DatasetSpec(n_vars=5, n_rows=10, noise=0.9)

    def test_noise_half_gives_independent_columns(self):
        data = generate_dataset(DatasetSpec(n_vars=4, n_rows=4000, n_clusters=2, noise=0.5, seed=2))
        mi = pairwise_mutual_information(data)
        assert mi.max() < 0.01

    def test_low_noise_gives_correlated_clusters(self):
        data = generate_dataset(DatasetSpec(n_vars=4, n_rows=4000, n_clusters=2, noise=0.05, seed=2))
        mi = pairwise_mutual_information(data)
        # Variables 0 and 2 share a cluster (round-robin assignment).
        assert mi[0, 2] > 0.2

    def test_train_test_split(self):
        data = generate_dataset(DatasetSpec(n_vars=5, n_rows=100, seed=3))
        train, test = train_test_split(data, test_fraction=0.25, seed=0)
        assert train.shape[0] + test.shape[0] == 100
        assert test.shape[0] == 25

    def test_train_test_split_validation(self):
        data = np.zeros((10, 3), dtype=int)
        with pytest.raises(ValueError):
            train_test_split(data, test_fraction=0.0)

    def test_empirical_loglik(self):
        assert empirical_loglik([-1.0, -3.0]) == pytest.approx(-2.0)
        with pytest.raises(ValueError):
            empirical_loglik([])


class TestMutualInformation:
    def test_symmetric_nonnegative(self):
        data = generate_dataset(DatasetSpec(n_vars=5, n_rows=300, seed=4))
        mi = pairwise_mutual_information(data)
        assert np.allclose(mi, mi.T)
        assert (mi >= 0).all()
        assert np.allclose(np.diag(mi), 0.0)

    def test_perfect_correlation_high_mi(self):
        column = np.random.default_rng(0).integers(0, 2, size=500)
        data = np.stack([column, column], axis=1)
        mi = pairwise_mutual_information(data)
        assert mi[0, 1] > 0.5


class TestLearnSpn:
    @pytest.fixture()
    def data(self):
        return generate_dataset(DatasetSpec(n_vars=8, n_rows=400, n_clusters=2, noise=0.1, seed=5))

    def test_learned_structure_is_valid_and_normalized(self, data):
        spn = learn_spn(data)
        spn.check_valid()
        assert partition_function(spn) == pytest.approx(1.0)

    def test_covers_all_variables(self, data):
        spn = learn_spn(data)
        assert spn.variables() == list(range(data.shape[1]))

    def test_better_than_independent_model(self, data):
        dependent = learn_spn(data, LearnConfig(seed=0))
        independent = learn_spn(data, LearnConfig(independence_threshold=1e9, seed=0))
        assert log_likelihood(dependent, data) > log_likelihood(independent, data)

    def test_rejects_non_binary_data(self):
        with pytest.raises(ValueError):
            learn_spn(np.array([[0, 2], [1, 0]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            learn_spn(np.array([0, 1, 1]))

    def test_small_dataset_factorizes(self):
        data = np.array([[0, 1], [1, 0], [1, 1]])
        spn = learn_spn(data, LearnConfig(min_instances=10))
        spn.check_valid()
        assert partition_function(spn) == pytest.approx(1.0)

    def test_deterministic_given_seed(self, data):
        a = learn_spn(data, LearnConfig(seed=7))
        b = learn_spn(data, LearnConfig(seed=7))
        assert len(a) == len(b)
        assert log_likelihood(a, data[:50]) == pytest.approx(log_likelihood(b, data[:50]))


class TestLearnedOracleAgreement:
    """Differential property: learned SPNs on the vectorized engine agree
    with the brute-force enumeration oracle on training-domain queries.

    The oracle (``tests/oracle.py``) tabulates the full joint by per-node
    reference walks — no tape, no batching — so agreement here covers the
    whole learn → compile → execute chain with an independent reference.
    Queries span the training domain: raw training rows (fully observed),
    partially marginalized variants, and the all-marginalized row (the
    partition function).
    """

    @settings(max_examples=10, deadline=None)
    @given(config=learn_configs, data_seed=st.integers(min_value=0, max_value=1000))
    def test_vectorized_matches_oracle(self, config, data_seed):
        spec = DatasetSpec(n_vars=4, n_rows=160, seed=data_seed)
        data = generate_dataset(spec)
        spn = learn_spn(data, config)
        oracle = BruteForceOracle(spn)
        rng = np.random.default_rng(data_seed)
        rows = data[:6].astype(np.int64)
        masked = rows.copy()
        masked[rng.random(masked.shape) < 0.4] = MARGINALIZED
        evidence = np.vstack(
            [rows, masked, np.full((1, spec.n_vars), MARGINALIZED, dtype=np.int64)]
        )
        got = evaluate_batch(spn, evidence, engine="vectorized")
        want = np.array([oracle.prob(row) for row in evidence])
        np.testing.assert_allclose(got, want, rtol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(config=learn_configs)
    def test_config_round_trips_through_dict(self, config):
        assert LearnConfig.from_dict(config.as_dict()) == config
