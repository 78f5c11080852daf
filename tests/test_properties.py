"""Property-based tests (hypothesis) on the core data structures and invariants."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import geometric_mean, normalize, speedup
from repro.api import (
    MPE,
    Conditional,
    InferenceSession,
    Likelihood,
    LogLikelihood,
    Marginal,
    deserialize_query,
    serialize_query,
)
from repro.baselines.gpu import GpuConfig, execute_gpu_kernel
from repro.spn import io
from repro.spn.evaluate import evaluate, evaluate_batch, evaluate_log, partition_function
from repro.spn.generate import generate_rat_spn, random_evidence
from repro.spn.linearize import linearize
from repro.spn.queries import mpe_row
from strategies import full_evidence as _full_evidence
from strategies import partial_evidence as _partial_evidence
from strategies import rat_configs

# Keep hypothesis fast and deterministic for CI-style runs.
_SETTINGS = settings(max_examples=25, deadline=None)


# --------------------------------------------------------------------------- #
# SPN semantics
# --------------------------------------------------------------------------- #
class TestSpnProperties:
    @_SETTINGS
    @given(config=rat_configs)
    def test_generated_networks_are_valid_and_normalized(self, config):
        spn = generate_rat_spn(config)
        spn.check_valid()
        assert partition_function(spn) == pytest.approx(1.0)

    @_SETTINGS
    @given(config=rat_configs, seed=st.integers(0, 1000))
    def test_probabilities_are_in_unit_interval(self, config, seed):
        spn = generate_rat_spn(config)
        value = evaluate(spn, _full_evidence(spn, seed))
        assert 0.0 <= value <= 1.0 + 1e-12

    @_SETTINGS
    @given(config=rat_configs, seed=st.integers(0, 1000))
    def test_log_and_linear_evaluation_agree(self, config, seed):
        spn = generate_rat_spn(config)
        evidence = _full_evidence(spn, seed)
        value = evaluate(spn, evidence)
        log_value = evaluate_log(spn, evidence)
        if value > 0:
            assert log_value == pytest.approx(math.log(value))
        else:
            assert log_value == -math.inf

    @_SETTINGS
    @given(config=rat_configs, seed=st.integers(0, 1000))
    def test_marginalizing_one_variable_sums_both_values(self, config, seed):
        spn = generate_rat_spn(config)
        evidence = _full_evidence(spn, seed)
        var = spn.variables()[seed % len(spn.variables())]
        partial = {k: v for k, v in evidence.items() if k != var}
        total = sum(evaluate(spn, {**partial, var: value}) for value in (0, 1))
        assert evaluate(spn, partial) == pytest.approx(total)

    @_SETTINGS
    @given(config=rat_configs)
    def test_full_joint_sums_to_one_over_sampled_subsets(self, config):
        spn = generate_rat_spn(config)
        # Summing the joint over all assignments of the first two variables,
        # marginalizing the rest, must equal the partition function.
        total = sum(
            evaluate(spn, {0: a, 1: b}) for a in (0, 1) for b in (0, 1)
        )
        assert total == pytest.approx(partition_function(spn))

    @_SETTINGS
    @given(config=rat_configs, seed=st.integers(0, 1000))
    def test_mpe_is_no_worse_than_a_random_assignment(self, config, seed):
        spn = generate_rat_spn(config)
        assignment = InferenceSession(spn).run(MPE({}))[0]
        random_assignment = _full_evidence(spn, seed)
        assert evaluate(spn, assignment) >= evaluate(spn, random_assignment) - 1e-12

    @_SETTINGS
    @given(config=rat_configs)
    def test_serialization_round_trip_preserves_semantics(self, config):
        spn = generate_rat_spn(config)
        restored = io.loads(io.dumps(spn))
        evidence = _full_evidence(spn, config.seed)
        assert evaluate(restored, evidence) == pytest.approx(evaluate(spn, evidence))


# --------------------------------------------------------------------------- #
# Lowering and kernel equivalence
# --------------------------------------------------------------------------- #
class TestLoweringProperties:
    @_SETTINGS
    @given(config=rat_configs, seed=st.integers(0, 1000))
    def test_operation_list_equals_reference(self, config, seed):
        spn = generate_rat_spn(config)
        ops = linearize(spn)
        evidence = _full_evidence(spn, seed)
        assert ops.execute(evidence) == pytest.approx(evaluate(spn, evidence))

    @_SETTINGS
    @given(config=rat_configs, seed=st.integers(0, 1000))
    def test_vector_program_equals_operation_list(self, config, seed):
        spn = generate_rat_spn(config)
        ops = linearize(spn)
        evidence = _full_evidence(spn, seed)
        assert ops.to_vector_program().execute(evidence) == pytest.approx(ops.execute(evidence))

    @_SETTINGS
    @given(config=rat_configs, seed=st.integers(0, 1000), threads=st.sampled_from([1, 32, 256]))
    def test_gpu_kernel_emulation_equals_reference(self, config, seed, threads):
        spn = generate_rat_spn(config)
        ops = linearize(spn)
        evidence = _full_evidence(spn, seed)
        value = execute_gpu_kernel(ops, ops.input_vector(evidence), GpuConfig(n_threads=threads))
        assert value == pytest.approx(evaluate(spn, evidence))

    @_SETTINGS
    @given(config=rat_configs, n_samples=st.integers(1, 8), seed=st.integers(0, 1000))
    def test_batch_evaluation_matches_scalar(self, config, n_samples, seed):
        spn = generate_rat_spn(config)
        data = random_evidence(config.n_vars, n_samples=n_samples, observed_fraction=0.7, seed=seed)
        batch = evaluate_batch(spn, data)
        for row, value in zip(data, batch):
            evidence = {i: int(v) for i, v in enumerate(row) if v >= 0}
            assert value == pytest.approx(evaluate(spn, evidence))

    @_SETTINGS
    @given(config=rat_configs)
    def test_group_decomposition_is_a_topological_partition(self, config):
        ops = linearize(generate_rat_spn(config))
        groups = ops.groups()
        seen = set()
        for group in groups:
            for op_index in group:
                op = ops.operations[op_index]
                for arg in (op.arg0, op.arg1):
                    if arg >= ops.n_inputs:
                        assert (arg - ops.n_inputs) in seen
            seen.update(group)
        assert len(seen) == ops.n_operations


# --------------------------------------------------------------------------- #
# Typed query API: scalar engines == single-row sessions, exact round-trips
# --------------------------------------------------------------------------- #
class TestQueryApiProperties:
    @_SETTINGS
    @given(config=rat_configs, seed=st.integers(0, 1000))
    def test_scalar_marginal_equals_single_row_session_exactly(self, config, seed):
        # The dict-based scalar walks are the reference engine's own, so a
        # reference-engine session answers a single dict row bit-identically.
        spn = generate_rat_spn(config)
        session = InferenceSession(spn, engine="python")
        evidence = _partial_evidence(spn, seed)
        assert evaluate(spn, evidence) == session.run(Marginal(dict(evidence)))[0]
        assert (
            evaluate_log(spn, evidence)
            == session.run(Marginal(dict(evidence), log=True))[0]
        )

    @_SETTINGS
    @given(config=rat_configs, seed=st.integers(0, 1000))
    def test_scalar_conditional_equals_single_row_session_exactly(self, config, seed):
        spn = generate_rat_spn(config)
        session = InferenceSession(spn, engine="python")
        evidence = _partial_evidence(spn, seed)
        rng = np.random.default_rng(seed + 1)
        var = spn.variables()[seed % len(spn.variables())]
        evidence.pop(var, None)
        query = {var: int(rng.integers(0, 2))}
        log_scalar = evaluate_log(spn, {**evidence, **query}) - evaluate_log(spn, evidence)
        log_value = session.run(
            Conditional(evidence=dict(evidence), query=dict(query), log=True)
        )[0]
        value = session.run(Conditional(evidence=dict(evidence), query=dict(query)))[0]
        if math.isnan(log_scalar):  # P(e) = 0
            assert math.isnan(log_value) and math.isnan(value)
            return
        assert log_value == log_scalar
        assert value == np.exp(log_scalar)

    @_SETTINGS
    @given(config=rat_configs, seed=st.integers(0, 1000))
    def test_scalar_mpe_equals_single_row_session_exactly(self, config, seed):
        spn = generate_rat_spn(config)
        session = InferenceSession(spn)
        evidence = _partial_evidence(spn, seed, keep=0.4)
        refine = bool(seed % 2)
        scalar = mpe_row(spn, evidence, refine=refine)
        assert scalar == session.run(MPE(dict(evidence), refine=refine))[0]

    @_SETTINGS
    @given(
        config=rat_configs,
        n_samples=st.integers(1, 6),
        seed=st.integers(0, 1000),
        kind=st.sampled_from(["likelihood", "log_likelihood", "marginal", "conditional", "mpe"]),
    )
    def test_served_query_objects_round_trip_bit_identically(
        self, config, n_samples, seed, kind
    ):
        spn = generate_rat_spn(config)
        session = InferenceSession(spn)
        rows = random_evidence(
            config.n_vars, n_samples=n_samples, observed_fraction=0.7, seed=seed
        )
        if kind == "likelihood":
            query = Likelihood(rows)
        elif kind == "log_likelihood":
            query = LogLikelihood(rows)
        elif kind == "marginal":
            query = Marginal(rows, log=bool(seed % 2), normalize=bool(seed % 3))
        elif kind == "conditional":
            q = np.full_like(rows, -1)
            evidence = np.array(rows, copy=True)
            var = seed % config.n_vars
            evidence[:, var] = -1
            q[:, var] = 1
            query = Conditional(evidence=evidence, query=q, log=bool(seed % 2))
        else:
            query = MPE(rows[:2], refine=bool(seed % 2))
        restored = deserialize_query(json.loads(json.dumps(serialize_query(query))))
        assert np.array_equal(restored.evidence, query.evidence)
        assert restored.params() == query.params()
        expected = session.run(query)
        got = session.run(restored)
        if kind == "mpe":
            assert got == expected
        else:
            assert np.array_equal(got, expected)
        # Each row run alone is bit-identical to the same row in the batch.
        alone = [
            session.run(type(query).join_rows([row], **query.params()))[0]
            for row in query.split_rows()
        ]
        if kind == "mpe":
            assert alone == expected
        else:
            assert np.array_equal(alone, expected)


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
class TestMetricProperties:
    @_SETTINGS
    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=10))
    def test_geometric_mean_between_min_and_max(self, values):
        mean = geometric_mean(values)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9

    @_SETTINGS
    @given(
        st.dictionaries(
            st.sampled_from(["CPU", "GPU", "Pvect", "Ptree"]),
            st.floats(min_value=0.01, max_value=50.0),
            min_size=1,
            max_size=4,
        )
    )
    def test_normalize_sets_reference_to_one(self, values):
        reference = sorted(values)[0]
        normalized = normalize(values, reference)
        assert normalized[reference] == pytest.approx(1.0)
        for key in values:
            assert normalized[key] == pytest.approx(speedup(values[key], values[reference]))
