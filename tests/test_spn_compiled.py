"""Tests for the vectorized tape engine (:mod:`repro.spn.compiled`)."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.cpu import execute_baseline
from repro.spn.compiled import (
    ENGINES,
    CompiledTape,
    EngineMismatchError,
    TapeKernel,
    cached_tape,
    compile_tape,
    resolve_engine,
)
from repro.spn.evaluate import (
    MARGINALIZED,
    evaluate_batch,
    evaluate_log,
    evaluate_log_batch,
)
from repro.spn.generate import generate_rat_spn, random_evidence
from repro.spn.graph import SPN
from repro.spn.linearize import OP_MUL, InputSlot, linearize
from strategies import wide_rat_configs as rat_configs

_SETTINGS = settings(max_examples=25, deadline=None)


class TestEngineAgreement:
    """Property: the vectorized engine matches the Python reference."""

    @_SETTINGS
    @given(config=rat_configs, seed=st.integers(0, 1000))
    def test_linear_domain_matches_reference(self, config, seed):
        spn = generate_rat_spn(config)
        data = random_evidence(
            config.n_vars, observed_fraction=0.7, seed=seed, n_samples=16
        )
        reference = evaluate_batch(spn, data, engine="python")
        vectorized = evaluate_batch(spn, data, engine="vectorized")
        np.testing.assert_allclose(vectorized, reference, rtol=1e-9)

    @_SETTINGS
    @given(config=rat_configs, seed=st.integers(0, 1000))
    def test_log_domain_matches_reference(self, config, seed):
        spn = generate_rat_spn(config)
        data = random_evidence(
            config.n_vars, observed_fraction=0.7, seed=seed, n_samples=8
        )
        reference = evaluate_log_batch(spn, data, engine="python")
        vectorized = evaluate_log_batch(spn, data, engine="vectorized")
        np.testing.assert_allclose(vectorized, reference, rtol=1e-9, atol=1e-12)

    @_SETTINGS
    @given(config=rat_configs, seed=st.integers(0, 1000), n_rows=st.integers(1, 70))
    def test_batch_root_equals_dense_reference(self, config, seed, n_rows):
        """``execute_batch`` (the native interpreter when a C compiler is
        available) is bit-identical to the dense slot matrix's root."""
        tape = compile_tape(generate_rat_spn(config))
        data = random_evidence(
            config.n_vars, observed_fraction=0.7, seed=seed, n_samples=n_rows
        )
        dense = tape.execute_slots(data)[tape.root_slot]
        assert np.array_equal(tape.execute_batch(data), dense)

    def test_log_domain_handles_zero_probability_rows(self):
        # An indicator-only network where evidence can contradict the model.
        spn = SPN()
        x0 = spn.add_indicator(0, 0)
        x1 = spn.add_indicator(1, 0)
        spn.set_root(spn.add_product([x0, x1]))
        data = np.array([[0, 0], [1, 0], [0, 1]])
        result = evaluate_log_batch(spn, data, engine="vectorized")
        assert result[0] == pytest.approx(0.0)
        assert result[1] == -math.inf
        assert result[2] == -math.inf

    def test_check_flag_runs_clean(self, small_rat_spn):
        data = random_evidence(10, observed_fraction=0.5, seed=2, n_samples=12)
        evaluate_batch(small_rat_spn, data, engine="vectorized", check=True)
        evaluate_log_batch(small_rat_spn, data, engine="vectorized", check=True)

    def test_slotwise_cross_check_against_operation_list(self, small_rat_ops):
        tape = compile_tape(small_rat_ops)
        evidence = {0: 1, 3: 0, 7: 1}
        reference = small_rat_ops.execute_values(small_rat_ops.input_vector(evidence))
        row = np.full((1, 10), MARGINALIZED, dtype=np.int64)
        for var, value in evidence.items():
            row[0, var] = value
        slots = tape.execute_slots(row)[:, 0]
        for source_slot in range(small_rat_ops.n_slots):
            assert slots[tape.slot_map[source_slot]] == pytest.approx(
                reference[source_slot], rel=1e-12
            )

    def test_execute_matches_operation_list_execute(self, small_rat_ops):
        tape = compile_tape(small_rat_ops)
        for evidence in ({}, {0: 1}, {1: 0, 2: 1, 9: 0}):
            assert tape.execute(evidence) == pytest.approx(
                small_rat_ops.execute(evidence), rel=1e-12
            )
            assert tape.execute(evidence, log_domain=True) == pytest.approx(
                math.log(small_rat_ops.execute(evidence)), rel=1e-9
            )


class TestTapeStructure:
    def test_kernels_write_contiguous_monotonic_ranges(self, small_rat_ops):
        tape = compile_tape(small_rat_ops)
        expected_start = tape.n_inputs
        previous_level = 0
        for kernel in tape.kernels:
            assert kernel.dest_start == expected_start
            assert kernel.width == len(kernel.arg0) == len(kernel.arg1)
            assert kernel.level >= previous_level
            # Operands are always produced before the kernel runs.
            assert int(kernel.arg0.max()) < kernel.dest_start
            assert int(kernel.arg1.max()) < kernel.dest_start
            expected_start = kernel.dest_stop
            previous_level = kernel.level
        assert expected_start == tape.n_slots

    def test_shape_is_preserved(self, small_rat_ops):
        tape = compile_tape(small_rat_ops)
        assert tape.n_inputs == small_rat_ops.n_inputs
        assert tape.n_operations == small_rat_ops.n_operations
        assert tape.n_slots == small_rat_ops.n_slots
        assert tape.n_levels == small_rat_ops.depth()

    def test_compile_from_spn_equals_compile_from_ops(self, small_rat_spn):
        from_spn = compile_tape(small_rat_spn)
        from_ops = compile_tape(linearize(small_rat_spn))
        data = random_evidence(10, observed_fraction=0.6, seed=4, n_samples=5)
        np.testing.assert_array_equal(
            from_spn.execute_batch(data), from_ops.execute_batch(data)
        )

    def test_single_leaf_network(self):
        spn = SPN()
        spn.set_root(spn.add_indicator(0, 1))
        tape = compile_tape(spn)
        assert tape.n_kernels == 0
        data = np.array([[1], [0], [MARGINALIZED]])
        np.testing.assert_allclose(tape.execute_batch(data), [1.0, 0.0, 1.0])


class TestConventionsAndErrors:
    def test_unknown_engine_is_rejected(self, tiny_spn):
        data = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="unknown engine"):
            evaluate_batch(tiny_spn, data, engine="cuda")
        with pytest.raises(ValueError, match="unknown engine"):
            evaluate_log_batch(tiny_spn, data, engine="cuda")
        assert resolve_engine("python") == "python"
        assert set(ENGINES) == {"python", "vectorized"}

    def test_non_2d_evidence_is_rejected(self, tiny_spn):
        with pytest.raises(ValueError, match="2-D"):
            evaluate_batch(tiny_spn, np.zeros(3, dtype=np.int64), engine="vectorized")

    def test_out_of_range_variables_marginalize(self, small_rat_spn):
        # Evidence with fewer columns than variables: the missing variables
        # are unobserved, exactly as in the reference engine.
        data = random_evidence(4, observed_fraction=1.0, seed=0, n_samples=6)
        reference = evaluate_batch(small_rat_spn, data, engine="python")
        vectorized = evaluate_batch(small_rat_spn, data, engine="vectorized")
        np.testing.assert_allclose(vectorized, reference, rtol=1e-9)

    def test_execute_baseline_engines_agree(self, small_rat_ops):
        data = random_evidence(10, observed_fraction=0.7, seed=9, n_samples=10)
        reference = execute_baseline(small_rat_ops, data, engine="python")
        vectorized = execute_baseline(
            small_rat_ops, data, engine="vectorized", check=True
        )
        np.testing.assert_allclose(vectorized, reference, rtol=1e-9)

    def test_mismatch_error_is_raised_on_corrupted_tape(self, small_rat_ops, monkeypatch):
        data = random_evidence(10, observed_fraction=0.7, seed=9, n_samples=4)
        monkeypatch.setattr(
            CompiledTape,
            "execute_batch",
            lambda self, d, log_domain=False: np.zeros(len(d)) + 0.123,
        )
        with pytest.raises(EngineMismatchError):
            execute_baseline(small_rat_ops, data, engine="vectorized", check=True)

    def test_any_negative_value_marginalizes_in_every_engine(self, small_rat_spn):
        # The MARGINALIZED convention: every negative value means "not
        # observed", not just the -1 sentinel, in all engines alike.
        small_rat_ops = linearize(small_rat_spn)
        data = random_evidence(10, observed_fraction=0.6, seed=3, n_samples=8)
        odd = data.copy()
        odd[odd == MARGINALIZED] = -7
        expected = evaluate_batch(small_rat_spn, data, engine="python")
        for values in (
            evaluate_batch(small_rat_spn, odd, engine="python"),
            evaluate_batch(small_rat_spn, odd, engine="vectorized"),
            execute_baseline(small_rat_ops, odd, engine="python"),
            execute_baseline(small_rat_ops, odd, engine="vectorized"),
        ):
            np.testing.assert_allclose(values, expected, rtol=1e-12)


class TestCachedTape:
    def test_same_object_reuses_the_tape(self, small_rat_spn):
        assert cached_tape(small_rat_spn) is cached_tape(small_rat_spn)
        ops = linearize(small_rat_spn)
        assert cached_tape(ops) is cached_tape(ops)
        assert cached_tape(ops) is not cached_tape(small_rat_spn)

    def test_mutated_operation_list_recompiles_despite_id_reuse(self, small_rat_spn):
        # The cache pins the fingerprinted children, so a replacement object
        # can never reuse a cached child's memory address — an id collision
        # masquerading as "unchanged" is impossible.
        from repro.spn.linearize import Operation

        ops = linearize(small_rat_spn)
        first = cached_tape(ops)
        expected = ops.execute({})
        old = ops.operations[-1]
        ops.operations[-1] = Operation(
            index=old.index, op=old.op, arg0=old.arg1, arg1=old.arg0
        )
        del old
        second = cached_tape(ops)
        assert second is not first
        assert second.execute({}) == pytest.approx(expected)

    def test_mutated_network_recompiles(self):
        spn = SPN()
        a = spn.add_indicator(0, 0)
        b = spn.add_indicator(0, 1)
        spn.set_root(spn.add_sum([a, b], [0.25, 0.75]))
        first = cached_tape(spn)
        spn.set_root(spn.add_sum([a, b], [0.5, 0.5]))
        second = cached_tape(spn)
        assert second is not first
        data = np.full((1, 1), MARGINALIZED, dtype=np.int64)
        assert second.execute_batch(data)[0] == pytest.approx(1.0)


# --------------------------------------------------------------------------- #
# Log passes answered by the linear kernels above the proved floor
# --------------------------------------------------------------------------- #
def two_branch_spn() -> SPN:
    """``x0 = 1``: a 400-factor chain of ``1e-2`` (P ~ 1e-800); ``x0 = 0``: shallow.

    Both branches share three Bernoulli leaves (variables 1-3).
    """
    spn = SPN()
    leaves = [SPN.bernoulli_leaf(spn, var, p) for var, p in ((1, 0.3), (2, 0.6), (3, 0.85))]
    deep = spn.add_product(
        [spn.add_indicator(0, 1), *leaves] + [spn.add_parameter(1e-2) for _ in range(400)]
    )
    shallow = spn.add_product([spn.add_indicator(0, 0), *leaves])
    spn.set_root(spn.add_sum([deep, shallow], [0.5, 0.5]))
    return spn


#: Every assignment of x0..x3 over {marginalized, 0, 1}.
MIXED_ROWS = np.array(list(itertools.product((-1, 0, 1), repeat=4)), dtype=np.int64)


def constant_tape(prob: float, other: float = 0.5) -> CompiledTape:
    """``root = x0 * prob * other`` — one indicator, two constants."""
    inputs = [
        InputSlot(index=0, kind="indicator", var=0, value=1),
        InputSlot(index=1, kind="weight", prob=prob),
        InputSlot(index=2, kind="weight", prob=other),
    ]
    kernels = [
        TapeKernel(level=1, op=OP_MUL, dest_start=3, dest_stop=4,
                   arg0=np.array([1], dtype=np.intp), arg1=np.array([2], dtype=np.intp)),
        TapeKernel(level=2, op=OP_MUL, dest_start=4, dest_stop=5,
                   arg0=np.array([0], dtype=np.intp), arg1=np.array([3], dtype=np.intp)),
    ]
    with np.errstate(invalid="ignore"):  # log of a negative constant
        return CompiledTape(inputs=inputs, kernels=kernels, root_slot=4)


class TestLogPassViaLinear:
    """A log pass answers each row with ``log`` of its linear root when that
    root is at or above the tape's proved floor, and with the exact log
    kernels otherwise — row by row, whatever batch the row arrives in."""

    def split(self, tape, data):
        linear = tape.execute_batch(data)
        above = (linear >= tape.linear_floor()) & np.isfinite(linear)
        return linear, above

    def test_rows_split_on_the_floor(self):
        spn = two_branch_spn()
        tape = compile_tape(spn)
        linear, above = self.split(tape, MIXED_ROWS)
        assert above.any() and (~above).any()
        assert np.all(MIXED_ROWS[~above, 0] == 1)  # the deep branch alone
        result = tape.execute_batch(MIXED_ROWS, log_domain=True)
        exact = tape.execute_slots(MIXED_ROWS, log_domain=True)[tape.root_slot]
        # The two rules round differently on some rows, so each check
        # below tells them apart.
        assert not np.array_equal(result[above], exact[above])
        assert np.array_equal(result[~above], exact[~above])
        assert np.array_equal(result[above], np.log(linear[above]))
        # Below the floor the answers are the deep branch's, not log(0).
        reference = evaluate_log_batch(spn, MIXED_ROWS, engine="python")
        np.testing.assert_allclose(result, reference, rtol=1e-9, atol=1e-12)
        assert np.all(result[~above] < -1800)

    def test_row_answer_independent_of_batch_and_mode(self):
        tape = compile_tape(two_branch_spn())
        reference = tape.execute_batch(MIXED_ROWS, log_domain=True)
        for row in range(len(MIXED_ROWS)):
            alone = tape.execute_batch(MIXED_ROWS[row : row + 1], log_domain=True)
            assert np.array_equal(alone, reference[row : row + 1])

    def test_served_micro_batches_match_offline(self):
        from repro.api import InferenceSession, LogLikelihood
        from repro.serving import BatchingPolicy, InferenceServer

        spn = two_branch_spn()
        offline = InferenceSession(spn).run(LogLikelihood(evidence=MIXED_ROWS))
        tape = compile_tape(spn)
        assert np.array_equal(offline, tape.execute_batch(MIXED_ROWS, log_domain=True))
        policy = BatchingPolicy(max_batch_size=3, max_wait_s=0.001)
        with InferenceServer(models={"two_branch": spn}, policy=policy) as server:
            batched = server.query("two_branch", MIXED_ROWS, kind="log_likelihood")
            single = [
                server.submit("two_branch", MIXED_ROWS[row : row + 1], kind="log_likelihood")
                for row in range(len(MIXED_ROWS))
            ]
            single = np.concatenate([f.result(timeout=30) for f in single])
        assert np.array_equal(batched, offline)
        assert np.array_equal(single, offline)

    @pytest.mark.parametrize(
        "prob, other",
        [(-0.5, 0.5), (math.nan, 0.5), (math.inf, 0.5), (1e200, 1e200)],
        ids=["negative", "nan", "inf", "overflow"],
    )
    def test_floor_is_inf_without_a_sound_bound(self, prob, other):
        tape = constant_tape(prob, other)
        assert tape.linear_floor() == math.inf
        data = np.array([[0], [1], [-1]])
        with np.errstate(all="ignore"):
            exact = tape.execute_slots(data, log_domain=True)[tape.root_slot]
            result = tape.execute_batch(data, log_domain=True)
        assert np.array_equal(result, exact, equal_nan=True)

    def test_floor_is_cached_and_finite_for_valid_tapes(self):
        tape = constant_tape(0.25)
        assert tape._linear_floor is None  # not proved at construction
        floor = tape.linear_floor()
        assert 0.0 < floor < 1e-300
        assert tape.linear_floor() is floor

    def test_two_level_gain_matches_closed_form(self):
        """root = sum_i w_i * prod_j x_ij over n children of m indicators.

        Each weight product carries gain 1 and each of a child's m - 1
        indicator products gain w_i (every other factor's bound is 1), so
        K = n + (m - 1) * sum(w).
        """
        from repro.statics.absint import TINY, product_error_gain

        weights = [0.125, 0.25, 0.625]
        n_vars = 5
        spn = SPN()
        children = [
            spn.add_product([spn.add_indicator(var, (i + var) % 2) for var in range(n_vars)])
            for i in range(len(weights))
        ]
        spn.set_root(spn.add_sum(children, weights))
        tape = compile_tape(spn)
        gain = product_error_gain(tape)
        assert gain == pytest.approx(len(weights) + (n_vars - 1) * sum(weights))
        assert tape.linear_floor() == 2.0 * gain * TINY

    @_SETTINGS
    @given(
        config=rat_configs,
        seed=st.integers(0, 1000),
        shift=st.one_of(st.just(0.0), st.floats(680.0, 740.0)),
        n_factors=st.integers(1, 400),
    )
    def test_linear_rows_match_reference(self, config, seed, shift, n_factors):
        """RAT-SPNs, optionally under a deep chain of tiny weights that moves
        their log-likelihoods across the floor (``2 * K * 2**-1022``, about
        ``exp(-705)`` here) and into the subnormal range."""
        spn = generate_rat_spn(config)
        if shift:
            weight = math.exp(-shift / n_factors)
            chain = [spn.add_parameter(weight) for _ in range(n_factors)]
            spn.set_root(spn.add_product([spn.root] + chain))
        data = random_evidence(config.n_vars, observed_fraction=0.7, seed=seed, n_samples=16)
        tape = compile_tape(spn)
        linear, above = self.split(tape, data)
        result = tape.execute_batch(data, log_domain=True)
        assert np.array_equal(result[above], np.log(linear[above]))
        reference = evaluate_log_batch(spn, data, engine="python")
        np.testing.assert_allclose(result, reference, rtol=1e-9, atol=1e-12)
