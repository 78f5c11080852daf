"""Tests for the unified typed query API (repro.api)."""

import json
import math

import numpy as np
import pytest

from repro.api import (
    MPE,
    QUERY_KINDS,
    Conditional,
    InferenceSession,
    Likelihood,
    LogLikelihood,
    Marginal,
    QueryKind,
    as_kind,
    deserialize_query,
    evidence_rows,
    query_type,
    serialize_query,
)
from repro.platforms import available_platforms
from repro.spn.evaluate import (
    MARGINALIZED,
    evaluate,
    evaluate_batch,
    evaluate_log,
    evaluate_log_batch,
)
from repro.spn.generate import RatSpnConfig, generate_rat_spn, random_evidence
from repro.spn.queries import mpe_row

N_VARS = 8


@pytest.fixture(scope="module")
def spn():
    return generate_rat_spn(
        RatSpnConfig(n_vars=N_VARS, depth=N_VARS, repetitions=2, n_sums=2, seed=3)
    )


@pytest.fixture(scope="module")
def rows():
    return random_evidence(N_VARS, observed_fraction=0.6, seed=7, n_samples=24)


@pytest.fixture()
def session(spn):
    return InferenceSession(spn)


def conditional_batch(rows, value=1, var=0):
    """A Conditional querying ``var`` with ``var`` removed from the evidence."""
    evidence = np.array(rows, copy=True)
    evidence[:, var] = MARGINALIZED
    query = np.full_like(evidence, MARGINALIZED)
    query[:, var] = value
    return Conditional(evidence=evidence, query=query)


# --------------------------------------------------------------------------- #
# Kinds
# --------------------------------------------------------------------------- #
class TestQueryKind:
    def test_kinds_compare_equal_to_raw_strings(self):
        assert QueryKind.LIKELIHOOD == "likelihood"
        assert QueryKind.LOG_LIKELIHOOD == "log_likelihood"
        assert QueryKind.MARGINAL == "marginal"
        assert QueryKind.CONDITIONAL == "conditional"
        assert QueryKind.MPE == "mpe"
        assert QueryKind.SAMPLE == "sample"
        assert QueryKind.EXPECTATION == "expectation"
        assert QueryKind.ENTROPY == "entropy"
        assert QueryKind.MUTUAL_INFORMATION == "mutual_information"
        assert QueryKind.CLASSIFY == "classify"
        assert len(QUERY_KINDS) == 10

    def test_as_kind_accepts_strings_and_members(self):
        assert as_kind("mpe") is QueryKind.MPE
        assert as_kind(QueryKind.MARGINAL) is QueryKind.MARGINAL

    def test_unknown_kind_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown query kind 'gradient'"):
            as_kind("gradient")

    def test_query_type_maps_every_kind(self):
        assert query_type("likelihood") is Likelihood
        assert query_type(QueryKind.CONDITIONAL) is Conditional
        for kind in QUERY_KINDS:
            assert query_type(kind).kind is kind


# --------------------------------------------------------------------------- #
# Query construction and validation
# --------------------------------------------------------------------------- #
class TestQueryConstruction:
    def test_mapping_evidence_normalizes_to_one_row(self):
        q = Likelihood({0: 1, 3: 0})
        assert q.evidence.shape == (1, 4)
        assert q.evidence[0].tolist() == [1, -1, -1, 0]
        assert q.n_rows == 1

    def test_single_row_and_batch_normalize(self, rows):
        assert Likelihood(rows[0]).evidence.shape == (1, N_VARS)
        assert Likelihood(rows).evidence.shape == rows.shape

    def test_fractional_evidence_rejected(self):
        with pytest.raises(ValueError, match="integral"):
            Likelihood(np.array([0.7, 1.0]))
        with pytest.raises(ValueError, match="integral"):
            Likelihood({0: 0.5})

    def test_evidence_rows_pads_to_width(self):
        assert evidence_rows({1: 1}, n_vars=5).shape == (1, 5)
        assert evidence_rows(np.array([[1, 0]]), n_vars=5).shape == (1, 5)
        # Wider arrays are kept, not trimmed.
        wide = evidence_rows(np.array([[1, 0, 1]]), n_vars=2)
        assert wide.shape == (1, 3)

    def test_negative_evidence_variable_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            evidence_rows({-2: 1})

    def test_conditional_conflict_rejected(self):
        with pytest.raises(ValueError, match="disagree on variable 0"):
            Conditional(evidence={0: 0}, query={0: 1})

    def test_conditional_rejects_positional_assignments(self):
        # query/evidence must be keyword arguments: a positional call could
        # silently bind them swapped and compute the inverse conditional.
        with pytest.raises(TypeError):
            Conditional({0: 1}, {1: 0})

    def test_conditional_row_count_mismatch_rejected(self, rows):
        with pytest.raises(ValueError, match="row counts differ"):
            Conditional(evidence=rows[:3], query=rows[:2])

    def test_conditional_requires_query(self, rows):
        with pytest.raises(ValueError, match="requires a query"):
            Conditional(evidence=rows[:1])

    def test_conditional_joint_merges_query_over_evidence(self):
        cond = Conditional(evidence={1: 0}, query={0: 1})
        assert cond.joint[0].tolist() == [1, 0]

    def test_group_key_separates_flag_variants(self, rows):
        plain = Marginal(rows)
        normalized = Marginal(rows, normalize=True)
        assert plain.group_key() != normalized.group_key()
        assert plain.group_key() == Marginal(rows[:1]).group_key()

    def test_value_equality_and_hashability(self, rows):
        # ndarray fields must not break ==/hash: equality is by value
        # (array contents + flags), hashing stays identity-based.
        assert Likelihood(rows) == Likelihood(np.array(rows, copy=True))
        assert Likelihood(rows) != Likelihood(rows[:1])
        assert Marginal(rows) != Marginal(rows, normalize=True)
        assert Likelihood(rows) != LogLikelihood(rows)
        cond = conditional_batch(rows)
        same = Conditional(evidence=cond.evidence.copy(), query=cond.query.copy())
        assert cond == same
        assert cond != Conditional(evidence=cond.evidence, query=cond.query, log=True)
        {cond: "hashable"}  # identity hash: must not raise

    def test_split_join_round_trip(self, rows):
        q = conditional_batch(rows)
        rebuilt = Conditional.join_rows(q.split_rows(), **q.params())
        assert np.array_equal(rebuilt.evidence, q.evidence)
        assert np.array_equal(rebuilt.query, q.query)


# --------------------------------------------------------------------------- #
# Serialization
# --------------------------------------------------------------------------- #
class TestSerialization:
    def queries(self, rows):
        return [
            Likelihood(rows),
            LogLikelihood(rows[:1]),
            Marginal(rows, log=True, normalize=True),
            conditional_batch(rows),
            MPE(rows[:2], refine=False),
        ]

    def test_json_round_trip_is_bit_identical(self, rows):
        for query in self.queries(rows):
            payload = json.loads(json.dumps(serialize_query(query)))
            restored = deserialize_query(payload)
            assert type(restored) is type(query)
            assert np.array_equal(restored.evidence, query.evidence)
            assert restored.params() == query.params()
            if isinstance(query, Conditional):
                assert np.array_equal(restored.query, query.query)

    def test_round_trip_executes_identically(self, session, rows):
        for query in self.queries(rows):
            restored = deserialize_query(json.loads(json.dumps(serialize_query(query))))
            expected = session.run(query)
            got = session.run(restored)
            if isinstance(query, MPE):
                assert got == expected
            else:
                assert np.array_equal(got, expected)

    def test_empty_batch_round_trip_preserves_shape(self, session):
        # Regression: a (0, n) batch serializes to [], which alone cannot
        # be told apart from a (1, 0) row — the payload's explicit shape
        # keeps zero-row queries lossless end to end.
        empty = np.zeros((0, N_VARS), dtype=np.int64)
        for query in (Likelihood(empty), Conditional(evidence=empty, query=empty)):
            payload = json.loads(json.dumps(serialize_query(query)))
            restored = deserialize_query(payload)
            assert restored.evidence.shape == (0, N_VARS)
            assert session.run(restored).shape == (0,)

    def test_payload_without_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            deserialize_query({"evidence": [[1, 0]]})

    def test_corrupt_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown query kind"):
            deserialize_query({"kind": "gradient", "evidence": [[1, 0]]})


# --------------------------------------------------------------------------- #
# Planning (the minimal-evaluations contract)
# --------------------------------------------------------------------------- #
class TestPlanning:
    def test_value_kinds_plan_one_pass(self, session, rows):
        assert session.plan(Likelihood(rows)).n_evaluations == 1
        assert session.plan(LogLikelihood(rows)).n_evaluations == 1
        assert session.plan(Marginal(rows)).n_evaluations == 1
        assert session.plan(Marginal(rows, log=True)).n_evaluations == 1

    def test_normalized_marginal_plans_partition_pass_once(self, spn, rows):
        session = InferenceSession(spn)
        assert session.plan(Marginal(rows, normalize=True)).n_evaluations == 2
        session.run(Marginal(rows, normalize=True))  # caches log Z
        assert session.plan(Marginal(rows, normalize=True)).n_evaluations == 1

    def test_conditional_plans_exactly_two_passes(self, session, rows):
        plan = session.plan(conditional_batch(rows))
        assert plan.n_evaluations == 2
        assert [p.operand for p in plan.passes] == ["joint", "evidence"]
        assert all(p.domain == "log" for p in plan.passes)

    def test_conditional_executes_exactly_two_passes_per_batch(self, spn, rows):
        # The acceptance-criterion hook: a Conditional batch is 2 tape
        # evaluations regardless of the row count — never 2 * n_rows.
        observed = []
        session = InferenceSession(spn)
        session.on_evaluate = lambda domain, n: observed.append((domain, n))
        for batch in (rows[:1], rows[:5], rows):
            observed.clear()
            before = session.evaluations
            session.run(conditional_batch(batch))
            assert session.evaluations - before == 2
            assert observed == [("log", len(batch)), ("log", len(batch))]

    def test_partition_pass_is_cached_across_runs(self, spn, rows):
        session = InferenceSession(spn)
        before = session.evaluations
        session.run(Marginal(rows, normalize=True))
        assert session.evaluations - before == 2  # evidence + partition
        before = session.evaluations
        session.run(Marginal(rows, log=True, normalize=True))
        assert session.evaluations - before == 1  # partition served from cache

    def test_unknown_query_type_rejected(self, session):
        with pytest.raises(TypeError):
            session.plan(object())
        with pytest.raises(TypeError):
            session.run({"not": "a query"})


# --------------------------------------------------------------------------- #
# Execution semantics
# --------------------------------------------------------------------------- #
class TestExecution:
    def test_likelihood_matches_evaluate_batch(self, spn, session, rows):
        assert np.array_equal(
            session.run(Likelihood(rows)), evaluate_batch(spn, rows, engine="vectorized")
        )

    def test_log_likelihood_matches_evaluate_log_batch(self, spn, session, rows):
        assert np.array_equal(
            session.run(LogLikelihood(rows)),
            evaluate_log_batch(spn, rows, engine="vectorized"),
        )

    def test_marginal_flags(self, spn, session, rows):
        linear = session.run(Marginal(rows))
        assert np.array_equal(linear, session.run(Likelihood(rows)))
        log = session.run(Marginal(rows, log=True))
        assert np.allclose(np.exp(log), linear, rtol=1e-12)
        log_z = session.log_partition()
        normalized = session.run(Marginal(rows, log=True, normalize=True))
        assert np.allclose(normalized, log - log_z, rtol=1e-12)
        linear_normalized = session.run(Marginal(rows, normalize=True))
        assert np.array_equal(linear_normalized, np.exp(normalized))

    def test_conditional_matches_ratio_of_marginals(self, spn, session, rows):
        cond = conditional_batch(rows)
        got = session.run(cond)
        joint = evaluate_log_batch(spn, cond.joint, engine="vectorized")
        evidence = evaluate_log_batch(spn, cond.evidence, engine="vectorized")
        assert np.array_equal(got, np.exp(joint - evidence))
        log_got = session.run(
            Conditional(evidence=cond.evidence, query=cond.query, log=True)
        )
        assert np.array_equal(log_got, joint - evidence)

    def test_conditional_distribution_sums_to_one(self, session, rows):
        total = sum(
            session.run(conditional_batch(rows, value=v)) for v in (0, 1)
        )
        assert np.allclose(total, 1.0)

    def test_conditional_zero_probability_evidence_is_nan(self):
        from repro.spn.graph import SPN

        spn = SPN()
        x0 = spn.add_sum([spn.add_indicator(0, 1)], weights=[1.0])
        x1 = SPN.bernoulli_leaf(spn, 1, 0.5)
        spn.set_root(spn.add_product([x0, x1]))
        session = InferenceSession(spn)
        value = session.run(Conditional(evidence={0: 0}, query={1: 1}))
        assert math.isnan(value[0])

    def test_mpe_matches_mpe_row(self, spn, session, rows):
        from repro.spn.evaluate import row_evidence

        got = session.run(MPE(rows[:4]))
        assert got == [mpe_row(spn, row_evidence(row)) for row in rows[:4]]

    def test_mpe_refine_flag_passes_through(self, spn, rows):
        session = InferenceSession(spn)
        unrefined = session.run(MPE(rows[:2], refine=False))
        from repro.spn.evaluate import row_evidence

        assert unrefined == [
            mpe_row(spn, row_evidence(row), refine=False) for row in rows[:2]
        ]

    def test_single_row_and_batched_execution_bit_identical(self, session, rows):
        batched = session.run(Likelihood(rows))
        singles = [session.run(Likelihood(rows[i]))[0] for i in range(len(rows))]
        assert np.array_equal(np.array(singles), batched)
        cond = conditional_batch(rows)
        cond_batched = session.run(cond)
        cond_singles = [
            session.run(Conditional(evidence=cond.evidence[i], query=cond.query[i]))[0]
            for i in range(len(rows))
        ]
        assert np.array_equal(np.array(cond_singles), cond_batched)

    def test_empty_batch(self, session):
        empty = np.zeros((0, N_VARS), dtype=np.int64)
        assert session.run(Likelihood(empty)).shape == (0,)
        assert session.run(MPE(empty)) == []

    def test_every_kind_on_every_engine(self, spn, rows):
        """All five query kinds execute batched on every functional engine."""
        results = {}
        for engine in ("python", "vectorized"):
            session = InferenceSession(spn, engine=engine)
            results[engine] = {
                "likelihood": session.run(Likelihood(rows)),
                "log_likelihood": session.run(LogLikelihood(rows)),
                "marginal": session.run(Marginal(rows, log=True, normalize=True)),
                "conditional": session.run(conditional_batch(rows)),
                "mpe": session.run(MPE(rows[:3])),
            }
        for kind in ("likelihood", "log_likelihood", "marginal", "conditional"):
            assert np.allclose(
                results["python"][kind], results["vectorized"][kind], rtol=1e-9
            ), kind
        assert results["python"]["mpe"] == results["vectorized"]["mpe"]

    def test_check_mode_cross_checks(self, spn, rows):
        session = InferenceSession(spn, check=True)
        assert np.array_equal(
            session.run(Likelihood(rows)),
            evaluate_batch(spn, rows, engine="vectorized"),
        )


# --------------------------------------------------------------------------- #
# Session binding, encoding and caching
# --------------------------------------------------------------------------- #
class TestSession:
    def test_suite_name_binding(self):
        session = InferenceSession("Banknote")
        assert session.name == "Banknote"
        assert session.n_vars == 4
        value = session.run(Likelihood({0: 1}))
        from repro.suite.registry import build_benchmark

        row = np.full((1, 4), MARGINALIZED, dtype=np.int64)
        row[0, 0] = 1
        assert value[0] == evaluate_batch(
            build_benchmark("Banknote"), row, engine="vectorized"
        )[0]

    def test_unknown_suite_name_raises(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            InferenceSession("NoSuchModel")

    def test_unknown_engine_raises(self, spn):
        with pytest.raises(ValueError, match="unknown engine"):
            InferenceSession(spn, engine="cuda")

    def test_encode_pads_and_keeps_wide_rows(self, session):
        padded = session.encode({1: 1})
        assert padded.shape == (1, N_VARS)
        wide = session.encode(np.zeros((2, N_VARS + 3), dtype=np.int64))
        assert wide.shape == (2, N_VARS + 3)

    def test_out_of_range_evidence_survives_into_mpe(self, spn):
        session = InferenceSession(spn)
        completion = session.run(MPE({N_VARS + 2: 1}))[0]
        assert completion[N_VARS + 2] == 1

    def test_warm_session_pins_tape(self, monkeypatch):
        # warm=True compiles the tape into the tape cache at construction
        # (which holds it while the model lives), so the first query
        # compiles nothing; a cold session compiles at its first pass, and
        # the reference engine never compiles and has no tape.
        from repro.spn import compiled

        compiles = []
        compile_tape = compiled.compile_tape
        monkeypatch.setattr(
            compiled,
            "compile_tape",
            lambda source: compiles.append(id(source)) or compile_tape(source),
        )
        config = RatSpnConfig(n_vars=N_VARS, depth=N_VARS, repetitions=2, n_sums=2, seed=3)
        warm = InferenceSession(generate_rat_spn(config), warm=True)
        cold = InferenceSession(generate_rat_spn(config))
        reference = InferenceSession(generate_rat_spn(config), engine="python", warm=True)
        assert compiles == [id(warm.spn)]
        for session in (warm, reference, cold):
            session.run(Likelihood({0: 1}))
        assert compiles == [id(warm.spn), id(cold.spn)]
        assert warm.tape is compiled.cached_tape(warm.spn)
        assert reference.tape is None

    def test_log_partition_matches_reference(self, spn):
        session = InferenceSession(spn)
        assert session.log_partition() == pytest.approx(evaluate_log(spn, {}))

    def test_marginal_still_matches_reference_evaluate(self, spn):
        session = InferenceSession(spn)
        assert session.run(Marginal({0: 1}))[0] == pytest.approx(evaluate(spn, {0: 1}))

    def test_mutated_model_refreshes_lowering_throughput_and_plan(self):
        # Regression: after a root move the passes, log Z and domains()
        # followed the new network, while operation_list(), throughput()
        # and plan() kept reporting the pre-mutation one.
        from repro.spn.graph import SPN
        from repro.spn.linearize import linearize

        spn = SPN()
        s0 = SPN.bernoulli_leaf(spn, 0, 0.5)
        p = spn.add_product([s0, SPN.bernoulli_leaf(spn, 1, 0.6)])
        spn.set_root(p)
        session = InferenceSession(spn, warm=True)
        query = Likelihood({1: 1})
        assert session.run(query)[0] == pytest.approx(0.6)
        session.operation_list(), session.throughput("CPU"), session.plan(query)
        q = spn.add_product([s0, SPN.bernoulli_leaf(spn, 1, 1.0)])
        spn.set_root(spn.add_sum([p, q], [0.5, 0.5]))
        assert session.run(query)[0] == pytest.approx(0.8)
        fresh = InferenceSession(spn)
        assert (
            session.operation_list().n_operations,
            session.throughput("CPU").cycles,
            session.plan(query).tape_slots,
        ) == (
            linearize(spn).n_operations,
            fresh.throughput("CPU").cycles,
            fresh.plan(query).tape_slots,
        )

    def test_throughput_on_every_registered_platform(self):
        session = InferenceSession("Banknote")
        for platform in available_platforms():
            result = session.throughput(platform)
            assert result.ops_per_cycle > 0
            assert result.cycles > 0

    def test_throughput_accepts_configured_engine(self):
        from repro.platforms import PLATFORM_GPU, get_engine

        session = InferenceSession("Banknote")
        slow = session.throughput(get_engine(PLATFORM_GPU).configured(n_threads=1))
        fast = session.throughput(get_engine(PLATFORM_GPU).configured(n_threads=256))
        assert fast.ops_per_cycle > slow.ops_per_cycle

    def test_object_model_throughput(self, spn):
        session = InferenceSession(spn)
        assert session.throughput("CPU").ops_per_cycle > 0

