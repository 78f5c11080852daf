"""Tests for the tape memory planner and the planned executor.

Covers the planner's structural guarantees (liveness peak, physical-buffer
bound, broadcast constants, kernel fusion, allocation validity on
hand-built tapes), one shared plan per tape under concurrent first use,
``QueryPlan`` peak-slot stats and serving, and — via hypothesis — the
bit-identity guarantee: every suite profile's plan computes exactly
(``array_equal``) the root row of the dense reference slot matrix
(``execute_slots``) in both domains.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import InferenceSession, Likelihood, LogLikelihood
from repro.spn.compiled import CompiledTape, compile_tape
from repro.spn.generate import random_evidence
from repro.spn.linearize import OP_ADD, OP_MUL, InputSlot, Operation, OperationList
from repro.spn.memplan import execute_plan, plan_memory
from repro.suite.registry import (
    benchmark_n_vars,
    benchmark_names,
    benchmark_operation_list,
    benchmark_tape,
)

_SETTINGS = settings(max_examples=20, deadline=None)


# --------------------------------------------------------------------------- #
# Hand-built tapes
# --------------------------------------------------------------------------- #
def indicator(index, var, value=1):
    return InputSlot(index=index, kind="indicator", var=var, value=value)


def weight(index, prob):
    return InputSlot(index=index, kind="weight", prob=prob)


def ops_list(inputs, ops, root):
    return OperationList(
        inputs=list(inputs),
        operations=[
            Operation(index=i, op=op, arg0=a, arg1=b) for i, (op, a, b) in enumerate(ops)
        ],
        root_slot=root,
    )


def chain_tape() -> CompiledTape:
    """s4 = x0*x1; s5 = s4*x2; s6 = s5*x3 — one width-1 kernel per level."""
    return compile_tape(
        ops_list(
            [indicator(i, i) for i in range(4)],
            [(OP_MUL, 0, 1), (OP_MUL, 4, 2), (OP_MUL, 5, 3)],
            root=6,
        )
    )


def balanced_tape() -> CompiledTape:
    """s4 = x0*x1; s5 = x2*x3; s6 = s4+s5 — a width-2 level then the root."""
    return compile_tape(
        ops_list(
            [indicator(i, i) for i in range(4)],
            [(OP_MUL, 0, 1), (OP_MUL, 2, 3), (OP_ADD, 4, 5)],
            root=6,
        )
    )


def weighted_tape() -> CompiledTape:
    """s4 = w2*x0; s5 = w3*x1; s6 = s4+s5 — broadcastable constant arg0."""
    return compile_tape(
        ops_list(
            [indicator(0, 0), indicator(1, 1), weight(2, 0.3), weight(3, 0.7)],
            [(OP_MUL, 2, 0), (OP_MUL, 3, 1), (OP_ADD, 4, 5)],
            root=6,
        )
    )


def fusable_tape() -> CompiledTape:
    """Two add kernels from adjacent levels that are provably independent.

    s4 = x0+x1 (level 1, add); s5 = x2*x3 (level 1, mul);
    s6 = s5+x0 (level 2, add — reads only the mul side);
    s7 = s4*s6 (level 3, mul).
    """
    return compile_tape(
        ops_list(
            [indicator(i, i) for i in range(4)],
            [(OP_ADD, 0, 1), (OP_MUL, 2, 3), (OP_ADD, 5, 0), (OP_MUL, 4, 6)],
            root=7,
        )
    )


def tape_batch(tape: CompiledTape, n_rows: int = 16, seed: int = 0) -> np.ndarray:
    n_vars = max((s.var for s in tape.inputs if s.kind == "indicator"), default=-1) + 1
    return random_evidence(max(n_vars, 1), observed_fraction=0.5, seed=seed, n_samples=n_rows)


class TestLiveness:
    def test_chain_max_live_is_exact(self):
        # k0: {x0, x1} + s4 -> 3; k1: {s4, x2} + s5 -> 3; k2: {s5, x3} + s6 -> 3.
        plan = plan_memory(chain_tape(), fuse=False)
        assert plan.max_live == 3
        assert plan.n_physical == plan.max_live  # no fragmentation on a chain
        assert plan.max_live <= plan.n_slots

    def test_balanced_max_live_is_exact(self):
        # k0: {x0..x3} + {s4, s5} -> 6; k1: {s4, s5} + s6 -> 3.
        plan = plan_memory(balanced_tape(), fuse=False)
        assert plan.max_live == 6
        assert plan.n_physical == 6
        assert plan.max_live <= plan.n_slots

    def test_weighted_tape_broadcasts_constants(self):
        # The weight lanes w2/w3 never materialize: k0 keeps {x0, x1} plus
        # its two dests -> 4; k1: {s4, s5} + s6 -> 3.
        plan = plan_memory(weighted_tape(), fuse=False)
        assert plan.max_live == 4
        mul = plan.kernels[0]
        assert mul.const_arg0 is not None and mul.const_arg0.shape == (2, 1)
        assert np.array_equal(mul.const_arg0[:, 0], [0.3, 0.7])

    def test_plan_bounds_on_suite(self):
        for name in benchmark_names():
            tape = benchmark_tape(name)
            plan = tape.memory_plan()
            assert 0 < plan.max_live <= plan.n_physical <= plan.n_slots
            assert plan.reduction > 1.0

    def test_root_survives(self):
        for build in (chain_tape, balanced_tape, weighted_tape, fusable_tape):
            tape = build()
            plan = tape.memory_plan()
            assert 0 <= plan.root_phys < plan.n_physical

    def test_empty_tape_is_rejected(self):
        tape = compile_tape(ops_list([indicator(0, 0)], [], root=0))
        with pytest.raises(ValueError, match="empty tape"):
            plan_memory(tape)

    def test_kernelless_tape_executes_via_legacy_fallback(self):
        tape = compile_tape(ops_list([indicator(0, 0)], [], root=0))
        data = np.array([[1], [0], [-1]])
        out = tape.execute_batch(data)  # no plan: the dense slot matrix
        assert np.array_equal(out, [1.0, 0.0, 1.0])


class TestFusion:
    def test_independent_adds_fuse(self):
        tape = fusable_tape()
        fused = plan_memory(tape, fuse=True)
        unfused = plan_memory(tape, fuse=False)
        assert unfused.n_kernels == 4
        assert fused.n_kernels == 3  # the two add kernels merged
        data = tape_batch(tape)
        for log_domain in (False, True):
            dense = tape.execute_slots(data, log_domain)[tape.root_slot]
            for plan in (fused, unfused):
                assert np.array_equal(execute_plan(plan, data, log_domain), dense)

    def test_fuse_width_caps_groups(self):
        tape = fusable_tape()
        capped = plan_memory(tape, fuse=True, fuse_width=1)
        assert capped.n_kernels == 4  # nothing fits a combined width of 1

    def test_suite_tapes_are_already_maximally_fused(self):
        # Levelization leaves exactly one kernel per (level, opcode) and
        # each level reads the one below it: a total dependency chain, so
        # fusion finds nothing to merge on the suite profiles.  This
        # documents that the (level, opcode) grouping is already maximal.
        tape = benchmark_tape("KDDCup2k")
        assert tape.memory_plan().n_kernels == len(tape.kernels)


class TestExecutors:
    @pytest.mark.parametrize("build", [chain_tape, balanced_tape, weighted_tape, fusable_tape])
    @pytest.mark.parametrize("log_domain", [False, True])
    def test_hand_built_bit_identity(self, build, log_domain):
        tape = build()
        data = tape_batch(tape, n_rows=33)
        dense = tape.execute_slots(data, log_domain)[tape.root_slot]
        for plan in (plan_memory(tape, fuse=True), plan_memory(tape, fuse=False)):
            planned = execute_plan(plan, data, log_domain)
            assert np.array_equal(planned, dense, equal_nan=True)
        if not log_domain:
            assert np.array_equal(tape.execute_batch(data), dense)

    def test_root_written_directly_into_out(self):
        for name in benchmark_names():
            assert benchmark_tape(name).memory_plan().root_direct

    def test_concurrent_first_calls_share_one_plan(self):
        # Serving workers prewarm one tape concurrently: every first call
        # must get the same plan (and so the same per-thread scratch).
        tape = compile_tape(benchmark_operation_list("KDDCup2k"))
        n_threads = 8
        start = threading.Barrier(n_threads, timeout=30)

        def first_call(_):
            start.wait()
            return tape.memory_plan()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                plans = list(pool.map(first_call, range(n_threads), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(plans) == n_threads
        assert all(plan is plans[0] for plan in plans)

    def test_workspace_is_reused_per_thread(self):
        tape = benchmark_tape("Banknote")
        plan = tape.memory_plan()
        plan.reserve(64)
        first = plan.workspace(64)
        second = plan.workspace(32)
        assert second.base is first or second.base is first.base


class TestSessionIntegration:
    def test_query_plan_exposes_peak_slots(self):
        session = InferenceSession("CPU")
        tape = benchmark_tape("CPU")
        query = LogLikelihood(evidence=np.zeros((2, benchmark_n_vars("CPU")), dtype=np.int64))
        plan = session.plan(query)
        assert plan.tape_slots == tape.n_slots
        assert 0 < plan.peak_slots < plan.tape_slots
        assert plan.peak_bytes_per_row == plan.peak_slots * 8

    def test_python_engine_has_no_tape_stats(self):
        session = InferenceSession("Banknote", engine="python")
        query = Likelihood(evidence=np.zeros((1, 4), dtype=np.int64))
        plan = session.plan(query)
        assert plan.tape_slots == 0 and plan.peak_slots == 0

    def test_serving_modes_are_bit_identical(self):
        from repro.serving import InferenceServer

        name = "Banknote"
        data = random_evidence(benchmark_n_vars(name), observed_fraction=0.5, seed=5, n_samples=24)
        offline = InferenceSession(name).run(LogLikelihood(evidence=data))
        with InferenceServer(models=[name]) as server:
            served = server.query(name, data, kind="log_likelihood")
        assert np.array_equal(served, offline)


# --------------------------------------------------------------------------- #
# Hypothesis: the plan == the dense reference on every profile and domain
# --------------------------------------------------------------------------- #
@given(
    name=st.sampled_from(benchmark_names()),
    log_domain=st.booleans(),
    seed=st.integers(0, 2**16),
    n_rows=st.integers(1, 33),
)
@_SETTINGS
def test_plan_bit_identical_to_dense_reference(name, log_domain, seed, n_rows):
    tape = benchmark_tape(name)
    data = random_evidence(
        benchmark_n_vars(name), observed_fraction=0.5, seed=seed, n_samples=n_rows
    )
    planned = execute_plan(tape.memory_plan(), data, log_domain)
    dense = tape.execute_slots(data, log_domain)[tape.root_slot]
    assert np.array_equal(planned, dense, equal_nan=True)
