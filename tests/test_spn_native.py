"""Tests for the native plan interpreter (:mod:`repro.spn.native`).

Covers bit-identity with the dense reference (``execute_slots``) across
block boundaries, evidence widths and dtypes and every operand-kind branch
of the C loop, on the host-width build and on the portable one; that linear
passes really run natively when a compiler exists (and profiled or
exact-log passes do not); the fallback chain (a compiler that rejects the
host-width flags builds the portable library, no working build runs
NumPy); that the source compiles without warnings and without FMA
instructions; the plan checks that keep a malformed plan out of C;
concurrent passes over one plan; and one build under concurrent first
calls.
"""

import logging
import os
import platform
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.observability import TapeProfiler
from repro.spn import native
from repro.spn.compiled import compile_tape
from repro.spn.generate import random_evidence
from repro.spn.linearize import OP_ADD, OP_MUL, InputSlot, Operation, OperationList
from repro.spn.memplan import MemoryPlan, execute_plan
from repro.suite.registry import benchmark_n_vars, benchmark_names, benchmark_tape

needs_compiler = pytest.mark.skipif(
    native._find_compiler() is None, reason="no C compiler on PATH"
)

B = native.BLOCK
#: Pass heights around the block boundaries: short passes, one full block,
#: a full block plus a tail one short of, equal to and one past an 8-double
#: vector, and several full blocks plus a tail.
BOUNDARY_ROWS = sorted({0, 1, B - 1, B, B + 1, B + 7, B + 8, B + 9, 2 * B + 3, 100})


def dense_root(tape, data, log_domain=False, chunk=512):
    """The dense reference root, in row chunks (rows are independent)."""
    parts = [
        tape.execute_slots(data[i : i + chunk], log_domain)[tape.root_slot]
        for i in range(0, len(data), chunk)
    ]
    return np.concatenate(parts) if parts else np.empty(0)


def evidence(name, n_rows, width=None, seed=0):
    """Evidence for ``name`` with ``width`` columns (surplus ones random)."""
    n_vars = benchmark_n_vars(name)
    data = random_evidence(n_vars, observed_fraction=0.6, seed=seed, n_samples=n_rows)
    width = n_vars if width is None else width
    if width <= n_vars:
        return np.ascontiguousarray(data[:, :width])
    extra = np.random.default_rng(seed).integers(-1, 2, size=(n_rows, width - n_vars))
    return np.concatenate([data, extra], axis=1)


@pytest.fixture(scope="module")
def builds():
    """Each flag set's interpreter, built once per module (``None``: rejected)."""
    return {
        flags: native._build((flags,))[0]
        for flags in (native.HOST_FLAGS, native.PORTABLE_FLAGS)
    }


def forget_build(monkeypatch):
    """Forget the loaded interpreter, so the next pass builds it again."""
    monkeypatch.setattr(native, "_function", native._UNBUILT)
    monkeypatch.setattr(native, "_flags", ())


def indicator(index, value=1):
    return InputSlot(index=index, kind="indicator", var=index, value=value)


def tape_of(inputs, ops, root):
    return compile_tape(
        OperationList(
            inputs=inputs,
            operations=[
                Operation(index=i, op=op, arg0=a, arg1=b) for i, (op, a, b) in enumerate(ops)
            ],
            root_slot=root,
        )
    )


#: Operand kinds of a kernel's two sides: a row ("row") or a broadcast
#: constant ("const"), a weight read by no other lane.
OPERAND_KINDS = ("row_row", "const_row", "row_const", "const_const")


def hand_built_tape(kind, root_direct):
    """A tape whose first add and first mul kernels both read ``kind`` operands.

    A final mul multiplies the two; with ``root_direct`` off it gets a
    second, dead lane and the root is that kernel's second lane, so every
    block copies the root row out instead of computing into the output.
    """
    sides = kind.split("_")
    inputs = []
    args = []
    for lane in range(4):  # add(arg0, arg1), mul(arg0, arg1)
        index = len(inputs)
        if sides[lane % 2] == "row":
            inputs.append(indicator(index, value=lane % 2))
        else:
            inputs.append(InputSlot(index=index, kind="weight", prob=0.2 + 0.15 * lane))
        args.append(index)
    n = len(inputs)
    ops = [(OP_ADD, args[0], args[1]), (OP_MUL, args[2], args[3]), (OP_MUL, n, n + 1)]
    if not root_direct:
        ops.append((OP_MUL, n + 1, n))
    tape = tape_of(inputs, ops, n + len(ops) - 1)
    meta = tape.memory_plan()._kernel_meta
    assert {(bool(c0), bool(c1)) for c0, c1 in zip(meta["c0"][:2], meta["c1"][:2])} == {
        (sides[0] == "const", sides[1] == "const")
    }
    return tape


@needs_compiler
class TestBitIdentity:
    """The identity matrix on the host-width build."""

    FLAGS = native.HOST_FLAGS

    @pytest.fixture(autouse=True)
    def _use_build(self, builds, monkeypatch):
        function = builds[self.FLAGS]
        if function is None:
            pytest.skip(f"the compiler rejects {' '.join(self.FLAGS)}")
        monkeypatch.setattr(native, "_function", function)
        monkeypatch.setattr(native, "_flags", self.FLAGS)

    @pytest.mark.parametrize("name", benchmark_names())
    @pytest.mark.parametrize("n_rows", BOUNDARY_ROWS)
    def test_suite_roots_equal_dense_reference(self, name, n_rows):
        tape = benchmark_tape(name)
        plan = tape.memory_plan()
        n_vars = benchmark_n_vars(name)
        for width in (n_vars, n_vars + 3, n_vars // 2, 0):
            data = evidence(name, n_rows, width, seed=n_rows)
            root = native.execute(plan, data)
            assert root.shape == (n_rows,)
            assert np.array_equal(root, dense_root(tape, data))

    @pytest.mark.parametrize(
        "case",
        ["row_row", "const_row", "row_const", "const_const", "root_copied_out", "constant_rows"],
    )
    def test_hand_built_plans_equal_dense_reference(self, case):
        if case == "root_copied_out":
            # Every operand kind with the root copied out of the block.
            tapes = [hand_built_tape(kind, root_direct=False) for kind in OPERAND_KINDS]
        elif case == "constant_rows":
            # The weight is read by two kernels, so it is not a broadcast
            # operand: its row is encoded into the block like an indicator.
            inputs = [indicator(0), indicator(1, 0), InputSlot(index=2, kind="weight", prob=0.3)]
            tapes = [tape_of(inputs, [(OP_MUL, 2, 0), (OP_MUL, 3, 1), (OP_ADD, 4, 2)], 5)]
            assert tapes[0].memory_plan()._encode_meta[5].size  # constant rows to encode
        else:
            tapes = [hand_built_tape(case, root_direct=True)]
        for tape in tapes:
            plan = tape.memory_plan()
            assert plan.root_direct == (case != "root_copied_out")
            for n_rows in (B - 1, 2 * B + 3):  # a short pass; full blocks and a tail
                data = random_evidence(
                    len(tape.inputs), observed_fraction=0.6, seed=n_rows, n_samples=n_rows
                )
                assert np.array_equal(native.execute(plan, data), dense_root(tape, data))

    @pytest.mark.parametrize("name", ["Banknote", "KDDCup2k"])
    def test_large_batch_equals_dense_reference(self, name):
        tape = benchmark_tape(name)
        for width in (benchmark_n_vars(name), benchmark_n_vars(name) + 3, 5):
            data = evidence(name, 4133, width, seed=width)
            assert np.array_equal(tape.execute_batch(data), dense_root(tape, data))

    def test_log_pass_equals_numpy_executor(self):
        tape = benchmark_tape("Audio")
        data = evidence("Audio", 77)
        with TapeProfiler():  # profiled passes run the NumPy loop
            numpy_log = tape.execute_batch(data, log_domain=True)
        assert np.array_equal(tape.execute_batch(data, log_domain=True), numpy_log)

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int32, np.uint8, np.float64, np.float32]
    )
    def test_evidence_dtypes_agree(self, dtype):
        tape = benchmark_tape("EEG-eye")
        data = evidence("EEG-eye", 40)
        if np.dtype(dtype).kind == "u":
            data = np.maximum(data, 0)
        expected = dense_root(tape, data)
        assert np.array_equal(tape.execute_batch(data.astype(dtype)), expected)

    def test_non_contiguous_evidence(self):
        tape = benchmark_tape("CPU")
        data = evidence("CPU", 90, benchmark_n_vars("CPU") + 3)
        view = data[::2, : benchmark_n_vars("CPU")]
        assert not view.flags.c_contiguous
        assert np.array_equal(tape.execute_batch(view), dense_root(tape, view))


class TestPortableBitIdentity(TestBitIdentity):
    """The same matrix on the portable build, which hosts load when ``-march=native`` fails."""

    FLAGS = native.PORTABLE_FLAGS


@needs_compiler
class TestDispatch:
    def test_linear_passes_run_native(self, monkeypatch):
        assert native.available()
        tape = benchmark_tape("Banknote")
        calls, workspaces = [], []
        execute = native.execute
        workspace = MemoryPlan.workspace

        def spy(plan, data):
            calls.append(len(data))
            return execute(plan, data)

        def spy_workspace(plan, n_rows):
            workspaces.append(n_rows)
            return workspace(plan, n_rows)

        monkeypatch.setattr(native, "execute", spy)
        monkeypatch.setattr(MemoryPlan, "workspace", spy_workspace)
        data = evidence("Banknote", 12)
        tape.execute_batch(data)
        tape.execute_batch(data, log_domain=True)  # every row above the floor
        assert calls == [12, 12] and workspaces == []

        with TapeProfiler():
            tape.execute_batch(data)
        assert calls == [12, 12] and workspaces == [12]

    def test_concurrent_passes_over_one_plan(self):
        # Each call owns its block buffer: a buffer shared per plan mixed
        # rows of concurrent passes while ctypes had released the GIL.
        tape = benchmark_tape("KDDCup2k")
        plan = tape.memory_plan()
        batches = [evidence("KDDCup2k", 1 + 7 * i, seed=i) for i in range(24)]
        expected = [execute_plan(plan, rows) for rows in batches]

        def run(i):
            return all(
                np.array_equal(native.execute(plan, batches[i]), expected[i])
                for _ in range(20)
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(run, range(len(batches)), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == [True] * len(batches)


class TestBuild:
    @pytest.mark.skipif(
        os.path.basename(native._find_compiler() or "") != "gcc",
        reason="only gcc is relied on to accept -march=native",
    )
    def test_default_build_is_host_width(self):
        assert native.available()
        assert native.build_flags() == native.HOST_FLAGS

    @needs_compiler
    @pytest.mark.parametrize(
        "flags", [native.HOST_FLAGS, native.PORTABLE_FLAGS], ids=["host", "portable"]
    )
    def test_source_compiles_without_warnings(self, builds, flags):
        if builds[flags] is None:
            pytest.skip(f"the compiler rejects {' '.join(flags)}")
        function, _, note = native._build(((*flags, "-Wall", "-Wextra", "-Werror"),))
        assert function is not None, note

    @pytest.mark.skipif(
        native._find_compiler() is None or platform.machine().lower() not in ("x86_64", "amd64"),
        reason="needs a C compiler on an x86-64 host",
    )
    def test_host_build_emits_no_fma(self, builds, tmp_path):
        # A fused multiply-add rounds once where the dense reference rounds
        # twice, so one FMA anywhere breaks bit-identity.
        if builds[native.HOST_FLAGS] is None:
            pytest.skip(f"the compiler rejects {' '.join(native.HOST_FLAGS)}")

        def fma_instructions(source, flags):
            c_file, asm = tmp_path / "source.c", tmp_path / "source.s"
            c_file.write_text(source)
            subprocess.run(
                [native._find_compiler(), *flags, "-S", "-o", str(asm), str(c_file)],
                check=True, capture_output=True, timeout=120,
            )
            return re.findall(r"\bv(?:fmadd|fmsub|fnmadd|fnmsub)\w*", asm.read_text())

        assert fma_instructions(native._SOURCE, native.HOST_FLAGS) == []
        # The flags, not the source's shape, keep them out: the same
        # multiply-add loop compiles to FMAs once contraction is allowed.
        axpy = (
            "void axpy(double c, const double *x, double *y, long n)\n"
            "{ for (long r = 0; r < n; r++) y[r] = c * x[r] + y[r]; }\n"
        )
        assert fma_instructions(axpy, ("-O3", "-mfma"))
        assert fma_instructions(axpy, (*native.HOST_FLAGS, "-mfma")) == []

    def test_concurrent_first_calls_build_once(self, monkeypatch):
        built = []

        def slow_build():
            built.append(threading.get_ident())
            time.sleep(0.05)
            return (lambda *args: 0), native.HOST_FLAGS, ""

        monkeypatch.setattr(native, "_build", slow_build)
        forget_build(monkeypatch)
        n_threads = 8
        start = threading.Barrier(n_threads, timeout=30)

        def first_call(_):
            start.wait()
            return native.available()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                results = list(pool.map(first_call, range(n_threads), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert results == [True] * n_threads
        assert len(built) == 1
        assert native.build_flags() == native.HOST_FLAGS


def _failing_temp_dir(*args, **kwargs):
    raise OSError("no space left on device")


class TestFallback:
    @pytest.mark.parametrize("failure", ["no compiler", "compiler missing", "no temp dir"])
    def test_failed_build_runs_numpy_with_identical_answers(
        self, failure, monkeypatch, caplog
    ):
        tape = benchmark_tape("MSNBC")
        data = evidence("MSNBC", 45)
        before = tape.execute_batch(data), tape.execute_batch(data, log_domain=True)
        compiles = []
        run = native.subprocess.run

        def counted_run(command, **kwargs):
            compiles.append(command)
            return run(command, **kwargs)

        monkeypatch.setattr(native.subprocess, "run", counted_run)
        if failure == "no compiler":
            monkeypatch.setattr(native, "_find_compiler", lambda: None)
        elif failure == "compiler missing":
            monkeypatch.setattr(native, "_find_compiler", lambda: "/nonexistent/cc")
        else:
            monkeypatch.setattr(native.tempfile, "TemporaryDirectory", _failing_temp_dir)
        forget_build(monkeypatch)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.spn"):
            assert not native.available()
            assert not native.available()
        warnings = [r for r in caplog.records if "NumPy" in r.getMessage()]
        assert len(warnings) == 1  # logged once, not per pass
        assert native.build_flags() == ()
        # Only a compiler that ran and exited non-zero gets the portable flags.
        assert len(compiles) == (1 if failure == "compiler missing" else 0)
        after = tape.execute_batch(data), tape.execute_batch(data, log_domain=True)
        assert np.array_equal(after[0], before[0])
        assert np.array_equal(after[1], before[1])
        assert np.array_equal(after[0], dense_root(tape, data))

    @needs_compiler
    def test_rejected_host_flags_build_portable_with_identical_answers(
        self, monkeypatch, caplog
    ):
        tape = benchmark_tape("KDDCup2k")
        data = evidence("KDDCup2k", 45)
        expected = dense_root(tape, data)
        before_log = tape.execute_batch(data, log_domain=True)
        # An unknown flag makes the compiler exit non-zero, as one that
        # rejects -march=native does.
        monkeypatch.setattr(native, "HOST_FLAGS", (*native.HOST_FLAGS, "-fno-such-option"))
        calls = []
        execute = native.execute

        def spy(plan, rows):
            calls.append(len(rows))
            return execute(plan, rows)

        monkeypatch.setattr(native, "execute", spy)
        forget_build(monkeypatch)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="repro.spn"):
            assert native.available()
            assert native.available()
        assert native.build_flags() == native.PORTABLE_FLAGS
        records = [r for r in caplog.records if "native plan interpreter" in r.getMessage()]
        assert len(records) == 1  # logged once, not per pass
        assert records[0].levelno == logging.WARNING
        assert "-fno-such-option" in records[0].getMessage()
        assert " ".join(native.PORTABLE_FLAGS) in records[0].getMessage()
        assert np.array_equal(tape.execute_batch(data), expected)
        assert np.array_equal(tape.execute_batch(data, log_domain=True), before_log)
        assert calls == [45, 45]  # both passes ran on the portable build


class TestPlanChecks:
    def plan(self) -> MemoryPlan:
        return benchmark_tape("Banknote").memory_plan()

    def rebuilt(self, plan, **changes) -> MemoryPlan:
        fields = dict(
            kernels=plan.kernels, n_physical=plan.n_physical, max_live=plan.max_live,
            n_slots=plan.n_slots, n_inputs=plan.n_inputs, root_phys=plan.root_phys,
            root_direct=plan.root_direct,
        )
        fields.update(changes)
        return MemoryPlan(**fields)

    def test_operand_row_outside_the_buffer(self):
        plan = self.plan()
        kernels = list(plan.kernels)
        index = next(i for i, k in enumerate(kernels) if k.arg0.size)
        arg0 = kernels[index].arg0.copy()
        arg0[0] = plan.n_physical
        kernels[index] = replace(kernels[index], arg0=arg0, arg0_slice=None)
        with pytest.raises(ValueError, match="operand 0 rows outside"):
            native._plan_args(self.rebuilt(plan, kernels=kernels))

    def test_encode_row_outside_the_buffer(self):
        plan = self.plan()
        kernels = list(plan.kernels)
        index = next(i for i, k in enumerate(kernels) if k.encode is not None)
        encode = kernels[index].encode
        rows = encode.ind_rows.copy()
        rows[-1] = -1
        kernels[index] = replace(
            kernels[index], encode=replace(encode, ind_rows=rows, ind_slice=None)
        )
        with pytest.raises(ValueError, match="indicator rows outside"):
            native._plan_args(self.rebuilt(plan, kernels=kernels))

    def test_root_outside_the_buffer(self):
        plan = self.plan()
        with pytest.raises(ValueError, match="root row"):
            native._plan_args(self.rebuilt(plan, root_phys=plan.n_physical))

    def test_root_direct_needs_a_one_lane_final_kernel(self):
        plan = self.plan()
        kernels = list(plan.kernels)
        last = kernels[-1]
        kernels[-1] = kernels[0]  # wider than one lane
        assert kernels[-1].width > 1 and last.width == 1
        with pytest.raises(ValueError, match="root_direct"):
            native._plan_args(self.rebuilt(plan, kernels=kernels, root_direct=True))

    def test_valid_plan_args_are_cached(self):
        plan = self.plan()
        assert native._plan_args(plan) is native._plan_args(plan)
