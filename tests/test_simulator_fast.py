"""Fast (vectorized) simulator mode: equivalence with strict mode and errors.

The acceptance bar for the fast path is *exact* agreement: on every suite
profile the precompiled tapes must reproduce the strict interpreter's cycle
count, output value and utilization counters bit for bit, because they apply
the same IEEE-754 operations to the same operand pairings — only batched.
"""

import numpy as np
import pytest

from repro.compiler.driver import compile_operation_list
from repro.processor.config import ptree_config, pvect_config
from repro.processor.errors import (
    StructuralHazardError,
    UninitializedReadError,
    VerificationError,
)
from repro.processor.fastsim import fast_program, precompile_program
from repro.processor.isa import (
    OP_ADD,
    OP_MUL,
    Instruction,
    MemOp,
    Program,
    ReadSpec,
    WriteSpec,
)
from repro.processor.simulator import (
    MODE_FAST,
    MODE_STRICT,
    Simulator,
    cross_check_modes,
    simulate_program,
)
from repro.suite.registry import benchmark_names, benchmark_operation_list

_COUNTERS = ("cycles", "n_reads", "n_writes", "n_loads", "n_stores")

#: Cycle counts of the Fig. 4 processor points.  They pin the schedules the
#: compiler emits: a change that alters any program shows up here, even when
#: it keeps fast and strict mode in agreement.
GOLDEN_CYCLES = {
    "Ptree": {
        "Audio": 416,
        "BBC": 476,
        "Banknote": 65,
        "Bio response": 420,
        "CPU": 228,
        "EEG-eye": 154,
        "KDDCup2k": 278,
        "MSNBC": 188,
        "Netflix": 363,
    },
    "Pvect": {
        "Audio": 489,
        "BBC": 547,
        "Banknote": 69,
        "Bio response": 539,
        "CPU": 210,
        "EEG-eye": 149,
        "KDDCup2k": 266,
        "MSNBC": 181,
        "Netflix": 360,
    },
}


def _single_op_program(opcode, config):
    """Load two inputs from dmem row 0 (banks 0 and 1) and combine them."""
    instructions = [Instruction(mem=MemOp(kind="load", row=0, reg=0))]
    instructions.extend(Instruction() for _ in range(config.load_latency))
    instructions.append(
        Instruction(
            reads=[
                ReadSpec(port=(0, 0), bank=0, reg=0, slot=0),
                ReadSpec(port=(0, 1), bank=1, reg=0, slot=1),
            ],
            pe_ops={(0, 0, 0): opcode},
            writes=[WriteSpec(pe=(0, 0, 0), bank=0, reg=1, slot=2)],
        )
    )
    return Program(
        instructions=instructions,
        dmem_image=[[0, 1] + [None] * (config.n_banks - 2)],
        result_location=(0, 1),
        result_slot=2,
        n_operations=1,
    )


class TestSuiteEquivalence:
    """Fast mode reproduces strict mode exactly on all nine suite profiles."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_fast_matches_strict_exactly(self, name):
        ops = benchmark_operation_list(name)
        config = ptree_config()
        kernel = compile_operation_list(ops, config)
        vec = ops.input_vector(None)
        expected = ops.execute_values(vec)

        strict = Simulator(config, strict=True, mode=MODE_STRICT).run(
            kernel.program, vec, expected
        )
        fast = Simulator(config, mode=MODE_FAST).run(kernel.program, vec)

        assert strict.cycles == GOLDEN_CYCLES["Ptree"][name]
        assert fast.value == strict.value  # exact, no tolerance
        for counter in _COUNTERS:
            assert getattr(fast, counter) == getattr(strict, counter), counter
        assert fast.ops_per_cycle == strict.ops_per_cycle

    @pytest.mark.parametrize("name", benchmark_names())
    def test_pvect_cycles_match_golden(self, name):
        kernel = compile_operation_list(benchmark_operation_list(name), pvect_config())
        assert kernel.run(None, strict=True).cycles == GOLDEN_CYCLES["Pvect"][name]

    def test_pvect_configuration_agrees_too(self):
        ops = benchmark_operation_list("Banknote")
        config = pvect_config()
        kernel = compile_operation_list(ops, config)
        vec = ops.input_vector(None)
        cross_check_modes(kernel.program, vec, config, ops.execute_values(vec))

    def test_fast_agrees_across_evidence(self):
        """Same program, several input vectors: values always match strict."""
        ops = benchmark_operation_list("EEG-eye")
        config = ptree_config()
        kernel = compile_operation_list(ops, config)
        for assignment in ({0: 1}, {0: 0, 1: 1}, None):
            vec = ops.input_vector(assignment)
            strict = Simulator(config, strict=False, mode=MODE_STRICT).run(
                kernel.program, vec
            )
            fast = Simulator(config, mode=MODE_FAST).run(kernel.program, vec)
            assert fast.value == strict.value


class TestModeSelection:
    def test_default_strict_interprets(self):
        assert Simulator(ptree_config()).mode == MODE_STRICT

    def test_non_strict_defaults_to_fast(self):
        assert Simulator(ptree_config(), strict=False).mode == MODE_FAST

    def test_explicit_mode_wins(self):
        assert Simulator(ptree_config(), strict=False, mode=MODE_STRICT).mode == MODE_STRICT

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            Simulator(ptree_config(), mode="warp")

    def test_simulate_program_check_cross_checks(self):
        config = ptree_config()
        program = _single_op_program(OP_ADD, config)
        result = simulate_program(program, [2.0, 3.0, 5.0], config, check=True)
        assert result.value == pytest.approx(5.0)


class TestFastSemantics:
    @pytest.mark.parametrize("opcode,expected", [(OP_ADD, 5.0), (OP_MUL, 6.0)])
    def test_single_operation(self, opcode, expected):
        config = ptree_config()
        program = _single_op_program(opcode, config)
        result = Simulator(config, mode=MODE_FAST).run(program, [2.0, 3.0, 0.0])
        assert result.value == pytest.approx(expected)
        assert result.n_operations == 1
        assert result.n_loads == 1

    def test_input_root_program(self):
        config = ptree_config()
        program = Program(
            instructions=[], dmem_image=[], result_location=None, result_slot=1
        )
        result = Simulator(config, mode=MODE_FAST).run(program, [0.25, 0.75])
        assert result.value == pytest.approx(0.75)

    def test_kernel_memoizes_fast_form(self):
        ops = benchmark_operation_list("Banknote")
        config = ptree_config()
        kernel = compile_operation_list(ops, config)
        strict_value = kernel.run(None, strict=True).value
        fast_first = kernel.run(None, strict=False)
        assert kernel._fast_form is not None
        memo = kernel._fast_form
        fast_second = kernel.run(None, strict=False)
        assert kernel._fast_form is memo  # reused, not rebuilt
        assert fast_first.value == strict_value == fast_second.value

    def test_precompiled_requires_fast_mode(self):
        config = ptree_config()
        program = _single_op_program(OP_ADD, config)
        compiled = fast_program(program, config)
        with pytest.raises(ValueError, match="fast mode"):
            Simulator(config, strict=True).run(
                program, [2.0, 3.0, 5.0], precompiled=compiled
            )

    def test_tape_reuse_across_inputs(self):
        config = ptree_config()
        program = _single_op_program(OP_MUL, config)
        compiled = fast_program(program, config)
        assert fast_program(program, config) is compiled  # cached
        sim = Simulator(config, mode=MODE_FAST)
        assert sim.run(program, [2.0, 3.0, 0.0]).value == pytest.approx(6.0)
        assert sim.run(program, [4.0, 5.0, 0.0]).value == pytest.approx(20.0)

    def test_mutating_the_program_invalidates_the_cache(self):
        config = ptree_config()
        program = _single_op_program(OP_ADD, config)
        sim = Simulator(config, mode=MODE_FAST)
        assert sim.run(program, [2.0, 3.0, 0.0]).value == pytest.approx(5.0)
        # Change the opcode in place: the content key changes, so the cached
        # tape for the old content cannot be served.
        compute = program.instructions[-1]
        compute.pe_ops[(0, 0, 0)] = OP_MUL
        assert sim.run(program, [2.0, 3.0, 0.0]).value == pytest.approx(6.0)


class TestFastErrors:
    def test_uninitialized_read_detected_at_precompile(self):
        config = ptree_config()
        program = _single_op_program(OP_ADD, config)
        early_read = Instruction(
            reads=[
                ReadSpec(port=(0, 0), bank=0, reg=1),
                ReadSpec(port=(0, 1), bank=1, reg=0),
            ],
            pe_ops={(0, 0, 0): "pass_a"},
            writes=[WriteSpec(pe=(0, 0, 0), bank=0, reg=2)],
        )
        program.instructions.append(early_read)
        with pytest.raises(UninitializedReadError):
            precompile_program(program, config)

    def test_missing_result_register_detected(self):
        config = ptree_config()
        program = Program(
            instructions=[Instruction()],
            dmem_image=[],
            result_location=(0, 0),
            result_slot=0,
        )
        with pytest.raises(UninitializedReadError):
            Simulator(config, mode=MODE_FAST).run(program, [1.0])

    def test_short_input_vector_detected_at_run_time(self):
        config = ptree_config()
        program = _single_op_program(OP_ADD, config)
        sim = Simulator(config, mode=MODE_FAST)
        with pytest.raises(StructuralHazardError, match="input slot"):
            sim.run(program, [2.0])

    def test_negative_image_slot_detected_not_wrapped(self):
        """A negative dmem-image slot must raise, never gather values[-1]."""
        config = ptree_config()
        program = _single_op_program(OP_ADD, config)
        program.dmem_image[0][1] = -1
        with pytest.raises(StructuralHazardError, match="input slot -1"):
            Simulator(config, mode=MODE_FAST).run(program, [2.0, 3.0, 0.0])
        with pytest.raises(StructuralHazardError, match="input slot -1"):
            Simulator(config, strict=True).run(program, [2.0, 3.0, 0.0])

    def test_crossbar_conflict_detected(self):
        config = ptree_config()
        program = _single_op_program(OP_ADD, config)
        compute = program.instructions[-1]
        compute.reads.append(
            ReadSpec(port=(1, 0), bank=0, reg=5)  # same bank, different register
        )
        with pytest.raises((StructuralHazardError, UninitializedReadError)):
            precompile_program(program, config)

    def test_mode_disagreement_is_reported(self, monkeypatch):
        """cross_check_modes flags any field divergence as VerificationError."""
        config = ptree_config()
        program = _single_op_program(OP_ADD, config)
        import repro.processor.simulator as simulator_module

        compiled = fast_program(program, config)
        monkeypatch.setattr(simulator_module, "fast_program", lambda *_: compiled)
        monkeypatch.setattr(compiled, "cycles", compiled.cycles + 1)
        with pytest.raises(VerificationError, match="disagrees"):
            cross_check_modes(program, [2.0, 3.0, 0.0], config)
