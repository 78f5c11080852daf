"""Tests for the cycle-accurate simulator: small hand-written programs and the
18 compiled Fig. 4 programs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.driver import compile_operation_list
from repro.processor.config import ptree_config, pvect_config
from repro.processor.errors import (
    StructuralHazardError,
    UninitializedReadError,
    VerificationError,
)
from repro.processor.isa import (
    OP_ADD,
    OP_MUL,
    OP_PASS_A,
    Instruction,
    MemOp,
    Program,
    ReadSpec,
    WriteSpec,
)
from repro.processor.simulator import Simulator
from repro.suite.registry import benchmark_operation_list

#: Cycle counts of the Fig. 4 processor points.  They pin the schedules the
#: compiler emits: a change that alters any program shows up here.
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
_FIG4_POINTS = [
    (platform, name) for platform in ("Pvect", "Ptree") for name in GOLDEN_CYCLES[platform]
]


def _load_instruction(row: int, reg: int) -> Instruction:
    return Instruction(mem=MemOp(kind="load", row=row, reg=reg))


def _single_op_program(opcode: str, config) -> Program:
    """Load two inputs from dmem row 0 (banks 0 and 1) and combine them."""
    wait = config.load_latency
    instructions = [_load_instruction(0, 0)]
    instructions.extend(Instruction() for _ in range(wait))
    compute = Instruction(
        reads=[
            ReadSpec(port=(0, 0), bank=0, reg=0, slot=0),
            ReadSpec(port=(0, 1), bank=1, reg=0, slot=1),
        ],
        pe_ops={(0, 0, 0): opcode},
        writes=[WriteSpec(pe=(0, 0, 0), bank=0, reg=1, slot=2)],
    )
    instructions.append(compute)
    dmem = [[0, 1] + [None] * (config.n_banks - 2)]
    return Program(
        instructions=instructions,
        dmem_image=dmem,
        result_location=(0, 1),
        result_slot=2,
        n_operations=1,
    )


class TestSingleOperation:
    @pytest.mark.parametrize("opcode,expected", [(OP_ADD, 5.0), (OP_MUL, 6.0)])
    def test_add_and_mul(self, opcode, expected):
        config = ptree_config()
        program = _single_op_program(opcode, config)
        result = Simulator(config).run(program, [2.0, 3.0, 0.0])
        assert result.value == pytest.approx(expected)
        assert result.n_operations == 1
        assert result.n_loads == 1

    def test_strict_mode_checks_values(self):
        config = ptree_config()
        program = _single_op_program(OP_ADD, config)
        expected = np.array([2.0, 3.0, 5.0])
        result = Simulator(config).run(program, [2.0, 3.0], expected)
        assert result.value == pytest.approx(5.0)

    def test_strict_mode_detects_wrong_expectation(self):
        config = ptree_config()
        program = _single_op_program(OP_ADD, config)
        wrong = np.array([2.0, 3.0, 99.0])
        with pytest.raises(VerificationError):
            Simulator(config).run(program, [2.0, 3.0], wrong)

    def test_cycle_count_includes_drain(self):
        config = ptree_config()
        program = _single_op_program(OP_ADD, config)
        result = Simulator(config).run(program, [1.0, 1.0, 0.0])
        assert result.cycles >= program.n_instructions

    def test_works_on_pvect_too(self):
        config = pvect_config()
        program = _single_op_program(OP_MUL, config)
        result = Simulator(config).run(program, [4.0, 2.5, 0.0])
        assert result.value == pytest.approx(10.0)


def _assert_decides_like_isclose(transported: float, expected: float) -> None:
    """The strict check refuses ``transported`` exactly when ``np.isclose``
    (rtol 1e-9, atol 1e-12) says it is not close to ``expected``."""
    simulator = Simulator(ptree_config())
    try:
        simulator._check_value(np.array([expected]), 0, transported, "read")
        rejected = False
    except VerificationError:
        rejected = True
    assert rejected == (not np.isclose(transported, expected, rtol=1e-9, atol=1e-12))


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
#: Relative offsets around the 1e-9 tolerance, so pairs land on both sides.
_FACTORS = st.sampled_from(
    [1.0, 1 + 5e-10, 1 - 5e-10, 1 + 1e-9, 1 - 1e-9, 1 + 2e-9, 1 - 2e-9, -1.0]
)
_EDGE_PAIRS = [
    (1 + 1e-9, 1.0),
    (1 - 1e-9, 1.0),
    (3.7 * (1 + 1e-9), 3.7),
    (3.7 * (1 - 1e-9), 3.7),
    (1e-3 * (1 + 1e-9), 1e-3),
    (0.0, 1e-12),
    (0.0, -1e-12),
    (1e-12, 0.0),
    (-1e-12, 0.0),
    (0.0, 2e-12),
    (0.0, -2e-12),
    (2e-12, 0.0),
    (-2e-12, 0.0),
    (0.0, -0.0),
    (5e-324, 0.0),
    (math.inf, math.inf),
    (-math.inf, -math.inf),
    (math.inf, -math.inf),
    (-math.inf, math.inf),
    (math.nan, math.nan),
    (math.nan, 1.0),
    (1.0, math.nan),
    (1.0, math.inf),
    (math.inf, 1.0),
    (1.7e308, math.inf),
    (math.inf, 1.7e308),
]


class TestStrictValueCheck:
    @pytest.mark.parametrize("transported,expected", _EDGE_PAIRS)
    def test_edge_pairs_decide_like_isclose(self, transported, expected):
        _assert_decides_like_isclose(transported, expected)

    @settings(max_examples=300, deadline=None)
    @given(_FLOATS, _FLOATS)
    def test_arbitrary_pairs_decide_like_isclose(self, transported, expected):
        _assert_decides_like_isclose(transported, expected)

    @settings(max_examples=300, deadline=None)
    @given(_FLOATS, _FACTORS)
    def test_nearby_pairs_decide_like_isclose(self, expected, factor):
        _assert_decides_like_isclose(expected * factor, expected)


class TestPipelineSemantics:
    def test_result_not_visible_before_latency(self):
        """Reading the destination register too early must return the old value."""
        config = ptree_config()
        program = _single_op_program(OP_ADD, config)
        # Append an immediate read of the destination into another operation.
        early_read = Instruction(
            reads=[
                ReadSpec(port=(0, 0), bank=0, reg=1),
                ReadSpec(port=(0, 1), bank=1, reg=0),
            ],
            pe_ops={(0, 0, 0): OP_PASS_A},
            writes=[WriteSpec(pe=(0, 0, 0), bank=0, reg=2)],
        )
        program.instructions.append(early_read)
        with pytest.raises(UninitializedReadError):
            # bank0/reg1 is written with latency, so the immediate read sees
            # an uninitialized register.
            Simulator(config).run(program, [2.0, 3.0, 0.0])

    def test_pass_through_cone(self):
        """A full tree of pass-throughs moves one value without arithmetic."""
        config = ptree_config()
        wait = config.load_latency
        instructions = [_load_instruction(0, 0)]
        instructions.extend(Instruction() for _ in range(wait))
        instructions.append(
            Instruction(
                reads=[ReadSpec(port=(0, 0), bank=0, reg=0, slot=0)],
                pe_ops={
                    (0, 0, 0): OP_PASS_A,
                    (0, 1, 0): OP_PASS_A,
                    (0, 2, 0): OP_PASS_A,
                    (0, 3, 0): OP_PASS_A,
                },
                writes=[WriteSpec(pe=(0, 3, 0), bank=5, reg=0, slot=0)],
            )
        )
        dmem = [[0] + [None] * (config.n_banks - 1)]
        program = Program(
            instructions=instructions,
            dmem_image=dmem,
            result_location=(5, 0),
            result_slot=0,
            n_operations=0,
        )
        result = Simulator(config).run(program, [7.5])
        assert result.value == pytest.approx(7.5)
        assert result.n_operations == 0

    def test_deep_cone_in_one_instruction(self):
        """A 3-operation cone computed entirely inside one tree."""
        config = ptree_config()
        wait = config.load_latency
        instructions = [_load_instruction(0, 0)]
        instructions.extend(Instruction() for _ in range(wait))
        # (a*b) + (c*d) with a,b,c,d in banks 0..3.
        instructions.append(
            Instruction(
                reads=[
                    ReadSpec(port=(0, 0), bank=0, reg=0),
                    ReadSpec(port=(0, 1), bank=1, reg=0),
                    ReadSpec(port=(0, 2), bank=2, reg=0),
                    ReadSpec(port=(0, 3), bank=3, reg=0),
                ],
                pe_ops={
                    (0, 0, 0): OP_MUL,
                    (0, 0, 1): OP_MUL,
                    (0, 1, 0): OP_ADD,
                },
                writes=[WriteSpec(pe=(0, 1, 0), bank=2, reg=1)],
            )
        )
        dmem = [[0, 1, 2, 3] + [None] * (config.n_banks - 4)]
        program = Program(
            instructions=instructions,
            dmem_image=dmem,
            result_location=(2, 1),
            result_slot=0,
            n_operations=3,
        )
        result = Simulator(config).run(program, [2.0, 3.0, 4.0, 5.0])
        assert result.value == pytest.approx(2 * 3 + 4 * 5)
        assert result.n_operations == 3

    def test_store_writes_back_to_memory(self):
        config = ptree_config()
        program = _single_op_program(OP_ADD, config)
        # Store the result row back to data memory after it commits.
        drain = config.result_latency(1)
        program.instructions.extend(Instruction() for _ in range(drain))
        program.instructions.append(Instruction(mem=MemOp(kind="store", row=1, reg=1)))
        result = Simulator(config).run(program, [2.0, 3.0, 0.0])
        assert result.n_stores == 1
        assert result.value == pytest.approx(5.0)


class TestResultExtraction:
    def test_input_root(self):
        config = ptree_config()
        program = Program(
            instructions=[], dmem_image=[], result_location=None, result_slot=1, n_operations=0
        )
        result = Simulator(config).run(program, [0.25, 0.75])
        assert result.value == pytest.approx(0.75)

    def test_missing_result_register_detected(self):
        config = ptree_config()
        program = Program(
            instructions=[Instruction()],
            dmem_image=[],
            result_location=(0, 0),
            result_slot=0,
            n_operations=0,
        )
        with pytest.raises(UninitializedReadError):
            Simulator(config).run(program, [1.0])

    def test_utilization_metrics(self):
        config = ptree_config()
        program = _single_op_program(OP_ADD, config)
        result = Simulator(config).run(program, [1.0, 2.0, 0.0])
        assert 0.0 < result.pe_utilization <= 1.0
        assert 0.0 < result.read_port_utilization <= 1.0


class TestInputChecks:
    def test_short_input_vector_detected(self):
        config = ptree_config()
        program = _single_op_program(OP_ADD, config)
        with pytest.raises(StructuralHazardError, match="input slot 1"):
            Simulator(config).run(program, [2.0])

    def test_negative_image_slot_detected_not_wrapped(self):
        """A negative dmem-image slot must raise, never read ``values[-1]``."""
        config = ptree_config()
        program = _single_op_program(OP_ADD, config)
        program.dmem_image[0][1] = -1
        with pytest.raises(StructuralHazardError, match="input slot -1"):
            Simulator(config).run(program, [2.0, 3.0, 0.0])


@pytest.fixture(scope="module")
def fig4_kernels():
    """The 18 Fig. 4 processor programs, compiled once for this module."""
    configs = {"Pvect": pvect_config(), "Ptree": ptree_config()}
    return {
        (platform, name): compile_operation_list(
            benchmark_operation_list(name), configs[platform]
        )
        for platform, name in _FIG4_POINTS
    }


class TestFig4Programs:
    @pytest.mark.parametrize(
        "platform,name", _FIG4_POINTS, ids=[f"{p}-{n}" for p, n in _FIG4_POINTS]
    )
    def test_cycles_match_golden(self, fig4_kernels, platform, name):
        result = fig4_kernels[platform, name].run(None)
        assert result.cycles == GOLDEN_CYCLES[platform][name]
