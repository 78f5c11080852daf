"""Tests for the ISA data structures and the assembler round-trip."""

import pytest

from repro.processor.assembler import assemble, disassemble
from repro.processor.config import ptree_config
from repro.processor.isa import (
    OP_ADD,
    OP_MUL,
    OP_NOP,
    Instruction,
    MemOp,
    Program,
    ReadSpec,
    WriteSpec,
)
from repro.processor.simulator import Simulator
from repro.compiler.driver import compile_spn


class TestInstruction:
    def test_rejects_unknown_opcode(self):
        with pytest.raises(ValueError):
            Instruction(pe_ops={(0, 0, 0): "divide"})

    def test_arith_op_count_ignores_passes(self):
        instr = Instruction(
            pe_ops={(0, 0, 0): OP_ADD, (0, 0, 1): OP_MUL, (0, 1, 0): "pass_a", (0, 1, 1): OP_NOP}
        )
        assert instr.n_arith_ops == 2

    def test_idle_detection(self):
        assert Instruction().is_idle
        assert not Instruction(pe_ops={(0, 0, 0): OP_ADD}).is_idle

    def test_bank_listings(self):
        instr = Instruction(
            reads=[ReadSpec(port=(0, 0), bank=3, reg=1)],
            writes=[WriteSpec(pe=(0, 0, 0), bank=7, reg=2)],
        )
        assert instr.read_banks() == [3]
        assert instr.write_banks() == [7]


class TestMemOp:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            MemOp(kind="copy", row=0, reg=0)


class TestProgramCounters:
    def test_counts(self):
        program = Program(
            instructions=[
                Instruction(pe_ops={(0, 0, 0): OP_ADD}),
                Instruction(mem=MemOp(kind="load", row=0, reg=0)),
                Instruction(mem=MemOp(kind="store", row=0, reg=0)),
            ],
            n_operations=1,
        )
        assert program.n_instructions == 3
        assert program.n_arith_ops == 1
        assert program.n_loads == 1
        assert program.n_stores == 1


class TestAssembler:
    def test_round_trip_of_compiled_program(self, mixture_spn):
        kernel = compile_spn(mixture_spn, ptree_config())
        text = disassemble(kernel.program)
        restored = assemble(text)
        assert restored.n_instructions == kernel.program.n_instructions
        assert restored.n_arith_ops == kernel.program.n_arith_ops
        assert restored.result_location == kernel.program.result_location
        assert restored.dmem_image == [list(r) for r in kernel.program.dmem_image]

    def test_round_trip_keeps_memory_operations(self, mixture_spn):
        """Load slot annotations survive the text format."""
        kernel = compile_spn(mixture_spn, ptree_config())
        restored = assemble(disassemble(kernel.program))
        original_mem = [i.mem for i in kernel.program.instructions]
        assert any(mem is not None and mem.slots for mem in original_mem)
        assert [i.mem for i in restored.instructions] == original_mem

    def test_load_without_slots_assembles(self):
        text = (
            "program v1 ops=0 result=- result_slot=0\n"
            "instr\n  load row=2 reg=7\nend\n"
        )
        (instruction,) = assemble(text).instructions
        assert instruction.mem == MemOp(kind="load", row=2, reg=7)

    def test_round_trip_executes_identically(self, mixture_spn):
        kernel = compile_spn(mixture_spn, ptree_config())
        restored = assemble(disassemble(kernel.program))
        vec = kernel.ops.input_vector({0: 1, 1: 0})
        expected = kernel.ops.execute_values(vec)
        sim = Simulator(ptree_config())
        assert sim.run(restored, vec, expected) == sim.run(kernel.program, vec, expected)

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            assemble("instr\nend\n")

    def test_unterminated_block_rejected(self):
        with pytest.raises(ValueError):
            assemble("program v1 ops=0 result=- result_slot=0\ninstr\n")

    def test_unknown_directive_rejected(self):
        text = "program v1 ops=0 result=- result_slot=0\ninstr\n  jump 3\nend\n"
        with pytest.raises(ValueError):
            assemble(text)

    def test_disassembly_is_readable(self, mixture_spn):
        kernel = compile_spn(mixture_spn, ptree_config())
        text = disassemble(kernel.program)
        assert "program v1" in text
        assert "instr" in text and "end" in text
