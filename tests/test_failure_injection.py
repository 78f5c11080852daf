"""Failure-injection tests: corrupt valid programs and check the simulator objects.

These tests demonstrate that the cycle-accurate simulator is a *checking*
model: every structural rule of the machine is enforced at run time, so a
buggy compiler change cannot silently produce wrong throughput numbers.
"""

import copy

import pytest

from repro.compiler.driver import compile_spn
from repro.processor.config import ptree_config
from repro.processor.errors import (
    StructuralHazardError,
    UninitializedReadError,
    VerificationError,
)
from repro.processor.isa import Instruction, MemOp, ReadSpec, WriteSpec
from repro.processor.simulator import Simulator


@pytest.fixture()
def kernel(mixture_spn):
    return compile_spn(mixture_spn, ptree_config())


def _first_instruction_with(program, predicate):
    for index, instruction in enumerate(program.instructions):
        if predicate(instruction):
            return index, instruction
    raise AssertionError("no instruction matches the predicate")


def _run(kernel, program):
    vec = kernel.ops.input_vector({0: 1, 1: 0})
    expected = kernel.ops.execute_values(vec)
    return Simulator(kernel.config).run(program, vec, expected)


class TestReadHazards:
    def test_conflicting_bank_read_detected(self, kernel):
        program = copy.deepcopy(kernel.program)
        index, instr = _first_instruction_with(program, lambda i: i.reads)
        victim = instr.reads[0]
        # Add a second read of the same bank at a different register through a
        # free port of the other tree.
        conflicting = ReadSpec(
            port=(1, 0) if victim.port[0] == 0 else (0, 0),
            bank=victim.bank,
            reg=(victim.reg + 1) % kernel.config.bank_depth,
        )
        instr.reads.append(conflicting)
        with pytest.raises((StructuralHazardError, UninitializedReadError)):
            _run(kernel, program)

    def test_unknown_port_detected(self, kernel):
        program = copy.deepcopy(kernel.program)
        _, instr = _first_instruction_with(program, lambda i: i.reads)
        instr.reads.append(ReadSpec(port=(0, 99), bank=0, reg=0))
        with pytest.raises(StructuralHazardError):
            _run(kernel, program)

    def test_duplicate_port_detected(self, kernel):
        program = copy.deepcopy(kernel.program)
        _, instr = _first_instruction_with(program, lambda i: i.reads)
        instr.reads.append(instr.reads[0])
        with pytest.raises(StructuralHazardError):
            _run(kernel, program)

    def test_uninitialized_register_read_detected(self, kernel):
        program = copy.deepcopy(kernel.program)
        _, instr = _first_instruction_with(program, lambda i: i.reads)
        # Redirect the read to an intermediate register that is not written
        # this early in the program; keep the slot annotation so that even if
        # the register were populated later the value check would still fire.
        victim = instr.reads[0]
        instr.reads[0] = ReadSpec(
            port=victim.port, bank=victim.bank, reg=31, slot=victim.slot
        )
        with pytest.raises((UninitializedReadError, VerificationError)):
            _run(kernel, program)


class TestWriteHazards:
    def test_out_of_window_write_detected(self, kernel):
        program = copy.deepcopy(kernel.program)
        _, instr = _first_instruction_with(program, lambda i: i.writes)
        write = instr.writes[0]
        tree, level, pos = write.pe
        allowed = kernel.config.allowed_write_banks(tree, level, pos)
        forbidden = next(b for b in range(kernel.config.n_banks) if b not in allowed)
        instr.writes[0] = WriteSpec(pe=write.pe, bank=forbidden, reg=write.reg, slot=write.slot)
        with pytest.raises(StructuralHazardError):
            _run(kernel, program)

    def test_write_from_idle_pe_detected(self, kernel):
        program = copy.deepcopy(kernel.program)
        _, instr = _first_instruction_with(program, lambda i: i.writes)
        instr.writes.append(WriteSpec(pe=(0, 3, 0), bank=0, reg=0))
        if (0, 3, 0) in instr.pe_ops:
            del instr.pe_ops[(0, 3, 0)]
        with pytest.raises(StructuralHazardError):
            _run(kernel, program)

    def test_wrong_slot_annotation_detected(self, kernel):
        program = copy.deepcopy(kernel.program)
        _, instr = _first_instruction_with(
            program, lambda i: any(w.slot is not None for w in i.writes)
        )
        write = next(w for w in instr.writes if w.slot is not None)
        position = instr.writes.index(write)
        instr.writes[position] = WriteSpec(
            pe=write.pe, bank=write.bank, reg=write.reg, slot=write.slot + 1
        )
        with pytest.raises(VerificationError):
            _run(kernel, program)


class TestMemoryHazards:
    def test_out_of_range_row_detected(self, kernel):
        program = copy.deepcopy(kernel.program)
        program.instructions.append(
            Instruction(mem=MemOp(kind="load", row=kernel.config.dmem_rows + 5, reg=0))
        )
        with pytest.raises(StructuralHazardError):
            _run(kernel, program)

    def test_out_of_range_register_detected(self, kernel):
        program = copy.deepcopy(kernel.program)
        program.instructions.append(
            Instruction(mem=MemOp(kind="load", row=0, reg=kernel.config.bank_depth))
        )
        with pytest.raises(StructuralHazardError):
            _run(kernel, program)

    def test_dmem_image_with_unknown_slot_detected(self, kernel):
        program = copy.deepcopy(kernel.program)
        if not program.dmem_image:
            pytest.skip("program has no data-memory image")
        program.dmem_image[0][0] = 10_000_000
        with pytest.raises(StructuralHazardError):
            _run(kernel, program)

