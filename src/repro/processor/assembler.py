"""Textual assembly format for VLIW programs (assembler and disassembler).

The cycle-accurate simulator consumes :class:`~repro.processor.isa.Program`
objects directly, but a textual form is invaluable for debugging compiler
output, writing hand-crafted test programs and diffing schedules.  The format
is line oriented; one instruction per ``instr`` block::

    program v1 ops=123 result=5:17 result_slot=420
    dmem 0 3:1 7:- 12:0 ...            # row, then one slot (or '-') per bank
    instr
      read t0.p3 b5 r12 slot=17
      pe t0.l0.p1 mul
      write t0.l2.p0 b3 r7 slot=33
      load row=4 reg=60 slots=3,-,17,...   # optional: one slot (or '-') per bank
      store row=9 reg=61
    end

Fields mirror the ISA exactly; see :mod:`repro.processor.isa` for semantics.
Instruction comments are not part of the format.
"""

from __future__ import annotations

from typing import List, Optional

from .isa import Instruction, MemOp, Program, ReadSpec, WriteSpec

__all__ = ["assemble", "disassemble"]

_HEADER = "program v1"


def _format_slot(slot: Optional[int]) -> str:
    return "-" if slot is None else str(slot)


def _parse_slot(text: str) -> Optional[int]:
    return None if text == "-" else int(text)


def disassemble(program: Program) -> str:
    """Render ``program`` in the textual assembly format."""
    lines: List[str] = []
    result = (
        f"{program.result_location[0]}:{program.result_location[1]}"
        if program.result_location is not None
        else "-"
    )
    lines.append(
        f"{_HEADER} ops={program.n_operations} result={result} "
        f"result_slot={program.result_slot}"
    )
    for row_index, row in enumerate(program.dmem_image):
        cells = " ".join(f"{bank}:{_format_slot(slot)}" for bank, slot in enumerate(row))
        lines.append(f"dmem {row_index} {cells}")
    for instruction in program.instructions:
        lines.append("instr")
        for read in instruction.reads:
            lines.append(
                f"  read t{read.port[0]}.p{read.port[1]} b{read.bank} r{read.reg} "
                f"slot={_format_slot(read.slot)}"
            )
        for pe, opcode in sorted(instruction.pe_ops.items()):
            lines.append(f"  pe t{pe[0]}.l{pe[1]}.p{pe[2]} {opcode}")
        for write in instruction.writes:
            lines.append(
                f"  write t{write.pe[0]}.l{write.pe[1]}.p{write.pe[2]} "
                f"b{write.bank} r{write.reg} slot={_format_slot(write.slot)}"
            )
        if instruction.mem is not None:
            mem = instruction.mem
            line = f"  {mem.kind} row={mem.row} reg={mem.reg}"
            if mem.slots is not None:
                line += " slots=" + ",".join(_format_slot(slot) for slot in mem.slots)
            lines.append(line)
        lines.append("end")
    return "\n".join(lines) + "\n"


def assemble(text: str) -> Program:
    """Parse the textual assembly format back into a :class:`Program`."""
    lines = [ln.rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip() and not ln.strip().startswith("#")]
    if not lines or not lines[0].startswith(_HEADER):
        raise ValueError(f"missing program header; expected {_HEADER!r}")

    header_fields = dict(
        field.split("=", 1) for field in lines[0][len(_HEADER) :].split() if "=" in field
    )
    n_operations = int(header_fields.get("ops", "0"))
    result_slot = int(header_fields.get("result_slot", "0"))
    result_text = header_fields.get("result", "-")
    result_location = None
    if result_text != "-":
        bank_text, reg_text = result_text.split(":")
        result_location = (int(bank_text), int(reg_text))

    dmem_image: List[List[Optional[int]]] = []
    instructions: List[Instruction] = []
    current: Optional[Instruction] = None

    for line in lines[1:]:
        stripped = line.strip()
        if stripped.startswith("dmem "):
            parts = stripped.split()
            row_index = int(parts[1])
            row: List[Optional[int]] = []
            for cell in parts[2:]:
                _, slot_text = cell.split(":")
                row.append(_parse_slot(slot_text))
            while len(dmem_image) <= row_index:
                dmem_image.append([])
            dmem_image[row_index] = row
            continue
        if stripped == "instr":
            current = Instruction()
            continue
        if stripped == "end":
            if current is None:
                raise ValueError("'end' without a matching 'instr'")
            instructions.append(current)
            current = None
            continue
        if current is None:
            raise ValueError(f"unexpected line outside an instruction block: {line!r}")
        parts = stripped.split()
        kind = parts[0]
        if kind == "read":
            tree, port = _parse_port(parts[1])
            bank = int(parts[2][1:])
            reg = int(parts[3][1:])
            slot = _parse_slot(parts[4].split("=", 1)[1])
            current.reads.append(ReadSpec(port=(tree, port), bank=bank, reg=reg, slot=slot))
        elif kind == "pe":
            tree, level, pos = _parse_pe(parts[1])
            current.pe_ops[(tree, level, pos)] = parts[2]
        elif kind == "write":
            tree, level, pos = _parse_pe(parts[1])
            bank = int(parts[2][1:])
            reg = int(parts[3][1:])
            slot = _parse_slot(parts[4].split("=", 1)[1])
            current.writes.append(
                WriteSpec(pe=(tree, level, pos), bank=bank, reg=reg, slot=slot)
            )
        elif kind in ("load", "store"):
            fields = dict(f.split("=", 1) for f in parts[1:])
            slots = fields.get("slots")
            if slots is not None:
                slots = tuple(_parse_slot(text) for text in slots.split(","))
            current.mem = MemOp(
                kind=kind, row=int(fields["row"]), reg=int(fields["reg"]), slots=slots
            )
        else:
            raise ValueError(f"unknown assembly directive {kind!r}")

    if current is not None:
        raise ValueError("unterminated instruction block at end of file")
    return Program(
        instructions=instructions,
        dmem_image=dmem_image,
        result_location=result_location,
        result_slot=result_slot,
        n_operations=n_operations,
    )


def _parse_port(text: str) -> tuple:
    tree_text, port_text = text.split(".")
    return int(tree_text[1:]), int(port_text[1:])


def _parse_pe(text: str) -> tuple:
    tree_text, level_text, pos_text = text.split(".")
    return int(tree_text[1:]), int(level_text[1:]), int(pos_text[1:])
