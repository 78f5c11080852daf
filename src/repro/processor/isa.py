"""VLIW instruction set of the SPN processor.

One :class:`Instruction` is issued per cycle and describes everything the
machine does for the cone(s) launched in that cycle:

* ``reads`` — for each crossbar input port, which (bank, register) feeds it;
* ``pe_ops`` — the opcode of every PE that participates (ADD, MUL, PASS_A,
  PASS_B); unspecified PEs are idle (NOP);
* ``writes`` — which PE outputs are written back to which (bank, register);
* ``mem`` — at most one vector load/store between a data-memory row and one
  register index of every bank.

The configuration bits travel with the data through the pipeline registers of
the tree, so an instruction fully describes one issue slot even though the
cone's result only becomes readable ``level + pe_latency`` cycles later (see
:class:`repro.processor.config.ProcessorConfig.result_latency`).

Read and write specifications optionally carry the operation-list slot index
they are expected to transport (``slot``); the simulator checks these,
which turns silent compiler bugs (clobbered registers, hazard violations)
into immediate, located errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Opcode",
    "OP_NOP",
    "OP_ADD",
    "OP_MUL",
    "OP_PASS_A",
    "OP_PASS_B",
    "PEId",
    "PortId",
    "ReadSpec",
    "WriteSpec",
    "MemOp",
    "Instruction",
    "Program",
]

# Opcodes are plain strings to keep programs trivially serializable.
Opcode = str
OP_NOP: Opcode = "nop"
OP_ADD: Opcode = "add"
OP_MUL: Opcode = "mul"
OP_PASS_A: Opcode = "pass_a"
OP_PASS_B: Opcode = "pass_b"

_VALID_OPCODES = (OP_NOP, OP_ADD, OP_MUL, OP_PASS_A, OP_PASS_B)

#: A PE is addressed by (tree, level, position-within-level).
PEId = Tuple[int, int, int]
#: A crossbar input port is addressed by (tree, port-index); leaf PE ``p``
#: of a tree is fed by ports ``2p`` (operand A) and ``2p + 1`` (operand B).
PortId = Tuple[int, int]


@dataclass(frozen=True)
class ReadSpec:
    """One crossbar read: register ``reg`` of ``bank`` drives port ``port``."""

    port: PortId
    bank: int
    reg: int
    #: Operation-list slot expected to be stored there (checked by the simulator).
    slot: Optional[int] = None


@dataclass(frozen=True)
class WriteSpec:
    """One register-file write-back from the output of PE ``pe``."""

    pe: PEId
    bank: int
    reg: int
    #: Operation-list slot carried by the value (checked by the simulator).
    slot: Optional[int] = None


@dataclass(frozen=True)
class MemOp:
    """A vector transaction between the data memory and the register file.

    ``load`` copies data-memory row ``row`` into register ``reg`` of every
    bank; ``store`` copies register ``reg`` of every bank into row ``row``.
    """

    kind: str
    row: int
    reg: int
    #: For loads: per-bank slot annotations (checked by the simulator).
    slots: Optional[Tuple[Optional[int], ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("load", "store"):
            raise ValueError(f"mem op kind must be 'load' or 'store', got {self.kind!r}")


@dataclass
class Instruction:
    """One VLIW instruction (one issue cycle)."""

    reads: List[ReadSpec] = field(default_factory=list)
    pe_ops: Dict[PEId, Opcode] = field(default_factory=dict)
    writes: List[WriteSpec] = field(default_factory=list)
    mem: Optional[MemOp] = None
    #: Free-form annotation (the scheduler records the issue cycle); debugging
    #: aid only, not written by the disassembler.
    comment: str = ""

    def __post_init__(self) -> None:
        for opcode in self.pe_ops.values():
            if opcode not in _VALID_OPCODES:
                raise ValueError(f"unknown opcode {opcode!r}")

    # ------------------------------------------------------------------ #
    @property
    def n_arith_ops(self) -> int:
        """Number of real arithmetic operations (ADD/MUL) in this instruction."""
        return sum(1 for op in self.pe_ops.values() if op in (OP_ADD, OP_MUL))

    @property
    def is_idle(self) -> bool:
        return not self.pe_ops and not self.reads and not self.writes and self.mem is None

    def read_banks(self) -> List[int]:
        return [r.bank for r in self.reads]

    def write_banks(self) -> List[int]:
        return [w.bank for w in self.writes]


@dataclass
class Program:
    """A compiled VLIW program plus the metadata needed to run and check it.

    Attributes
    ----------
    instructions:
        The instruction stream, one entry per issue cycle.
    dmem_image:
        Initial contents of the data memory: ``dmem_image[row][bank]`` is the
        operation-list input slot whose value must be placed there before
        execution (``None`` for unused lanes).  The simulator fills the values
        from the input vector of a query.
    result_location:
        ``(bank, reg)`` holding the SPN root value after the program drains,
        or ``None`` when the root is an input slot (empty program).
    result_slot:
        Operation-list slot index of the root value.
    n_operations:
        Number of arithmetic operations in the source SPN (for throughput
        accounting).
    """

    instructions: List[Instruction] = field(default_factory=list)
    dmem_image: List[List[Optional[int]]] = field(default_factory=list)
    result_location: Optional[Tuple[int, int]] = None
    result_slot: int = 0
    n_operations: int = 0

    @property
    def n_instructions(self) -> int:
        return len(self.instructions)

    @property
    def n_arith_ops(self) -> int:
        return sum(instr.n_arith_ops for instr in self.instructions)

    @property
    def n_loads(self) -> int:
        return sum(1 for i in self.instructions if i.mem is not None and i.mem.kind == "load")

    @property
    def n_stores(self) -> int:
        return sum(1 for i in self.instructions if i.mem is not None and i.mem.kind == "store")
