"""Structural components of the SPN processor used by the cycle-accurate simulator.

Each class models one block of Fig. 3 — the banked register file (with write
pipelining), the vector-addressed data memory and the combinational PE-tree
datapath — and enforces the corresponding structural constraints, raising
:class:`~repro.processor.errors.StructuralHazardError` or
:class:`~repro.processor.errors.UninitializedReadError` when a program
violates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .config import ProcessorConfig
from .errors import StructuralHazardError, UninitializedReadError
from .isa import (
    OP_ADD,
    OP_MUL,
    OP_NOP,
    OP_PASS_A,
    OP_PASS_B,
    Instruction,
    PEId,
)

__all__ = ["RegisterFile", "DataMemory", "TreeDatapath", "PEValue"]


@dataclass
class PEValue:
    """A value travelling through the datapath, with its provenance.

    ``slot`` is the operation-list slot the value corresponds to when known
    (the simulator checks it on every transport, and the value too when it
    has reference slots); ``None`` means "untracked".
    """

    value: float
    slot: Optional[int] = None


class RegisterFile:
    """The banked register file with pipelined (delayed) write commits.

    Writes are scheduled with the cycle at which they become readable;
    :meth:`commit_due` applies them at the start of that cycle.  The class
    also checks the per-bank write-port constraint: at most one PE-side write
    may commit to a bank in any given cycle (vector loads use the dedicated
    memory port and are tracked separately).
    """

    def __init__(self, config: ProcessorConfig) -> None:
        self._config = config
        self._values: List[List[Optional[float]]] = [
            [None] * config.bank_depth for _ in range(config.n_banks)
        ]
        self._slots: List[List[Optional[int]]] = [
            [None] * config.bank_depth for _ in range(config.n_banks)
        ]
        # Pending writes keyed by readable cycle.
        self._pending: Dict[int, List[Tuple[int, int, float, Optional[int]]]] = {}
        # Number of PE-port writes committing per (cycle, bank).
        self._pe_port_usage: Dict[Tuple[int, int], int] = {}
        self._max_pending_cycle = -1

    # ------------------------------------------------------------------ #
    def _check_address(self, bank: int, reg: int) -> None:
        if not 0 <= bank < self._config.n_banks:
            raise StructuralHazardError(f"bank index {bank} out of range")
        if not 0 <= reg < self._config.bank_depth:
            raise StructuralHazardError(f"register index {reg} out of range")

    def read(self, bank: int, reg: int) -> Tuple[Optional[float], Optional[int]]:
        """Return the committed (value, slot) stored at ``bank``/``reg``."""
        self._check_address(bank, reg)
        return self._values[bank][reg], self._slots[bank][reg]

    def schedule_write(
        self,
        bank: int,
        reg: int,
        value: float,
        readable_cycle: int,
        slot: Optional[int] = None,
        from_memory_port: bool = False,
    ) -> None:
        """Schedule a write that becomes readable at ``readable_cycle``."""
        self._check_address(bank, reg)
        if not from_memory_port:
            key = (readable_cycle, bank)
            usage = self._pe_port_usage.get(key, 0)
            if usage >= 1:
                raise StructuralHazardError(
                    f"write-port conflict: two PE writes commit to bank {bank} "
                    f"in cycle {readable_cycle}"
                )
            self._pe_port_usage[key] = usage + 1
        self._pending.setdefault(readable_cycle, []).append((bank, reg, value, slot))
        self._max_pending_cycle = max(self._max_pending_cycle, readable_cycle)

    def commit_due(self, cycle: int) -> None:
        """Commit every pending write that becomes readable at ``cycle`` or earlier."""
        due = [c for c in self._pending if c <= cycle]
        for c in sorted(due):
            for bank, reg, value, slot in self._pending.pop(c):
                self._values[bank][reg] = value
                self._slots[bank][reg] = slot

    def drain(self) -> int:
        """Commit all outstanding writes and return the last readable cycle."""
        last = self._max_pending_cycle
        self.commit_due(last if last >= 0 else 0)
        return max(last, 0)


class DataMemory:
    """Vector-addressed data memory: one row holds one word per bank."""

    def __init__(self, config: ProcessorConfig) -> None:
        self._config = config
        self._rows: List[List[Optional[float]]] = [
            [None] * config.n_banks for _ in range(config.dmem_rows)
        ]

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self._config.dmem_rows:
            raise StructuralHazardError(f"data-memory row {row} out of range")

    def write_row(self, row: int, values: List[Optional[float]]) -> None:
        self._check_row(row)
        if len(values) != self._config.n_banks:
            raise StructuralHazardError(
                f"data-memory row must have {self._config.n_banks} lanes, "
                f"got {len(values)}"
            )
        self._rows[row] = list(values)

    def read_lane(self, row: int, bank: int) -> Optional[float]:
        self._check_row(row)
        return self._rows[row][bank]

    def read_row(self, row: int) -> List[Optional[float]]:
        self._check_row(row)
        return list(self._rows[row])


class TreeDatapath:
    """Combinational evaluation of the PE trees for one instruction.

    The configuration bits travel with the data through the pipeline, so the
    whole cone described by one instruction can be evaluated here in one call;
    the register-file commit delay is applied by the simulator when it
    schedules the write-backs.
    """

    def __init__(self, config: ProcessorConfig) -> None:
        self._config = config

    def evaluate(
        self,
        instruction: Instruction,
        port_values: Dict[Tuple[int, int], PEValue],
    ) -> Dict[PEId, PEValue]:
        """Compute the output of every configured PE.

        ``port_values`` maps crossbar ports (tree, port-index) to the values
        read from the register file this cycle.  Only PEs present in the
        instruction's ``pe_ops`` (with a non-NOP opcode) produce outputs.
        """
        config = self._config
        outputs: Dict[PEId, PEValue] = {}
        # Evaluate level by level so parent PEs can consume child outputs.
        for level in range(config.n_levels):
            for (tree, lvl, pos), opcode in instruction.pe_ops.items():
                if lvl != level or opcode == OP_NOP:
                    continue
                a, b = self._operands(instruction, outputs, port_values, tree, lvl, pos)
                outputs[(tree, lvl, pos)] = self._apply(opcode, a, b, (tree, lvl, pos))
        return outputs

    # ------------------------------------------------------------------ #
    def _operands(
        self,
        instruction: Instruction,
        outputs: Dict[PEId, PEValue],
        port_values: Dict[Tuple[int, int], PEValue],
        tree: int,
        level: int,
        pos: int,
    ) -> Tuple[Optional[PEValue], Optional[PEValue]]:
        if level == 0:
            a = port_values.get((tree, 2 * pos))
            b = port_values.get((tree, 2 * pos + 1))
            return a, b
        left: PEId = (tree, level - 1, 2 * pos)
        right: PEId = (tree, level - 1, 2 * pos + 1)
        return outputs.get(left), outputs.get(right)

    @staticmethod
    def _apply(
        opcode: str, a: Optional[PEValue], b: Optional[PEValue], pe: PEId
    ) -> PEValue:
        if opcode == OP_PASS_A:
            if a is None:
                raise UninitializedReadError(f"PE {pe}: pass_a with no A operand")
            return PEValue(a.value, a.slot)
        if opcode == OP_PASS_B:
            if b is None:
                raise UninitializedReadError(f"PE {pe}: pass_b with no B operand")
            return PEValue(b.value, b.slot)
        if a is None or b is None:
            raise UninitializedReadError(f"PE {pe}: {opcode} with a missing operand")
        if opcode == OP_ADD:
            return PEValue(a.value + b.value, None)
        if opcode == OP_MUL:
            return PEValue(a.value * b.value, None)
        raise StructuralHazardError(f"PE {pe}: unknown opcode {opcode!r}")
