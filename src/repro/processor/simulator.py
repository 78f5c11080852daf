"""Cycle-accurate simulator of the SPN processor.

This is the Python equivalent of the MyHDL model the paper uses for its
throughput measurements: a verifying interpreter that issues one VLIW
instruction per cycle, applies the register-file commit delay of the
pipelined PE trees and enforces every structural constraint of the machine
(crossbar read ports, per-level write windows, write-port conflicts, single
memory transaction per cycle).  It also checks that every register a read
expects to hold an operation-list slot holds that slot and, given the
reference value of every slot, that every value transported through the
register file is the one the compiler claims it is — which turns scheduling
and allocation bugs into precise, located errors instead of silently wrong
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .components import DataMemory, PEValue, RegisterFile, TreeDatapath
from .config import ProcessorConfig
from .errors import (
    StructuralHazardError,
    UninitializedReadError,
    VerificationError,
)
from .isa import OP_NOP, Instruction, Program

__all__ = ["SimulationResult", "Simulator"]

#: Tolerances used when checking transported values against the reference.
_RTOL = 1e-9
_ATOL = 1e-12


@dataclass
class SimulationResult:
    """Cycle counts, throughput and utilization statistics of one run."""

    value: float
    cycles: int
    n_instructions: int
    n_operations: int
    n_reads: int
    n_writes: int
    n_loads: int
    n_stores: int
    config: ProcessorConfig = field(repr=False, default_factory=ProcessorConfig)

    @property
    def ops_per_cycle(self) -> float:
        """Effective SPN operations per cycle (the paper's throughput metric)."""
        return self.n_operations / self.cycles if self.cycles else 0.0

    @property
    def pe_utilization(self) -> float:
        """Fraction of PE slots doing useful arithmetic."""
        total = self.cycles * self.config.n_pes
        return self.n_operations / total if total else 0.0

    @property
    def read_port_utilization(self) -> float:
        """Fraction of crossbar read opportunities actually used."""
        total = self.cycles * self.config.n_banks
        return self.n_reads / total if total else 0.0


class Simulator:
    """Executes compiled :class:`~repro.processor.isa.Program` objects."""

    def __init__(self, config: ProcessorConfig) -> None:
        self._config = config

    # ------------------------------------------------------------------ #
    def run(
        self,
        program: Program,
        input_values: Sequence[float],
        expected_slots: Optional[np.ndarray] = None,
    ) -> SimulationResult:
        """Execute ``program`` with the given operation-list input vector.

        Parameters
        ----------
        program:
            Output of the compiler.
        input_values:
            Value of every operation-list input slot (see
            :meth:`repro.spn.linearize.OperationList.input_vector`).
        expected_slots:
            Optional reference value of *every* slot (inputs and operation
            results).  When provided, every annotated read and write is
            checked against it.
        """
        config = self._config
        input_values = np.asarray(input_values, dtype=np.float64)
        regfile = RegisterFile(config)
        dmem = DataMemory(config)
        datapath = TreeDatapath(config)
        self._initialize_dmem(dmem, program, input_values)

        n_reads = n_writes = n_loads = n_stores = 0
        for cycle, instruction in enumerate(program.instructions):
            regfile.commit_due(cycle)
            port_values = self._perform_reads(regfile, instruction, expected_slots)
            n_reads += len({(r.bank, r.reg) for r in instruction.reads})
            outputs = datapath.evaluate(instruction, port_values)
            n_writes += self._perform_writes(
                regfile, instruction, outputs, cycle, expected_slots
            )
            loads, stores = self._perform_mem(regfile, dmem, instruction, cycle)
            n_loads += loads
            n_stores += stores

        drain_cycle = regfile.drain()
        return SimulationResult(
            value=self._extract_result(regfile, program, input_values),
            cycles=max(program.n_instructions, drain_cycle + 1),
            n_instructions=program.n_instructions,
            n_operations=program.n_arith_ops,
            n_reads=n_reads,
            n_writes=n_writes,
            n_loads=n_loads,
            n_stores=n_stores,
            config=config,
        )

    # ------------------------------------------------------------------ #
    def _initialize_dmem(
        self, dmem: DataMemory, program: Program, input_values: np.ndarray
    ) -> None:
        for row_index, row in enumerate(program.dmem_image):
            lane_values = []
            for slot in row:
                if slot is None:
                    lane_values.append(None)
                else:
                    if not 0 <= slot < len(input_values):
                        raise StructuralHazardError(
                            f"data-memory image references input slot {slot}, but "
                            f"only {len(input_values)} input values were provided"
                        )
                    lane_values.append(float(input_values[slot]))
            dmem.write_row(row_index, lane_values)

    def _perform_reads(
        self,
        regfile: RegisterFile,
        instruction: Instruction,
        expected_slots: Optional[np.ndarray],
    ) -> Dict[Tuple[int, int], PEValue]:
        config = self._config
        port_values: Dict[Tuple[int, int], PEValue] = {}
        banks_in_use: Dict[int, Tuple[int, int]] = {}
        for spec in instruction.reads:
            tree, port = spec.port
            if not 0 <= tree < config.n_trees:
                raise StructuralHazardError(f"read targets unknown tree {tree}")
            if not 0 <= port < config.input_ports_per_tree:
                raise StructuralHazardError(
                    f"read targets port {port} but trees only have "
                    f"{config.input_ports_per_tree} input ports"
                )
            if spec.port in port_values:
                raise StructuralHazardError(f"port {spec.port} is driven twice")
            cell = (spec.bank, spec.reg)
            previous = banks_in_use.get(spec.bank)
            if previous is not None and previous != cell:
                raise StructuralHazardError(
                    f"crossbar conflict: bank {spec.bank} read at two different "
                    f"registers ({previous[1]} and {spec.reg}) in one cycle"
                )
            banks_in_use[spec.bank] = cell
            value, stored_slot = regfile.read(spec.bank, spec.reg)
            if value is None:
                raise UninitializedReadError(
                    f"read of bank {spec.bank} reg {spec.reg} before any write"
                )
            if spec.slot is not None:
                if stored_slot is not None and stored_slot != spec.slot:
                    raise VerificationError(
                        f"bank {spec.bank} reg {spec.reg} holds slot {stored_slot}, "
                        f"but the program expected slot {spec.slot}"
                    )
                self._check_value(expected_slots, spec.slot, value, "read")
            port_values[spec.port] = PEValue(value, spec.slot)
        return port_values

    def _perform_writes(
        self,
        regfile: RegisterFile,
        instruction: Instruction,
        outputs: Dict[Tuple[int, int, int], PEValue],
        cycle: int,
        expected_slots: Optional[np.ndarray],
    ) -> int:
        config = self._config
        written = 0
        for spec in instruction.writes:
            tree, level, pos = spec.pe
            opcode = instruction.pe_ops.get(spec.pe, OP_NOP)
            if opcode == OP_NOP:
                raise StructuralHazardError(
                    f"write-back from idle PE {spec.pe} (no opcode configured)"
                )
            output = outputs.get(spec.pe)
            if output is None:
                raise UninitializedReadError(f"write-back from PE {spec.pe} with no output")
            allowed = config.allowed_write_banks(tree, level, pos)
            if spec.bank not in allowed:
                raise StructuralHazardError(
                    f"PE {spec.pe} may only write banks {allowed}, not {spec.bank}"
                )
            if spec.slot is not None:
                self._check_value(expected_slots, spec.slot, output.value, "write")
            readable = cycle + config.result_latency(level + 1)
            regfile.schedule_write(
                spec.bank, spec.reg, output.value, readable, slot=spec.slot
            )
            written += 1
        return written

    def _perform_mem(
        self,
        regfile: RegisterFile,
        dmem: DataMemory,
        instruction: Instruction,
        cycle: int,
    ) -> Tuple[int, int]:
        mem = instruction.mem
        if mem is None:
            return 0, 0
        config = self._config
        if not 0 <= mem.reg < config.bank_depth:
            raise StructuralHazardError(f"memory transaction register {mem.reg} out of range")
        if mem.kind == "load":
            slots = mem.slots or tuple([None] * config.n_banks)
            for bank in range(config.n_banks):
                value = dmem.read_lane(mem.row, bank)
                if value is None:
                    continue
                regfile.schedule_write(
                    bank,
                    mem.reg,
                    value,
                    cycle + config.load_latency,
                    slot=slots[bank] if bank < len(slots) else None,
                    from_memory_port=True,
                )
            return 1, 0
        # Store: capture the committed register state into the row.
        row_values = []
        for bank in range(config.n_banks):
            value, _ = regfile.read(bank, mem.reg)
            row_values.append(value)
        dmem.write_row(mem.row, row_values)
        return 0, 1

    def _extract_result(
        self, regfile: RegisterFile, program: Program, input_values: np.ndarray
    ) -> float:
        if program.result_location is None:
            return float(input_values[program.result_slot])
        bank, reg = program.result_location
        value, _ = regfile.read(bank, reg)
        if value is None:
            raise UninitializedReadError(
                f"program finished but the result register (bank {bank}, reg {reg}) "
                "was never written"
            )
        return float(value)

    def _check_value(
        self,
        expected_slots: Optional[np.ndarray],
        slot: int,
        value: float,
        what: str,
    ) -> None:
        if expected_slots is None:
            return
        if not 0 <= slot < len(expected_slots):
            raise VerificationError(f"{what} annotated with unknown slot {slot}")
        expected = float(expected_slots[slot])
        # ``np.isclose``'s own expression on two floats, without its
        # per-call array overhead: nan is never close and an infinity is
        # close only to itself.
        close = (
            abs(value - expected) <= _ATOL + _RTOL * abs(expected)
            and math.isfinite(expected)
        ) or value == expected
        if not close:
            raise VerificationError(
                f"{what} of slot {slot}: transported value {value!r} does not match "
                f"the reference value {expected!r}"
            )

