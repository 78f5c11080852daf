"""List scheduler, register allocator and code generator of the SPN compiler.

This module turns a cone cover (:mod:`repro.compiler.cones`) into an
executable VLIW :class:`~repro.processor.isa.Program`.  It performs, per
cycle, exactly the job the paper assigns to its custom compiler (Sec. IV):

* **operation placement** — cones are packed onto free, aligned subtrees of
  the PE trees (several independent cones may share one tree in one cycle);
* **register-bank allocation** — every cone output is given a register in one
  of the banks its producing PE is allowed to write; the bank is chosen to
  avoid future crossbar conflicts with the values it will be read together
  with, and to balance bank occupancy ("this allocation has to happen in
  tandem with the placement of operations on the PEs");
* **crossbar conflict avoidance** — a cone only issues in a cycle where all of
  its operand banks are still free (at most one read per bank per cycle);
  when two operands of the same future cone end up in the same bank despite
  the allocator's effort, the scheduler emits a *copy* (a pass-through PE
  configuration) that relocates one of them to another bank, which is the
  "copy data within register banks" facility of the paper's instruction set;
* **hazard-aware scheduling** — a cone may not issue before the outputs of its
  producer cones have left the PE-tree pipeline (read-after-write latency);
* **data-memory streaming** — leaf/parameter input slots are packed into
  data-memory rows and loaded, one vector per cycle, into a rotating window
  of register rows shortly before their consumers need them; rows whose
  values are all consumed are recycled (constants never need a write-back).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..processor.config import ProcessorConfig
from ..processor.errors import CompilationError, ResourceError
from ..processor.isa import (
    OP_ADD,
    OP_MUL,
    OP_PASS_A,
    Instruction,
    MemOp,
    Program,
    ReadSpec,
    WriteSpec,
)
from ..spn.linearize import OP_ADD as SPN_ADD
from ..spn.linearize import OperationList
from .cones import Cone, ConeGraph, ConeOperand

__all__ = ["ScheduleOptions", "CompileStats", "Scheduler"]


@dataclass(frozen=True)
class ScheduleOptions:
    """Tunable knobs of the scheduler (defaults reproduce the paper's setup)."""

    #: Register rows (per bank) reserved as the rotating input-streaming window.
    stream_rows: int = 32
    #: Safety bound on consecutive cycles without any progress.
    max_stall_cycles: int = 256
    #: When False, at most one cone is issued per tree per cycle (ablation of
    #: subtree packing).
    pack_multiple_cones: bool = True
    #: When False, cone outputs take the first allowed bank instead of the
    #: conflict- and occupancy-aware choice (ablation of the paper's
    #: conflict-minimizing register allocation).
    conflict_aware_allocation: bool = True
    #: Candidate cones examined per cycle before giving up (keeps compile time
    #: linear; the deferred cones keep their priority).
    scan_limit: int = 96


@dataclass
class CompileStats:
    """Summary of one compilation, reported next to the benchmark results."""

    n_operations: int
    n_cones: int
    n_instructions: int
    n_loads: int
    n_stores: int
    n_copies: int
    avg_ops_per_cone: float
    max_live_registers: int
    dmem_rows_used: int

    def __str__(self) -> str:  # pragma: no cover - human readable helper
        return (
            f"ops={self.n_operations} cones={self.n_cones} "
            f"instructions={self.n_instructions} loads={self.n_loads} "
            f"copies={self.n_copies} ops/cone={self.avg_ops_per_cone:.2f} "
            f"max_live={self.max_live_registers} dmem_rows={self.dmem_rows_used}"
        )


@dataclass
class _LoadedRow:
    """Bookkeeping for one input row currently resident in the register file."""

    reg: int
    ready_cycle: int


class Scheduler:
    """Schedules a :class:`ConeGraph` onto a :class:`ProcessorConfig`."""

    def __init__(
        self,
        cone_graph: ConeGraph,
        config: ProcessorConfig,
        options: Optional[ScheduleOptions] = None,
    ) -> None:
        self._graph = cone_graph
        self._ops = cone_graph.ops
        self._config = config
        self._options = options or ScheduleOptions()
        if self._options.stream_rows >= config.bank_depth:
            raise ResourceError(
                "stream_rows must leave at least one register row for intermediates"
            )
        self._stream_base = config.bank_depth - self._options.stream_rows

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def run(self) -> Tuple[Program, CompileStats]:
        ops = self._ops
        if ops.n_operations == 0:
            program = Program(
                instructions=[],
                dmem_image=[],
                result_location=None,
                result_slot=ops.root_slot,
                n_operations=0,
            )
            stats = CompileStats(0, 0, 0, 0, 0, 0, 0.0, 0, 0)
            return program, stats

        self._prepare()
        instructions: List[Instruction] = []
        cycle = 0
        stall_cycles = 0
        max_cycles = 32 * self._graph.n_cones + 8 * len(self._input_rows) + 2048
        while self._n_scheduled < self._graph.n_cones:
            if cycle > max_cycles:
                raise CompilationError(
                    f"scheduler exceeded {max_cycles} cycles; "
                    f"{self._graph.n_cones - self._n_scheduled} cones left.\n"
                    + self._blocked_report(cycle)
                )
            instruction = self._schedule_cycle(cycle)
            instructions.append(instruction)
            # Only PE activity counts as progress: an endless stream of loads
            # with no cone ever issuing is a scheduling failure, not progress.
            if instruction.pe_ops:
                stall_cycles = 0
            else:
                stall_cycles += 1
                if stall_cycles > self._options.max_stall_cycles:
                    raise CompilationError(
                        f"no cone issued for {stall_cycles} cycles at cycle {cycle}; "
                        "the SPN likely does not fit the machine configuration.\n"
                        + self._blocked_report(cycle)
                    )
            cycle += 1

        root_slot = ops.root_slot
        program = Program(
            instructions=instructions,
            dmem_image=self._dmem_image,
            result_location=self._current_cell(root_slot),
            result_slot=root_slot,
            n_operations=ops.n_operations,
        )
        stats = CompileStats(
            n_operations=ops.n_operations,
            n_cones=self._graph.n_cones,
            n_instructions=len(instructions),
            n_loads=program.n_loads,
            n_stores=program.n_stores,
            n_copies=self._n_copies,
            avg_ops_per_cone=self._graph.average_ops_per_cone(),
            max_live_registers=self._max_live,
            dmem_rows_used=len(self._input_rows),
        )
        return program, stats

    # ------------------------------------------------------------------ #
    # Preparation
    # ------------------------------------------------------------------ #
    def _prepare(self) -> None:
        graph, config = self._graph, self._config

        # Per-cone tables, built once for the many placement attempts: the
        # operand slots (one per reference), the distinct slots in the order
        # placement reads them, and the PE levels the cone occupies.  That
        # order is set iteration order and must stay so: a failed attempt
        # marks the row of the first unloaded input it meets as wanted,
        # which steers the load schedule.
        self._n_inputs = self._ops.n_inputs
        self._cone_slots: List[Tuple[int, ...]] = [
            tuple(cone.external_slots()) for cone in graph.cones
        ]
        self._cone_reads: List[Tuple[int, ...]] = [
            tuple(set(slots)) for slots in self._cone_slots
        ]
        self._cone_depth: List[int] = [cone.depth for cone in graph.cones]

        # Reference counts: how many operand references each slot still has,
        # and which slots are read together (the crossbar conflict graph the
        # bank allocator tries to keep colorable).
        self._remaining_refs: Dict[int, int] = {}
        self._conflicts: Dict[int, Set[int]] = {}
        for cone in graph.cones:
            for slot in self._cone_slots[cone.index]:
                self._remaining_refs[slot] = self._remaining_refs.get(slot, 0) + 1
            unique = sorted(self._cone_reads[cone.index])
            for i, a in enumerate(unique):
                for b in unique[i + 1 :]:
                    self._conflicts.setdefault(a, set()).add(b)
                    self._conflicts.setdefault(b, set()).add(a)

        # Cone dependencies and scheduling priorities.
        self._preds_left: List[int] = [0] * graph.n_cones
        self._consumers: List[List[int]] = [[] for _ in range(graph.n_cones)]
        for cone in graph.cones:
            preds = graph.predecessors(cone)
            self._preds_left[cone.index] = len(preds)
            for p in preds:
                self._consumers[p].append(cone.index)
        self._priority = graph.critical_path_priorities()

        # Candidate heap of cones whose producer cones have all been issued.
        self._candidates: List[Tuple[int, int]] = []
        for cone in graph.cones:
            if self._preds_left[cone.index] == 0:
                heapq.heappush(self._candidates, (-self._priority[cone.index], cone.index))

        # Value tracking: where each produced or relocated slot lives.
        self._value_location: Dict[int, Tuple[int, int]] = {}
        self._value_ready: Dict[int, int] = {}
        self._relocated: Dict[int, Tuple[int, int]] = {}
        self._relocate_ready: Dict[int, int] = {}
        self._copy_requests: Set[int] = set()
        self._n_copies = 0
        self._scheduled: List[bool] = [False] * graph.n_cones
        self._n_scheduled = 0

        # Register file state: free intermediate registers per bank.
        self._free_regs: List[List[int]] = [
            list(range(self._stream_base - 1, -1, -1)) for _ in range(config.n_banks)
        ]
        self._live_registers = 0
        self._max_live = 0
        # Write-port reservations at commit cycles.
        self._write_ports: Set[Tuple[int, int]] = set()

        # Input streaming structures.
        self._build_input_rows()
        self._loaded_rows: Dict[int, _LoadedRow] = {}
        self._free_stream_regs: List[int] = list(
            range(config.bank_depth - 1, self._stream_base - 1, -1)
        )
        self._wanted_rows: Set[int] = set()
        self._critical_rows: Set[int] = set()

    def _build_input_rows(self) -> None:
        """Pack referenced input slots into data-memory rows.

        Slots are laid out in the order their consumer cones can first be
        scheduled (earliest dependence level first, critical-path cones
        breaking ties), so rows are consumed roughly in the order they are
        loaded, and then repaired so that two inputs read by the same cone do
        not share a lane — a lane maps directly to a register bank, so sharing
        one would be a guaranteed crossbar conflict.
        """
        config, n_inputs = self._config, self._n_inputs
        asap = self._graph.asap_levels()
        first_use: Dict[int, Tuple[int, int, int]] = {}
        for cone in self._graph.cones:
            key = (asap[cone.index], -self._priority[cone.index], cone.index)
            for slot in self._cone_slots[cone.index]:
                if slot < n_inputs and (slot not in first_use or key < first_use[slot]):
                    first_use[slot] = key
        ordered = sorted(first_use, key=lambda s: (first_use[s], s))
        rows: List[List[Optional[int]]] = []
        self._row_of_slot: Dict[int, Tuple[int, int]] = {}
        for i, slot in enumerate(ordered):
            row_index, lane = divmod(i, config.n_banks)
            if lane == 0:
                rows.append([None] * config.n_banks)
            rows[row_index][lane] = slot
            self._row_of_slot[slot] = (row_index, lane)
        self._repair_input_lanes(rows)
        if len(rows) > config.dmem_rows:
            raise ResourceError(
                f"the SPN needs {len(rows)} data-memory rows for its inputs, but the "
                f"machine only has {config.dmem_rows}"
            )
        self._input_rows = rows
        self._dmem_image = [list(row) for row in rows]
        self._row_refs: List[int] = [0] * len(rows)
        for slot, count in self._remaining_refs.items():
            if slot < n_inputs:
                row_index, _ = self._row_of_slot[slot]
                self._row_refs[row_index] += count
        self._next_row_cursor = 0

    def _repair_input_lanes(self, rows: List[List[Optional[int]]]) -> None:
        """Swap lanes so co-read input slots do not collide on a bank."""
        for reads in self._cone_reads:
            input_slots = sorted(s for s in reads if s < self._n_inputs)
            used_lanes: Dict[int, int] = {}
            for slot in input_slots:
                row_index, lane = self._row_of_slot[slot]
                if lane not in used_lanes:
                    used_lanes[lane] = slot
                    continue
                # Find a free lane (not used by this cone) to swap into.
                target_lane = next(
                    (l for l in range(self._config.n_banks) if l not in used_lanes), None
                )
                if target_lane is None:
                    break  # more co-read inputs than banks; the copy path handles it
                other = rows[row_index][target_lane]
                rows[row_index][lane], rows[row_index][target_lane] = other, slot
                self._row_of_slot[slot] = (row_index, target_lane)
                if other is not None:
                    self._row_of_slot[other] = (row_index, lane)
                used_lanes[target_lane] = slot

    # ------------------------------------------------------------------ #
    # Per-cycle scheduling
    # ------------------------------------------------------------------ #
    def _schedule_cycle(self, cycle: int) -> Instruction:
        config = self._config
        instruction = Instruction(comment=f"cycle {cycle}")
        # Per-cycle resource state.
        read_cells: Dict[int, Tuple[int, int]] = {}  # bank -> cell being read
        leaf_free: List[List[bool]] = [
            [True] * config.leaf_pes_per_tree for _ in range(config.n_trees)
        ]
        trees_used: Set[int] = set()

        # Issue the memory transaction first so loads start as early as possible.
        mem_op = self._plan_memory(cycle)
        if mem_op is not None:
            instruction.mem = mem_op

        # Relocation copies requested by blocked cones go first: they are tiny
        # and unblock higher-priority work.
        for slot in sorted(self._copy_requests):
            self._try_relocate(slot, cycle, instruction, read_cells, leaf_free)

        deferred: List[Tuple[int, int]] = []
        blocked_rows: Set[int] = set()
        critical_rows: Set[int] = set()
        n_placed = 0
        free_leaf_slots = config.n_trees * config.leaf_pes_per_tree
        examined = 0
        while (
            self._candidates
            and free_leaf_slots > 0
            and len(read_cells) < config.n_banks
            and examined < self._options.scan_limit
        ):
            priority, cone_index = heapq.heappop(self._candidates)
            examined += 1
            cone = self._graph.cones[cone_index]
            cone_rows: Set[int] = set()
            placed = self._try_place(
                cone, cycle, instruction, read_cells, leaf_free, trees_used, cone_rows
            )
            blocked_rows |= cone_rows
            if placed:
                free_leaf_slots -= 2 ** (self._cone_depth[cone_index] - 1)
                n_placed += 1
            else:
                deferred.append((priority, cone_index))
                if not critical_rows and cone_rows:
                    # Highest-priority cone that is blocked on unloaded input
                    # rows: these rows are protected from eviction so the cone
                    # is guaranteed to make progress eventually.
                    critical_rows = set(cone_rows)
        for item in deferred:
            heapq.heappush(self._candidates, item)

        self._wanted_rows = blocked_rows
        if n_placed > 0:
            self._critical_rows = critical_rows
        else:
            # Nothing issued: keep protecting what we already protect so the
            # oldest blocked cone's rows cannot be thrashed out of the window.
            self._critical_rows |= critical_rows
        return instruction

    def _try_place(
        self,
        cone: Cone,
        cycle: int,
        instruction: Instruction,
        read_cells: Dict[int, Tuple[int, int]],
        leaf_free: List[List[bool]],
        trees_used: Set[int],
        blocked_rows: Set[int],
    ) -> bool:
        config = self._config
        ops = self._ops

        # 1. All operand data must be readable this cycle.
        operand_cells: Dict[int, Tuple[int, int]] = {}
        for slot in self._cone_reads[cone.index]:
            cell = self._slot_cell(slot, cycle, blocked_rows)
            if cell is None:
                return False
            operand_cells[slot] = cell

        # 2. Crossbar: each operand bank must carry a single cell, both within
        #    this cone and against reads already planned this cycle.
        cone_banks: Dict[int, Tuple[int, int]] = {}
        for slot, cell in operand_cells.items():
            clash = cone_banks.get(cell[0])
            if clash is not None and clash != cell:
                # Two operands of this cone live in the same bank: request a
                # relocation copy for one of them and give up for now.
                self._copy_requests.add(slot)
                return False
            cone_banks[cell[0]] = cell
        for bank, cell in cone_banks.items():
            current = read_cells.get(bank)
            if current is not None and current != cell:
                return False

        # 3. Find a free, aligned subtree block on some tree where every
        #    output of the cone can be written: each written member needs a
        #    bank inside its PE's window with a free register and a free write
        #    port at its commit cycle.
        block_size = 2 ** (self._cone_depth[cone.index] - 1)
        placement = None
        for tree in range(config.n_trees):
            if not self._options.pack_multiple_cones and tree in trees_used:
                continue
            free = leaf_free[tree]
            for block_start in range(0, config.leaf_pes_per_tree, block_size):
                if not all(free[block_start : block_start + block_size]):
                    continue
                layout = self._layout(cone, tree, block_start)
                allocations = self._allocate_outputs(cone, tree, layout[2], cycle)
                if allocations is None:
                    continue
                placement = (tree, block_start, layout, allocations)
                break
            if placement is not None:
                break
        if placement is None:
            return False
        tree, block_start, (pe_ops, port_slots, _), allocations = placement

        # ---- Commit the placement -------------------------------------- #
        for offset in range(block_size):
            leaf_free[tree][block_start + offset] = False
        trees_used.add(tree)
        read_cells.update(cone_banks)

        instruction.pe_ops.update(pe_ops)
        for port, slot in port_slots:
            bank, reg = operand_cells[slot]
            instruction.reads.append(
                ReadSpec(port=(tree, port), bank=bank, reg=reg, slot=slot)
            )
        for op_index, pe, bank, reg, commit in allocations:
            dest_slot = ops.dest_slot(op_index)
            instruction.writes.append(
                WriteSpec(pe=pe, bank=bank, reg=reg, slot=dest_slot)
            )
            self._write_ports.add((commit, bank))
            self._value_location[dest_slot] = (bank, reg)
            self._value_ready[dest_slot] = commit
            self._live_registers += 1

        self._scheduled[cone.index] = True
        self._n_scheduled += 1
        self._max_live = max(self._max_live, self._live_registers)

        # Release operand references.
        for slot in self._cone_slots[cone.index]:
            self._release_reference(slot)
        # Wake up consumer cones.
        for consumer in self._consumers[cone.index]:
            self._preds_left[consumer] -= 1
            if self._preds_left[consumer] == 0:
                heapq.heappush(
                    self._candidates, (-self._priority[consumer], consumer)
                )
        return True

    # ------------------------------------------------------------------ #
    # Placement helpers
    # ------------------------------------------------------------------ #
    def _allocate_outputs(
        self,
        cone: Cone,
        tree: int,
        member_position: Dict[int, Tuple[int, int]],
        cycle: int,
    ) -> Optional[List[Tuple[int, Tuple[int, int, int], int, int, int]]]:
        """Pick a (bank, register) for every value the cone writes back.

        Returns ``[(op_index, pe, bank, reg, commit_cycle), ...]`` or ``None``
        when some output cannot be placed, in which case any tentatively
        reserved registers are returned to their free lists.
        """
        config = self._config
        ops = self._ops
        allocations: List[Tuple[int, Tuple[int, int, int], int, int, int]] = []
        local_ports: Set[Tuple[int, int]] = set()
        for op_index in cone.outputs:
            level, pos = member_position[op_index]
            allowed = config.allowed_write_banks(tree, level, pos)
            commit = cycle + config.result_latency(level + 1)
            dest_slot = ops.dest_slot(op_index)
            candidates = [
                bank
                for bank in allowed
                if self._free_regs[bank]
                and (commit, bank) not in self._write_ports
                and (commit, bank) not in local_ports
            ]
            if not candidates:
                for _, _, bank, reg, _ in allocations:
                    self._free_regs[bank].append(reg)
                return None
            if self._options.conflict_aware_allocation:
                conflict_banks = {
                    self._current_cell(other)[0]
                    for other in self._conflicts.get(dest_slot, ())
                    if self._current_cell(other) is not None
                }
                preferred = [b for b in candidates if b not in conflict_banks]
                pool = preferred or candidates
                bank = max(pool, key=lambda b: len(self._free_regs[b]))
            else:
                bank = candidates[0]
            reg = self._free_regs[bank].pop()
            local_ports.add((commit, bank))
            allocations.append((op_index, (tree, level, pos), bank, reg, commit))
        return allocations

    def _current_cell(self, slot: int) -> Optional[Tuple[int, int]]:
        """Register-file cell currently assigned to ``slot`` (ignoring timing)."""
        if slot in self._relocated:
            return self._relocated[slot]
        if slot < self._n_inputs:
            row_index, lane = self._row_of_slot.get(slot, (None, None))
            if row_index is None:
                return None
            loaded = self._loaded_rows.get(row_index)
            if loaded is None:
                return None
            return lane, loaded.reg
        return self._value_location.get(slot)

    def _slot_cell(
        self, slot: int, cycle: int, blocked_rows: Set[int]
    ) -> Optional[Tuple[int, int]]:
        """Cell holding ``slot`` if it is readable at ``cycle``, else ``None``."""
        if slot in self._relocated:
            if self._relocate_ready[slot] > cycle:
                return None
            return self._relocated[slot]
        if slot < self._n_inputs:
            row_index, lane = self._row_of_slot[slot]
            loaded = self._loaded_rows.get(row_index)
            if loaded is None or loaded.ready_cycle > cycle:
                blocked_rows.add(row_index)
                return None
            return lane, loaded.reg
        if self._value_ready.get(slot, 1 << 60) > cycle:
            return None
        return self._value_location.get(slot)

    def _release_reference(self, slot: int) -> None:
        self._remaining_refs[slot] -= 1
        if self._remaining_refs[slot] > 0:
            return
        if slot == self._ops.root_slot:
            return
        if slot in self._relocated:
            bank, reg = self._relocated[slot]
            self._free_regs[bank].append(reg)
            self._live_registers -= 1
            return
        if slot < self._n_inputs:
            row_index, _ = self._row_of_slot[slot]
            self._row_refs[row_index] -= 1
            return
        location = self._value_location.get(slot)
        if location is not None:
            bank, reg = location
            self._free_regs[bank].append(reg)
            self._live_registers -= 1

    def _blocked_report(self, cycle: int) -> str:
        """Explain why the highest-priority candidate cones cannot issue.

        Included in scheduler error messages so that configuration problems
        (register pressure, missing rows, permanent conflicts) are actionable.
        """
        lines = [f"blocked-candidate report at cycle {cycle}:"]
        snapshot = heapq.nsmallest(5, self._candidates)
        for priority, cone_index in snapshot:
            reasons = []
            for slot in sorted(self._cone_reads[cone_index]):
                cell = self._slot_cell(slot, cycle, set())
                if cell is None:
                    if slot < self._n_inputs:
                        row_index, _ = self._row_of_slot[slot]
                        loaded = row_index in self._loaded_rows
                        reasons.append(
                            f"input slot {slot} (row {row_index}, "
                            f"{'loading' if loaded else 'not loaded'})"
                        )
                    else:
                        reasons.append(f"value slot {slot} not ready")
            free_regs = sum(len(regs) for regs in self._free_regs)
            lines.append(
                f"  cone {cone_index} (priority {-priority}, "
                f"depth {self._cone_depth[cone_index]}): "
                + (", ".join(reasons) if reasons else "operands ready")
                + f"; free intermediate registers: {free_regs}"
            )
        if not snapshot:
            lines.append("  (no candidate cones; the dependence graph may be cyclic)")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Relocation copies (crossbar conflict resolution)
    # ------------------------------------------------------------------ #
    def _try_relocate(
        self,
        slot: int,
        cycle: int,
        instruction: Instruction,
        read_cells: Dict[int, Tuple[int, int]],
        leaf_free: List[List[bool]],
    ) -> bool:
        """Copy ``slot`` into a conflict-free bank via a pass-through PE."""
        config = self._config
        if self._remaining_refs.get(slot, 0) <= 0:
            self._copy_requests.discard(slot)
            return False
        source = self._slot_cell(slot, cycle, set())
        if source is None:
            return False
        current = read_cells.get(source[0])
        if current is not None and current != source:
            return False
        co_readers = self._conflicts.get(slot, ())
        conflict_banks = {
            self._current_cell(other)[0]
            for other in co_readers
            if self._current_cell(other) is not None
        }
        conflict_banks.add(source[0])
        if len(conflict_banks) >= config.n_banks:
            # A widely shared slot's co-readers can cover every bank, most of
            # them read by cones that already issued; the copy would then
            # never issue.  Only co-readers still to be read constrain it.
            conflict_banks = {
                self._current_cell(other)[0]
                for other in co_readers
                if self._remaining_refs.get(other, 0) > 0
                and self._current_cell(other) is not None
            }
            conflict_banks.add(source[0])
        commit = cycle + config.result_latency(1)
        for tree in range(config.n_trees):
            for pos in range(config.leaf_pes_per_tree):
                if not leaf_free[tree][pos]:
                    continue
                if (tree, 0, pos) in instruction.pe_ops:
                    continue
                allowed = config.allowed_write_banks(tree, 0, pos)
                candidates = [
                    bank
                    for bank in allowed
                    if bank not in conflict_banks
                    and self._free_regs[bank]
                    and (commit, bank) not in self._write_ports
                ]
                if not candidates:
                    continue
                bank = max(candidates, key=lambda b: len(self._free_regs[b]))
                reg = self._free_regs[bank].pop()
                leaf_free[tree][pos] = False
                read_cells[source[0]] = source
                self._write_ports.add((commit, bank))
                instruction.pe_ops[(tree, 0, pos)] = OP_PASS_A
                instruction.reads.append(
                    ReadSpec(port=(tree, 2 * pos), bank=source[0], reg=source[1], slot=slot)
                )
                instruction.writes.append(
                    WriteSpec(pe=(tree, 0, pos), bank=bank, reg=reg, slot=slot)
                )
                # Free the old home of the value and record the new one.
                self._free_old_home(slot)
                self._relocated[slot] = (bank, reg)
                self._relocate_ready[slot] = commit
                self._live_registers += 1
                self._max_live = max(self._max_live, self._live_registers)
                self._copy_requests.discard(slot)
                self._n_copies += 1
                return True
        return False

    def _free_old_home(self, slot: int) -> None:
        """Release the storage a slot occupied before it was relocated."""
        if slot in self._relocated:
            bank, reg = self._relocated[slot]
            self._free_regs[bank].append(reg)
            self._live_registers -= 1
            return
        if slot < self._n_inputs:
            # Future references will read the relocated copy, so the streaming
            # row no longer needs to stay resident for this slot.
            row_index, _ = self._row_of_slot[slot]
            self._row_refs[row_index] -= self._remaining_refs.get(slot, 0)
            return
        location = self._value_location.pop(slot, None)
        if location is not None:
            bank, reg = location
            self._free_regs[bank].append(reg)
            self._live_registers -= 1

    # ------------------------------------------------------------------ #
    # Input streaming
    # ------------------------------------------------------------------ #
    def _plan_memory(self, cycle: int) -> Optional[MemOp]:
        """Decide the (at most one) vector load issued this cycle."""
        row_index = self._next_row_to_load()
        if row_index is None:
            return None
        reg = self._acquire_stream_reg(row_index, cycle)
        if reg is None:
            return None
        self._loaded_rows[row_index] = _LoadedRow(
            reg=reg, ready_cycle=cycle + self._config.load_latency
        )
        slots = tuple(self._input_rows[row_index])
        return MemOp(kind="load", row=row_index, reg=reg, slots=slots)

    def _next_row_to_load(self) -> Optional[int]:
        """Pick the next unloaded input row, preferring rows blocking ready cones."""
        for row_index in sorted(self._critical_rows) + sorted(self._wanted_rows):
            if row_index not in self._loaded_rows and self._row_refs[row_index] > 0:
                return row_index
        # Otherwise prefetch rows in first-use order.
        while self._next_row_cursor < len(self._input_rows):
            row_index = self._next_row_cursor
            if row_index in self._loaded_rows or self._row_refs[row_index] == 0:
                self._next_row_cursor += 1
                continue
            return row_index
        # All rows past the cursor handled; look for evicted rows that became
        # needed again (reload case).
        for row_index, refs in enumerate(self._row_refs):
            if refs > 0 and row_index not in self._loaded_rows:
                return row_index
        return None

    def _acquire_stream_reg(self, for_row: int, cycle: int) -> Optional[int]:
        """Find a register row for a new load, evicting a dead row if needed."""
        if self._free_stream_regs:
            return self._free_stream_regs.pop()
        # Recently loaded rows keep a grace period so a row cannot be thrown
        # out again before the cone that asked for it had a chance to issue.
        grace = self._config.load_latency + 4

        def evictable(row_index: int) -> bool:
            loaded = self._loaded_rows[row_index]
            return loaded.ready_cycle + grace <= cycle

        # First choice: resident rows with no outstanding references.
        for row_index, loaded in list(self._loaded_rows.items()):
            if self._row_refs[row_index] == 0 and evictable(row_index):
                del self._loaded_rows[row_index]
                return loaded.reg
        # As a last resort (only when the blocked row is genuinely needed now),
        # evict a resident row; constants can always be reloaded from the data
        # memory later.  Rows needed by the highest-priority blocked cone are
        # protected so that cone is guaranteed to issue eventually — it needs
        # at most one row per input port, which is always fewer than the
        # streaming window, so an evictable row eventually exists.
        if for_row not in self._wanted_rows and for_row not in self._critical_rows:
            return None
        protected = self._critical_rows | {for_row}
        candidates = [
            row_index
            for row_index in self._loaded_rows
            if row_index not in protected and evictable(row_index)
        ]
        if not candidates:
            return None
        # Prefer a row nobody is currently waiting for; among those, the one
        # that has been resident the longest.
        not_wanted = [r for r in candidates if r not in self._wanted_rows]
        pool = not_wanted or candidates
        victim = min(pool, key=lambda r: self._loaded_rows[r].ready_cycle)
        reg = self._loaded_rows[victim].reg
        del self._loaded_rows[victim]
        # The victim may be needed again later; it will simply be reloaded.
        self._next_row_cursor = min(self._next_row_cursor, victim)
        return reg

    # ------------------------------------------------------------------ #
    # Cone embedding (PE placement and crossbar reads)
    # ------------------------------------------------------------------ #
    def _layout(
        self,
        cone: Cone,
        tree: int,
        block_start: int,
    ) -> Tuple[
        Dict[Tuple[int, int, int], str],
        List[Tuple[int, int]],
        Dict[int, Tuple[int, int]],
    ]:
        """Map a cone onto the subtree anchored at ``block_start`` of ``tree``.

        Returns the PE opcode assignment, the crossbar port assignments
        (``(port, operand slot)`` pairs) and, for every member operation, the
        (level, position) of the PE that computes it.  External operands of
        operations above level 0 are routed up through pass-through PEs along
        the left spine of the corresponding subtree, as the datapath requires.
        """
        ops = self._ops
        pe_ops: Dict[Tuple[int, int, int], str] = {}
        port_slots: List[Tuple[int, int]] = []
        member_position: Dict[int, Tuple[int, int]] = {}

        def deliver(operand: ConeOperand, level: int, pos: int) -> None:
            if operand.kind == "external":
                leaf_pos = pos * (2 ** level)
                for lvl in range(level, 0, -1):
                    chain_pos = pos * (2 ** (level - lvl))
                    pe_ops[(tree, lvl, chain_pos)] = OP_PASS_A
                pe_ops.setdefault((tree, 0, leaf_pos), OP_PASS_A)
                port_slots.append((2 * leaf_pos, operand.slot))
                return
            op_index = operand.op_index
            opcode = OP_ADD if ops.operations[op_index].op == SPN_ADD else OP_MUL
            pe_ops[(tree, level, pos)] = opcode
            member_position[op_index] = (level, pos)
            left, right = cone.operands[op_index]
            if level == 0:
                for port_offset, child in enumerate((left, right)):
                    if child.kind != "external":
                        raise CompilationError(
                            f"cone {cone.index}: operation {op_index} placed at a leaf "
                            "PE but has an internal operand"
                        )
                    port_slots.append((2 * pos + port_offset, child.slot))
                return
            deliver(left, level - 1, 2 * pos)
            deliver(right, level - 1, 2 * pos + 1)

        root_height = cone.height
        root_pos = block_start >> root_height
        deliver(ConeOperand.internal(cone.root_op), root_height, root_pos)
        return pe_ops, port_slots, member_position
