"""Structural tests on the programs emitted by the scheduler.

These tests inspect the generated VLIW code directly (rather than only its
simulated result) to check that the scheduler honours every machine
constraint it is responsible for: crossbar read ports, write windows,
write-port conflicts at commit time, single memory transaction per cycle and
read-after-write latencies.
"""

from collections import defaultdict

import pytest

from repro.compiler.driver import compile_operation_list, compile_spn, verify_program
from repro.compiler.scheduler import ScheduleOptions
from repro.processor.config import ptree_config, pvect_config
from repro.processor.isa import OP_NOP
from repro.spn.generate import GeneratorConfig, generate_spn
from repro.suite.registry import benchmark_operation_list


@pytest.fixture(scope="module", params=["Ptree", "Pvect"])
def compiled(request):
    config = ptree_config() if request.param == "Ptree" else pvect_config()
    ops = benchmark_operation_list("Banknote")
    return compile_operation_list(ops, config)


class TestStructuralInvariants:
    def test_one_read_per_bank_per_cycle(self, compiled):
        for instr in compiled.program.instructions:
            cells_by_bank = defaultdict(set)
            for read in instr.reads:
                cells_by_bank[read.bank].add((read.bank, read.reg))
            for bank, cells in cells_by_bank.items():
                assert len(cells) == 1, f"bank {bank} read at two addresses"

    def test_each_port_driven_at_most_once(self, compiled):
        for instr in compiled.program.instructions:
            ports = [read.port for read in instr.reads]
            assert len(ports) == len(set(ports))

    def test_writes_respect_bank_windows(self, compiled):
        config = compiled.config
        for instr in compiled.program.instructions:
            for write in instr.writes:
                tree, level, pos = write.pe
                allowed = config.allowed_write_banks(tree, level, pos)
                assert write.bank in allowed

    def test_writes_come_from_configured_pes(self, compiled):
        for instr in compiled.program.instructions:
            for write in instr.writes:
                assert instr.pe_ops.get(write.pe, OP_NOP) != OP_NOP

    def test_no_write_port_conflicts_at_commit(self, compiled):
        config = compiled.config
        commits = defaultdict(int)
        for cycle, instr in enumerate(compiled.program.instructions):
            for write in instr.writes:
                level = write.pe[1]
                commit = cycle + config.result_latency(level + 1)
                commits[(commit, write.bank)] += 1
        assert all(count <= 1 for count in commits.values())

    def test_at_most_one_memory_op_per_cycle(self, compiled):
        for instr in compiled.program.instructions:
            assert instr.mem is None or instr.mem.kind in ("load", "store")

    def test_register_indices_in_range(self, compiled):
        config = compiled.config
        for instr in compiled.program.instructions:
            for read in instr.reads:
                assert 0 <= read.bank < config.n_banks
                assert 0 <= read.reg < config.bank_depth
            for write in instr.writes:
                assert 0 <= write.bank < config.n_banks
                assert 0 <= write.reg < config.bank_depth

    def test_reads_only_after_producer_latency(self, compiled):
        """Any slot read at cycle t must have been written at least `latency` earlier."""
        config = compiled.config
        ready_cycle = {}
        for cycle, instr in enumerate(compiled.program.instructions):
            if instr.mem is not None and instr.mem.kind == "load" and instr.mem.slots:
                for slot in instr.mem.slots:
                    if slot is not None:
                        ready_cycle[slot] = cycle + config.load_latency
            for read in instr.reads:
                if read.slot is not None and read.slot in ready_cycle:
                    assert cycle >= ready_cycle[read.slot]
            for write in instr.writes:
                if write.slot is not None:
                    level = write.pe[1]
                    commit = cycle + config.result_latency(level + 1)
                    previous = ready_cycle.get(write.slot)
                    ready_cycle[write.slot] = (
                        commit if previous is None else min(previous, commit)
                    )

    def test_pe_ids_exist_in_machine(self, compiled):
        config = compiled.config
        for instr in compiled.program.instructions:
            for tree, level, pos in instr.pe_ops:
                assert 0 <= tree < config.n_trees
                assert 0 <= level < config.n_levels
                assert 0 <= pos < config.pes_at_level(level)

    def test_dmem_image_slots_are_inputs(self, compiled):
        n_inputs = compiled.ops.n_inputs
        for row in compiled.program.dmem_image:
            for slot in row:
                assert slot is None or 0 <= slot < n_inputs

    def test_arith_ops_counted_once(self, compiled):
        assert compiled.program.n_arith_ops == compiled.ops.n_operations


class TestScheduleQuality:
    def test_instruction_stream_is_compact(self, compiled):
        """The schedule must not be dominated by idle instructions."""
        program = compiled.program
        idle = sum(1 for i in program.instructions if not i.pe_ops and i.mem is None)
        assert idle <= 0.5 * program.n_instructions

    def test_loads_cover_all_referenced_inputs(self, compiled):
        referenced = set()
        for op in compiled.ops.operations:
            for arg in (op.arg0, op.arg1):
                if arg < compiled.ops.n_inputs:
                    referenced.add(arg)
        in_image = {slot for row in compiled.program.dmem_image for slot in row if slot is not None}
        assert referenced <= in_image

    def test_ptree_packs_multiple_cones_per_cycle(self):
        ops = benchmark_operation_list("Banknote")
        kernel = compile_operation_list(ops, ptree_config())
        per_cycle = [len(i.writes) for i in kernel.program.instructions if i.writes]
        assert max(per_cycle) > 1


class TestRelocationCopies:
    @pytest.mark.parametrize("seed", [5, 14, 17, 24, 26])
    def test_shared_input_covering_every_bank_still_relocates(self, seed):
        # A slot read together with inputs in all 32 banks (slot 20 of seed 5
        # has 60+ co-readers): the relocation copy must still find a bank,
        # or the cone that asked for it never issues.
        spn = generate_spn(GeneratorConfig(n_vars=6 + seed % 10, seed=seed))
        kernel = compile_spn(spn, ptree_config())
        assert kernel.stats.n_copies > 0
        assert verify_program(kernel, [None, {0: 1}])
