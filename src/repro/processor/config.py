"""Machine description of the SPN processor (Sec. IV of the paper).

A single :class:`ProcessorConfig` object is shared by the compiler
(:mod:`repro.compiler`) and the cycle-accurate simulator
(:mod:`repro.processor.simulator`), so both always agree on the structural
constraints of the machine:

* ``n_trees`` PE trees, each a complete binary tree with ``n_levels`` levels
  (level 0 holds the leaf PEs that read from the crossbar);
* a register file of ``n_banks`` banks with ``bank_depth`` registers each;
  every tree owns a contiguous slice of banks (its private register file);
* a crossbar that lets any leaf-PE input port read any bank, but at most one
  read per bank per cycle across the whole machine;
* per-level write windows: the PE at level ``l``, position ``p`` of a tree may
  write only to a window of ``2**(l+1)`` banks of that tree's slice (2 banks
  for leaf PEs, 4 for the next level, and so on, as in Fig. 3);
* a data memory accessed one vector per cycle: a transaction moves one word
  per bank between the data memory row and a single register index of every
  bank.

The two configurations evaluated in the paper are provided as constructors:
:func:`ptree_config` (2 trees of 4 levels, 30 PEs) and :func:`pvect_config`
(16 single-PE trees, i.e. only the lowest level of PEs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["ProcessorConfig", "ptree_config", "pvect_config"]


@dataclass(frozen=True)
class ProcessorConfig:
    """Structural and timing parameters of the SPN processor."""

    name: str = "Ptree"
    #: Number of PE trees.
    n_trees: int = 2
    #: Levels per tree; a tree has ``2**(n_levels-1)`` leaf PEs and
    #: ``2**n_levels - 1`` PEs in total.
    n_levels: int = 4
    #: Total number of register banks (shared equally among the trees).
    n_banks: int = 32
    #: Registers per bank.
    bank_depth: int = 64
    #: Words per data-memory row (one word per bank).
    dmem_rows: int = 512
    #: Cycles between issuing a vector load and the data being readable.
    load_latency: int = 2
    #: Pipeline stages between a PE producing a value and that value being
    #: readable through the crossbar (registered PE output plus the register
    #: file write-back); a value produced by the PE at level ``l`` is readable
    #: ``l + pe_latency`` cycles after its instruction issued.
    pe_latency: int = 2

    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        if self.n_trees < 1 or self.n_levels < 1:
            raise ValueError("n_trees and n_levels must be >= 1")
        if self.n_banks % self.n_trees != 0:
            raise ValueError("n_banks must be divisible by n_trees")
        if self.bank_depth < 2:
            raise ValueError("bank_depth must be >= 2")
        if self.banks_per_tree < self.leaf_pes_per_tree * 2:
            raise ValueError(
                "each tree needs at least two writable banks per leaf PE "
                f"({self.leaf_pes_per_tree * 2} banks/tree, "
                f"got {self.banks_per_tree})"
            )
        if self.dmem_rows < 1:
            raise ValueError("dmem_rows must be >= 1")
        if self.load_latency < 1 or self.pe_latency < 1:
            raise ValueError("latencies must be >= 1")
        # Every PE's write window, computed once: the compiler and the
        # simulator ask for one on each placement attempt and each write-back.
        # Not a dataclass field, so equality, hashing and repr ignore it.
        windows: Dict[Tuple[int, int, int], Tuple[int, ...]] = {}
        for tree in range(self.n_trees):
            base, _ = self.tree_bank_range(tree)
            for level in range(self.n_levels):
                window = min(2 ** (level + 1), self.banks_per_tree)
                for position in range(self.pes_at_level(level)):
                    start = base + (position * window) % self.banks_per_tree
                    windows[tree, level, position] = tuple(range(start, start + window))
        object.__setattr__(self, "_write_windows", windows)

    # ------------------------------------------------------------------ #
    # Derived structure
    # ------------------------------------------------------------------ #
    @property
    def leaf_pes_per_tree(self) -> int:
        return 2 ** (self.n_levels - 1)

    @property
    def pes_per_tree(self) -> int:
        return 2 ** self.n_levels - 1

    @property
    def n_pes(self) -> int:
        """Total number of processing elements (30 for Ptree, 16 for Pvect)."""
        return self.n_trees * self.pes_per_tree

    @property
    def input_ports_per_tree(self) -> int:
        """Crossbar read ports feeding one tree (two per leaf PE)."""
        return 2 * self.leaf_pes_per_tree

    @property
    def n_input_ports(self) -> int:
        return self.n_trees * self.input_ports_per_tree

    @property
    def banks_per_tree(self) -> int:
        return self.n_banks // self.n_trees

    @property
    def n_registers(self) -> int:
        """Total register count (2K 32-bit registers for both configurations)."""
        return self.n_banks * self.bank_depth

    def tree_bank_range(self, tree: int) -> Tuple[int, int]:
        """Half-open range of bank indices forming tree ``tree``'s private RF."""
        self._check_tree(tree)
        base = tree * self.banks_per_tree
        return base, base + self.banks_per_tree

    def pes_at_level(self, level: int) -> int:
        """Number of PEs per tree at ``level`` (level 0 = leaf PEs)."""
        self._check_level(level)
        return 2 ** (self.n_levels - 1 - level)

    def allowed_write_banks(self, tree: int, level: int, position: int) -> List[int]:
        """Banks the PE at (tree, level, position) is allowed to write.

        Leaf PEs may write to a window of 2 banks, level-1 PEs to 4 banks and
        so on, always within the tree's private slice, mirroring Fig. 3.
        """
        window = self._write_windows.get((tree, level, position))
        if window is None:
            self._check_tree(tree)
            self._check_level(level)
            raise ValueError(f"position {position} out of range for level {level}")
        return list(window)

    def result_latency(self, cone_depth: int) -> int:
        """Cycles until the output of a cone of ``cone_depth`` levels is readable."""
        if not 1 <= cone_depth <= self.n_levels:
            raise ValueError(
                f"cone depth must be in [1, {self.n_levels}], got {cone_depth}"
            )
        return cone_depth - 1 + self.pe_latency

    # ------------------------------------------------------------------ #
    def _check_tree(self, tree: int) -> None:
        if not 0 <= tree < self.n_trees:
            raise ValueError(f"tree index {tree} out of range [0, {self.n_trees})")

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.n_levels:
            raise ValueError(f"level {level} out of range [0, {self.n_levels})")

    def summary(self) -> str:
        """Human-readable one-line summary (used by the Table I report)."""
        return (
            f"{self.name}: {self.n_pes} PEs ({self.n_trees} trees x {self.n_levels} "
            f"levels), {self.n_banks} banks x {self.bank_depth} regs, "
            f"{self.dmem_rows} data-memory rows"
        )


def ptree_config(**overrides) -> ProcessorConfig:
    """The paper's ``Ptree`` configuration: 2 trees with 4 levels of PEs (30 PEs)."""
    params = dict(name="Ptree", n_trees=2, n_levels=4, n_banks=32, bank_depth=64)
    params.update(overrides)
    return ProcessorConfig(**params)


def pvect_config(**overrides) -> ProcessorConfig:
    """The paper's ``Pvect`` configuration: only the 16 lowest-level PEs.

    Everything else (register file, crossbar, data memory) is identical to
    ``Ptree``, exactly as in the paper's comparison.
    """
    params = dict(name="Pvect", n_trees=16, n_levels=1, n_banks=32, bank_depth=64)
    params.update(overrides)
    return ProcessorConfig(**params)
