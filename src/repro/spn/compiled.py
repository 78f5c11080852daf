"""Vectorized execution of operation lists (the ``"vectorized"`` engine).

The reference executors in this package interpret an SPN one node (or one
binary operation) at a time in pure Python.  That is the right shape for a
functional ground truth, but it is orders of magnitude too slow for figure
reproductions and design-space sweeps over large networks and large evidence
batches.  This module provides the standard fix (the approach SPFlow and
other tensorized SPN libraries take): compile the network **once** into a
flat NumPy tape and then evaluate whole evidence batches with a handful of
fused array kernels.

Compilation (:func:`compile_tape`) lowers an
:class:`~repro.spn.linearize.OperationList` in three steps:

1. **Levelize** — operations are grouped by ASAP dependency level
   (:meth:`OperationList.levels`); operations within a level are mutually
   independent, so each level can execute as one array operation.
2. **Reorder** — operations are permuted so that every ``(level, opcode)``
   group writes a *contiguous* range of slots.  The scatter that a naive
   tape needs on its destination side becomes a plain slice assignment, and
   operand references are remapped through the resulting permutation.
3. **Pack** — each group becomes one :class:`TapeKernel` carrying its two
   gather index vectors and its destination slice.

Execution (:meth:`CompiledTape.execute_batch`) runs one
``np.add``/``np.multiply`` (or ``np.logaddexp``/``np.add`` in the exact log
domain) per kernel, reading operands through copy-free slice views when a
kernel's operand range is contiguous (the common case after the reorder
step) and fancy-indexed gathers otherwise.  The whole batch is evaluated
with ``O(depth)`` NumPy calls instead of ``O(n_operations * n_rows)``
Python bytecode.  Batches run the tape's memory plan
(:mod:`repro.spn.memplan`): a physical-slot program whose working set is
the tape's liveness peak, several times smaller than ``n_slots``.  Linear
passes run that plan in the native interpreter (:mod:`repro.spn.native`)
when a C compiler is available; the NumPy kernel loop runs the exact log
kernels, profiled passes and everything on hosts without one.
:meth:`CompiledTape.execute_slots` keeps the dense ``(n_slots, n_rows)``
slot matrix as the reference both executors are bit-identical to.

A log-domain pass (``log_domain=True``) runs the linear kernels and takes
one ``np.log`` per row, keeping that answer for rows whose linear root lies
at or above the tape's proved :meth:`CompiledTape.linear_floor`.  Every
other row — below the floor, zero or non-finite — is recomputed on a
gathered sub-batch by the exact log kernels (``+`` for products,
``logaddexp`` for sums), which stay numerically safe for deep networks
whose linear-domain values underflow.  The rule (:func:`log_via_linear`)
looks at one row at a time, so a row's answer never depends on its batch.

Evidence batches follow the canonical convention documented at
:data:`repro.spn.evaluate.MARGINALIZED`: integer arrays of shape
``(n_rows, n_vars)`` where ``-1`` marks an unobserved variable.

Cross-checking: :attr:`CompiledTape.slot_map` maps every slot of the source
operation list to its tape slot, so a full slot-by-slot comparison against
:meth:`OperationList.execute_values` is possible (the tests use this).  The
``check=True`` paths of the engine dispatchers statically verify the tape
and its plan (:meth:`CompiledTape.verify_static`) and compare a batch
prefix against the python reference walk (:func:`cross_check`).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..observability.profile import active_profiler
from . import native
from .evaluate import as_evidence_array
from .graph import SPN, StructureError
from .linearize import (
    OP_ADD,
    OP_MUL,
    InputSlot,
    OperationList,
    input_slots_from_payload,
    input_slots_to_payload,
    linearize,
)
from .memplan import MemoryPlan, _as_stride_slice as _as_slice, execute_plan, plan_memory

__all__ = [
    "ENGINES",
    "CHECK_ROWS",
    "EngineMismatchError",
    "TapeKernel",
    "CompiledTape",
    "compile_tape",
    "cached_tape",
    "adopt_tape",
    "tape_to_payload",
    "tape_from_payload",
    "cross_check",
    "log_via_linear",
    "resolve_engine",
]

#: Names accepted by every ``engine=`` switch in the repository.
ENGINES = ("python", "vectorized")

#: Rows used by ``check=True`` cross-checks between execution engines.
CHECK_ROWS = 8

#: Target size of the per-block physical buffer in
#: :meth:`CompiledTape.execute_batch`; chosen to keep the working set inside
#: the last-level cache.
_BLOCK_BYTES = 8 << 20


class EngineMismatchError(AssertionError):
    """Raised when a cross-check between two execution engines disagrees."""


def cross_check(
    result: np.ndarray,
    data: np.ndarray,
    reference_fn: Callable[[np.ndarray], np.ndarray],
    rtol: float = 1e-9,
    atol: float = 0.0,
    what: str = "vectorized engine",
) -> None:
    """Compare a vectorized result against a reference on a batch prefix.

    Evaluates ``reference_fn`` on the first :data:`CHECK_ROWS` rows of
    ``data`` and raises :class:`EngineMismatchError` when the corresponding
    prefix of ``result`` disagrees.  This is the single implementation behind
    every ``check=True`` switch in the repository.
    """
    head = np.asarray(data)[:CHECK_ROWS]
    reference = reference_fn(head)
    if not np.allclose(result[: len(head)], reference, rtol=rtol, atol=atol, equal_nan=True):
        raise EngineMismatchError(
            f"{what} disagrees with the python reference: "
            f"{result[: len(head)]} vs {reference}"
        )


def log_via_linear(
    data: np.ndarray,
    floor: float,
    linear: Callable[[np.ndarray], np.ndarray],
    exact_log: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Answer a log-domain pass from a linear pass, row by row.

    ``linear(rows)`` and ``exact_log(rows)`` return root values for an
    evidence block.  Row ``i`` is answered ``log(linear(data)[i])`` when
    that linear root lies in ``[floor, inf)``; every other row (below the
    floor, zero, ``inf`` or ``nan``) is recomputed by ``exact_log`` on the
    gathered sub-batch.  The decision looks at the row's own value only,
    so a row's answer is the same alone or inside any batch.
    """
    out = linear(data)
    redo = ~((out >= floor) & (out < np.inf))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(out, out=out)
    if redo.any():
        out[redo] = exact_log(data[redo])
    return out


def resolve_engine(engine: str) -> str:
    """Validate an ``engine=`` argument and return it.

    Raises ``ValueError`` with the list of known engines for anything that is
    not one of :data:`ENGINES`.
    """
    if engine not in ENGINES:
        known = ", ".join(repr(e) for e in ENGINES)
        raise ValueError(f"unknown engine {engine!r}; expected one of {known}")
    return engine


def canonical_value_tables(
    ind_slots: np.ndarray,
    ind_vars: np.ndarray,
    ind_values: np.ndarray,
    const_slots: np.ndarray,
    const_probs: np.ndarray,
    n_slots: int,
) -> tuple:
    """Canonical value ids for input slots plus sorted signature tables.

    Returns ``(canon, ind_keys, ind_first, base, uniq_probs, const_first,
    is_const, const_prob)``: ``canon`` maps every slot to the lowest slot
    carrying the same *value* (operation slots map to themselves), the key
    tables answer signature lookups via ``searchsorted``.  Computed once per
    tape construction (``CompiledTape.__post_init__``) and consumed by the
    static verifier (:mod:`repro.statics.verifier`); the grouping uses a
    plain sort + ``searchsorted`` inverse — cheaper than asking
    :func:`numpy.unique` for indices, which argsorts.  Input slots ascend,
    so a reversed scatter leaves the first — lowest — slot per signature.
    """
    canon = np.arange(n_slots, dtype=np.int64)
    is_const = np.zeros(n_slots, dtype=bool)
    const_prob = np.full(n_slots, np.nan, dtype=np.float64)
    base = int(ind_values.max()) + 1 if ind_values.size else 1
    if ind_slots.size:
        keys = ind_vars.astype(np.int64) * base + ind_values
        ind_keys = np.unique(keys)
        inverse = np.searchsorted(ind_keys, keys)
        ind_first = np.empty(ind_keys.size, dtype=np.int64)
        ind_first[inverse[::-1]] = np.asarray(ind_slots, dtype=np.int64)[::-1]
        canon[ind_slots] = ind_first[inverse]
    else:
        ind_keys = np.empty(0, dtype=np.int64)
        ind_first = np.empty(0, dtype=np.int64)
    if const_slots.size:
        is_const[const_slots] = True
        const_prob[const_slots] = const_probs
        uniq_probs = np.unique(const_probs)
        cinverse = np.searchsorted(uniq_probs, const_probs)
        const_first = np.empty(uniq_probs.size, dtype=np.int64)
        const_first[cinverse[::-1]] = np.asarray(const_slots, dtype=np.int64)[::-1]
        canon[const_slots] = const_first[cinverse]
    else:
        uniq_probs = np.empty(0, dtype=np.float64)
        const_first = np.empty(0, dtype=np.int64)
    return (canon, ind_keys, ind_first, base, uniq_probs, const_first, is_const, const_prob)


@dataclass(frozen=True)
class TapeKernel:
    """One fused array operation: a ``(level, opcode)`` group of the tape.

    Executes ``slots[dest_start:dest_stop] = gather(arg0) (op) gather(arg1)``
    where ``arg0``/``arg1`` are slot-index vectors of length
    ``dest_stop - dest_start``.
    """

    level: int
    op: str
    dest_start: int
    dest_stop: int
    arg0: np.ndarray
    arg1: np.ndarray

    @property
    def width(self) -> int:
        return self.dest_stop - self.dest_start

    @property
    def is_add(self) -> bool:
        return self.op == OP_ADD


@dataclass
class CompiledTape:
    """An operation list compiled into a levelized NumPy tape.

    Slots ``0..n_inputs-1`` hold the input vector (same
    :class:`~repro.spn.linearize.InputSlot` layout as the source operation
    list); the remaining slots hold operation results in tape order, which
    differs from the source order — use :attr:`slot_map` to translate.
    """

    inputs: List[InputSlot]
    kernels: List[TapeKernel]
    root_slot: int
    #: Maps source operation-list slots to tape slots (identity on inputs).
    slot_map: Dict[int, int] = field(repr=False, default_factory=dict)

    # Precomputed index vectors for the vectorized input encoding.
    _ind_slots: np.ndarray = field(repr=False, default=None)
    _ind_vars: np.ndarray = field(repr=False, default=None)
    _ind_values: np.ndarray = field(repr=False, default=None)
    _const_slots: np.ndarray = field(repr=False, default=None)
    _const_probs: np.ndarray = field(repr=False, default=None)

    def __post_init__(self) -> None:
        ind = [s for s in self.inputs if s.kind == "indicator"]
        const = [s for s in self.inputs if s.kind != "indicator"]
        self._ind_slots = np.array([s.index for s in ind], dtype=np.intp)
        self._ind_vars = np.array([s.var for s in ind], dtype=np.intp)
        self._ind_values = np.array([s.value for s in ind], dtype=np.int64)
        self._const_slots = np.array([s.index for s in const], dtype=np.intp)
        self._const_probs = np.array([s.prob for s in const], dtype=np.float64)
        # Log-domain passes fill the input block directly: indicator inputs
        # are only ever 1.0/0.0 (log 0.0/-inf, no transcendental needed) and
        # the constants' logs are precomputed here, once per tape.
        with np.errstate(divide="ignore"):
            self._const_log_probs = np.log(self._const_probs)
        # Contiguous operand ranges execute as copy-free slice views.
        self._arg0_views = [_as_slice(k.arg0) for k in self.kernels]
        self._arg1_views = [_as_slice(k.arg1) for k in self.kernels]
        # The tape's one memory plan; see memory_plan().  The lock makes
        # concurrent first calls (serving workers starting on one tape)
        # share a single plan — and therefore a single set of per-thread
        # scratch buffers.
        self._plan: Optional[MemoryPlan] = None
        self._plan_lock = threading.Lock()
        # Proved on the first log pass; see linear_floor().
        self._linear_floor: Optional[float] = None
        # Cached shape and canonical-value tables.  Kernel *structure* is
        # fixed at construction (structural edits build a fresh tape), so the
        # width sum is a constant; the tables depend only on ``inputs`` and
        # let the static verifier resolve value signatures without rebuilding
        # them per verification — it then trusts only this constructor, the
        # same contract as the index vectors above.
        self._n_operations = int(sum(k.width for k in self.kernels))
        self._canon_tables = canonical_value_tables(
            self._ind_slots,
            self._ind_vars,
            self._ind_values,
            self._const_slots,
            self._const_probs,
            len(self.inputs) + self._n_operations,
        )

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #
    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    @property
    def n_operations(self) -> int:
        return self._n_operations

    @property
    def n_slots(self) -> int:
        return self.n_inputs + self.n_operations

    @property
    def n_levels(self) -> int:
        return self.kernels[-1].level if self.kernels else 0

    @property
    def n_kernels(self) -> int:
        return len(self.kernels)

    # ------------------------------------------------------------------ #
    # Input encoding
    # ------------------------------------------------------------------ #
    def input_matrix(
        self,
        data: np.ndarray,
        log_domain: bool = False,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Encode an evidence batch as the ``(n_inputs, n_rows)`` input block.

        ``data`` is an integer array of shape ``(n_rows, n_vars)`` using the
        :data:`~repro.spn.evaluate.MARGINALIZED` convention: any negative
        value marks an unobserved variable, and variables whose index
        exceeds the number of columns are likewise treated as unobserved,
        mirroring :func:`repro.spn.evaluate.evaluate_batch`.  The dtype is
        validated by :func:`repro.spn.evaluate.as_evidence_array` (integral
        floats coerce exactly, fractional/NaN entries raise).

        With ``log_domain`` the block holds log-values directly: indicator
        hits/misses become ``0.0``/``-inf`` without a transcendental log
        over the whole block, and constants use the tape's precomputed log
        probabilities — a large share of a log pass's cost on wide batches.
        ``out`` (shape ``(n_inputs, n_rows)``) receives the encoding in
        place, letting :meth:`execute_slots` fill its slot matrix without an
        intermediate block copy.
        """
        data = as_evidence_array(data)
        if data.ndim != 2:
            raise ValueError(f"expected a 2-D evidence array, got shape {data.shape}")
        n_rows, n_cols = data.shape
        hit_value, miss_value = (0.0, -np.inf) if log_domain else (1.0, 0.0)
        block = (
            out if out is not None else np.empty((self.n_inputs, n_rows), dtype=np.float64)
        )
        if self._ind_slots.size:
            if n_cols == 0:
                block[self._ind_slots] = hit_value
            else:
                # Clip out-of-range variable indices to a valid column, then
                # force those indicators to "hit" (unobserved) with the mask.
                in_range = self._ind_vars < n_cols
                cols = data[:, np.minimum(self._ind_vars, n_cols - 1)].T
                hit = (cols < 0) | (cols == self._ind_values[:, None])
                hit |= ~in_range[:, None]
                block[self._ind_slots] = np.where(hit, hit_value, miss_value)
        if self._const_slots.size:
            block[self._const_slots] = (
                self._const_log_probs if log_domain else self._const_probs
            )[:, None]
        return block

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute_slots(self, data: np.ndarray, log_domain: bool = False) -> np.ndarray:
        """Run the tape on an evidence batch and return all slot values.

        Returns the full ``(n_slots, n_rows)`` value matrix (in tape slot
        order).  This dense executor is the reference the memory plan is
        bit-identical to, and it answers kernel-less tapes, whose slot
        matrix is just the input block; :meth:`execute_batch` is the
        root-only, memory-planned entry point.
        """
        data = as_evidence_array(data)
        if data.ndim != 2:
            raise ValueError(f"expected a 2-D evidence array, got shape {data.shape}")
        n_rows = data.shape[0]
        slots = np.empty((self.n_slots, n_rows), dtype=np.float64)
        self.input_matrix(data, log_domain=log_domain, out=slots[: self.n_inputs])
        for kernel, view0, view1 in zip(self.kernels, self._arg0_views, self._arg1_views):
            # A contiguous operand range is a copy-free view; scattered
            # operands gather through fancy indexing.  Operands always live
            # below dest_start, so writing dest never aliases them.
            a = slots[view0 if view0 is not None else kernel.arg0]
            b = slots[view1 if view1 is not None else kernel.arg1]
            dest = slots[kernel.dest_start : kernel.dest_stop]
            if log_domain:
                # Products add log-values; sums combine with logaddexp, which
                # handles -inf (zero probability) operands exactly.
                np.logaddexp(a, b, out=dest) if kernel.is_add else np.add(a, b, out=dest)
            else:
                np.add(a, b, out=dest) if kernel.is_add else np.multiply(a, b, out=dest)
        return slots

    def memory_plan(self) -> MemoryPlan:
        """The tape's :class:`~repro.spn.memplan.MemoryPlan` (planned once).

        Every batched pass runs this plan, with a working set of
        ``plan.n_physical`` rows instead of ``n_slots``.  It is either
        planned here on first use or installed by :meth:`adopt_plan`.
        """
        with self._plan_lock:
            if self._plan is None:
                self._plan = plan_memory(self)
            return self._plan

    def adopt_plan(self, plan: MemoryPlan) -> None:
        """Install ``plan`` as the tape's one memory plan.

        AOT artifacts (:mod:`repro.lifecycle`) ship the memory plan alongside
        the tape; adopting it makes :meth:`memory_plan` — and therefore
        every batched pass — run the shipped plan without ever calling
        :func:`~repro.spn.memplan.plan_memory` at load time.
        """
        with self._plan_lock:
            self._plan = plan

    def verify_static(self) -> None:
        """Statically verify the tape and its memory plan (``check=True``).

        Runs :func:`repro.statics.verifier.verify_compiled` before any
        value check, so dataflow violations (aliased slots, understated
        liveness) are proved wholesale rather than hoped-to-surface on the
        prefix rows.  Memoized per plan object: checked batches pay it
        once.  A kernel-less tape has no plan and verifies the tape alone.
        """
        plan = self.memory_plan() if self.kernels else None
        if getattr(plan, "_statics_verified", False):
            return
        from ..statics.verifier import verify_compiled

        verify_compiled(self, plan)
        if plan is not None:
            plan._statics_verified = True

    def linear_floor(self) -> float:
        """The smallest linear root a log pass answers as ``log(root)`` (cached).

        Proved by :func:`repro.statics.absint.linear_floor` on the tape's
        first log pass — not at construction or artifact load — and kept
        for the tape's lifetime (kernels and inputs never change after
        construction).  Concurrent first calls compute the same value.
        """
        floor = self._linear_floor
        if floor is None:
            from ..statics.absint import linear_floor

            floor = self._linear_floor = linear_floor(self)
        return floor

    def execute_batch(self, data: np.ndarray, log_domain: bool = False) -> np.ndarray:
        """Evaluate the root for a batch of evidence rows.

        Returns a ``(n_rows,)`` vector of root values (log-values with
        ``log_domain=True``), computed by the tape's memory plan
        (:meth:`memory_plan`): working set ``plan.n_physical`` rows
        instead of ``n_slots``, root written directly into the output
        vector, bit-identical to the root row of :meth:`execute_slots`.
        Large batches are processed in row blocks sized so the working
        set stays cache-resident (big-batch execution otherwise degrades
        superlinearly once the buffer spills to RAM).

        A log pass runs the linear kernels and answers each row with the
        ``log`` of its root when that root is at or above
        :meth:`linear_floor`; the remaining rows rerun through the exact
        log kernels (:func:`log_via_linear`).
        """
        data = np.asarray(data)
        if data.ndim != 2:
            raise ValueError(f"expected a 2-D evidence array, got shape {data.shape}")
        # Resolved once per batch: ``None`` (no profiler active) lets linear
        # passes run natively and keeps NumPy's kernel loop off the clock.
        profiler = active_profiler()
        if not log_domain:
            return self._execute_root(data, False, profiler)
        return log_via_linear(
            data,
            self.linear_floor(),
            lambda rows: self._execute_root(rows, False, profiler),
            lambda rows: self._execute_root(rows, True, profiler),
        )

    def _execute_root(self, data: np.ndarray, log_domain: bool, profiler) -> np.ndarray:
        """Root values of one batch in one domain.

        Linear passes run the plan in the native interpreter
        (:mod:`repro.spn.native`) when it is available.  The exact log
        kernels, profiled passes (per-kernel clocks need per-kernel calls)
        and hosts without a C compiler run NumPy's planned executor, in
        cache-sized row blocks.
        """
        if not self.kernels:
            # A kernel-less tape (the SPN is a single leaf) has no program
            # to plan; its slot matrix is the input block.
            return self.execute_slots(data, log_domain=log_domain)[self.root_slot].copy()
        plan = self.memory_plan()
        data = as_evidence_array(data)
        if not log_domain and profiler is None and native.available():
            return native.execute(plan, data)
        n_rows = data.shape[0]
        block = max(64, _BLOCK_BYTES // (8 * plan.n_physical))
        out = np.empty(n_rows, dtype=np.float64)
        for start in range(0, n_rows, block):
            rows = slice(start, start + block)
            execute_plan(plan, data[rows], log_domain, out[rows], profiler)
        return out


def _group_operations(ops: OperationList) -> List[List[int]]:
    """Source operation indices grouped by (ASAP level, opcode), in tape order."""
    levels = ops.levels()
    groups: Dict[tuple, List[int]] = {}
    for op in ops.operations:
        groups.setdefault((levels[op.index], op.op), []).append(op.index)
    return [groups[key] for key in sorted(groups)]


def compile_tape(
    source: Union[OperationList, SPN], decompose: str = "balanced"
) -> CompiledTape:
    """Compile an operation list (or an SPN) into a :class:`CompiledTape`.

    Accepts either an already-lowered
    :class:`~repro.spn.linearize.OperationList` or an
    :class:`~repro.spn.graph.SPN`, which is first lowered with
    :func:`~repro.spn.linearize.linearize` (``decompose`` is only used in
    that case).  Compilation is pure Python and runs once per network; the
    resulting tape can be reused across arbitrarily many batches.
    """
    ops = source if isinstance(source, OperationList) else linearize(source, decompose)
    n_inputs = ops.n_inputs
    levels = ops.levels()

    slot_map: Dict[int, int] = {s: s for s in range(n_inputs)}
    tape_position = n_inputs
    grouped = _group_operations(ops)
    for group in grouped:
        for op_index in group:
            slot_map[n_inputs + op_index] = tape_position
            tape_position += 1

    kernels: List[TapeKernel] = []
    dest = n_inputs
    for group in grouped:
        first = ops.operations[group[0]]
        arg0 = np.array([slot_map[ops.operations[i].arg0] for i in group], dtype=np.intp)
        arg1 = np.array([slot_map[ops.operations[i].arg1] for i in group], dtype=np.intp)
        kernels.append(
            TapeKernel(
                level=levels[first.index],
                op=first.op,
                dest_start=dest,
                dest_stop=dest + len(group),
                arg0=arg0,
                arg1=arg1,
            )
        )
        dest += len(group)

    return CompiledTape(
        inputs=list(ops.inputs),
        kernels=kernels,
        root_slot=slot_map[ops.root_slot],
        slot_map=slot_map,
    )


# --------------------------------------------------------------------------- #
# Per-object tape cache
# --------------------------------------------------------------------------- #
#: id(source) -> (weakref to source, fingerprint, pinned children, tape).
#: Keyed by identity because neither SPN nor OperationList is hashable;
#: entries are evicted when the source object is garbage collected.
_TAPE_CACHE: Dict[int, Tuple["weakref.ref", tuple, tuple, CompiledTape]] = {}


def _fingerprint_parts(source: Union[OperationList, SPN]) -> Tuple[tuple, tuple]:
    # InputSlot, Operation and every SPN node are immutable value objects, so
    # any structural or parameter change replaces objects and shows up in the
    # children tuple; collecting it is orders of magnitude cheaper than
    # recompiling.
    if isinstance(source, OperationList):
        return ("ops", source.root_slot), (*source.inputs, *source.operations)
    return ("spn", source.root), tuple(source.nodes())


def cached_tape(source: Union[OperationList, SPN]) -> CompiledTape:
    """Compile ``source`` once and reuse the tape across calls.

    The cache is keyed on object identity plus a cheap content fingerprint:
    the object ids of the SPN's nodes, or of the operation list's inputs
    and operations — all immutable value objects, so any change replaces
    them.  The cache entry holds strong references to the fingerprinted
    children, so a garbage-collected child's address can never be reused by
    a replacement object while the entry is alive (an id match therefore
    always means "same objects").  Re-evaluating the same network pays the
    one-off compilation only once; a mutated network recompiles
    automatically.  The engine dispatchers (``evaluate_batch`` and friends)
    route through this.
    """
    key = id(source)
    tag, children = _fingerprint_parts(source)
    fingerprint = (tag, tuple(map(id, children)))
    entry = _TAPE_CACHE.get(key)
    if entry is not None:
        ref, cached_fingerprint, _, tape = entry
        if ref() is source and cached_fingerprint == fingerprint:
            return tape
    tape = compile_tape(source)
    ref = weakref.ref(source, lambda _, key=key: _TAPE_CACHE.pop(key, None))
    _TAPE_CACHE[key] = (ref, fingerprint, children, tape)
    return tape


def adopt_tape(source: Union[OperationList, SPN], tape: CompiledTape) -> CompiledTape:
    """Seed the tape cache so ``source`` evaluates through ``tape``.

    The AOT-artifact loader (:mod:`repro.lifecycle`) uses this to attach a
    deserialized tape to its reconstructed SPN: every evaluation dispatcher
    (``evaluate_batch`` and friends) routes through :func:`cached_tape`, so
    after adoption the whole query surface runs on the shipped tape with no
    recompilation.  The entry is stored exactly like a :func:`cached_tape`
    miss, so later structural mutation of ``source`` still triggers a fresh
    compile.
    """
    key = id(source)
    tag, children = _fingerprint_parts(source)
    fingerprint = (tag, tuple(map(id, children)))
    ref = weakref.ref(source, lambda _, key=key: _TAPE_CACHE.pop(key, None))
    _TAPE_CACHE[key] = (ref, fingerprint, children, tape)
    return tape


# --------------------------------------------------------------------------- #
# Serialization (AOT artifacts)
# --------------------------------------------------------------------------- #
def tape_to_payload(tape: CompiledTape) -> dict:
    """Serialize a :class:`CompiledTape` to a JSON-compatible dictionary.

    Only the four declarative fields are stored — ``__post_init__`` rebuilds
    every derived index structure on reconstruction, so a round-tripped tape
    is state-for-state identical to a freshly compiled one.
    """
    return {
        "inputs": input_slots_to_payload(tape.inputs),
        "kernels": [
            [k.level, k.op, k.dest_start, k.dest_stop, k.arg0.tolist(), k.arg1.tolist()]
            for k in tape.kernels
        ],
        "root_slot": tape.root_slot,
        "slot_map": {str(s): t for s, t in tape.slot_map.items()},
    }


def tape_from_payload(payload: dict) -> CompiledTape:
    """Rebuild a tape from :func:`tape_to_payload` output, validating it.

    Truncated kernel records, operand indices reaching into a kernel's own
    (or a later) destination range, and out-of-range roots raise
    :class:`~repro.spn.graph.StructureError` — the artifact loader
    translates these into its typed corruption errors.
    """
    if not isinstance(payload, dict):
        raise StructureError("tape section: expected a dict")
    inputs = input_slots_from_payload(payload.get("inputs"))
    records = payload.get("kernels")
    if not isinstance(records, list):
        raise StructureError("tape section: 'kernels' must be a list")
    n_inputs = len(inputs)
    kernels: List[TapeKernel] = []
    dest_cursor = n_inputs
    for position, record in enumerate(records):
        context = f"tape kernel record {position}"
        if not isinstance(record, (list, tuple)) or len(record) != 6:
            raise StructureError(f"{context}: truncated record, expected 6 fields")
        level, op, dest_start, dest_stop, arg0, arg1 = record
        try:
            level = int(level)
            dest_start, dest_stop = int(dest_start), int(dest_stop)
            arg0 = np.asarray(arg0, dtype=np.intp)
            arg1 = np.asarray(arg1, dtype=np.intp)
        except (TypeError, ValueError):
            raise StructureError(f"{context}: malformed field values") from None
        if op not in (OP_ADD, OP_MUL):
            raise StructureError(f"{context}: unknown opcode {op!r}")
        if dest_start != dest_cursor or dest_stop <= dest_start:
            raise StructureError(f"{context}: destination range is not contiguous")
        width = dest_stop - dest_start
        if arg0.ndim != 1 or arg1.ndim != 1 or arg0.size != width or arg1.size != width:
            raise StructureError(
                f"{context}: truncated operand vectors, expected length {width}"
            )
        # Operands must already be defined: tape order guarantees every
        # operand slot lies strictly below the kernel's destination range.
        for arg in (arg0, arg1):
            if arg.size and (int(arg.min()) < 0 or int(arg.max()) >= dest_start):
                raise StructureError(
                    f"{context}: operand references an undefined slot"
                )
        kernels.append(
            TapeKernel(
                level=level, op=op, dest_start=dest_start, dest_stop=dest_stop,
                arg0=arg0, arg1=arg1,
            )
        )
        dest_cursor = dest_stop
    try:
        root_slot = int(payload.get("root_slot"))
    except (TypeError, ValueError):
        raise StructureError("tape section: malformed root_slot") from None
    n_slots = dest_cursor
    if not 0 <= root_slot < max(n_slots, 1):
        raise StructureError(f"tape section: root_slot {root_slot} out of range")
    slot_map_records = payload.get("slot_map", {})
    if not isinstance(slot_map_records, dict):
        raise StructureError("tape section: 'slot_map' must be a dict")
    slot_map: Dict[int, int] = {}
    for key, value in slot_map_records.items():
        try:
            source, target = int(key), int(value)
        except (TypeError, ValueError):
            raise StructureError("tape section: malformed slot_map entry") from None
        if not 0 <= target < max(n_slots, 1):
            raise StructureError(
                f"tape section: slot_map target for slot {source} out of range"
            )
        slot_map[source] = target
    return CompiledTape(
        inputs=inputs, kernels=kernels, root_slot=root_slot, slot_map=slot_map
    )
