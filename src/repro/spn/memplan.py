"""Memory planning for compiled tapes: liveness-based slot reuse.

The source paper's central observation is that SPN inference is
*memory-bound*: throughput on every platform is set by how much live state
the evaluation has to keep close to the arithmetic units, not by the
arithmetic itself.  The dense reference executor
(:meth:`repro.spn.compiled.CompiledTape.execute_slots`) materializes one
row per tape slot, so its working set grows with the *length* of the tape
(``n_slots``) even though only a small band of values is ever live at once.

This module plans the tape's memory the way a register allocator plans
registers:

* :func:`plan_memory` runs a **liveness analysis** over the levelized
  kernel list and performs linear-scan style *interval allocation*: every
  tape slot is assigned a reusable **physical row** of a buffer whose
  height is the liveness peak (plus possible fragmentation), typically a
  small multiple of the tape's width instead of its length.  Inputs are
  encoded **lazily** — an indicator or constant row is materialized at the
  kernel that first reads it and freed after its last read — which is what
  shrinks the peak below ``n_inputs`` (on the deep suite networks most of
  the input vector is weight slots consumed at a single sum level).
* Planned kernel ``i`` is always tape kernel ``i``, laid out over
  physical rows: one gather/compute call per ``(level, opcode)`` kernel of
  the levelized tape (25 on Banknote up to 173 on BBC), in tape order.
* :func:`execute_plan` executes a planned tape over a row block in NumPy,
  reusing a per-thread scratch buffer (``plan.workspace``).  The native
  interpreter (:mod:`repro.spn.native`) runs the same plan in C.

Every physical-slot program computes exactly the same elementwise
operations in exactly the same order as the dense executor, so planned
results are **bit-identical** to the root row of the ``(n_slots, n_rows)``
slot matrix; the static verifier (:mod:`repro.statics.verifier`) proves a
plan faithful by symbolic replay.  Each tape owns exactly one plan
(:meth:`repro.spn.compiled.CompiledTape.memory_plan`), which every batched
entry point runs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .graph import StructureError
from .linearize import OP_ADD, OP_MUL

__all__ = [
    "InputEncoding",
    "PlannedKernel",
    "MemoryPlan",
    "plan_memory",
    "plan_to_payload",
    "plan_from_payload",
    "execute_plan",
]

# --------------------------------------------------------------------------- #
# Planned program representation
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class InputEncoding:
    """Input rows to materialize immediately before one planned kernel.

    Lazy counterpart of ``CompiledTape.input_matrix``: ``ind_*`` describe
    the indicator rows first read by the kernel (physical row, variable,
    matching value), ``const_*`` the parameter/weight rows (physical row,
    linear probability, precomputed log).  Row index arrays collapse to
    slices when contiguous, so the common case is a plain slice store.
    """

    ind_rows: np.ndarray
    ind_vars: np.ndarray
    ind_values: np.ndarray
    ind_slice: Optional[slice]
    const_rows: np.ndarray
    const_probs: np.ndarray
    const_log_probs: np.ndarray
    const_slice: Optional[slice]


@dataclass(frozen=True)
class PlannedKernel:
    """One tape kernel's array operation over physical rows.

    ``dest`` is always a contiguous physical interval (the allocator hands
    every kernel one); ``arg0``/``arg1`` are physical row indices with
    ``arg0_slice``/``arg1_slice`` carrying the copy-free view when the
    pattern is a constant positive stride.  ``encode`` lists the input rows
    that become live at this kernel (lazy input materialization).

    When an operand consists *entirely* of constant input slots read only
    by this kernel — the ``weight * child`` lanes of every weighted sum —
    the planner never materializes those rows at all: ``const_arg0`` /
    ``const_arg1`` carry the values as a ``(width, 1)`` column that NumPy
    broadcasts across the batch, eliminating one full operand's worth of
    buffer traffic per lane.
    """

    op: str
    dest_start: int
    dest_stop: int
    arg0: np.ndarray
    arg1: np.ndarray
    arg0_slice: Optional[slice]
    arg1_slice: Optional[slice]
    encode: Optional[InputEncoding]
    const_arg0: Optional[np.ndarray] = None
    const_arg0_log: Optional[np.ndarray] = None
    const_arg1: Optional[np.ndarray] = None
    const_arg1_log: Optional[np.ndarray] = None
    #: Source tape slots written by this kernel, in dest order (what the
    #: static verifier replays against the tape).
    source_slots: np.ndarray = field(repr=False, default=None)

    @property
    def width(self) -> int:
        return self.dest_stop - self.dest_start

    @property
    def is_add(self) -> bool:
        return self.op == OP_ADD


@dataclass
class MemoryPlan:
    """A compiled tape rewritten over a reusable physical slot buffer.

    ``n_physical`` is the buffer height actually needed (the allocator's
    address high-water mark) and :attr:`max_live` the true liveness peak —
    the maximum number of rows simultaneously live across any kernel
    boundary.  ``n_physical >= max_live`` always, with equality when
    interval allocation suffers no fragmentation; both are bounded by the
    source tape's ``n_slots``, and the ratio ``n_slots / n_physical`` is
    the working-set reduction the plan buys.
    """

    kernels: List[PlannedKernel]
    n_physical: int
    max_live: int
    n_slots: int
    n_inputs: int
    root_phys: int
    #: True when the final kernel's sole dest row is the root: the executor
    #: then writes the root directly into the caller's output vector
    #: instead of copying it out of the buffer afterwards.
    root_direct: bool

    def __post_init__(self) -> None:
        self._scratch = threading.local()
        # Concatenated kernel metadata, derived once per construction the
        # way ``CompiledTape.__post_init__`` derives its input-slot vectors:
        # every way a plan comes to exist (planner or payload loader) runs
        # this constructor, so a consumer reading these trusts only this
        # code, never a shipped artifact section.  The static verifier
        # (``repro.statics.verifier``) reads them instead of re-walking the
        # kernel list on every verification.
        kernels = self.kernels
        n_kernels = len(kernels)
        meta = np.fromiter(
            (
                (
                    k.dest_start,
                    k.dest_stop,
                    k.op == OP_MUL,
                    k.op == OP_ADD,
                    -1 if k.source_slots is None else k.source_slots.size,
                    k.const_arg0 is not None,
                    k.const_arg1 is not None,
                    k.encode is not None,
                )
                for k in kernels
            ),
            dtype=[
                ("start", np.int64),
                ("stop", np.int64),
                ("mul", bool),
                ("add", bool),
                ("src", np.int64),
                ("c0", bool),
                ("c1", bool),
                ("enc", bool),
            ],
            count=n_kernels,
        )
        self._kernel_meta = meta
        # Encode records: per-group id vectors plus the concatenated row,
        # signature and (view, rows) consistency pairs.
        enc_groups: List[int] = []
        ind_sizes: List[int] = []
        const_sizes: List[int] = []
        ind_rows: List[np.ndarray] = []
        ind_vars: List[np.ndarray] = []
        ind_values: List[np.ndarray] = []
        const_rows: List[np.ndarray] = []
        const_probs: List[np.ndarray] = []
        view_pairs: List[Tuple[Optional[slice], np.ndarray]] = []
        for gi in np.flatnonzero(meta["enc"]).tolist():
            encode = kernels[gi].encode
            enc_groups.append(gi)
            ind_sizes.append(encode.ind_rows.size)
            const_sizes.append(encode.const_rows.size)
            ind_rows.append(encode.ind_rows)
            ind_vars.append(encode.ind_vars)
            ind_values.append(encode.ind_values)
            const_rows.append(encode.const_rows)
            const_probs.append(encode.const_probs)
            view_pairs.append((encode.ind_slice, encode.ind_rows))
            view_pairs.append((encode.const_slice, encode.const_rows))

        def _cat(parts: List[np.ndarray], dtype) -> np.ndarray:
            return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

        enc_ids = np.asarray(enc_groups, dtype=np.int64)
        self._encode_meta = (
            np.repeat(enc_ids, np.asarray(ind_sizes, dtype=np.int64)),
            _cat(ind_rows, np.intp),
            _cat(ind_vars, np.int64),
            _cat(ind_values, np.int64),
            np.repeat(enc_ids, np.asarray(const_sizes, dtype=np.int64)),
            _cat(const_rows, np.intp),
            _cat(const_probs, np.float64),
            view_pairs,
        )
        # Operand rows of the non-broadcast ("open") sides and the ravelled
        # broadcast constant columns, concatenated in kernel order.
        open0: List[np.ndarray] = []
        open1: List[np.ndarray] = []
        open0_pairs: List[Tuple[Optional[slice], np.ndarray]] = []
        open1_pairs: List[Tuple[Optional[slice], np.ndarray]] = []
        const0: List[np.ndarray] = []
        const1: List[np.ndarray] = []
        for k in kernels:
            if k.const_arg0 is None:
                open0.append(k.arg0)
                open0_pairs.append((k.arg0_slice, k.arg0))
            else:
                const0.append(k.const_arg0.ravel())
            if k.const_arg1 is None:
                open1.append(k.arg1)
                open1_pairs.append((k.arg1_slice, k.arg1))
            else:
                const1.append(k.const_arg1.ravel())
        self._operand_meta = (
            (
                np.fromiter(map(len, open0), np.int64, len(open0)),
                _cat(open0, np.intp),
                open0_pairs,
            ),
            (
                np.fromiter(map(len, open1), np.int64, len(open1)),
                _cat(open1, np.intp),
                open1_pairs,
            ),
        )
        self._const_meta = (
            (np.fromiter(map(len, const0), np.int64, len(const0)), _cat(const0, np.float64)),
            (np.fromiter(map(len, const1), np.int64, len(const1)), _cat(const1, np.float64)),
        )
        # Every strided view expanded to explicit rows next to the rows it
        # claims to address, in the verifier's pair order (encode, arg0,
        # arg1): consistency is then a single ``array_equal`` per
        # verification instead of a per-pair expansion.
        expanded: List[np.ndarray] = []
        claimed: List[np.ndarray] = []
        for view, rows in view_pairs + open0_pairs + open1_pairs:
            if view is None:
                continue
            expanded.append(np.arange(view.start, view.stop, view.step or 1, dtype=np.int64))
            claimed.append(np.asarray(rows, dtype=np.int64))
        self._view_check = (_cat(expanded, np.int64), _cat(claimed, np.int64))
        # Identity flag plus replay geometry.  The verifier's symbolic replay
        # orders every write event by a packed ``(row, time, value)`` key and
        # probes each read for the last write on its row; rows, times, the
        # key radices and the sort order depend only on the plan, so they are
        # derived here — the verifier's hot path then only joins them with
        # the tape's canonical values.  Event time within kernel ``g``:
        # encodes land at ``3g``, reads probe at ``3g + 1``, destination
        # writes land at ``3g + 2``, the order the executor uses.
        self._sources_identity = (
            n_kernels > 0
            and bool((meta["src"] >= 0).all())
            and np.array_equal(
                np.concatenate([k.source_slots for k in kernels]),
                np.arange(self.n_inputs, self.n_slots, dtype=np.int64),
            )
        )
        widths = meta["stop"] - meta["start"]
        n_lanes = int(widths.sum())
        period = 3 * n_kernels + 3
        pack = self.n_slots + 1
        lane_group = np.repeat(np.arange(n_kernels, dtype=np.int64), widths)
        bounds = np.concatenate([[0], np.cumsum(widths)])
        within = np.arange(n_lanes, dtype=np.int64) - np.repeat(bounds[:-1], widths)
        dest_rows = np.repeat(meta["start"], widths) + within
        ind_g, ind_rows_cat = self._encode_meta[0], self._encode_meta[1]
        const_g, const_rows_cat = self._encode_meta[4], self._encode_meta[5]
        write_rows = np.concatenate([ind_rows_cat, const_rows_cat, dest_rows]).astype(
            np.int64, copy=False
        )
        write_base = (
            write_rows * period
            + np.concatenate([3 * ind_g, 3 * const_g, 3 * lane_group + 2])
        ) * pack
        order = np.argsort(write_base, kind="stable")
        lane_c0 = meta["c0"][lane_group] if bool(meta["c0"].any()) else None
        lane_c1 = meta["c1"][lane_group] if bool(meta["c1"].any()) else None
        open_g0 = lane_group if lane_c0 is None else lane_group[~lane_c0]
        open_g1 = lane_group if lane_c1 is None else lane_group[~lane_c1]
        read_rows = np.concatenate(
            [self._operand_meta[0][1], self._operand_meta[1][1]]
        ).astype(np.int64, copy=False)
        read_base = (
            read_rows * period + np.concatenate([3 * open_g0 + 1, 3 * open_g1 + 1])
        ) * pack
        self._replay_meta = (
            period,
            pack,
            lane_group,
            bounds,
            order,
            write_base[order],
            lane_c0,
            lane_c1,
            open_g0,
            open_g1,
            read_rows,
            read_base,
        )

    @property
    def n_kernels(self) -> int:
        return len(self.kernels)

    @property
    def reduction(self) -> float:
        """Working-set reduction vs the dense ``(n_slots, n_rows)`` slot matrix."""
        return self.n_slots / max(self.n_physical, 1)

    def peak_bytes(self, n_rows: int) -> int:
        """Peak slot-buffer bytes for an ``n_rows`` block under this plan."""
        return self.n_physical * int(n_rows) * 8

    # ------------------------------------------------------------------ #
    # Per-thread scratch buffer
    # ------------------------------------------------------------------ #
    def workspace(self, n_rows: int) -> np.ndarray:
        """A ``(n_physical, n_rows)`` scratch block, reused across calls.

        Each thread keeps (at most) one buffer per plan, grown to the
        largest row count seen, so NumPy passes of a model on one thread
        share one block instead of allocating a fresh slot matrix per
        batch.  Native passes (:mod:`repro.spn.native`) never touch it.
        """
        buffer = getattr(self._scratch, "buffer", None)
        if buffer is None or buffer.shape[1] < n_rows:
            buffer = np.empty((self.n_physical, int(n_rows)), dtype=np.float64)
            self._scratch.buffer = buffer
        return buffer[:, :n_rows]


# --------------------------------------------------------------------------- #
# Planning
# --------------------------------------------------------------------------- #
class _FreeIntervals:
    """Best-fit interval allocator over physical rows with coalescing."""

    def __init__(self) -> None:
        self._free: List[Tuple[int, int]] = []  # (start, length), sorted
        self.high_water = 0

    def alloc(self, width: int) -> int:
        best = -1
        best_len = 0
        for i, (_, length) in enumerate(self._free):
            if length >= width and (best < 0 or length < best_len):
                best, best_len = i, length
        if best >= 0:
            start, length = self._free[best]
            if length == width:
                del self._free[best]
            else:
                self._free[best] = (start + width, length - width)
            return start
        start = self.high_water
        self.high_water += width
        return start

    def free(self, start: int, width: int) -> None:
        if width <= 0:
            return
        lo = 0
        hi = len(self._free)
        while lo < hi:  # insertion point by start
            mid = (lo + hi) // 2
            if self._free[mid][0] < start:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (start, width))
        # Coalesce with the neighbours.
        if lo + 1 < len(self._free):
            s, w = self._free[lo]
            s2, w2 = self._free[lo + 1]
            if s + w == s2:
                self._free[lo] = (s, w + w2)
                del self._free[lo + 1]
        if lo > 0:
            s, w = self._free[lo - 1]
            s2, w2 = self._free[lo]
            if s + w == s2:
                self._free[lo - 1] = (s, w + w2)
                del self._free[lo]


def _as_stride_slice(indices: np.ndarray) -> Optional[slice]:
    """The equivalent slice when ``indices`` is a constant positive-stride run.

    Binary-tree reductions produce interleaved operand patterns (stride 2:
    ``[p, p+2, p+4, ...]`` vs ``[p+1, p+3, ...]``), so strided views cover
    the majority of kernels and skip the gather copy entirely.  The single
    definition of the strided-view test — the dense executor in
    :mod:`repro.spn.compiled` imports it as ``_as_slice``.
    """
    if not indices.size:
        return None
    if indices.size == 1:
        start = int(indices[0])
        return slice(start, start + 1)
    steps = np.diff(indices)
    step = int(steps[0])
    if step > 0 and bool((steps == step).all()):
        start = int(indices[0])
        return slice(start, start + (indices.size - 1) * step + 1, step)
    return None


def plan_memory(tape) -> MemoryPlan:
    """Plan physical-slot execution for a :class:`~repro.spn.compiled.CompiledTape`.

    Runs the liveness analysis at kernel granularity — a slot is live from
    the kernel that defines it (for inputs: the kernel that first *reads*
    it, since inputs are encoded lazily) through the kernel that last reads
    it, the root surviving to the end — and assigns every slot a physical
    row via best-fit interval allocation, each kernel's dest block staying
    one contiguous physical interval so the executor keeps its slice-store
    fast path.  Planned kernel ``i`` is tape kernel ``i``.  Requires a tape
    with at least one kernel (slot-matrix execution is trivial without one;
    ``execute_batch`` answers such tapes with the dense ``execute_slots``)
    whose root some kernel computes or reads.
    """
    if not tape.kernels:
        raise ValueError("cannot plan an empty tape (no kernels)")
    n_slots = tape.n_slots
    n_inputs = tape.n_inputs
    n_kernels = len(tape.kernels)

    # Broadcast-constant operands: when every lane of a kernel's arg0 (or
    # arg1) is a constant input read nowhere else, the values travel as a
    # (width, 1) column broadcast across the batch instead of materialized
    # rows — the ``weight * child`` lanes of every weighted sum.
    is_const = np.zeros(n_slots, dtype=bool)
    const_prob = np.zeros(n_inputs, dtype=np.float64)
    for spec in tape.inputs:
        if spec.kind != "indicator":
            is_const[spec.index] = True
            const_prob[spec.index] = spec.prob
    total_reads = np.zeros(n_slots, dtype=np.int64)
    for kernel in tape.kernels:
        np.add.at(total_reads, kernel.arg0, 1)
        np.add.at(total_reads, kernel.arg1, 1)
    broadcast: List[Tuple[bool, bool]] = []
    for kernel in tape.kernels:
        flags = []
        for args in (kernel.arg0, kernel.arg1):
            ok = bool(is_const[args].all())
            if ok:
                occurrences = np.bincount(args, minlength=n_slots)[args]
                ok = bool((total_reads[args] == occurrences).all())
            flags.append(ok)
        broadcast.append((flags[0], flags[1]))

    # Liveness.  first_use/last_use are kernel indices; -1 marks a slot
    # never read (dead inputs are never encoded, dead op slots still occupy
    # their kernel's dest interval but free immediately afterwards).
    # Broadcast operand lanes do not count as reads: their slots are never
    # materialized.
    first_use = np.full(n_slots, -1, dtype=np.int64)
    last_use = np.full(n_slots, -1, dtype=np.int64)
    for ki, kernel in enumerate(tape.kernels):
        for args, skip in zip((kernel.arg0, kernel.arg1), broadcast[ki]):
            if skip:
                continue
            fresh = first_use[args] < 0
            if fresh.any():
                first_use[args[fresh]] = ki
            last_use[args] = ki
    last_use[tape.root_slot] = n_kernels  # the root survives the whole run

    inputs_by_kernel: Dict[int, List[int]] = {}
    for slot in range(n_inputs):
        if first_use[slot] >= 0:
            inputs_by_kernel.setdefault(int(first_use[slot]), []).append(slot)

    expire: List[List[Tuple[int, int]]] = [[] for _ in range(n_kernels + 1)]

    allocator = _FreeIntervals()
    phys_of = np.full(n_slots, -1, dtype=np.intp)
    input_kind = {s.index: s for s in tape.inputs}
    in_use = 0
    max_live = 0
    planned: List[PlannedKernel] = []
    empty = np.empty(0, dtype=np.intp)

    def _operand(args: np.ndarray, bc: bool):
        if bc:
            column = const_prob[args].reshape(-1, 1)
            with np.errstate(divide="ignore"):
                log_column = np.log(column)
            return empty, None, column, log_column
        rows = phys_of[args].astype(np.intp, copy=False)
        return rows, _as_stride_slice(rows), None, None

    for ki, kernel in enumerate(tape.kernels):
        # 1. Retire slots whose last read was the previous kernel.
        for start, width in expire[ki]:
            allocator.free(start, width)
            in_use -= width
        # 2. Materialize the inputs this kernel reads first, as one
        #    contiguous interval in slot order.
        encode = None
        fresh_inputs = inputs_by_kernel.get(ki, [])
        if fresh_inputs:
            base = allocator.alloc(len(fresh_inputs))
            in_use += len(fresh_inputs)
            ind_rows: List[int] = []
            ind_vars: List[int] = []
            ind_values: List[int] = []
            const_rows: List[int] = []
            const_probs: List[float] = []
            for offset, slot in enumerate(fresh_inputs):
                phys_of[slot] = base + offset
                spec = input_kind[slot]
                if spec.kind == "indicator":
                    ind_rows.append(base + offset)
                    ind_vars.append(spec.var)
                    ind_values.append(spec.value)
                else:
                    const_rows.append(base + offset)
                    const_probs.append(spec.prob)
            _queue_expiry(expire, fresh_inputs, last_use, phys_of, default_last=ki)
            const_probs_arr = np.array(const_probs, dtype=np.float64)
            with np.errstate(divide="ignore"):
                const_logs = np.log(const_probs_arr)
            ind_rows_arr = np.array(ind_rows, dtype=np.intp)
            const_rows_arr = np.array(const_rows, dtype=np.intp)
            encode = InputEncoding(
                ind_rows=ind_rows_arr,
                ind_vars=np.array(ind_vars, dtype=np.intp),
                ind_values=np.array(ind_values, dtype=np.int64),
                ind_slice=_as_stride_slice(ind_rows_arr),
                const_rows=const_rows_arr,
                const_probs=const_probs_arr,
                const_log_probs=const_logs,
                const_slice=_as_stride_slice(const_rows_arr),
            )
        # 3. Allocate this kernel's dest interval and emit the planned kernel.
        width = kernel.width
        dest = allocator.alloc(width)
        in_use += width
        dest_slots = range(kernel.dest_start, kernel.dest_stop)
        phys_of[kernel.dest_start : kernel.dest_stop] = np.arange(dest, dest + width)
        _queue_expiry(expire, dest_slots, last_use, phys_of, default_last=ki)
        bc0, bc1 = broadcast[ki]
        arg0, arg0_slice, const0, const0_log = _operand(kernel.arg0, bc0)
        arg1, arg1_slice, const1, const1_log = _operand(kernel.arg1, bc1)
        planned.append(
            PlannedKernel(
                op=kernel.op,
                dest_start=dest,
                dest_stop=dest + width,
                arg0=arg0,
                arg1=arg1,
                arg0_slice=arg0_slice,
                arg1_slice=arg1_slice,
                encode=encode,
                const_arg0=const0,
                const_arg0_log=const0_log,
                const_arg1=const1,
                const_arg1_log=const1_log,
                source_slots=np.arange(kernel.dest_start, kernel.dest_stop, dtype=np.intp),
            )
        )
        max_live = max(max_live, in_use)

    root_phys = int(phys_of[tape.root_slot])
    if root_phys < 0:
        raise ValueError(
            f"cannot plan a tape whose root slot {tape.root_slot} no kernel "
            "computes or reads"
        )
    final = planned[-1]
    return MemoryPlan(
        kernels=planned,
        n_physical=allocator.high_water,
        max_live=max_live,
        n_slots=n_slots,
        n_inputs=n_inputs,
        root_phys=root_phys,
        root_direct=final.width == 1 and final.dest_start == root_phys,
    )


def _queue_expiry(expire, slots, last_use, phys_of, default_last: int) -> None:
    """Queue freshly placed slots for retirement after their last read.

    A slot retires at the start of the kernel after its last read
    (never-read slots retire right after their defining kernel,
    ``default_last``); slots whose last read is past the final kernel — the
    root — simply survive the run.  Adjacent physical rows expiring
    together merge into one interval so the allocator frees (and
    re-coalesces) runs, not single rows.
    """
    by_group: Dict[int, List[int]] = {}
    for slot in slots:
        last = int(last_use[slot])
        if last < 0:  # never read: retire immediately after definition
            last = default_last
        if last + 1 >= len(expire):  # lives to the end (the root)
            continue
        by_group.setdefault(last, []).append(int(phys_of[slot]))
    for last, rows in by_group.items():
        rows.sort()
        start = rows[0]
        prev = rows[0]
        bucket = expire[last + 1]
        for row in rows[1:]:
            if row == prev + 1:
                prev = row
                continue
            bucket.append((start, prev - start + 1))
            start = prev = row
        bucket.append((start, prev - start + 1))


# --------------------------------------------------------------------------- #
# Serialization (AOT artifacts)
# --------------------------------------------------------------------------- #
def plan_to_payload(plan: MemoryPlan) -> dict:
    """Serialize a :class:`MemoryPlan` to a JSON-compatible dictionary.

    Only declarative data is stored: derived strided-slice views are
    recomputed by :func:`_as_stride_slice` on load, and log columns by
    ``np.log`` — both bit-identical, because JSON round-trips every float
    exactly and ``log`` is deterministic.  Shipping the plan lets an AOT
    artifact skip :func:`plan_memory` entirely at cold start.
    """
    def operand(rows: np.ndarray, const: Optional[np.ndarray]):
        if const is not None:
            return {"const": const.ravel().tolist()}
        return {"rows": rows.tolist()}

    kernels = []
    for k in plan.kernels:
        record = {
            "op": k.op,
            "dest": [k.dest_start, k.dest_stop],
            "arg0": operand(k.arg0, k.const_arg0),
            "arg1": operand(k.arg1, k.const_arg1),
            "source_slots": k.source_slots.tolist(),
            "encode": None,
        }
        if k.encode is not None:
            record["encode"] = {
                "ind_rows": k.encode.ind_rows.tolist(),
                "ind_vars": k.encode.ind_vars.tolist(),
                "ind_values": k.encode.ind_values.tolist(),
                "const_rows": k.encode.const_rows.tolist(),
                "const_probs": k.encode.const_probs.tolist(),
            }
        kernels.append(record)
    return {
        "kernels": kernels,
        "n_physical": plan.n_physical,
        "max_live": plan.max_live,
        "n_slots": plan.n_slots,
        "n_inputs": plan.n_inputs,
        "root_phys": plan.root_phys,
        "root_direct": plan.root_direct,
    }


def _payload_int(payload: dict, key: str, context: str) -> int:
    try:
        return int(payload[key])
    except (KeyError, TypeError, ValueError):
        raise StructureError(f"{context}: missing or malformed field {key!r}") from None


def plan_from_payload(payload: dict) -> MemoryPlan:
    """Rebuild a plan from :func:`plan_to_payload` output, validating it.

    Every physical-row reference is checked against the recorded buffer
    height and every source slot against the recorded tape length, so a
    corrupted plan raises :class:`~repro.spn.graph.StructureError` at load
    time rather than an out-of-bounds gather at serve time.  The
    ``n_source_kernels`` and ``fused`` keys that older documents carry are
    ignored.
    """
    if not isinstance(payload, dict):
        raise StructureError("plan section: expected a dict")
    context = "plan section"
    n_physical = _payload_int(payload, "n_physical", context)
    max_live = _payload_int(payload, "max_live", context)
    n_slots = _payload_int(payload, "n_slots", context)
    n_inputs = _payload_int(payload, "n_inputs", context)
    root_phys = _payload_int(payload, "root_phys", context)
    root_direct = bool(payload.get("root_direct", False))
    if n_physical < 1 or not 0 <= root_phys < n_physical:
        raise StructureError(f"{context}: root_phys {root_phys} out of range")
    records = payload.get("kernels")
    if not isinstance(records, list) or not records:
        raise StructureError(f"{context}: 'kernels' must be a non-empty list")

    def rows_array(values, limit: int, what: str, ctx: str) -> np.ndarray:
        try:
            rows = np.asarray(values, dtype=np.intp)
        except (TypeError, ValueError):
            raise StructureError(f"{ctx}: malformed {what}") from None
        if rows.ndim != 1:
            raise StructureError(f"{ctx}: malformed {what}")
        if rows.size and (int(rows.min()) < 0 or int(rows.max()) >= limit):
            raise StructureError(f"{ctx}: {what} references a row out of range")
        return rows

    kernels: List[PlannedKernel] = []
    for position, record in enumerate(records):
        ctx = f"plan kernel record {position}"
        if not isinstance(record, dict):
            raise StructureError(f"{ctx}: expected a dict")
        op = record.get("op")
        if op not in (OP_ADD, OP_MUL):
            raise StructureError(f"{ctx}: unknown opcode {op!r}")
        dest = record.get("dest")
        if not isinstance(dest, (list, tuple)) or len(dest) != 2:
            raise StructureError(f"{ctx}: malformed dest interval")
        try:
            dest_start, dest_stop = int(dest[0]), int(dest[1])
        except (TypeError, ValueError):
            raise StructureError(f"{ctx}: malformed dest interval") from None
        if not (0 <= dest_start < dest_stop <= n_physical):
            raise StructureError(f"{ctx}: dest interval out of range")
        width = dest_stop - dest_start

        empty = np.empty(0, dtype=np.intp)

        def operand(spec, which: str):
            if not isinstance(spec, dict):
                raise StructureError(f"{ctx}: malformed operand {which}")
            if "const" in spec:
                try:
                    column = np.asarray(spec["const"], dtype=np.float64).reshape(-1, 1)
                except (TypeError, ValueError):
                    raise StructureError(f"{ctx}: malformed operand {which}") from None
                if column.shape[0] != width:
                    raise StructureError(
                        f"{ctx}: operand {which} length does not match kernel width"
                    )
                with np.errstate(divide="ignore"):
                    log_column = np.log(column)
                return empty, None, column, log_column
            rows = rows_array(spec.get("rows"), n_physical, f"operand {which}", ctx)
            if rows.size != width:
                raise StructureError(
                    f"{ctx}: operand {which} length does not match kernel width"
                )
            return rows, _as_stride_slice(rows), None, None

        arg0, arg0_slice, const0, const0_log = operand(record.get("arg0"), "arg0")
        arg1, arg1_slice, const1, const1_log = operand(record.get("arg1"), "arg1")

        encode = None
        encode_record = record.get("encode")
        if encode_record is not None:
            if not isinstance(encode_record, dict):
                raise StructureError(f"{ctx}: malformed encode section")
            ind_rows = rows_array(
                encode_record.get("ind_rows"), n_physical, "encode ind_rows", ctx
            )
            const_rows = rows_array(
                encode_record.get("const_rows"), n_physical, "encode const_rows", ctx
            )
            try:
                ind_vars = np.asarray(encode_record.get("ind_vars"), dtype=np.intp)
                ind_values = np.asarray(encode_record.get("ind_values"), dtype=np.int64)
                const_probs = np.asarray(
                    encode_record.get("const_probs"), dtype=np.float64
                )
            except (TypeError, ValueError):
                raise StructureError(f"{ctx}: malformed encode section") from None
            if (
                ind_vars.shape != ind_rows.shape
                or ind_values.shape != ind_rows.shape
                or const_probs.shape != const_rows.shape
            ):
                raise StructureError(f"{ctx}: truncated encode section")
            with np.errstate(divide="ignore"):
                const_logs = np.log(const_probs)
            encode = InputEncoding(
                ind_rows=ind_rows,
                ind_vars=ind_vars,
                ind_values=ind_values,
                ind_slice=_as_stride_slice(ind_rows),
                const_rows=const_rows,
                const_probs=const_probs,
                const_log_probs=const_logs,
                const_slice=_as_stride_slice(const_rows),
            )

        source_slots = rows_array(
            record.get("source_slots"), n_slots, "source_slots", ctx
        )
        if source_slots.size != width:
            raise StructureError(
                f"{ctx}: source_slots length does not match kernel width"
            )
        kernels.append(
            PlannedKernel(
                op=op,
                dest_start=dest_start,
                dest_stop=dest_stop,
                arg0=arg0,
                arg1=arg1,
                arg0_slice=arg0_slice,
                arg1_slice=arg1_slice,
                encode=encode,
                const_arg0=const0,
                const_arg0_log=const0_log,
                const_arg1=const1,
                const_arg1_log=const1_log,
                source_slots=source_slots,
            )
        )
    return MemoryPlan(
        kernels=kernels,
        n_physical=n_physical,
        max_live=max_live,
        n_slots=n_slots,
        n_inputs=n_inputs,
        root_phys=root_phys,
        root_direct=root_direct,
    )


# --------------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------------- #
def _encode_inputs(
    encode: InputEncoding,
    block: np.ndarray,
    data: np.ndarray,
    log_domain: bool,
) -> None:
    """Materialize one kernel's fresh input rows into the physical buffer."""
    n_cols = data.shape[1]
    hit_value, miss_value = (0.0, -np.inf) if log_domain else (1.0, 0.0)
    if encode.ind_rows.size:
        target = encode.ind_slice if encode.ind_slice is not None else encode.ind_rows
        if n_cols == 0:
            block[target] = hit_value
        else:
            in_range = encode.ind_vars < n_cols
            cols = data[:, np.minimum(encode.ind_vars, n_cols - 1)].T
            hit = (cols < 0) | (cols == encode.ind_values[:, None])
            hit |= ~in_range[:, None]
            block[target] = np.where(hit, hit_value, miss_value)
    if encode.const_rows.size:
        target = (
            encode.const_slice if encode.const_slice is not None else encode.const_rows
        )
        block[target] = (
            encode.const_log_probs if log_domain else encode.const_probs
        )[:, None]


def execute_plan(
    plan: MemoryPlan,
    data: np.ndarray,
    log_domain: bool = False,
    out: Optional[np.ndarray] = None,
    profiler=None,
) -> np.ndarray:
    """Run a planned tape over one (already validated) evidence block.

    Writes the root values into ``out`` (allocated when ``None``) and
    returns it.  When the plan's final kernel produces exactly the root
    (``root_direct``), that kernel computes straight into ``out`` — no
    root-row copy at all; otherwise the root's physical row is copied out
    once.  The physical buffer is the calling thread's reusable scratch.

    ``profiler`` (a :class:`repro.observability.TapeProfiler`, resolved
    once per batch by the caller) switches to an instrumented copy of the
    kernel loop that records per-kernel elapsed/rows/bytes; the default
    ``None`` takes this uninstrumented loop, so unprofiled execution pays
    nothing.
    """
    if profiler is not None:
        return _execute_plan_profiled(plan, data, log_domain, out, profiler)
    n_rows = data.shape[0]
    if out is None:
        out = np.empty(n_rows, dtype=np.float64)
    block = plan.workspace(n_rows)
    last = len(plan.kernels) - 1
    for i, kernel in enumerate(plan.kernels):
        if kernel.encode is not None:
            _encode_inputs(kernel.encode, block, data, log_domain)
        a = _operand_block(kernel, block, log_domain, 0)
        b = _operand_block(kernel, block, log_domain, 1)
        if i == last and plan.root_direct:
            dest = out[None, :]
        else:
            dest = block[kernel.dest_start : kernel.dest_stop]
        if log_domain:
            if kernel.op == OP_ADD:
                np.logaddexp(a, b, out=dest)
            else:
                np.add(a, b, out=dest)
        else:
            if kernel.op == OP_ADD:
                np.add(a, b, out=dest)
            else:
                np.multiply(a, b, out=dest)
    if not plan.root_direct:
        out[:] = block[plan.root_phys]
    return out


def _execute_plan_profiled(
    plan: MemoryPlan,
    data: np.ndarray,
    log_domain: bool,
    out: Optional[np.ndarray],
    profiler,
) -> np.ndarray:
    """The instrumented twin of :func:`execute_plan` (same ops, same order).

    Records one sample per planned kernel — keyed ``k<index>`` in plan
    order, with input encoding attributed to a ``k<index>.encode``
    pseudo-kernel — plus the pass's total wall time (the coverage
    denominator).  Bytes count operand reads and destination writes at 8
    bytes per value off the plan's physical layout; a broadcast-constant
    operand contributes only its ``(width, 1)`` column.
    """
    n_rows = data.shape[0]
    if out is None:
        out = np.empty(n_rows, dtype=np.float64)
    block = plan.workspace(n_rows)
    last = len(plan.kernels) - 1
    t_pass = time.perf_counter()
    for i, kernel in enumerate(plan.kernels):
        if kernel.encode is not None:
            n_encoded = kernel.encode.ind_rows.size + kernel.encode.const_rows.size
            t0 = time.perf_counter()
            _encode_inputs(kernel.encode, block, data, log_domain)
            profiler.record(
                f"k{i:03d}.encode", "enc", n_encoded,
                time.perf_counter() - t0, n_rows, 8 * n_rows * n_encoded,
            )
        t0 = time.perf_counter()
        a = _operand_block(kernel, block, log_domain, 0)
        b = _operand_block(kernel, block, log_domain, 1)
        if i == last and plan.root_direct:
            dest = out[None, :]
        else:
            dest = block[kernel.dest_start : kernel.dest_stop]
        if log_domain:
            if kernel.op == OP_ADD:
                np.logaddexp(a, b, out=dest)
            else:
                np.add(a, b, out=dest)
        else:
            if kernel.op == OP_ADD:
                np.add(a, b, out=dest)
            else:
                np.multiply(a, b, out=dest)
        elapsed = time.perf_counter() - t0
        lane_bytes = 8 * n_rows * kernel.width
        nbytes = lane_bytes  # destination write
        nbytes += lane_bytes if kernel.const_arg0 is None else 8 * kernel.width
        nbytes += lane_bytes if kernel.const_arg1 is None else 8 * kernel.width
        profiler.record(f"k{i:03d}", kernel.op, kernel.width, elapsed, n_rows, nbytes)
    if not plan.root_direct:
        out[:] = block[plan.root_phys]
    profiler.record_pass(time.perf_counter() - t_pass)
    return out


def _operand_block(
    kernel: PlannedKernel, block: np.ndarray, log_domain: bool, which: int
) -> np.ndarray:
    """Fetch one operand: broadcast constant column, slice view, or gather."""
    if which == 0:
        if kernel.const_arg0 is not None:
            return kernel.const_arg0_log if log_domain else kernel.const_arg0
        return block[
            kernel.arg0_slice if kernel.arg0_slice is not None else kernel.arg0
        ]
    if kernel.const_arg1 is not None:
        return kernel.const_arg1_log if log_domain else kernel.const_arg1
    return block[kernel.arg1_slice if kernel.arg1_slice is not None else kernel.arg1]
