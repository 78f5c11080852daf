"""Static dataflow verification of the compiled tape IR and its memory plan.

The runtime already has a *dynamic* safety net — ``check=True`` compares a
batch prefix against the python reference walk — but a value check only
certifies the rows it ran.  This module is the static counterpart: it
proves, **without executing anything**, that a
:class:`~repro.spn.compiled.CompiledTape` is a well-formed levelized program
and that a :class:`~repro.spn.memplan.MemoryPlan` is a faithful register
allocation of it.  Together the two form the trust contract a native
codegen backend needs: the static verifier certifies *every* batch the
program could ever run, the cross-check compares concrete values on one.

What is checked (rule names appear in every error message):

Tape (:func:`verify_tape`)
    * ``tape-input-order`` / ``tape-input-domain`` — input slots are densely
      indexed, of known kind, with non-negative finite parameters (the sign-
      domain precondition the abstract interpreter builds on);
    * ``tape-dest-contiguity`` / ``tape-operand-shape`` — kernels write
      consecutive slot intervals and carry one operand pair per lane;
    * ``tape-def-before-use`` — every operand lies strictly below its
      kernel's destination interval (topological order);
    * ``tape-level`` — recorded ASAP levels are internally consistent
      (``level = 1 + max(operand levels)`` lane by lane, non-decreasing
      across the tape);
    * ``tape-root`` / ``tape-dead-kernel`` — the root slot exists and every
      kernel contributes at least one slot the root transitively reads.

Plan (:func:`verify_memory_plan`) — the heart of the verifier.  The plan is
an independently shipped artifact section, so nothing it claims is trusted:
    * ``plan-shape-mismatch`` / ``plan-scalar-range`` — recorded shape
      scalars agree with the tape and with each other, and the plan has
      exactly one planned kernel per tape kernel;
    * ``plan-group-structure`` / ``plan-coverage`` — planned kernel ``i``
      carries tape kernel ``i``'s opcode and width, and its
      ``source_slots`` are exactly tape kernel ``i``'s destination slots;
    * ``plan-slice-mismatch`` — precomputed strided views match their row
      arrays (the executor prefers the view; a diverging view would execute
      a different program than the one verified);
    * **symbolic replay** — the physical buffer is simulated with one
      abstract cell per row holding "which tape value lives here".  Every
      operand read must find exactly the value the source tape's dataflow
      demands (``plan-operand-mismatch``), every lazily encoded input must
      match a real input slot (``plan-encode-unknown-input``) and arrive at
      exactly its first-use kernel (``plan-encode-set-mismatch``), broadcast
      constant columns must carry bit-identical probabilities of constant
      input slots (``plan-broadcast-operand``), and the surviving root row
      must hold the root value (``plan-root``).  Def-before-use violations,
      reordered kernels and slot interference (two simultaneously live
      values sharing a physical row) all surface here: a clobbered or
      not-yet-written row cannot contain the demanded value.
    * ``plan-liveness`` — liveness is re-derived from the tape's dataflow
      (mirroring the allocator's retire/materialize/allocate accounting,
      but computed from scratch) and the resulting peak must equal the
      plan's recorded ``max_live``.

Value-equivalent input slots (two weight slots carrying the same
probability, two indicator slots testing the same variable/value) are
canonicalized before the replay: a plan that reads either copy computes
bit-identical results, so distinguishing them would reject correct plans.
Operation slots are never canonicalized — each is defined exactly once.

Performance: every rule is evaluated through whole-array NumPy passes over
the concatenated lane vectors, so a clean verification costs a bounded
number of array operations rather than Python work per kernel — the
``benchmarks/test_bench_statics.py`` gate holds the full suite pass under
5% of compile time.  The moment any vector check trips, verification
re-runs the equivalent straight-line Python walk (`_verify_tape_slow`,
`_verify_memory_plan_general`) to pinpoint the offending kernel and lane
with an exact message; plans whose concatenated ``source_slots`` are not
the tape's operation slots in order take the same exhaustive walk.  Both
paths enforce identical rules — the fast path is never the only judge of a
violation's details, and the slow path is never skipped when a precise
diagnosis is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..spn.compiled import canonical_value_tables
from ..spn.graph import StructureError
from ..spn.linearize import INPUT_KINDS, OP_ADD, OP_MUL

__all__ = [
    "VerificationError",
    "TapeFacts",
    "PlanFacts",
    "verify_tape",
    "verify_memory_plan",
    "verify_compiled",
]


class VerificationError(StructureError):
    """A static verification rule failed.

    ``rule`` is the stable rule identifier (also embedded in the message as
    ``[rule]``); ``detail`` the human-readable explanation.  Subclassing
    :class:`~repro.spn.graph.StructureError` lets the artifact loader
    translate verification failures into its typed corruption errors.
    """

    def __init__(self, rule: str, detail: str) -> None:
        super().__init__(f"[{rule}] {detail}")
        self.rule = rule
        self.detail = detail


def _fail(rule: str, detail: str) -> None:
    raise VerificationError(rule, detail)


@dataclass(frozen=True)
class TapeFacts:
    """What :func:`verify_tape` established about a tape."""

    n_inputs: int
    n_operations: int
    n_kernels: int
    n_levels: int
    #: Operation slots the root never transitively reads.  Individual dead
    #: lanes are tolerated (the planner retires them immediately); a fully
    #: dead kernel is an error.
    n_dead_slots: int


@dataclass(frozen=True)
class PlanFacts:
    """What :func:`verify_memory_plan` established about a plan."""

    n_kernels: int
    n_physical: int
    max_live: int
    #: Input slots materialized lazily via encode records.
    n_encoded_inputs: int
    #: Operand lanes carried as broadcast constant columns.
    n_broadcast_lanes: int


# --------------------------------------------------------------------------- #
# Shared lane-vector helpers
# --------------------------------------------------------------------------- #
def _lane_args(tape) -> Tuple[np.ndarray, np.ndarray]:
    """The tape's operand vectors concatenated in lane order, memoized.

    Lane order is destination-slot order (``n_inputs .. n_slots``), so
    ``arg0_all[s - n_inputs]`` is the first operand of the kernel lane that
    computes slot ``s``.  Memoized on the tape object: tapes are immutable
    in practice and both :func:`verify_tape` and :func:`verify_memory_plan`
    need the same concatenation.
    """
    cached = getattr(tape, "_statics_lane_args", None)
    if cached is not None:
        return cached
    if tape.kernels:
        arg0 = np.concatenate([k.arg0 for k in tape.kernels])
        arg1 = np.concatenate([k.arg1 for k in tape.kernels])
    else:
        arg0 = np.empty(0, dtype=np.intp)
        arg1 = np.empty(0, dtype=np.intp)
    tape._statics_lane_args = (arg0, arg1)
    return arg0, arg1


def _first_mismatched_slice(
    pairs: Sequence[Tuple[Optional[slice], np.ndarray]]
) -> int:
    """Index of the first pair whose strided view != its row array, or -1.

    Every pair with a view is expanded symbolically (``start + step*lane``)
    and compared in one concatenated pass.
    """
    selected = [
        (i, view, rows) for i, (view, rows) in enumerate(pairs) if view is not None
    ]
    if not selected:
        return -1
    count = len(selected)
    starts = np.fromiter((view.start for _, view, _ in selected), np.int64, count)
    stops = np.fromiter((view.stop for _, view, _ in selected), np.int64, count)
    steps = np.fromiter(((view.step or 1) for _, view, _ in selected), np.int64, count)
    widths = np.fromiter((rows.size for _, _, rows in selected), np.int64, count)
    lens = np.where(
        steps > 0,
        np.maximum(0, (stops - starts + steps - 1) // steps),
        np.maximum(0, (starts - stops - steps - 1) // -steps),
    )
    bad = np.flatnonzero(lens != widths)
    if bad.size:
        return selected[int(bad[0])][0]
    rows_cat = np.concatenate(
        [np.asarray(rows, dtype=np.int64) for _, _, rows in selected]
    )
    offsets = np.concatenate([[0], np.cumsum(widths)])
    within = np.arange(rows_cat.size, dtype=np.int64) - np.repeat(offsets[:-1], widths)
    expected = np.repeat(starts, widths) + np.repeat(steps, widths) * within
    diff = np.flatnonzero(expected != rows_cat)
    if diff.size:
        entry = int(np.searchsorted(offsets, int(diff[0]), side="right")) - 1
        return selected[entry][0]
    return -1


# --------------------------------------------------------------------------- #
# Tape verification
# --------------------------------------------------------------------------- #
def _verify_tape_inputs_slow(tape) -> None:
    """Exact per-slot input walk; raises with a precise diagnosis."""
    for position, spec in enumerate(tape.inputs):
        if spec.index != position:
            _fail(
                "tape-input-order",
                f"input slot at position {position} carries index {spec.index}",
            )
        if spec.kind not in INPUT_KINDS:
            _fail("tape-input-order", f"input slot {position}: unknown kind {spec.kind!r}")
        if spec.kind == "indicator":
            if spec.var < 0 or spec.value < 0:
                _fail(
                    "tape-input-domain",
                    f"indicator slot {position} has negative var/value "
                    f"({spec.var}, {spec.value})",
                )
        elif not np.isfinite(spec.prob) or spec.prob < 0.0:
            _fail(
                "tape-input-domain",
                f"{spec.kind} slot {position} carries probability {spec.prob!r} "
                "(must be finite and non-negative)",
            )
    _fail("tape-input-order", "input slots are internally inconsistent")


def _verify_tape_inputs(tape) -> None:
    """Vectorized input checks over the tape's precomputed index vectors.

    ``_ind_*``/``_const_*`` are rebuilt deterministically from
    ``tape.inputs`` by ``CompiledTape.__post_init__`` in this process, so
    using them trusts only the constructor, not any shipped payload.  Any
    trip falls back to the exact walk for the error message.
    """
    n_inputs = len(tape.inputs)
    ind_slots = tape._ind_slots
    const_slots = tape._const_slots
    indices = np.concatenate([ind_slots, const_slots])
    ok = (
        indices.size == n_inputs
        and np.array_equal(np.sort(indices), np.arange(n_inputs))
        and (np.diff(ind_slots) > 0).all()
        and (np.diff(const_slots) > 0).all()
        and bool((tape._ind_vars >= 0).all())
        and bool((tape._ind_values >= 0).all())
        and bool(np.isfinite(tape._const_probs).all())
        and bool((tape._const_probs >= 0.0).all())
    )
    if not ok:
        _verify_tape_inputs_slow(tape)


def _dead_scan_slow(tape, n_slots: int) -> int:
    """Exact reverse reachability walk; returns the dead-slot count.

    Raises ``tape-dead-kernel`` naming the first fully dead kernel.  Used
    when the fast all-slots-used check trips — which also happens for tapes
    with individually dead (but tolerated) lanes.
    """
    reachable = np.zeros(n_slots, dtype=bool)
    reachable[tape.root_slot] = True
    n_dead_slots = 0
    for ki in range(len(tape.kernels) - 1, -1, -1):
        kernel = tape.kernels[ki]
        live = reachable[kernel.dest_start : kernel.dest_stop]
        if not live.any():
            _fail(
                "tape-dead-kernel",
                f"tape kernel {ki} ({kernel.op}, width {kernel.dest_stop - kernel.dest_start}) "
                "computes no slot the root transitively reads",
            )
        n_dead_slots += int((~live).sum())
        reachable[kernel.arg0[live]] = True
        reachable[kernel.arg1[live]] = True
    return n_dead_slots


def _verify_tape_slow(tape) -> TapeFacts:
    """The straight-line per-kernel walk, for exact diagnosis of failures."""
    n_inputs = len(tape.inputs)
    n_slots = n_inputs + sum(k.dest_stop - k.dest_start for k in tape.kernels)
    slot_level = np.zeros(n_slots, dtype=np.int64)
    cursor = n_inputs
    previous_level = 0
    for ki, kernel in enumerate(tape.kernels):
        context = f"tape kernel {ki}"
        if kernel.op not in (OP_ADD, OP_MUL):
            _fail("tape-opcode", f"{context}: unknown opcode {kernel.op!r}")
        if kernel.dest_start != cursor or kernel.dest_stop <= kernel.dest_start:
            _fail(
                "tape-dest-contiguity",
                f"{context}: destination [{kernel.dest_start}, {kernel.dest_stop}) "
                f"does not continue the tape at slot {cursor}",
            )
        width = kernel.dest_stop - kernel.dest_start
        for name, arg in (("arg0", kernel.arg0), ("arg1", kernel.arg1)):
            if arg.ndim != 1 or arg.size != width:
                _fail(
                    "tape-operand-shape",
                    f"{context}: {name} has shape {arg.shape}, expected ({width},)",
                )
            if arg.size and (int(arg.min()) < 0 or int(arg.max()) >= kernel.dest_start):
                lane = int(np.argmax((arg < 0) | (arg >= kernel.dest_start)))
                _fail(
                    "tape-def-before-use",
                    f"{context}: {name} lane {lane} reads slot {int(arg[lane])}, "
                    f"which is not defined before slot {kernel.dest_start}",
                )
        lane_levels = 1 + np.maximum(slot_level[kernel.arg0], slot_level[kernel.arg1])
        if not np.all(lane_levels == kernel.level):
            lane = int(np.argmax(lane_levels != kernel.level))
            _fail(
                "tape-level",
                f"{context}: recorded level {kernel.level} but lane {lane} has "
                f"ASAP level {int(lane_levels[lane])}",
            )
        if kernel.level < previous_level:
            _fail(
                "tape-level",
                f"{context}: level {kernel.level} decreases from {previous_level}",
            )
        slot_level[kernel.dest_start : kernel.dest_stop] = kernel.level
        cursor = kernel.dest_stop
        previous_level = kernel.level
    if not 0 <= tape.root_slot < max(n_slots, 1):
        _fail("tape-root", f"root slot {tape.root_slot} outside [0, {n_slots})")
    n_dead_slots = _dead_scan_slow(tape, n_slots)
    return TapeFacts(
        n_inputs=n_inputs,
        n_operations=n_slots - n_inputs,
        n_kernels=len(tape.kernels),
        n_levels=tape.kernels[-1].level if tape.kernels else 0,
        n_dead_slots=n_dead_slots,
    )


def verify_tape(tape) -> TapeFacts:
    """Statically verify a :class:`~repro.spn.compiled.CompiledTape`.

    Raises :class:`VerificationError` on the first violated rule; returns
    the established :class:`TapeFacts` otherwise.
    """
    _verify_tape_inputs(tape)
    n_inputs = len(tape.inputs)
    kernels = tape.kernels
    n_kernels = len(kernels)
    if not n_kernels:
        if not 0 <= tape.root_slot < max(n_inputs, 1):
            _fail("tape-root", f"root slot {tape.root_slot} outside [0, {n_inputs})")
        return TapeFacts(n_inputs, 0, 0, 0, 0)

    # Per-kernel scalar checks (opcode, contiguity, operand shape): one
    # structured pass collects every scalar, whole-array comparisons judge
    # them, and any trip re-runs the exact walk for its message.
    k_rec = np.fromiter(
        (
            (
                k.dest_start,
                k.dest_stop,
                k.level,
                k.op == OP_ADD or k.op == OP_MUL,
                k.op == OP_MUL,
                k.arg0.ndim == 1 and k.arg0.size == k.dest_stop - k.dest_start,
                k.arg1.ndim == 1 and k.arg1.size == k.dest_stop - k.dest_start,
            )
            for k in kernels
        ),
        dtype=[
            ("start", np.int64),
            ("stop", np.int64),
            ("level", np.int64),
            ("op", bool),
            ("mul", bool),
            ("a0", bool),
            ("a1", bool),
        ],
        count=n_kernels,
    )
    # Memoized for the plan verifier's boundary alignment (it needs each
    # tape kernel's stop and opcode); faithful to the kernel list as read
    # this moment, so a later structural edit — which builds a fresh tape —
    # never sees it.
    tape._statics_krec = k_rec
    starts = k_rec["start"]
    stops = k_rec["stop"]
    contiguous = (
        starts[0] == n_inputs
        and bool((stops > starts).all())
        and bool((starts[1:] == stops[:-1]).all())
    )
    if not (
        contiguous and k_rec["op"].all() and k_rec["a0"].all() and k_rec["a1"].all()
    ):
        return _verify_tape_slow(tape)
    widths = stops - starts
    levels = k_rec["level"]
    n_slots = int(stops[-1])

    # Lane-vector checks: def-before-use, then ASAP level consistency.
    arg0_all, arg1_all = _lane_args(tape)
    lane_start = np.repeat(starts, widths)
    if ((arg0_all < 0) | (arg0_all >= lane_start)).any() or (
        (arg1_all < 0) | (arg1_all >= lane_start)
    ).any():
        return _verify_tape_slow(tape)
    slot_level = np.zeros(n_slots, dtype=np.int64)
    slot_level[n_inputs:] = np.repeat(levels, widths)
    lane_levels = 1 + np.maximum(slot_level[arg0_all], slot_level[arg1_all])
    if not np.array_equal(lane_levels, slot_level[n_inputs:]) or (
        np.diff(levels) < 0
    ).any():
        return _verify_tape_slow(tape)

    if not 0 <= tape.root_slot < n_slots:
        _fail("tape-root", f"root slot {tape.root_slot} outside [0, {n_slots})")

    # Root reachability, fast form.  If every operation slot is read by some
    # later kernel (or is the root), a downward induction over slot numbers
    # shows every slot is root-reachable and no dead lane exists: any
    # unreachable component of a finite DAG must contain an unread sink.
    # Tapes with unread lanes take the exact reverse walk, which tolerates
    # dead lanes but rejects fully dead kernels.
    used = np.zeros(n_slots, dtype=bool)
    used[arg0_all] = True
    used[arg1_all] = True
    used[tape.root_slot] = True
    if used[n_inputs:].all():
        n_dead_slots = 0
    else:
        n_dead_slots = _dead_scan_slow(tape, n_slots)

    return TapeFacts(
        n_inputs=n_inputs,
        n_operations=n_slots - n_inputs,
        n_kernels=n_kernels,
        n_levels=int(levels[-1]),
        n_dead_slots=n_dead_slots,
    )


# --------------------------------------------------------------------------- #
# Canonical input values
# --------------------------------------------------------------------------- #
@dataclass
class _SignatureLookup:
    """Sorted unique-signature tables for encode-record lookups.

    One entry per *unique* input value signature (not per slot) — built
    with :func:`numpy.unique`, queried with ``searchsorted``.  Replaces the
    per-slot dict the general walk used to build eagerly: real tapes carry
    thousands of distinct weight values but plans only look up the handful
    of signatures their encode records mention.
    """

    ind_keys: np.ndarray  # sorted unique var*base+value keys
    ind_slots: np.ndarray  # canonical (lowest) slot per key
    base: int  # value packing radix (values are < base)
    const_probs: np.ndarray  # sorted unique constant probabilities
    const_slots: np.ndarray  # canonical (lowest) slot per probability

    def indicator(self, var: int, value: int) -> Optional[int]:
        if var < 0 or not 0 <= value < self.base:
            return None
        position = int(np.searchsorted(self.ind_keys, var * self.base + value))
        if position < self.ind_keys.size and self.ind_keys[position] == var * self.base + value:
            return int(self.ind_slots[position])
        return None

    def constant(self, prob: float) -> Optional[int]:
        position = int(np.searchsorted(self.const_probs, prob))
        if position < self.const_probs.size and self.const_probs[position] == prob:
            return int(self.const_slots[position])
        return None


def _canonical_inputs(
    tape, n_slots: Optional[int] = None
) -> Tuple[np.ndarray, _SignatureLookup, np.ndarray, np.ndarray]:
    """Canonical value ids for input slots plus constant-probability lookup.

    Returns ``(canon, lookup, is_const, const_prob)`` where ``canon`` maps
    every tape slot to the id of the first slot carrying the same *value*
    (operation slots map to themselves — each is defined once).
    """
    if n_slots is None:
        n_slots = tape.n_slots
    # The tape constructor precomputed these tables from its own input-slot
    # vectors (``CompiledTape.__post_init__``), so reading them trusts only
    # in-process code; rebuild them in place only when the cached shape
    # disagrees with the slot count under verification.
    tables = getattr(tape, "_canon_tables", None)
    if tables is None or tables[0].size != n_slots:
        tables = canonical_value_tables(
            tape._ind_slots,
            tape._ind_vars,
            tape._ind_values,
            tape._const_slots,
            tape._const_probs,
            n_slots,
        )
    canon, ind_keys, ind_first, base, uniq_probs, const_first, is_const, const_prob = tables
    lookup = _SignatureLookup(
        ind_keys=ind_keys,
        ind_slots=ind_first,
        base=base,
        const_probs=uniq_probs,
        const_slots=const_first,
    )
    return canon, lookup, is_const, const_prob


def _slice_rows(view: Optional[slice], rows: np.ndarray, what: str, context: str) -> None:
    """A precomputed strided view must address exactly its row array."""
    if view is None:
        return
    expanded = np.arange(view.start, view.stop, view.step or 1, dtype=np.intp)
    if not np.array_equal(expanded, rows):
        _fail(
            "plan-slice-mismatch",
            f"{context}: {what} strided view {view} does not match its row array",
        )


# --------------------------------------------------------------------------- #
# Plan verification
# --------------------------------------------------------------------------- #
def _verify_memory_plan_general(tape, plan) -> PlanFacts:
    """The exhaustive per-kernel walk, for exact diagnosis.

    Handles any plan object (including one whose ``source_slots`` do not
    follow the tape) and produces precise per-lane diagnoses; the
    vectorized path delegates here whenever the layout is unusual or a
    vector check needs an exact error message.  The caller has checked
    that the plan has one planned kernel per tape kernel.
    """
    n_inputs = tape.n_inputs
    n_slots = tape.n_slots
    n_physical = plan.n_physical

    n_broadcast_lanes = 0
    for gi, (planned, kernel) in enumerate(zip(plan.kernels, tape.kernels)):
        context = f"plan kernel {gi}"
        if planned.op not in (OP_ADD, OP_MUL):
            _fail("plan-group-structure", f"{context}: unknown opcode {planned.op!r}")
        width = planned.dest_stop - planned.dest_start
        if not (0 <= planned.dest_start < planned.dest_stop <= n_physical):
            _fail(
                "plan-scalar-range",
                f"{context}: destination [{planned.dest_start}, {planned.dest_stop}) "
                f"outside the {n_physical}-row buffer",
            )
        if planned.op != kernel.op or width != kernel.width:
            _fail(
                "plan-group-structure",
                f"{context}: a {planned.op!r} kernel of width {width}, but tape "
                f"kernel {gi} is a {kernel.op!r} kernel of width {kernel.width}",
            )
        if not np.array_equal(
            planned.source_slots, np.arange(kernel.dest_start, kernel.dest_stop)
        ):
            _fail(
                "plan-coverage",
                f"{context}: source slots are not tape kernel {gi}'s destination "
                f"slots [{kernel.dest_start}, {kernel.dest_stop})",
            )
        for const in (planned.const_arg0, planned.const_arg1):
            if const is not None:
                n_broadcast_lanes += width

    # --- independent liveness (mirrors the allocator's accounting) --------- #
    n_groups = len(plan.kernels)
    first_use = np.full(n_slots, -1, dtype=np.int64)
    last_use = np.full(n_slots, -1, dtype=np.int64)
    placed_at = np.full(n_slots, -1, dtype=np.int64)
    for gi, (planned, kernel) in enumerate(zip(plan.kernels, tape.kernels)):
        placed_at[kernel.dest_start : kernel.dest_stop] = gi
        for args, const in (
            (kernel.arg0, planned.const_arg0),
            (kernel.arg1, planned.const_arg1),
        ):
            if const is not None:  # broadcast lanes are never materialized
                continue
            fresh = first_use[args] < 0
            if fresh.any():
                first_use[args[fresh]] = gi
            last_use[args] = gi
    last_use[tape.root_slot] = n_groups
    placed_at[:n_inputs] = np.where(first_use[:n_inputs] >= 0, first_use[:n_inputs], -1)
    alive = placed_at >= 0
    effective_last = np.where(last_use >= 0, last_use, placed_at)
    freed_at = effective_last + 1  # retired at the start of this kernel
    placed_hist = np.bincount(placed_at[alive], minlength=n_groups + 2)
    freed_hist = np.bincount(
        np.minimum(freed_at[alive], n_groups + 1), minlength=n_groups + 2
    )
    in_use = np.cumsum(placed_hist[: n_groups] - freed_hist[: n_groups])
    derived_max_live = int(in_use.max()) if in_use.size else 0
    if derived_max_live != plan.max_live:
        _fail(
            "plan-liveness",
            f"independently derived liveness peak {derived_max_live} does not "
            f"match the plan's recorded max_live {plan.max_live}",
        )

    # --- symbolic replay over the physical buffer -------------------------- #
    canon, lookup, is_const, const_prob = _canonical_inputs(tape, n_slots)
    content = np.full(n_physical, -1, dtype=np.int64)
    n_encoded_inputs = 0
    for gi, (planned, kernel) in enumerate(zip(plan.kernels, tape.kernels)):
        context = f"plan kernel {gi}"
        arriving: List[int] = []
        if planned.encode is not None:
            encode = planned.encode
            for what, rows in (("ind_rows", encode.ind_rows), ("const_rows", encode.const_rows)):
                if rows.size and (int(rows.min()) < 0 or int(rows.max()) >= n_physical):
                    _fail(
                        "plan-encode-unknown-input",
                        f"{context}: encode {what} references a row outside the buffer",
                    )
            _slice_rows(encode.ind_slice, encode.ind_rows, "encode ind_rows", context)
            _slice_rows(encode.const_slice, encode.const_rows, "encode const_rows", context)
            for row, var, value in zip(encode.ind_rows, encode.ind_vars, encode.ind_values):
                slot = lookup.indicator(int(var), int(value))
                if slot is None:
                    _fail(
                        "plan-encode-unknown-input",
                        f"{context}: encodes indicator (var {int(var)}, value "
                        f"{int(value)}) which matches no tape input slot",
                    )
                content[row] = slot
                arriving.append(slot)
            for row, prob in zip(encode.const_rows, encode.const_probs):
                slot = lookup.constant(float(prob))
                if slot is None:
                    _fail(
                        "plan-encode-unknown-input",
                        f"{context}: encodes constant {float(prob)!r} which matches "
                        "no tape input slot",
                    )
                content[row] = slot
                arriving.append(slot)
            n_encoded_inputs += len(arriving)
        expected_fresh = np.flatnonzero(first_use[:n_inputs] == gi)
        if sorted(arriving) != sorted(canon[expected_fresh].tolist()):
            _fail(
                "plan-encode-set-mismatch",
                f"{context}: encoded inputs do not match the {expected_fresh.size} "
                "input slots first read by this kernel",
            )
        width = planned.dest_stop - planned.dest_start
        for name, rows, view, const, args in (
            ("arg0", planned.arg0, planned.arg0_slice, planned.const_arg0, kernel.arg0),
            ("arg1", planned.arg1, planned.arg1_slice, planned.const_arg1, kernel.arg1),
        ):
            if const is not None:
                column = const.ravel()
                if column.size != width:
                    _fail(
                        "plan-broadcast-operand",
                        f"{context}: {name} broadcast column has {column.size} "
                        f"lanes for width {width}",
                    )
                if not is_const[args].all():
                    lane = int(np.argmax(~is_const[args]))
                    _fail(
                        "plan-broadcast-operand",
                        f"{context}: {name} lane {lane} broadcasts slot "
                        f"{int(args[lane])}, which is not a constant input",
                    )
                if not np.array_equal(column, const_prob[args]):
                    lane = int(np.argmax(column != const_prob[args]))
                    _fail(
                        "plan-broadcast-operand",
                        f"{context}: {name} lane {lane} broadcasts {column[lane]!r} "
                        f"but slot {int(args[lane])} carries {const_prob[args[lane]]!r}",
                    )
                continue
            if rows.size != width:
                _fail(
                    "plan-operand-mismatch",
                    f"{context}: {name} has {rows.size} rows for width {width}",
                )
            if rows.size and (int(rows.min()) < 0 or int(rows.max()) >= n_physical):
                _fail(
                    "plan-operand-mismatch",
                    f"{context}: {name} references a row outside the buffer",
                )
            _slice_rows(view, rows, name, context)
            expected = canon[args]
            got = content[rows]
            if not np.array_equal(got, expected):
                lane = int(np.argmax(got != expected))
                held = int(got[lane])
                held_desc = "nothing" if held < 0 else f"slot {held}"
                _fail(
                    "plan-operand-mismatch",
                    f"{context}: {name} lane {lane} reads physical row "
                    f"{int(rows[lane])} holding {held_desc}, but the tape needs "
                    f"slot {int(expected[lane])}",
                )
        content[planned.dest_start : planned.dest_stop] = planned.source_slots

    if content[plan.root_phys] != canon[tape.root_slot]:
        held = int(content[plan.root_phys])
        held_desc = "nothing" if held < 0 else f"slot {held}"
        _fail(
            "plan-root",
            f"after the final kernel, root row {plan.root_phys} holds {held_desc} "
            f"but the root is slot {tape.root_slot}",
        )
    final = plan.kernels[-1]
    direct = final.dest_stop - final.dest_start == 1 and final.dest_start == plan.root_phys
    if bool(plan.root_direct) != direct:
        _fail(
            "plan-root",
            f"root_direct flag is {bool(plan.root_direct)} but the final kernel "
            f"{'writes' if direct else 'does not write'} the root row directly",
        )

    return PlanFacts(
        n_kernels=n_groups,
        n_physical=n_physical,
        max_live=plan.max_live,
        n_encoded_inputs=n_encoded_inputs,
        n_broadcast_lanes=n_broadcast_lanes,
    )


def _verify_memory_plan_identity(tape, plan, n_inputs: int, n_slots: int) -> PlanFacts:
    """Vectorized verification of the identity source layout.

    The planner emits planned kernels whose concatenated ``source_slots``
    are exactly ``n_inputs..n_slots`` in order.  For that layout every
    rule reduces to whole-array passes; any violation that needs a
    per-lane diagnosis delegates to :func:`_verify_memory_plan_general`
    for the message.
    """
    n_ops = n_slots - n_inputs
    n_physical = plan.n_physical
    groups = plan.kernels
    ng = len(groups)

    def _exact() -> PlanFacts:
        return _verify_memory_plan_general(tape, plan)

    # --- kernel structure, vectorized -------------------------------------- #
    # The plan constructor precomputed every per-kernel scalar and
    # concatenation this path needs (``MemoryPlan.__post_init__``); a plan
    # object lacking them — or whose kernel list was mutated in place after
    # construction — takes the exhaustive walk instead.
    g_rec = getattr(plan, "_kernel_meta", None)
    if g_rec is None or g_rec.size != ng or (g_rec["src"] < 0).any():
        return _exact()
    g_start = g_rec["start"]
    g_stop = g_rec["stop"]
    g_width = g_stop - g_start
    g_is_mul = g_rec["mul"]
    g_src_size = g_rec["src"]
    has_c0 = g_rec["c0"]
    has_c1 = g_rec["c1"]
    if not (g_is_mul | g_rec["add"]).all():
        gi = int(np.argmax(~(g_is_mul | g_rec["add"])))
        _fail("plan-group-structure", f"plan kernel {gi}: unknown opcode {groups[gi].op!r}")
    if not ((0 <= g_start) & (g_start < g_stop) & (g_stop <= n_physical)).all():
        gi = int(np.argmax(~((0 <= g_start) & (g_start < g_stop) & (g_stop <= n_physical))))
        _fail(
            "plan-scalar-range",
            f"plan kernel {gi}: destination [{int(g_start[gi])}, {int(g_stop[gi])}) "
            f"outside the {n_physical}-row buffer",
        )
    if (g_src_size != g_width).any():
        gi = int(np.argmax(g_src_size != g_width))
        _fail(
            "plan-group-structure",
            f"plan kernel {gi}: {int(g_src_size[gi])} source slots for width "
            f"{int(g_width[gi])}",
        )
    t_rec = getattr(tape, "_statics_krec", None)
    if t_rec is None or t_rec.size != ng:
        t_rec = np.fromiter(
            ((k.dest_stop, k.op == OP_MUL) for k in tape.kernels),
            dtype=[("stop", np.int64), ("mul", bool)],
            count=ng,
        )
    # The tape already passed verify_tape, so destinations are contiguous
    # from n_inputs and dest_stop alone yields each tape kernel's width.
    # Planned kernel i must be tape kernel i: same opcode, same width (the
    # identity layout then makes its source slots tape kernel i's).
    t_width = np.diff(t_rec["stop"], prepend=n_inputs)
    if not (np.array_equal(g_width, t_width) and np.array_equal(g_is_mul, t_rec["mul"])):
        return _exact()
    # Plan-only replay geometry, precomputed by the constructor alongside
    # the kernel metadata above (same trust argument, same staleness
    # canaries: shape disagreements take the exhaustive walk).
    replay = getattr(plan, "_replay_meta", None)
    if (
        replay is None
        or replay[0] != 3 * ng + 3
        or replay[1] != n_slots + 1
        or replay[2].size != n_ops
        or replay[3].size != ng + 1
    ):
        return _exact()
    (
        period,
        pack,
        lane_group,
        _,
        write_order,
        sorted_write_base,
        lane_c0,
        lane_c1,
        open_g0,
        open_g1,
        read_rows,
        read_base,
    ) = replay
    n_broadcast_lanes = int((g_width * (has_c0.astype(np.int64) + has_c1)).sum())

    # --- lane vectors ------------------------------------------------------- #
    # The broadcast-free ("open") lanes of each side feed both the liveness
    # derivation and the replay's read stream; the group-side masks are
    # plan-only and already unpacked, so only the tape's lane args are
    # masked here.
    arg0_all, arg1_all = _lane_args(tape)
    open_a0 = arg0_all if lane_c0 is None else arg0_all[~lane_c0]
    open_a1 = arg1_all if lane_c1 is None else arg1_all[~lane_c1]

    # --- independent liveness ----------------------------------------------- #
    sentinel = ng + 1
    first_use = np.full(n_slots, sentinel, dtype=np.int64)
    last_use = np.full(n_slots, -1, dtype=np.int64)
    scratch = np.empty(n_slots, dtype=np.int64)
    for args, gids in ((open_a0, open_g0), (open_a1, open_g1)):
        # gids ascend, so forward assignment keeps the last (max) group and
        # reversed assignment keeps the first (min) group per slot.
        scratch.fill(-1)
        scratch[args] = gids
        np.maximum(last_use, scratch, out=last_use)
        scratch.fill(sentinel)
        scratch[args[::-1]] = gids[::-1]
        np.minimum(first_use, scratch, out=first_use)
    first_use[first_use == sentinel] = -1
    placed_at = np.full(n_slots, -1, dtype=np.int64)
    placed_at[n_inputs:] = lane_group
    last_use[tape.root_slot] = ng
    placed_at[:n_inputs] = np.where(first_use[:n_inputs] >= 0, first_use[:n_inputs], -1)
    alive = placed_at >= 0
    effective_last = np.where(last_use >= 0, last_use, placed_at)
    freed_at = effective_last + 1
    placed_hist = np.bincount(placed_at[alive], minlength=ng + 2)
    freed_hist = np.bincount(np.minimum(freed_at[alive], ng + 1), minlength=ng + 2)
    in_use = np.cumsum(placed_hist[:ng] - freed_hist[:ng])
    derived_max_live = int(in_use.max()) if in_use.size else 0
    if derived_max_live != plan.max_live:
        _fail(
            "plan-liveness",
            f"independently derived liveness peak {derived_max_live} does not "
            f"match the plan's recorded max_live {plan.max_live}",
        )

    # --- encode records, in bulk -------------------------------------------- #
    canon, lookup, is_const, const_prob = _canonical_inputs(tape, n_slots)
    (
        ind_g,
        ind_rows,
        ind_vars,
        ind_values,
        const_g,
        const_rows,
        const_probs,
        enc_view_pairs,
    ) = plan._encode_meta
    ind_rows = ind_rows.astype(np.int64, copy=False)
    const_rows = const_rows.astype(np.int64, copy=False)
    n_encoded_inputs = int(ind_rows.size + const_rows.size)
    if (
        ((ind_rows < 0) | (ind_rows >= n_physical)).any()
        or ((const_rows < 0) | (const_rows >= n_physical)).any()
    ):
        return _exact()
    # Bulk signature lookups against the sorted unique tables.
    ind_canon = np.zeros(ind_rows.size, dtype=np.int64)
    if ind_rows.size:
        in_domain = (ind_vars >= 0) & (ind_values >= 0) & (ind_values < lookup.base)
        if lookup.ind_keys.size:
            keys = ind_vars * lookup.base + ind_values
            position = np.minimum(
                np.searchsorted(lookup.ind_keys, keys), lookup.ind_keys.size - 1
            )
            found = in_domain & (lookup.ind_keys[position] == keys)
            ind_canon = lookup.ind_slots[position]
        else:
            found = np.zeros(ind_rows.size, dtype=bool)
        if not found.all():
            i = int(np.argmax(~found))
            _fail(
                "plan-encode-unknown-input",
                f"plan kernel {int(ind_g[i])}: encodes indicator (var "
                f"{int(ind_vars[i])}, value {int(ind_values[i])}) which matches "
                "no tape input slot",
            )
    const_canon = np.zeros(const_rows.size, dtype=np.int64)
    if const_rows.size:
        if lookup.const_probs.size:
            position = np.minimum(
                np.searchsorted(lookup.const_probs, const_probs),
                lookup.const_probs.size - 1,
            )
            # NaN probes never compare equal, so they fail here as unknown.
            found = lookup.const_probs[position] == const_probs
            const_canon = lookup.const_slots[position]
        else:
            found = np.zeros(const_rows.size, dtype=bool)
        if not found.all():
            i = int(np.argmax(~found))
            _fail(
                "plan-encode-unknown-input",
                f"plan kernel {int(const_g[i])}: encodes constant "
                f"{float(const_probs[i])!r} which matches no tape input slot",
            )

    # Arriving multiset per group must equal the canonical ids of the input
    # slots first read there (lexsort both sides, compare once).
    arrive_g = np.concatenate([ind_g, const_g])
    arrive_c = np.concatenate([ind_canon, const_canon])
    expected_slots = np.flatnonzero(first_use[:n_inputs] >= 0)
    expected_g = first_use[expected_slots]
    expected_c = canon[expected_slots]
    a_order = np.lexsort((arrive_c, arrive_g))
    e_order = np.lexsort((expected_c, expected_g))
    if arrive_g.size != expected_g.size or not (
        np.array_equal(arrive_g[a_order], expected_g[e_order])
        and np.array_equal(arrive_c[a_order], expected_c[e_order])
    ):
        count_a = np.bincount(arrive_g, minlength=ng + 1)
        count_e = np.bincount(expected_g, minlength=ng + 1)
        mismatch = np.flatnonzero(count_a != count_e)
        if mismatch.size:
            gi = int(mismatch[0])
        else:
            diff = (arrive_c[a_order] != expected_c[e_order]) | (
                arrive_g[a_order] != expected_g[e_order]
            )
            gi = int(arrive_g[a_order][int(np.argmax(diff))])
        _fail(
            "plan-encode-set-mismatch",
            f"plan kernel {gi}: encoded inputs do not match the "
            f"{int(count_e[gi])} input slots first read by this kernel",
        )

    # --- broadcast constant columns ----------------------------------------- #
    const_meta0, const_meta1 = plan._const_meta
    for side, lane_mask, has_const, args_all, (sizes, columns) in (
        ("arg0", lane_c0, has_c0, arg0_all, const_meta0),
        ("arg1", lane_c1, has_c1, arg1_all, const_meta1),
    ):
        if not has_const.any():
            continue
        const_groups = np.flatnonzero(has_const)
        if sizes.size != const_groups.size:
            return _exact()
        if (sizes != g_width[const_groups]).any():
            bad = int(np.argmax(sizes != g_width[const_groups]))
            gi = int(const_groups[bad])
            _fail(
                "plan-broadcast-operand",
                f"plan kernel {gi}: {side} broadcast column has {int(sizes[bad])} "
                f"lanes for width {int(g_width[gi])}",
            )
        args = args_all[lane_mask]
        if not is_const[args].all() or not np.array_equal(columns, const_prob[args]):
            return _exact()

    # --- symbolic replay as a last-write-before-read query ------------------ #
    # Each write is packed into one int64 ``(row*period + time)*pack + value``
    # so a sorted event log answers "last write on this row" via
    # ``searchsorted`` (a read's packed key carries value 0, so equal-time
    # writes sort strictly after it, as they must — a group's own
    # destination write is not visible to its reads).  The key bases and
    # their sort order are plan-only and precomputed; only the canonical
    # write values are joined in here, and they never perturb the order
    # because values are strictly below ``pack``.
    if (sorted_write_base[1:] == sorted_write_base[:-1]).any():
        # Two writes to the same row at the same event time: the sort
        # cannot tell which lands last, so let the exhaustive walk decide.
        return _exact()
    write_values = np.concatenate(
        [ind_canon, const_canon, np.arange(n_inputs, n_slots, dtype=np.int64)]
    )
    if write_values.size != write_order.size:
        return _exact()
    write_packed = sorted_write_base + write_values[write_order]

    operand_meta0, operand_meta1 = plan._operand_meta
    for side, has_const, (sizes, _rows, _pairs) in (
        ("arg0", has_c0, operand_meta0),
        ("arg1", has_c1, operand_meta1),
    ):
        open_groups = np.flatnonzero(~has_const)
        if sizes.size != open_groups.size:
            return _exact()
        if (sizes != g_width[open_groups]).any():
            bad = int(np.argmax(sizes != g_width[open_groups]))
            gi = int(open_groups[bad])
            _fail(
                "plan-operand-mismatch",
                f"plan kernel {gi}: {side} has {int(sizes[bad])} rows for width "
                f"{int(g_width[gi])}",
            )
    if read_rows.size and ((read_rows < 0) | (read_rows >= n_physical)).any():
        return _exact()
    if read_rows.size != open_g0.size + open_g1.size:
        return _exact()
    # All strided views (encode and operand) in one combined pass: the plan
    # constructor pre-expanded every slice next to the rows it claims, so
    # consistency is a single comparison; re-expand per pair only when the
    # precomputation is missing.
    view_check = getattr(plan, "_view_check", None)
    if view_check is not None:
        views_ok = np.array_equal(view_check[0], view_check[1])
    else:
        views_ok = (
            _first_mismatched_slice(enc_view_pairs + operand_meta0[2] + operand_meta1[2]) < 0
        )
    if not views_ok:
        return _exact()
    read_expected = np.concatenate([canon[open_a0], canon[open_a1]])
    probe = np.searchsorted(write_packed, read_base) - 1
    clipped = np.maximum(probe, 0)
    probed = write_packed[clipped]
    ok = (
        (probe >= 0)
        & (probed // (period * pack) == read_rows)
        & (probed % pack == read_expected)
    )
    if not ok.all():
        return _exact()

    root_probe = int(
        np.searchsorted(write_packed, (plan.root_phys * period + 3 * ng) * pack) - 1
    )
    root_held = (
        int(write_packed[root_probe] % pack)
        if root_probe >= 0
        and int(write_packed[root_probe] // (period * pack)) == plan.root_phys
        else -1
    )
    if root_held != int(canon[tape.root_slot]):
        held_desc = "nothing" if root_held < 0 else f"slot {root_held}"
        _fail(
            "plan-root",
            f"after the final kernel, root row {plan.root_phys} holds {held_desc} "
            f"but the root is slot {tape.root_slot}",
        )
    final = groups[-1]
    direct = final.dest_stop - final.dest_start == 1 and final.dest_start == plan.root_phys
    if bool(plan.root_direct) != direct:
        _fail(
            "plan-root",
            f"root_direct flag is {bool(plan.root_direct)} but the final kernel "
            f"{'writes' if direct else 'does not write'} the root row directly",
        )

    return PlanFacts(
        n_kernels=ng,
        n_physical=n_physical,
        max_live=plan.max_live,
        n_encoded_inputs=n_encoded_inputs,
        n_broadcast_lanes=n_broadcast_lanes,
    )


def verify_memory_plan(tape, plan) -> PlanFacts:
    """Statically verify that ``plan`` is a faithful allocation of ``tape``.

    Assumes ``tape`` itself already passed :func:`verify_tape` (use
    :func:`verify_compiled` for both).  Raises :class:`VerificationError`
    on the first violated rule.
    """
    n_inputs = tape.n_inputs
    n_slots = tape.n_slots
    if (
        plan.n_slots != n_slots
        or plan.n_inputs != n_inputs
        or len(plan.kernels) != len(tape.kernels)
    ):
        _fail(
            "plan-shape-mismatch",
            f"plan describes {plan.n_inputs}+{plan.n_slots - plan.n_inputs} slots "
            f"in {len(plan.kernels)} kernels; tape has "
            f"{n_inputs}+{n_slots - n_inputs} slots in {len(tape.kernels)} kernels",
        )
    n_physical = plan.n_physical
    if n_physical < 1 or n_physical > n_slots:
        _fail(
            "plan-scalar-range",
            f"n_physical {n_physical} outside [1, n_slots={n_slots}]",
        )
    if not 0 <= plan.root_phys < n_physical:
        _fail(
            "plan-scalar-range",
            f"root_phys {plan.root_phys} outside [0, {n_physical})",
        )
    if not 1 <= plan.max_live <= n_physical:
        _fail(
            "plan-scalar-range",
            f"max_live {plan.max_live} outside [1, n_physical={n_physical}]",
        )
    if not plan.kernels:
        _fail("plan-scalar-range", "plan has no kernels")

    # The identity layout (the one the planner emits: tape order, one
    # planned kernel per tape kernel) admits whole-array checks for every
    # rule.  The constructor precomputed the flag against the plan's own
    # slot counts, which the shape check above proved equal to the tape's.
    if getattr(plan, "_sources_identity", False):
        return _verify_memory_plan_identity(tape, plan, n_inputs, n_slots)
    return _verify_memory_plan_general(tape, plan)


def verify_compiled(tape, plan=None) -> Tuple[TapeFacts, Optional[PlanFacts]]:
    """Verify a tape and (when given) its memory plan in one call.

    ``plan=None`` verifies the tape alone — the dense reference executor
    (``execute_slots``) and kernel-less tapes run straight off the tape, so
    that is exactly their static contract.
    """
    tape_facts = verify_tape(tape)
    plan_facts = verify_memory_plan(tape, plan) if plan is not None else None
    return tape_facts, plan_facts
