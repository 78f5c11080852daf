"""Seeded IR mutation corpus: the static verifier's adversarial test set.

Each mutator takes an authentic ``(tape, plan)`` pair, deep-copies it via
the artifact payload round-trip (never ``deepcopy`` — :class:`MemoryPlan`
holds ``threading.local`` scratch), applies one *semantically corrupting*
edit that every structural loader would still accept, and returns the
corrupted pair.  The contract — enforced by ``tests/test_statics.py`` and
measured in ``benchmarks/test_bench_statics.py`` — is that
:func:`repro.statics.verifier.verify_compiled` raises
:class:`~repro.statics.verifier.VerificationError` on **every** mutator's
output for every suite profile (100% detection), while the unmutated pairs
verify clean (zero false positives).

Mutators return ``None`` when structurally inapplicable to a given tape
(e.g. no broadcast column to perturb); the nine suite profiles admit all
of them.  Each mutation is guaranteed-detectable by construction — e.g.
operand redirection targets lanes whose expected value is an *operation*
slot, which the verifier's canonicalization maps to a unique id, so no
duplicate-valued input slot can mask the edit.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..spn.compiled import CompiledTape, tape_from_payload, tape_to_payload
from ..spn.linearize import OP_MUL
from ..spn.memplan import MemoryPlan, plan_from_payload, plan_to_payload

__all__ = ["MUTATORS", "mutate", "mutation_names"]

MutationResult = Optional[Tuple[CompiledTape, MemoryPlan]]
Mutator = Callable[[CompiledTape, MemoryPlan, np.random.Generator], MutationResult]


def _copy_pair(tape: CompiledTape, plan: MemoryPlan) -> Tuple[CompiledTape, MemoryPlan]:
    """Independent copies via the artifact payload round-trip.

    The round-trip is the only sanctioned deep copy: both IR classes hold
    non-copyable runtime state (plan scratch ``threading.local``, the
    tape's plan lock), and payloads are bit-exact by design.
    """
    return (
        tape_from_payload(tape_to_payload(tape)),
        plan_from_payload(plan_to_payload(plan)),
    )


def _rebuild(tape: CompiledTape, **fields) -> CompiledTape:
    """A fresh tape with some declarative fields replaced.

    Construction bypasses ``tape_from_payload`` validation deliberately:
    mutators must produce IR that *format* checks accept but the static
    verifier rejects.
    """
    with np.errstate(invalid="ignore"):  # mutants may hold negative probs
        return CompiledTape(
            inputs=fields.get("inputs", tape.inputs),
            kernels=fields.get("kernels", tape.kernels),
            root_slot=fields.get("root_slot", tape.root_slot),
            slot_map=tape.slot_map,
        )


# --------------------------------------------------------------------------- #
# Tape mutators
# --------------------------------------------------------------------------- #
def tape_forward_operand(tape, plan, rng) -> MutationResult:
    """A lane reads its own destination: def-before-use violation."""
    tape, plan = _copy_pair(tape, plan)
    if not tape.kernels:
        return None
    kernel = tape.kernels[int(rng.integers(len(tape.kernels)))]
    lane = int(rng.integers(kernel.width))
    kernel.arg0[lane] = kernel.dest_start + lane
    return tape, plan


def tape_level_corrupt(tape, plan, rng) -> MutationResult:
    """One kernel claims a level inconsistent with its operands' depths."""
    tape, plan = _copy_pair(tape, plan)
    if not tape.kernels:
        return None
    index = int(rng.integers(len(tape.kernels)))
    kernels = list(tape.kernels)
    kernels[index] = replace(kernels[index], level=kernels[index].level + 1)
    return _rebuild(tape, kernels=kernels), plan


def tape_dead_kernel(tape, plan, rng) -> MutationResult:
    """An injected kernel whose output nothing reads and is not the root."""
    tape, plan = _copy_pair(tape, plan)
    if not tape.kernels:
        return None
    n_slots = tape.n_slots
    last = tape.kernels[-1]
    dead = type(last)(
        level=last.level + 1,
        op=OP_MUL,
        dest_start=n_slots,
        dest_stop=n_slots + 1,
        arg0=np.array([tape.root_slot], dtype=np.intp),
        arg1=np.array([tape.root_slot], dtype=np.intp),
    )
    return _rebuild(tape, kernels=list(tape.kernels) + [dead]), plan


def tape_negative_weight(tape, plan, rng) -> MutationResult:
    """A constant input slot with a negative probability."""
    tape, plan = _copy_pair(tape, plan)
    consts = [s for s in tape.inputs if s.kind != "indicator"]
    if not consts:
        return None
    victim = consts[int(rng.integers(len(consts)))]
    inputs = [
        replace(s, prob=-0.5) if s.index == victim.index else s for s in tape.inputs
    ]
    return _rebuild(tape, inputs=inputs), plan


def tape_root_redirect(tape, plan, rng) -> MutationResult:
    """Root moved onto an input slot: every kernel becomes dead code."""
    tape, plan = _copy_pair(tape, plan)
    if not tape.kernels or tape.n_inputs == 0:
        return None
    return _rebuild(tape, root_slot=int(rng.integers(tape.n_inputs))), plan


# --------------------------------------------------------------------------- #
# Plan mutators
# --------------------------------------------------------------------------- #
def _replan(plan: MemoryPlan, **fields) -> MemoryPlan:
    """A freshly constructed plan with some fields replaced.

    Every plan mutator hands its result through here — even after an
    in-place array edit — because a plan must leave a mutator *as a loader
    would build it*: ``MemoryPlan.__post_init__`` re-derives the
    concatenated kernel metadata the verifier's fast path reads, and an
    edit without reconstruction would leave that metadata describing the
    unmutated plan.
    """
    return replace(plan, **fields)


def plan_swap_kernels(tape, plan, rng) -> MutationResult:
    """Two dependent adjacent kernels reordered (topological violation)."""
    tape, plan = _copy_pair(tape, plan)
    for i in range(len(plan.kernels) - 1):
        first, second = plan.kernels[i], plan.kernels[i + 1]
        written = set(range(first.dest_start, first.dest_stop))
        reads = set()
        if first.encode is not None:
            written.update(first.encode.ind_rows.tolist())
            written.update(first.encode.const_rows.tolist())
        if second.const_arg0 is None:
            reads.update(second.arg0.tolist())
        if second.const_arg1 is None:
            reads.update(second.arg1.tolist())
        if written & reads:
            kernels = list(plan.kernels)
            kernels[i], kernels[i + 1] = kernels[i + 1], kernels[i]
            return tape, _replan(plan, kernels=kernels)
    return None


def plan_dest_shift(tape, plan, rng) -> MutationResult:
    """A kernel's destination interval spliced onto aliasing rows.

    The shifted interval overwrites rows other live values occupy while
    the value's readers still gather the original rows — the
    slot-interference shape a fragmented or miscompiled allocator produces.
    """
    tape, plan = _copy_pair(tape, plan)
    candidates = [
        i
        for i, k in enumerate(plan.kernels)
        if k.dest_stop + 1 <= plan.n_physical or k.dest_start >= 1
    ]
    if not candidates:
        return None
    index = candidates[int(rng.integers(len(candidates)))]
    kernel = plan.kernels[index]
    delta = 1 if kernel.dest_stop + 1 <= plan.n_physical else -1
    kernels = list(plan.kernels)
    kernels[index] = replace(
        kernel,
        dest_start=kernel.dest_start + delta,
        dest_stop=kernel.dest_stop + delta,
    )
    return tape, _replan(plan, kernels=kernels)


def plan_shrink_max_live(tape, plan, rng) -> MutationResult:
    """The recorded liveness peak understated by one."""
    tape, plan = _copy_pair(tape, plan)
    if plan.max_live <= 1:
        return None
    return tape, _replan(plan, max_live=plan.max_live - 1)


def plan_drop_kernel(tape, plan, rng) -> MutationResult:
    """One planned kernel deleted: its tape operations go uncovered."""
    tape, plan = _copy_pair(tape, plan)
    if len(plan.kernels) <= 1:
        return None
    kernels = list(plan.kernels)
    del kernels[int(rng.integers(len(kernels)))]
    return tape, _replan(plan, kernels=kernels)


def plan_operand_redirect(tape, plan, rng) -> MutationResult:
    """One operand row redirected to a neighboring physical row.

    Targets a lane whose expected operand is an *operation* slot, which
    canonicalizes to a unique id — a duplicate-valued input row can never
    mask the redirect, so detection is guaranteed, not probabilistic.
    """
    tape, plan = _copy_pair(tape, plan)
    if plan.n_physical < 2:
        return None
    n_inputs = tape.n_inputs
    slot_owner = {}
    for index, kernel in enumerate(plan.kernels):
        for offset, slot in enumerate(kernel.source_slots.tolist()):
            slot_owner[slot] = (index, offset)
    choices = []
    for tk in tape.kernels:
        for lane in range(tk.width):
            if int(tk.arg0[lane]) >= n_inputs and (tk.dest_start + lane) in slot_owner:
                index, offset = slot_owner[tk.dest_start + lane]
                if plan.kernels[index].const_arg0 is None:
                    choices.append((index, offset))
    if not choices:
        return None
    index, offset = choices[int(rng.integers(len(choices)))]
    kernel = plan.kernels[index]
    arg0 = kernel.arg0.copy()
    arg0[offset] = (int(arg0[offset]) + 1) % plan.n_physical
    # Clear the strided-slice view so the mutation reaches the symbolic
    # replay instead of tripping the trivial rows-vs-slice consistency rule.
    kernels = list(plan.kernels)
    kernels[index] = replace(kernel, arg0=arg0, arg0_slice=None)
    return tape, _replan(plan, kernels=kernels)


def plan_const_perturb(tape, plan, rng) -> MutationResult:
    """One broadcast-constant column entry altered (wrong weight served)."""
    tape, plan = _copy_pair(tape, plan)
    columns = [
        column
        for kernel in plan.kernels
        for column in (kernel.const_arg0, kernel.const_arg1)
        if column is not None and column.size
    ]
    if not columns:
        return None
    column = columns[int(rng.integers(len(columns)))]
    lane = int(rng.integers(column.shape[0]))
    column[lane, 0] = column[lane, 0] * 1.5 if column[lane, 0] != 0.0 else 0.25
    return tape, _replan(plan)


def plan_encode_corrupt(tape, plan, rng) -> MutationResult:
    """An encoded indicator's matching value altered (wrong evidence test)."""
    tape, plan = _copy_pair(tape, plan)
    encodes = [
        k.encode for k in plan.kernels if k.encode is not None and k.encode.ind_rows.size
    ]
    if not encodes:
        return None
    encode = encodes[int(rng.integers(len(encodes)))]
    lane = int(rng.integers(encode.ind_values.size))
    encode.ind_values[lane] += 1
    return tape, _replan(plan)


def plan_root_redirect(tape, plan, rng) -> MutationResult:
    """The recorded root row points at a neighboring physical row."""
    tape, plan = _copy_pair(tape, plan)
    if plan.n_physical < 2:
        return None
    return tape, _replan(plan, root_phys=(plan.root_phys + 1) % plan.n_physical)


def plan_scalar_slots(tape, plan, rng) -> MutationResult:
    """The recorded logical slot count disagrees with the tape."""
    tape, plan = _copy_pair(tape, plan)
    return tape, _replan(plan, n_slots=plan.n_slots + 1)


def plan_swap_source_slots(tape, plan, rng) -> MutationResult:
    """Two source-slot entries transposed inside one planned kernel."""
    tape, plan = _copy_pair(tape, plan)
    wide = [k for k in plan.kernels if k.width >= 2]
    if not wide:
        return None
    kernel = wide[int(rng.integers(len(wide)))]
    slots = kernel.source_slots
    slots[0], slots[1] = int(slots[1]), int(slots[0])
    return tape, _replan(plan)


#: The seeded corpus: name -> mutator.  ``verify_compiled`` must reject
#: every applicable mutation of every suite profile.
MUTATORS: Dict[str, Mutator] = {
    "tape_forward_operand": tape_forward_operand,
    "tape_level_corrupt": tape_level_corrupt,
    "tape_dead_kernel": tape_dead_kernel,
    "tape_negative_weight": tape_negative_weight,
    "tape_root_redirect": tape_root_redirect,
    "plan_swap_kernels": plan_swap_kernels,
    "plan_dest_shift": plan_dest_shift,
    "plan_shrink_max_live": plan_shrink_max_live,
    "plan_drop_kernel": plan_drop_kernel,
    "plan_operand_redirect": plan_operand_redirect,
    "plan_const_perturb": plan_const_perturb,
    "plan_encode_corrupt": plan_encode_corrupt,
    "plan_root_redirect": plan_root_redirect,
    "plan_scalar_slots": plan_scalar_slots,
    "plan_swap_source_slots": plan_swap_source_slots,
}


def mutation_names() -> Tuple[str, ...]:
    """The corpus mutator names, in registry order."""
    return tuple(MUTATORS)


def mutate(
    name: str,
    tape: CompiledTape,
    plan: MemoryPlan,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
) -> MutationResult:
    """Apply one named mutator; ``None`` when inapplicable to this pair."""
    if name not in MUTATORS:
        known = ", ".join(sorted(MUTATORS))
        raise KeyError(f"unknown mutator {name!r}; expected one of {known}")
    if rng is None:
        rng = np.random.default_rng(seed)
    return MUTATORS[name](tape, plan, rng)
