"""Abstract interpretation of compiled tapes: interval and sign domains.

Runs the tape once over *abstract* values instead of evidence — one interval
per slot — and derives facts that hold for **every** evidence batch:

* **Linear interval domain** — each slot carries ``[lo, hi]`` bounds.
  Indicators are ``[0, 1]`` (hit/miss/marginalized), constants are points,
  sums add and products multiply endpoint-wise (sound because
  :func:`~repro.statics.verifier.verify_tape` guarantees non-negative
  inputs, so both operations are monotone).  When the root's upper bound is
  ``<= 1`` the tape is proved **normalized-by-construction**: its log-domain
  output can never exceed ``0`` on any evidence, the invariant the analysis
  query layer's normalizers rely on.
* **Sign / zero tracking** — whether a slot can be *exactly* zero (an
  indicator miss propagating through products).  A zero-capable root means
  ``-inf`` is reachable in the log domain; that is well-defined (``log 0``)
  and ``logaddexp`` absorbs it exactly, so it is reported as a fact, not an
  error.  ``NaN`` in the log domain would require ``inf - inf``, which needs
  a linear overflow first — tracked via the interval upper bounds.
* **Positive-magnitude log bounds** — for each slot, a lower bound on
  ``log(v)`` over every *strictly positive* value ``v`` the slot can take.
  Products add these bounds, so deep product chains drive the bound down
  linearly with depth; when the root's bound falls below the smallest
  positive normal double (``log ≈ -708``), a linear-domain pass may
  underflow a genuinely non-zero probability to ``0.0`` — the bug class a
  conditional query hit in this repository's history (joint/evidence
  division by an underflowed denominator), now flagged at compile time and
  answered by routing through the log domain.
* **Linear floor** — the smallest linear root value whose ``log`` is as
  accurate as a log-domain pass (:func:`linear_floor`).  Tape values are
  non-negative, so sums and normal-range products lose only relative
  precision (``<= 2**-53`` per operation).  A product landing in the
  subnormal range loses up to ``2**-1075`` *absolute*; that error reaches
  the root scaled by at most the slot's reverse-mode derivative taken at
  the interval upper bounds.  The sum ``K`` of those derivatives over all
  product lanes bounds the root's subnormal error by ``K * 2**-1075``, so
  every root ``>= 2 * K * 2**-1022`` carries less than ``2**-54`` relative
  error from underflow.  :meth:`~repro.spn.compiled.CompiledTape.execute_batch`
  answers log passes with the linear kernels for rows at or above it.

The pass is vectorized per tape kernel (a few hundred NumPy calls per tape)
and costs far less than compilation; it runs on every ``python -m
repro.statics verify`` and its facts are recorded in the benchmark sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TapeAnalysis",
    "analyze_tape",
    "linear_floor",
    "product_error_gain",
    "LOG_TINY",
]

#: The smallest positive *normal* float64, ``2**-1022``.
TINY = float(np.finfo(np.float64).tiny)

#: ``log`` of :data:`TINY` — positive values whose static log lower bound
#: falls below this may underflow to ``0.0`` in a linear-domain pass.
LOG_TINY = float(np.log(TINY))

#: Slack for the normalization proof: a weighted sum whose float weights sum
#: to 1.0 can accumulate a few ULPs above 1 across a deep reduction.
NORMALIZATION_TOLERANCE = 1e-6


@dataclass(frozen=True)
class TapeAnalysis:
    """Facts the abstract interpreter established about one tape.

    All bounds are sound over-approximations: every concrete evidence batch
    stays inside them, but not every point inside them is reachable.
    """

    #: Linear-domain interval of the root value.
    root_lower: float
    root_upper: float
    #: ``log(root_upper)`` — an upper bound on every log-domain output.
    root_log_upper: float
    #: The tape is proved normalized: log-domain output ``<= 0`` always.
    proves_log_nonpositive: bool
    #: The root can be exactly zero (log-domain ``-inf`` is reachable).
    zero_possible: bool
    #: Lower bound on ``log(v)`` over strictly positive root values ``v``
    #: (``+inf`` when the root can never be positive).
    min_positive_log: float
    #: ``min_positive_log < LOG_TINY``: a linear-domain pass may underflow a
    #: non-zero probability to 0.0 (use the log domain for this tape).
    underflow_risk: bool
    #: A linear intermediate can overflow to ``inf`` (makes log-domain
    #: ``NaN`` via ``inf - inf`` conceivable); never true for normalized
    #: tapes.
    overflow_possible: bool
    #: Depth of the deepest dependency chain (ASAP level of the last kernel).
    depth: int
    #: Linear roots at or above this are answered in the log domain as
    #: ``log(root)`` (see :func:`linear_floor`); ``inf`` sends every row
    #: to the exact log kernels.
    linear_floor: float


def _intervals(tape):
    """Forward pass: per-slot ``(lo, hi, log_min_pos, can_zero)`` arrays."""
    n_slots = tape.n_slots
    lo = np.zeros(n_slots, dtype=np.float64)
    hi = np.zeros(n_slots, dtype=np.float64)
    # Lower bound on log(v) for strictly positive v; +inf = never positive.
    log_min_pos = np.zeros(n_slots, dtype=np.float64)
    can_zero = np.zeros(n_slots, dtype=bool)

    for spec in tape.inputs:
        if spec.kind == "indicator":
            lo[spec.index] = 0.0
            hi[spec.index] = 1.0
            log_min_pos[spec.index] = 0.0  # the only positive value is 1
            can_zero[spec.index] = True  # an indicator miss
        else:
            prob = float(spec.prob)
            lo[spec.index] = prob
            hi[spec.index] = prob
            if prob > 0.0:
                log_min_pos[spec.index] = np.log(prob)
                can_zero[spec.index] = False
            else:
                log_min_pos[spec.index] = np.inf
                can_zero[spec.index] = True

    with np.errstate(invalid="ignore", over="ignore"):
        for kernel in tape.kernels:
            dest = slice(kernel.dest_start, kernel.dest_stop)
            a0, a1 = kernel.arg0, kernel.arg1
            if kernel.is_add:
                lo[dest] = lo[a0] + lo[a1]
                hi[dest] = hi[a0] + hi[a1]
                # A positive sum has at least one positive operand, and a sum
                # of non-negatives is >= each of them.
                log_min_pos[dest] = np.minimum(log_min_pos[a0], log_min_pos[a1])
                can_zero[dest] = can_zero[a0] & can_zero[a1]
            else:
                lo[dest] = lo[a0] * lo[a1]
                hi[dest] = hi[a0] * hi[a1]
                # A positive product has both factors positive.
                log_min_pos[dest] = log_min_pos[a0] + log_min_pos[a1]
                can_zero[dest] = can_zero[a0] | can_zero[a1]
    return lo, hi, log_min_pos, can_zero


def product_error_gain(tape, hi=None) -> float:
    """``K``: how much the root can amplify absolute errors at product lanes.

    The sum over product lanes ``p`` of ``S[p]``, the reverse-mode
    derivative of the root with respect to ``p`` with every operand
    replaced by its interval upper bound ``hi`` (a product ``a * b`` passes
    ``S * hi[b]`` to ``a``; a sum passes ``S`` to both operands).  Every
    derivative of the root is a polynomial with non-negative coefficients,
    so ``S`` bounds it anywhere in the interval box.  ``inf`` when a
    constant is negative or non-finite, or when any ``hi`` is not finite —
    the bound then says nothing.  ``hi`` defaults to this module's forward
    interval pass.
    """
    if hi is None:
        hi = _intervals(tape)[1]
    if not (np.all(np.isfinite(hi)) and np.all(hi >= 0.0)):
        return np.inf
    gain = np.zeros(tape.n_slots, dtype=np.float64)
    gain[tape.root_slot] = 1.0
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        # Every consumer of a kernel's lanes is a later kernel, so a
        # lane's gain is complete when the reverse sweep reaches it.
        for kernel in reversed(tape.kernels):
            lane = gain[kernel.dest_start : kernel.dest_stop]
            a0, a1 = kernel.arg0, kernel.arg1
            if kernel.is_add:
                np.add.at(gain, a0, lane)
                np.add.at(gain, a1, lane)
            else:
                total += float(lane.sum())
                np.add.at(gain, a0, lane * hi[a1])
                np.add.at(gain, a1, lane * hi[a0])
    return total if np.isfinite(total) else np.inf


def linear_floor(tape, hi=None) -> float:
    """Smallest linear root whose ``log`` is as exact as a log-domain pass.

    ``2 * K * 2**-1022`` with ``K`` = :func:`product_error_gain`: a root at
    or above it carries at most ``K * 2**-1075`` absolute error from
    subnormal products, i.e. below ``2**-54`` of its value — the same order
    as the relative rounding of the log pass itself.
    """
    return 2.0 * product_error_gain(tape, hi) * TINY


def analyze_tape(tape, tolerance: float = NORMALIZATION_TOLERANCE) -> TapeAnalysis:
    """Abstractly interpret ``tape`` and return the established facts.

    Assumes the tape passed :func:`~repro.statics.verifier.verify_tape`
    (in particular: non-negative finite input parameters, def-before-use).
    """
    lo, hi, log_min_pos, can_zero = _intervals(tape)
    n_slots = tape.n_slots
    n_inputs = tape.n_inputs
    root = tape.root_slot
    root_upper = float(hi[root])
    with np.errstate(divide="ignore"):
        root_log_upper = float(np.log(root_upper)) if root_upper >= 0 else np.nan
    min_positive_log = float(log_min_pos[root])
    op_hi = hi[n_inputs:] if n_slots > n_inputs else hi
    return TapeAnalysis(
        root_lower=float(lo[root]),
        root_upper=root_upper,
        root_log_upper=root_log_upper,
        proves_log_nonpositive=bool(np.isfinite(root_upper) and root_upper <= 1.0 + tolerance),
        zero_possible=bool(can_zero[root]),
        min_positive_log=min_positive_log,
        underflow_risk=bool(min_positive_log < LOG_TINY),
        overflow_possible=bool(not np.all(np.isfinite(op_hi))),
        depth=tape.kernels[-1].level if tape.kernels else 0,
        linear_floor=linear_floor(tape, hi),
    )
