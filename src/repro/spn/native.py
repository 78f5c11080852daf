"""Native plan interpreter: one generic C loop runs every memory plan.

The NumPy executor (:func:`repro.spn.memplan.execute_plan`) pays a few
microseconds of dispatch per planned kernel whatever the row count, and a
large batch streams every row block through memory once per kernel.  This
module runs the same plan in C instead.  One model-independent function
(:data:`_SOURCE`) walks the plan's kernels in plan order over blocks of
:data:`BLOCK` evidence rows, so a block's live rows stay in cache from the
kernel that encodes them to the kernel that last reads them:

* before a kernel, it encodes the kernel's fresh indicator rows from the
  int64 evidence (1.0 when the value is negative, equals the indicator's
  value, or its column is missing; 0.0 otherwise) and fills its constant
  rows;
* it then computes ``dest[j] = a[j] + b[j]`` or ``a[j] * b[j]`` for every
  lane, an operand being a physical row or a broadcast constant;
* the final kernel writes the root straight into the caller's output when
  the plan is ``root_direct``; otherwise the root row is copied out once.

The loop is shaped so that a full block's lanes are nothing but
full-width vector arithmetic:

* one ``static inline`` block body is instantiated twice: for full blocks
  with the height fixed at compile time, so each lane is a fixed number of
  vector operations with no remainder loop, and for a short pass or the
  last partial block with the runtime height.  Each instance is an
  out-of-line function, so it allocates its registers apart from the row
  loop that calls it;
* each kernel picks its opcode and operand kinds (row/row, constant/row,
  row/constant, constant/constant) once, outside its lane loop;
* each call makes one ``malloc`` of ``n_physical * min(n_rows, BLOCK)``
  doubles plus 64 bytes and rounds the pointer up to 64 bytes.  ``BLOCK``
  doubles are whole cache lines, so no row of a full block straddles one.
  Over-allocating by 64 bytes keeps the buffer's size and the allocator's
  path as they were: a per-call ``aligned_alloc``, or a buffer always
  sized for a full block, each raised ``serve_open``'s peak RSS
  (docs/performance.md).

The C reads the concatenated arrays that ``MemoryPlan.__post_init__``
builds — the ones the static verifier proves — plus per-kernel counts and
offsets derived from them with NumPy once per plan (:func:`_plan_args`),
which also checks that every row lies inside the buffer, so a malformed
plan raises in Python and never reaches C.

Additions and multiplications run in plan order on IEEE doubles.  The
library is compiled for the CPU that runs it (:data:`HOST_FLAGS`,
``-O3 -march=native -ffp-contract=off``), so the lane loops use the
host's widest vectors; a compiler that rejects ``-march=native`` builds
it with :data:`PORTABLE_FLAGS` instead.  Either way every root is
bit-identical to the NumPy executor's and to the dense ``execute_slots``
reference: ``-march`` only widens the instruction set, and each vector
lane still does one IEEE add or multiply, rounded as a scalar one;
``-ffp-contract=off`` forbids fusing a multiply and an add into an FMA;
and without ``-ffast-math`` nothing is reassociated, approximated or
flushed to zero.  The library is built lazily on the first native pass,
once per process, with the system C compiler (``gcc`` or ``cc``) in a
private temporary directory that is removed once loaded, so it never
runs on another machine; :func:`build_flags` names the flag set it was
built with.  ``ctypes`` releases the GIL for the call.  Each call
allocates its own block buffer, so threads may run one plan
concurrently.  Without a working compiler :func:`available` is ``False``
and every pass stays on NumPy.
"""

from __future__ import annotations

import ctypes
import logging
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["BLOCK", "HOST_FLAGS", "PORTABLE_FLAGS", "available", "build_flags", "execute"]

logger = logging.getLogger("repro.spn")

#: Rows per block, the one place the height is written (:data:`_SOURCE` is
#: formatted from it).  Chosen from kernel time summed over the suite at 1,
#: 48, 1,024 and 4,096 rows; 16 rows ran under half as fast
#: (docs/performance.md).
BLOCK = 24

#: The interpreter.  Rows of a block sit ``stride`` doubles apart in the
#: buffer (``stride`` = the block height, at most ``BLOCK``); each kernel
#: is one ``FIELDS``-wide record of the table :func:`_plan_args` builds.
_SOURCE = f"#define BLOCK {BLOCK}\n" + r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ALIGN 64

enum { MUL, DEST, WIDTH, CONST0, OFF0, CONST1, OFF1, IND, N_IND, CST, N_CST, FIELDS };

typedef struct {
    int64_t n_kernels, n_physical, root_phys, root_direct;
    const int64_t *kernels;
    const int64_t *rows0, *rows1;
    const double *consts0, *consts1;
    const int64_t *ind_rows, *ind_vars, *ind_values, *const_rows;
    const double *const_probs;
} plan_t;

/* Lane j reads operand a (b) as a row, a[r], or as a broadcast constant. */
#define ROW_A const double *a = buf + p->rows0[m[OFF0] + j] * stride
#define ROW_B const double *b = buf + p->rows1[m[OFF1] + j] * stride
#define CST_A const double a = p->consts0[m[OFF0] + j]
#define CST_B const double b = p->consts1[m[OFF1] + j]
#define LANES(GET_A, GET_B, X, OP, Y)                                    \
    for (int64_t j = 0; j < m[WIDTH]; j++) {                             \
        double *d = dest + j * stride;                                   \
        GET_A;                                                           \
        GET_B;                                                           \
        for (int64_t r = 0; r < nb; r++) d[r] = X OP Y;                  \
    }                                                                    \
    break

/* Every kernel, in plan order, over one block of nb <= stride rows. */
static inline __attribute__((always_inline)) void
run_block(const plan_t *p, double *buf, const int64_t *ev, int64_t n_cols,
          int64_t nb, int64_t stride, double *out)
{
    for (int64_t k = 0; k < p->n_kernels; k++) {
        const int64_t *m = p->kernels + k * FIELDS;
        for (int64_t i = m[IND]; i < m[IND] + m[N_IND]; i++) {
            double *row = buf + p->ind_rows[i] * stride;
            const int64_t var = p->ind_vars[i], value = p->ind_values[i];
            for (int64_t r = 0; r < nb; r++) {
                const int64_t e = var < n_cols ? ev[r * n_cols + var] : -1;
                row[r] = (e < 0 || e == value) ? 1.0 : 0.0;
            }
        }
        for (int64_t i = m[CST]; i < m[CST] + m[N_CST]; i++) {
            double *row = buf + p->const_rows[i] * stride;
            for (int64_t r = 0; r < nb; r++) row[r] = p->const_probs[i];
        }
        double *dest = p->root_direct && k == p->n_kernels - 1
            ? out : buf + m[DEST] * stride;
        /* One branch per kernel: its opcode and operand kinds. */
        switch (4 * (m[MUL] != 0) + 2 * (m[CONST0] != 0) + (m[CONST1] != 0)) {
        case 0: LANES(ROW_A, ROW_B, a[r], +, b[r]);
        case 1: LANES(ROW_A, CST_B, a[r], +, b);
        case 2: LANES(CST_A, ROW_B, a, +, b[r]);
        case 3: LANES(CST_A, CST_B, a, +, b);
        case 4: LANES(ROW_A, ROW_B, a[r], *, b[r]);
        case 5: LANES(ROW_A, CST_B, a[r], *, b);
        case 6: LANES(CST_A, ROW_B, a, *, b[r]);
        default: LANES(CST_A, CST_B, a, *, b);
        }
    }
    if (!p->root_direct)
        memcpy(out, buf + p->root_phys * stride, sizeof(double) * (size_t)nb);
}

/* A full block: BLOCK is a compile-time trip count, so no lane has a
   remainder loop.  Both instances stay out of line, each with its own
   registers: inlined into run_plan, they made a one-row pass slower than
   the single runtime-height loop they replace. */
static __attribute__((noinline)) void
full_block(const plan_t *p, double *buf, const int64_t *ev, int64_t n_cols, double *out)
{
    run_block(p, buf, ev, n_cols, BLOCK, BLOCK, out);
}

/* A short pass, or the last partial block of a long one. */
static __attribute__((noinline)) void
part_block(const plan_t *p, double *buf, const int64_t *ev, int64_t n_cols,
           int64_t nb, int64_t stride, double *out)
{
    run_block(p, buf, ev, n_cols, nb, stride, out);
}

int run_plan(const plan_t *p, const int64_t *data, int64_t n_rows,
             int64_t n_cols, double *out)
{
    const int64_t stride = n_rows < BLOCK ? n_rows : BLOCK;
    /* Over-allocated by ALIGN bytes and rounded up, so rows start on a
       cache line (every row does when stride is BLOCK). */
    char *raw = malloc(sizeof(double) * (size_t)(p->n_physical * stride) + ALIGN);
    if (raw == NULL) return -1;
    double *buf = (double *)(((uintptr_t)raw + ALIGN - 1) & ~(uintptr_t)(ALIGN - 1));
    int64_t r0 = 0;
    for (; r0 + BLOCK <= n_rows; r0 += BLOCK)
        full_block(p, buf, data + r0 * n_cols, n_cols, out + r0);
    if (r0 < n_rows)
        part_block(p, buf, data + r0 * n_cols, n_cols, n_rows - r0, stride, out + r0);
    free(raw);
    return 0;
}
"""

_P64 = ctypes.POINTER(ctypes.c_int64)
_PF64 = ctypes.POINTER(ctypes.c_double)


class _Plan(ctypes.Structure):
    _fields_ = [
        ("n_kernels", ctypes.c_int64),
        ("n_physical", ctypes.c_int64),
        ("root_phys", ctypes.c_int64),
        ("root_direct", ctypes.c_int64),
        ("kernels", _P64),
        ("rows0", _P64),
        ("rows1", _P64),
        ("consts0", _PF64),
        ("consts1", _PF64),
        ("ind_rows", _P64),
        ("ind_vars", _P64),
        ("ind_values", _P64),
        ("const_rows", _P64),
        ("const_probs", _PF64),
    ]


#: Compiler flags, tried in this order: the host's full instruction set,
#: then baseline code for compilers that reject ``-march=native``.
HOST_FLAGS = ("-O3", "-march=native", "-ffp-contract=off")
PORTABLE_FLAGS = ("-O3", "-ffp-contract=off")

_UNBUILT = object()
#: The loaded ``run_plan``, ``None`` when no build works, or ``_UNBUILT``.
_function = _UNBUILT
#: The flags ``_function`` was built with; ``()`` when it is not loaded.
_flags: Tuple[str, ...] = ()
_BUILD_LOCK = threading.Lock()


def _find_compiler() -> Optional[str]:
    """The system C compiler's path, or ``None``."""
    for name in ("gcc", "cc"):
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def _build(
    flag_sets: Sequence[Tuple[str, ...]] = (),
) -> Tuple[Optional[object], Tuple[str, ...], str]:
    """Compile and load the interpreter with the first flag set that compiles.

    ``flag_sets`` defaults to :data:`HOST_FLAGS`, then :data:`PORTABLE_FLAGS`;
    the next set is tried only when the compiler exits non-zero.  Returns
    ``(run_plan, flags, note)``, ``note`` saying why an earlier set was
    passed over, or ``(None, (), why)``.
    """
    compiler = _find_compiler()
    if compiler is None:
        return None, (), "no C compiler (gcc or cc) on PATH"
    rejected = []
    try:
        with tempfile.TemporaryDirectory(
            prefix="repro-native-", ignore_cleanup_errors=True
        ) as tmp:
            source = Path(tmp) / "plan.c"
            library = Path(tmp) / "plan.so"
            source.write_text(_SOURCE)
            for flags in flag_sets or (HOST_FLAGS, PORTABLE_FLAGS):
                command = [compiler, *flags, "-shared", "-fPIC", "-o", str(library), str(source)]
                built = subprocess.run(
                    command, capture_output=True, text=True, errors="replace", timeout=120
                )
                if built.returncode == 0:
                    break
                rejected.append(
                    f"{compiler} {' '.join(flags)} failed: {built.stderr.strip()[-500:]}"
                )
            else:
                return None, (), "; ".join(rejected)
            run_plan = ctypes.CDLL(str(library)).run_plan
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        return None, (), f"building or loading with {compiler} failed: {exc}"
    run_plan.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
    ]
    run_plan.restype = ctypes.c_int
    return run_plan, flags, "; ".join(rejected)


def available() -> bool:
    """Whether passes run natively; builds the interpreter on the first call."""
    global _function, _flags
    if _function is _UNBUILT:
        function = _UNBUILT
        with _BUILD_LOCK:
            if _function is _UNBUILT:
                function, flags, note = _build()
                _flags, _function = flags, function
        if function is None:
            logger.warning(
                "native plan interpreter unavailable, tape passes run on NumPy: %s", note
            )
        elif function is not _UNBUILT:  # this call built it
            if note:
                logger.warning(
                    "native plan interpreter built with %s (%s)", " ".join(flags), note
                )
            else:
                logger.info("native plan interpreter built with %s", " ".join(flags))
    return _function is not None


def build_flags() -> Tuple[str, ...]:
    """The compiler flags the loaded interpreter was built with.

    :data:`HOST_FLAGS` or :data:`PORTABLE_FLAGS`; ``()`` when passes run on
    NumPy.  Builds the interpreter on the first call, like :func:`available`.
    """
    available()
    return _flags


def _plan_args(plan) -> tuple:
    """The C view of ``plan``: ``(struct address, arrays kept alive)``, cached.

    Derived once per plan from the arrays ``MemoryPlan.__post_init__``
    concatenates, with no per-kernel Python loop.  Raises ``ValueError``
    when a count, offset or row of the plan does not fit its buffer.
    """
    cached = getattr(plan, "_native_args", None)
    if cached is not None:
        return cached
    meta = plan._kernel_meta
    n_kernels = meta.size
    n_physical = int(plan.n_physical)
    start = meta["start"]
    widths = meta["stop"] - start

    def fail(what: str):
        raise ValueError(f"malformed memory plan: {what}")

    def int64(values) -> np.ndarray:
        return np.ascontiguousarray(values, dtype=np.int64)

    def rows_in_range(rows: np.ndarray, what: str) -> np.ndarray:
        rows = int64(rows)
        if rows.size and (int(rows.min()) < 0 or int(rows.max()) >= n_physical):
            fail(f"{what} outside the {n_physical}-row buffer")
        return rows

    def exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
        return np.cumsum(counts) - counts

    if n_kernels == 0:
        fail("no kernels")
    if not 0 <= plan.root_phys < n_physical:
        fail(f"root row {plan.root_phys} outside the {n_physical}-row buffer")
    if bool((meta["mul"] == meta["add"]).any()):
        fail("a kernel is neither one add nor one mul")
    if bool((start < 0).any() or (widths < 1).any() or (meta["stop"] > n_physical).any()):
        fail(f"a destination interval outside the {n_physical}-row buffer")
    if plan.root_direct and widths[-1] != 1:
        fail("root_direct with a final kernel wider than one lane")

    sides = []
    for side in (0, 1):
        is_const = meta[f"c{side}"]
        counts, rows, _ = plan._operand_meta[side]
        const_counts, consts = plan._const_meta[side]
        open_widths = widths[~is_const]
        const_widths = widths[is_const]
        if not (
            np.array_equal(counts, open_widths)
            and rows.size == int(open_widths.sum())
            and np.array_equal(const_counts, const_widths)
            and consts.size == int(const_widths.sum())
        ):
            fail(f"operand {side} counts do not match the kernel widths")
        open_offsets = exclusive_cumsum(np.where(is_const, 0, widths))
        const_offsets = exclusive_cumsum(np.where(is_const, widths, 0))
        sides.append((  # (flag, offset, rows, constants)
            is_const,
            np.where(is_const, const_offsets, open_offsets),
            rows_in_range(rows, f"operand {side} rows"),
            np.ascontiguousarray(consts, dtype=np.float64),
        ))

    ind_g, ind_rows, ind_vars, ind_values, const_g, const_rows, const_probs, _ = plan._encode_meta
    encodes = []
    for groups, rows in ((ind_g, ind_rows), (const_g, const_rows)):
        ordered = not groups.size or (
            int(groups[0]) >= 0
            and int(groups[-1]) < n_kernels
            and bool((np.diff(groups) >= 0).all())
        )
        if groups.size != rows.size or not ordered:
            fail("encode records out of kernel order")
        counts = np.bincount(groups, minlength=n_kernels)
        encodes.append((exclusive_cumsum(counts), counts))  # (offset, count)
    if ind_vars.size != ind_rows.size or ind_values.size != ind_rows.size:
        fail("indicator encode columns differ in length")
    if const_probs.size != const_rows.size:
        fail("constant encode columns differ in length")
    if ind_vars.size and int(ind_vars.min()) < 0:
        fail("a negative indicator variable")

    # The C reads lanes [offset, offset + width) of each operand array and
    # records [offset, offset + count) of each encode array.
    for is_const, offsets, rows, consts in sides:
        limits = np.where(is_const, consts.size, rows.size)
        if bool((offsets < 0).any() or (offsets + widths > limits).any()):
            fail("an operand offset runs past its array")
    for (offsets, counts), size in zip(encodes, (ind_rows.size, const_rows.size)):
        if bool((offsets < 0).any() or (offsets + counts > size).any()):
            fail("an encode offset runs past its array")

    # One row per kernel, columns in the order of the C enum.
    kernels = np.stack(
        [meta["mul"], start, widths, *sides[0][:2], *sides[1][:2], *encodes[0], *encodes[1]],
        axis=1,
    )
    arrays = {
        "kernels": int64(kernels),
        "rows0": sides[0][2],
        "rows1": sides[1][2],
        "consts0": sides[0][3],
        "consts1": sides[1][3],
        "ind_rows": rows_in_range(ind_rows, "indicator rows"),
        "ind_vars": int64(ind_vars),
        "ind_values": int64(ind_values),
        "const_rows": rows_in_range(const_rows, "constant rows"),
        "const_probs": np.ascontiguousarray(const_probs, dtype=np.float64),
    }
    struct = _Plan(
        n_kernels=n_kernels,
        n_physical=n_physical,
        root_phys=int(plan.root_phys),
        root_direct=int(bool(plan.root_direct)),
        **{
            name: array.ctypes.data_as(_PF64 if array.dtype == np.float64 else _P64)
            for name, array in arrays.items()
        },
    )
    plan._native_args = cached = (ctypes.addressof(struct), (struct, arrays))
    return cached


def execute(plan, data: np.ndarray) -> np.ndarray:
    """Root values of a linear pass of ``plan`` over an evidence batch.

    ``data`` is a validated ``(n_rows, n_cols)`` evidence array
    (:func:`repro.spn.evaluate.as_evidence_array`).  The answer is
    bit-identical to :func:`repro.spn.memplan.execute_plan` in the linear
    domain.  Raises ``RuntimeError`` when the interpreter is not
    :func:`available`.
    """
    if not available():
        raise RuntimeError("the native plan interpreter is not available")
    address, _ = _plan_args(plan)
    data = np.ascontiguousarray(data, dtype=np.int64)
    n_rows, n_cols = data.shape
    out = np.empty(n_rows, dtype=np.float64)
    if n_rows and _function(address, data.ctypes.data, n_rows, n_cols, out.ctypes.data):
        raise MemoryError(
            f"native plan interpreter could not allocate {plan.n_physical} x "
            f"{min(n_rows, BLOCK)} block rows"
        )
    return out
