"""Pieces every workload shares: outcome accounting, statistics, host probe, isolation."""

from __future__ import annotations

import contextlib
import gc
import math
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, List, Sequence, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

#: Relative tolerance of the python reference walk checks (the oracle suite's).
ORACLE_RTOL = 1e-9
#: Absolute tolerance for log-domain values (the suite's engine cross-check).
ORACLE_LOG_ATOL = 1e-12


@dataclass
class Outcomes:
    """Operations attempted and failed; a failed output check fails its operation."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


def values_equal(got, expected) -> bool:
    """Exact equality of two result arrays (``nan`` equal to ``nan``)."""
    got, expected = np.asarray(got), np.asarray(expected)
    return got.shape == expected.shape and bool(
        np.array_equal(got, expected, equal_nan=got.dtype.kind == "f")
    )


def values_close(got, expected, log_domain: bool) -> bool:
    """Agreement at the oracle tolerance (``atol`` only for log values)."""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    atol = ORACLE_LOG_ATOL if log_domain else 0.0
    return got.shape == expected.shape and bool(
        np.allclose(got, expected, rtol=ORACLE_RTOL, atol=atol, equal_nan=True)
    )


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated quantile (``numpy.quantile``'s default)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = q * (len(ordered) - 1)
    lo = math.floor(position)
    hi = min(lo + 1, len(ordered) - 1)
    if position == lo or ordered[hi] == ordered[lo]:
        return ordered[lo]  # also keeps an infinite order statistic infinite
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def timed_setup(build: Callable[[], T]) -> Tuple[T, float, float]:
    """Run one set-up from a clean collector state.

    Returns ``(result, seconds, seconds at the reference host speed)``,
    the latter scaled by the probes taken just before and after.  Garbage
    the workload left behind would otherwise be collected inside whichever
    set-up crosses the allocation threshold; that made the set-ups of one
    run differ by 2x.  Collecting again after the set-up keeps the full
    collection its new objects trigger out of the next timed operation,
    which it had slowed by up to 4x.
    """
    gc.collect()
    before = probe_s(3)
    t0 = time.perf_counter()
    result = build()
    seconds = time.perf_counter() - t0
    gc.collect()
    after = probe_s(3)
    return result, seconds, seconds * REFERENCE_PROBE_S / ((before + after) / 2)


# --------------------------------------------------------------------------- #
# Host speed
# --------------------------------------------------------------------------- #
#: The probe's time on the reference host: a 2-vCPU Xeon in its fast phase.
#: Every end-to-end time is reported at this speed (see :func:`scaled`).
REFERENCE_PROBE_S = 2.0e-3


def probe_s(reps: int = 1) -> float:
    """Median seconds of a fixed pure-Python loop: the host's current speed.

    The shared host's speed moves in phases lasting from seconds to minutes
    by up to 1.8x, and every workload's times move with it: over ten minutes of
    20 s windows the raw times of a tape query, an entropy query and a
    Fig. 4 profile spread 0.22-0.36 (quartile distance over median) and
    correlated 0.93-0.97 with this loop.  The loop is the benchmark's own
    code, so no change to the program moves it.
    """
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        table = {}
        acc = 0
        for i in range(20000):
            acc += i * i
            table[i & 255] = acc
        sorted(table.values())
        samples.append(time.perf_counter() - t0)
    return median(samples)


def scaled(seconds: Sequence[float], probes: Sequence[float], width: int = 5) -> List[float]:
    """``seconds[i]`` at the reference host speed.

    ``probes[i]`` is a :func:`probe_s` taken right after ``seconds[i]`` was
    measured; each time is scaled by the median of the ``width`` probes
    nearest to it, which follows the host's phases while ignoring one
    probe's jitter.  Scaling this way cut the spread of those 20 s windows
    to 0.02-0.09.
    """
    n = len(probes)
    out = []
    for i, s in enumerate(seconds):
        lo = max(0, min(i - width // 2, n - width))
        out.append(s * REFERENCE_PROBE_S / median(probes[lo:lo + width]))
    return out


def host_probe_ms() -> float:
    """The probe's median over 15 repetitions, in ms (recorded, not used to scale)."""
    return probe_s(15) * 1e3


def np_add_gbps() -> float:
    """Streaming ``np.add`` bandwidth (two reads + one write), best of 9, GB/s.

    Operands are 8 MiB, the tape executor's row-block working set
    (``repro.spn.compiled._BLOCK_BYTES``), so this is the ceiling the fused
    kernels stream against, not main-memory bandwidth.
    """
    n = 1 << 20
    a = np.ones(n)
    b = np.ones(n)
    out = np.empty(n)
    np.add(a, b, out=out)
    best = math.inf
    for _ in range(9):
        t0 = time.perf_counter()
        np.add(a, b, out=out)
        best = min(best, time.perf_counter() - t0)
    return 3 * 8 * n / best / 1e9


def peak_rss_mb() -> float:
    """The process's peak resident set (``ru_maxrss``, KiB on Linux) in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# State isolation
# --------------------------------------------------------------------------- #
#: Directory (under the checkout) holding each run's private working tree.
RUN_ROOT = ".perfbench-run"


@contextlib.contextmanager
def isolated_workdir(checkout: Path) -> Iterator[Path]:
    """A fresh temporary working directory inside ``checkout``, removed after.

    The run ``chdir``s into it, so every relative on-disk cache the
    program keeps (``.cache/sweeps``, ``.cache/artifacts``) and every
    artifact file the benchmark writes lands here and dies with the run.
    """
    parent = checkout / RUN_ROOT
    parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=parent))
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        yield workdir
    finally:
        os.chdir(previous)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()
