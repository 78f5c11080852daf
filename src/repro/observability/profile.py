"""Opt-in per-fused-kernel profiling of compiled-tape execution.

The paper's claims are about where cycles and bytes go during SPN
inference; this module measures exactly that for the software executors.
A :class:`TapeProfiler` used as a context manager activates itself for the
current thread/task::

    with TapeProfiler() as prof:
        session.run(LogLikelihood(evidence=batch))
    print(prof.render())

While active, every tape execution via
:meth:`repro.spn.compiled.CompiledTape.execute_batch` records one sample
per fused kernel of the tape's memory plan: **elapsed** wall time
(monotonic clock), **rows** processed and **bytes** moved (operand reads
+ destination writes at 8 bytes/value, straight off the memory plan's
physical layout — the quantity the paper argues is the bottleneck).  Input-encoding work is
attributed to a per-kernel ``encode`` pseudo-entry, so the aggregate
accounts for essentially all of a pass's wall time (the benchmark gate
requires >= 90%).

Executors resolve :func:`active_profiler` **once per batch**.  When it
returns ``None``, linear passes run in the native interpreter and NumPy's
kernel loop reads no clock, so per-kernel timing never taxes an
unprofiled run.  :meth:`TapeProfiler.record` is
thread-safe, so samples from concurrent serving workers merge into the
same aggregate.

Aggregation is by **kernel key** (tape position, opcode, width):
:meth:`TapeProfiler.table` returns the "top kernels" rows sorted by total
elapsed, with share-of-total columns, and :meth:`TapeProfiler.render`
formats the ASCII table the CLI and the docs show.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["KernelStat", "TapeProfiler", "active_profiler"]

_ACTIVE: ContextVar[Optional["TapeProfiler"]] = ContextVar(
    "repro_tape_profiler", default=None
)


def active_profiler() -> Optional["TapeProfiler"]:
    """The profiler active for this thread/task, or ``None`` (the fast path).

    Executors call this once per batch; on a ``None`` answer no kernel is
    timed, so disabled-profiling overhead is a single context-variable read
    per batch.
    """
    return _ACTIVE.get()


@dataclass
class KernelStat:
    """Aggregated samples of one fused kernel across profiled batches."""

    key: str
    op: str
    width: int
    calls: int = 0
    elapsed_s: float = 0.0
    rows: int = 0
    bytes: int = 0

    def merge_sample(self, elapsed_s: float, rows: int, nbytes: int) -> None:
        self.calls += 1
        self.elapsed_s += elapsed_s
        self.rows += rows
        self.bytes += nbytes


@dataclass
class TapeProfiler:
    """Collects per-kernel samples while active (see module docstring)."""

    #: Wall time of whole profiled tape passes (set by the executors around
    #: the kernel loop) — the denominator of :meth:`coverage`.
    pass_elapsed_s: float = 0.0
    n_passes: int = 0
    _stats: Dict[str, KernelStat] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # ------------------------------------------------------------------ #
    # Activation
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "TapeProfiler":
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *exc_info) -> bool:
        _ACTIVE.reset(self._token)
        return False

    # ------------------------------------------------------------------ #
    # Recording (called by the executors)
    # ------------------------------------------------------------------ #
    def record(
        self, key: str, op: str, width: int, elapsed_s: float, rows: int, nbytes: int
    ) -> None:
        """Merge one kernel execution sample (thread-safe)."""
        with self._lock:
            stat = self._stats.get(key)
            if stat is None:
                stat = KernelStat(key=key, op=op, width=width)
                self._stats[key] = stat
            stat.merge_sample(elapsed_s, rows, nbytes)

    def record_pass(self, elapsed_s: float) -> None:
        """Account one whole tape pass's wall time (coverage denominator)."""
        with self._lock:
            self.pass_elapsed_s += elapsed_s
            self.n_passes += 1

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    @property
    def total_elapsed_s(self) -> float:
        with self._lock:
            return sum(s.elapsed_s for s in self._stats.values())

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(s.bytes for s in self._stats.values())

    def coverage(self) -> float:
        """Fraction of profiled pass wall time attributed to kernels.

        ``sum(kernel elapsed) / sum(pass elapsed)`` — 1.0 means every
        profiled microsecond is attributed to a specific kernel; the
        benchmark gate requires >= 0.9.  ``0.0`` before any pass ran.
        """
        with self._lock:
            kernel_time = sum(s.elapsed_s for s in self._stats.values())
            pass_time = self.pass_elapsed_s
        return kernel_time / pass_time if pass_time > 0 else 0.0

    def table(self, top: Optional[int] = None) -> List[Dict[str, object]]:
        """Top-kernels rows sorted by total elapsed, share columns included."""
        with self._lock:
            stats = sorted(
                self._stats.values(), key=lambda s: s.elapsed_s, reverse=True
            )
            total_time = sum(s.elapsed_s for s in stats) or 1.0
        if top is not None:
            stats = stats[:top]
        return [
            {
                "kernel": s.key,
                "op": s.op,
                "width": s.width,
                "calls": s.calls,
                "elapsed_s": s.elapsed_s,
                "share": s.elapsed_s / total_time,
                "rows": s.rows,
                "bytes": s.bytes,
                "gb_per_s": (s.bytes / s.elapsed_s / 1e9) if s.elapsed_s > 0 else 0.0,
            }
            for s in stats
        ]

    def render(self, top: int = 20) -> str:
        """The top-kernels ASCII table (what the CLI prints)."""
        rows = self.table(top=top)
        header = (
            f"{'kernel':<18} {'op':<4} {'width':>5} {'calls':>7} "
            f"{'elapsed_ms':>10} {'share':>6} {'rows':>10} {'MB':>9} {'GB/s':>6}"
        )
        lines = [header, "-" * len(header)]
        for row in rows:
            lines.append(
                f"{row['kernel']:<18} {row['op']:<4} {row['width']:>5} "
                f"{row['calls']:>7} {row['elapsed_s'] * 1e3:>10.3f} "
                f"{row['share']:>6.1%} {row['rows']:>10} "
                f"{row['bytes'] / 1e6:>9.2f} {row['gb_per_s']:>6.1f}"
            )
        lines.append(
            f"total: {self.total_elapsed_s * 1e3:.3f} ms kernel time over "
            f"{self.n_passes} passes ({self.coverage():.1%} of pass wall time)"
        )
        return "\n".join(lines)
