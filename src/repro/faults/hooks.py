"""The fault-plane switchboard: one global read when chaos is off.

Instrumented sites follow the same zero-overhead-when-off discipline as
the per-kernel profiler (:mod:`repro.observability.profile`): they resolve
:func:`active_plan` **once per batch/call** — a single module-attribute
read — and skip every fault check with one ``if plan is not None`` test
when it returns ``None``.  Fault checks, visit counting and seeded draws
happen only while a plan is installed;
``benchmarks/test_bench_resilience.py`` gates the hooks-disabled serving
overhead at <= 1.02.

Installation is process-wide and deliberately *not* per-thread (a
contextvar would not reach serving worker threads, which are spawned
before any test installs a plan): the chaos soak and the fault tests own
the process while they run, and :func:`fault_scope` guarantees the plan is
uninstalled on exit even when the driven workload raises.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .plan import FaultPlan

__all__ = ["active_plan", "install", "uninstall", "fault_scope"]

#: The installed plan (module global: the off-path cost is one attribute
#: read; flipped only through :func:`install` / :func:`uninstall`).
_PLAN: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The installed :class:`FaultPlan`, or ``None`` (injection off)."""
    return _PLAN


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-wide (``None`` disables injection)."""
    global _PLAN
    _PLAN = plan


def uninstall() -> None:
    """Remove any installed plan (idempotent)."""
    install(None)


@contextmanager
def fault_scope(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of the block, then uninstall.

    Not reentrant: nesting scopes would let an inner plan silently shadow
    an outer one mid-soak, so a second installation raises.
    """
    if _PLAN is not None:
        raise RuntimeError("a fault plan is already installed")
    install(plan)
    try:
        yield plan
    finally:
        uninstall()
