"""Experiment-level entry points into sessions and the platform registry.

Every experiment (Fig. 2c, Fig. 4, the headline claims and the ablation
sweeps) measures throughput through the unified front door: a suite
benchmark's :class:`~repro.api.session.InferenceSession`
(:func:`repro.suite.registry.benchmark_session`), whose
:meth:`~repro.api.session.InferenceSession.throughput` resolves platform
engines by registry name — there is no platform ``if``/``elif`` dispatch
anywhere in the experiments: adding a platform to the registry makes it
available to every driver by name, and the same session object answers the
functional (typed-query) side of the workload.

:func:`run_platform` remains the ops-level veneer for callers holding a
bare operation list rather than a model.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..analysis.metrics import PlatformResult
from ..compiler.scheduler import ScheduleOptions
from ..platforms import (
    DEFAULT_PLATFORMS,
    PLATFORM_CPU,
    PLATFORM_GPU,
    PLATFORM_PTREE,
    PLATFORM_PVECT,
    get_engine,
)
from ..spn.linearize import OperationList
from ..suite.registry import benchmark_names

__all__ = [
    "PLATFORM_CPU",
    "PLATFORM_GPU",
    "PLATFORM_PVECT",
    "PLATFORM_PTREE",
    "DEFAULT_PLATFORMS",
    "run_platform",
    "run_benchmark",
    "run_suite",
]


def run_platform(
    platform: str,
    ops: OperationList,
    benchmark: str = "",
    options: Optional[ScheduleOptions] = None,
) -> PlatformResult:
    """Run ``ops`` on any registered platform engine, looked up by name."""
    return get_engine(platform).run(ops, benchmark=benchmark, options=options)


def run_benchmark(
    name: str,
    platforms: Iterable[str] = DEFAULT_PLATFORMS,
    options: Optional[ScheduleOptions] = None,
) -> Dict[str, PlatformResult]:
    """Evaluate one suite benchmark on the requested platforms.

    Dispatches through the benchmark's shared
    :class:`~repro.api.session.InferenceSession` — the same object that
    answers the benchmark's typed queries — so experiments and functional
    callers share one model binding (and its cached operation list).
    """
    from ..suite.registry import benchmark_session

    session = benchmark_session(name)
    return {p: session.throughput(p, options=options) for p in platforms}


def run_suite(
    names: Optional[Iterable[str]] = None,
    platforms: Iterable[str] = DEFAULT_PLATFORMS,
    options: Optional[ScheduleOptions] = None,
) -> Dict[str, Dict[str, PlatformResult]]:
    """Evaluate several (by default all nine) suite benchmarks."""
    names = list(names) if names is not None else benchmark_names()
    return {name: run_benchmark(name, platforms, options) for name in names}
