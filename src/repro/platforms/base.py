"""The platform-engine abstraction and its registry.

Every platform of the paper's comparison — the trace-driven CPU model, the
SIMT GPU model and the custom processor in its ``Pvect``/``Ptree``
configurations — is represented by a :class:`PlatformEngine`: an immutable
object with a common ``run(ops, ...) -> PlatformResult`` interface plus the
metadata the experiments need (Table I resource rows, config knobs).

Engines are looked up by name through a module-level registry
(:func:`register_platform` / :func:`get_engine`), so every experiment driver
dispatches the same way and adding a new platform model is a one-file
registration::

    from repro.platforms import PlatformEngine, register_platform

    class TpuEngine(PlatformEngine):
        ...

    register_platform("TPU", TpuEngine)

See ``docs/platforms.md`` for the modeling assumptions behind each built-in
engine and the full registration walkthrough.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..analysis.metrics import PlatformResult
from ..spn.linearize import OperationList

__all__ = [
    "PLATFORM_CPU",
    "PLATFORM_GPU",
    "PLATFORM_PVECT",
    "PLATFORM_PTREE",
    "DEFAULT_PLATFORMS",
    "PlatformEngine",
    "PlatformResult",
    "UnknownPlatformError",
    "register_platform",
    "unregister_platform",
    "get_engine",
    "available_platforms",
]

#: Canonical names of the four platforms compared in the paper.
PLATFORM_CPU = "CPU"
PLATFORM_GPU = "GPU"
PLATFORM_PVECT = "Pvect"
PLATFORM_PTREE = "Ptree"
DEFAULT_PLATFORMS = (PLATFORM_CPU, PLATFORM_GPU, PLATFORM_PVECT, PLATFORM_PTREE)


class UnknownPlatformError(ValueError):
    """Raised when a platform name has no registered engine."""


class PlatformEngine(abc.ABC):
    """One execution platform with a uniform throughput-measurement interface.

    Concrete engines are frozen dataclasses holding their model configuration
    in a ``config`` field; :meth:`configured` and :meth:`with_config` derive
    re-parameterized copies, so sweeps and ablations never mutate shared
    state.
    """

    #: One-line modeling summary (shown by ``docs/platforms.md`` tooling).
    description: str = ""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Platform name as it appears in figures and the registry."""

    @abc.abstractmethod
    def run(
        self,
        ops: OperationList,
        benchmark: str = "",
        options: Optional[object] = None,
        evidence: Optional[Mapping[int, int]] = None,
    ) -> PlatformResult:
        """Measure ``ops`` on this platform and return its throughput.

        ``options`` carries compiler :class:`~repro.compiler.scheduler.ScheduleOptions`
        for the processor engines and is ignored by the CPU/GPU models (their
        timing does not depend on the SPN compiler).  ``evidence`` selects
        the input assignment used for the processor's value verification;
        the timing of every model is input-independent.
        """

    @abc.abstractmethod
    def table_row(self) -> Tuple[str, str, str, str]:
        """This platform's Table I row: (name, compute units, memory, banks)."""

    # ------------------------------------------------------------------ #
    def configured(self, **overrides: object) -> "PlatformEngine":
        """Copy of this engine with ``config`` fields replaced by ``overrides``."""
        return dataclasses.replace(
            self, config=dataclasses.replace(self.config, **overrides)
        )

    def with_config(self, config: object) -> "PlatformEngine":
        """Copy of this engine with ``config`` replaced wholesale."""
        return dataclasses.replace(self, config=config)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_FACTORIES: Dict[str, Callable[[], PlatformEngine]] = {}
_INSTANCES: Dict[str, PlatformEngine] = {}


def register_platform(
    name: str, factory: Callable[[], PlatformEngine], overwrite: bool = False
) -> None:
    """Register ``factory`` (a zero-argument engine constructor) under ``name``."""
    if name in _FACTORIES and not overwrite:
        raise ValueError(
            f"platform {name!r} is already registered; pass overwrite=True to replace it"
        )
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def unregister_platform(name: str) -> None:
    """Remove ``name`` from the registry (raises for unknown names)."""
    if name not in _FACTORIES:
        raise UnknownPlatformError(_unknown_message(name))
    del _FACTORIES[name]
    _INSTANCES.pop(name, None)


def get_engine(name: str) -> PlatformEngine:
    """Return the (cached) engine registered under ``name``."""
    factory = _FACTORIES.get(name)
    if factory is None:
        raise UnknownPlatformError(_unknown_message(name))
    engine = _INSTANCES.get(name)
    if engine is None:
        engine = factory()
        _INSTANCES[name] = engine
    return engine


def available_platforms() -> List[str]:
    """Registered platform names, deterministically sorted.

    The order is independent of registration order (which varies with
    import order once third-party backends self-register), so iteration
    output — figures, sweep grids, cache keys built from the list — is
    stable across processes and runs.
    """
    return sorted(_FACTORIES)


def _unknown_message(name: str) -> str:
    known = ", ".join(_FACTORIES) or "none"
    return f"unknown platform {name!r}; registered platforms: {known}"
