"""Built-in platform engines: CPU, GPU and the custom processor.

Each engine wraps one of the repository's performance models behind the
uniform :class:`~repro.platforms.base.PlatformEngine` interface and registers
itself under the paper's platform name, so experiments obtain it with
``get_engine("CPU")`` etc. and never hand-wire model-specific dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from ..baselines.cpu import CpuConfig, simulate_cpu
from ..baselines.gpu import GpuConfig, simulate_gpu
from ..processor.config import ProcessorConfig, ptree_config, pvect_config
from .base import (
    PLATFORM_CPU,
    PLATFORM_GPU,
    PLATFORM_PTREE,
    PLATFORM_PVECT,
    PlatformEngine,
    PlatformResult,
    register_platform,
)

__all__ = ["CpuEngine", "GpuEngine", "ProcessorEngine"]


@dataclass(frozen=True)
class CpuEngine(PlatformEngine):
    """Trace-driven model of the superscalar CPU (Sec. III, ``baselines.cpu``)."""

    config: CpuConfig = field(default_factory=CpuConfig)

    description = (
        "Out-of-order superscalar core executing the flat operation list as "
        "straight-line compiled code (register spills, L1 latencies, "
        "front-end fetch limits)."
    )

    @property
    def name(self) -> str:
        return PLATFORM_CPU

    def run(
        self,
        ops,
        benchmark: str = "",
        options: Optional[object] = None,
        evidence: Optional[Mapping[int, int]] = None,
    ) -> PlatformResult:
        result = simulate_cpu(ops, self.config)
        return PlatformResult(
            platform=self.name,
            benchmark=benchmark,
            ops_per_cycle=result.ops_per_cycle,
            cycles=result.cycles,
            n_operations=result.n_operations,
        )

    def table_row(self) -> Tuple[str, str, str, str]:
        # The register/cache description follows Table I of the paper; the
        # modelled core exposes the same resources through CpuConfig.
        return (
            self.name,
            f"{self.config.fp_ports} arith. units in a superscalar core",
            "168 80b registers + 32 KB L1 cache",
            "16",
        )


@dataclass(frozen=True)
class GpuEngine(PlatformEngine):
    """SIMT model of the CUDA kernel (Algorithm 3, ``baselines.gpu``)."""

    config: GpuConfig = field(default_factory=GpuConfig)

    description = (
        "Embedded-GPU SIMT timing model: dependence groups on one thread "
        "block, shared-memory bank conflicts (coloring or interleaved "
        "allocation), divergence and barrier costs."
    )

    @property
    def name(self) -> str:
        return PLATFORM_GPU

    def run(
        self,
        ops,
        benchmark: str = "",
        options: Optional[object] = None,
        evidence: Optional[Mapping[int, int]] = None,
    ) -> PlatformResult:
        result = simulate_gpu(ops, self.config)
        return PlatformResult(
            platform=self.name,
            benchmark=benchmark,
            ops_per_cycle=result.ops_per_cycle,
            cycles=result.cycles,
            n_operations=result.n_operations,
        )

    def table_row(self) -> Tuple[str, str, str, str]:
        return (
            self.name,
            "128 CUDA cores",
            "64K 32b registers + 64 KB shared mem.",
            str(self.config.n_banks),
        )


@dataclass(frozen=True)
class ProcessorEngine(PlatformEngine):
    """The custom SPN processor: full compiler plus cycle-accurate simulator.

    ``verify`` (default on) runs the simulator in strict mode, so throughput
    numbers are only ever reported for programs that transported every value
    correctly.  ``mode`` forces a simulator path explicitly (``"fast"`` for
    the vectorized tape) and ``check`` cross-checks fast against strict.
    """

    config: ProcessorConfig = field(default_factory=ptree_config)
    verify: bool = True
    mode: Optional[str] = None
    check: bool = False

    description = (
        "VLIW processor with PE trees behind a banked register file; "
        "programs come from the cone-extraction + scheduling compiler and "
        "are measured on the cycle-accurate simulator (strict or fast mode)."
    )

    @property
    def name(self) -> str:
        return self.config.name

    def run(
        self,
        ops,
        benchmark: str = "",
        options: Optional[object] = None,
        evidence: Optional[Mapping[int, int]] = None,
    ) -> PlatformResult:
        # Imported here so CPU/GPU-only users never pay for the compiler.
        from ..compiler.driver import compile_operation_list

        kernel = compile_operation_list(ops, self.config, options)
        result = kernel.run(
            evidence=evidence, strict=self.verify, mode=self.mode, check=self.check
        )
        return PlatformResult(
            platform=self.name,
            benchmark=benchmark,
            ops_per_cycle=result.ops_per_cycle,
            cycles=result.cycles,
            n_operations=result.n_operations,
        )

    def table_row(self) -> Tuple[str, str, str, str]:
        config = self.config
        dmem_kb = config.dmem_rows * config.n_banks * 4 // 1024
        return (
            f"Ours ({config.name})",
            f"{config.n_pes} PEs",
            f"{config.n_registers // 1024}K 32b registers + {dmem_kb} KB data mem.",
            str(config.n_banks),
        )


register_platform(PLATFORM_CPU, CpuEngine)
register_platform(PLATFORM_GPU, GpuEngine)
register_platform(PLATFORM_PVECT, lambda: ProcessorEngine(config=pvect_config()))
register_platform(PLATFORM_PTREE, lambda: ProcessorEngine(config=ptree_config()))
