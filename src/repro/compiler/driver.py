"""Top-level compiler driver: SPN (or operation list) in, VLIW program out.

The driver chains the front end (lowering an SPN to a binary operation list),
the cone extraction and the scheduler, and offers a verification helper that
runs the compiled program on the cycle-accurate simulator (which checks every
transported value) and compares the result against the reference evaluator —
the standard check used throughout the test-suite and the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from ..processor.config import ProcessorConfig, ptree_config
from ..processor.errors import VerificationError
from ..processor.isa import Program
from ..processor.simulator import SimulationResult, Simulator
from ..spn.graph import SPN
from ..spn.linearize import OperationList, linearize
from .cones import ConeGraph, extract_cones
from .scheduler import CompileStats, ScheduleOptions, Scheduler

__all__ = ["CompiledKernel", "compile_operation_list", "compile_spn", "verify_program"]


@dataclass
class CompiledKernel:
    """Everything produced by one compilation, ready to simulate."""

    program: Program
    stats: CompileStats
    cone_graph: ConeGraph
    config: ProcessorConfig
    ops: OperationList

    def run(self, evidence: Optional[Mapping[int, int]] = None) -> SimulationResult:
        """Execute the kernel for ``evidence`` on the cycle-accurate simulator.

        Every value the program transports through the register file is
        checked against the operation list's reference slot values.
        """
        input_vector = self.ops.input_vector(evidence)
        expected = self.ops.execute_values(input_vector)
        return Simulator(self.config).run(self.program, input_vector, expected)


def compile_operation_list(
    ops: OperationList,
    config: Optional[ProcessorConfig] = None,
    options: Optional[ScheduleOptions] = None,
) -> CompiledKernel:
    """Compile a lowered operation list for the given machine configuration."""
    config = config or ptree_config()
    cone_graph = extract_cones(ops, max_depth=config.n_levels)
    program, stats = Scheduler(cone_graph, config, options).run()
    return CompiledKernel(
        program=program, stats=stats, cone_graph=cone_graph, config=config, ops=ops
    )


def compile_spn(
    spn: SPN,
    config: Optional[ProcessorConfig] = None,
    options: Optional[ScheduleOptions] = None,
    decompose: str = "balanced",
) -> CompiledKernel:
    """Lower ``spn`` to binary operations and compile it (the full flow)."""
    return compile_operation_list(linearize(spn, decompose=decompose), config, options)


def verify_program(
    kernel: CompiledKernel,
    evidence_samples: Sequence[Optional[Mapping[int, int]]] = (None,),
    rtol: float = 1e-9,
) -> bool:
    """Run the kernel on the simulator and compare against the reference evaluator.

    Every sample checks every transported value, not only the final result.
    Raises :class:`~repro.processor.errors.VerificationError` on mismatch and
    returns ``True`` otherwise.
    """
    for evidence in evidence_samples:
        reference = kernel.ops.execute(evidence)
        result = kernel.run(evidence)
        if not np.isclose(result.value, reference, rtol=rtol, atol=1e-12):
            raise VerificationError(
                f"compiled program returned {result.value!r}, reference evaluation "
                f"gives {reference!r}"
            )
    return True
