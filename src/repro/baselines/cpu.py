"""CPU execution model for SPN operation lists (Sec. III of the paper).

The paper measures an Intel i5-7200U executing the SPN as a flat list of
compiled C operations (Algorithm 1) and reports a peak of ~0.55 effective
operations/cycle.  Wall-clock measurements inside this container would say
nothing about that machine, so this module provides a trace-driven model of
a superscalar out-of-order core with the resources of Table I:

* 2 floating-point arithmetic units;
* a limited out-of-order scheduling window;
* a compiler-visible register budget — values whose producer and consumer are
  further apart than the effective register window must round-trip through
  the L1 cache (explicit load/store micro-ops); the 168-entry physical
  register file of Table I does not help here because the straight-line
  compiled code can only name the 16 architectural registers;
* 2 load ports and 1 store port, L1-hit latency for loads;
* a front-end fetch bandwidth limit: the fully unrolled operation list
  compiles to straight-line code far larger than the 32 KB L1 instruction
  cache, so sustained instruction fetch comes from L2 and becomes a primary
  bottleneck (this is the well-known behaviour of compiled arithmetic
  circuits on CPUs).

The model first expands the operation list into a micro-op trace
(loads / arithmetic / stores in program order) and then issues it cycle by
cycle under the port, latency, window and fetch-bandwidth constraints.  The
absolute constants are approximations of a Kaby Lake-class core; the quantity
of interest is the resulting operations/cycle regime (~0.5-0.7) and its
insensitivity to the SPN, which matches the paper's measurement.

Experiments do not call :func:`simulate_cpu` directly: the model is exposed
as the ``"CPU"`` engine of the platform registry
(:class:`repro.platforms.CpuEngine`, see ``docs/platforms.md``), which every
driver reaches through :func:`repro.platforms.get_engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..spn.evaluate import row_evidence
from ..spn.linearize import OperationList

__all__ = [
    "CpuConfig",
    "CpuResult",
    "build_microops",
    "simulate_cpu",
    "execute_baseline",
    "MicroOp",
]

# Micro-op kinds.
_LOAD = "load"
_ARITH = "arith"
_STORE = "store"
_INT = "int"  # integer/control overhead of the Algorithm 2 loop form


@dataclass(frozen=True)
class CpuConfig:
    """Resource and timing parameters of the modelled CPU core.

    Defaults approximate the Intel i5-7200U of the paper (Table I): a
    superscalar core with two FP units backed by a 32 KB L1 data cache.
    """

    issue_width: int = 4
    fp_ports: int = 2
    load_ports: int = 2
    store_ports: int = 1
    window_size: int = 64
    fp_latency: int = 4
    l1_latency: int = 4
    store_latency: int = 1
    #: Producer-to-consumer distance (in operation-list slots) beyond which a
    #: value is assumed to have left the compiler-allocated registers and must
    #: be reloaded from the L1 cache.  Compiled straight-line code can only
    #: name the 16 architectural registers, a few of which hold constants and
    #: addresses.
    register_window: int = 12
    #: Sustained instruction-fetch bandwidth in bytes per cycle.  Straight-line
    #: SPN code greatly exceeds the 32 KB L1 instruction cache, so fetch is
    #: limited by the L1I miss path rather than the 16 B/cycle decoder feed.
    #: The default is calibrated so that the modelled core reproduces the
    #: ~0.55 operations/cycle the paper measures on the i5-7200U.
    frontend_bytes_per_cycle: float = 4.5
    #: Average encoded size of one micro-op (scalar SSE with a memory operand).
    bytes_per_microop: float = 4.0
    #: When True, model the Algorithm 2 (for-loop over index vectors) form:
    #: every operation additionally fetches its opcode and two operand indices
    #: and executes loop/branch overhead instructions.  The paper notes this
    #: form is consistently slower than the flat operation list.
    indexed_loop: bool = False

    def __post_init__(self) -> None:
        if min(self.issue_width, self.fp_ports, self.load_ports, self.store_ports) < 1:
            raise ValueError("all port counts must be >= 1")
        if self.window_size < 1 or self.register_window < 1:
            raise ValueError("window_size and register_window must be >= 1")
        if min(self.fp_latency, self.l1_latency, self.store_latency) < 1:
            raise ValueError("latencies must be >= 1")
        if self.frontend_bytes_per_cycle <= 0 or self.bytes_per_microop <= 0:
            raise ValueError("front-end parameters must be positive")


@dataclass(frozen=True)
class MicroOp:
    """One micro-operation of the expanded trace."""

    index: int
    kind: str
    #: Indices (into the micro-op trace) of the producers this micro-op waits on.
    deps: tuple
    #: Operation-list index this micro-op belongs to (for accounting only).
    op_index: int


@dataclass
class CpuResult:
    """Outcome of a CPU model run."""

    cycles: int
    n_operations: int
    n_loads: int
    n_stores: int
    n_overhead: int = 0
    config: CpuConfig = field(repr=False, default_factory=CpuConfig)

    @property
    def n_microops(self) -> int:
        return self.n_operations + self.n_loads + self.n_stores + self.n_overhead

    @property
    def ops_per_cycle(self) -> float:
        """Effective SPN operations per cycle (the paper's throughput metric)."""
        return self.n_operations / self.cycles if self.cycles else 0.0

    @property
    def ipc(self) -> float:
        """Micro-ops per cycle (for model diagnostics)."""
        return self.n_microops / self.cycles if self.cycles else 0.0


def execute_baseline(ops: OperationList, data: np.ndarray) -> np.ndarray:
    """Functional execution of the program the CPU model times.

    The timing model above only counts cycles; this is the matching value
    computation for an evidence batch (shape ``(n_rows, n_vars)``, following
    the :data:`repro.spn.evaluate.MARGINALIZED` convention): the flat
    operation list interpreted row by row, exactly the straight-line
    program of Algorithm 1 that the modelled CPU executes.  It is the
    reference the compiled tape (``cached_tape(ops).execute_batch(data)``)
    is checked against.
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D evidence array, got shape {data.shape}")
    out = np.empty(data.shape[0], dtype=np.float64)
    for row in range(data.shape[0]):
        out[row] = ops.execute(row_evidence(data[row]))
    return out


def build_microops(ops: OperationList, config: Optional[CpuConfig] = None) -> List[MicroOp]:
    """Expand an operation list into the micro-op trace the core executes.

    Every SPN operation becomes one arithmetic micro-op plus a load micro-op
    for each operand that is not register-resident (leaf inputs and values
    produced more than ``register_window`` slots earlier) and a store
    micro-op when the result itself will not stay register-resident until its
    last consumer.
    """
    config = config or CpuConfig()
    trace: List[MicroOp] = []
    # For every slot: micro-op index of the arithmetic op that produced it
    # (None for inputs), used for dependence edges.
    producer_uop: Dict[int, int] = {}
    # Fan-out information to decide which results must be stored.
    last_consumer: Dict[int, int] = {}
    for op in ops.operations:
        last_consumer[op.arg0] = op.index
        last_consumer[op.arg1] = op.index

    def emit(kind: str, deps: tuple, op_index: int) -> int:
        uop = MicroOp(index=len(trace), kind=kind, deps=deps, op_index=op_index)
        trace.append(uop)
        return uop.index

    n_inputs = ops.n_inputs
    for op in ops.operations:
        if config.indexed_loop:
            # Algorithm 2 fetches O[i], B[i], C[i] and evaluates the loop
            # branch and the sum/product selection for every operation.
            emit(_LOAD, (), op.index)
            emit(_LOAD, (), op.index)
            emit(_LOAD, (), op.index)
            emit(_INT, (), op.index)
        dep_uops: List[int] = []
        for arg in (op.arg0, op.arg1):
            if arg < n_inputs:
                # Leaf inputs live in memory; each first use needs a load.  The
                # compiler would keep hot inputs in registers, which the
                # register_window rule approximates for recently loaded slots.
                dep_uops.append(emit(_LOAD, (), op.index))
            else:
                producer_op_index = arg - n_inputs
                distance = op.index - producer_op_index
                if distance > config.register_window:
                    # Value was spilled; reload it (the producer-side store was
                    # accounted for when the value was produced).
                    dep_uops.append(emit(_LOAD, (), op.index))
                else:
                    dep_uops.append(producer_uop[arg])
        arith_index = emit(_ARITH, tuple(dep_uops), op.index)
        dest = ops.dest_slot(op.index)
        producer_uop[dest] = arith_index
        consumer = last_consumer.get(dest)
        if consumer is not None and consumer - op.index > config.register_window:
            emit(_STORE, (arith_index,), op.index)
    return trace


def simulate_cpu(ops: OperationList, config: Optional[CpuConfig] = None) -> CpuResult:
    """Run the out-of-order issue model and return cycle counts.

    The model issues micro-ops cycle by cycle: only the first ``window_size``
    not-yet-issued micro-ops (in program order) are candidates, at most
    ``issue_width`` micro-ops issue per cycle subject to per-port limits, and
    a micro-op may issue only when all of its producers have completed.
    """
    config = config or CpuConfig()
    trace = build_microops(ops, config)
    n = len(trace)
    if n == 0:
        return CpuResult(cycles=0, n_operations=0, n_loads=0, n_stores=0, config=config)

    latency = {
        _LOAD: config.l1_latency,
        _ARITH: config.fp_latency,
        _STORE: config.store_latency,
        _INT: 1,
    }
    completion = [0] * n
    issued = [False] * n
    head = 0  # first not-yet-issued micro-op
    n_issued = 0
    cycle = 0
    # Hard safety bound: a core issuing one micro-op every 'window' cycles.
    max_cycles = n * (max(latency.values()) + 1) + config.window_size
    while n_issued < n and cycle <= max_cycles:
        cycle += 1
        slots_left = config.issue_width
        bytes_left = config.frontend_bytes_per_cycle
        port_left = {
            _ARITH: config.fp_ports,
            _LOAD: config.load_ports,
            _STORE: config.store_ports,
            _INT: 2,
        }
        window_end = min(n, head + config.window_size)
        for i in range(head, window_end):
            if slots_left == 0 or bytes_left < config.bytes_per_microop:
                break
            if issued[i]:
                continue
            uop = trace[i]
            if port_left[uop.kind] == 0:
                continue
            if any(completion[d] > cycle for d in uop.deps):
                continue
            issued[i] = True
            completion[i] = cycle + latency[uop.kind]
            slots_left -= 1
            bytes_left -= config.bytes_per_microop
            port_left[uop.kind] -= 1
            n_issued += 1
        while head < n and issued[head]:
            head += 1

    # Account for the drain of the last in-flight micro-ops.
    total_cycles = max(completion) if completion else 0
    n_loads = sum(1 for u in trace if u.kind == _LOAD)
    n_stores = sum(1 for u in trace if u.kind == _STORE)
    n_overhead = sum(1 for u in trace if u.kind == _INT)
    return CpuResult(
        cycles=total_cycles,
        n_operations=ops.n_operations,
        n_loads=n_loads,
        n_stores=n_stores,
        n_overhead=n_overhead,
        config=config,
    )
