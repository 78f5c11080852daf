"""The SPN processor: machine description, ISA, and cycle-accurate simulator."""

from .config import ProcessorConfig, ptree_config, pvect_config
from .errors import (
    CompilationError,
    ProcessorError,
    ResourceError,
    StructuralHazardError,
    UninitializedReadError,
    VerificationError,
)
from .isa import (
    OP_ADD,
    OP_MUL,
    OP_NOP,
    OP_PASS_A,
    OP_PASS_B,
    Instruction,
    MemOp,
    Program,
    ReadSpec,
    WriteSpec,
)
from .simulator import SimulationResult, Simulator
from .assembler import assemble, disassemble

__all__ = [
    "assemble",
    "disassemble",
    "ProcessorConfig",
    "ptree_config",
    "pvect_config",
    "ProcessorError",
    "CompilationError",
    "ResourceError",
    "StructuralHazardError",
    "UninitializedReadError",
    "VerificationError",
    "OP_ADD",
    "OP_MUL",
    "OP_NOP",
    "OP_PASS_A",
    "OP_PASS_B",
    "Instruction",
    "MemOp",
    "Program",
    "ReadSpec",
    "WriteSpec",
    "SimulationResult",
    "Simulator",
]
