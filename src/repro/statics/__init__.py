"""Static verification layer: prove IR properties without executing.

Three passes over the compile-then-execute pipeline's artifacts, none of
which runs a single tape kernel on data:

* :mod:`repro.statics.verifier` — a dataflow verifier for
  :class:`~repro.spn.compiled.CompiledTape` and
  :class:`~repro.spn.memplan.MemoryPlan`: topological order,
  def-before-use, independently re-derived liveness vs the allocator's
  intervals, slot interference, root reachability, dead-kernel detection
  and broadcast-constant legality.  Wired as a gate into artifact loading,
  registry publication and ``ExecutionOptions(check=True)``.
* :mod:`repro.statics.absint` — abstract interpretation over interval and
  sign domains: proves log-domain outputs ``<= 0`` for normalized tapes,
  tracks ``-inf`` reachability, flags linear-domain underflow risk on
  deep product chains at compile time, and proves the linear floor above
  which a log pass may take ``log`` of the linear kernels' root.
* :mod:`repro.statics.lint` — AST lint for the repository's own
  concurrency and API discipline (lock-guarded writes, blocking calls
  under locks, bare ``except``, unseeded randomness in hot paths).

``python -m repro.statics verify|lint`` exposes all three;
:mod:`repro.statics.mutate` holds the seeded corruption corpus that keeps
the verifier honest (100% detection, zero false positives).
"""

from .absint import LOG_TINY, TapeAnalysis, analyze_tape
from .lint import HOT_PATH_PACKAGES, LintFinding, lint_file, lint_paths, lint_source
from .mutate import MUTATORS, mutate, mutation_names
from .verifier import (
    PlanFacts,
    TapeFacts,
    VerificationError,
    verify_compiled,
    verify_memory_plan,
    verify_tape,
)

__all__ = [
    "LOG_TINY",
    "TapeAnalysis",
    "analyze_tape",
    "HOT_PATH_PACKAGES",
    "LintFinding",
    "lint_file",
    "lint_paths",
    "lint_source",
    "MUTATORS",
    "mutate",
    "mutation_names",
    "PlanFacts",
    "TapeFacts",
    "VerificationError",
    "verify_compiled",
    "verify_memory_plan",
    "verify_tape",
]
