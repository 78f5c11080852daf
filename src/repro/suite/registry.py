"""Benchmark suite mirroring the evaluation of the paper (Fig. 4).

The paper benchmarks SPNs learned on nine datasets drawn from the UCI
repository [3] and the Lowd-Davis Markov-network suite [7]: Netflix, BBC,
Bio response, Audio, CPU, MSNBC, EEG-eye, KDDCup2k and Banknote.  The
datasets and the LearnPSDD toolchain used to train the networks are not
available in this offline environment, so each benchmark is represented by a
*profile*: the dataset's variable count plus shape parameters for the
deterministic random tensorized SPN generator
(:func:`repro.spn.generate.generate_rat_spn`, the construction of the
random-SPN paper cited in the introduction of the reproduced work).

Throughput in operations/cycle is a property of the operation DAG's shape
(size, depth, fan-out, reuse) rather than of the learned parameters, so
profile-generated networks exercise the same architectural behaviour as the
paper's learned networks.  Two things are scaled down for tractability of
the pure-Python cycle-accurate simulation (see ``docs/architecture.md``):
the two large text benchmarks (BBC, Bio response) are capped to 160
variables, and network sizes target a few thousand binary operations instead
of the tens of thousands a LearnPSDD network can reach.

Besides the structural artifacts (SPN, operation list, compiled tape, AOT
artifact — all cached), the registry keeps one shared
:class:`~repro.api.session.InferenceSession` per benchmark
(:func:`benchmark_session`), the front door the experiments query through.

*Throughput* measurements on these benchmarks go through the platform-engine
registry instead (:mod:`repro.platforms`): every profile's operation list
can be handed to any registered engine by name, which is how Fig. 4 and the
sweeps iterate the suite across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

from ..spn.compiled import CompiledTape, compile_tape
from ..spn.generate import RatSpnConfig, generate_rat_spn
from ..spn.graph import SPN
from ..spn.linearize import OperationList, linearize

__all__ = [
    "BenchmarkProfile",
    "BENCHMARKS",
    "benchmark_names",
    "get_profile",
    "benchmark_n_vars",
    "build_benchmark",
    "benchmark_operation_list",
    "benchmark_tape",
    "benchmark_artifact",
    "benchmark_session",
    "suite_summary",
]


@dataclass(frozen=True)
class BenchmarkProfile:
    """Shape profile of one benchmark SPN.

    Attributes
    ----------
    name:
        Benchmark name as it appears on the x-axis of Fig. 4.
    source:
        Dataset suite the benchmark comes from in the paper.
    dataset_vars:
        Number of variables of the original dataset.
    model_vars:
        Number of variables actually instantiated in this reproduction
        (capped for the large text datasets).
    depth, repetitions, n_sums, n_leaf_components, seed:
        Region-graph generator parameters (see
        :class:`repro.spn.generate.RatSpnConfig`).
    """

    name: str
    source: str
    dataset_vars: int
    model_vars: int
    repetitions: int = 2
    n_sums: int = 2
    n_leaf_components: int = 2
    split_balance: float = 0.1
    seed: int = 0

    def generator_config(self) -> RatSpnConfig:
        # The recursion depth bound is set to the variable count so that the
        # (typically unbalanced) vtree-style decomposition runs down to
        # singleton scopes, matching the deep and narrow shape of learned
        # PSDD circuits.
        return RatSpnConfig(
            n_vars=self.model_vars,
            depth=self.model_vars,
            repetitions=self.repetitions,
            n_sums=self.n_sums,
            n_leaf_components=self.n_leaf_components,
            n_values=2,
            split_balance=self.split_balance,
            seed=self.seed,
        )


# Variable counts follow the public descriptions of the datasets.
_UCI = "UCI repository [3]"
_LOWD_DAVIS = "Lowd & Davis suite [7]"

BENCHMARKS: Dict[str, BenchmarkProfile] = {
    "Netflix": BenchmarkProfile(
        name="Netflix", source=_LOWD_DAVIS, dataset_vars=100, model_vars=100,
        repetitions=2, n_sums=2, n_leaf_components=2, split_balance=0.1, seed=11,
    ),
    "BBC": BenchmarkProfile(
        name="BBC", source=_LOWD_DAVIS, dataset_vars=1058, model_vars=160,
        repetitions=2, n_sums=2, n_leaf_components=2, split_balance=0.08, seed=12,
    ),
    "Bio response": BenchmarkProfile(
        name="Bio response", source=_UCI, dataset_vars=1776, model_vars=160,
        repetitions=2, n_sums=2, n_leaf_components=2, split_balance=0.12, seed=13,
    ),
    "Audio": BenchmarkProfile(
        name="Audio", source=_LOWD_DAVIS, dataset_vars=100, model_vars=100,
        repetitions=3, n_sums=2, n_leaf_components=2, split_balance=0.1, seed=14,
    ),
    "CPU": BenchmarkProfile(
        name="CPU", source=_UCI, dataset_vars=21, model_vars=21,
        repetitions=3, n_sums=3, n_leaf_components=2, split_balance=0.15, seed=15,
    ),
    "MSNBC": BenchmarkProfile(
        name="MSNBC", source=_LOWD_DAVIS, dataset_vars=17, model_vars=17,
        repetitions=3, n_sums=3, n_leaf_components=2, split_balance=0.15, seed=16,
    ),
    "EEG-eye": BenchmarkProfile(
        name="EEG-eye", source=_UCI, dataset_vars=14, model_vars=14,
        repetitions=3, n_sums=3, n_leaf_components=2, split_balance=0.2, seed=17,
    ),
    "KDDCup2k": BenchmarkProfile(
        name="KDDCup2k", source=_LOWD_DAVIS, dataset_vars=64, model_vars=64,
        repetitions=2, n_sums=2, n_leaf_components=2, split_balance=0.1, seed=18,
    ),
    "Banknote": BenchmarkProfile(
        name="Banknote", source=_UCI, dataset_vars=4, model_vars=4,
        repetitions=3, n_sums=3, n_leaf_components=3, split_balance=0.3, seed=19,
    ),
}


def benchmark_names() -> List[str]:
    """Names of the nine benchmarks in the order of Fig. 4."""
    return list(BENCHMARKS.keys())


def get_profile(name: str) -> BenchmarkProfile:
    """Return the profile for ``name`` (raises ``KeyError`` for unknown names)."""
    try:
        return BENCHMARKS[name]
    except KeyError:
        known = ", ".join(BENCHMARKS)
        raise KeyError(f"unknown benchmark {name!r}; known benchmarks: {known}") from None


def benchmark_n_vars(name: str) -> int:
    """Evidence width of a benchmark: the column count served rows normalize to.

    This is the instantiated ``model_vars`` (not the original dataset's
    variable count); the serving layer (:mod:`repro.serving`) uses it to pad
    and trim submitted evidence rows.
    """
    return get_profile(name).model_vars


@lru_cache(maxsize=None)
def build_benchmark(name: str) -> SPN:
    """Build (and cache) the benchmark SPN for ``name``."""
    return generate_rat_spn(get_profile(name).generator_config())


@lru_cache(maxsize=None)
def benchmark_operation_list(name: str, decompose: str = "balanced") -> OperationList:
    """Lower (and cache) the benchmark SPN into an operation list."""
    return linearize(build_benchmark(name), decompose=decompose)


@lru_cache(maxsize=None)
def benchmark_tape(name: str, decompose: str = "balanced") -> CompiledTape:
    """Compile (and cache) the benchmark operation list into a vectorized tape."""
    return compile_tape(benchmark_operation_list(name, decompose))


@lru_cache(maxsize=None)
def benchmark_artifact(name: str, version: str = "0"):
    """Package (and cache) a benchmark as an AOT lifecycle artifact.

    The artifact carries the benchmark's SPN together with its already
    compiled tape and memory plan
    (:class:`~repro.lifecycle.artifact.ModelArtifact`), so a serving
    process restarted from the saved file cold-starts without touching the
    compiler — ``python -m repro.lifecycle build --model <name>`` routes
    through this.  Lazy import: the suite registry stays importable without
    the lifecycle package and vice versa.
    """
    from ..lifecycle.artifact import build_artifact

    profile = get_profile(name)
    return build_artifact(
        build_benchmark(name),
        name=name,
        version=version,
        ops=benchmark_operation_list(name),
        metadata={"suite_profile": name, "model_vars": profile.model_vars},
    )


@lru_cache(maxsize=None)
def benchmark_session(name: str):
    """The shared :class:`~repro.api.session.InferenceSession` for a benchmark.

    Every caller asking for the same benchmark gets one session, so its
    caches (partition function, domains) are shared.
    """
    from ..api.session import InferenceSession

    return InferenceSession(name)


def suite_summary() -> List[Tuple[str, int, int, int, int]]:
    """Per-benchmark summary: (name, model_vars, n_nodes, n_operations, depth)."""
    rows = []
    for name in benchmark_names():
        spn = build_benchmark(name)
        ops = benchmark_operation_list(name)
        rows.append((name, get_profile(name).model_vars, len(spn.topological_order()),
                     ops.n_operations, ops.depth()))
    return rows
