"""Training pipeline: dataset → LearnSPN → compiled AOT artifact, in parallel.

Mirrors the sweep runner (:func:`repro.experiments.sweeps.run_sweep`): jobs
are content-hashed — spec + hyper-parameters + the whole package source
fingerprint — against an on-disk cache whose entries **are the artifact
files themselves**, so a cache hit is exactly an AOT cold start
(:func:`~repro.lifecycle.artifact.load_artifact`) and a corrupted cache
entry is detected by the artifact integrity check and recomputed.  Misses
fan out over a ``ProcessPoolExecutor`` (learning is pure Python and
CPU-bound, so processes — not threads — buy parallelism), falling back to
in-process execution when at most one job misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from ..spn.datasets import DatasetSpec, generate_dataset
from ..spn.learn import LearnConfig, learn_spn
from .artifact import (
    ArtifactError,
    ModelArtifact,
    build_artifact,
    load_artifact,
    save_artifact,
)

__all__ = [
    "DEFAULT_ARTIFACT_DIR",
    "TrainingJob",
    "TrainingResult",
    "job_key",
    "train_artifact",
    "train_many",
]

#: Default artifact cache, next to the sweep cache.
DEFAULT_ARTIFACT_DIR = Path(".cache") / "artifacts"


@dataclass(frozen=True)
class TrainingJob:
    """One learn → compile → package unit of work."""

    name: str
    dataset: DatasetSpec
    version: str = "1"
    config: LearnConfig = field(default_factory=LearnConfig)
    tolerance: float = 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "version": self.version,
            "dataset": {
                "n_vars": self.dataset.n_vars,
                "n_rows": self.dataset.n_rows,
                "n_clusters": self.dataset.n_clusters,
                "noise": self.dataset.noise,
                "seed": self.dataset.seed,
            },
            "config": self.config.as_dict(),
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class TrainingResult:
    """Outcome of one job: the artifact plus provenance of how it was made."""

    job: TrainingJob
    artifact: ModelArtifact
    cached: bool
    elapsed: float
    path: Optional[Path] = None


def job_key(job: TrainingJob, code: Optional[str] = None) -> str:
    """Stable content hash of a job (the artifact-cache key).

    Folds in the package source fingerprint exactly like the sweep cache
    (:func:`repro.experiments.sweeps.cache_key`): any change to learner,
    compiler, or planner code invalidates every cached artifact.
    """
    from ..experiments.sweeps import CACHE_VERSION, _code_fingerprint

    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "code": code if code is not None else _code_fingerprint(),
            **job.as_dict(),
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def train_artifact(job: TrainingJob) -> ModelArtifact:
    """Run one job in-process: generate data, learn, compile, package.

    The artifact's metadata records full provenance — the dataset spec, the
    learner hyper-parameters, and the training-set average log-likelihood —
    so a served model can always be traced back to how it was trained.
    """
    data = generate_dataset(job.dataset)
    spn = learn_spn(data, job.config)
    metadata = {
        "trained": True,
        "dataset": job.as_dict()["dataset"],
        "learn_config": job.config.as_dict(),
    }
    return build_artifact(
        spn,
        name=job.name,
        version=job.version,
        tolerance=job.tolerance,
        metadata=metadata,
    )


def _train_job_payload(job: TrainingJob) -> tuple:
    """Worker entry point: returns the artifact *document* (picklable)."""
    start = time.perf_counter()
    artifact = train_artifact(job)
    return artifact.to_payload(), time.perf_counter() - start


def train_many(
    jobs: Sequence[TrainingJob],
    parallel: bool = True,
    max_workers: Optional[int] = None,
    artifact_dir: Optional[Path] = DEFAULT_ARTIFACT_DIR,
) -> List[TrainingResult]:
    """Run many jobs with caching and process-pool parallelism.

    Jobs whose artifact already exists in ``artifact_dir`` (keyed by
    :func:`job_key`) load from disk — the AOT path, no learning, no
    compilation.  The rest run on a ``ProcessPoolExecutor`` (in-process
    when ``parallel=False`` or at most one job misses, matching
    :func:`~repro.experiments.sweeps.run_sweep`), and their artifacts are
    written back to the cache.  Results keep the order of ``jobs``.
    """
    from ..experiments.sweeps import _code_fingerprint
    from .artifact import artifact_from_payload

    caching = artifact_dir is not None
    code = _code_fingerprint() if caching else None
    results: List[Optional[TrainingResult]] = [None] * len(jobs)
    misses: List[int] = []
    for i, job in enumerate(jobs):
        if caching:
            path = Path(artifact_dir) / f"{job_key(job, code)}.json"
            try:
                start = time.perf_counter()
                artifact = load_artifact(path)
                results[i] = TrainingResult(
                    job=job,
                    artifact=artifact,
                    cached=True,
                    elapsed=time.perf_counter() - start,
                    path=path,
                )
                continue
            except ArtifactError:
                pass  # absent or corrupted: recompute (and overwrite)
        misses.append(i)

    if misses:
        miss_jobs = [jobs[i] for i in misses]
        if parallel and len(miss_jobs) > 1:
            workers = max_workers or min(len(miss_jobs), os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(_train_job_payload, miss_jobs))
        else:
            outcomes = [_train_job_payload(job) for job in miss_jobs]
        for i, (payload, elapsed) in zip(misses, outcomes):
            artifact = artifact_from_payload(payload)
            path = None
            if caching:
                path = Path(artifact_dir) / f"{job_key(jobs[i], code)}.json"
                save_artifact(artifact, path)
            results[i] = TrainingResult(
                job=jobs[i],
                artifact=artifact,
                cached=False,
                elapsed=elapsed,
                path=path,
            )

    return [r for r in results if r is not None]
