"""Versioned model registry: publish, shadow-validate, hot-swap, rollback.

The registry owns the name → live-version mapping a serving process routes
through.  Its contract:

* **publish** installs a new version under a name.  When an incumbent is
  live and validation is on, the candidate must first *replay the golden
  evidence set* (:mod:`repro.lifecycle.golden`) and stay within the
  candidate artifact's recorded ``tolerance`` of the incumbent's replay
  (``0.0`` = bit-identical, the default).  A candidate that deviates is
  rejected with :class:`ShadowValidationError` and the registry is left
  untouched — the incumbent keeps serving.
* **atomic hot-swap** — the live pointer flips under the registry lock,
  so a reader either sees the old version or the new one, never a mix.
  Readers that *pin* the resolved entry (the server pins at admission)
  keep executing in-flight work on the old version's tape after the swap.
* **rollback** re-points the live version at any retained older version
  without revalidation (it served traffic before; validation gates entry
  into the store, not re-activation).

The registry is engine-agnostic: entries hold an
:class:`~repro.api.session.InferenceSession` (usually built from a
:class:`~repro.lifecycle.artifact.ModelArtifact`, whose AOT tape makes
installation compile-free) plus the artifact when one exists.

Every lifecycle transition emits a **structured event**: an INFO/WARNING
log line on the ``repro.lifecycle`` logger, a trace event in the
:data:`repro.observability.TRACER` ring buffer (recorded even while
request tracing is off — lifecycle transitions are rare and always worth
keeping), and a labeled counter in the process-wide metrics registry.
``lifecycle.publish`` carries the measured golden-replay deviation and the
validate+swap duration; ``lifecycle.shadow_validation_failed`` and
``lifecycle.rollback`` carry the rejection and re-point details.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..faults.hooks import active_plan as _active_fault_plan
from ..faults.plan import InjectedCrash
from ..observability import REGISTRY, TRACER, metrics_enabled
from .artifact import ModelArtifact
from .golden import golden_evidence, golden_replay, replay_deviation

__all__ = [
    "ShadowValidationError",
    "ModelVersion",
    "PublishReport",
    "ModelRegistry",
]


logger = logging.getLogger("repro.lifecycle")


class ShadowValidationError(RuntimeError):
    """A candidate version deviated from the incumbent beyond its tolerance."""

    def __init__(
        self, name: str, version: str, deviation: float, tolerance: float
    ) -> None:
        super().__init__(
            f"model {name!r} version {version!r} failed shadow validation: "
            f"golden-replay deviation {deviation!r} exceeds tolerance {tolerance!r}"
        )
        self.name = name
        self.version = version
        self.deviation = deviation
        self.tolerance = tolerance


@dataclass(frozen=True)
class ModelVersion:
    """One installed version: the session serving it plus its provenance."""

    name: str
    version: str
    session: object
    artifact: Optional[ModelArtifact] = None


@dataclass(frozen=True)
class PublishReport:
    """What a successful publish did."""

    name: str
    version: str
    previous_version: Optional[str]
    validated: bool
    deviation: float = 0.0
    tolerance: float = 0.0


@dataclass
class _Entry:
    versions: Dict[str, ModelVersion] = field(default_factory=dict)
    order: List[str] = field(default_factory=list)
    live: Optional[str] = None


class ModelRegistry:
    """Thread-safe versioned name → model store with atomic live pointers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, _Entry] = {}

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        with self._lock:
            return sorted(
                name for name, e in self._entries.items() if e.live is not None
            )

    def versions(self, name: str) -> List[str]:
        """Installed versions of ``name``, oldest first."""
        with self._lock:
            entry = self._entries.get(name)
            return list(entry.order) if entry else []

    def live_version(self, name: str) -> Optional[str]:
        with self._lock:
            entry = self._entries.get(name)
            return entry.live if entry else None

    def resolve(self, name: str) -> Optional[ModelVersion]:
        """The live :class:`ModelVersion` for ``name`` (``None`` if absent).

        One lock acquisition, one pointer read: callers that hold on to the
        returned object keep the pre-swap version for as long as they need
        it — this is how in-flight requests drain on the old tape.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None or entry.live is None:
                return None
            return entry.versions[entry.live]

    def get(self, name: str, version: str) -> Optional[ModelVersion]:
        with self._lock:
            entry = self._entries.get(name)
            return entry.versions.get(version) if entry else None

    # ------------------------------------------------------------------ #
    # Write side
    # ------------------------------------------------------------------ #
    def publish(
        self,
        name: str,
        version: str,
        session,
        artifact: Optional[ModelArtifact] = None,
        validate: bool = True,
        golden_rows: Optional[int] = None,
    ) -> PublishReport:
        """Install ``session`` as the live version of ``name``.

        With ``validate`` (the default) and an incumbent live, the candidate
        replays the golden-evidence set first and must stay within the
        candidate's tolerance (``artifact.tolerance`` when an artifact is
        given, else bit-identical).  Validation runs *outside* the registry
        lock — the incumbent serves unhindered while the candidate shadows
        — and only the pointer flip itself is locked.  Re-publishing an
        existing version string raises ``ValueError`` (versions are
        immutable once installed; pick a new version or roll back).
        """
        version = str(version)
        started = time.perf_counter()
        with self._lock:
            entry = self._entries.setdefault(name, _Entry())
            if version in entry.versions:
                raise ValueError(
                    f"model {name!r} version {version!r} is already installed"
                )
            incumbent = entry.versions[entry.live] if entry.live else None

        # Static verification gate: prove the candidate's IR well-formed
        # *before* spending shadow-validation replay time on it.  Catches
        # what the replay cannot — a plan that computes right values on the
        # golden rows but aliases live slots, understates liveness, or
        # carries dead kernels.  Runs outside the lock like validation.
        from ..statics.verifier import verify_compiled

        if artifact is not None:
            verify_compiled(artifact.tape, artifact.plan)
        else:
            # The tape the session's passes run, read fresh from the tape
            # cache (compiled here if the session is cold).
            tape = getattr(session, "tape", None)
            if tape is not None:
                verify_compiled(tape, None)

        tolerance = float(artifact.tolerance) if artifact is not None else 0.0
        deviation = 0.0
        validated = False
        if validate and incumbent is not None:
            kwargs = {} if golden_rows is None else {"n_rows": int(golden_rows)}
            evidence = golden_evidence(incumbent.session.n_vars, **kwargs)
            reference = golden_replay(incumbent.session, evidence)
            candidate = golden_replay(session, evidence)
            deviation = replay_deviation(candidate, reference)
            validated = True
            if deviation > tolerance:
                self._emit(
                    "lifecycle.shadow_validation_failed",
                    logging.WARNING,
                    name=name,
                    version=version,
                    incumbent=incumbent.version,
                    deviation=deviation,
                    tolerance=tolerance,
                    duration_ms=(time.perf_counter() - started) * 1e3,
                )
                raise ShadowValidationError(name, version, deviation, tolerance)

        model = ModelVersion(
            name=name, version=version, session=session, artifact=artifact
        )
        fault_plan = _active_fault_plan()
        if fault_plan is not None:
            # ``lifecycle.publish_crash``: die after validation but before
            # the pointer flip — the incumbent must keep serving untouched
            # (the chaos soak and the lifecycle tests assert exactly that).
            fault_plan.maybe_raise("lifecycle.publish_crash", InjectedCrash)
        with self._lock:
            entry = self._entries.setdefault(name, _Entry())
            if version in entry.versions:
                raise ValueError(
                    f"model {name!r} version {version!r} is already installed"
                )
            previous = entry.live
            entry.versions[version] = model
            entry.order.append(version)
            entry.live = version  # the atomic hot-swap: one pointer store
        self._emit(
            "lifecycle.publish",
            logging.INFO,
            name=name,
            version=version,
            previous=previous,
            validated=validated,
            deviation=deviation,
            tolerance=tolerance,
            duration_ms=(time.perf_counter() - started) * 1e3,
        )
        return PublishReport(
            name=name,
            version=version,
            previous_version=previous,
            validated=validated,
            deviation=deviation,
            tolerance=tolerance,
        )

    def rollback(self, name: str, version: Optional[str] = None) -> ModelVersion:
        """Re-point ``name`` at ``version`` (default: the previous one).

        The target must already be installed; no revalidation runs.  Returns
        the now-live :class:`ModelVersion`.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None or entry.live is None:
                raise KeyError(f"no live model named {name!r}")
            if version is None:
                live_index = entry.order.index(entry.live)
                if live_index == 0:
                    raise ValueError(
                        f"model {name!r} has no version older than {entry.live!r}"
                    )
                version = entry.order[live_index - 1]
            version = str(version)
            if version not in entry.versions:
                raise KeyError(
                    f"model {name!r} has no installed version {version!r}"
                )
            previous = entry.live
            entry.live = version
            model = entry.versions[version]
        self._emit(
            "lifecycle.rollback",
            logging.INFO,
            name=name,
            version=version,
            previous=previous,
        )
        return model

    def remove(self, name: str) -> None:
        """Drop ``name`` and every installed version."""
        with self._lock:
            self._entries.pop(name, None)

    # ------------------------------------------------------------------ #
    # Structured events
    # ------------------------------------------------------------------ #
    @staticmethod
    def _emit(event: str, level: int, *, name: str, **attrs) -> None:
        """Record one lifecycle transition in all three sinks.

        Log line (human operators), trace event (``always=True`` — a swap
        must be reconstructible from the trace export even when request
        tracing is off), and a per-model counter in the process-wide
        registry (dashboards alert on ``*_total`` rates).  Emission is
        deliberately outside the registry lock: a slow logging handler
        must never serialize the serving path's ``resolve`` calls.
        """
        logger.log(
            level,
            "%s: %s",
            event,
            " ".join(
                [f"name={name}"]
                + [f"{key}={value}" for key, value in attrs.items()]
            ),
        )
        TRACER.event(event, always=True, model=name, **attrs)
        if metrics_enabled():
            counter = event.replace(".", "_", 1).replace(".", "_") + "_total"
            REGISTRY.counter(counter, model=name).inc()
