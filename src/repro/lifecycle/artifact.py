"""Ahead-of-time model artifacts: SPN + compiled tape + memory plan in one file.

The source paper assumes SPNs arrive as *compiled* objects from external
learners; the server-side analogue is an artifact that carries everything a
cold-starting server needs — the network, its levelized
:class:`~repro.spn.compiled.CompiledTape`, and the tape's
:class:`~repro.spn.memplan.MemoryPlan` — so loading a model performs **zero
compilation or planning**: deserialize, adopt, serve.  Because JSON
round-trips every float exactly and the derived structures are recomputed
deterministically, a loaded artifact executes **bit-identically**
(``array_equal``) to the freshly compiled model it was built from, on every
query kind.

File layout (one JSON document)::

    {
      "format": "repro-spn-artifact",
      "version": 2,
      "content_hash": "<sha256 of the canonical body encoding>",
      "body": {
        "name": ..., "model_version": ..., "n_vars": ..., "tolerance": ...,
        "metadata": {...},
        "spn":  <repro.spn.io.to_json document>,
        "ops":  <OperationList.to_payload document>,
        "tape": <tape_to_payload document>,
        "plan": <plan_to_payload document>
      }
    }

``content_hash`` is the sha256 of ``json.dumps(body, sort_keys=True,
separators=(",", ":"))`` — a canonical encoding, so the hash is stable
across writers.  Loading verifies the hash before reconstructing anything;
a flipped byte raises :class:`ArtifactIntegrityError`, and a structurally
malformed body (truncated sections, dangling references) raises
:class:`ArtifactFormatError`.  Both derive from
:class:`~repro.spn.graph.StructureError`.  Version-1 documents, which also
record the retired kernel-fusion settings (body ``fuse``/``fuse_width``,
plan ``n_source_kernels``/``fused``), still load; those keys are ignored.

``tolerance`` is the artifact's **shadow-validation contract**: the maximum
absolute deviation this model is allowed to show against an incumbent on a
golden-evidence replay before the registry lets it take traffic
(``0.0`` = bit-identical, the default; see :mod:`repro.lifecycle.registry`).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from ..faults.hooks import active_plan as _active_fault_plan
from ..faults.plan import InjectedCrash

from ..spn.compiled import CompiledTape, tape_from_payload, tape_to_payload
from ..spn.graph import SPN, StructureError
from ..spn.io import from_json as spn_from_json, to_json as spn_to_json
from ..spn.linearize import OperationList, linearize
from ..spn.memplan import MemoryPlan, plan_from_payload, plan_memory, plan_to_payload

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ArtifactFormatError",
    "ArtifactIntegrityError",
    "ModelArtifact",
    "build_artifact",
    "artifact_from_payload",
    "save_artifact",
    "load_artifact",
]

ARTIFACT_FORMAT = "repro-spn-artifact"
ARTIFACT_VERSION = 2
#: Versions this reader loads: version 1 differs only by the fusion keys.
_READABLE_VERSIONS = (1, ARTIFACT_VERSION)


class ArtifactError(StructureError):
    """Base class for artifact load failures (a :class:`StructureError`)."""


class ArtifactFormatError(ArtifactError):
    """The document is structurally malformed: wrong format marker, missing
    or truncated sections, dangling references between sections."""


class ArtifactIntegrityError(ArtifactError):
    """The document is well-formed JSON but its content hash (or a recorded
    cross-section invariant) does not match — the bytes were corrupted or
    tampered with after packaging."""


def _canonical_bytes(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


def content_hash(body: dict) -> str:
    """sha256 hex digest of the canonical JSON encoding of ``body``."""
    return hashlib.sha256(_canonical_bytes(body)).hexdigest()


@dataclass
class ModelArtifact:
    """A packaged model: SPN, compiled tape, memory plan, and provenance.

    ``tape`` already has ``plan`` adopted as its one memory plan, so
    :meth:`session` (and anything else evaluating through the tape) never
    plans and runs exactly the plan that was built, shipped and verified.
    ``ops`` is reconstructed lazily from the stored payload — cold-start
    latency pays only for what serving actually touches (the sweep query
    kinds that need the operation list resolve it on first use).
    """

    name: str
    version: str
    spn: SPN
    tape: CompiledTape
    plan: MemoryPlan
    n_vars: int
    tolerance: float = 0.0
    metadata: dict = field(default_factory=dict)
    content_hash: str = ""
    _ops_payload: Optional[dict] = field(repr=False, default=None)
    _ops: Optional[OperationList] = field(repr=False, default=None)

    @property
    def ops(self) -> OperationList:
        """The Algorithm-1 operation list (reconstructed on first access)."""
        if self._ops is None:
            if self._ops_payload is not None:
                try:
                    self._ops = OperationList.from_payload(self._ops_payload)
                except ArtifactError:
                    raise
                except StructureError as exc:
                    raise ArtifactFormatError(f"ops section: {exc}") from None
            else:
                self._ops = linearize(self.spn)
        return self._ops

    def session(self):
        """An :class:`~repro.api.session.InferenceSession` on the AOT tape.

        The session adopts the artifact's tape (and therefore its memory
        plan) into the evaluation caches, so every query kind runs on the
        shipped program with no compile or plan work.  A shipped operation
        list becomes the session's lowering of the current model.
        """
        from ..api.session import InferenceSession

        session = InferenceSession(self.spn, tape=self.tape, n_vars=self.n_vars)
        if self._ops is not None or self._ops_payload is not None:
            session._fresh("ops", lambda: self.ops, session._pin())
        return session

    def to_payload(self) -> dict:
        """The full on-disk document (body wrapped with format + hash)."""
        body = {
            "name": self.name,
            "model_version": self.version,
            "n_vars": self.n_vars,
            "tolerance": self.tolerance,
            "metadata": self.metadata,
            "spn": spn_to_json(self.spn),
            "ops": self._ops_payload
            if self._ops_payload is not None
            else self.ops.to_payload(),
            "tape": tape_to_payload(self.tape),
            "plan": plan_to_payload(self.plan),
        }
        return {
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "content_hash": content_hash(body),
            "body": body,
        }


def build_artifact(
    spn: SPN,
    name: str,
    version: str = "1",
    tolerance: float = 0.0,
    metadata: Optional[dict] = None,
    ops: Optional[OperationList] = None,
) -> ModelArtifact:
    """Compile ``spn`` and package it as a :class:`ModelArtifact`.

    This is the only place the lifecycle compiles: ``linearize`` →
    ``compile_tape`` → ``plan_memory`` run here, once, at build time; every
    later load skips all three.  ``tolerance`` records the shadow-validation
    contract the registry enforces when this artifact is published over an
    incumbent.
    """
    from ..spn.compiled import compile_tape

    if tolerance < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    # Canonicalize node ids (one io round trip: dense ids in topological
    # document order) so the packaged document is byte-stable — re-saving a
    # loaded artifact reproduces the identical body and content hash.  A
    # supplied ``ops`` is kept only if the network was already canonical;
    # otherwise its node ids would reference the pre-canonical labels.
    document = spn_to_json(spn)
    spn = spn_from_json(document)
    if ops is not None and spn_to_json(spn) != document:
        ops = None
    ops = ops if ops is not None else linearize(spn)
    tape = compile_tape(ops)
    plan = plan_memory(tape)
    tape.adopt_plan(plan)
    n_vars = max((s.var for s in tape.inputs if s.kind == "indicator"), default=-1) + 1
    artifact = ModelArtifact(
        name=name,
        version=str(version),
        spn=spn,
        tape=tape,
        plan=plan,
        n_vars=n_vars,
        tolerance=float(tolerance),
        metadata=dict(metadata or {}),
        _ops=ops,
    )
    artifact.content_hash = content_hash(artifact.to_payload()["body"])
    return artifact


def _body_field(body: dict, key: str):
    if key not in body:
        raise ArtifactFormatError(f"artifact body: missing section {key!r}")
    return body[key]


def artifact_from_payload(payload: dict) -> ModelArtifact:
    """Reconstruct a :class:`ModelArtifact` from its on-disk document.

    Load order: format/version check → content-hash verification →
    per-section reconstruction.  The hash runs first so any byte flip is
    reported as :class:`ArtifactIntegrityError`; a document whose hash is
    *consistent* but whose sections are malformed (the typed corruption a
    buggy writer produces) surfaces as :class:`ArtifactFormatError` naming
    the broken section.
    """
    if not isinstance(payload, dict) or payload.get("format") != ARTIFACT_FORMAT:
        raise ArtifactFormatError(
            f"not a {ARTIFACT_FORMAT} document (format marker missing or wrong)"
        )
    if payload.get("version") not in _READABLE_VERSIONS:
        raise ArtifactFormatError(
            f"unsupported artifact version {payload.get('version')!r}; "
            f"this reader supports versions {', '.join(map(str, _READABLE_VERSIONS))}"
        )
    body = payload.get("body")
    if not isinstance(body, dict):
        raise ArtifactFormatError("artifact body: missing or not a dict")
    recorded = payload.get("content_hash")
    actual = content_hash(body)
    if recorded != actual:
        raise ArtifactIntegrityError(
            f"content hash mismatch: recorded {recorded!r}, computed {actual!r}"
        )

    def section(key: str, loader):
        data = _body_field(body, key)
        try:
            return loader(data)
        except ArtifactError:
            raise
        except StructureError as exc:
            raise ArtifactFormatError(f"{key} section: {exc}") from None

    spn = section("spn", spn_from_json)
    tape = section("tape", tape_from_payload)
    plan = section("plan", plan_from_payload)
    ops_payload = _body_field(body, "ops")
    if not isinstance(ops_payload, dict):
        raise ArtifactFormatError("ops section: expected a dict")
    try:
        n_vars = int(_body_field(body, "n_vars"))
        tolerance = float(body.get("tolerance", 0.0))
    except (TypeError, ValueError):
        raise ArtifactFormatError("artifact body: malformed scalar field") from None
    name = _body_field(body, "name")
    version = _body_field(body, "model_version")
    if not isinstance(name, str) or not isinstance(version, str):
        raise ArtifactFormatError("artifact body: name/model_version must be strings")
    metadata = body.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ArtifactFormatError("artifact body: metadata must be a dict")

    # Cross-section invariants: the tape and plan must describe the same
    # program.  A mismatch means sections from different builds were
    # spliced together — an integrity failure, not a format one.
    if plan.n_slots != tape.n_slots or plan.n_inputs != tape.n_inputs:
        raise ArtifactIntegrityError(
            "plan/tape mismatch: the plan was built for a different tape "
            f"(plan {plan.n_inputs}+{plan.n_slots - plan.n_inputs} slots, "
            f"tape {tape.n_inputs}+{tape.n_slots - tape.n_inputs})"
        )
    # Static verification gate: the section loaders above only validate
    # *format* (ranges, record shapes); the dataflow verifier proves the
    # semantic invariants — topological order, def-before-use, liveness,
    # slot interference, root reachability — so a spliced or miscompiled
    # plan whose every index is individually in range still gets rejected
    # here rather than serving wrong numbers.
    from ..statics.verifier import VerificationError, verify_compiled

    try:
        verify_compiled(tape, plan)
    except VerificationError as exc:
        raise ArtifactIntegrityError(f"static verification failed: {exc}") from None
    tape.adopt_plan(plan)
    return ModelArtifact(
        name=name,
        version=version,
        spn=spn,
        tape=tape,
        plan=plan,
        n_vars=n_vars,
        tolerance=tolerance,
        metadata=metadata,
        content_hash=actual,
        _ops_payload=ops_payload,
    )


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Required for the rename itself to be durable (the file's own fsync
    only covers its *contents*).  Platforms that refuse ``open`` on a
    directory (some network filesystems, Windows) degrade gracefully —
    atomicity still holds, only rename durability is best-effort there.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_artifact(artifact: ModelArtifact, path: Union[str, Path]) -> Path:
    """Write the artifact document to ``path`` — atomic *and* crash-safe.

    The document is written to a sibling ``*.tmp`` file, flushed and
    fsynced, then renamed over ``path``, and the parent directory is
    fsynced so the rename itself is durable.  A crash at any point —
    including between the write and the rename (the instrumented
    ``artifact.save_crash`` fault site) — leaves either the old complete
    file or the new complete file, never a torn one, and never leaks the
    tmp file: it is unlinked on every failure path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    plan = _active_fault_plan()
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(artifact.to_payload()))
            handle.flush()
            os.fsync(handle.fileno())
        if plan is not None:
            plan.maybe_raise("artifact.save_crash", InjectedCrash)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)
    return path


def load_artifact(path: Union[str, Path]) -> ModelArtifact:
    """Read, verify, and reconstruct an artifact from ``path``.

    Unparseable JSON raises :class:`ArtifactFormatError`; hash mismatches
    raise :class:`ArtifactIntegrityError`; section-level corruption raises
    :class:`ArtifactFormatError` naming the section.  The read text passes
    through the ``artifact.load_corruption`` fault site (one seeded
    character flip when armed) — the content hash is what turns silent
    on-disk corruption into a typed load failure.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ArtifactFormatError(f"cannot read artifact {path}: {exc}") from None
    fault_plan = _active_fault_plan()
    if fault_plan is not None:
        text = fault_plan.corrupt_text("artifact.load_corruption", text)
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ArtifactFormatError(f"artifact {path} is not valid JSON: {exc}") from None
    return artifact_from_payload(payload)
