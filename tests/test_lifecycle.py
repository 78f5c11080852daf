"""The model lifecycle: AOT artifacts, training, registry, hot-swap.

Four suites gated by the golden-replay harness (``tests/golden.py``):

* **Artifact round-trip** — save → load → execute is bit-identical
  (``array_equal``) to the freshly compiled model on every suite profile
  and every one of the ten query kinds; loading performs no compilation
  or planning (the shipped tape and plan are adopted and run).
* **Corruption** — table-driven malformed documents: every mode raises the
  typed :class:`~repro.lifecycle.artifact.ArtifactFormatError` /
  :class:`~repro.lifecycle.artifact.ArtifactIntegrityError`, never a bare
  ``KeyError``/``IndexError``.
* **Training pipeline** — learn → compile → package with the sweep-style
  on-disk cache whose entries are the artifact files themselves.
* **Registry + serving** — shadow-validated publish, atomic hot-swap with
  in-flight requests draining on the version that admitted them, rollback,
  and zero lost requests under sustained concurrent load across a swap.
"""

from __future__ import annotations

import copy
import json
import threading
import time

import numpy as np
import pytest

from repro.api.session import InferenceSession
from repro.lifecycle import (
    ModelRegistry,
    ShadowValidationError,
    TrainingJob,
    build_artifact,
    golden_evidence,
    golden_replay,
    load_artifact,
    replay_deviation,
    save_artifact,
    train_many,
)
from repro.lifecycle.artifact import (
    ArtifactError,
    ArtifactFormatError,
    ArtifactIntegrityError,
    artifact_from_payload,
    content_hash,
)
from repro.lifecycle.__main__ import main as lifecycle_main
from repro.serving import (
    InferenceClient,
    InferenceServer,
    ModelRouter,
    PublishReport,
)
from repro.spn import io as spn_io
from repro.spn.datasets import DatasetSpec
from repro.spn.generate import GeneratorConfig, generate_spn
from repro.suite.registry import benchmark_artifact, benchmark_names, build_benchmark

from golden import all_kinds_queries, assert_replays_identical, replay_queries

pytestmark = pytest.mark.lifecycle


def _small_spn(seed: int = 7, n_vars: int = 6):
    return generate_spn(GeneratorConfig(n_vars=n_vars, n_values=2, seed=seed))


def _perturbed(spn, delta: float = 0.05):
    """The same network with one sum weight nudged — a wrong-parameters twin."""
    doc = copy.deepcopy(spn_io.to_json(spn))
    for record in doc["nodes"]:
        if record["type"] == "sum" and "weights" in record:
            record["weights"][0] += delta
            return spn_io.from_json(doc)
    raise AssertionError("network has no weighted sum node")


def _document(artifact) -> dict:
    """The artifact's on-disk document, as JSON would round-trip it."""
    return json.loads(json.dumps(artifact.to_payload()))


def _rehashed(doc: dict) -> dict:
    """Recompute the content hash so structural corruption is reachable
    (without this, the integrity check masks every format error)."""
    doc["content_hash"] = content_hash(doc["body"])
    return doc


# --------------------------------------------------------------------- #
# Artifact round-trip: bit-identity across profiles and query kinds
# --------------------------------------------------------------------- #
class TestArtifactRoundTrip:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_cold_start_bit_identical_all_modes_all_kinds(self, name, tmp_path):
        """The acceptance matrix: nine profiles x ten kinds."""
        artifact = benchmark_artifact(name)
        loaded = load_artifact(save_artifact(artifact, tmp_path / "model.json"))
        assert loaded.content_hash == artifact.content_hash
        queries = all_kinds_queries(artifact.n_vars)
        fresh = InferenceSession(build_benchmark(name))
        assert_replays_identical(
            replay_queries(loaded.session(), queries), replay_queries(fresh, queries)
        )

    def test_loaded_artifact_adopts_tape_and_plan(self, tmp_path):
        """Cold start must not compile: the session's tape IS the shipped
        tape, and its one plan IS the shipped plan."""
        artifact = build_artifact(_small_spn(), name="m")
        loaded = load_artifact(save_artifact(artifact, tmp_path / "m.json"))
        session = loaded.session()
        assert session.tape is loaded.tape
        assert loaded.tape.memory_plan() is loaded.plan

    @pytest.mark.parametrize("options", [{"fuse": False}, {"fuse_width": 64}])
    def test_non_default_fusion_runs_the_shipped_plan(
        self, options, tmp_path, monkeypatch
    ):
        """Regression: an artifact planned with non-default fusion settings
        runs the plan it shipped (and that load verified) — serving a query
        after load plans nothing."""
        import repro.spn.compiled as compiled
        from repro.api import LogLikelihood
        from repro.spn.memplan import MemoryPlan

        artifact = build_artifact(_small_spn(), name="m", **options)
        loaded = load_artifact(save_artifact(artifact, tmp_path / "m.json"))
        planned, executed = [], []
        plan_memory, workspace = compiled.plan_memory, MemoryPlan.workspace

        def counting_plan_memory(*args, **kwargs):
            planned.append(args)
            return plan_memory(*args, **kwargs)

        def recording_workspace(plan, n_rows):
            executed.append(plan)
            return workspace(plan, n_rows)

        monkeypatch.setattr(compiled, "plan_memory", counting_plan_memory)
        monkeypatch.setattr(MemoryPlan, "workspace", recording_workspace)
        evidence = golden_evidence(loaded.n_vars)
        loaded.session().run(LogLikelihood(evidence=evidence))
        assert planned == []
        assert executed and all(plan is loaded.plan for plan in executed)
        assert loaded.tape.memory_plan() is loaded.plan

    def test_hash_stable_across_rewrites(self, tmp_path):
        artifact = build_artifact(_small_spn(), name="m")
        first = load_artifact(save_artifact(artifact, tmp_path / "a.json"))
        second = load_artifact(save_artifact(first, tmp_path / "b.json"))
        assert second.content_hash == artifact.content_hash

    def test_metadata_and_provenance_round_trip(self, tmp_path):
        artifact = build_artifact(
            _small_spn(), name="m", version="3", tolerance=1e-9,
            metadata={"origin": "unit-test"},
        )
        loaded = load_artifact(save_artifact(artifact, tmp_path / "m.json"))
        assert loaded.name == "m"
        assert loaded.version == "3"
        assert loaded.tolerance == 1e-9
        assert loaded.metadata == {"origin": "unit-test"}

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            build_artifact(_small_spn(), name="m", tolerance=-0.5)

    def test_golden_replay_deviation_zero(self, tmp_path):
        artifact = build_artifact(_small_spn(), name="m")
        loaded = load_artifact(save_artifact(artifact, tmp_path / "m.json"))
        evidence = golden_evidence(artifact.n_vars)
        deviation = replay_deviation(
            golden_replay(loaded.session(), evidence),
            golden_replay(artifact.session(), evidence),
        )
        assert deviation == 0.0


# --------------------------------------------------------------------- #
# Corruption: every malformed document fails with a typed error
# --------------------------------------------------------------------- #
def _truncate_tape_record(body):
    body["tape"]["kernels"][0] = body["tape"]["kernels"][0][:5]

def _truncate_tape_operands(body):
    body["tape"]["kernels"][-1][4] = body["tape"]["kernels"][-1][4][:-1]

def _bad_tape_opcode(body):
    body["tape"]["kernels"][0][1] = "pow"

def _tape_root_out_of_range(body):
    body["tape"]["root_slot"] = 10**9

def _dangling_spn_child(body):
    for record in body["spn"]["nodes"]:
        if record["type"] in ("sum", "product"):
            record["children"][0] = 9999
            return
    raise AssertionError("spn section has no inner node")

def _drop_tape_section(body):
    del body["tape"]

def _drop_plan_scalar(body):
    del body["plan"]["n_physical"]

def _truncate_plan_kernels(body):
    body["plan"]["kernels"] = []

def _name_not_a_string(body):
    body["name"] = 7

def _malformed_n_vars(body):
    body["n_vars"] = "many"

def _metadata_not_a_dict(body):
    body["metadata"] = ["not", "a", "dict"]


# Semantic corruptions: every record below passes the per-section format
# checks (all indices in range, shapes consistent, hash rehashed) and the
# plan/tape cross-check — only the static dataflow verifier rejects them.
def _reorder_plan_kernels(body):
    body["plan"]["kernels"].reverse()

def _alias_plan_dest(body):
    n_physical = body["plan"]["n_physical"]
    for record in body["plan"]["kernels"]:
        start, stop = record["dest"]
        if stop + 1 <= n_physical:
            record["dest"] = [start + 1, stop + 1]
            return
    raise AssertionError("no plan kernel with room to shift its dest")

def _inject_dead_tape_kernel(body):
    kernels = body["tape"]["kernels"]
    n_slots = len(body["tape"]["inputs"]) + sum(
        record[3] - record[2] for record in kernels
    )
    root = body["tape"]["root_slot"]
    last_level = kernels[-1][0]
    kernels.append([last_level + 1, "mul", n_slots, n_slots + 1, [root], [root]])
    # Keep the plan/tape slot-count cross-check satisfied so the *only*
    # remaining net is the static verifier's dead-code detection.
    body["plan"]["n_slots"] += 1

def _understate_max_live(body):
    body["plan"]["max_live"] -= 1

def _redirect_plan_root(body):
    body["plan"]["root_phys"] = (
        body["plan"]["root_phys"] + 1
    ) % body["plan"]["n_physical"]


class TestArtifactCorruption:
    FORMAT_CORRUPTIONS = {
        "tape-truncated-record": _truncate_tape_record,
        "tape-truncated-operands": _truncate_tape_operands,
        "tape-bad-opcode": _bad_tape_opcode,
        "tape-root-out-of-range": _tape_root_out_of_range,
        "spn-dangling-child": _dangling_spn_child,
        "missing-tape-section": _drop_tape_section,
        "plan-missing-scalar": _drop_plan_scalar,
        "plan-truncated-kernels": _truncate_plan_kernels,
        "name-not-a-string": _name_not_a_string,
        "malformed-n-vars": _malformed_n_vars,
        "metadata-not-a-dict": _metadata_not_a_dict,
    }

    @pytest.fixture(scope="class")
    def artifact(self):
        return build_artifact(_small_spn(), name="m")

    @pytest.mark.parametrize("mode", sorted(FORMAT_CORRUPTIONS))
    def test_structural_corruption_is_a_format_error(self, artifact, mode):
        doc = _document(artifact)
        self.FORMAT_CORRUPTIONS[mode](doc["body"])
        with pytest.raises(ArtifactFormatError):
            artifact_from_payload(_rehashed(doc))

    def test_byte_flip_is_an_integrity_error(self, artifact):
        # No rehash: the mutation leaves the recorded hash stale, exactly
        # like disk corruption or tampering after packaging.
        doc = _document(artifact)
        doc["body"]["n_vars"] += 1
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            artifact_from_payload(doc)
        assert "content hash mismatch" in str(excinfo.value)

    def test_spliced_plan_is_an_integrity_error(self, artifact):
        # A plan from a different build: hash-consistent (rehashed) but
        # inconsistent with the tape it ships next to.
        other = build_artifact(_small_spn(seed=12, n_vars=9), name="other")
        doc = _document(artifact)
        doc["body"]["plan"] = _document(other)["body"]["plan"]
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            artifact_from_payload(_rehashed(doc))
        assert "plan/tape mismatch" in str(excinfo.value)

    STATIC_CORRUPTIONS = {
        "plan-reordered-kernels": _reorder_plan_kernels,
        "plan-slot-aliasing": _alias_plan_dest,
        "tape-injected-dead-kernel": _inject_dead_tape_kernel,
        "plan-understated-max-live": _understate_max_live,
        "plan-root-redirect": _redirect_plan_root,
    }

    @pytest.mark.parametrize("mode", sorted(STATIC_CORRUPTIONS))
    def test_semantic_corruption_is_caught_statically(self, artifact, mode):
        """Format-clean but semantically corrupt documents are rejected by
        the static verification gate inside ``artifact_from_payload``."""
        doc = _document(artifact)
        self.STATIC_CORRUPTIONS[mode](doc["body"])
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            artifact_from_payload(_rehashed(doc))
        assert "static verification failed" in str(excinfo.value)

    def test_semantic_corruption_rejected_at_load(self, artifact, tmp_path):
        """The same gate protects the file-loading path serving cold-starts
        through (`load_artifact`), not just in-memory reconstruction."""
        doc = _document(artifact)
        _redirect_plan_root(doc["body"])
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(_rehashed(doc)))
        with pytest.raises(ArtifactIntegrityError):
            load_artifact(path)

    def test_wrong_format_marker(self, artifact):
        doc = _document(artifact)
        doc["format"] = "not-an-artifact"
        with pytest.raises(ArtifactFormatError):
            artifact_from_payload(doc)

    def test_unsupported_version(self, artifact):
        doc = _document(artifact)
        doc["version"] = 999
        with pytest.raises(ArtifactFormatError):
            artifact_from_payload(doc)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ArtifactFormatError):
            load_artifact(tmp_path / "absent.json")

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ArtifactFormatError):
            load_artifact(path)

    def test_corrupt_ops_surfaces_on_first_access(self, artifact):
        # The ops section is reconstructed lazily; corruption there must
        # still raise the typed error, just at .ops time.
        doc = _document(artifact)
        doc["body"]["ops"]["operations"][0] = doc["body"]["ops"]["operations"][0][:3]
        loaded = artifact_from_payload(_rehashed(doc))
        with pytest.raises(ArtifactFormatError):
            loaded.ops

    def test_every_artifact_error_is_a_structure_error(self):
        from repro.spn.graph import StructureError

        assert issubclass(ArtifactFormatError, ArtifactError)
        assert issubclass(ArtifactIntegrityError, ArtifactError)
        assert issubclass(ArtifactError, StructureError)


# --------------------------------------------------------------------- #
# Training pipeline: learn -> compile -> package, cached like the sweeps
# --------------------------------------------------------------------- #
class TestTrainingPipeline:
    JOBS = [
        TrainingJob(name="a", dataset=DatasetSpec(n_vars=6, n_rows=300, seed=1)),
        TrainingJob(name="b", dataset=DatasetSpec(n_vars=5, n_rows=200, seed=2)),
    ]

    def test_cache_round_trip_is_bit_identical(self, tmp_path):
        first = train_many(self.JOBS, parallel=False, artifact_dir=tmp_path)
        assert [r.cached for r in first] == [False, False]
        second = train_many(self.JOBS, parallel=False, artifact_dir=tmp_path)
        assert [r.cached for r in second] == [True, True]
        for miss, hit in zip(first, second):
            assert hit.artifact.content_hash == miss.artifact.content_hash
            evidence = golden_evidence(miss.artifact.n_vars)
            assert replay_deviation(
                golden_replay(hit.artifact.session(), evidence),
                golden_replay(miss.artifact.session(), evidence),
            ) == 0.0

    def test_corrupted_cache_entry_is_recomputed(self, tmp_path):
        first = train_many(self.JOBS[:1], parallel=False, artifact_dir=tmp_path)
        path = first[0].path
        path.write_text(path.read_text(encoding="utf-8")[:-40], encoding="utf-8")
        second = train_many(self.JOBS[:1], parallel=False, artifact_dir=tmp_path)
        assert second[0].cached is False
        assert load_artifact(path).content_hash == first[0].artifact.content_hash

    def test_provenance_metadata(self):
        result = train_many(self.JOBS[:1], parallel=False, artifact_dir=None)[0]
        metadata = result.artifact.metadata
        assert metadata["trained"] is True
        assert metadata["dataset"]["n_vars"] == 6
        assert metadata["learn_config"]["seed"] == 0
        assert result.artifact.n_vars == 6

    def test_uncached_mode_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        results = train_many(self.JOBS[:1], parallel=False, artifact_dir=None)
        assert results[0].path is None
        assert not any(tmp_path.iterdir())


# --------------------------------------------------------------------- #
# Registry: publish / shadow validation / hot-swap / rollback
# --------------------------------------------------------------------- #
class TestModelRegistry:
    def _session(self, spn):
        return InferenceSession(spn, engine="vectorized")

    def test_publish_and_resolve(self):
        registry = ModelRegistry()
        report = registry.publish("m", "1", self._session(_small_spn()))
        assert report == PublishReport(
            name="m", version="1", previous_version=None, validated=False
        )
        assert registry.live_version("m") == "1"
        assert registry.names() == ["m"]
        assert registry.versions("m") == ["1"]

    def test_identical_candidate_validates_bit_identically(self):
        spn = _small_spn()
        registry = ModelRegistry()
        registry.publish("m", "1", self._session(spn))
        report = registry.publish("m", "2", self._session(spn))
        assert report.validated is True
        assert report.deviation == 0.0
        assert registry.live_version("m") == "2"

    def test_perturbed_candidate_rejected_registry_untouched(self):
        spn = _small_spn()
        registry = ModelRegistry()
        registry.publish("m", "1", self._session(spn))
        with pytest.raises(ShadowValidationError) as excinfo:
            registry.publish("m", "2", self._session(_perturbed(spn)))
        assert excinfo.value.deviation > 0.0
        assert registry.live_version("m") == "1"
        assert registry.versions("m") == ["1"]

    def test_recorded_tolerance_admits_small_deviation(self):
        spn = _small_spn()
        registry = ModelRegistry()
        registry.publish("m", "1", self._session(spn))
        candidate = build_artifact(_perturbed(spn, 1e-4), name="m", tolerance=1.0)
        report = registry.publish(
            "m", "2", candidate.session(), artifact=candidate
        )
        assert 0.0 < report.deviation <= 1.0
        assert registry.live_version("m") == "2"

    def test_duplicate_version_rejected(self):
        registry = ModelRegistry()
        registry.publish("m", "1", self._session(_small_spn()))
        with pytest.raises(ValueError):
            registry.publish("m", "1", self._session(_small_spn()), validate=False)

    def test_rollback_default_and_explicit(self):
        spn = _small_spn()
        registry = ModelRegistry()
        registry.publish("m", "1", self._session(spn))
        registry.publish("m", "2", self._session(spn))
        registry.publish("m", "3", self._session(spn))
        assert registry.rollback("m").version == "2"
        assert registry.live_version("m") == "2"
        assert registry.rollback("m", "1").version == "1"
        # Versions stay installed across rollbacks (no history rewrite).
        assert registry.versions("m") == ["1", "2", "3"]

    def test_rollback_errors(self):
        registry = ModelRegistry()
        with pytest.raises(KeyError):
            registry.rollback("absent")
        registry.publish("m", "1", self._session(_small_spn()))
        with pytest.raises(ValueError):
            registry.rollback("m")  # nothing older than the first version
        with pytest.raises(KeyError):
            registry.rollback("m", "99")

    def test_resolve_pins_across_swap(self):
        spn = _small_spn()
        registry = ModelRegistry()
        registry.publish("m", "1", self._session(spn))
        pinned = registry.resolve("m")
        registry.publish("m", "2", self._session(spn))
        assert pinned.version == "1"
        assert registry.resolve("m").version == "2"


# --------------------------------------------------------------------- #
# Serving: hot-swap under load, in-flight pinning, rollback, clients
# --------------------------------------------------------------------- #
class TestServerLifecycle:
    def test_artifact_cold_start_serves_bit_identically(self, tmp_path):
        artifact = build_artifact(_small_spn(), name="m", version="1")
        loaded = load_artifact(save_artifact(artifact, tmp_path / "m.json"))
        evidence = golden_evidence(artifact.n_vars)
        want = golden_replay(artifact.session(), evidence)["log_likelihood"]
        with InferenceServer(models=[loaded]) as server:
            got = server.query("m", evidence, kind="log_likelihood")
        assert np.array_equal(np.asarray(got), want)

    def test_publish_hot_swap_and_rollback(self):
        spn = _small_spn()
        art1 = build_artifact(spn, name="m", version="1")
        art2 = build_artifact(spn, name="m", version="2")
        evidence = golden_evidence(art1.n_vars)
        want = golden_replay(art1.session(), evidence)["log_likelihood"]
        with InferenceServer(models=[art1]) as server:
            client = InferenceClient(server, "m")
            report = server.publish("m", "2", art2)
            assert report.validated is True and report.deviation == 0.0
            assert client.live_version() == "2"
            assert np.array_equal(np.asarray(client.log_likelihood(evidence)), want)
            rolled = server.rollback("m")
            assert rolled.version == "1"
            assert client.live_version() == "1"
            assert np.array_equal(np.asarray(client.log_likelihood(evidence)), want)

    def test_shadow_validation_rejects_perturbed_candidate(self):
        spn = _small_spn()
        art1 = build_artifact(spn, name="m", version="1")
        bad = build_artifact(_perturbed(spn), name="m", version="2")
        evidence = golden_evidence(art1.n_vars)
        want = golden_replay(art1.session(), evidence)["log_likelihood"]
        with InferenceServer(models=[art1]) as server:
            with pytest.raises(ShadowValidationError):
                server.publish("m", "2", bad)
            # Incumbent untouched: still live, still serving, and the
            # rejected version was never installed.
            assert server.live_version("m") == "1"
            assert server.versions("m") == ["1"]
            got = server.query("m", evidence, kind="log_likelihood")
            assert np.array_equal(np.asarray(got), want)

    def test_inflight_requests_drain_on_admitting_version(self):
        """Deterministic pinning: R1 is admitted under v1 and blocked inside
        the v1 engine call; the swap to v2 happens while R1 is in flight;
        R2 is admitted under v2.  Releasing the gate must complete R1 with
        v1's values and R2 with v2's."""
        spn1, spn2 = _small_spn(seed=7), _small_spn(seed=11)
        art1 = build_artifact(spn1, name="m", version="1")
        art2 = build_artifact(spn2, name="m", version="2")
        evidence = golden_evidence(art1.n_vars)
        want1 = golden_replay(art1.session(), evidence)["log_likelihood"]
        want2 = golden_replay(art2.session(), evidence)["log_likelihood"]
        assert not np.array_equal(want1, want2)
        server = InferenceServer(models=[art1], n_workers=1).start()
        try:
            gate, picked = threading.Event(), threading.Event()

            def hook(kind, n_rows):
                picked.set()
                gate.wait(timeout=10)

            v1_session = server.model("m").session
            v1_session.on_evaluate = hook
            f1 = server.submit("m", evidence, kind="log_likelihood")
            assert picked.wait(timeout=10), "worker never started on R1"
            v1_session.on_evaluate = None
            # validate=False: shadow validation replays the incumbent
            # session, which is blocked on the gate right now.
            server.publish("m", "2", art2, validate=False)
            assert server.live_version("m") == "2"
            f2 = server.submit("m", evidence, kind="log_likelihood")
            gate.set()
            assert np.array_equal(np.asarray(f1.result(timeout=10)), want1)
            assert np.array_equal(np.asarray(f2.result(timeout=10)), want2)
        finally:
            server.stop()

    def test_hot_swap_under_sustained_load_loses_nothing(self):
        """Producer threads hammer the server across a hot-swap to a
        *different* model: every response arrives, and every response is
        bit-exactly v1's answer or v2's answer — never a mix, never
        garbage."""
        spn1, spn2 = _small_spn(seed=7), _small_spn(seed=11)
        art1 = build_artifact(spn1, name="m", version="1")
        art2 = build_artifact(spn2, name="m", version="2")
        evidence = golden_evidence(art1.n_vars, n_rows=8)
        want1 = golden_replay(art1.session(), evidence)["log_likelihood"]
        want2 = golden_replay(art2.session(), evidence)["log_likelihood"]
        assert not np.array_equal(want1, want2)
        stop = threading.Event()
        results, errors = [], []
        lock = threading.Lock()
        server = InferenceServer(models=[art1], n_workers=2).start()

        def producer():
            futures = []
            while not stop.is_set():
                try:
                    futures.append(server.submit("m", evidence, kind="log_likelihood"))
                except BaseException as exc:  # noqa: BLE001 - recorded below
                    with lock:
                        errors.append(exc)
                    return
            for future in futures:
                try:
                    value = np.asarray(future.result(timeout=30))
                except BaseException as exc:  # noqa: BLE001 - recorded below
                    with lock:
                        errors.append(exc)
                else:
                    with lock:
                        results.append(value)

        threads = [threading.Thread(target=producer) for _ in range(3)]
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.05)  # let load build up on v1
            server.publish("m", "2", art2, validate=False)
            time.sleep(0.05)  # sustained post-swap traffic window
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            server.stop()
        assert not errors, f"lost/failed requests: {errors[:3]}"
        assert results, "no requests completed"
        n_v1 = sum(1 for value in results if np.array_equal(value, want1))
        n_v2 = sum(1 for value in results if np.array_equal(value, want2))
        assert n_v1 + n_v2 == len(results), "a response matched neither version"
        assert n_v2 > 0, "no request ran on the new version after the swap"

    def test_duplicate_hosting_rejected(self):
        art = build_artifact(_small_spn(), name="m", version="1")
        server = InferenceServer(models=[art])
        with pytest.raises(ValueError):
            server.add_artifact(art)

    def test_router_publish_routes_to_hosting_server(self):
        art1 = build_artifact(_small_spn(), name="m", version="1")
        art2 = build_artifact(_small_spn(), name="m", version="2")
        server = InferenceServer(models=[art1]).start()
        router = ModelRouter(routes={"m": server})
        try:
            report = router.publish("m", "2", art2)
            assert isinstance(report, PublishReport)
            assert server.live_version("m") == "2"
        finally:
            server.stop()


# --------------------------------------------------------------------- #
# CLI: the build / serve-check loop CI runs
# --------------------------------------------------------------------- #
class TestLifecycleCli:
    def test_build_and_serve_check_suite_profile(self, tmp_path, capsys):
        out = tmp_path / "banknote.json"
        assert lifecycle_main(["build", "--model", "Banknote", "--out", str(out)]) == 0
        assert lifecycle_main(["serve-check", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "PASS" in stdout

    def test_build_trained_model(self, tmp_path):
        out = tmp_path / "learned.json"
        code = lifecycle_main(
            ["build", "--train", "--n-vars", "6", "--n-rows", "200",
             "--out", str(out)]
        )
        assert code == 0
        assert load_artifact(out).metadata["trained"] is True
        assert lifecycle_main(["serve-check", str(out), "--rows", "16"]) == 0

    def test_serve_check_fails_on_tampered_artifact(self, tmp_path, capsys):
        """A tampered-but-rehashed artifact (wrong weights smuggled into the
        spn section, tape untouched) loads — and serve-check's golden
        replay against the shipped tape catches the disagreement."""
        artifact = build_artifact(_small_spn(), name="m")
        doc = _document(artifact)
        _dangling_spn_child(doc["body"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_rehashed(doc)), encoding="utf-8")
        with pytest.raises(ArtifactFormatError):
            lifecycle_main(["serve-check", str(path)])

    def test_build_requires_model_or_train(self, tmp_path, capsys):
        code = lifecycle_main(["build", "--out", str(tmp_path / "x.json")])
        assert code == 2


# --------------------------------------------------------------------- #
# Robustness: crash-safe saves, corrupted loads, crashed publishes
# --------------------------------------------------------------------- #
class TestLifecycleRobustness:
    def test_crashed_save_leaves_old_file_and_no_tmp(self, tmp_path):
        from repro.faults import FaultPlan, FaultSpec, InjectedCrash, fault_scope

        artifact = build_artifact(_small_spn(), name="m", version="1")
        path = save_artifact(artifact, tmp_path / "m.json")
        before = path.read_text(encoding="utf-8")
        newer = build_artifact(_small_spn(), name="m", version="2")
        plan = FaultPlan(seed=0, specs=[FaultSpec("artifact.save_crash")])
        with fault_scope(plan):
            with pytest.raises(InjectedCrash):
                save_artifact(newer, path)
        # The crash hit between the tmp write and the rename: the old
        # complete document survives and the tmp file does not.
        assert path.read_text(encoding="utf-8") == before
        assert list(tmp_path.glob("*.tmp")) == []
        assert load_artifact(path).version == "1"

    def test_failed_write_never_leaks_the_tmp_file(self, tmp_path, monkeypatch):
        """The non-injected failure path: serialization dying mid-write
        must also unlink the tmp file (satellite: tmp never survives)."""
        artifact = build_artifact(_small_spn(), name="m")
        monkeypatch.setattr(
            type(artifact), "to_payload",
            lambda self: (_ for _ in ()).throw(RuntimeError("serializer died")),
        )
        with pytest.raises(RuntimeError, match="serializer died"):
            save_artifact(artifact, tmp_path / "m.json")
        assert list(tmp_path.iterdir()) == []  # no tmp, no partial target

    def test_corrupted_load_fails_typed(self, tmp_path):
        from repro.faults import FaultPlan, FaultSpec, fault_scope

        artifact = build_artifact(_small_spn(), name="m")
        path = save_artifact(artifact, tmp_path / "m.json")
        plan = FaultPlan(seed=4, specs=[FaultSpec("artifact.load_corruption")])
        with fault_scope(plan):
            # One seeded character flip: either the JSON no longer parses
            # (format error) or the content hash disagrees (integrity
            # error) — never a silent wrong model, never a bare KeyError.
            with pytest.raises(ArtifactError):
                load_artifact(path)
        assert load_artifact(path).name == "m"  # the file itself is fine

    def test_crashed_publish_keeps_incumbent_serving(self):
        from repro.faults import FaultPlan, FaultSpec, InjectedCrash, fault_scope

        spn = _small_spn()
        art1 = build_artifact(spn, name="m", version="1")
        art2 = build_artifact(spn, name="m", version="2")
        evidence = golden_evidence(art1.n_vars)
        want = golden_replay(art1.session(), evidence)["log_likelihood"]
        plan = FaultPlan(seed=0, specs=[FaultSpec("lifecycle.publish_crash")])
        with InferenceServer(models=[art1]) as server:
            with fault_scope(plan):
                with pytest.raises(InjectedCrash):
                    server.publish("m", "2", art2)
                # Crashed after validation, before the pointer flip: the
                # incumbent is live, the candidate was never installed,
                # and requests keep serving bit-identical values.
                assert server.live_version("m") == "1"
                assert server.versions("m") == ["1"]
                got = server.query("m", evidence, kind="log_likelihood")
                assert np.array_equal(np.asarray(got), want)
            # Chaos off again: the same publish now succeeds.
            report = server.publish("m", "2", art2)
            assert report.validated is True
            assert server.live_version("m") == "2"
