"""Tests of the benchmark itself: its declaration, its checks and its isolation."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import catalog
from perfbench.common import REFERENCE_PROBE_S, RUN_ROOT, Outcomes, scaled, values_equal
from perfbench.offline import build_models, check_prefix

from repro.api import InferenceSession, Likelihood, LogLikelihood

CHECKOUT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "perfbench/run.py"]


def test_benchmark_json_matches_catalog():
    declared = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    assert declared == catalog.benchmark_json()


def test_benchmark_json_within_its_limits():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    declared = catalog.benchmark_json()
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [w["name"] for w in declared["workloads"]]
    for workload in declared["workloads"]:
        assert name.match(workload["name"]) and len(workload["why"]) <= 200
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert name.match(metric["name"]) and unit.match(metric["unit"])
        names.append(metric["name"])
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in (
        declared["end_to_end"]
    )


@pytest.fixture(scope="module")
def banknote():
    model = build_models(["Banknote"])[0]
    reference = InferenceSession(model.session.spn, engine="python", n_vars=model.n_vars)
    return model, reference


@pytest.mark.parametrize("kind", [Likelihood, LogLikelihood])
def test_perturbed_offline_value_counts_as_failure(banknote, kind):
    model, reference = banknote
    query = kind(evidence=np.array([[0, 1, -1, 0], [1, 1, 0, 1]]))
    result = model.session.run(query)
    perturbed = result * (1 + 1e-7)
    # The default tolerances would let the perturbed answer through.
    assert np.allclose(perturbed, result)
    outcomes = Outcomes()
    outcomes.record(check_prefix(reference, query, result))
    outcomes.record(check_prefix(reference, query, perturbed))
    assert (outcomes.attempted, outcomes.failed) == (2, 1)


def test_times_scale_to_the_reference_host_speed():
    # A host at half the reference speed doubles the probe, so its times
    # halve; the median of the nearest probes ignores one probe's outlier.
    slow = 2 * REFERENCE_PROBE_S
    probes = [slow] * 6 + [5 * slow] + [slow] * 3
    assert scaled([1.0] * 10, probes) == [0.5] * 10
    assert scaled([3.0], [REFERENCE_PROBE_S]) == [3.0]


def test_served_values_must_be_bit_identical():
    value = np.array([0.25, -1.5])
    assert values_equal(value, value.copy())
    assert not values_equal(value, np.nextafter(value, np.inf))


def _snapshot(root: Path) -> dict:
    files = {}
    for path in root.rglob("*"):
        if ".git" in path.parts or not path.is_file():
            continue
        stat = path.stat()
        files[str(path.relative_to(root))] = (stat.st_size, stat.st_mtime_ns)
    return files


def _traced(workload: str) -> dict:
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "1"],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_state_isolation_and_exact_counts_repeat():
    """Running each workload twice leaves the checkout untouched and repeats counts."""
    exact = {
        "offline_analysis": ("spn.tape_slots", "spn.peak_slots"),
        "serve_open": ("lifecycle.artifact_bytes",),
        "fig4_eval": ("compiler.instructions", "processor.cycles"),
    }
    before = _snapshot(CHECKOUT)
    for workload, names in exact.items():
        first, second = _traced(workload), _traced(workload)
        for name in names:
            assert first[name] > 0
            assert first[name] == second[name], name
    after = _snapshot(CHECKOUT)
    assert not (CHECKOUT / RUN_ROOT).exists()
    assert after == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        CHECKOUT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        RUN + ["--workload", "offline_value", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
