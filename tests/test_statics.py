"""Static verification layer tests: verifier, abstract interpretation, lint.

The acceptance contract this file enforces:

* **Zero false positives** — every suite profile verifies clean, the tape
  alone (the dense executor's contract) and with fused and unfused plans,
  and so do random RAT-SPN tapes drawn by Hypothesis.
* **100% detection** — every mutator in the seeded corpus
  (:mod:`repro.statics.mutate`) produces IR the verifier rejects, on every
  suite profile, for randomized mutation sites.
* The abstract interpreter proves normalization for all nine profiles and
  flags the PR 4 underflow bug class on deep product chains.
* The project lint's rules each fire on a seeded violation, stay quiet on
  the repository's known-correct concurrency patterns, and the tree under
  ``src/repro`` is clean with no suppressions.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.lifecycle.artifact import build_artifact, save_artifact
from repro.lifecycle.registry import ModelRegistry
from repro.spn.compiled import CompiledTape, TapeKernel, cached_tape
from repro.spn.generate import GeneratorConfig, generate_rat_spn, generate_spn
from repro.spn.evaluate import evaluate_batch
from repro.spn.linearize import OP_MUL, InputSlot
from repro.spn.memplan import plan_memory
from repro.statics import (
    LOG_TINY,
    MUTATORS,
    VerificationError,
    analyze_tape,
    lint_paths,
    lint_source,
    mutate,
    verify_compiled,
    verify_tape,
)
from repro.suite.registry import benchmark_names, benchmark_tape

from strategies import rat_spn_configs

pytestmark = pytest.mark.statics

_SETTINGS = settings(max_examples=25, deadline=None)

_REPRO_ROOT = Path(repro.__file__).parent


# --------------------------------------------------------------------- #
# Zero false positives
# --------------------------------------------------------------------- #
class TestCleanVerification:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_suite_profiles_verify_clean_all_modes(self, name):
        """The tape alone (the dense executor) and the tape with fused and
        unfused plans all verify with no findings — the zero-false-positive
        half of the acceptance criteria."""
        tape = benchmark_tape(name)
        tape_facts, _ = verify_compiled(tape, None)  # the tape alone
        assert tape_facts.n_kernels == tape.n_kernels
        assert tape_facts.n_dead_slots == 0
        for plan in (tape.memory_plan(), plan_memory(tape, fuse=False)):
            _, plan_facts = verify_compiled(tape, plan)
            assert plan_facts.n_physical == plan.n_physical
            assert plan_facts.fusion >= 1.0

    @_SETTINGS
    @given(config=rat_spn_configs())
    def test_random_tapes_verify_clean(self, config):
        """Freshly compiled+planned IR never trips the verifier."""
        tape = cached_tape(generate_rat_spn(config))
        verify_compiled(tape, tape.memory_plan())

    def test_verify_reports_facts(self):
        tape = benchmark_tape("Banknote")
        tape_facts, plan_facts = verify_compiled(tape, tape.memory_plan())
        assert tape_facts.n_inputs == tape.n_inputs
        assert tape_facts.n_operations == tape.n_operations
        assert plan_facts.n_physical <= tape.n_slots
        assert plan_facts.max_live <= plan_facts.n_physical


# --------------------------------------------------------------------- #
# 100% mutation detection
# --------------------------------------------------------------------- #
class TestMutationDetection:
    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_corpus_detected_on_every_profile(self, mutator):
        """The deterministic full matrix: every mutator applies to every
        suite profile and every application is flagged."""
        for name in benchmark_names():
            tape = benchmark_tape(name)
            plan = tape.memory_plan()
            result = mutate(mutator, tape, plan, seed=3)
            assert result is not None, f"{mutator} inapplicable to {name}"
            with pytest.raises(VerificationError):
                verify_compiled(*result)

    @_SETTINGS
    @given(
        name=st.sampled_from(benchmark_names()),
        mutator=st.sampled_from(sorted(MUTATORS)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_randomized_mutation_sites_detected(self, name, mutator, seed):
        """Random (profile, mutator, site) triples — the mutation site is
        seed-chosen, so this explores kernels/lanes the deterministic
        matrix never touches."""
        tape = benchmark_tape(name)
        plan = tape.memory_plan()
        result = mutate(mutator, tape, plan, seed=seed)
        assert result is not None
        with pytest.raises(VerificationError):
            verify_compiled(*result)

    def test_error_carries_rule_and_detail(self):
        tape = benchmark_tape("Banknote")
        plan = tape.memory_plan()
        mutated_tape, mutated_plan = mutate("plan_root_redirect", tape, plan)
        with pytest.raises(VerificationError) as excinfo:
            verify_compiled(mutated_tape, mutated_plan)
        assert excinfo.value.rule == "plan-root"
        assert "[plan-root]" in str(excinfo.value)


# --------------------------------------------------------------------- #
# Gates: execution check mode, registry publication
# --------------------------------------------------------------------- #
class TestGates:
    def test_check_mode_runs_static_verification(self):
        """``check=True`` statically verifies the tape's plan before the
        value cross-check — a corrupted plan is rejected even though its
        values on the prefix rows might agree."""
        spn = generate_spn(GeneratorConfig(n_vars=5, seed=3))
        plan = cached_tape(spn).memory_plan()
        plan.max_live -= 1  # liveness understated: values still correct
        data = np.full((4, 5), -1, dtype=np.int64)
        with pytest.raises(VerificationError):
            evaluate_batch(spn, data, engine="vectorized", check=True)
        plan.max_live += 1
        evaluate_batch(spn, data, engine="vectorized", check=True)
        assert getattr(plan, "_statics_verified", False)

    def test_publish_gate_rejects_corrupt_artifact(self):
        spn = generate_spn(GeneratorConfig(n_vars=5, seed=11))
        artifact = build_artifact(spn, name="m")
        registry = ModelRegistry()
        registry.publish("m", "1", artifact.session(), artifact=artifact)
        corrupt = build_artifact(spn, name="m")
        corrupt.plan.max_live -= 1
        with pytest.raises(VerificationError):
            registry.publish("m", "2", corrupt.session(), artifact=corrupt)
        assert registry.live_version("m") == "1"  # incumbent untouched


# --------------------------------------------------------------------- #
# Abstract interpretation
# --------------------------------------------------------------------- #
class TestAbstractInterpretation:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_suite_tapes_proved_normalized(self, name):
        """Every suite profile is normalized-by-construction: the interval
        domain proves log-domain outputs can never exceed 0."""
        analysis = analyze_tape(benchmark_tape(name))
        assert analysis.proves_log_nonpositive
        assert analysis.root_log_upper <= 1e-6
        assert not analysis.overflow_possible
        # Indicator misses can drive any profile's root to exactly 0.
        assert analysis.zero_possible

    def test_underflow_risk_flags_deep_profiles(self):
        """The PR 4 bug class, statically: the two 160-variable profiles
        have positive root values whose logs sit far below the smallest
        normal double, so a linear-domain pass may underflow them to 0.0;
        the shallower seven provably cannot."""
        risky = {
            name
            for name in benchmark_names()
            if analyze_tape(benchmark_tape(name)).underflow_risk
        }
        assert risky == {"BBC", "Bio response"}

    def test_deep_product_chain_flagged(self):
        """A 250-deep chain of 0.01 factors: positive, normalized, and
        guaranteed to underflow linear float64 (log ~ -1150 < -708)."""
        inputs = [
            InputSlot(index=0, kind="parameter", prob=0.01),
            InputSlot(index=1, kind="parameter", prob=0.01),
        ]
        kernels = [
            TapeKernel(
                level=1, op=OP_MUL, dest_start=2, dest_stop=3,
                arg0=np.array([0], dtype=np.intp),
                arg1=np.array([1], dtype=np.intp),
            )
        ]
        for depth in range(2, 250):
            kernels.append(
                TapeKernel(
                    level=depth, op=OP_MUL,
                    dest_start=depth + 1, dest_stop=depth + 2,
                    arg0=np.array([depth], dtype=np.intp),
                    arg1=np.array([0], dtype=np.intp),
                )
            )
        tape = CompiledTape(inputs=inputs, kernels=kernels, root_slot=250)
        verify_tape(tape)  # well-formed: the flag is semantic, not an error
        analysis = analyze_tape(tape)
        assert analysis.proves_log_nonpositive
        assert not analysis.zero_possible
        assert analysis.min_positive_log < LOG_TINY
        assert analysis.underflow_risk

    def test_shallow_tape_not_flagged(self):
        analysis = analyze_tape(benchmark_tape("Banknote"))
        assert not analysis.underflow_risk
        assert analysis.min_positive_log > LOG_TINY

    @pytest.mark.parametrize("name", benchmark_names())
    def test_linear_floor_reported_for_suite_tapes(self, name):
        """The floor the tape's log passes use, proved once per tape: the
        suite's gains K run from 47 (Banknote) to 1119 (BBC, Bio
        response), so every floor sits within a few binades of 2**-1022."""
        tape = benchmark_tape(name)
        analysis = analyze_tape(tape)
        assert analysis.linear_floor == tape.linear_floor()
        assert 2.0**-1016 < analysis.linear_floor <= 2.0**-1010

    def test_negative_weight_rejected_before_analysis(self):
        """analyze_tape assumes verify_tape's non-negativity — and
        verify_tape does reject the violation."""
        tape = benchmark_tape("Banknote")
        mutated_tape, _ = mutate("tape_negative_weight", tape, tape.memory_plan())
        with pytest.raises(VerificationError) as excinfo:
            verify_tape(mutated_tape)
        assert excinfo.value.rule == "tape-input-domain"


# --------------------------------------------------------------------- #
# Project lint
# --------------------------------------------------------------------- #
class TestLint:
    def test_tree_is_clean(self):
        """The gate CI enforces: zero findings over src/repro, with no
        suppression mechanism even available."""
        assert lint_paths([_REPRO_ROOT]) == []

    def test_bare_except_flagged(self):
        findings = lint_source("try:\n    pass\nexcept:\n    pass\n")
        assert [f.rule for f in findings] == ["bare-except"]

    def test_guarded_write_outside_lock_flagged(self):
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.count = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.count += 1\n"
            "    def reset(self):\n"
            "        self.count = 0\n"
        )
        findings = lint_source(source)
        assert [(f.rule, f.line) for f in findings] == [("lock-guarded-write", 10)]

    def test_constructor_writes_exempt(self):
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.count = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.count += 1\n"
        )
        assert lint_source(source) == []

    def test_blocking_calls_under_lock_flagged(self):
        source = (
            "import threading, time\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def work(self, fut, thread):\n"
            "        with self._lock:\n"
            "            time.sleep(0.1)\n"
            "            fut.result()\n"
            "            thread.join()\n"
        )
        findings = lint_source(source)
        assert [f.rule for f in findings] == ["blocking-under-lock"] * 3

    def test_wait_on_held_condition_allowed(self):
        """The MicroBatchQueue shape: Condition(self._lock) aliases the
        lock, and waiting on the held condition releases it — sound."""
        source = (
            "import threading\n"
            "class Q:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._cv = threading.Condition(self._lock)\n"
            "        self._items = []\n"
            "    def take(self):\n"
            "        with self._cv:\n"
            "            while not self._items:\n"
            "                self._cv.wait()\n"
            "            return self._items.pop()\n"
        )
        assert lint_source(source) == []

    def test_wait_on_foreign_condition_flagged(self):
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._other = threading.Condition()\n"
            "    def f(self):\n"
            "        with self._lock:\n"
            "            self._other.wait()\n"
        )
        findings = lint_source(source)
        assert [f.rule for f in findings] == ["blocking-under-lock"]

    def test_locked_helper_not_flagged(self):
        """A private helper only ever called under the lock (documented
        caller-holds-lock) is analyzed as locked, not flagged."""
        source = (
            "import threading\n"
            "class Q:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = []\n"
            "    def put(self, x):\n"
            "        with self._lock:\n"
            "            self._items.append(x)\n"
            "    def take(self):\n"
            "        with self._lock:\n"
            "            return self._pop()\n"
            "    def _pop(self):\n"
            "        self._items.pop()\n"
        )
        assert lint_source(source) == []

    def test_unseeded_random_flagged_on_hot_paths_only(self):
        source = "import numpy as np\ndef f():\n    return np.random.rand(3)\n"
        assert [f.rule for f in lint_source(source, hot_path=True)] == [
            "unseeded-random"
        ]
        assert lint_source(source, hot_path=False) == []
        # Path-derived: spn/ is hot, experiments/ is not.
        assert lint_source(source, path="src/repro/spn/x.py") != []
        assert lint_source(source, path="src/repro/experiments/x.py") == []

    def test_seeded_random_allowed(self):
        source = (
            "import numpy as np\n"
            "def f(seed):\n"
            "    return np.random.default_rng(seed).random(3)\n"
        )
        assert lint_source(source, hot_path=True) == []

    def test_closure_bodies_skipped(self):
        """Work handed to an executor runs on another thread later —
        lexical lock context proves nothing, so closures are not flagged."""
        source = (
            "import threading, time\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def schedule(self, pool):\n"
            "        with self._lock:\n"
            "            def job():\n"
            "                time.sleep(1)\n"
            "            pool.submit(job)\n"
        )
        assert lint_source(source) == []

    def test_broad_except_swallowing_flagged(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except BaseException:\n"
            "        pass\n"
        )
        assert [f.rule for f in lint_source(source)] == ["broad-except"]

    def test_broad_except_reraise_allowed(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except BaseException:\n"
            "        cleanup()\n"
            "        raise\n"
        )
        assert lint_source(source) == []

    def test_broad_except_conditional_reraise_allowed(self):
        """The retry-loop shape: re-raise unless the error is retryable."""
        source = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except BaseException as exc:\n"
            "        if not retryable(exc):\n"
            "            raise\n"
        )
        assert lint_source(source) == []

    def test_broad_except_forwarding_sink_allowed(self):
        """The worker shape: the failure is routed into a future the
        caller is waiting on — caught, not swallowed."""
        source = (
            "def f(future):\n"
            "    try:\n"
            "        work()\n"
            "    except BaseException as exc:\n"
            "        future.set_exception(exc)\n"
        )
        assert lint_source(source) == []

    def test_broad_except_raise_in_closure_not_counted(self):
        """A ``raise`` inside a nested function body executes elsewhere;
        it does not make the enclosing handler safe."""
        source = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except BaseException:\n"
            "        def later():\n"
            "            raise\n"
        )
        assert [f.rule for f in lint_source(source)] == ["broad-except"]

    def test_unbounded_result_flagged_in_serving_only(self):
        source = "def f(future):\n    return future.result()\n"
        serving = lint_source(source, path="src/repro/serving/x.py")
        assert [f.rule for f in serving] == ["unbounded-result"]
        assert lint_source(source, path="src/repro/spn/x.py") == []

    def test_bounded_result_allowed_in_serving(self):
        source = "def f(future):\n    return future.result(timeout=1.0)\n"
        assert lint_source(source, path="src/repro/serving/x.py") == []


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestCli:
    def test_lint_command_clean_tree(self, capsys):
        from repro.statics.__main__ import main

        assert main(["lint", str(_REPRO_ROOT)]) == 0
        assert "lint clean" in capsys.readouterr().out

    def test_lint_command_reports_findings(self, tmp_path, capsys):
        from repro.statics.__main__ import main

        bad = tmp_path / "bad.py"
        bad.write_text("try:\n    pass\nexcept:\n    pass\n")
        assert main(["lint", str(bad)]) == 1
        assert "bare-except" in capsys.readouterr().out

    def test_verify_command_on_artifact(self, tmp_path, capsys):
        from repro.statics.__main__ import main

        artifact = build_artifact(
            generate_spn(GeneratorConfig(n_vars=5, seed=2)), name="m"
        )
        path = save_artifact(artifact, tmp_path / "m.json")
        assert main(["verify", "--artifact", str(path)]) == 0
        assert "statically verified" in capsys.readouterr().out

    def test_verify_command_prints_linear_floor(self, capsys):
        from repro.statics.__main__ import _verify_one

        tape = benchmark_tape("Banknote")
        assert _verify_one("Banknote", tape, [tape.memory_plan()])
        assert "linear_floor=2^-1015.45" in capsys.readouterr().out

    def test_verify_command_rejects_corrupt_artifact(self, tmp_path, capsys):
        from repro.lifecycle.artifact import content_hash
        from repro.statics.__main__ import main

        artifact = build_artifact(
            generate_spn(GeneratorConfig(n_vars=5, seed=2)), name="m"
        )
        doc = json.loads(json.dumps(artifact.to_payload()))
        doc["body"]["plan"]["max_live"] -= 1
        doc["content_hash"] = content_hash(doc["body"])
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--artifact", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out
