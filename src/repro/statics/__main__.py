"""Command-line front end for the static verification layer.

``python -m repro.statics verify`` statically verifies compiled tapes and
memory plans — by default every suite profile (the tape alone, then the
tape with its one memory plan) plus the abstract-interpretation facts;
``--artifact`` verifies a saved AOT artifact instead.
``python -m repro.statics lint [PATHS...]`` runs the project lint
(default: the installed ``repro`` package source).
Both exit nonzero on any failure/finding, which is how CI consumes them.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from .absint import analyze_tape
from .lint import lint_paths
from .verifier import VerificationError, verify_compiled


def _power_of_two(value: float) -> str:
    """``value`` as ``2^<exponent>`` (``0`` and ``inf`` printed as such)."""
    if value == 0.0 or not math.isfinite(value):
        return str(value)
    return f"2^{math.log2(value):.2f}"


def _verify_one(label: str, tape, plan) -> bool:
    """Verify one tape alone and against its plan; print a one-line verdict."""
    started = time.perf_counter()
    try:
        tape_facts, _ = verify_compiled(tape, None)  # dense-executor contract
        verify_compiled(tape, plan)
    except VerificationError as exc:
        print(f"FAIL {label}: {exc}")
        return False
    analysis = analyze_tape(tape)
    elapsed = (time.perf_counter() - started) * 1e3
    facts = (
        f"kernels={tape_facts.n_kernels} slots={tape.n_slots} "
        f"physical={plan.n_physical} proves_log<=0={analysis.proves_log_nonpositive} "
        f"underflow_risk={analysis.underflow_risk} "
        f"linear_floor={_power_of_two(analysis.linear_floor)}"
    )
    print(f"ok   {label}: {facts} ({elapsed:.0f} ms)")
    return True


def _cmd_verify(args: argparse.Namespace) -> int:
    failures = 0
    if args.artifact:
        from ..lifecycle.artifact import load_artifact

        for path in args.artifact:
            try:
                artifact = load_artifact(path)
            except Exception as exc:  # noqa: BLE001 — report any load failure
                print(f"FAIL {path}: {type(exc).__name__}: {exc}")
                failures += 1
                continue
            label = f"{artifact.name}@{artifact.version} ({path})"
            if not _verify_one(label, artifact.tape, artifact.plan):
                failures += 1
    else:
        from ..suite.registry import benchmark_names, benchmark_tape

        for name in benchmark_names():
            tape = benchmark_tape(name)
            if not _verify_one(name, tape, tape.memory_plan()):
                failures += 1
    if failures:
        print(f"{failures} verification failure(s)")
        return 1
    print("all tapes statically verified")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    paths = args.paths or [str(Path(__file__).resolve().parents[1])]
    findings = lint_paths(paths)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} lint finding(s)")
        return 1
    print("lint clean")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.statics",
        description="Static verification: tape/plan dataflow verifier, "
        "abstract interpretation, and the project concurrency/API lint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="statically verify suite tapes (or saved artifacts)"
    )
    verify.add_argument(
        "--artifact",
        action="append",
        default=[],
        metavar="PATH",
        help="verify a saved AOT artifact instead of the suite profiles "
        "(repeatable)",
    )
    verify.set_defaults(func=_cmd_verify)

    lint = sub.add_parser("lint", help="run the project lint over source paths")
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint.set_defaults(func=_cmd_lint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
