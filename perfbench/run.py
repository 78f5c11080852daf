"""Command line of the repository benchmark (see ``perfbench/__init__.py``).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Prints a human-readable report, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
A failed output check shows as ``"correct": false``; the exit status is 0
whenever the run completed, and 2 when the program's source is not beside
the benchmark.
"""

import sys

# No bytecode caches: a run writes nothing outside its own temporary tree.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

CHECKOUT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("offline_value", "offline_analysis", "serve_open", "fig4_eval")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """One workload in an isolated working directory; returns its report pieces."""
    from perfbench import common, grid, offline, serve
    from perfbench.layers import ACCOUNTING_TOLERANCE, LayerTracer

    with common.isolated_workdir(CHECKOUT) as workdir:
        probe_start = common.host_probe_ms()
        tracer = LayerTracer() if trace else None
        if name == "serve_open":
            outcomes, e2e, layers, notes = serve.measure(seed, seconds, workdir, tracer)
        elif name == "fig4_eval":
            outcomes, e2e, layers, notes = grid.measure(seed, seconds, tracer)
        else:
            outcomes, e2e, layers, notes = offline.measure(name, seed, seconds, tracer)
        e2e["peak_rss_mb"] = common.peak_rss_mb()
        probe_end = common.host_probe_ms()
        layers["host.probe_ms.start"] = probe_start
        layers["host.probe_ms.end"] = probe_end
        layers["host.np_add_gbps"] = common.np_add_gbps()
    if trace:
        unattributed = layers["trace.unattributed_share"]
        outcomes.record(
            abs(unattributed) <= ACCOUNTING_TOLERANCE,
            f"layer self times miss {unattributed:.1%} of the traced wall time "
            f"(tolerance {ACCOUNTING_TOLERANCE:.0%})",
        )
    notes.append(
        f"host probe {probe_start:.3f} ms at start, {probe_end:.3f} ms at end; "
        f"np.add ceiling {layers['host.np_add_gbps']:.2f} GB/s"
    )
    return outcomes, e2e, layers, notes


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (CHECKOUT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for every thread, chosen before any thread starts: the host
    # probe then measures the CPU the server's worker runs on too.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT)]
    from perfbench import catalog

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    declared = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    units = {entry[0]: entry[1] for entry in declared}
    correct, attempted, failed = True, 0, 0
    metrics = {}
    for name in names:
        t0 = time.perf_counter()
        outcomes, e2e, layers, notes = run_workload(
            name, args.seed, args.seconds, bool(args.trace)
        )
        values = layers if args.trace else e2e
        print(f"== {name} (seed {args.seed}, {time.perf_counter() - t0:.1f} s)")
        if args.trace:
            notes += [f"{layer} should move: {where}" for layer, where in catalog.LAYER_MAP.items()]
        for note in notes:
            print(f"   {note}")
        for error in outcomes.errors:
            print(f"   FAILED: {error}")
        print(f"   operations: {outcomes.attempted} attempted, {outcomes.failed} failed")
        for metric, unit in units.items():
            value = float(values.get(metric, 0.0))
            if not math.isfinite(value):
                # A percentile that failed requests reach is infinite; JSON
                # has no infinity, so it reads as the largest float.
                value = sys.float_info.max
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
            if metric in values or not args.trace:
                alias = catalog.ALIASES.get((name, metric), "")
                print(f"   {metric:<34} {value:>14.6g} {unit:<9} {alias}".rstrip())
        correct = correct and outcomes.failed == 0
        attempted += outcomes.attempted
        failed += outcomes.failed
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
