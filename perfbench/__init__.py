"""The repository benchmark: four seeded workloads measured from outside the program.

Run one workload (the command ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload offline_value --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run; ``--workload all`` runs the four
workloads in one process and prints every metric of each.  The last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  End-to-end times are at the reference host
speed, scaled by a probe taken beside each of them
(:mod:`perfbench.catalog` says why).

Nothing under ``src/`` is instrumented for this: per-layer numbers come
from wrapping the public functions of each module (:mod:`perfbench.layers`)
and from what the program already exports (``InferenceServer.stats()``,
:class:`repro.observability.TapeProfiler`).  The seed only shapes the
generated inputs; the program never sees it.
"""
