"""Experiment drivers: one module per table/figure of the paper plus sweeps.

* :mod:`repro.experiments.fig2c` — CPU vs GPU thread-count sweep (Fig. 2c);
* :mod:`repro.experiments.table1` — platform resource table (Table I);
* :mod:`repro.experiments.fig4` — suite-wide throughput comparison (Fig. 4);
* :mod:`repro.experiments.claims` — the headline claims of Sec. V;
* :mod:`repro.experiments.sweeps` — ablations and design-space sweeps.

Each module exposes ``run()`` returning structured data and ``main()``
returning the rendered text, and can be executed with
``python -m repro.experiments.<name>``.
"""

import importlib

# Submodules load on first access (PEP 562): importing them here would make
# ``python -m repro.experiments.<name>`` find its module already imported
# and run the module body a second time as ``__main__``.
_SUBMODULES = ("claims", "fig2c", "fig4", "platforms", "sweeps", "table1")
_PLATFORM_EXPORTS = (
    "DEFAULT_PLATFORMS",
    "PLATFORM_CPU",
    "PLATFORM_GPU",
    "PLATFORM_PTREE",
    "PLATFORM_PVECT",
    "run_benchmark",
    "run_platform",
    "run_suite",
)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _PLATFORM_EXPORTS:
        return getattr(importlib.import_module(".platforms", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "claims",
    "fig2c",
    "fig4",
    "platforms",
    "sweeps",
    "table1",
    "DEFAULT_PLATFORMS",
    "PLATFORM_CPU",
    "PLATFORM_GPU",
    "PLATFORM_PTREE",
    "PLATFORM_PVECT",
    "run_benchmark",
    "run_platform",
    "run_suite",
]
