"""Perf-trajectory benchmark harness.

``python -m repro bench`` times the fixed suite — only the cases behind
the derived ratios the CI perf gate checks — and writes per-benchmark
median timings to a JSON snapshot (``bench-current.json`` unless ``-o``
names a committed ``BENCH_<n>.json`` baseline); see
:mod:`repro.bench.suite`.  :mod:`repro.bench.compare` diffs two snapshots
and turns the diff into the direction-aware ``--fail-on-regression`` gate.
"""

from repro.bench.suite import (
    DEFAULT_OUTPUT,
    DERIVED_RATIOS,
    SUITE,
    BenchCase,
    render_results,
    run_suite,
    switch_bench_scenario,
    wide_scenario,
    write_results,
)

__all__ = [
    "DEFAULT_OUTPUT",
    "DERIVED_RATIOS",
    "SUITE",
    "BenchCase",
    "render_results",
    "run_suite",
    "switch_bench_scenario",
    "wide_scenario",
    "write_results",
]
