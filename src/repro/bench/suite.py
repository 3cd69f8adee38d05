"""The perf-trajectory benchmark suite (``python -m repro bench``).

The suite holds exactly the benchmarks behind the derived ratios the CI
perf gate checks — every case is the numerator or denominator of some
:data:`DERIVED_RATIOS` entry:

* the 128-queue stressor on the batched, array and numpy engines (the
  array-over-batched and numpy-over-array speedups);
* the 8-port CFDS switch with its ports run serially and sharded over 2
  workers (the sharding speedup, which needs a 2-CPU machine to mean
  anything);
* a long-horizon streamed run with and without resumable checkpoints (the
  checkpoint overhead).

Each case is timed for a handful of interleaved repetitions and its
**median** wall-clock time is recorded.  Results are written as JSON
(``bench-current.json`` by default), so snapshots can be diffed
mechanically; a baseline is committed with an explicit ``-o BENCH_<n>.json``
(the number tracks the change that produced it)::

    python -m repro bench                     # suite -> bench-current.json
    python -m repro bench --filter wide       # only the wide-queue cases
    python -m repro bench -o BENCH_16.json    # write a committed baseline

The suite times whole runs (build + simulate + drain) — that is what users
pay for — and records the slot throughput alongside the raw seconds so
machines of different speeds can still be compared by ratio.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.runner.sweep import available_cpus
from repro.errors import ValidationError

#: Default output file: the scratch name CI uses too.  Committed
#: ``BENCH_<n>.json`` baselines are only ever written by an explicit ``-o``,
#: so a local run cannot overwrite the perf gate's baseline.
DEFAULT_OUTPUT = "bench-current.json"

#: JSON schema version of the output document.
SCHEMA = 1

WIDE_QUEUES = 128
WIDE_SLOTS = 6000
SWITCH_PORTS = 8
SWITCH_SLOTS = 6000
#: The long-horizon streaming benchmark: a slot count well past the other
#: cases, run in bounded chunks (kslots/s is the headline).
STREAM_SLOTS = 250_000
STREAM_CHUNK_SLOTS = 32_768
STREAM_QUEUES = 8

#: A benchmark thunk plus the metadata recorded next to its timings.
BenchSetup = Tuple[Callable[[], object], Dict[str, Any]]


@dataclass(frozen=True)
class BenchCase:
    """One named benchmark of the fixed suite."""

    name: str
    description: str
    factory: Callable[[], BenchSetup]


def wide_scenario(num_queues: int = WIDE_QUEUES,
                  num_slots: int = WIDE_SLOTS):
    """The 128-queue Bernoulli stressor — wide enough that per-slot loop
    overhead, not the workload, dominates."""
    from repro.workloads import Scenario

    return Scenario(
        name="wide-bernoulli",
        description="128-queue Bernoulli stressor for the loop overhead",
        scheme="rads",
        buffer={"num_queues": num_queues, "granularity": 4},
        arrivals={"type": "bernoulli",
                  "params": {"num_queues": num_queues, "load": 0.85}},
        arbiter={"type": "random",
                 "params": {"num_queues": num_queues, "load": 0.9}},
        num_slots=num_slots, seed=1)


def _wide_setup(engine: str) -> BenchSetup:
    scenario = wide_scenario()

    def thunk():
        return scenario.run(engine=engine)

    return thunk, {"slots": WIDE_SLOTS, "scheme": scenario.scheme,
                   "queues": WIDE_QUEUES, "engine": engine}


def switch_bench_scenario(num_slots: int = SWITCH_SLOTS):
    """The switch-stage stressor: uniform traffic into CFDS linecards.

    CFDS ports are the heaviest per-port workload (DSS + latency register in
    the loop), so this is where sharding ports across workers pays — the
    configuration the ``switch-scaling`` derived ratio tracks.  Not a
    registered scenario: benchmarks must not drift when the registry grows.
    """
    from repro.switch import SwitchScenario

    return SwitchScenario(
        name="bench-cfds-uniform",
        description="8-port uniform-traffic switch with CFDS linecards",
        num_ports=SWITCH_PORTS,
        traffic={"type": "bernoulli", "params": {"load": 0.85}},
        fabric={"type": "islip", "params": {}},
        ports=({"scheme": "cfds",
                "buffer": {"dram_access_slots": 8, "granularity": 2,
                           "num_banks": 32},
                "arbiter": {"type": "longest_queue", "params": {}}},),
        num_slots=num_slots, seed=3)


def _switch_setup(jobs: int) -> BenchSetup:
    from repro.switch import SwitchModel

    scenario = switch_bench_scenario()

    def thunk():
        return SwitchModel(scenario).run(jobs=jobs)

    # ``slots`` counts simulated port-slots so kslots/s stays comparable
    # with the single-port benchmarks.
    return thunk, {"slots": SWITCH_SLOTS * SWITCH_PORTS,
                   "arrival_slots": SWITCH_SLOTS, "ports": SWITCH_PORTS,
                   "scheme": "cfds", "jobs": jobs, "engine": "array"}


def stream_scenario(num_slots: int = STREAM_SLOTS):
    """The long-horizon streaming stressor: a plain Bernoulli/random-arbiter
    RADS workload whose only point is slot count.  Not a registered scenario:
    benchmarks must not drift when the registry grows."""
    from repro.workloads import Scenario

    return Scenario(
        name="stream-bernoulli",
        description="long-horizon streaming stressor",
        scheme="rads",
        buffer={"num_queues": STREAM_QUEUES, "granularity": 4},
        arrivals={"type": "bernoulli",
                  "params": {"num_queues": STREAM_QUEUES, "load": 0.85}},
        arbiter={"type": "random",
                 "params": {"num_queues": STREAM_QUEUES, "load": 0.9}},
        num_slots=num_slots, seed=7)


def _stream_setup(checkpoint: bool) -> BenchSetup:
    import os
    import tempfile

    scenario = stream_scenario()
    every = STREAM_SLOTS // 4

    if checkpoint:
        def thunk():
            with tempfile.TemporaryDirectory() as tmpdir:
                return scenario.run_stream(
                    engine="array", chunk_slots=STREAM_CHUNK_SLOTS,
                    checkpoint_every=every,
                    checkpoint_path=os.path.join(tmpdir, "bench.ckpt.json"))
    else:
        def thunk():
            return scenario.run_stream(engine="array",
                                       chunk_slots=STREAM_CHUNK_SLOTS)

    metrics = {"slots": STREAM_SLOTS, "scheme": "rads", "engine": "array",
               "chunk_slots": STREAM_CHUNK_SLOTS, "stream": True}
    if checkpoint:
        metrics["checkpoint_every"] = every
    return thunk, metrics


#: The fixed suite, in reporting order.
SUITE: Tuple[BenchCase, ...] = (
    BenchCase("wide-128/batched",
              "128-queue Bernoulli stressor, batched fast path",
              lambda: _wide_setup("batched")),
    BenchCase("wide-128/array",
              "128-queue Bernoulli stressor, struct-of-arrays engine",
              lambda: _wide_setup("array")),
    BenchCase("wide-128/numpy",
              "128-queue Bernoulli stressor, numpy engine "
              "(array core + span kernel)",
              lambda: _wide_setup("numpy")),
    BenchCase("switch/cfds-8port/jobs1",
              "8-port CFDS switch, ports run serially",
              lambda: _switch_setup(1)),
    BenchCase("switch/cfds-8port/jobs2",
              "8-port CFDS switch, ports sharded over 2 workers",
              lambda: _switch_setup(2)),
    BenchCase("stream/long-horizon/array",
              "long-horizon streamed run, struct-of-arrays engine",
              lambda: _stream_setup(checkpoint=False)),
    BenchCase("stream/long-horizon/array-checkpointed",
              "streamed run writing 3 resumable checkpoints along the way",
              lambda: _stream_setup(checkpoint=True)),
)

#: Ratios derived from pairs of benchmark medians (numerator / denominator),
#: every one gated by the CI perf gate.  The fourth element is the
#: regression *direction* the compare gate uses: a speedup ratio regressed
#: when it falls (``higher_better``), an overhead ratio regressed when it
#: rises (``lower_better``).
DERIVED_RATIOS: Tuple[Tuple[str, str, str, str], ...] = (
    ("wide-128-speedup-array-over-batched", "wide-128/batched",
     "wide-128/array", "higher_better"),
    ("wide-128-speedup-numpy-over-array", "wide-128/array",
     "wide-128/numpy", "higher_better"),
    ("switch-scaling-jobs2-over-jobs1", "switch/cfds-8port/jobs1",
     "switch/cfds-8port/jobs2", "higher_better"),
    ("stream-checkpoint-overhead", "stream/long-horizon/array-checkpointed",
     "stream/long-horizon/array", "lower_better"),
)


def run_suite(repeats: int = 5,
              name_filter: Optional[str] = None) -> Dict[str, Any]:
    """Run the suite and return the JSON-serialisable result document."""
    from repro.obs.trace import emit as trace_emit

    if repeats < 1:
        raise ValidationError("repeats must be at least 1")
    selected = [case for case in SUITE
                if name_filter is None or name_filter in case.name]
    setups = [case.factory() for case in selected]
    trace_emit("bench_start", repeats=repeats, cases=len(selected))
    # Interleave the repetitions (round 0 of every case, then round 1, ...)
    # instead of timing each case's repeats back to back: slow drift in
    # machine load then lands on every case roughly equally, which is what
    # keeps the *derived ratios* honest — a ratio of two medians measured in
    # disjoint time windows would be biased by whatever happened in between.
    all_samples: List[List[float]] = [[] for _ in selected]
    for _ in range(repeats):
        for index, (thunk, _metrics) in enumerate(setups):
            started = time.perf_counter()
            thunk()
            all_samples[index].append(time.perf_counter() - started)
    # Per benchmark, the median of its samples is the headline number.
    benchmarks: List[Dict[str, Any]] = []
    for case, (_thunk, metrics), samples in zip(selected, setups,
                                                all_samples):
        median = statistics.median(samples)
        metrics["kslots_per_s"] = round(metrics["slots"] / median / 1e3, 2)
        trace_emit("bench_case", name=case.name,
                   median_s=round(median, 6),
                   kslots_per_s=metrics["kslots_per_s"])
        benchmarks.append({"name": case.name,
                           "description": case.description,
                           "median_s": median, "samples_s": samples,
                           "metrics": metrics})
    medians = {bench["name"]: bench["median_s"] for bench in benchmarks}
    derived: Dict[str, float] = {}
    directions: Dict[str, str] = {}
    for label, numerator, denominator, direction in DERIVED_RATIOS:
        if numerator in medians and denominator in medians and medians[denominator]:
            derived[label] = round(medians[numerator] / medians[denominator], 3)
            directions[label] = direction
    return {
        "schema": SCHEMA,
        "suite": "repro-bench",
        "repeats": repeats,
        "created_unix": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        # Interprets the sharding ratio: jobs2/jobs1 measures scaling only
        # where cpus >= 2 (the compare gate reports it as n/a otherwise).
        # Affinity-aware — the same count that caps the SweepRunner pool
        # doing the sharding.
        "cpus": available_cpus(),
        "benchmarks": benchmarks,
        "derived": derived,
        # Regression direction per derived ratio — what the compare gate
        # (repro bench --compare --fail-on-regression) keys on.
        "derived_directions": directions,
    }


def write_results(document: Mapping[str, Any], path: str) -> None:
    """Write the result document as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")


def render_results(document: Mapping[str, Any]) -> str:
    """Human-readable table of the suite results."""
    from repro.analysis.report import format_table

    rows = []
    for bench in document["benchmarks"]:
        metrics = bench["metrics"]
        rows.append([
            bench["name"],
            f"{bench['median_s'] * 1e3:.1f}",
            metrics["kslots_per_s"],
            metrics["slots"],
        ])
    table = format_table(
        ["benchmark", "median (ms)", "kslots/s", "slots"], rows,
        title=f"repro bench — {document['repeats']} repeats")
    lines = [table]
    if document["derived"]:
        lines.append("")
        for label, value in document["derived"].items():
            lines.append(f"{label}: {value:.3f}x")
    return "\n".join(lines)
