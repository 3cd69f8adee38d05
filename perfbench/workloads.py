"""The pinned workloads, and the fresh-process side of every measurement.

The specs live here, not in ``repro.bench.suite`` or the scenario registry,
so that an edit there cannot change the benchmark silently.  The harness
(``run.py``) starts this file in a fresh interpreter for every sample::

    python3 perfbench/workloads.py '<request JSON>'

and reads one JSON object from the last line of its standard output.
Requests carry a ``mode``:

* ``warm`` -- load the span kernel, compiling it into the (benchmark-owned)
  ``XDG_CACHE_HOME`` when the cache is cold;
* ``expected`` -- compute the expected record of a seed with the ``array``
  engine, after cross-checking ``array`` against ``reference`` (and the
  timed engine) on a shortened run of the same spec;
* ``sample`` -- one untraced timed run;
* ``traced`` -- one timed run with the layer wrappers of ``layers.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import resource
import sys
import time
from typing import Any, Dict, Optional

WORKLOADS = ("rads-stream", "cfds-switch", "paper-exhibits")

# -- rads-stream: one single-port RADS run streamed on the fastest engine.
RADS_QUEUES = 32
RADS_GRANULARITY = 4
RADS_LOAD = 0.85
RADS_ARBITER_LOAD = 0.9
RADS_SLOTS = 2_000_000
RADS_CHUNK_SLOTS = 65_536
RADS_ENGINE = "numpy"

# -- cfds-switch: the 8-port CFDS switch (spec of bench-cfds-uniform).
SWITCH_PORTS = 8
SWITCH_SLOTS = 20_000
SWITCH_ENGINE = "numpy"

#: Slots of the shortened runs that cross-check ``array`` against
#: ``reference`` before an expected record is trusted.
CHECK_SLOTS = {"rads-stream": 20_000, "cfds-switch": 1_000}

#: Slots simulated by one cold ``repro all`` run, counted by
#: the traced run's ``sim.slots`` (which checks this value).
EXHIBIT_SLOTS = 272_996


def rads_scenario(seed: int, slots: int = RADS_SLOTS):
    from repro.workloads import Scenario

    return Scenario(
        name="rads-stream",
        description="long-horizon RADS stream (perfbench)",
        scheme="rads",
        buffer={"num_queues": RADS_QUEUES, "granularity": RADS_GRANULARITY},
        arrivals={"type": "bernoulli",
                  "params": {"num_queues": RADS_QUEUES, "load": RADS_LOAD}},
        arbiter={"type": "random",
                 "params": {"num_queues": RADS_QUEUES,
                            "load": RADS_ARBITER_LOAD}},
        num_slots=slots, seed=seed)


def switch_scenario(seed: int, slots: int = SWITCH_SLOTS):
    from repro.switch import SwitchScenario

    return SwitchScenario(
        name="cfds-switch",
        description="8-port uniform switch with CFDS linecards (perfbench)",
        num_ports=SWITCH_PORTS,
        traffic={"type": "bernoulli", "params": {"load": 0.85}},
        fabric={"type": "islip", "params": {}},
        ports=({"scheme": "cfds",
                "buffer": {"dram_access_slots": 8, "granularity": 2,
                           "num_banks": 32},
                "arbiter": {"type": "longest_queue", "params": {}}},),
        num_slots=slots, seed=seed)


def port_slots(workload: str, slots: Optional[int]) -> int:
    """Simulated port-slots of one timed run (the kslots_per_s numerator)."""
    if workload == "rads-stream":
        return slots or RADS_SLOTS
    if workload == "cfds-switch":
        return (slots or SWITCH_SLOTS) * SWITCH_PORTS
    return EXHIBIT_SLOTS


def _plain(value: Any) -> Any:
    """JSON round trip: tuples become lists, so records compare as data."""
    return json.loads(json.dumps(value))


def rads_record(report) -> Dict[str, Any]:
    """The full simulated summary of a RADS run, histogram included."""
    from repro.workloads.scenario import ScenarioResult

    return _plain(dataclasses.asdict(
        ScenarioResult.from_report("rads-stream", "rads", report)))


def switch_record(report) -> Dict[str, Any]:
    """Merged summary plus every port's full record."""
    return _plain({"summary": report.summary(),
                   "ports": [dataclasses.asdict(p) for p in report.ports],
                   "failed_ports": len(report.failures)})


def strip_footer(text: str) -> str:
    """The ``repro all`` report minus its ``[runner]`` timing footer."""
    blocks = text.rstrip("\n").split("\n\n")
    if blocks and blocks[-1].startswith("[runner]"):
        blocks.pop()
    return "\n\n".join(blocks) + "\n"


# --------------------------------------------------------------------- #
# One timed run
# --------------------------------------------------------------------- #

def _prepare(request: Dict[str, Any]):
    """Build the workload (the set-up phase); returns the timed thunk."""
    workload = request["workload"]
    seed = request["seed"]
    slots = request.get("slots")
    jobs = request["jobs"]
    if workload == "rads-stream":
        from repro.sim.kernel import load_kernel

        scenario = rads_scenario(seed, slots or RADS_SLOTS)
        load_kernel()

        def timed():
            report = scenario.run_stream(engine=RADS_ENGINE,
                                         chunk_slots=RADS_CHUNK_SLOTS)
            return rads_record(report)
    elif workload == "cfds-switch":
        from repro.sim.kernel import load_kernel
        from repro.switch import SwitchModel

        scenario = switch_scenario(seed, slots or SWITCH_SLOTS)
        load_kernel()

        def timed():
            report = SwitchModel(scenario).run(engine=SWITCH_ENGINE,
                                               jobs=jobs)
            return switch_record(report)
    else:
        from repro.runner.cli import main

        argv = ["all", "--jobs", str(jobs), "--cache-dir",
                request["cache_dir"]]

        def timed():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"repro all exited with {code}")
            return strip_footer(out.getvalue())
    return timed


def _runner_probe():
    """Wrap ``SweepRunner.run`` to time each sweep that starts a pool and
    the CPU its workers used (sweep granularity, so the run stays
    untraced in every layer below)."""
    from repro.runner import sweep

    original = sweep.SweepRunner.run
    seen = {"wait_s": 0.0, "busy_s": 0.0, "capacity_s": 0.0}

    def run(runner, jobs):
        jobs = list(jobs)
        workers = min(runner.jobs, len(jobs), sweep.available_cpus())
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        try:
            return original(runner, jobs)
        finally:
            elapsed = time.perf_counter() - started
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            if workers > 1:
                seen["wait_s"] += elapsed
                seen["busy_s"] += ((after.ru_utime - before.ru_utime)
                                   + (after.ru_stime - before.ru_stime))
                seen["capacity_s"] += workers * elapsed

    sweep.SweepRunner.run = run
    return seen


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def sample(request: Dict[str, Any], traced: bool) -> Dict[str, Any]:
    """Set up, then run the timed phase once; the output is checked by the
    harness against the expected record."""
    started = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - started
    tracer = probe = None
    kernel_load_s = 0.0
    if traced:
        from layers import install
        from tracer import ROOT, Tracer

        tracer = Tracer(run_id=f"{request['workload']}-{request['seed']}-"
                               f"{request.get('phase', 'run')}")
        probe = install(tracer)
    runner = _runner_probe() if request.get("probe_runner") else None
    timed = _prepare(request)
    if traced:
        kernel_load_s = sum(tracer.durations("sim.kernel_load"))
        tracer.spans.clear()
        tracer.self_s.clear()
        tracer.calls.clear()
        tracer.overhead_s = 0.0
    ready = time.monotonic()
    started = time.perf_counter()
    if traced:
        tracer.begin(ROOT)
    output = timed()
    if traced:
        tracer.end(ROOT)
    wall_s = time.perf_counter() - started
    result = {"ready": ready, "wall_s": wall_s,
              "import_s": import_s, "output": output,
              "rss_mib": _peak_rss_mib()}
    if runner is not None:
        result["runner"] = runner
    if traced:
        from layers import tally

        tracer.restore()
        result["tally"] = tally(tracer, probe)
        result["kernel_load_s"] = kernel_load_s
        if request.get("trace_out"):
            tracer.write(request["trace_out"])
    return result


# --------------------------------------------------------------------- #
# Kernel warm-up and expected records
# --------------------------------------------------------------------- #

def warm() -> Dict[str, Any]:
    started = time.perf_counter()
    from repro.sim.kernel import load_kernel

    available = load_kernel() is not None
    return {"kernel": available, "load_s": time.perf_counter() - started}


def expected(request: Dict[str, Any]) -> Dict[str, Any]:
    """The expected record of one seed, computed on the ``array`` engine.

    A shortened run of the same spec first has to agree on ``reference``,
    ``array`` and the timed engine; otherwise ``crosscheck`` is False and
    the harness counts the run as failed.
    """
    workload = request["workload"]
    seed = request["seed"]
    slots = request.get("slots")
    short = min(CHECK_SLOTS[workload], slots or CHECK_SLOTS[workload])
    if workload == "rads-stream":
        build = lambda n: rads_scenario(seed, n)  # noqa: E731
        checks = [rads_record(build(short).run(engine="reference")),
                  rads_record(build(short).run(engine="array")),
                  rads_record(build(short).run_stream(
                      engine=RADS_ENGINE, chunk_slots=RADS_CHUNK_SLOTS))]
        record = rads_record(build(slots or RADS_SLOTS).run(engine="array"))
    else:
        from repro.switch import SwitchModel

        model = SwitchModel(switch_scenario(seed, slots or SWITCH_SLOTS))
        checks = [switch_record(model.run(engine=engine, num_slots=short))
                  for engine in ("reference", "array", SWITCH_ENGINE)]
        record = switch_record(model.run(engine="array"))
    return {"record": record,
            "crosscheck": all(check == checks[0] for check in checks)}


def main(argv) -> int:
    request = json.loads(argv[1])
    mode = request["mode"]
    if mode == "warm":
        result = warm()
    elif mode == "expected":
        result = expected(request)
    elif mode in ("sample", "traced"):
        result = sample(request, traced=mode == "traced")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
