"""perfbench: end-to-end and per-layer benchmark of the packet-buffer
simulator.  Run from the root of a checkout::

    python3 perfbench/run.py --workload rads-stream --seed 1 --seconds 20 --trace 0

``--trace 0`` times fresh-process runs for ``--seconds`` and prints the
end-to-end metrics; ``--trace 1`` makes the separate traced run and prints
the per-layer metrics.  Either way the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The metric definitions and the layer map are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives under here (git-ignored).
WORK = ROOT / ".perfbench"
GOLDEN = BENCH_DIR / "expected" / "paper-exhibits.txt"
#: Digests of the expected records of full-size runs, made by ``pin.py``.
PINNED = BENCH_DIR / "expected" / "records.json"

sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import workloads  # noqa: E402

#: Each run takes at least this many samples, however long one lasts.
MIN_SAMPLES = 3
#: Limit on one child process; a whole benchmark run must end within 180 s.
CHILD_TIMEOUT_S = 150

#: Seconds the speed probe takes on the reference machine: the 2-vCPU box
#: the bounds were set on, in its fast periods.
PROBE_REFERENCE_S = 0.07

#: The processes of one paper-exhibits sample: ``repro all`` on an empty
#: cache, then twice on the filled one (the warm run is short, so it is
#: sampled twice as often).
PAPER_PHASES = ("cold", "warm", "warm")

END_TO_END = (("wall_s", "s"), ("kslots_per_s", "kslots/s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"), ("cached_rerun_s", "s"))


class ChildError(RuntimeError):
    """A child process failed or printed no result."""


def worker_count() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def child_env(xdg: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["XDG_CACHE_HOME"] = str(xdg)
    return env


def run_child(request: Dict[str, Any], xdg: Optional[Path] = None,
              ) -> Tuple[Dict[str, Any], float, float]:
    """Run ``workloads.py`` in a fresh interpreter.

    Returns ``(result, spawned, exited)`` with both times on the same
    monotonic clock the child reports ``ready`` on.
    """
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "workloads.py"), json.dumps(request)],
        cwd=str(ROOT), env=child_env(xdg or WORK / "xdg"),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    exited = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildError(f"{request['mode']} exited {proc.returncode}: "
                         + " | ".join(tail))
    return json.loads(lines[-1]), spawned, exited


# --------------------------------------------------------------------- #
# Expected outputs
# --------------------------------------------------------------------- #

def source_digest() -> str:
    """Digest of the program source and the workload specs."""
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            sha.update(str(path.relative_to(SRC)).encode())
            sha.update(path.read_bytes())
    sha.update((BENCH_DIR / "workloads.py").read_bytes())
    return sha.hexdigest()[:24]


def expected_record(workload: str, seed: int,
                    slots: Optional[int]) -> Dict[str, Any]:
    """The array-engine record of a seed on the program under test, kept
    on disk per source digest so the reference run is paid once per seed
    and program."""
    cache = WORK / "expected" / (
        f"{workload}-{seed}-{slots or 'full'}-{source_digest()}.json")
    if cache.is_file():
        return json.loads(cache.read_text())
    result, _, _ = run_child({"mode": "expected", "workload": workload,
                              "seed": seed, "slots": slots})
    cache.parent.mkdir(parents=True, exist_ok=True)
    tmp = cache.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, cache)
    return result


def digest(value: Any) -> str:
    """sha256 of the canonical JSON of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def operation_digests(workload: str, output: Any) -> List[str]:
    """One digest per checked operation of a simulation run: the run
    (rads-stream), or each port job and then the merged summary
    (cfds-switch)."""
    if workload == "rads-stream":
        return [digest(output)]
    return [digest(port) for port in output["ports"]] + [digest(
        {"summary": output["summary"],
         "failed_ports": output["failed_ports"]})]


def pinned_digests(workload: str, seed: int) -> Optional[List[str]]:
    """The committed digests of a full-size run of ``seed``, or None."""
    pins = json.loads(PINNED.read_text())
    return pins["workloads"].get(workload, {}).get(str(seed))


def check_output(workload: str, output: Any, expected: Any) -> Tuple[int, int]:
    """``(attempted, failed)`` operations of one timed run.

    An operation is the run itself (rads-stream), one port job
    (cfds-switch, plus the merged summary) or one exhibit block of the
    report (paper-exhibits).  ``expected`` is the list of operation
    digests for the simulation workloads and the report text for
    paper-exhibits.
    """
    if workload == "paper-exhibits":
        want = expected.split("\n\n== ")
        have = output.split("\n\n== ")
    else:
        want = expected
        try:
            have = operation_digests(workload, output)
        except (KeyError, TypeError):
            return len(want), len(want)
    bad = sum(1 for i, block in enumerate(want)
              if i >= len(have) or have[i] != block)
    return len(want), bad + max(0, len(have) - len(want))


def operations(workload: str) -> int:
    """Operations a timed run is worth when it fails outright."""
    if workload == "rads-stream":
        return 1
    if workload == "cfds-switch":
        return workloads.SWITCH_PORTS + 1
    return len(layers.EXPERIMENTS)


# --------------------------------------------------------------------- #
# Timed runs
# --------------------------------------------------------------------- #

def speed_probe(rounds: int = 300_000) -> float:
    """Seconds of a fixed piece of pure-Python work (dict, list and integer
    operations, like the simulator's).  The machine's speed drifts by 2x
    and more over tens of minutes, for every workload alike; each sample
    is scaled by the probes taken around it so that the drift cancels and
    a change to the program does not."""
    started = time.perf_counter()
    table: Dict[int, int] = {}
    ring = [0] * 64
    acc = 0
    for i in range(rounds):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + 1
        ring[i & 63] = acc
        acc = (acc + key * 3) % 1_000_003
    return time.perf_counter() - started


class Tally:
    """Attempted/failed operations and why they failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


def one_sample(workload: str, seed: int, jobs: int, slots: Optional[int],
               expected: Any, tally: Tally, mode: str = "sample",
               extra: Optional[Dict[str, Any]] = None,
               paper_phases: Tuple[str, ...] = PAPER_PHASES,
               ) -> Optional[Dict[str, Any]]:
    """Run one fresh-process sample (each of ``paper_phases`` for
    paper-exhibits) and check its output; ``None`` when it failed
    outright."""
    request = {"mode": mode, "workload": workload, "seed": seed,
               "jobs": jobs, "slots": slots, **(extra or {})}
    try:
        if workload != "paper-exhibits":
            result, spawned, exited = run_child(request)
            attempted, failed = check_output(workload, result["output"],
                                             expected)
            tally.add(attempted, failed, f"seed {seed}: output mismatch")
            # These workloads keep no result cache, so no rerun is made:
            # cached_rerun_s is the sample's own spawn-to-exit time.
            return {"wall_s": result["wall_s"],
                    "setup_s": [result["ready"] - spawned],
                    "rss_mib": result["rss_mib"],
                    "rerun_s": [exited - spawned],
                    "results": [result]}
        cache_dir = WORK / "tmp" / f"cache-{os.getpid()}-{time.time_ns()}"
        try:
            phases = []
            for phase in paper_phases:
                trace_out = extra.get(f"trace_out_{phase}") if extra else None
                result, spawned, exited = run_child(dict(
                    request, phase=phase, cache_dir=str(cache_dir),
                    trace_out=trace_out))
                attempted, failed = check_output(workload, result["output"],
                                                 expected)
                tally.add(attempted, failed,
                          f"{phase} report differs from the expected text")
                phases.append((result, spawned, exited))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        cold = phases[0][0]
        return {"wall_s": cold["wall_s"],
                "setup_s": [r["ready"] - spawned for r, spawned, _ in phases],
                "rss_mib": max(r["rss_mib"] for r, _, _ in phases),
                "rerun_s": [exited - spawned
                            for _, spawned, exited in phases[1:]],
                "results": [r for r, _, _ in phases]}
    except (ChildError, subprocess.TimeoutExpired, KeyError,
            json.JSONDecodeError) as exc:
        ops = operations(workload) * (
            len(paper_phases) if workload == "paper-exhibits" else 1)
        tally.add(ops, ops, f"seed {seed}: {exc}")
        return None


def load_expected(workload: str, seed: int, slots: Optional[int],
                  tally: Tally, echo: Callable[[str], None] = print) -> Any:
    """The expected output: the golden report text, the committed digests
    of a pinned seed, or (for another seed or size) the digests of the
    array-engine record computed on the program under test."""
    if workload == "paper-exhibits":
        return GOLDEN.read_text()
    if slots is None:
        pinned = pinned_digests(workload, seed)
        if pinned is not None:
            return pinned
        echo(f"  WARNING: seed {seed} has no pinned record in "
             f"{PINNED.relative_to(ROOT)}; the output check is differential "
             "only (timed engine against the array engine of the same code)")
    try:
        found = expected_record(workload, seed, slots)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        tally.add(1, 1, f"expected record: {exc}")
        return None
    if not found["crosscheck"]:
        tally.add(1, 1, "reference and array engines disagree on the "
                        "shortened run")
    return operation_digests(workload, found["record"])


def tail(values: List[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n/a with {n} samples (needs 11)"
    pct = 100.0 * (n - 10) / n
    return f"p{pct:.0f} = {sorted(values)[n - 11]:.4f}"


def measure(workload: str, seed: int, seconds: float, *,
            slots: Optional[int] = None, min_samples: int = MIN_SAMPLES,
            expected: Any = None, env: Optional[Dict[str, Any]] = None,
            echo: Callable[[str], None] = print) -> Dict[str, Any]:
    """The ``--trace 0`` run: untraced fresh-process samples for
    ``seconds``.  ``expected`` overrides the expected output (tests)."""
    tally = Tally()
    env = env or environment()
    if expected is None:
        expected = load_expected(workload, seed, slots, tally, echo)
    if expected is None:
        return finish(workload, seed, 0, env, tally, None, echo)
    jobs = env["workers"]
    samples = []
    before = [speed_probe(), speed_probe()]
    began = time.monotonic()
    while (len(samples) < min_samples
           or time.monotonic() - began < seconds):
        found = one_sample(workload, seed, jobs, slots, expected, tally)
        after = [speed_probe(), speed_probe()]
        if found is None:
            break
        found["probe_s"] = statistics.mean(before + after)
        samples.append(found)
        before = after
    if not samples:
        return finish(workload, seed, 0, env, tally, None, echo)

    def scaled(key):
        """Every value of ``key``, each scaled by its sample's probe."""
        return [value * PROBE_REFERENCE_S / s["probe_s"] for s in samples
                for value in (s[key] if isinstance(s[key], list)
                              else [s[key]])]

    wall = statistics.median(scaled("wall_s"))
    metrics = {
        "wall_s": wall,
        "kslots_per_s": workloads.port_slots(workload, slots) / wall / 1e3,
        "setup_s": statistics.median(scaled("setup_s")),
        "peak_rss_mib": statistics.median(s["rss_mib"] for s in samples),
        "cached_rerun_s": statistics.median(scaled("rerun_s")),
    }
    walls = [s["wall_s"] for s in samples]

    def listing(values):
        return ", ".join(f"{v:.4f}" for v in values)

    echo(f"  raw samples; each is scaled by {PROBE_REFERENCE_S} s / the mean "
         "of the four speed probes around it")
    echo(f"  probe_s: {listing(s['probe_s'] for s in samples)}")
    echo(f"  wall_s: {listing(walls)}; median {statistics.median(walls):.4f} "
         f"over {len(walls)} samples; tail {tail(walls)}")
    echo(f"  setup_s: {listing(t for s in samples for t in s['setup_s'])}")
    echo(f"  cached_rerun_s: "
         f"{listing(t for s in samples for t in s['rerun_s'])}")
    record = {"samples": [{k: v for k, v in s.items() if k != "results"}
                          for s in samples]}
    return finish(workload, seed, 0, env, tally,
                  {name: (metrics[name], unit) for name, unit in END_TO_END},
                  echo, record)


# --------------------------------------------------------------------- #
# The traced run
# --------------------------------------------------------------------- #

def compile_seconds() -> float:
    """Load time of the span kernel from a cold ``.so`` cache (compile
    included); 0.0 when no compiler is available."""
    cold = WORK / "tmp" / f"xdg-cold-{os.getpid()}"
    try:
        result, _, _ = run_child({"mode": "warm"}, xdg=cold)
    finally:
        shutil.rmtree(cold, ignore_errors=True)
    return result["load_s"] if result["kernel"] else 0.0


def traced(workload: str, seed: int, *, slots: Optional[int] = None,
           expected: Any = None, env: Optional[Dict[str, Any]] = None,
           echo: Callable[[str], None] = print) -> Dict[str, Any]:
    """The ``--trace 1`` run: an untraced in-process reference run, the
    traced run, and (for workloads with a pool) an untraced sharded run
    for the runner figures."""
    tally = Tally()
    env = env or environment()
    if expected is None:
        expected = load_expected(workload, seed, slots, tally, echo)
    if expected is None:
        return finish(workload, seed, 1, env, tally, None, echo)
    compile_s = compile_seconds()
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-{seed}"
    # One cold and one warm phase: the traced figures add the two.
    phases = ("cold", "warm")
    plain = one_sample(workload, seed, 1, slots, expected, tally,
                       paper_phases=phases)
    extra = {"trace_out": str(traces / f"{stem}.json"),
             "trace_out_cold": str(traces / f"{stem}-cold.json"),
             "trace_out_warm": str(traces / f"{stem}-warm.json")}
    run = one_sample(workload, seed, 1, slots, expected, tally,
                     mode="traced", extra=extra, paper_phases=phases)
    parallel = None
    if workload != "rads-stream" and env["workers"] > 1:
        pooled = one_sample(workload, seed, env["workers"], slots, expected,
                            tally, extra={"probe_runner": True},
                            paper_phases=phases[:1])
        if pooled is not None:
            seen = pooled["results"][0]["runner"]
            parallel = {"wait_s": seen["wait_s"],
                        "busy_frac": (seen["busy_s"] / seen["capacity_s"]
                                      if seen["capacity_s"] else 0.0)}
    if plain is None or run is None:
        return finish(workload, seed, 1, env, tally, None, echo)
    tallies = [r["tally"] for r in run["results"]]
    raw = layers.merge(tallies)
    cold, warm = tallies[0], tallies[-1]
    gets = warm["cache_hits"] + warm["cache_misses"]
    metrics = layers.per_layer(
        raw,
        import_s=statistics.median(r["import_s"] for r in run["results"]),
        kernel_load_s=run["results"][0]["kernel_load_s"],
        compile_s=compile_s,
        untraced_wall_s=sum(r["wall_s"] for r in plain["results"]),
        cache_put_s=cold["self_s"].get("runner.cache_put", 0.0),
        cache_get_s=(warm["self_s"].get("runner.cache_get", 0.0)
                     if len(tallies) > 1 else 0.0),
        hit_ratio=warm["cache_hits"] / gets if len(tallies) > 1 and gets
        else 0.0,
        parallel=parallel)
    if workload == "paper-exhibits" and raw["slots"] != workloads.EXHIBIT_SLOTS:
        tally.add(1, 1, f"cold run simulated {raw['slots']} slots, expected "
                        f"{workloads.EXHIBIT_SLOTS}")
    echo(f"  traced wall {raw['wall_s']:.4f} s, untraced "
         f"{sum(r['wall_s'] for r in plain['results']):.4f} s")
    echo("  self time by layer (s, share of traced wall):")
    for name, seconds, share in layers.layer_table(raw):
        echo(f"    {name:<26} {seconds:9.4f}  {share:6.1%}")
    if len(tallies) > 1:
        for label, phase in (("cold", cold), ("warm", warm)):
            echo(f"  {label}: cache get {phase['self_s'].get('runner.cache_get', 0.0):.4f} s "
                 f"({phase['cache_hits']} hits, {phase['cache_misses']} misses), "
                 f"cache put {phase['self_s'].get('runner.cache_put', 0.0):.4f} s")
    units = dict(layers.PER_LAYER)
    return finish(workload, seed, 1, env, tally,
                  {name: (metrics[name], units[name]) for name in units},
                  echo, {"raw": raw, "parallel": parallel})


# --------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------- #

def environment() -> Dict[str, Any]:
    """What a comparison between two runs has to hold equal."""
    warmed, _, _ = run_child({"mode": "warm"})
    cpus = len(os.sched_getaffinity(0))
    return {"cpus": cpus, "workers": worker_count(),
            "kernel": warmed["kernel"], "python": sys.version.split()[0]}


def finish(workload: str, seed: int, trace: int, env: Dict[str, Any],
           tally: Tally, metrics: Optional[Dict[str, Tuple[float, str]]],
           echo: Callable[[str], None],
           record: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Print the summary lines, save the run record and build the result."""
    for note in tally.notes[:10]:
        echo(f"  FAILED: {note}")
    attempted = max(tally.attempted, 1)
    echo(f"  failed_frac {tally.failed / attempted:.4f} "
         f"({tally.failed} of {attempted} operations)")
    document = {
        "correct": metrics is not None and tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed if metrics is not None else attempted,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in (metrics or {}).items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "trace": trace,
                    "env": env, "result": document, **(record or {})},
                   indent=1))
    return document


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"cpus={env['cpus']} workers={env['workers']} "
          f"kernel={'yes' if env['kernel'] else 'no'}")
    if args.trace:
        document = traced(args.workload, args.seed, env=env)
    else:
        document = measure(args.workload, args.seed, args.seconds, env=env)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
