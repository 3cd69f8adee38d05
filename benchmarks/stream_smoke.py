"""CI streaming smoke: bounded peak RSS and a checkpoint/resume round-trip.

The streaming path's whole reason to exist is that a run's peak memory is a
function of the *chunk size*, never the *horizon*.  This script drives a
long streamed run (1M slots in CI) and fails if:

* peak RSS exceeds a horizon-independent bound (``--rss-limit-mb``, default
  512 — an interpreter plus a chunk's arrival plan is comfortably under
  100 MB, so a regression that materialises an O(slots) structure on the
  streaming path trips this immediately);
* a run checkpointed every 40% of the horizon and resumed from its last
  snapshot in a *fresh process state* does not reproduce the uninterrupted
  run's report bit for bit.

``--engine`` picks the engine (default ``array``); ``--engine numpy`` covers
the streamed windows whose Bernoulli plans the span kernel draws itself.
Run it directly (CI does) or via pytest::

    python benchmarks/stream_smoke.py --slots 1000000
    python benchmarks/stream_smoke.py --slots 1000000 --engine numpy
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

DEFAULT_SLOTS = 1_000_000
DEFAULT_CHUNK = 65_536
DEFAULT_RSS_LIMIT_MB = 512
DEFAULT_ENGINE = "array"


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover
        return usage / (1024 * 1024)
    return usage / 1024


def main(argv=None) -> int:
    from repro.sim.array_engine import ENGINES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slots", type=int, default=DEFAULT_SLOTS)
    parser.add_argument("--chunk-slots", type=int, default=DEFAULT_CHUNK)
    parser.add_argument("--warmup", type=int, default=50_000)
    parser.add_argument("--rss-limit-mb", type=float,
                        default=DEFAULT_RSS_LIMIT_MB)
    parser.add_argument("--engine", default=DEFAULT_ENGINE, choices=ENGINES)
    args = parser.parse_args(argv)
    engine = args.engine

    from repro.bench.suite import stream_scenario
    from repro.sim.streaming import read_checkpoint, resume_stream

    scenario = stream_scenario(num_slots=args.slots)

    started = time.perf_counter()
    baseline = scenario.run_stream(engine=engine,
                                   chunk_slots=args.chunk_slots,
                                   warmup_slots=args.warmup)
    elapsed = time.perf_counter() - started
    rss = peak_rss_mb()
    kslots = args.slots / elapsed / 1e3
    print(f"streamed {args.slots} slots ({engine} engine, chunk "
          f"{args.chunk_slots}, warmup {args.warmup}) in {elapsed:.2f} s "
          f"({kslots:.0f} kslots/s), peak RSS {rss:.0f} MiB")
    if rss > args.rss_limit_mb:
        print(f"FAIL: peak RSS {rss:.0f} MiB exceeds the "
              f"{args.rss_limit_mb:.0f} MiB bound — something on the "
              "streaming path is O(slots)", file=sys.stderr)
        return 1

    # Checkpoint/resume round-trip: checkpoint every 40% of the horizon
    # through the same run() path as the baseline, resume from the last
    # snapshot, and compare reports.
    with tempfile.TemporaryDirectory() as tmpdir:
        path = os.path.join(tmpdir, "smoke.ckpt.json")
        scenario.run_stream(engine=engine, chunk_slots=args.chunk_slots,
                            warmup_slots=args.warmup,
                            checkpoint_every=max(1, args.slots * 2 // 5),
                            checkpoint_path=path)
        stop_at = read_checkpoint(path)["slot"]
        size_kb = os.path.getsize(path) / 1024
        resumed = resume_stream(path)
    identical = (resumed.throughput == baseline.throughput
                 and resumed.latency == baseline.latency
                 and resumed.buffer_result == baseline.buffer_result)
    print(f"checkpoint at slot {stop_at} ({size_kb:.0f} KiB), resumed run "
          f"{'matches' if identical else 'DIVERGES FROM'} the uninterrupted "
          "run")
    if not identical:
        print("FAIL: resumed report is not bit-identical", file=sys.stderr)
        print(json.dumps({"baseline": baseline.summary(),
                          "resumed": resumed.summary()}, indent=2,
                         default=str), file=sys.stderr)
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
