#!/usr/bin/env python3
"""ASan/UBSan regression harness for the compiled span kernel.

Builds ``_spankernel.c`` with ``-fsanitize=address,undefined
-fno-sanitize-recover=all`` (``REPRO_SPAN_KERNEL_SANITIZE=1``), loads it
into a child interpreter with the sanitizer runtimes preloaded and real
``malloc`` in use, and drives it through:

1. the backlog-migration overflow stressor (heavily skewed Bernoulli
   weights push one queue's backlog through repeated grow/migrate cycles —
   the workload that exposed the unchecked writeback overflow),
2. a numpy-vs-array differential sweep across RADS configs, asserting
   bit-identical reports so the instrumented build is proven to be the
   same kernel, not just a crash-free one,
3. a streamed leg whose windows hand the kernel deferred Bernoulli plans
   across a checkpoint save/resume, so the native Bernoulli draw and its
   RNG writeback run instrumented on the chunked path, and
4. the delay-fold stressor: an arbiter granting less than arrives keeps
   backlog and delays growing past the span length, so the kernel's
   ``(delay, count)`` fold runs both its tally and its sort path, lossless
   and lossy (drops at a bounded DRAM).

Any out-of-bounds access or UB in the C source aborts the child with a
sanitizer report, which this parent surfaces verbatim.

Usage::

    python benchmarks/kernel_sanitize_check.py            # skip if no toolchain
    python benchmarks/kernel_sanitize_check.py --require  # CI: missing toolchain fails

Exit codes: 0 clean (or skipped without ``--require``), 1 sanitizer
finding or differential mismatch, 2 missing toolchain with ``--require``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: The child workload.  Runs under ASan+UBSan with the sanitized kernel
#: loaded; any memory error aborts before the prints.
_CHILD = r"""
import os
import sys
import tempfile

from repro.obs.metrics import using_metrics
from repro.rads.buffer import RADSPacketBuffer
from repro.rads.config import RADSConfig
from repro.sim.engine import ClosedLoopSimulation
from repro.sim.kernel import load_kernel
from repro.sim.streaming import resume_stream
from repro.traffic.arbiters import RandomArbiter
from repro.traffic.arrivals import BernoulliArrivals

if load_kernel() is None:
    print("SANITIZED KERNEL FAILED TO LOAD", file=sys.stderr)
    sys.exit(3)

def make_sim(weights=None, num_queues=8, granularity=64, seed=31):
    return ClosedLoopSimulation(
        RADSPacketBuffer(RADSConfig(num_queues=num_queues,
                                    granularity=granularity)),
        BernoulliArrivals(num_queues, load=1.0, seed=seed, weights=weights),
        RandomArbiter(num_queues, seed=seed + 1, load=0.05))

# 1. PR 9 backlog-migration overflow stressor: one queue absorbs almost the
# whole load, forcing repeated backlog grow/migrate cycles through the
# kernel writeback path that used to overflow.
skew = [500, 1, 1, 1, 1, 1, 1, 1]
stream = make_sim(weights=skew).run_stream(4000, engine="numpy",
                                           chunk_slots=200)
reference = make_sim(weights=skew).run_stream(4000, engine="array",
                                              chunk_slots=200)
if stream != reference:
    print("DIFFERENTIAL MISMATCH: backlog-migration stressor", file=sys.stderr)
    sys.exit(4)
print("stressor ok")

# 2. Differential sweep: uniform and mildly skewed loads across shapes.
for num_queues, granularity, seed, weights in (
        (4, 32, 7, None),
        (8, 64, 11, None),
        (16, 128, 13, None),
        (8, 64, 17, [8, 4, 2, 1, 1, 2, 4, 8]),
):
    got = make_sim(weights, num_queues, granularity, seed).run(
        3000, engine="numpy")
    want = make_sim(weights, num_queues, granularity, seed).run(
        3000, engine="array")
    if got != want:
        print(f"DIFFERENTIAL MISMATCH: q={num_queues} g={granularity} "
              f"seed={seed}", file=sys.stderr)
        sys.exit(4)
print("differential ok")

# 3. Streamed deferred windows across a checkpoint save/resume: 1000-slot
# chunks cut at mid-chunk marks (1700, 3400) and at the warmup boundary
# (1300) make 7 windows, plus 2 after resuming at 3400; every window is at
# least 192 slots, so the kernel draws each one's Bernoulli plan natively.
def make_stream_sim():
    return ClosedLoopSimulation(
        RADSPacketBuffer(RADSConfig(num_queues=16, granularity=4)),
        BernoulliArrivals(16, load=0.85, seed=23),
        RandomArbiter(16, seed=24, load=0.9))

stream_kw = dict(chunk_slots=1000, warmup_slots=1300, checkpoint_every=1700)
with tempfile.TemporaryDirectory() as tmpdir:
    path = os.path.join(tmpdir, "deferred.ckpt.json")
    with using_metrics() as registry:
        streamed = make_stream_sim().run_stream(
            5000, engine="numpy", checkpoint_path=path, **stream_kw)
        resumed = resume_stream(path)
    want = make_stream_sim().run_stream(
        5000, engine="array", checkpoint_path=os.path.join(tmpdir, "array"),
        **stream_kw)
deferred = registry.counter("engine.numpy.deferred_spans")
if deferred != 9 or registry.counter("engine.numpy.kernel_spans") < 9:
    print(f"STREAMED LEG DID NOT RUN DEFERRED: {deferred} deferred spans",
          file=sys.stderr)
    sys.exit(4)
if streamed != want or resumed != want:
    print("DIFFERENTIAL MISMATCH: streamed deferred windows", file=sys.stderr)
    sys.exit(4)
print("streamed ok")

# 4. Delay fold over a growing backlog: 500-slot spans whose delays reach
# thousands of slots (tally path at arbiter load 0.5; sparse departures
# over a wide range at 0.05 take the sort path), plus a lossy variant.
def make_fold_sim(arbiter_load, lossy):
    extra = dict(dram_cells=1024, strict=False) if lossy else {}
    return ClosedLoopSimulation(
        RADSPacketBuffer(RADSConfig(num_queues=8, granularity=4, **extra)),
        BernoulliArrivals(8, load=0.9, seed=51),
        RandomArbiter(8, seed=52, load=arbiter_load))

for arbiter_load, lossy in ((0.5, False), (0.05, False), (0.5, True)):
    with using_metrics() as registry:
        got = make_fold_sim(arbiter_load, lossy).run_stream(
            6000, engine="numpy", chunk_slots=500)
    want = make_fold_sim(arbiter_load, lossy).run_stream(
        6000, engine="array", chunk_slots=500)
    if registry.counter("engine.numpy.kernel_spans") < 12:
        print("DELAY FOLD LEG DID NOT RUN ON THE KERNEL", file=sys.stderr)
        sys.exit(4)
    if got != want:
        print(f"DIFFERENTIAL MISMATCH: delay fold load={arbiter_load} "
              f"lossy={lossy}", file=sys.stderr)
        sys.exit(4)
print("delay fold ok")
print("SANITIZE CHECK PASSED")
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--require", action="store_true",
                        help="fail (exit 2) instead of skipping when the "
                             "sanitizer toolchain is unavailable")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from repro.sim.kernel import _compiler, sanitizer_preload

    def skip(reason: str) -> int:
        if args.require:
            print(f"error: {reason}", file=sys.stderr)
            return 2
        print(f"skip: {reason}")
        return 0

    if _compiler() is None:
        return skip("no C compiler on PATH")
    preload = sanitizer_preload()
    if preload is None:
        return skip("sanitizer runtime libraries not found "
                    "(cc -print-file-name=libasan.so)")

    env = dict(os.environ)
    with tempfile.TemporaryDirectory(prefix="repro-sanitize-") as cache:
        env.update({
            "REPRO_SPAN_KERNEL_SANITIZE": "1",
            # Fresh cache: always exercise the sanitized compile itself.
            "XDG_CACHE_HOME": cache,
            "LD_PRELOAD": preload,
            # pymalloc arenas carry no ASan redzones; route Python object
            # allocation through intercepted malloc so overflows on
            # Python-owned buffers are caught too.
            "PYTHONMALLOC": "malloc",
            # CPython leaks-by-design at interpreter exit; leak checking
            # would drown real findings.
            "ASAN_OPTIONS": "detect_leaks=0:abort_on_error=1",
            "UBSAN_OPTIONS": "print_stacktrace=1",
            "PYTHONPATH": str(SRC) + (
                os.pathsep + env["PYTHONPATH"]
                if env.get("PYTHONPATH") else ""),
        })
        proc = subprocess.run([sys.executable, "-c", _CHILD], env=env)
    if proc.returncode == 0:
        print("kernel sanitize check passed")
        return 0
    if proc.returncode == 3 and not args.require:
        # The sanitized .so compiled but would not load in this
        # environment (e.g. static-only sanitizer runtimes).
        print("skip: sanitized kernel did not load")
        return 0
    print(f"error: sanitize child exited {proc.returncode}",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
