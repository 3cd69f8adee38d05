"""Cross-engine differential fuzzer.

The simulation engines (``reference``, ``batched``, ``array`` and ``numpy``)
promise bit-identical reports.  The hand-written equivalence suites check that
promise on the registered scenarios; this fuzzer checks it on ~50 *random*
configurations drawn from a seeded RNG — scheme, queue count, granularity,
SRAM/DRAM bounds, lossy/lossless mode, arrival process, arbiter and drain
mode all vary — so an engine refactor cannot silently special-case its way
past the curated scenarios.

Failures are reproducible: every case is generated from ``SEED`` (override
with ``REPRO_DIFFERENTIAL_SEED``; CI pins it) and carries its index in the
test id, and the failing case's full spec is printed by the assertion.
``REPRO_DIFFERENTIAL_CASES`` scales the case count (soak runs can raise it).
"""

import os
import random

import pytest

from repro.workloads.scenario import Scenario

SEED = int(os.environ.get("REPRO_DIFFERENTIAL_SEED", "20260729"))
NUM_CASES = int(os.environ.get("REPRO_DIFFERENTIAL_CASES", "50"))

ENGINES = ("reference", "batched", "array", "numpy")


def _arrival_spec(rng: random.Random, num_queues: int) -> dict:
    kind = rng.choice(["bernoulli", "bursty", "hotspot", "markov_on_off",
                       "pareto", "round_robin", "zipf", "trace",
                       "deterministic"])
    if kind == "bernoulli":
        params = {"num_queues": num_queues,
                  "load": rng.choice([0.3, 0.6, 0.85, 1.0])}
    elif kind == "bursty":
        params = {"num_queues": num_queues,
                  "mean_burst_cells": rng.choice([2.0, 8.0, 24.0]),
                  "load": rng.choice([0.5, 0.8, 1.0])}
    elif kind == "hotspot":
        hot = rng.sample(range(num_queues), k=max(1, num_queues // 4))
        params = {"num_queues": num_queues, "hot_queues": sorted(hot),
                  "hot_fraction": rng.choice([0.6, 0.9]),
                  "load": rng.choice([0.5, 0.9])}
    elif kind == "markov_on_off":
        params = {"num_queues": num_queues,
                  "mean_on_slots": rng.choice([5.0, 30.0]),
                  "mean_off_slots": rng.choice([10.0, 60.0]),
                  "peak_rate": rng.choice([0.5, 1.0])}
    elif kind == "pareto":
        params = {"num_queues": num_queues,
                  "alpha": rng.choice([1.2, 1.6, 2.5]),
                  "min_burst_cells": rng.choice([1, 4]),
                  "load": rng.choice([0.5, 0.8])}
    elif kind == "round_robin":
        params = {"num_queues": num_queues,
                  "load": rng.choice([0.7, 1.0])}
    elif kind == "zipf":
        params = {"num_queues": num_queues,
                  "exponent": rng.choice([0.8, 1.2, 2.0]),
                  "load": rng.choice([0.6, 0.95])}
    else:  # trace / deterministic: a canned random pattern
        length = rng.randint(40, 160)
        pattern = [rng.randrange(num_queues) if rng.random() < 0.7 else None
                   for _ in range(length)]
        if kind == "deterministic" and all(p is None for p in pattern):
            pattern[0] = 0  # DeterministicArrivals rejects empty patterns
        params = {"pattern": pattern}
    return {"type": kind, "params": params}


def _arbiter_spec(rng: random.Random, num_queues: int):
    kind = rng.choice(["longest_queue", "oldest_cell", "random",
                       "round_robin_adversary", "strided_adversary",
                       "intermittent", None])
    if kind is None:
        return None  # fill-only run
    if kind == "random":
        params = {"num_queues": num_queues,
                  "load": rng.choice([0.5, 0.9, 1.0])}
    elif kind == "strided_adversary":
        params = {"num_queues": num_queues,
                  "stride": rng.randint(1, num_queues),
                  "burst": rng.randint(1, 3)}
    elif kind == "intermittent":
        params = {"inner": {"type": "oldest_cell",
                            "params": {"num_queues": num_queues}},
                  "on_slots": rng.randint(1, 30),
                  "off_slots": rng.randint(0, 20)}
    else:
        params = {"num_queues": num_queues}
    return {"type": kind, "params": params}


def _buffer_spec(rng: random.Random, scheme: str, num_queues: int) -> dict:
    if scheme == "rads":
        buffer = {"num_queues": num_queues,
                  "granularity": rng.choice([1, 2, 3, 4, 6])}
        if rng.random() < 0.3:
            # A bounded DRAM with strictness off makes overflow drops legal
            # (a RADS-only mode: partial blocks drop, the rest is stored) —
            # the engines must agree on every dropped cell too.  CFDS defines
            # a bounded DRAM as strict on every engine; see
            # test_cfds_bounded_dram_raises_on_every_engine.
            buffer["strict"] = False
            buffer["dram_cells"] = rng.choice([8, 32, 128])
    else:
        b = rng.choice([1, 2, 4])
        big_b = b * rng.choice([2, 4])
        buffer = {"num_queues": num_queues,
                  "dram_access_slots": big_b,
                  "granularity": b,
                  "num_banks": (big_b // b) * rng.choice([2, 4, 8])}
    return buffer


def _generate_cases():
    rng = random.Random(SEED)
    cases = []
    for index in range(NUM_CASES):
        scheme = rng.choice(["rads", "cfds"])
        num_queues = rng.choice([1, 2, 3, 4, 8, 12])
        scenario = Scenario(
            name=f"fuzz-{index}",
            description="differential fuzzer case",
            scheme=scheme,
            buffer=_buffer_spec(rng, scheme, num_queues),
            arrivals=(_arrival_spec(rng, num_queues)
                      if rng.random() > 0.05 else None),
            arbiter=_arbiter_spec(rng, num_queues),
            num_slots=rng.randint(150, 500),
            seed=rng.randrange(2 ** 16),
        )
        cases.append((scenario, bool(rng.getrandbits(1))))  # (case, drain)
    return cases


CASES = _generate_cases()


@pytest.mark.parametrize(
    "scenario,drain", CASES,
    ids=[f"case{i}-{scn.scheme}-q{scn.buffer['num_queues']}"
         for i, (scn, _) in enumerate(CASES)])
def test_engines_bit_identical_on_random_config(scenario, drain):
    """Every statistic the report carries must match across all engines:
    throughput counters, the complete latency histogram, the buffer-side
    result (misses, drops, conflicts, peak occupancies) and the trace."""
    reports = {}
    for engine in ENGINES:
        sim = scenario.build_simulation(record_trace=True)
        reports[engine] = sim.run(scenario.num_slots, drain=drain,
                                  engine=engine)
    reference = reports["reference"]
    for engine in ENGINES[1:]:
        report = reports[engine]
        context = f"{engine} diverged on {scenario.to_spec()} drain={drain}"
        assert report.throughput == reference.throughput, context
        assert report.latency == reference.latency, context
        assert report.buffer_result == reference.buffer_result, context
        assert report.trace.events == reference.trace.events, context


def test_fuzzer_is_deterministic_per_seed():
    """The generated suite is a pure function of the seed — what CI pins is
    what a local repro runs."""
    first = [scn.to_spec() for scn, _ in _generate_cases()]
    second = [scn.to_spec() for scn, _ in _generate_cases()]
    assert first == second


def test_fuzzer_covers_both_schemes_and_lossy_configs():
    """Guards the generator itself: a distribution tweak must not silently
    stop exercising a whole scheme or the lossy path."""
    schemes = {scn.scheme for scn, _ in CASES}
    assert schemes == {"rads", "cfds"}
    assert any(scn.buffer.get("strict") is False for scn, _ in CASES)
    assert any(scn.arbiter is None for scn, _ in CASES)


def test_cfds_bounded_dram_raises_on_every_engine():
    """An asymmetry this fuzzer originally surfaced, pinned as a contract:
    CFDS treats a bounded DRAM as strict even with ``strict=False`` (only
    RADS defines non-strict overflow as counted drops), and all three
    engines agree on the failure."""
    from repro.errors import BufferOverflowError

    scenario = Scenario(
        name="cfds-bounded", description="", scheme="cfds",
        buffer={"num_queues": 2, "dram_access_slots": 4, "granularity": 2,
                "num_banks": 8, "strict": False, "dram_cells": 8},
        arrivals={"type": "round_robin",
                  "params": {"num_queues": 2, "load": 1.0}},
        arbiter=None,
        num_slots=200, seed=1)
    for engine in ENGINES:
        with pytest.raises(BufferOverflowError):
            scenario.build_simulation().run(scenario.num_slots, engine=engine)


# --------------------------------------------------------------------- #
# Streamed/chunked execution (ISSUE 5): random chunk boundaries, warmup
# offsets and checkpoint/resume points must all reproduce the monolithic
# run's report bit-identically.
# --------------------------------------------------------------------- #

#: Every Nth fuzzer case also runs through the streaming paths (the full
#: matrix would triple the suite's runtime for no extra coverage of the
#: engines themselves).
STREAM_CASES = [(index, scenario, drain)
                for index, (scenario, drain) in enumerate(CASES)][::5]
_STREAM_IDS = [f"case{index}-{scenario.scheme}"
               for index, scenario, _ in STREAM_CASES]


def _stream_rng(index: int) -> random.Random:
    return random.Random(SEED * 1_000_003 + index)


def _drive(session, stop_slot):
    arrivals = session.sim.arrivals
    while session.slot < stop_slot:
        count = min(session.chunk_slots, stop_slot - session.slot)
        if arrivals is not None:
            window = arrivals.arrivals_slice(session.slot, count)
            plan = window if isinstance(window, list) else list(window)
        else:
            plan = [None] * count
        session._execute(plan)


@pytest.mark.parametrize("index,scenario,drain", STREAM_CASES,
                         ids=_STREAM_IDS)
def test_streamed_chunks_bit_identical_on_random_config(index, scenario,
                                                        drain):
    """Random chunk boundaries on every engine vs the monolithic reference
    loop — the full report, trace included."""
    from repro.sim.streaming import StreamingSimulation

    rng = _stream_rng(index)
    reference = scenario.build_simulation(record_trace=True)
    baseline = reference.run(scenario.num_slots, drain=drain,
                             engine="reference")
    for engine in ENGINES:
        chunk = rng.randint(1, scenario.num_slots + 17)
        sim = scenario.build_simulation(record_trace=True)
        report = StreamingSimulation(sim, scenario.num_slots, engine=engine,
                                     drain=drain, chunk_slots=chunk).run()
        context = (f"streamed {engine} chunk={chunk} diverged on "
                   f"{scenario.to_spec()} drain={drain}")
        assert report.throughput == baseline.throughput, context
        assert report.latency == baseline.latency, context
        assert report.buffer_result == baseline.buffer_result, context
        assert report.trace.events == baseline.trace.events, context


@pytest.mark.parametrize("index,scenario,drain", STREAM_CASES[::2],
                         ids=_STREAM_IDS[::2])
def test_checkpoint_resume_bit_identical_on_random_config(index, scenario,
                                                          drain, tmp_path):
    """A snapshot at a random mid-run slot, resumed from disk, must finish
    bit-identically to the uninterrupted streamed run on every engine."""
    from repro.sim.streaming import StreamingSimulation, resume_stream

    rng = _stream_rng(index ^ 0x5A5A)
    for engine in ENGINES:
        chunk = rng.randint(1, scenario.num_slots)
        uninterrupted = StreamingSimulation(
            scenario.build_simulation(), scenario.num_slots, engine=engine,
            drain=drain, chunk_slots=chunk).run()
        session = StreamingSimulation(
            scenario.build_simulation(), scenario.num_slots, engine=engine,
            drain=drain, chunk_slots=chunk)
        _drive(session, rng.randint(0, scenario.num_slots))
        path = tmp_path / f"case{index}-{engine}.ckpt.json"
        session.save_checkpoint(path)
        resumed = resume_stream(path)
        context = (f"resume({engine}, chunk={chunk}) diverged on "
                   f"{scenario.to_spec()} drain={drain}")
        assert resumed.throughput == uninterrupted.throughput, context
        assert resumed.latency == uninterrupted.latency, context
        assert resumed.buffer_result == uninterrupted.buffer_result, context


@pytest.mark.parametrize("index,scenario,drain", STREAM_CASES[1::2],
                         ids=_STREAM_IDS[1::2])
def test_warmup_chunk_invariant_on_random_config(index, scenario, drain):
    """A random warmup offset must produce one well-defined report: the
    same for every chunking and engine."""
    from repro.sim.streaming import StreamingSimulation

    rng = _stream_rng(index ^ 0xC3C3)
    warmup = rng.randint(0, scenario.num_slots)
    baseline = None
    for engine in ENGINES:
        chunk = rng.randint(1, scenario.num_slots + 17)
        report = StreamingSimulation(
            scenario.build_simulation(), scenario.num_slots, engine=engine,
            drain=drain, chunk_slots=chunk,
            warmup_slots=warmup).run()
        if baseline is None:
            baseline = report
            continue
        context = (f"warmup={warmup} {engine} chunk={chunk} diverged on "
                   f"{scenario.to_spec()} drain={drain}")
        assert report.throughput == baseline.throughput, context
        assert report.latency == baseline.latency, context
        assert report.buffer_result == baseline.buffer_result, context
