"""Acceptance tests: the batched fast path is bit-identical to the legacy
(reference) per-slot loop, and recorded traces replay deterministically
across variants."""

import pytest

from repro.bench import wide_scenario
from repro.sim.engine import ClosedLoopSimulation
from repro.traffic.arbiters import TraceArbiter
from repro.traffic.arrivals import TraceArrivals
from repro.workloads import all_scenarios, load_trace, save_trace


@pytest.mark.parametrize(
    "scenario", [*all_scenarios(), wide_scenario(num_slots=1500)],
    ids=lambda scenario: scenario.name)
def test_fast_path_identical_to_legacy_loop(scenario):
    """The headline acceptance criterion: every statistic the report carries
    (throughput counters, the full latency histogram, the buffer-side result
    and the recorded trace) matches exactly between the two loops."""
    fast = scenario.run(engine="batched", record_trace=True)
    legacy = scenario.run(engine="reference", record_trace=True)
    assert fast.throughput == legacy.throughput
    assert fast.latency == legacy.latency
    assert fast.buffer_result == legacy.buffer_result
    assert fast.trace.events == legacy.trace.events


@pytest.mark.parametrize("format", ["binary", "ndjson"])
def test_recorded_trace_replays_identically(tmp_path, format):
    """Record once, save, load, replay: the replayed run reproduces the
    original statistics exactly (the trace pins both sides of the slot)."""
    scenario = next(s for s in all_scenarios() if s.name == "bursty-trains")
    original = scenario.run(record_trace=True)
    path = tmp_path / f"capture.{format}"
    save_trace(original.trace, path, format=format,
               metadata={"scenario": scenario.name})
    trace, metadata = load_trace(path)
    assert metadata["scenario"] == scenario.name

    replay = ClosedLoopSimulation(scenario.build_buffer(),
                                  TraceArrivals(trace.arrivals()),
                                  TraceArbiter(trace.requests()))
    report = replay.run(len(trace))
    assert report.throughput == original.throughput
    assert report.latency == original.latency
    assert report.buffer_result == original.buffer_result


def test_recorded_trace_replays_across_buffer_variants(tmp_path):
    """A trace captured on the RADS buffer drives the CFDS buffer (same queue
    count): arrivals and requests are identical, only the buffer differs."""
    scenario = next(s for s in all_scenarios() if s.name == "bursty-trains")
    original = scenario.run(record_trace=True)
    path = tmp_path / "capture.rtrc"
    save_trace(original.trace, path)
    trace, _metadata = load_trace(path)

    cfds = next(s for s in all_scenarios() if s.name == "markov-onoff")
    replay = ClosedLoopSimulation(cfds.build_buffer(),
                                  TraceArrivals(trace.arrivals()),
                                  TraceArbiter(trace.requests()))
    report = replay.run(len(trace))
    # Same offered traffic; the CFDS buffer must still lose nothing.
    assert report.throughput.arrivals == original.throughput.arrivals
    assert report.throughput.drops == 0
    assert report.zero_miss
