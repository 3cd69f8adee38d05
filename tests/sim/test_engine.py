"""Tests for the closed-loop simulation driver."""

import pytest

from repro.errors import ConfigurationError
from repro.rads.buffer import RADSPacketBuffer
from repro.rads.config import RADSConfig
from repro.sim.engine import ClosedLoopSimulation
from repro.traffic.arbiters import OldestCellArbiter, RandomArbiter, TraceArbiter
from repro.traffic.arrivals import (
    BernoulliArrivals,
    DeterministicArrivals,
    TraceArrivals,
)


@pytest.fixture
def buffer():
    return RADSPacketBuffer(RADSConfig(num_queues=4, granularity=3))


class TestClosedLoopSimulation:
    def test_conservation_of_cells(self, buffer):
        sim = ClosedLoopSimulation(buffer,
                                   BernoulliArrivals(4, load=0.7, seed=1),
                                   OldestCellArbiter(4))
        report = sim.run(2000)
        assert report.throughput.arrivals >= report.throughput.departures
        # After the drain, everything that was requested has left; what is
        # left in the buffer is arrivals minus departures.
        remaining = sum(buffer.backlog(q) for q in range(4))
        in_flight = sum(buffer._outstanding_requests.values()) - report.throughput.departures
        assert report.throughput.arrivals == report.throughput.departures + remaining + in_flight

    def test_zero_miss_report(self, buffer):
        sim = ClosedLoopSimulation(buffer,
                                   BernoulliArrivals(4, load=0.8, seed=2),
                                   RandomArbiter(4, load=0.9, seed=3))
        report = sim.run(1500)
        assert report.zero_miss

    def test_latency_accounts_served_cells(self, buffer):
        sim = ClosedLoopSimulation(buffer,
                                   BernoulliArrivals(4, load=0.5, seed=4),
                                   OldestCellArbiter(4))
        report = sim.run(1000)
        assert report.latency.count == report.throughput.departures
        if report.latency.count:
            # Every served cell waited at least the lookahead delay.
            assert report.latency.minimum >= buffer.config.effective_lookahead

    def test_trace_recording_and_length(self, buffer):
        sim = ClosedLoopSimulation(buffer,
                                   DeterministicArrivals([0, 1, None]),
                                   OldestCellArbiter(4),
                                   record_trace=True)
        report = sim.run(300, drain=False)
        assert report.trace is not None
        assert len(report.trace) == 300

    def test_inadmissible_requests_are_filtered(self, buffer):
        # An arbiter that always asks for queue 0 even when it is empty: the
        # engine must squash those requests rather than crash the buffer.
        class StubbornArbiter:
            def next_request(self, slot, backlog):
                return 0

        sim = ClosedLoopSimulation(buffer, DeterministicArrivals([1]), StubbornArbiter())
        report = sim.run(100)
        assert report.throughput.departures == 0

    def test_negative_slots_rejected(self, buffer):
        sim = ClosedLoopSimulation(buffer)
        with pytest.raises(ConfigurationError):
            sim.run(-1)


@pytest.mark.parametrize("engine", ["batched", "reference"],
                         ids=["fast-path", "legacy-loop"])
class TestEdgeModes:
    def test_fill_only_no_arbiter(self, buffer, engine):
        """No arbiter: cells accumulate, nothing is ever served."""
        sim = ClosedLoopSimulation(buffer, BernoulliArrivals(4, load=0.8, seed=1))
        report = sim.run(500, engine=engine)
        assert report.throughput.departures == 0
        assert report.throughput.idle_request_slots >= 500
        assert report.latency.count == 0
        assert sum(buffer.backlog(q) for q in range(4)) == report.throughput.arrivals

    def test_drain_only_no_arrivals(self, engine):
        """No arrivals: a pre-filled buffer drains to empty and the served
        count matches what was pre-loaded."""
        buffer = RADSPacketBuffer(RADSConfig(num_queues=4, granularity=3))
        preloaded = 40
        for i in range(preloaded):
            buffer.step(i % 4, None)
        sim = ClosedLoopSimulation(buffer, arrivals=None,
                                   arbiter=OldestCellArbiter(4))
        report = sim.run(preloaded + 100, engine=engine)
        assert report.throughput.arrivals == 0
        assert report.throughput.departures == preloaded
        assert all(buffer.backlog(q) == 0 for q in range(4))

    def test_empty_run_zero_slots(self, buffer, engine):
        report = ClosedLoopSimulation(buffer).run(0, drain=False,
                                                  engine=engine)
        assert report.throughput.slots == 0
        assert report.throughput.departures == 0

    def test_recorded_trace_replays_identically(self, buffer, engine):
        """record_trace=True: replaying the captured (arrival, request)
        sequence through a fresh identical buffer reproduces the run."""
        sim = ClosedLoopSimulation(buffer,
                                   BernoulliArrivals(4, load=0.7, seed=21),
                                   RandomArbiter(4, load=0.8, seed=22),
                                   record_trace=True)
        original = sim.run(800, engine=engine)

        fresh = RADSPacketBuffer(RADSConfig(num_queues=4, granularity=3))
        replay = ClosedLoopSimulation(fresh,
                                      TraceArrivals(original.trace.arrivals()),
                                      TraceArbiter(original.trace.requests()),
                                      record_trace=True)
        replayed = replay.run(len(original.trace), engine=engine)
        assert replayed.throughput == original.throughput
        assert replayed.latency == original.latency
        assert replayed.buffer_result == original.buffer_result
        assert replayed.trace.events == original.trace.events


class TestDrops:
    def test_dropped_cells_is_a_real_attribute(self, buffer):
        """Both buffer classes expose dropped_cells; the engine reads it
        directly (no getattr fallback)."""
        assert buffer.dropped_cells == 0
        report = ClosedLoopSimulation(buffer,
                                      BernoulliArrivals(4, load=0.5, seed=1),
                                      OldestCellArbiter(4)).run(200)
        assert report.throughput.drops == 0

    def test_non_strict_finite_dram_counts_drops(self):
        """With a tiny DRAM and strict=False, overflow evictions are counted
        instead of raising."""
        config = RADSConfig(num_queues=2, granularity=4, dram_cells=4,
                            strict=False)
        buffer = RADSPacketBuffer(config)
        sim = ClosedLoopSimulation(buffer, DeterministicArrivals([0, 1]))
        report = sim.run(400)
        assert buffer.dropped_cells > 0
        assert report.throughput.drops == buffer.dropped_cells
