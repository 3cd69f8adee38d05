"""Acceptance tests: the struct-of-arrays engine is bit-identical to the
object-model loops on every registered scenario and every edge mode."""

import pytest

from repro.core.buffer import CFDSPacketBuffer
from repro.core.config import CFDSConfig
from repro.errors import (
    BufferOverflowError,
    ConfigurationError,
    StaleSimulationError,
)
from repro.mma.mdqf import MDQF
from repro.rads.buffer import RADSPacketBuffer
from repro.rads.config import RADSConfig
from repro.sim.array_engine import build_array_core
from repro.sim.engine import ClosedLoopSimulation
from repro.traffic.arbiters import OldestCellArbiter, RandomArbiter, TraceArbiter
from repro.traffic.arrivals import BernoulliArrivals, BurstyArrivals, TraceArrivals
from repro.workloads import all_scenarios
from repro.workloads.registry import scenario_names


def assert_reports_identical(left, right):
    assert left.throughput == right.throughput
    assert left.latency == right.latency
    assert left.buffer_result == right.buffer_result


def assert_dss_fields_measured(report):
    """The DSS-derived fields of a CFDS report saw real traffic, so their
    equality across engines is not vacuous."""
    result = report.buffer_result
    assert result.max_request_register_occupancy > 0
    assert result.max_reorder_delay_slots > 0


def run_both(make_sim, num_slots, drain=True):
    """Run a freshly built simulation on the reference loop and the array
    engine and return both reports."""
    reference = make_sim().run(num_slots, drain=drain, engine="reference")
    array = make_sim().run(num_slots, drain=drain, engine="array")
    return reference, array


# --------------------------------------------------------------------- #
# The registered suite (10 scenarios spanning both schemes, every arbiter
# family and every stochastic arrival process).
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name", scenario_names())
def test_array_engine_identical_on_registered_scenarios(name):
    scenario = next(s for s in all_scenarios() if s.name == name)
    reference = scenario.run(engine="reference", record_trace=True)
    array = scenario.run(engine="array", record_trace=True)
    assert_reports_identical(reference, array)
    assert reference.trace.events == array.trace.events


@pytest.mark.parametrize("name", scenario_names())
def test_array_engine_identical_without_drain(name):
    scenario = next(s for s in all_scenarios() if s.name == name)
    reference = scenario.run(engine="reference", num_slots=600)
    array = scenario.run(engine="array", num_slots=600)
    assert_reports_identical(reference, array)


# --------------------------------------------------------------------- #
# Edge modes: drain-only, fill-only, zero slots, replay.
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("scheme", ["rads", "cfds"])
def test_fill_only_run(scheme):
    """No arbiter: the buffer only fills; both engines agree."""
    def make_sim():
        buffer = _build_buffer(scheme)
        return ClosedLoopSimulation(
            buffer, BernoulliArrivals(8, load=0.9, seed=21), None)

    reference, array = run_both(make_sim, 800)
    assert_reports_identical(reference, array)
    assert reference.throughput.arrivals > 0
    assert reference.throughput.departures == 0


@pytest.mark.parametrize("scheme", ["rads", "cfds"])
def test_drain_only_run(scheme):
    """No arrivals: idle slots only; both engines agree."""
    def make_sim():
        buffer = _build_buffer(scheme)
        return ClosedLoopSimulation(buffer, None, OldestCellArbiter(8))

    reference, array = run_both(make_sim, 500)
    assert_reports_identical(reference, array)
    assert reference.throughput.arrivals == 0


@pytest.mark.parametrize("scheme", ["rads", "cfds"])
@pytest.mark.parametrize("num_slots", [0, 1])
def test_degenerate_slot_counts(scheme, num_slots):
    def make_sim():
        buffer = _build_buffer(scheme)
        return ClosedLoopSimulation(
            buffer, BernoulliArrivals(8, load=0.5, seed=3), RandomArbiter(8, seed=4))

    reference, array = run_both(make_sim, num_slots)
    assert_reports_identical(reference, array)


def test_trace_replay_cross_engine():
    """A trace recorded on the array engine replays bit-identically through
    the reference loop, and vice versa."""
    scenario = next(s for s in all_scenarios() if s.name == "bursty-trains")
    recorded = scenario.run(engine="array", record_trace=True)

    def replay(engine):
        trace = recorded.trace
        sim = ClosedLoopSimulation(scenario.build_buffer(),
                                   TraceArrivals(trace.arrivals()),
                                   TraceArbiter(trace.requests()))
        return sim.run(len(trace), engine=engine)

    replay_reference = replay("reference")
    replay_array = replay("array")
    assert_reports_identical(replay_reference, replay_array)
    assert replay_reference.throughput == recorded.throughput
    assert replay_reference.latency == recorded.latency


# --------------------------------------------------------------------- #
# Paths off the specialised fast lanes: custom MMA, lossy configurations.
# --------------------------------------------------------------------- #

def test_custom_head_mma_uses_generic_path():
    """A non-ECQF head MMA falls back to invoking the policy object with the
    object model's exact views — still bit-identical."""
    def make_sim(mma=None):
        config = RADSConfig(num_queues=6, granularity=3, strict=False)
        buffer = RADSPacketBuffer(config, head_mma=MDQF())
        return ClosedLoopSimulation(
            buffer, BurstyArrivals(6, mean_burst_cells=10, load=0.9, seed=5),
            RandomArbiter(6, load=0.8, seed=6))

    reference, array = run_both(make_sim, 1500)
    assert_reports_identical(reference, array)


def test_rads_nonstrict_dram_overflow_drops():
    """A tiny non-strict DRAM forces the eviction-drop path; drop accounting
    must match exactly."""
    def make_sim():
        config = RADSConfig(num_queues=4, granularity=4, strict=False,
                            dram_cells=16)
        buffer = RADSPacketBuffer(config)
        return ClosedLoopSimulation(
            buffer, BernoulliArrivals(4, load=1.0, seed=9),
            RandomArbiter(4, load=0.2, seed=10))

    reference, array = run_both(make_sim, 1200)
    assert_reports_identical(reference, array)
    assert reference.throughput.drops > 0


def test_cfds_static_groups_without_renaming():
    """Renaming disabled with finite bank groups exercises the static
    placement path (including group-full drops)."""
    def make_sim():
        config = CFDSConfig(num_queues=8, dram_access_slots=8, granularity=2,
                            num_banks=32, strict=False)
        buffer = CFDSPacketBuffer(config, use_renaming=False,
                                  group_capacity_cells=8)
        return ClosedLoopSimulation(
            buffer, BurstyArrivals(8, mean_burst_cells=20, load=0.95, seed=11),
            RandomArbiter(8, load=0.3, seed=12))

    reference, array = run_both(make_sim, 1500)
    assert_reports_identical(reference, array)
    assert reference.throughput.drops > 0


def test_cfds_renaming_with_group_capacity():
    """Renaming enabled with finite groups: the core's own renaming
    registers and free-name stacks make the renaming table's placement
    decisions."""
    def make_sim():
        config = CFDSConfig(num_queues=8, dram_access_slots=8, granularity=2,
                            num_banks=32, strict=False)
        buffer = CFDSPacketBuffer(config, use_renaming=True,
                                  group_capacity_cells=64)
        return ClosedLoopSimulation(
            buffer, BurstyArrivals(8, mean_burst_cells=20, load=0.95, seed=13),
            RandomArbiter(8, load=0.5, seed=14))

    reference, array = run_both(make_sim, 1500)
    assert_reports_identical(reference, array)
    assert_dss_fields_measured(reference)


def test_cfds_renaming_runs_out_of_names():
    """One physical name per group (``oversubscription=1``) and three-block
    groups: writes find no free name or no room and drop, and names are
    released and reused as queues drain."""
    def make_sim():
        config = CFDSConfig(num_queues=8, dram_access_slots=8, granularity=2,
                            num_banks=32, strict=False)
        buffer = CFDSPacketBuffer(config, use_renaming=True,
                                  oversubscription=1, group_capacity_cells=6)
        return ClosedLoopSimulation(
            buffer, BurstyArrivals(8, mean_burst_cells=20, load=0.95, seed=13),
            RandomArbiter(8, load=0.5, seed=14))

    reference, array = run_both(make_sim, 3000)
    assert_reports_identical(reference, array)
    assert reference.throughput.drops > 0
    assert_dss_fields_measured(reference)


@pytest.mark.parametrize("use_renaming, oversubscription, group_capacity", [
    (True, 2, None),
    (True, 2, 64),
    (True, 1, 6),
    (False, 1, 8),
])
def test_cfds_placement_state_matches_object_model(use_renaming,
                                                   oversubscription,
                                                   group_capacity):
    """The core's placement state equals the buffer's after the same slots:
    renaming entries, free-name stacks (order included), group occupancy,
    block locations and per-physical ordinals.  Reports only see placement
    through the DSS peaks, so this pins the choices themselves."""
    def make_sim():
        config = CFDSConfig(num_queues=8, dram_access_slots=8, granularity=2,
                            num_banks=32, strict=False)
        buffer = CFDSPacketBuffer(config, use_renaming=use_renaming,
                                  oversubscription=oversubscription,
                                  group_capacity_cells=group_capacity)
        return ClosedLoopSimulation(
            buffer, BurstyArrivals(8, mean_burst_cells=20, load=0.95, seed=13),
            RandomArbiter(8, load=0.5, seed=14))

    reference = make_sim()
    reference.run(2000, drain=False, engine="reference")
    buffer = reference.buffer
    array = make_sim()
    core = build_array_core(array)
    core.run_span(array.arrivals.arrivals(2000), 2000)

    assert [list(locations) for locations in core.block_loc] == [
        list(buffer._block_locations[q]) for q in range(8)]
    assert core.block_ordinal == [
        buffer._physical_write_count.get(p, 0)
        for p in range(buffer.mapping.num_queues)]
    assert core.group_occ == buffer.dram_group_occupancy()
    if use_renaming:
        table = buffer.renaming
        assert [[list(entry) for entry in entries]
                for entries in core.rename_regs] == [
            [[e.physical_queue, e.count] for e in table.register(q).entries()]
            for q in range(8)]
        assert core.free_names == [table._free_by_group[g]
                                   for g in range(table.num_groups)]
        assert sum(core.in_use) == table.physical_in_use()


def test_cfds_request_register_overflow_message_matches():
    """A strict one-entry Requests Register overflows under load; both
    engines raise the same error at the same point."""
    def run(engine):
        config = CFDSConfig(num_queues=8, dram_access_slots=8, granularity=2,
                            num_banks=32, rr_capacity=1)
        sim = ClosedLoopSimulation(
            CFDSPacketBuffer(config), BernoulliArrivals(8, load=0.95, seed=5),
            RandomArbiter(8, load=0.9, seed=6))
        with pytest.raises(BufferOverflowError) as caught:
            sim.run(3000, engine=engine)
        return str(caught.value)

    message = run("reference")
    assert message.startswith("Requests Register")
    assert run("array") == message


@pytest.mark.parametrize("dram_access_slots, granularity, random_access", [
    (8, 2, 2),       # bank busy for one issue period: ORR length 0
    (4, 4, None),    # b == B: one bank per group, no reordering room
])
def test_cfds_degenerate_dss_geometries(dram_access_slots, granularity,
                                        random_access):
    def make_sim():
        config = CFDSConfig(num_queues=8, dram_access_slots=dram_access_slots,
                            granularity=granularity, num_banks=32,
                            dram_random_access_slots=random_access,
                            strict=granularity != dram_access_slots)
        assert config.orr_size == 0
        return ClosedLoopSimulation(
            CFDSPacketBuffer(config),
            BurstyArrivals(8, mean_burst_cells=10, load=0.9, seed=7),
            RandomArbiter(8, load=0.8, seed=8))

    reference, array = run_both(make_sim, 2000)
    assert_reports_identical(reference, array)
    assert_dss_fields_measured(reference)


# --------------------------------------------------------------------- #
# Engine selection plumbing.
# --------------------------------------------------------------------- #

def test_unknown_engine_rejected():
    sim = ClosedLoopSimulation(_build_buffer("rads"))
    with pytest.raises(ConfigurationError, match="unknown engine"):
        sim.run(10, engine="warp")


def test_array_engine_requires_fresh_buffer():
    buffer = _build_buffer("rads")
    buffer.step(None, None)
    sim = ClosedLoopSimulation(buffer)
    with pytest.raises(StaleSimulationError, match="freshly built"):
        sim.run(10, engine="array")


@pytest.mark.parametrize("scheme", ["rads", "cfds"])
def test_array_engine_rejects_second_run(scheme):
    """The engine never steps the buffer, so a second run on the same
    simulation must be rejected by the accumulated-stats guard (it would
    double-count throughput and replay stale scheduler state)."""
    sim = ClosedLoopSimulation(_build_buffer(scheme),
                               BernoulliArrivals(8, load=0.5, seed=3),
                               RandomArbiter(8, seed=4))
    sim.run(200, engine="array")
    with pytest.raises(StaleSimulationError, match="freshly built"):
        sim.run(200, engine="array")


def test_array_engine_rejects_unknown_buffer_types():
    class NotABuffer:
        slot = 0

    sim = ClosedLoopSimulation(NotABuffer())
    with pytest.raises(ConfigurationError, match="array engine supports"):
        sim.run(10, engine="array")


def test_negative_slots_rejected():
    sim = ClosedLoopSimulation(_build_buffer("rads"))
    with pytest.raises(ConfigurationError, match="non-negative"):
        sim.run(-1, engine="array")


def test_engine_argument_overrides_fast_path_flag():
    """engine="reference" with fast_path=True must still use the reference
    loop (observable through report equality with an explicit legacy run)."""
    scenario = next(s for s in all_scenarios() if s.name == "uniform-bernoulli")
    via_engine = scenario.run(engine="reference", num_slots=400)
    via_flag = scenario.run(fast_path=False, num_slots=400)
    assert_reports_identical(via_engine, via_flag)


def _build_buffer(scheme):
    if scheme == "rads":
        return RADSPacketBuffer(RADSConfig(num_queues=8, granularity=4))
    return CFDSPacketBuffer(CFDSConfig(num_queues=8, dram_access_slots=8,
                                       granularity=2, num_banks=32))
