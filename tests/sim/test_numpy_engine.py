"""Acceptance tests: ``engine="numpy"`` is bit-identical to the array
engine on every registered scenario and every edge mode, with and without
the compiled span kernel, and degrades to a clear error without numpy."""

import base64
import json
import os
import pickle
import sys

import pytest

from repro.errors import (
    BufferOverflowError,
    ConfigurationError,
    StaleSimulationError,
)
from repro.core.buffer import CFDSPacketBuffer
from repro.core.config import CFDSConfig
from repro.rads.buffer import RADSPacketBuffer
from repro.rads.config import RADSConfig
from repro.sim import kernel as span_kernel
from repro.sim import numpy_engine
from repro.obs.metrics import using_metrics
from repro.sim.engine import ClosedLoopSimulation
from repro.sim.numpy_engine import NUMPY_AVAILABLE
from repro.sim.streaming import StreamingSimulation, resume_stream
from repro.workloads.registry import get_scenario
from repro.traffic.arbiters import OldestCellArbiter, RandomArbiter
from repro.traffic.arrivals import BernoulliArrivals
from repro.workloads import Scenario, all_scenarios
from repro.workloads.registry import scenario_names

requires_numpy = pytest.mark.skipif(not NUMPY_AVAILABLE,
                                    reason="numpy not installed")

#: Both execution tiers of the RADS core: the compiled span kernel (when it
#: loads — without a compiler this leg just re-runs the fused loop) and the
#: pure-python fused loop (kernel force-disabled).
KERNEL_MODES = ("kernel", "no-kernel")


@pytest.fixture(params=KERNEL_MODES)
def kernel_mode(request, monkeypatch):
    if request.param == "no-kernel":
        monkeypatch.setattr(span_kernel, "_kernel", None)
        monkeypatch.setattr(span_kernel, "_kernel_tried", True)
    return request.param


def assert_reports_identical(left, right):
    assert left.throughput == right.throughput
    assert left.latency == right.latency
    assert left.buffer_result == right.buffer_result


def _build_buffer(scheme, **overrides):
    if scheme == "rads":
        return RADSPacketBuffer(RADSConfig(num_queues=8, granularity=4,
                                           **overrides))
    return CFDSPacketBuffer(CFDSConfig(num_queues=8, dram_access_slots=8,
                                       granularity=2, num_banks=32,
                                       **overrides))


def run_both(make_sim, num_slots, drain=True):
    array = make_sim().run(num_slots, drain=drain, engine="array")
    numpy = make_sim().run(num_slots, drain=drain, engine="numpy")
    return array, numpy


# --------------------------------------------------------------------- #
# The registered suite, through both kernel modes.
# --------------------------------------------------------------------- #

@requires_numpy
@pytest.mark.parametrize("name", scenario_names())
def test_numpy_identical_on_registered_scenarios(name, kernel_mode):
    scenario = next(s for s in all_scenarios() if s.name == name)
    array = scenario.run(engine="array")
    numpy = scenario.run(engine="numpy")
    assert_reports_identical(array, numpy)


@requires_numpy
@pytest.mark.parametrize("name", scenario_names())
def test_numpy_identical_without_drain(name, kernel_mode):
    scenario = next(s for s in all_scenarios() if s.name == name)
    array = scenario.run(engine="array", num_slots=600)
    numpy = scenario.run(engine="numpy", num_slots=600)
    assert_reports_identical(array, numpy)


@requires_numpy
def test_numpy_identical_with_trace_recorded():
    """A traced run cannot use the fused loop (the trace needs per-slot
    events) — the scalar delegation must still be bit-identical, trace
    included."""
    scenario = next(s for s in all_scenarios()
                    if s.name == "uniform-bernoulli")
    array = scenario.run(engine="array", record_trace=True)
    numpy = scenario.run(engine="numpy", record_trace=True)
    assert_reports_identical(array, numpy)
    assert array.trace.events == numpy.trace.events


# --------------------------------------------------------------------- #
# Edge modes: fill-only, drain-only, zero/one slot, lossy, no drain.
# --------------------------------------------------------------------- #

@requires_numpy
def test_fill_only_run(kernel_mode):
    """No arbiter: the buffer only fills; both engines agree."""
    def make_sim():
        return ClosedLoopSimulation(
            _build_buffer("rads"), BernoulliArrivals(8, load=0.9, seed=21),
            None)

    array, numpy = run_both(make_sim, 800)
    assert_reports_identical(array, numpy)
    assert numpy.throughput.arrivals > 0
    assert numpy.throughput.departures == 0


@requires_numpy
def test_drain_only_run(kernel_mode):
    """No arrivals: idle request slots only; both engines agree."""
    def make_sim():
        return ClosedLoopSimulation(_build_buffer("rads"), None,
                                    OldestCellArbiter(8))

    array, numpy = run_both(make_sim, 500)
    assert_reports_identical(array, numpy)
    assert numpy.throughput.arrivals == 0


@requires_numpy
@pytest.mark.parametrize("num_slots", [0, 1])
def test_degenerate_slot_counts(num_slots, kernel_mode):
    def make_sim():
        return ClosedLoopSimulation(
            _build_buffer("rads"), BernoulliArrivals(8, load=0.5, seed=3),
            RandomArbiter(8, seed=4))

    array, numpy = run_both(make_sim, num_slots)
    assert_reports_identical(array, numpy)


@requires_numpy
@pytest.mark.parametrize("drain", [True, False])
def test_lossy_run_counts_identical_drops(drain, kernel_mode):
    """strict=False with a bounded DRAM: overflow blocks are clamped to
    the remaining room and the loss is counted, never raised — identically
    on both engines."""
    def make_sim():
        return ClosedLoopSimulation(
            _build_buffer("rads", dram_cells=8, strict=False),
            BernoulliArrivals(8, load=1.0, seed=11),
            RandomArbiter(8, seed=12, load=0.3))

    array, numpy = run_both(make_sim, 1200, drain=drain)
    assert_reports_identical(array, numpy)
    assert numpy.throughput.drops > 0


@requires_numpy
def test_strict_overflow_raises_identically(kernel_mode):
    """A strict-mode overflow aborts the kernel; the python replay must
    surface the same exception the array engine raises."""
    def make_sim():
        return ClosedLoopSimulation(
            _build_buffer("rads", tail_sram_cells=3, strict=True),
            BernoulliArrivals(8, load=1.0, seed=11),
            RandomArbiter(8, seed=12, load=0.3))

    with pytest.raises(BufferOverflowError) as array_exc:
        make_sim().run(1200, engine="array")
    with pytest.raises(BufferOverflowError) as numpy_exc:
        make_sim().run(1200, engine="numpy")
    assert str(numpy_exc.value) == str(array_exc.value)


@requires_numpy
def test_cfds_falls_back_to_array_core(kernel_mode):
    """CFDS has no fused core: engine="numpy" must transparently run the
    array core and match it."""
    def make_sim():
        return ClosedLoopSimulation(
            _build_buffer("cfds"), BernoulliArrivals(8, load=0.8, seed=5),
            RandomArbiter(8, seed=6))

    array, numpy = run_both(make_sim, 900)
    assert_reports_identical(array, numpy)


# --------------------------------------------------------------------- #
# Selection plumbing and failure modes.
# --------------------------------------------------------------------- #

@requires_numpy
def test_numpy_engine_requires_fresh_buffer():
    buffer = _build_buffer("rads")
    buffer.step(None, None)
    sim = ClosedLoopSimulation(buffer)
    with pytest.raises(StaleSimulationError, match="freshly built"):
        sim.run(10, engine="numpy")


@requires_numpy
def test_numpy_engine_rejects_second_run():
    sim = ClosedLoopSimulation(_build_buffer("rads"),
                               BernoulliArrivals(8, load=0.5, seed=3),
                               RandomArbiter(8, seed=4))
    sim.run(200, engine="numpy")
    with pytest.raises(StaleSimulationError):
        sim.run(200, engine="numpy")


def test_missing_numpy_is_a_configuration_error(monkeypatch):
    """Without the optional dependency, engine="numpy" must fail with a
    ConfigurationError that names the extra — not an ImportError."""
    monkeypatch.setattr(numpy_engine, "_np", None)
    sim = ClosedLoopSimulation(
        _build_buffer("rads"), BernoulliArrivals(8, load=0.5, seed=3),
        RandomArbiter(8, seed=4))
    with pytest.raises(ConfigurationError, match=r"\[numpy\]"):
        sim.run(100, engine="numpy")


def test_kernel_kill_switch(monkeypatch):
    monkeypatch.setenv(span_kernel.KERNEL_ENV, "0")
    assert not span_kernel.kernel_enabled()
    monkeypatch.setenv(span_kernel.KERNEL_ENV, "off")
    assert not span_kernel.kernel_enabled()
    monkeypatch.delenv(span_kernel.KERNEL_ENV)
    assert span_kernel.kernel_enabled()


@requires_numpy
def test_unknown_engine_error_names_numpy():
    sim = ClosedLoopSimulation(_build_buffer("rads"))
    with pytest.raises(ConfigurationError, match="numpy"):
        sim.run(10, engine="warp")


# --------------------------------------------------------------------- #
# Streamed runs: per-window deferred Bernoulli plans.
# --------------------------------------------------------------------- #

#: Horizon of the streamed bit-identity cases (not a multiple of 191/192).
STREAM_SLOTS = 4000


def _stream_sim(num_queues=8, weights=None, load=0.85, shared_rng=False,
                arrivals_cls=BernoulliArrivals):
    arrivals = arrivals_cls(num_queues, load=load, weights=weights, seed=41)
    arbiter = RandomArbiter(num_queues, seed=42, load=0.9)
    if shared_rng:
        arbiter._rng = arrivals._rng
    return ClosedLoopSimulation(
        RADSPacketBuffer(RADSConfig(num_queues=num_queues, granularity=4)),
        arrivals, arbiter)


def stream_numpy_vs_array(make_sim, num_slots=STREAM_SLOTS, **stream_kw):
    """Stream ``make_sim()`` on the numpy and array engines; assert equal
    reports and equal RNG states afterwards.  Returns the numpy report and
    the number of spans that were handed a deferred plan."""
    numpy_sim = make_sim()
    with using_metrics() as registry:
        numpy = numpy_sim.run_stream(num_slots, engine="numpy", **stream_kw)
    array_sim = make_sim()
    array = array_sim.run_stream(num_slots, engine="array", **stream_kw)
    assert_reports_identical(numpy, array)
    assert numpy_sim.arrivals._rng.getstate() == \
        array_sim.arrivals._rng.getstate()
    assert numpy_sim.arbiter._rng.getstate() == \
        array_sim.arbiter._rng.getstate()
    return numpy, registry.counter("engine.numpy.deferred_spans")


@requires_numpy
@pytest.mark.parametrize("chunk_slots,num_slots", [
    (191, STREAM_SLOTS), (192, STREAM_SLOTS), (1000, STREAM_SLOTS),
    (65536, STREAM_SLOTS), (1000, 4321)])
def test_streamed_deferred_chunks_identical(chunk_slots, num_slots,
                                            kernel_mode):
    """Every window is a deferred plan — below the kernel's minimum span
    (191) it materializes, from 192 the kernel draws it — and the stream
    equals both the streamed array run and the monolithic numpy run."""
    numpy, deferred = stream_numpy_vs_array(
        _stream_sim, num_slots, chunk_slots=chunk_slots)
    assert deferred == -(-num_slots // chunk_slots)
    assert_reports_identical(numpy, _stream_sim().run(num_slots,
                                                      engine="numpy"))


@requires_numpy
@pytest.mark.parametrize("warmup_slots", [1100, 1500])
def test_streamed_deferred_warmup_mid_chunk(warmup_slots, kernel_mode):
    """The window holding the warmup boundary is cut before planning: two
    deferred plans, drawn in order (the 100-slot part materializes)."""
    numpy, deferred = stream_numpy_vs_array(
        _stream_sim, chunk_slots=1000, warmup_slots=warmup_slots)
    assert deferred == STREAM_SLOTS // 1000 + 1
    # The engineering counters cover the whole run, warmup or not.
    monolithic = _stream_sim().run(STREAM_SLOTS, engine="numpy")
    assert numpy.buffer_result == monolithic.buffer_result
    assert numpy.throughput.slots == monolithic.throughput.slots - warmup_slots


@requires_numpy
def test_streamed_deferred_checkpoint_resume(tmp_path, kernel_mode):
    """Checkpoint marks land mid-chunk (1700, 3400); the run resumed from
    the last one draws its remaining window deferred from the restored RNG
    state."""
    reports = {}
    for engine in ("numpy", "array"):
        reports[engine] = _stream_sim().run_stream(
            STREAM_SLOTS, engine=engine, chunk_slots=1000,
            checkpoint_every=1700, checkpoint_path=tmp_path / engine)
    assert_reports_identical(reports["numpy"], reports["array"])
    with using_metrics() as registry:
        resumed = resume_stream(tmp_path / "numpy")
    assert registry.counter("engine.numpy.deferred_spans") == 1
    assert_reports_identical(resumed, reports["array"])
    assert_reports_identical(resumed, _stream_sim().run(STREAM_SLOTS,
                                                        engine="numpy"))


@requires_numpy
def test_streamed_shared_rng_materializes(kernel_mode):
    """Arrivals and arbiter drawing from one ``Random``: the plan's words
    must be consumed before the arbiter's, so no window defers.  (Such a
    stream interleaves the two per window, so it is compared with the
    streamed array run only — and the monolithic runs with each other.)"""
    def make_sim():
        return _stream_sim(shared_rng=True)

    _, deferred = stream_numpy_vs_array(make_sim, chunk_slots=1000)
    assert deferred == 0
    assert_reports_identical(*run_both(make_sim, STREAM_SLOTS))


@requires_numpy
@pytest.mark.parametrize("weights,load,defers", [
    ([0, 3, 0, 1, 0, 0, 2, 0], 0.85, True),
    ([0] * 8, 0.0, False),
])
def test_streamed_zero_weight_queues(weights, load, defers, kernel_mode):
    """Zero-weight queues defer like any others; all-zero weights (no
    positive total) never defer."""
    def make_sim():
        return _stream_sim(weights=weights, load=load)

    numpy, deferred = stream_numpy_vs_array(make_sim, chunk_slots=1000)
    assert deferred == (STREAM_SLOTS // 1000 if defers else 0)
    assert_reports_identical(numpy, make_sim().run(STREAM_SLOTS,
                                                   engine="numpy"))


@requires_numpy
@pytest.mark.parametrize("num_queues,defers", [(254, True), (255, False)])
def test_streamed_queue_id_byte_limit(num_queues, defers, kernel_mode):
    """A plan byte holds queues 0..253 (255 means no arrival): 254 queues
    defer, 255 do not."""
    def make_sim():
        return _stream_sim(num_queues=num_queues)

    numpy, deferred = stream_numpy_vs_array(make_sim, 1500, chunk_slots=500)
    assert deferred == (3 if defers else 0)
    assert_reports_identical(numpy, make_sim().run(1500, engine="numpy"))


class _ShiftedSliceArrivals(BernoulliArrivals):
    """Overrides only ``arrivals_slice``: every window is the stock window
    with each queue id moved up by one."""

    def arrivals_slice(self, start_slot, num_slots):
        return [None if q is None else (q + 1) % self.num_queues
                for q in super().arrivals_slice(start_slot, num_slots)]


@requires_numpy
def test_streamed_custom_arrivals_slice_is_honoured(kernel_mode):
    """A subclass whose ``arrivals_slice`` differs from the stock one must
    not be deferred: the kernel's native draw would bypass the override."""
    def make_sim():
        return _stream_sim(arrivals_cls=_ShiftedSliceArrivals)

    numpy, deferred = stream_numpy_vs_array(make_sim, chunk_slots=1000)
    assert deferred == 0
    stock = _stream_sim().run_stream(STREAM_SLOTS, engine="array",
                                     chunk_slots=1000)
    assert numpy.latency != stock.latency


@requires_numpy
def test_rads_stream_shape_defers_every_main_chunk(kernel_mode):
    """A shortened long-horizon RADS stream (32 queues, Bernoulli 0.85,
    random arbiter 0.9, 65,536-slot chunks): every main chunk is handed a
    deferred plan, and the kernel runs each of them when it loads."""
    scenario = Scenario(
        name="rads-stream-short", description="", scheme="rads",
        buffer={"num_queues": 32, "granularity": 4},
        arrivals={"type": "bernoulli",
                  "params": {"num_queues": 32, "load": 0.85}},
        arbiter={"type": "random",
                 "params": {"num_queues": 32, "load": 0.9}},
        num_slots=140_000, seed=3)
    with using_metrics() as registry:
        streamed = scenario.run_stream(engine="numpy", chunk_slots=65536)
    assert registry.counter("stream.chunks") == 3
    assert registry.counter("engine.numpy.deferred_spans") == 3
    if kernel_mode == "kernel" and span_kernel.load_kernel() is not None:
        assert registry.counter("engine.numpy.kernel_spans") >= 3
    assert_reports_identical(streamed, scenario.run(engine="numpy"))


# --------------------------------------------------------------------- #
# Span-kernel hardening (review regressions).
# --------------------------------------------------------------------- #

@requires_numpy
def test_streamed_backlog_migration_identical(kernel_mode):
    """Streamed chunks over a machine with a large migrating backlog: a
    rarely-granting arbiter and one hot queue make the tail MMA push far
    more cells into DRAM per chunk than the chunk has slots (the kernel's
    out buffers must be sized for backlog migration, not just arrivals)."""
    def make_sim():
        return ClosedLoopSimulation(
            RADSPacketBuffer(RADSConfig(num_queues=8, granularity=64)),
            BernoulliArrivals(8, load=1.0, seed=31,
                              weights=[500, 1, 1, 1, 1, 1, 1, 1]),
            RandomArbiter(8, seed=32, load=0.05))

    array = make_sim().run_stream(4000, engine="array", chunk_slots=200)
    numpy = make_sim().run_stream(4000, engine="numpy", chunk_slots=200)
    assert_reports_identical(array, numpy)
    assert numpy.throughput.arrivals > 3000


@requires_numpy
def test_checkpoint_after_kernel_span_is_numpy_free(tmp_path):
    """A checkpoint written after kernel-backed spans must not embed any
    numpy object — the documented contract is that snapshots resume on
    hosts without the optional extra (scalar-loop fallback)."""
    if span_kernel.load_kernel() is None:
        pytest.skip("no C compiler: the span kernel never ran")
    scenario = get_scenario("uniform-bernoulli")
    uninterrupted = scenario.build_simulation().run_stream(
        scenario.num_slots, engine="numpy", chunk_slots=500)

    session = StreamingSimulation(scenario.build_simulation(),
                                  scenario.num_slots, engine="numpy",
                                  chunk_slots=500)
    arrivals = session.sim.arrivals
    while session.slot < 1000:
        count = min(session.chunk_slots, 1000 - session.slot)
        session._execute(list(arrivals.arrivals_slice(session.slot, count)))
    path = tmp_path / "kernel.ckpt.json"
    session.save_checkpoint(path)
    resumed = resume_stream(path)
    assert_reports_identical(resumed, uninterrupted)

    # The snapshot must unpickle on a host with no numpy at all: block
    # every numpy module and load the payload (an embedded ndarray would
    # raise ImportError here).
    blob = base64.b64decode(json.loads(path.read_text())["state_b64"])
    numpy_mods = {name: mod for name, mod in sys.modules.items()
                  if name == "numpy" or name.startswith("numpy.")}
    try:
        for name in numpy_mods:
            sys.modules[name] = None
        state = pickle.loads(blob)
    finally:
        sys.modules.update(numpy_mods)
    assert state["slot"] == 1000


def test_kernel_cache_is_private(monkeypatch, tmp_path):
    """The compiled-kernel cache lives under the user's private cache dir
    (XDG_CACHE_HOME honoured), never a world-shared temp directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    path = span_kernel._cache_path()
    assert str(path).startswith(str(tmp_path / "xdg"))
    assert path.parent == tmp_path / "xdg" / "repro" / "spankernel"


@pytest.mark.skipif(not hasattr(os, "getuid"), reason="POSIX-only check")
def test_kernel_trust_rejects_loose_permissions(tmp_path):
    private = tmp_path / "private.so"
    private.write_bytes(b"")
    os.chmod(private, 0o700)
    assert span_kernel._trusted(private)

    loose = tmp_path / "loose.so"
    loose.write_bytes(b"")
    os.chmod(loose, 0o770)  # group-writable: plantable by a co-member
    assert not span_kernel._trusted(loose)

    link = tmp_path / "link.so"
    link.symlink_to(private)
    assert not span_kernel._trusted(link)  # symlinks are never followed

    os.chmod(tmp_path, 0o700)
    assert span_kernel._trusted(tmp_path, want_dir=True)
    assert not span_kernel._trusted(tmp_path)  # wrong type for a .so
    assert not span_kernel._trusted(tmp_path / "absent.so")


@pytest.mark.skipif(not hasattr(os, "getuid"), reason="POSIX-only check")
def test_load_kernel_refuses_untrusted_cache(monkeypatch, tmp_path):
    """A pre-planted group-writable .so at the cache path is never CDLLed:
    load_kernel() must skip it and report the kernel unavailable."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    planted = span_kernel._cache_path()
    planted.parent.mkdir(parents=True)
    planted.write_bytes(b"not a real shared object")
    os.chmod(planted, 0o770)
    monkeypatch.setattr(span_kernel, "_kernel", None)
    monkeypatch.setattr(span_kernel, "_kernel_tried", False)
    assert span_kernel.load_kernel() is None
