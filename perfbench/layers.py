"""Which program functions the traced run wraps, and the per-layer metrics
computed from what the wrappers recorded.

Every wrapper sits at a call into a public entry point of one layer (or at
the engine-loop entry the layer's own callers use); nothing inside the
program is edited.  :func:`install` needs ``repro`` importable; the metric
functions work on plain dicts, so the harness can merge phases without
importing the program.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from tracer import ROOT, Tracer, percentile

#: The nine exhibits of ``python -m repro all``, in report order.
EXPERIMENTS = ("intro-dram", "figure8", "table2", "figure10", "figure11",
               "scaling", "worstcase", "scenarios", "switch-suite")

#: Per-layer metrics, in BENCHMARK.json order (``--trace 1`` prints them all).
PER_LAYER = (
    ("repro.import_s", "s"), ("sim.kernel_load_s", "s"),
    ("sim.kernel_compile_s", "s"),
    ("traffic.plan_s", "s"), ("traffic.plan_calls", "count"),
    ("traffic.cells_planned", "count"),
    ("sim.build_core_s", "s"), ("sim.span_s", "s"),
    ("sim.span_ms_p50", "ms"), ("sim.span_ms_p90", "ms"),
    ("sim.kernel_s", "s"), ("sim.finish_s", "s"),
    ("sim.kernel_spans", "count"), ("sim.kernel_fallbacks", "count"),
    ("sim.kernel_span_ratio", "ratio"), ("sim.slots", "count"),
    ("core.dss_tick_s", "s"), ("core.dss_ticks", "count"),
    ("core.dss_submit_s", "s"), ("core.renaming_s", "s"),
    ("core.mapping_s", "s"), ("core.request_register_s", "s"),
    ("core.latency_register_s", "s"), ("dram.access_s", "s"),
    ("dram.accesses", "count"), ("core.bank_conflicts", "count"),
    ("core.peak_rr_occupancy", "count"), ("core.max_skips_observed", "count"),
    ("mma.select_s", "s"), ("mma.select_calls", "count"),
    ("rads.head_run_s", "s"), ("rads.max_head_sram_occupancy", "cells"),
    ("rads.headroom_cells", "cells"),
    ("switch.fabric_s", "s"), ("switch.port_stage_s", "s"),
    ("switch.merge_s", "s"), ("switch.fabric_wait_mean", "slots"),
    ("switch.peak_voq_backlog", "cells"),
    ("runner.job_ms_p50", "ms"), ("runner.job_ms_p90", "ms"),
    ("runner.jobs_executed", "count"), ("runner.cache_put_s", "s"),
    ("runner.cache_get_s", "s"), ("runner.cache_hit_ratio", "ratio"),
    ("runner.worker_busy_frac", "ratio"), ("runner.wait_s", "s"),
) + tuple((f"analysis.{name}_s", "s") for name in EXPERIMENTS) + (
    ("bench.unattributed_frac", "ratio"), ("bench.trace_overhead_frac", "ratio"),
)


@dataclasses.dataclass
class Collected:
    """Exact simulated values and outcome counts the wrappers collect."""

    kernel_ok: int = 0
    cells_planned: int = 0
    slots: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    schedulers: List[Any] = dataclasses.field(default_factory=list)
    head_runs: List[tuple] = dataclasses.field(default_factory=list)
    fabrics: List[Any] = dataclasses.field(default_factory=list)


def _planned(result) -> int:
    if isinstance(result, list):
        return len(result) - result.count(None)
    if isinstance(result, (bytes, bytearray)):
        return len(result) - result.count(0xFF)
    return 0


def install(tracer: Tracer) -> Collected:
    """Wrap every traced entry point; returns the probe the hooks fill."""
    from repro.core.head_buffer import CFDSHeadBuffer
    from repro.core.latency_register import LatencyRegister
    from repro.core.mapping import CFDSBankMapping
    from repro.core.renaming import RenamingTable
    from repro.core.request_register import FIFORequestRegister, RequestRegister
    from repro.core.scheduler import DRAMSchedulerSubsystem
    from repro.dram.dram import BankedDRAM
    from repro.mma.ecqf import ECQF
    from repro.mma.mdqf import MDQF
    from repro.mma.tail_mma import ThresholdTailMMA
    from repro.rads.head_buffer import RADSHeadBuffer
    from repro.runner import experiments, sweep
    from repro.runner.cache import MISS, ResultCache
    from repro.sim import array_engine, kernel, numpy_engine
    from repro.sim.engine import ClosedLoopSimulation
    from repro.sim.streaming import StreamingSimulation
    from repro.switch import model
    from repro.traffic.arrivals import ArrivalProcess
    import repro.switch.traffic  # noqa: F401  (registers its arrival classes)

    probe = Collected()
    wrap = tracer.wrap

    # -- traffic: every loaded arrival process that plans its own slots.
    def plan_post(args, kwargs, result, outermost):
        if outermost:
            probe.cells_planned += _planned(result)

    pending = [ArrivalProcess]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for attr in ("arrivals", "arrivals_slice"):
            if attr in cls.__dict__:
                wrap(cls, attr, "traffic.plan", span=True, post=plan_post)
    wrap(numpy_engine, "_plan_bernoulli", "traffic.plan", span=True,
         post=plan_post)

    # -- sim: core construction, span loops, the C kernel, finishing.
    def kernel_post(args, kwargs, result, outermost):
        if result:
            probe.kernel_ok += 1

    def fused_post(args, kwargs, result, outermost):
        if not result and outermost:
            tracer.calls["sim.span"] -= 1   # the span runs again, unfused

    def run_post(args, kwargs, result, outermost):
        if outermost:
            probe.slots += args[1] if len(args) > 1 else kwargs["num_slots"]

    def stream_post(args, kwargs, result, outermost):
        if outermost:
            probe.slots += args[0].slot

    wrap(kernel, "load_kernel", "sim.kernel_load", span=True)
    wrap(kernel, "run_span_kernel", "sim.kernel", span=True, post=kernel_post)
    wrap(array_engine, "build_array_core", "sim.build_core", span=True)
    wrap(numpy_engine, "build_numpy_core", "sim.build_core", span=True)
    for cls in (array_engine._RADSCore, array_engine._CFDSCore,
                numpy_engine._NumpyRADSCore):
        wrap(cls, "run_span", "sim.span", span=True)
    wrap(numpy_engine._NumpyRADSCore, "run_fused", "sim.span", span=True,
         post=fused_post)
    wrap(ClosedLoopSimulation, "_run_fast", "sim.span", span=True)
    wrap(ClosedLoopSimulation, "_run_slots", "sim.span", span=True)
    wrap(array_engine._ArrayCoreBase, "finish", "sim.finish", span=True)
    wrap(StreamingSimulation, "finish", "sim.finish", span=True,
         post=stream_post)
    wrap(ClosedLoopSimulation, "run", "sim.run", span=True, post=run_post)
    wrap(StreamingSimulation, "run", "sim.stream", span=True)

    # -- core and dram: per-slot calls, accumulators only.
    def dss_post(args, kwargs, result, outermost):
        probe.schedulers.append(args[0])

    wrap(DRAMSchedulerSubsystem, "__init__", "core.dss_build", post=dss_post)
    wrap(DRAMSchedulerSubsystem, "tick", "core.dss_tick")
    wrap(DRAMSchedulerSubsystem, "submit", "core.dss_submit")
    wrap(RenamingTable, "translate_write", "core.renaming")
    wrap(RenamingTable, "translate_read", "core.renaming")
    wrap(CFDSBankMapping, "group_of", "core.mapping")
    wrap(CFDSBankMapping, "bank_of", "core.mapping")
    for attr in ("push", "select", "wake_up"):
        wrap(RequestRegister, attr, "core.request_register")
    wrap(FIFORequestRegister, "select", "core.request_register")
    wrap(LatencyRegister, "shift", "core.latency_register")
    wrap(BankedDRAM, "start_access", "dram.access")
    wrap(BankedDRAM, "pop_completed", "dram.collect")

    # -- mma and the object-model head buffers (worst-case runs).
    for cls in (ECQF, MDQF, ThresholdTailMMA):
        wrap(cls, "select", "mma.select")

    def head_post(args, kwargs, result, outermost):
        probe.head_runs.append((args[0].config, result))
        probe.slots += result.slots_simulated

    wrap(RADSHeadBuffer, "run", "rads.head_run", span=True, post=head_post)

    def cfds_head_post(args, kwargs, result, outermost):
        probe.slots += result.slots_simulated

    wrap(CFDSHeadBuffer, "run", "core.head_run", span=True,
         post=cfds_head_post)

    # -- switch: fabric stage, port stage (the runner sweep), merge.
    def switch_post(args, kwargs, result, outermost):
        probe.fabrics.append(result.fabric)

    wrap(model.SwitchModel, "run", "switch.run", span=True, post=switch_post)
    wrap(model, "run_fabric", "switch.fabric", span=True)
    wrap(model.SwitchReport, "summary", "switch.merge", span=True)

    # -- runner: sweeps, jobs and the result cache.
    def get_post(args, kwargs, result, outermost):
        if result is MISS:
            probe.cache_misses += 1
        else:
            probe.cache_hits += 1

    wrap(sweep.SweepRunner, "run", "runner.sweep", span=True)
    wrap(sweep, "run_job", "runner.job", span=True)
    wrap(ResultCache, "get", "runner.cache_get", span=True, post=get_post)
    wrap(ResultCache, "put", "runner.cache_put", span=True)

    # -- analysis: one span per exhibit, from building its jobs to
    #    rendering its block (the CLI runs them strictly in sequence).
    for name, spec in list(experiments.EXPERIMENTS.items()):
        tracer.replace_item(experiments.EXPERIMENTS, name, dataclasses.replace(
            spec, build_jobs=_opening(tracer, f"analysis.{name}",
                                      spec.build_jobs),
            render=_closing(tracer, f"analysis.{name}", spec.render)))
    return probe


def _opening(tracer: Tracer, name: str, build_jobs):
    def build():
        tracer.begin(name)
        return build_jobs()
    return build


def _closing(tracer: Tracer, name: str, render):
    def finish(results, jobs):
        try:
            return render(results, jobs)
        finally:
            tracer.end(name)
    return finish


def tally(tracer: Tracer, probe: Collected) -> Dict[str, Any]:
    """Everything the per-layer metrics need, as a JSON-able dict."""
    self_s = dict(tracer.self_s)
    root = tracer.durations(ROOT)
    exact: Dict[str, float] = {}
    if probe.schedulers:
        exact["core.bank_conflicts"] = sum(
            d.bank_conflicts for d in probe.schedulers)
        exact["core.peak_rr_occupancy"] = max(
            d.peak_rr_occupancy for d in probe.schedulers)
        exact["core.max_skips_observed"] = max(
            d.max_skips_observed for d in probe.schedulers)
    if probe.head_runs:
        from repro.rads.sizing import rads_sram_size

        exact["rads.max_head_sram_occupancy"] = max(
            r.max_head_sram_occupancy for _, r in probe.head_runs)
        exact["rads.headroom_cells"] = min(
            rads_sram_size(c.effective_lookahead, c.num_queues, c.granularity)
            - r.max_head_sram_occupancy for c, r in probe.head_runs)
    if probe.fabrics:
        exact["switch.fabric_wait_mean"] = max(
            f.wait_mean for f in probe.fabrics)
        exact["switch.peak_voq_backlog"] = max(
            f.peak_voq_backlog for f in probe.fabrics)
    port_stage = merge = 0.0
    for span in tracer.spans:
        if span["name"] != "switch.run":
            continue
        children = [s for s in tracer.spans if s["parent"] == span["id"]]
        sweeps = [s for s in children if s["name"] == "runner.sweep"]
        port_stage += sum(s["end"] - s["start"] for s in sweeps)
        if sweeps:
            merge += span["end"] - max(s["end"] for s in sweeps)
    merge += sum(tracer.durations("switch.merge"))
    return {
        "wall_s": sum(root),
        "self_s": self_s,
        "calls": dict(tracer.calls),
        "overhead_s": tracer.overhead_s,
        "span_s": tracer.durations("sim.span"),
        "job_s": tracer.durations("runner.job"),
        "inclusive": {
            "switch.fabric_s": sum(tracer.durations("switch.fabric")),
            "switch.port_stage_s": port_stage,
            "switch.merge_s": merge,
            "rads.head_run_s": sum(tracer.durations("rads.head_run")),
            **{f"analysis.{n}_s": sum(tracer.durations(f"analysis.{n}"))
               for n in EXPERIMENTS},
        },
        "exact": exact,
        "kernel_ok": probe.kernel_ok,
        "cells_planned": probe.cells_planned,
        "slots": probe.slots,
        "cache_hits": probe.cache_hits,
        "cache_misses": probe.cache_misses,
    }


def merge(phases: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine the tallies of a workload's phases (cold and warm)."""
    if len(phases) == 1:
        return phases[0]
    out: Dict[str, Any] = {"self_s": {}, "calls": {}, "inclusive": {},
                           "exact": {}, "span_s": [], "job_s": []}
    for phase in phases:
        for key in ("self_s", "calls", "inclusive"):
            for name, value in phase[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for name, value in phase["exact"].items():
            out["exact"][name] = max(out["exact"].get(name, value), value)
        out["span_s"] += phase["span_s"]
        out["job_s"] += phase["job_s"]
        for key in ("wall_s", "overhead_s", "kernel_ok", "cells_planned",
                    "slots", "cache_hits", "cache_misses"):
            out[key] = out.get(key, 0) + phase[key]
    return out


def per_layer(raw: Dict[str, Any], *, import_s: float, kernel_load_s: float,
              compile_s: float, untraced_wall_s: float,
              cache_put_s: float, cache_get_s: float, hit_ratio: float,
              parallel: Optional[Dict[str, float]]) -> Dict[str, float]:
    """The ``--trace 1`` metrics from one workload's merged tally.

    ``cache_put_s``/``cache_get_s``/``hit_ratio`` come from the phase each
    maps to (cold writes, warm reads); ``parallel`` holds the runner figures
    of the untraced sharded run, or ``None`` when the workload has no pool.
    """
    s = raw["self_s"]
    calls = raw["calls"]
    spans = calls.get("sim.span", 0)

    def self_of(*names):
        return sum(s.get(n, 0.0) for n in names)

    wall = raw["wall_s"]
    out = {
        "repro.import_s": import_s,
        "sim.kernel_load_s": kernel_load_s,
        "sim.kernel_compile_s": compile_s,
        "traffic.plan_s": self_of("traffic.plan"),
        "traffic.plan_calls": calls.get("traffic.plan", 0),
        "traffic.cells_planned": raw["cells_planned"],
        "sim.build_core_s": self_of("sim.build_core"),
        "sim.span_s": self_of("sim.span"),
        "sim.span_ms_p50": percentile(raw["span_s"], 0.50) * 1e3,
        "sim.span_ms_p90": percentile(raw["span_s"], 0.90) * 1e3,
        "sim.kernel_s": self_of("sim.kernel"),
        "sim.finish_s": self_of("sim.finish"),
        "sim.kernel_spans": raw["kernel_ok"],
        "sim.kernel_fallbacks": max(0, spans - raw["kernel_ok"]),
        "sim.kernel_span_ratio": raw["kernel_ok"] / spans if spans else 0.0,
        "sim.slots": raw["slots"],
        "core.dss_tick_s": self_of("core.dss_tick"),
        "core.dss_ticks": calls.get("core.dss_tick", 0),
        "core.dss_submit_s": self_of("core.dss_submit"),
        "core.renaming_s": self_of("core.renaming"),
        "core.mapping_s": self_of("core.mapping"),
        "core.request_register_s": self_of("core.request_register"),
        "core.latency_register_s": self_of("core.latency_register"),
        "dram.access_s": self_of("dram.access", "dram.collect"),
        "dram.accesses": calls.get("dram.access", 0),
        "mma.select_s": self_of("mma.select"),
        "mma.select_calls": calls.get("mma.select", 0),
        "runner.job_ms_p50": percentile(raw["job_s"], 0.50) * 1e3,
        "runner.job_ms_p90": percentile(raw["job_s"], 0.90) * 1e3,
        "runner.jobs_executed": calls.get("runner.job", 0),
        "runner.cache_put_s": cache_put_s,
        "runner.cache_get_s": cache_get_s,
        "runner.cache_hit_ratio": hit_ratio,
        "runner.worker_busy_frac": parallel["busy_frac"] if parallel else 0.0,
        "runner.wait_s": parallel["wait_s"] if parallel else 0.0,
        "bench.unattributed_frac": self_of(ROOT) / wall if wall else 0.0,
        "bench.trace_overhead_frac": (
            (wall - untraced_wall_s) / untraced_wall_s
            if untraced_wall_s else 0.0),
    }
    out.update(raw["inclusive"])
    for name, _unit in PER_LAYER:
        out.setdefault(name, 0)
    out.update(raw["exact"])
    return {name: out[name] for name, _unit in PER_LAYER}


def layer_table(raw: Dict[str, Any]) -> List[tuple]:
    """``(layer, self seconds, share of wall)`` rows, largest first, with
    the tracer's own bookkeeping as a row of its own."""
    wall = raw["wall_s"] or 1.0
    rows = [(("unattributed" if name == ROOT else name), value, value / wall)
            for name, value in raw["self_s"].items()]
    rows.append(("trace-bookkeeping", raw["overhead_s"],
                 raw["overhead_s"] / wall))
    return sorted(rows, key=lambda row: -row[1])
