"""Declarative workload scenarios.

A :class:`Scenario` bundles everything one closed-loop run needs — the buffer
scheme and its configuration, the arrival process, the arbiter, the duration
and the seed — as *plain data*.  Generators are named by short type strings
and built through explicit factory tables, so a scenario round-trips through
a JSON spec dict: that is what lets the experiment runner cache scenario runs
(:class:`~repro.runner.jobs.Job` kwargs must be JSON-serialisable) and what
makes ``python -m repro scenario`` possible without any code in the loop.

The module-level :func:`run_scenario_spec` is the job function the runner
executes; it returns a :class:`ScenarioResult` of plain numbers that the
result cache can serialise.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.buffer import CFDSPacketBuffer
from repro.core.config import CFDSConfig
from repro.errors import CheckpointError, ConfigurationError
from repro.mma.ecqf import ECQF
from repro.mma.mdqf import MDQF
from repro.rads.buffer import RADSPacketBuffer
from repro.rads.config import RADSConfig
from repro.sim.engine import ClosedLoopSimulation, SimulationReport
from repro.traffic.arbiters import (
    Arbiter,
    IntermittentArbiter,
    LongestQueueArbiter,
    OldestCellArbiter,
    RandomArbiter,
    RoundRobinAdversary,
    StridedAdversary,
    TraceArbiter,
)
from repro.traffic.arrivals import (
    ArrivalProcess,
    BernoulliArrivals,
    BurstyArrivals,
    DeterministicArrivals,
    HotspotArrivals,
    MarkovOnOffArrivals,
    ParetoBurstArrivals,
    RoundRobinArrivals,
    TraceArrivals,
    ZipfArrivals,
)

#: Arrival-process factories, keyed by the type string used in scenario specs.
ARRIVAL_TYPES: Dict[str, type] = {
    "bernoulli": BernoulliArrivals,
    "bursty": BurstyArrivals,
    "deterministic": DeterministicArrivals,
    "hotspot": HotspotArrivals,
    "markov_on_off": MarkovOnOffArrivals,
    "pareto": ParetoBurstArrivals,
    "round_robin": RoundRobinArrivals,
    "trace": TraceArrivals,
    "zipf": ZipfArrivals,
}

#: Arbiter factories, keyed by the type string used in scenario specs.
ARBITER_TYPES: Dict[str, type] = {
    "intermittent": IntermittentArbiter,
    "longest_queue": LongestQueueArbiter,
    "oldest_cell": OldestCellArbiter,
    "random": RandomArbiter,
    "round_robin_adversary": RoundRobinAdversary,
    "strided_adversary": StridedAdversary,
    "trace": TraceArbiter,
}

#: Buffer schemes a scenario can drive, mapped to (config class, buffer class).
SCHEMES: Dict[str, Tuple[type, type]] = {
    "rads": (RADSConfig, RADSPacketBuffer),
    "cfds": (CFDSConfig, CFDSPacketBuffer),
}

#: Head-MMA factories, keyed by the type string used in scenario specs.
#: ``None`` in a spec keeps the buffer's stock policy (ECQF with fallback);
#: naming one explicitly routes the run through the generic MMA path of
#: every engine — the "custom MMA" surface the differential harness covers.
MMA_TYPES: Dict[str, type] = {
    "ecqf": ECQF,
    "mdqf": MDQF,
}


def accepts_param(cls: type, name: str) -> bool:
    """True when ``cls.__init__`` takes a parameter called ``name``.

    The spec builders use this to inject context a spec dict should not have
    to spell out (the scenario seed here; the port count and ingress index in
    :mod:`repro.switch`) without breaking generators that do not take it.
    """
    return name in inspect.signature(cls.__init__).parameters


def _accepts_seed(cls: type) -> bool:
    return accepts_param(cls, "seed")


def _build_component(spec: Mapping[str, Any], table: Dict[str, type],
                     kind: str, seed: int) -> Any:
    """Instantiate one generator from its ``{"type": ..., "params": ...}`` spec.

    A scenario-level ``seed`` is injected into any stochastic generator whose
    params do not pin one explicitly, so re-seeding a scenario re-seeds every
    generator in it.
    """
    try:
        type_name = spec["type"]
    except (TypeError, KeyError):
        raise ConfigurationError(f"{kind} spec must be a dict with a 'type' key")
    try:
        cls = table[type_name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise ConfigurationError(
            f"unknown {kind} type {type_name!r} (known: {known})")
    params = dict(spec.get("params", {}))
    if "inner" in params and kind == "arbiter":
        params["inner"] = _build_component(params["inner"], ARBITER_TYPES,
                                           "arbiter", seed + 1)
    if _accepts_seed(cls) and "seed" not in params:
        params["seed"] = seed
    return cls(**params)


@dataclass(frozen=True)
class Scenario:
    """One fully specified closed-loop workload.

    Attributes:
        name: registry key, also the CLI name.
        description: one line for ``python -m repro scenario --list``.
        scheme: buffer scheme, a key of :data:`SCHEMES`.
        buffer: keyword arguments for the scheme's config class.
        arrivals: arrival-process spec dict, or ``None`` for a drain-only run.
        arbiter: arbiter spec dict, or ``None`` for a fill-only run.
        num_slots: slots to simulate.
        seed: scenario seed, injected into generators that take one.
        tags: free-form labels (``"bursty"``, ``"adversarial"``, ...).
        head_mma: head-MMA spec dict (a key of :data:`MMA_TYPES`), or
            ``None`` for the buffer's stock policy.
    """

    name: str
    description: str
    scheme: str
    buffer: Mapping[str, Any]
    arrivals: Optional[Mapping[str, Any]]
    arbiter: Optional[Mapping[str, Any]]
    num_slots: int
    seed: int = 0
    tags: Tuple[str, ...] = ()
    head_mma: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            known = ", ".join(sorted(SCHEMES))
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r} (known: {known})")
        if self.num_slots < 0:
            raise ConfigurationError("num_slots must be non-negative")

    # ------------------------------------------------------------------ #
    # Builders
    # ------------------------------------------------------------------ #
    def build_buffer(self):
        config_cls, buffer_cls = SCHEMES[self.scheme]
        config = config_cls(**dict(self.buffer))
        if self.head_mma is None:
            return buffer_cls(config)
        mma = _build_component(self.head_mma, MMA_TYPES, "head MMA", self.seed)
        return buffer_cls(config, head_mma=mma)

    def build_arrivals(self) -> Optional[ArrivalProcess]:
        if self.arrivals is None:
            return None
        return _build_component(self.arrivals, ARRIVAL_TYPES, "arrival", self.seed)

    def build_arbiter(self) -> Optional[Arbiter]:
        if self.arbiter is None:
            return None
        return _build_component(self.arbiter, ARBITER_TYPES, "arbiter",
                                self.seed + 0x9E37)

    def build_simulation(self, record_trace: bool = False) -> ClosedLoopSimulation:
        return ClosedLoopSimulation(self.build_buffer(),
                                    self.build_arrivals(),
                                    self.build_arbiter(),
                                    record_trace=record_trace)

    def run(self,
            *,
            num_slots: Optional[int] = None,
            record_trace: bool = False,
            engine: Optional[str] = None) -> SimulationReport:
        """Build everything fresh and simulate the scenario once.

        ``engine`` selects the simulation core (``"reference"``,
        ``"batched"``, ``"array"`` or ``"numpy"``); all engines produce
        bit-identical reports.
        """
        sim = self.build_simulation(record_trace=record_trace)
        return sim.run(self.num_slots if num_slots is None else num_slots,
                       engine=engine)

    def run_stream(self,
                   *,
                   num_slots: Optional[int] = None,
                   engine: Optional[str] = None,
                   chunk_slots: Optional[int] = None,
                   warmup_slots: int = 0,
                   checkpoint_every: Optional[int] = None,
                   checkpoint_path=None,
                   record_trace: bool = False,
                   progress=None,
                   progress_every: int = 1) -> SimulationReport:
        """Build everything fresh and simulate the scenario in bounded-memory
        chunks (:mod:`repro.sim.streaming`): arrival plans are generated per
        chunk, the first ``warmup_slots`` are discarded from the statistics,
        and the run can periodically checkpoint to a resumable snapshot.
        With ``warmup_slots=0`` the report is bit-identical to :meth:`run`.
        """
        sim = self.build_simulation(record_trace=record_trace)
        return sim.run_stream(
            self.num_slots if num_slots is None else num_slots,
            engine=engine, chunk_slots=chunk_slots,
            warmup_slots=warmup_slots, checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path, label=self.name,
            progress=progress, progress_every=progress_every)

    # ------------------------------------------------------------------ #
    # Spec round-trip
    # ------------------------------------------------------------------ #
    def to_spec(self) -> Dict[str, Any]:
        """JSON-serialisable dict from which :meth:`from_spec` rebuilds this
        scenario (the form that travels through the runner cache)."""
        return {
            "name": self.name,
            "description": self.description,
            "scheme": self.scheme,
            "buffer": dict(self.buffer),
            "arrivals": None if self.arrivals is None else _copy_spec(self.arrivals),
            "arbiter": None if self.arbiter is None else _copy_spec(self.arbiter),
            "num_slots": self.num_slots,
            "seed": self.seed,
            "tags": list(self.tags),
            "head_mma": (None if self.head_mma is None
                         else _copy_spec(self.head_mma)),
        }

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "Scenario":
        try:
            return cls(
                name=spec["name"],
                description=spec.get("description", ""),
                scheme=spec["scheme"],
                buffer=dict(spec.get("buffer", {})),
                arrivals=spec.get("arrivals"),
                arbiter=spec.get("arbiter"),
                num_slots=spec["num_slots"],
                seed=spec.get("seed", 0),
                tags=tuple(spec.get("tags", ())),
                head_mma=spec.get("head_mma"),
            )
        except KeyError as exc:
            raise ConfigurationError(f"scenario spec is missing key {exc}")


def _copy_spec(spec: Mapping[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {"type": spec["type"]}
    params = dict(spec.get("params", {}))
    if "inner" in params and isinstance(params["inner"], Mapping):
        params["inner"] = _copy_spec(params["inner"])
    out["params"] = params
    return out


# --------------------------------------------------------------------- #
# Cacheable results
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class ScenarioResult:
    """Flat, cache-serialisable summary of one scenario run.

    This is also the per-port result type of the switch layer
    (:mod:`repro.switch`): a registered single-port scenario is simply the
    degenerate one-port case, and a switch port is a ``Scenario`` whose
    arrivals are the fabric's egress trace.  ``latency_histogram`` carries the
    full delay distribution as sorted ``(delay, count)`` pairs so port
    results can be merged into exact switch-level percentiles (merged
    per-port histograms, never averaged per-port percentiles).
    """

    name: str
    scheme: str
    slots: int
    arrivals: int
    departures: int
    drops: int
    idle_request_slots: int
    offered_load: float
    carried_load: float
    latency_mean: float
    latency_p50: int
    latency_p95: int
    latency_p99: int
    latency_max: int
    zero_miss: bool
    bank_conflicts: int
    max_head_sram_occupancy: int
    max_tail_sram_occupancy: int
    latency_histogram: Tuple[Tuple[int, int], ...] = ()

    @classmethod
    def from_report(cls, name: str, scheme: str,
                    report: SimulationReport) -> "ScenarioResult":
        throughput, latency = report.throughput, report.latency
        result = report.buffer_result
        p50, p95, p99 = latency.percentiles((0.50, 0.95, 0.99))
        return cls(
            name=name,
            scheme=scheme,
            slots=throughput.slots,
            arrivals=throughput.arrivals,
            departures=throughput.departures,
            drops=throughput.drops,
            idle_request_slots=throughput.idle_request_slots,
            offered_load=throughput.offered_load,
            carried_load=throughput.carried_load,
            latency_mean=latency.mean,
            latency_p50=p50,
            latency_p95=p95,
            latency_p99=p99,
            latency_max=latency.maximum,
            zero_miss=report.zero_miss,
            bank_conflicts=result.bank_conflicts,
            max_head_sram_occupancy=result.max_head_sram_occupancy,
            max_tail_sram_occupancy=result.max_tail_sram_occupancy,
            latency_histogram=latency.histogram_items(),
        )


def run_scenario_spec(spec: Mapping[str, Any],
                      engine: Optional[str] = None,
                      stream: bool = False,
                      chunk_slots: Optional[int] = None,
                      warmup_slots: int = 0,
                      checkpoint_every: Optional[int] = None,
                      checkpoint_dir: Optional[str] = None) -> ScenarioResult:
    """Job entry point: rebuild the scenario from its spec and run it.

    With ``stream=True`` the run goes through the bounded-memory streaming
    path; a ``checkpoint_dir`` (the runner cache's artifact directory, say)
    makes the run crash-resumable: snapshots are written there every
    ``checkpoint_every`` slots under a spec-derived name, an existing
    snapshot is resumed instead of restarting, and the snapshot is removed
    once the run completes (the result itself lands in the result cache).
    All kwargs are JSON-serialisable, so streamed runs cache exactly like
    monolithic ones.
    """
    scenario = Scenario.from_spec(spec)
    if not stream:
        report = scenario.run(engine=engine)
        return ScenarioResult.from_report(scenario.name, scenario.scheme,
                                          report)

    import hashlib
    import json
    import os

    from repro.sim.streaming import DEFAULT_CHUNK_SLOTS, resume_stream

    checkpoint_path = None
    if checkpoint_dir is not None:
        if checkpoint_every is None:
            checkpoint_every = 4 * DEFAULT_CHUNK_SLOTS
        signature = json.dumps(
            {"spec": scenario.to_spec(), "engine": engine,
             "chunk_slots": chunk_slots, "warmup_slots": warmup_slots},
            sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(signature.encode("utf-8")).hexdigest()[:16]
        checkpoint_path = os.path.join(
            checkpoint_dir, f"{scenario.name}-{digest}.ckpt.json")
    report = None
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        try:
            report = resume_stream(checkpoint_path)
        except CheckpointError:
            # A stale or incompatible snapshot (e.g. pickled classes changed
            # underneath it) must not wedge the job forever: discard it and
            # recompute from slot 0.
            try:
                os.unlink(checkpoint_path)
            except OSError:
                pass
    if report is None:
        report = scenario.run_stream(
            engine=engine, chunk_slots=chunk_slots,
            warmup_slots=warmup_slots, checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path)
    if checkpoint_path is not None:
        try:
            os.unlink(checkpoint_path)
        except OSError:
            pass
    return ScenarioResult.from_report(scenario.name, scenario.scheme, report)
