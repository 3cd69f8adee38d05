"""Tests for the Scenario dataclass, the spec round-trip and the registry."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.runner.serialize import from_jsonable, to_jsonable
from repro.traffic.arbiters import IntermittentArbiter, OldestCellArbiter
from repro.workloads import (
    Scenario,
    ScenarioResult,
    all_scenarios,
    get_scenario,
    register_scenario,
    run_scenario_spec,
    scenario_names,
)
from repro.workloads.registry import _REGISTRY


def _simple_scenario(**overrides) -> Scenario:
    fields = dict(
        name="test-simple",
        description="a small test scenario",
        scheme="rads",
        buffer={"num_queues": 4, "granularity": 3},
        arrivals={"type": "bernoulli", "params": {"num_queues": 4, "load": 0.7}},
        arbiter={"type": "oldest_cell", "params": {"num_queues": 4}},
        num_slots=400,
        seed=5,
        tags=("test",),
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestScenario:
    def test_spec_round_trip_is_lossless_and_json(self):
        scenario = _simple_scenario()
        spec = scenario.to_spec()
        json.dumps(spec)  # must be JSON-serialisable for the runner cache
        assert Scenario.from_spec(spec) == scenario

    def test_every_registered_scenario_round_trips(self):
        for scenario in all_scenarios():
            spec = scenario.to_spec()
            json.dumps(spec)
            assert Scenario.from_spec(spec) == scenario

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            _simple_scenario(scheme="sram-only")

    def test_unknown_generator_type_rejected(self):
        scenario = _simple_scenario(arrivals={"type": "fractal", "params": {}})
        with pytest.raises(ConfigurationError):
            scenario.build_arrivals()

    def test_missing_spec_key_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario.from_spec({"name": "x", "scheme": "rads"})

    def test_seed_is_injected_into_generators(self):
        seeded_a = _simple_scenario(seed=1).build_arrivals()
        seeded_b = _simple_scenario(seed=2).build_arrivals()
        # Different scenario seeds must produce different streams.
        stream_a = [seeded_a.next_arrival(s) for s in range(200)]
        stream_b = [seeded_b.next_arrival(s) for s in range(200)]
        assert stream_a != stream_b

    def test_explicit_generator_seed_wins(self):
        spec = {"type": "bernoulli",
                "params": {"num_queues": 4, "load": 0.7, "seed": 9}}
        one = _simple_scenario(arrivals=spec, seed=1).build_arrivals()
        two = _simple_scenario(arrivals=spec, seed=2).build_arrivals()
        assert [one.next_arrival(s) for s in range(200)] == \
               [two.next_arrival(s) for s in range(200)]

    def test_nested_arbiter_spec_builds_recursively(self):
        scenario = _simple_scenario(
            arbiter={"type": "intermittent",
                     "params": {"inner": {"type": "oldest_cell",
                                          "params": {"num_queues": 4}},
                                "on_slots": 5, "off_slots": 3}})
        arbiter = scenario.build_arbiter()
        assert isinstance(arbiter, IntermittentArbiter)
        assert isinstance(arbiter.inner, OldestCellArbiter)
        # ... and the nested spec still round-trips.
        assert Scenario.from_spec(scenario.to_spec()) == scenario

    def test_run_produces_consistent_report(self):
        report = _simple_scenario().run()
        assert report.throughput.arrivals >= report.throughput.departures
        assert report.latency.count == report.throughput.departures
        assert report.zero_miss

    def test_run_is_deterministic(self):
        first = _simple_scenario().run()
        second = _simple_scenario().run()
        assert first.throughput == second.throughput
        assert first.latency == second.latency


class TestRegistry:
    def test_at_least_eight_scenarios_spanning_all_families(self):
        names = scenario_names()
        assert len(names) >= 8
        for tag in ("bursty", "hotspot", "adversarial", "replay"):
            assert scenario_names(tag=tag), f"no scenario tagged {tag!r}"

    def test_schemes_are_both_covered(self):
        schemes = {scenario.scheme for scenario in all_scenarios()}
        assert schemes == {"rads", "cfds"}

    def test_get_scenario_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_rejected_unless_replace(self):
        scenario = all_scenarios()[0]
        with pytest.raises(ConfigurationError):
            register_scenario(scenario)
        register_scenario(scenario, replace=True)  # idempotent with replace

    def test_registration_is_visible_then_removable(self):
        scenario = _simple_scenario(name="test-registered")
        register_scenario(scenario)
        try:
            assert get_scenario("test-registered") == scenario
            assert "test-registered" in scenario_names()
        finally:
            del _REGISTRY["test-registered"]


class TestScenarioResult:
    def test_run_scenario_spec_executes_from_plain_dict(self):
        spec = json.loads(json.dumps(_simple_scenario().to_spec()))
        result = run_scenario_spec(spec)
        assert isinstance(result, ScenarioResult)
        assert result.name == "test-simple"
        assert result.scheme == "rads"
        assert result.departures > 0
        assert result.latency_p50 <= result.latency_p95 <= result.latency_p99

    def test_result_survives_the_cache_serialisation(self):
        result = run_scenario_spec(_simple_scenario().to_spec())
        round_tripped = from_jsonable(json.loads(json.dumps(to_jsonable(result))))
        assert round_tripped == result

    def test_fast_and_legacy_paths_agree(self):
        spec = _simple_scenario().to_spec()
        assert run_scenario_spec(spec, engine="batched") == \
               run_scenario_spec(spec, engine="reference")
