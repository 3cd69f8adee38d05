"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import ROOT, Tracer, check_nesting, percentile  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY = {"rads-stream": 30_000, "cfds-switch": 300, "paper-exhibits": None}


def quiet(_line: str) -> None:
    pass


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER)
    assert SPEC["paths"] == [BENCH_DIR.name]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke(workload):
    document = run.measure(workload, 7, 0, slots=TINY[workload],
                           min_samples=1, echo=quiet)
    assert document["correct"], document
    assert document["failed"] == 0 and document["attempted"] >= 1
    metrics = document["metrics"]
    assert [name for name, _ in run.END_TO_END] == list(metrics)
    assert all(m["value"] > 0 for m in metrics.values())


def test_tampered_record_fails():
    good = run.expected_record("rads-stream", 7, TINY["rads-stream"])
    assert good["crosscheck"]
    tampered = dict(good["record"], departures=good["record"]["departures"] + 1)
    document = run.measure("rads-stream", 7, 0, slots=TINY["rads-stream"],
                           min_samples=1, echo=quiet,
                           expected=run.operation_digests("rads-stream",
                                                          tampered))
    assert not document["correct"]
    assert document["failed"] / document["attempted"] > 0


def test_pinned_seed_needs_no_reference_run(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a pinned seed must not run the array engine")

    monkeypatch.setattr(run, "run_child", refuse)
    for workload in ("rads-stream", "cfds-switch"):
        pinned = run.load_expected(workload, 0, None, run.Tally(), quiet)
        assert pinned == run.pinned_digests(workload, 0)
        assert len(pinned) == (1 if workload == "rads-stream"
                               else workloads.SWITCH_PORTS + 1)


def test_pinned_digests_match_the_program_and_catch_a_change():
    """A full-size switch run of a pinned seed matches the committed
    digests; one changed port counts as one failed operation even though
    every engine of the changed program would agree with it."""
    timed = workloads._prepare({"workload": "cfds-switch", "seed": 0,
                                "slots": None, "jobs": 1})
    output = timed()
    pinned = run.pinned_digests("cfds-switch", 0)
    assert run.check_output("cfds-switch", output, pinned) == (len(pinned), 0)
    changed = dict(output, ports=list(output["ports"]))
    changed["ports"][3] = dict(changed["ports"][3],
                               bank_conflicts=changed["ports"][3]
                               ["bank_conflicts"] + 1)
    assert run.check_output("cfds-switch", changed, pinned) == (len(pinned), 1)


def test_tampered_exhibit_text_fails():
    golden = run.GOLDEN.read_text()
    assert run.check_output("paper-exhibits", golden, golden)[1] == 0
    attempted, failed = run.check_output(
        "paper-exhibits", golden.replace("OC-768", "OC-769", 1), golden)
    assert attempted == len(layers.EXPERIMENTS) and failed == 1


def test_traced_spans_nest_and_self_times_fit_the_wall():
    document = run.traced("cfds-switch", 7, slots=TINY["cfds-switch"],
                          echo=quiet)
    assert document["correct"], document
    trace = json.loads((run.WORK / "traces" / "cfds-switch-7.json").read_text())
    assert trace["spans"] and check_nesting(trace["spans"]) == []
    (root,) = [s for s in trace["spans"] if s["name"] == ROOT]
    wall = root["end"] - root["start"]
    attributed = sum(trace["self_s"].values()) + trace["overhead_s"]
    assert attributed <= wall * 1.001
    metrics = {k: v["value"] for k, v in document["metrics"].items()}
    assert list(metrics) == [name for name, _ in layers.PER_LAYER]
    assert metrics["sim.kernel_spans"] == 0
    assert metrics["core.dss_ticks"] > 0 and metrics["switch.fabric_s"] > 0


class _Work:
    def outer(self, inner_calls):
        time.sleep(0.002)
        for _ in range(inner_calls):
            self.inner()

    def inner(self):
        time.sleep(0.001)


def test_tracer_self_times_add_up():
    tracer = Tracer("unit")
    tracer.wrap(_Work, "outer", "outer", span=True)
    tracer.wrap(_Work, "inner", "inner")
    try:
        tracer.begin(ROOT)
        _Work().outer(3)
        tracer.end(ROOT)
    finally:
        tracer.restore()
    assert _Work.outer.__name__ == "outer" and not hasattr(_Work.outer,
                                                           "__wrapped__")
    (root,) = [s for s in tracer.spans if s["name"] == ROOT]
    (outer,) = [s for s in tracer.spans if s["name"] == "outer"]
    assert outer["parent"] == root["id"] and check_nesting(tracer.spans) == []
    wall = root["end"] - root["start"]
    total = sum(tracer.self_s.values()) + tracer.overhead_s
    assert abs(total - wall) < 1e-6
    assert tracer.calls["inner"] == 3
    assert tracer.self_s["inner"] >= 0.0025
    assert tracer.self_s["outer"] >= 0.0015


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50 and percentile(values, 0.9) == 90
    assert percentile([], 0.9) == 0.0


def test_compare_refuses_different_environments():
    env = {"cpus": 2, "workers": 2, "kernel": True, "python": "3.11"}
    result = {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    base = {"workload": "rads-stream", "trace": 0, "env": env,
            "result": result}
    slower = dict(base, result={"metrics": {"wall_s": {"value": 1.5,
                                                       "unit": "s"}}})
    lines = compare.compare(base, slower, SPEC)
    assert "WORSE" in lines[-1]
    with pytest.raises(ValueError):
        compare.compare(base, dict(slower, env=dict(env, cpus=1)), SPEC)
