"""Tests of the perf-trajectory benchmark harness (``python -m repro bench``)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import (
    DEFAULT_OUTPUT,
    DERIVED_RATIOS,
    SUITE,
    render_results,
    run_suite,
    wide_scenario,
    write_results,
)
from repro.runner.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The cases behind the gated ratios — the whole suite, in reporting order.
CASES = ["wide-128/batched", "wide-128/array", "wide-128/numpy",
         "switch/cfds-8port/jobs1", "switch/cfds-8port/jobs2",
         "stream/long-horizon/array", "stream/long-horizon/array-checkpointed"]


@pytest.fixture(scope="module")
def wide_document():
    """One repetition of the three wide-128 cases (the cheapest family)."""
    return run_suite(repeats=1, name_filter="wide-128/")


def test_suite_is_fixed_and_named():
    assert [case.name for case in SUITE] == CASES
    assert DEFAULT_OUTPUT == "bench-current.json"


def test_every_case_feeds_a_derived_ratio():
    """A case no ratio reads is timing nobody gates: it must not regrow."""
    assert len(DERIVED_RATIOS) <= 4
    operands = {name for _label, numerator, denominator, _direction
                in DERIVED_RATIOS for name in (numerator, denominator)}
    assert {case.name for case in SUITE} == operands


def test_ci_gates_exactly_the_derived_ratios():
    """The perf gate's ``--ratios`` lists name every derived ratio and
    nothing else, so a typo or a stale ratio fails here, not silently in
    CI."""
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8")
    gated = set()
    for value in re.findall(r"--ratios\s+([\w,-]+)", workflow):
        gated.update(value.split(","))
    assert gated == {label for label, *_rest in DERIVED_RATIOS}


def test_run_suite_document_shape(wide_document):
    assert wide_document["schema"] == 1
    assert wide_document["repeats"] == 1
    assert isinstance(wide_document["cpus"], int)
    assert [bench["name"] for bench in wide_document["benchmarks"]] == \
        CASES[:3]
    for bench in wide_document["benchmarks"]:
        assert bench["median_s"] > 0
        assert len(bench["samples_s"]) == 1
        assert bench["metrics"]["slots"] > 0
        assert bench["metrics"]["kslots_per_s"] > 0
    # All three engines ran: both wide ratios exist, the others do not.
    assert set(wide_document["derived"]) == {
        "wide-128-speedup-array-over-batched",
        "wide-128-speedup-numpy-over-array"}


def test_run_suite_median_is_median():
    bench = run_suite(repeats=3, name_filter="wide-128/numpy")["benchmarks"][0]
    assert bench["median_s"] == sorted(bench["samples_s"])[1]


def test_run_suite_rejects_bad_repeats():
    with pytest.raises(ValueError):
        run_suite(repeats=0)


def test_write_results_round_trips(tmp_path, wide_document):
    path = tmp_path / "bench.json"
    write_results(wide_document, str(path))
    assert json.loads(path.read_text()) == wide_document


def test_render_results_mentions_every_benchmark(wide_document):
    text = render_results(wide_document)
    for name in [*CASES[:3], *wide_document["derived"], "1 repeats"]:
        assert name in text


def test_wide_scenario_matches_benchmark_configuration():
    scenario = wide_scenario()
    assert scenario.scheme == "rads"
    assert scenario.buffer["num_queues"] == 128


def test_import_repro_loads_no_profiler_or_compare():
    """``import repro`` (CLI and worker start-up) must not pay for the
    profiler or the snapshot diffing; they are loaded on demand."""
    code = ("import sys, repro; print(sorted(m for m in "
            "('cProfile', 'pstats', 'repro.bench.compare') "
            "if m in sys.modules))")
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")))
    assert result.stdout.strip() == "[]"


class TestBenchCli:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()
                  if line.split() and "/" in line.split()[0]]
        assert listed == CASES

    def test_filtered_run_writes_json(self, tmp_path, capsys):
        output = tmp_path / "BENCH_test.json"
        assert main(["bench", "--repeats", "1", "--filter", "wide-128/numpy",
                     "-o", str(output)]) == 0
        assert "wide-128/numpy" in capsys.readouterr().out
        document = json.loads(output.read_text())
        assert [bench["name"] for bench in document["benchmarks"]] == [
            "wide-128/numpy"]

    def test_default_output_never_writes_a_baseline(self, tmp_path,
                                                    monkeypatch, capsys):
        # The perf gate's baseline is the highest committed BENCH_N.json:
        # a plain local run must not produce one.
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--repeats", "1",
                     "--filter", "wide-128/numpy"]) == 0
        assert [path.name for path in tmp_path.iterdir()] == [
            "bench-current.json"]
        assert "results written to bench-current.json" in \
            capsys.readouterr().out

    def test_dash_output_skips_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--repeats", "1",
                     "--filter", "wide-128/numpy", "-o", "-"]) == 0
        assert not list(tmp_path.iterdir())

    def test_unmatched_filter_errors(self, capsys):
        code = main(["bench", "--filter", "no-such-benchmark"])
        assert code == 1
        assert "no benchmark matches" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--quick"], ["--profile"],
                                      ["--profile-top", "5"]])
    def test_removed_modes_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--list", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
