"""Bench snapshot comparison and the direction-aware regression gate."""

import json
from pathlib import Path

import pytest

from repro.obs.compare import (
    HIGHER_BETTER,
    LOWER_BETTER,
    BenchCompareError,
    compare_documents,
    load_bench_document,
    ratio_direction,
    ratio_regressions,
    render_compare,
)


def make_document(medians, derived, directions=None, quick=True,
                  slots=1500):
    """A minimal valid bench document (medians in seconds)."""
    document = {
        "suite": "repro-bench",
        "schema": 1,
        "quick": quick,
        "repeats": 3,
        "benchmarks": [
            {"name": name, "median_s": median, "samples_s": [median],
             "metrics": {"slots": slots,
                         "kslots_per_s": round(slots / median / 1e3, 1)}}
            for name, median in medians.items()],
        "derived": dict(derived),
    }
    if directions is not None:
        document["derived_directions"] = dict(directions)
    return document


class TestLoad:
    def test_round_trips_a_valid_snapshot(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(make_document({"a": 0.01}, {})),
                        encoding="utf-8")
        document = load_bench_document(path)
        assert document["suite"] == "repro-bench"
        assert document["_path"] == str(path)

    def test_missing_file_is_a_compare_error(self, tmp_path):
        with pytest.raises(BenchCompareError, match="cannot read"):
            load_bench_document(tmp_path / "nope.json")

    def test_invalid_json_is_a_compare_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(BenchCompareError, match="not valid JSON"):
            load_bench_document(path)

    def test_wrong_suite_is_a_compare_error(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"suite": "something-else",
                                    "benchmarks": []}), encoding="utf-8")
        with pytest.raises(BenchCompareError, match="not a repro bench"):
            load_bench_document(path)


class TestDirections:
    def test_directions_table_wins(self):
        document = make_document({}, {"x-overhead": 1.0},
                                 directions={"x-overhead": HIGHER_BETTER})
        assert ratio_direction("x-overhead", document) == HIGHER_BETTER

    def test_heuristic_for_old_snapshots(self):
        # Pre-table snapshots (BENCH_5.json and earlier) have no
        # derived_directions; "overhead" in the name means lower is better.
        old = make_document({}, {"stream-checkpoint-overhead": 1.02,
                                 "wide-128-speedup": 5.0})
        assert ratio_direction("stream-checkpoint-overhead", old) \
            == LOWER_BETTER
        assert ratio_direction("wide-128-speedup", old) == HIGHER_BETTER

    def test_current_document_preferred_over_baseline(self):
        current = make_document({}, {}, directions={"r": LOWER_BETTER})
        baseline = make_document({}, {}, directions={"r": HIGHER_BETTER})
        assert ratio_direction("r", current, baseline) == LOWER_BETTER


class TestCompare:
    def test_per_benchmark_deltas(self):
        baseline = make_document({"a": 0.010, "b": 0.020}, {})
        current = make_document({"a": 0.012, "b": 0.020}, {})
        report = compare_documents(baseline, current)
        rows = {row["name"]: row for row in report["benchmarks"]}
        assert rows["a"]["median_delta_pct"] == pytest.approx(20.0)
        assert rows["b"]["median_delta_pct"] == pytest.approx(0.0)
        assert report["missing_in_current"] == []
        assert report["missing_in_baseline"] == []

    def test_median_delta_suppressed_across_slot_counts(self):
        baseline = make_document({"a": 0.10}, {}, quick=False, slots=50000)
        current = make_document({"a": 0.01}, {}, quick=True, slots=1500)
        row = compare_documents(baseline, current)["benchmarks"][0]
        assert row["slots_match"] is False
        assert row["median_delta_pct"] is None
        # Throughput stays comparable across quick/full.
        assert row["kslots_delta_pct"] is not None

    def test_disjoint_benchmarks_are_listed_not_diffed(self):
        baseline = make_document({"only-base": 0.01}, {})
        current = make_document({"only-cur": 0.01}, {})
        report = compare_documents(baseline, current)
        assert report["benchmarks"] == []
        assert report["missing_in_current"] == ["only-base"]
        assert report["missing_in_baseline"] == ["only-cur"]

    def test_ratio_regression_is_direction_aware(self):
        directions = {"speedup": HIGHER_BETTER, "overhead": LOWER_BETTER}
        baseline = make_document({}, {"speedup": 5.0, "overhead": 1.0},
                                 directions=directions)
        current = make_document({}, {"speedup": 4.0, "overhead": 1.2},
                                directions=directions)
        ratios = {row["name"]: row
                  for row in compare_documents(baseline, current)["ratios"]}
        # The speedup fell 20% — a regression of 20%.
        assert ratios["speedup"]["regression_pct"] == pytest.approx(20.0)
        # The overhead rose 20% — also a regression, because lower is better.
        assert ratios["overhead"]["regression_pct"] == pytest.approx(20.0)

    def test_improvement_is_zero_regression(self):
        directions = {"speedup": HIGHER_BETTER}
        baseline = make_document({}, {"speedup": 5.0}, directions=directions)
        current = make_document({}, {"speedup": 6.0}, directions=directions)
        row = compare_documents(baseline, current)["ratios"][0]
        assert row["delta_pct"] == pytest.approx(20.0)
        assert row["regression_pct"] == 0.0


class TestGate:
    def report(self, base=5.0, cur=4.0):
        baseline = make_document({}, {"speedup": base},
                                 directions={"speedup": HIGHER_BETTER})
        current = make_document({}, {"speedup": cur},
                                directions={"speedup": HIGHER_BETTER})
        return compare_documents(baseline, current)

    def test_regression_beyond_threshold_fails(self):
        failures = ratio_regressions(self.report(), threshold_pct=10)
        assert [row["name"] for row in failures] == ["speedup"]

    def test_regression_within_threshold_passes(self):
        assert ratio_regressions(self.report(), threshold_pct=25) == []

    def test_gate_restricted_to_named_ratios(self):
        failures = ratio_regressions(self.report(), threshold_pct=10,
                                     ratio_names=["speedup"])
        assert len(failures) == 1

    def test_unknown_ratio_name_is_loud(self):
        # A typo in --ratios must not silently pass the gate.
        with pytest.raises(BenchCompareError, match="not in the compare"):
            ratio_regressions(self.report(), threshold_pct=10,
                              ratio_names=["speedpu"])

    def test_render_verdict_lines(self):
        report = self.report()
        failures = ratio_regressions(report, threshold_pct=10)
        text = render_compare(report, threshold_pct=10, failures=failures)
        assert "<< REGRESSION" in text
        assert "FAIL: 1 ratio(s) regressed more than 10%" in text
        ok = render_compare(self.report(cur=5.0), threshold_pct=10,
                            failures=[])
        assert "OK: no gated ratio regressed more than 10%" in ok

    def test_render_marks_ungated_ratios(self):
        baseline = make_document({}, {"a": 1.0, "b": 1.0})
        current = make_document({}, {"a": 1.0, "b": 1.0})
        report = compare_documents(baseline, current)
        text = render_compare(report, threshold_pct=10, ratio_names=["a"],
                              failures=[])
        assert "(not gated)" in text


class TestShardingRatioCpus:
    """``...-jobs4-over-jobs1`` measures scaling only where both snapshots
    had at least 4 CPUs; otherwise it is reported as not applicable."""

    NAME = "switch-scaling-jobs4-over-jobs1"

    def report(self, base_cpus, cur_cpus, base=2.0, cur=1.0):
        baseline = make_document({}, {self.NAME: base},
                                 directions={self.NAME: HIGHER_BETTER})
        current = make_document({}, {self.NAME: cur},
                                directions={self.NAME: HIGHER_BETTER})
        baseline["cpus"] = base_cpus
        current["cpus"] = cur_cpus
        return compare_documents(baseline, current)

    @pytest.mark.parametrize("base_cpus, cur_cpus", [(1, 8), (8, 2), (1, 1)])
    def test_too_few_cpus_is_not_applicable(self, base_cpus, cur_cpus):
        report = self.report(base_cpus, cur_cpus)
        row = report["ratios"][0]
        assert row["not_applicable"] == "cpus < 4"
        assert row["regression_pct"] is None
        # Halving the ratio would fail a 10% gate; n/a neither fails nor
        # passes it.
        assert ratio_regressions(report, threshold_pct=10,
                                 ratio_names=[self.NAME]) == []
        text = render_compare(report, threshold_pct=10, failures=[])
        assert f"{self.NAME}: 2.000x -> 1.000x (n/a (cpus < 4))" in text

    def test_enough_cpus_is_gated(self):
        report = self.report(4, 8)
        row = report["ratios"][0]
        assert row["not_applicable"] is None
        assert row["regression_pct"] == pytest.approx(50.0)
        failures = ratio_regressions(report, threshold_pct=10,
                                     ratio_names=[self.NAME])
        assert [f["name"] for f in failures] == [self.NAME]
        text = render_compare(report, threshold_pct=10, failures=failures)
        assert "n/a" not in text
        assert "<< REGRESSION" in text

    def test_ratios_without_a_job_count_ignore_cpus(self):
        baseline = make_document({}, {"speedup": 5.0},
                                 directions={"speedup": HIGHER_BETTER})
        current = make_document({}, {"speedup": 4.0},
                                directions={"speedup": HIGHER_BETTER})
        baseline["cpus"] = current["cpus"] = 1
        row = compare_documents(baseline, current)["ratios"][0]
        assert row["not_applicable"] is None
        assert row["regression_pct"] == pytest.approx(20.0)


class TestOldSnapshots:
    """Pin against the committed snapshots: BENCH_3.json predates both the
    ``cpus`` field and the ``derived_directions`` table, and comparing it
    must degrade gracefully rather than raise."""

    REPO_ROOT = Path(__file__).resolve().parents[2]

    def load(self, name):
        return load_bench_document(self.REPO_ROOT / name)

    def test_bench3_vs_bench5_compares_cleanly(self):
        bench3 = self.load("BENCH_3.json")
        bench5 = self.load("BENCH_5.json")
        report = compare_documents(bench3, bench5)
        assert report["benchmarks"], "the snapshots share no benchmarks"
        assert report["ratios"], "the snapshots share no derived ratios"
        # Missing cpus surfaces as "unknown", never a KeyError or null.
        assert report["baseline"]["cpus"] == "unknown"
        assert report["current"]["cpus"] != "unknown"
        text = render_compare(report, threshold_pct=50,
                              failures=ratio_regressions(report, 50))
        assert "cpus unknown" in text

    def test_directionless_snapshots_use_the_heuristic(self):
        bench3 = self.load("BENCH_3.json")
        assert "derived_directions" not in bench3
        assert ratio_direction("stream-checkpoint-overhead", bench3) \
            == LOWER_BETTER
        assert ratio_direction("wide-128-speedup-array-over-batched",
                               bench3) == HIGHER_BETTER
