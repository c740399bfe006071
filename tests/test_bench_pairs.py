"""The summary ``tools/bench_pairs.py`` writes, from canned ``perfbench/run.py``
output lines; no benchmark process is started."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    if "bench_pairs" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
        sys.modules["bench_pairs"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["bench_pairs"])
    return sys.modules["bench_pairs"]


def output(seed, call_rel, success, correct=True):
    """The two lines ``perfbench/run.py`` ends with."""
    detail = {"workload": "sweep-small", "seed": seed, "env": {}, "detail": {"calls": 9}}
    result = {"correct": correct, "attempted": 9, "failed": 0 if correct else 1,
              "metrics": {"call_rel_p50": {"value": call_rel, "unit": "ratio"},
                          "success_rate": {"value": success, "unit": "ratio"}}}
    return "progress\n" + json.dumps(detail) + "\n" + json.dumps(result) + "\n"


def run_records(bench_pairs, rows):
    """Records as ``run`` appends them, from (seed, parent, change) values."""
    records = []
    for pair, (seed, parent, change) in enumerate(rows):
        for side, (call_rel, success, correct) in (("parent", parent), ("change", change)):
            detail, result = bench_pairs.parse_output(output(seed, call_rel, success, correct))
            records.append({"side": side, "workload": "sweep-small", "seed": seed, "trace": 0,
                            "pair": pair, "ran_first": "parent" if pair % 2 == 0 else "change",
                            "returncode": 0, "wall_s": 30.0, "detail": detail, "result": result})
    return records


BETTER = {"call_rel_p50": "lower", "success_rate": "higher"}

# (seed, parent (call_rel, success, correct), change (...)); the change wins
# call_rel_p50 in pairs 0-2 and ties success_rate in every pair but pair 3
ROWS = [
    (987654321, (1.20, 0.5, True), (1.00, 0.5, True)),
    (5, (1.30, 0.5, True), (1.10, 0.5, True)),
    (41, (1.10, 0.5, True), (1.05, 0.5, True)),
    (42, (1.00, 0.5, True), (1.20, 0.75, True)),
]


def test_parse_keeps_the_last_two_json_lines(bench_pairs):
    detail, result = bench_pairs.parse_output(output(5, 1.0, 0.5))
    assert detail["seed"] == 5 and result["metrics"]["call_rel_p50"]["value"] == 1.0
    assert bench_pairs.parse_output("Traceback ...\n") == (None, None)


def test_sides_quartiles_wins_and_ratio(bench_pairs):
    summary = bench_pairs.summarize(run_records(bench_pairs, ROWS), BETTER)
    entry = summary["sweep-small/trace0"]
    assert entry["pairs"] == 4 and entry["seeds"] == [987654321, 5, 41, 42]
    assert entry["every_run_correct"]
    call = entry["metrics"]["call_rel_p50"]
    # inclusive quartiles of 1.0, 1.1, 1.2, 1.3 and of 1.0, 1.05, 1.1, 1.2
    assert call["parent"]["median"] == pytest.approx(1.15)
    assert (call["parent"]["q1"], call["parent"]["q3"]) == pytest.approx((1.075, 1.225))
    assert call["parent"]["iqr"] == pytest.approx(0.15)
    assert call["change"]["median"] == pytest.approx(1.075)
    assert call["change_won_pairs"] == 3
    ratios = sorted([1.0 / 1.2, 1.1 / 1.3, 1.05 / 1.1, 1.2 / 1.0])
    assert call["within_pair_ratio_median"] == pytest.approx((ratios[1] + ratios[2]) / 2)
    success = entry["metrics"]["success_rate"]
    assert success["better"] == "higher" and success["change_won_pairs"] == 1


def test_claim_needs_nine_in_ten_pairs_and_a_gap_above_the_iqr(bench_pairs):
    summary = bench_pairs.summarize(run_records(bench_pairs, ROWS), BETTER)
    verdict = bench_pairs.claim(summary, "sweep-small", "call_rel_p50")
    assert verdict["change_won_pairs"] == 3 and verdict["pairs"] == 4
    assert verdict["gap"] == pytest.approx(0.075) and not verdict["met"]
    clear = [(seed, (1.2 + seed / 100, 0.5, True), (0.9, 0.5, True)) for seed in range(10)]
    verdict = bench_pairs.claim(bench_pairs.summarize(run_records(bench_pairs, clear), BETTER),
                                "sweep-small", "call_rel_p50")
    assert verdict["change_won_pairs"] == 10 and verdict["met"]


def test_a_failed_check_or_a_missing_side_is_reported(bench_pairs):
    rows = [(5, (1.2, 0.5, True), (1.0, 0.5, False)), (6, (1.2, 0.5, True), (1.0, 0.5, True))]
    records = run_records(bench_pairs, rows)[:-1]  # pair 1 lost its change run
    entry = bench_pairs.summarize(records, BETTER)["sweep-small/trace0"]
    assert entry["pairs"] == 1 and not entry["every_run_correct"]
    assert entry["failed_operations"] == {"parent": 0, "change": 1}


def test_directions_come_from_the_benchmark_file(bench_pairs):
    benchmark = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = bench_pairs.directions(benchmark)
    assert better["work_per_ref"] == "higher" and better["call_rel_p50"] == "lower"
    assert better["recovery.loop_overhead_us"] == "lower"


END_TO_END = [{"name": "call_rel_p50", "better": "lower", "bound": 0.25},
              {"name": "success_rate", "better": "higher", "bound": 0.15},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def verdict_of(bench_pairs, parent_calls, change_calls, success=(0.5, 0.5), correct=True):
    """The verdict on sweep-small for one call_rel_p50 per pair and side."""
    rows = [(seed, (p, success[0], True), (c, success[1], correct))
            for seed, (p, c) in enumerate(zip(parent_calls, change_calls))]
    summary = bench_pairs.summarize(run_records(bench_pairs, rows), BETTER)
    return bench_pairs.verdict(summary, END_TO_END)["sweep-small/trace0"]


def test_verdict_regressed_past_the_bound_of_the_parents_median(bench_pairs):
    got = verdict_of(bench_pairs, [1.0, 1.0, 1.0], [1.3, 1.3, 1.3])
    call = got["metrics"]["call_rel_p50"]
    assert call["margin"] == pytest.approx(0.25) and call["worse_by"] == pytest.approx(0.3)
    assert call["regressed"] and not call["unresolved"] and not got["no_regression"]
    assert "peak_rss_mb" not in got["metrics"]  # no run reported it
    within = verdict_of(bench_pairs, [1.0, 1.0, 1.0], [1.2, 1.2, 1.2])
    assert not within["metrics"]["call_rel_p50"]["regressed"] and within["no_regression"]


def test_verdict_unresolved_when_the_parents_iqr_exceeds_the_margin(bench_pairs):
    # parent 1.0, 1.6, 2.2: IQR 0.6 against a margin of 0.25 * 1.6 = 0.4
    got = verdict_of(bench_pairs, [1.0, 1.6, 2.2], [1.5, 1.6, 1.7])
    call = got["metrics"]["call_rel_p50"]
    assert not call["regressed"] and call["unresolved"] and not got["no_regression"]
    # unless every change run beats every parent run
    got = verdict_of(bench_pairs, [1.0, 1.6, 2.2], [0.5, 0.6, 0.99])
    assert not got["metrics"]["call_rel_p50"]["unresolved"] and got["no_regression"]


def test_verdict_reads_higher_is_better_metrics_the_other_way(bench_pairs):
    # success_rate 0.8 -> 0.6 is worse by 0.2, past 0.15 * 0.8 = 0.12
    got = verdict_of(bench_pairs, [1.0] * 3, [1.0] * 3, success=(0.8, 0.6))
    success = got["metrics"]["success_rate"]
    assert success["worse_by"] == pytest.approx(0.2) and success["regressed"]
    assert not verdict_of(bench_pairs, [1.0] * 3, [1.0] * 3,
                          success=(0.6, 0.8))["metrics"]["success_rate"]["regressed"]


def test_verdict_needs_every_run_correct(bench_pairs):
    got = verdict_of(bench_pairs, [1.0] * 3, [1.0] * 3, correct=False)
    assert not any(m["regressed"] or m["unresolved"] for m in got["metrics"].values())
    assert not got["no_regression"]


def test_summarize_writes_the_verdict_from_the_benchmark_file(bench_pairs, tmp_path):
    runs = tmp_path / "runs.jsonl"
    runs.write_text("".join(json.dumps(r) + "\n" for r in run_records(bench_pairs, ROWS)))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["summarize", "--runs", str(runs), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    verdict = doc["verdict"]["sweep-small/trace0"]
    assert set(verdict["metrics"]) == {"call_rel_p50", "success_rate"}
    assert verdict["metrics"]["success_rate"]["bound"] == 0.15
