#!/usr/bin/env python3
"""Alternated parent/change pairs of ``perfbench/run.py``, and their summary.

    python3 tools/bench_pairs.py run --parent HEAD~1 --runs runs.jsonl \\
        --plan sweep-small:987654321,5,41 --plan pf-64k:987654321,5 [--seconds 25] [--trace 0]
    python3 tools/bench_pairs.py summarize --runs runs.jsonl --out BENCH_21.json \\
        [--claim sweep-small:call_rel_p50]

``run`` exports the parent revision's ``src/`` and ``perfbench/`` into a
temporary directory with ``git archive <rev> | tar -x`` (no worktree), then, for
each planned workload and seed, runs ``perfbench/run.py`` once on the parent's
copy and once on this checkout, one process at a time.  Pair i runs the parent
first when i is even and the change first when it is odd.  Each run appends one
JSON line to ``--runs``: the side, workload, seed, pair index, which side ran
first, the exit code, the wall time and the run's two output lines (the detail
line and the result line), so batches run at different times add up.

``summarize`` reads those lines and writes, per workload, trace mode and metric:
each side's median, quartiles (``statistics.quantiles``, inclusive) and IQR, the
pairs the change won (by the metric's direction in ``BENCHMARK.json``; ties count
for neither side), and the median change/parent ratio within a pair.  With
``--claim workload:metric`` it also states whether the change won at least 9 in
10 pairs and its median beat the parent's by more than the parent's IQR.  Its
``verdict`` states, per workload and end-to-end metric of ``BENCHMARK.json``,
whether the change ``regressed`` (its median worse than the parent's by more than
``bound`` times the parent's median) or is ``unresolved`` (the parent's IQR exceeds
that margin, unless every change run beats every parent run), and ``no_regression``
when neither holds anywhere and every run was correct with no more failures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def directions(benchmark: dict) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from a ``BENCHMARK.json`` document."""
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer")
            for m in benchmark.get(key, ())}


def parse_output(stdout: str) -> tuple[dict | None, dict | None]:
    """(detail, result): the last two JSON lines ``perfbench/run.py`` prints."""
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    if len(lines) < 2:
        return None, None
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _side(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and trace mode, each metric's sides, wins and within-pair ratio."""
    pairs: dict[tuple, dict[int, dict]] = {}
    for run in runs:
        key = (run["workload"], run["trace"])
        pairs.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run
    out: dict[str, dict] = {}
    for (workload, trace), by_pair in sorted(pairs.items()):
        complete = [p for _, p in sorted(by_pair.items()) if {"parent", "change"} <= set(p)]
        entry = {
            "pairs": len(complete),
            "seeds": [p["parent"]["seed"] for p in complete],
            "every_run_correct": all(
                p[side]["returncode"] == 0 and p[side]["result"] is not None
                and p[side]["result"]["correct"] for p in complete for side in p
            ),
            "failed_operations": {
                side: sum((p[side]["result"] or {}).get("failed", 0) for p in complete)
                for side in ("parent", "change")
            },
            "metrics": {},
        }
        names = sorted({name for p in complete for side in p if p[side]["result"]
                        for name in p[side]["result"]["metrics"]})
        for name in names:
            rows = [(p["parent"]["result"]["metrics"][name]["value"],
                     p["change"]["result"]["metrics"][name]["value"])
                    for p in complete
                    if all(p[s]["result"] and name in p[s]["result"]["metrics"]
                           for s in ("parent", "change"))]
            if not rows:
                continue
            lower = better.get(name, "lower") == "lower"
            won = sum((c < p) if lower else (c > p) for p, c in rows)
            ratios = [c / p for p, c in rows if p != 0]
            entry["metrics"][name] = {
                "better": "lower" if lower else "higher",
                "parent": _side([p for p, _ in rows]),
                "change": _side([c for _, c in rows]),
                "change_won_pairs": won,
                "within_pair_ratio_median": statistics.median(ratios) if ratios else None,
            }
        out[f"{workload}/trace{trace}"] = entry
    return out


def claim(summary: dict, workload: str, metric: str, trace: int = 0) -> dict:
    """Whether ``metric`` on ``workload`` improved: the change won >= 9/10 of the
    pairs and its median beat the parent's by more than the parent's IQR."""
    entry = summary[f"{workload}/trace{trace}"]
    m = entry["metrics"][metric]
    gap = m["parent"]["median"] - m["change"]["median"]
    if m["better"] == "higher":
        gap = -gap
    return {
        "workload": workload,
        "metric": metric,
        "pairs": entry["pairs"],
        "change_won_pairs": m["change_won_pairs"],
        "parent_median": m["parent"]["median"],
        "parent_iqr": m["parent"]["iqr"],
        "change_median": m["change"]["median"],
        "gap": gap,
        "met": 10 * m["change_won_pairs"] >= 9 * entry["pairs"] and gap > m["parent"]["iqr"],
    }


def verdict(summary: dict, end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric, ``regressed`` and ``unresolved`` (see above)."""
    out = {}
    for key, entry in summary.items():
        metrics = {}
        for spec in end_to_end:
            m = entry["metrics"].get(spec["name"])
            if m is None:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0  # sign * value: lower is better
            margin = spec["bound"] * abs(m["parent"]["median"])
            worse_by = sign * (m["change"]["median"] - m["parent"]["median"])
            beats_all = (max(sign * v for v in m["change"]["runs"])
                         < min(sign * v for v in m["parent"]["runs"]))
            metrics[spec["name"]] = {
                "bound": spec["bound"], "margin": margin, "worse_by": worse_by,
                "regressed": worse_by > margin,
                "unresolved": m["parent"]["iqr"] > margin and not beats_all,
            }
        failed = entry["failed_operations"]
        out[key] = {
            "metrics": metrics,
            "no_regression": entry["every_run_correct"] and failed["change"] <= failed["parent"]
            and not any(m["regressed"] or m["unresolved"] for m in metrics.values()),
        }
    return out


def export(rev: str, into: Path) -> None:
    """``src/`` and ``perfbench/`` of ``rev`` under ``into``, by git archive."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src", "perfbench"],
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def run_one(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=tree, timeout=30 * seconds + 600,
    )
    detail, result = parse_output(done.stdout)
    return {"returncode": done.returncode, "wall_s": round(time.perf_counter() - start, 1),
            "detail": detail, "result": result}


def cmd_run(args) -> int:
    runs_path = Path(args.runs)
    done = [json.loads(line) for line in runs_path.read_text().splitlines()] \
        if runs_path.exists() else []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent = Path(tmp)
        export(args.parent, parent)
        for plan in args.plan:
            workload, seeds = plan.split(":")
            for seed in (int(s) for s in seeds.split(",")):
                pair = sum(1 for r in done if r["workload"] == workload
                           and r["trace"] == args.trace and r["side"] == "parent")
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    tree = parent if side == "parent" else ROOT
                    record = {"side": side, "workload": workload, "seed": seed,
                              "trace": args.trace, "pair": pair, "ran_first": order[0],
                              "parent_rev": args.parent,
                              **run_one(tree, workload, seed, args.seconds, args.trace)}
                    done.append(record)
                    with runs_path.open("a", encoding="utf-8") as fh:
                        fh.write(json.dumps(record) + "\n")
                    print(f"{workload} seed {seed} pair {pair} {side}: rc {record['returncode']}",
                          file=sys.stderr)
    return 0


def cmd_summarize(args) -> int:
    runs = [json.loads(line) for line in Path(args.runs).read_text().splitlines() if line]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = summarize(runs, directions(benchmark))
    doc = {"summary": summary,
           "claims": [claim(summary, *c.split(":")) for c in args.claim],
           "verdict": verdict(summary, benchmark["end_to_end"]),
           "runs": runs}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--parent", required=True, help="git revision of the parent side")
    run.add_argument("--runs", required=True, help="JSON-lines file the runs are appended to")
    run.add_argument("--plan", action="append", required=True, help="workload:seed,seed,...")
    run.add_argument("--seconds", type=float, default=25.0)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.set_defaults(func=cmd_run)
    summ = sub.add_parser("summarize")
    summ.add_argument("--runs", required=True)
    summ.add_argument("--out", required=True)
    summ.add_argument("--claim", action="append", default=[], help="workload:metric")
    summ.set_defaults(func=cmd_summarize)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
