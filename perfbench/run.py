#!/usr/bin/env python3
"""Seeded, closed-loop benchmark of the cosamp toolkit.

    python3 perfbench/run.py --workload pf-64k --seed 0 --seconds 25 --trace 0

One caller in one process makes each call after the previous one returns,
for ``--seconds`` seconds, and checks every output.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
below; with ``--trace 1`` they are the per-layer ones (``layers.py``) from a
separate traced run.  The line before it holds the environment and details.

One call is, per workload: ``recover`` to its halt (pf-64k,
gauss-compressible), one ``run_sweep`` grid (sweep-small), or one RIP
certification, exhaustive delta_6 plus Monte Carlo delta_8 (rip-cert).

End-to-end metrics.  Call times are divided by a fixed reference kernel
timed just before and just after each call (``reference.py``), because a
shared host's speed can drift by more than a change would move them:

* ``setup_s``: median over repetitions of a fresh interpreter's
  ``import cosamp`` plus fixture construction and one warm-up call.
* ``call_rel_p50`` / ``call_rel_p90``: call wall time over the mean of its
  two reference times.  Runs with fewer than 100 calls have fewer than ten
  samples above p90; ``detail.calls`` says how many there were.
* ``work_per_ref``: recoveries, sweep trials, or RIP supports completed per
  reference-kernel time, the total work over the sum of the call ratios.
* ``success_rate``: share of sweep trials that meet the sweep's success
  rule; for the other workloads, share of calls whose output passes its check.
* ``peak_rss_mb``: the process's peak resident set size.

The detail line also gives the raw figures: ``call_ms_p50``,
``call_ms_p90``, ``work_per_s`` and ``reference_ms_p50``.

BLAS is capped at one thread before numpy is imported, so every figure is a
single-threaded baseline.  Exits 2 without a result when ``src/cosamp`` is
not beside this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Set before anything imports numpy; the import-time probe inherits them.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("call_rel_p50", "ratio"),
    ("call_rel_p90", "ratio"),
    ("work_per_ref", "1/ref"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import cosamp; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """``import cosamp`` (numpy included) timed in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "cosamp").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
    }


def setup(wl, seed: int, reps: int):
    """Returns (median set-up seconds, fixture of the last repetition)."""
    totals, fx = [], None
    for _ in range(reps):
        imported = import_seconds()
        start = time.perf_counter()
        fx = wl.build(seed)
        wl.warmup(fx)
        totals.append(imported + time.perf_counter() - start)
    return statistics.median(totals), fx


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(wl, fx, seconds: float):
    """Closed loop for ``seconds``; returns (metrics, detail, attempted, failed).

    Each call is bracketed by runs of the workload's reference kernel; the
    run after one call is the run before the next."""
    import reference

    kind, reps = wl.reference
    reference.seconds(kind, 1)  # touches the kernel's inputs once, untimed
    ref_before = reference.seconds(kind, reps)
    durations, ratios, refs, summaries = [], [], [ref_before], []
    attempted = failed = units = ok = tried = 0
    deadline = time.perf_counter() + seconds
    while True:
        attempted += 1
        start = time.perf_counter()
        try:
            out = wl.call(fx)
        except Exception:  # a raising call is counted and the loop goes on
            traceback.print_exc(file=sys.stderr)
            out = None
        elapsed = time.perf_counter() - start
        ref_after = reference.seconds(kind, reps)
        refs.append(ref_after)
        if out is None:
            failed += 1
            tried += 1
        else:
            try:
                problems = wl.check(fx, out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                problems = ["check raised"]
            if problems:
                failed += 1
                print(f"check failed: {problems}")
            durations.append(elapsed)
            ratios.append(elapsed / ((ref_before + ref_after) / 2))
            summaries.append(wl.summary(fx, out))
            units += wl.units(fx, out)
            good, total = wl.successes(fx, out, problems)
            ok, tried = ok + good, tried + total
        ref_before = ref_after
        if time.perf_counter() >= deadline:
            break
    detail = {"calls": len(durations), "units": units,
              "reference": {"kernel": kind, "reps": reps}}
    if not durations:  # every call raised; the result still says so
        metrics = {name: 0.0 for name, _ in END_TO_END if name != "setup_s"}
        return metrics, detail, attempted, failed
    metrics = {
        "call_rel_p50": statistics.median(ratios),
        "call_rel_p90": _p90(ratios),
        "work_per_ref": units / sum(ratios),
        "success_rate": ok / tried,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail.update(
        {
            "call_ms_p50": statistics.median(durations) * 1e3,
            "call_ms_p90": _p90(durations) * 1e3,
            "work_per_s": units / sum(durations),
            "reference_ms_p50": statistics.median(refs) * 1e3,
        }
    )
    detail.update(wl.describe(fx, summaries))
    return metrics, detail, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cosamp" / "__init__.py").is_file():
        print(f"cosamp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cosamp

    if Path(cosamp.__file__).resolve().parent != SRC / "cosamp":
        print(f"imported cosamp from {cosamp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    if args.trace:
        _, fx = setup(wl, args.seed, 1)
        metrics, detail, attempted, failed = layers.traced_run(
            wl, fx, args.seed, args.seconds, OUT_DIR
        )
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        setup_s, fx = setup(wl, args.seed, SETUP_REPS)
        metrics, detail, attempted, failed = measure(wl, fx, args.seconds)
        metrics["setup_s"] = setup_s
        units = dict(END_TO_END)

    print(json.dumps({"workload": wl.name, "seed": args.seed, "env": environment(),
                      "detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
