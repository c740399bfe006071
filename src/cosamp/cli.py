"""Command-line front end.

Subcommands: ``recover``, ``sweep``, ``rip``, ``bench``, ``gen-signal``.
Exit codes: 0 success, 1 config error, 2 solver/budget error.  Set
``COSAMP_LOG={error|info|debug}`` to control logging verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import experiment, serialize
from .recovery import SolverFailure
from .rip import RipBudgetError, rip_estimate

log = logging.getLogger("cosamp")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2


def _setup_logging() -> None:
    level = os.environ.get("COSAMP_LOG", "error").lower()
    mapping = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=mapping.get(level, logging.ERROR), format="%(levelname)s %(message)s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosamp",
        description="Seeded compressive-sampling recovery experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a config_v1 JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--json", action="store_true", help="print machine-readable JSON")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")

    p_recover = sub.add_parser("recover", help="run one seeded recovery")
    common(p_recover)
    p_recover.add_argument(
        "--variant",
        choices=["standard", "residual", "prune-first"],
        default="standard",
        help="recovery loop variant",
    )
    p_recover.add_argument(
        "--polish", action="store_true", help="re-solve least squares on the final support"
    )

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    common(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes")

    p_rip = sub.add_parser("rip", help="estimate a restricted isometry constant")
    common(p_rip)
    p_rip.add_argument("--r", type=int, required=True, help="sparsity order of the constant")
    p_rip.add_argument(
        "--method", choices=["exhaustive", "monte-carlo", "both"], default="exhaustive"
    )
    p_rip.add_argument("--trials", type=int, default=10_000)
    p_rip.add_argument("--budget", type=int, default=10**6)

    p_bench = sub.add_parser("bench", help="time each recovery step per iteration")
    common(p_bench)

    p_gen = sub.add_parser("gen-signal", help="generate a signal fixture")
    common(p_gen)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        cfg = experiment.load_config(args.config)
        if args.seed is not None:
            cfg["master_seed"] = args.seed
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        handler = {
            "recover": cmd_recover,
            "sweep": cmd_sweep,
            "rip": cmd_rip,
            "bench": cmd_bench,
            "gen-signal": cmd_gen_signal,
        }[args.command]
        return handler(args, cfg, out_dir)
    except (SolverFailure, RipBudgetError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:  # experiment.ConfigError among them
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def cmd_recover(args, cfg: dict, out_dir: Path) -> int:
    outcome = experiment.run_trial(cfg, variant=args.variant, polish=args.polish)
    payload = experiment.report_payload(outcome)
    serialize.dump_json(out_dir / "report.json", payload)
    experiment.write_trace_csv(out_dir / "trace.csv", outcome.report)
    summary = {
        "iterations_run": payload["iterations_run"],
        "halt_reason": payload["halt_reason"],
        "relative_error": payload["relative_error"],
        "success": payload["success"],
    }
    if args.json:
        print(json.dumps(summary))
    else:
        print(
            f"halted after {summary['iterations_run']} iterations "
            f"({summary['halt_reason']}); relative error {summary['relative_error']:.3e}"
        )
    log.info("report written to %s", out_dir / "report.json")
    return EXIT_OK


def cmd_sweep(args, cfg: dict, out_dir: Path) -> int:
    results = experiment.run_sweep(cfg, jobs=args.jobs)
    n = experiment.signal_length(cfg)
    (out_dir / "sweep.csv").write_text(experiment.sweep_csv(results, n), encoding="utf-8")
    (out_dir / "sweep_timing.csv").write_text(
        experiment.sweep_timing_csv(results), encoding="utf-8"
    )
    all_failed = all(res.failures == res.trials for res in results)
    if args.json:
        print(json.dumps([{"cell_index": res.cell["cell_index"], "success_rate": res.success_rate,
                           "median_final_error": res.median_final_error} for res in results]))
    else:
        for res in results:
            print(
                f"cell {res.cell['cell_index']} (m={res.cell['m']}, s={res.cell['s']}, "
                f"noise={res.cell['noise_norm']:g}): success {res.success_rate:.2f}, "
                f"median error {res.median_final_error:.3e}"
            )
    return EXIT_SOLVER if all_failed else EXIT_OK


def cmd_rip(args, cfg: dict, out_dir: Path) -> int:
    op = experiment.build_operator(cfg["operator"])
    methods = ["exhaustive", "monte_carlo"] if args.method == "both" else [
        args.method.replace("-", "_")
    ]
    estimates = [
        rip_estimate(op, args.r, method, budget=args.budget, trials=args.trials,
                     seed=experiment.master_seed(cfg))
        for method in methods
    ]
    if args.json:
        print(json.dumps([{"r": est.r, "method": est.method, "delta_lower": est.delta_lower,
                           "delta_exact": est.delta_exact, "trials": est.trials}
                          for est in estimates]))
    else:
        for est in estimates:
            exact = "exact" if est.method == "exhaustive" else f"lower bound ({est.trials} trials)"
            print(f"delta_{est.r} = {est.delta_lower:.6f}  [{est.method}, {exact}]")
    return EXIT_OK


def cmd_bench(args, cfg: dict, out_dir: Path) -> int:
    rows = experiment.bench_rows(cfg)
    csv_text = experiment.bench_csv(rows)
    (out_dir / "bench.csv").write_text(csv_text, encoding="utf-8")
    if args.json:
        print(json.dumps({label: med for label, med in rows}))
    else:
        print(csv_text, end="")
    return EXIT_OK


def cmd_gen_signal(args, cfg: dict, out_dir: Path) -> int:
    master = experiment.master_seed(cfg)
    signal = experiment.build_signal(cfg["signal"], experiment.signal_seeds(master, 0, 0))
    serialize.write_signal(out_dir / "signal.csk1", signal)
    if args.json:
        print(json.dumps({"n": int(signal.size), "l2": float(np.linalg.norm(signal))}))
    else:
        print(f"wrote signal of length {signal.size} to {out_dir / 'signal.csk1'}")
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
