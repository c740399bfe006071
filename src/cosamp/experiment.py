"""Experiment harness: JSON configs, seeded single recoveries, parameter
sweeps, and the per-step timing bench.

Configs are versioned ``config_v1`` and carry every seed explicitly.
Per-cell, per-trial seeds derive from the master seed as
``mix_seed(master_seed, cell_index, trial_index, stream)`` with the stream
constants below, so any cell is re-runnable in isolation and sweep output
is independent of worker count.  Numeric CSV cells are formatted %.12e so
reruns are byte-identical; wall-clock timings live in a separate file that
is excluded from that contract.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import prng
from .lsq import LsqConfig
from .models import CompressibleSpec, make_compressible, make_sparse
from .operators import SamplingOperator
from .recovery import (
    FixedIterations,
    ProxyInfinityNorm,
    RecoveryConfig,
    RecoveryReport,
    SampleNorm,
    recover,
)
from .serialize import json_int, json_number, operator_from_descriptor, signal_to_json
from .variants import final_polish, recover_prune_first_variant, recover_residual_variant

CONFIG_VERSION = "config_v1"
REPORT_VERSION = "report_v1"

# seed-stream constants for mix_seed(master, cell, trial, stream)
STREAM_OPERATOR = 1
STREAM_SIGNAL_POSITIONS = 2
STREAM_SIGNAL_SIGNS = 3
STREAM_NOISE = 4
STREAM_PERMUTATION = 5

TRACE_COLUMNS = ("k", "v_norm", "y_inf", "err_l2", "err_linf", "step_times_us")
SWEEP_COLUMNS = (
    "cell_index",
    "m",
    "n",
    "s",
    "noise_norm",
    "trials",
    "success_rate",
    "median_iterations",
    "median_final_error",
)


class ConfigError(ValueError):
    pass


@contextmanager
def _reading(path: str):
    """Report an error raised while reading the config value at ``path`` as a
    ConfigError naming it; the paths of nested reads join with dots."""
    try:
        yield
    except (KeyError, ValueError, TypeError, AttributeError, OSError, OverflowError) as exc:
        joint = "." if isinstance(exc, ConfigError) else ": "
        detail = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{path}{joint}{detail}") from exc


def _fmt(value: float | None) -> str:
    return "" if value is None else "%.12e" % float(value)


def load_config(path) -> dict:
    with _reading("config file"):
        text = Path(path).read_text(encoding="utf-8")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    version = cfg.get("version")
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version!r}, expected {CONFIG_VERSION!r}")
    # an absent section reads as empty, so that its builder names what it lacks
    for name in ("operator", "signal", "noise", "recovery"):
        section = cfg.setdefault(name, {})
        if not isinstance(section, dict) and not (section is None and name == "noise"):
            raise ConfigError(f"config section {name!r} must be an object, got {section!r}")
    return cfg


def parse_halting(entries) -> list:
    rules = []
    for index, entry in enumerate(entries or []):
        with _reading(f"halting[{index}]"):
            kind = entry.get("kind")
            if kind == "fixed_iterations":
                rules.append(FixedIterations(json_int(entry["count"])))
            elif kind == "sample_norm":
                rules.append(SampleNorm(json_number(entry["epsilon"])))
            elif kind == "proxy_infinity_norm":
                rules.append(ProxyInfinityNorm(json_number(entry["eta"])))
            else:
                raise ValueError(f"unknown halting rule kind {kind!r}")
    return rules


def parse_recovery(cfg: dict) -> RecoveryConfig:
    with _reading("recovery"):
        # These keys once changed the algorithm; a run that ignored them
        # would look valid but not be the run the config asked for.
        for key in ("identify_width", "prune_width"):
            if cfg.get(key) is not None:
                raise ValueError(f"{key} is fixed: the loop identifies 2s and prunes to s")
        with _reading("lsq"):
            lsq_cfg = cfg.get("lsq", {})
            if lsq_cfg.get("warm_start", "current") != "current":
                raise ValueError("warm_start is fixed: solves start from the current estimate")
            lsq = LsqConfig(
                solver=lsq_cfg.get("solver", "cg"),
                iterations=json_int(lsq_cfg.get("iterations", 3)),
            )
        return RecoveryConfig(
            s=json_int(cfg["s"]),
            halting=parse_halting(cfg.get("halting")),
            max_iterations=None if cfg.get("max_iterations") is None
            else json_int(cfg["max_iterations"]),
            lsq=lsq,
        )


def build_operator(desc: dict) -> SamplingOperator:
    with _reading("operator"):
        return operator_from_descriptor(dict(desc))


def master_seed(cfg: dict) -> int:
    with _reading("master_seed"):
        return prng.check_seed(json_int(cfg.get("master_seed", 0)))


def signal_length(cfg: dict) -> int:
    with _reading("signal.n"):
        return json_int(cfg["signal"]["n"])


def signal_seeds(master: int, cell_index: int, trial_index: int) -> tuple[int, ...]:
    """A trial's derived (position, sign, permutation) signal seeds."""
    streams = (STREAM_SIGNAL_POSITIONS, STREAM_SIGNAL_SIGNS, STREAM_PERMUTATION)
    return tuple(prng.mix_seed(master, cell_index, trial_index, st) for st in streams)


def build_signal(spec: dict, seeds: tuple[int, int, int]) -> np.ndarray:
    """Instantiate the signal model; explicit per-spec seeds win over derived."""
    position_seed, sign_seed, permutation_seed = seeds
    with _reading("signal"):
        kind = spec.get("kind")
        if kind == "sparse":
            magnitudes = spec.get("magnitudes")
            return make_sparse(
                json_int(spec["n"]),
                json_int(spec["s"]),
                spec.get("law", "flat"),
                alpha=json_number(spec.get("alpha", 0.5)),
                magnitudes=None if magnitudes is None else [json_number(v) for v in magnitudes],
                scale=json_number(spec.get("scale", 1.0)),
                position_seed=json_int(spec.get("position_seed", position_seed)),
                sign_seed=json_int(spec.get("sign_seed", sign_seed)),
            )
        if kind == "compressible":
            return make_compressible(
                CompressibleSpec(
                    p=json_number(spec["p"]),
                    magnitude=json_number(spec.get("magnitude", 1.0)),
                    n=json_int(spec["n"]),
                    sign_seed=json_int(spec.get("sign_seed", sign_seed)),
                    permutation_seed=json_int(spec.get("permutation_seed", permutation_seed)),
                )
            )
        raise ValueError(f"unknown signal kind {kind!r}")


def build_noise(spec: dict | None, m: int, complex_samples: bool, seed: int) -> np.ndarray | None:
    """Noise vector in sample space; scalar kind follows the operator."""
    if not spec:
        return None
    with _reading("noise"):
        noise_seed = prng.check_seed(json_int(spec.get("seed", seed)))
        key = "norm" if "norm" in spec else "sigma"
        with _reading(key):
            if not (isinstance(spec[key], str) or 0.0 <= spec[key] < math.inf):
                raise ValueError(f"must be finite and nonnegative, got {spec[key]}")
            scale = json_number(spec[key])
    if complex_samples:
        direction = prng.complex_normals(noise_seed, m)
    else:
        direction = prng.normals(noise_seed, m)
    if key == "sigma":
        return direction * scale
    if scale == 0.0:
        return np.zeros_like(direction)
    return direction * (scale / float(np.linalg.norm(direction)))


@dataclass(frozen=True, eq=False)
class TrialOutcome:
    report: RecoveryReport
    truth: np.ndarray
    noise_norm: float
    relative_error: float
    success: bool
    iteration_time_us: float


def run_trial(
    cfg: dict,
    *,
    cell_index: int = 0,
    trial_index: int = 0,
    variant: str = "standard",
    polish: bool = False,
) -> TrialOutcome:
    """One fully seeded recovery of ``cfg``; a sweep passes each cell's :func:`cell_config`."""
    master = master_seed(cfg)
    with _reading("operator"):
        op_desc = dict(cfg["operator"])
    op_desc.setdefault("seed", prng.mix_seed(master, cell_index, trial_index, STREAM_OPERATOR))
    op = build_operator(op_desc)
    truth = build_signal(cfg.get("signal", {}), signal_seeds(master, cell_index, trial_index))
    noise = build_noise(
        cfg.get("noise"),
        op.m,
        op.is_complex,
        prng.mix_seed(master, cell_index, trial_index, STREAM_NOISE),
    )

    recovery_cfg = parse_recovery(cfg.get("recovery", {}))
    if truth.size != op.n:
        raise ConfigError(f"signal.n: N = {truth.size} differs from the operator's N = {op.n}")
    if recovery_cfg.s > op.n:
        raise ConfigError(f"recovery.s: s = {recovery_cfg.s} exceeds N = {op.n}")

    u = op.apply(truth)
    if noise is not None:
        u = u + noise
    truth_norm = float(np.linalg.norm(truth))
    noise_norm = float(np.linalg.norm(noise)) if noise is not None else 0.0
    threshold = success_threshold(cfg, truth_norm, noise_norm)  # read before any recovery runs

    start = time.perf_counter()
    report = _dispatch(variant)(op, u, recovery_cfg, truth, noise)
    elapsed_us = (time.perf_counter() - start) * 1e6
    if polish:
        polished = final_polish(op, u, report.approximation)
        report = replace(report, approximation=polished)

    err = float(np.linalg.norm(truth - report.approximation))
    rel = err / truth_norm if truth_norm > 0 else err
    success = rel <= threshold
    per_iter_us = elapsed_us / max(report.iterations_run, 1)
    return TrialOutcome(report, truth, noise_norm, rel, success, per_iter_us)


def _dispatch(variant: str):
    if variant == "standard":
        return recover
    if variant == "residual":
        return recover_residual_variant
    if variant == "prune-first":
        return recover_prune_first_variant
    raise ConfigError(f"unknown variant {variant!r}")


def success_threshold(cfg: dict, truth_norm: float, noise_norm: float) -> float:
    """Relative-error success bar: 1e-4 noiseless, 15 ||e|| / ||x|| noisy."""
    explicit = cfg.get("success_threshold")
    if explicit is not None:
        with _reading("success_threshold"):
            threshold = json_number(explicit)
            if threshold < 0:
                raise ValueError(f"need a threshold >= 0, got {explicit!r}")
            return threshold
    if noise_norm == 0.0:
        return 1e-4
    return 15.0 * noise_norm / truth_norm if truth_norm > 0 else math.inf


def report_payload(outcome: TrialOutcome) -> dict:
    report = outcome.report
    return {
        "version": REPORT_VERSION,
        "iterations_run": report.iterations_run,
        "halt_reason": report.halt_reason,
        "final": {
            "support": [int(i) for i in report.support.indices],
            "values": signal_to_json(report.approximation[report.support.indices]),
            "n": int(report.approximation.size),
        },
        "relative_error": outcome.relative_error,
        "noise_norm": outcome.noise_norm,
        "success": outcome.success,
        "diverged_iterations": list(report.diverged_iterations),
        "trace": [row._asdict() for row in report.trace],
    }


def write_trace_csv(path, report: RecoveryReport) -> None:
    rows = (
        [row.k, _fmt(row.v_norm), _fmt(row.y_inf), _fmt(row.err_l2), _fmt(row.err_linf),
         _fmt(row.total_time_us())]
        for row in report.trace
    )
    Path(path).write_text(_csv_text(TRACE_COLUMNS, rows), encoding="utf-8")


def sweep_cells(cfg: dict) -> list[dict]:
    """Row-major cell grid over the sweep axes (single cell when absent)."""
    with _reading("noise"):
        base_noise = cfg.get("noise") or {}
        if base_noise and ("sigma" in base_noise or "norm" not in base_noise):
            raise ValueError("a sweep sets the noise by its norm: give 'norm' and no 'sigma'")
    with _reading("sweep"):
        sweep = cfg.get("sweep") or {}
        m_axis = sweep.get("m", [cfg["operator"].get("m")])
        s_axis = sweep.get("s", [cfg["recovery"].get("s")])
        noise_axis = sweep.get("noise_norm")
        if noise_axis is None:
            noise_axis = [base_noise.get("norm", 0.0)]
        if not m_axis or not s_axis or not noise_axis:
            raise ValueError("axes must be nonempty")
        if any(v is None for axis in (m_axis, s_axis, noise_axis) for v in axis):
            raise ValueError("axes need explicit values (m, s, noise_norm)")
        grid = itertools.product(m_axis, s_axis, noise_axis)
        return [
            {"cell_index": index, "m": json_int(m), "s": json_int(s), "noise_norm": json_number(e)}
            for index, (m, s, e) in enumerate(grid)
        ]


@dataclass(frozen=True)
class CellResult:
    cell: dict
    trials: int
    success_rate: float
    median_iterations: float
    median_final_error: float
    median_iteration_time_us: float
    failures: int = 0


def cell_config(cfg: dict, cell: dict) -> dict:
    """The config of a sweep cell's trials: ``cfg`` with its m, s and noise norm set."""
    return {
        **cfg,
        "operator": {**cfg["operator"], "m": cell["m"]},
        "signal": {**cfg["signal"], "s": cell["s"]},
        "recovery": {**cfg["recovery"], "s": cell["s"]},
        "noise": {**(cfg.get("noise") or {}), "norm": cell["noise_norm"]},
    }


def run_cell(cfg: dict, cell: dict, trials: int) -> CellResult:
    """Run a cell's trials; a trial that raises counts as failed; a ConfigError stops the sweep."""
    outcomes = []
    failures = 0
    trial_cfg = cell_config(cfg, cell)
    for t in range(trials):
        try:
            outcomes.append(run_trial(trial_cfg, cell_index=cell["cell_index"], trial_index=t))
        except ConfigError:
            raise
        except Exception:
            failures += 1
    if not outcomes:
        return CellResult(cell, trials, 0.0, math.nan, math.nan, math.nan, failures)
    return CellResult(
        cell,
        trials,
        sum(o.success for o in outcomes) / trials,
        float(np.median([o.report.iterations_run for o in outcomes])),
        float(np.median([o.relative_error for o in outcomes])),
        float(np.median([o.iteration_time_us for o in outcomes])),
        failures,
    )


def run_sweep(cfg: dict, jobs: int = 1) -> list[CellResult]:
    cells = sweep_cells(cfg)
    with _reading("trials"):
        trials = json_int(cfg.get("trials", 1))
        if trials < 1:
            raise ValueError(f"need at least one trial, got {trials}")
    n = signal_length(cfg)
    for cell in cells:
        if not (0 < cell["m"] <= n and 0 < cell["s"] <= n and 0 <= cell["noise_norm"]):
            raise ConfigError(f"sweep: cell {cell} needs 0 < m, s <= N={n}, noise_norm >= 0")
    if jobs <= 1 or len(cells) == 1:
        results = [run_cell(cfg, cell, trials) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_cell, [cfg] * len(cells), cells, [trials] * len(cells)))
    return sorted(results, key=lambda r: r.cell["cell_index"])


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def sweep_csv(results: list[CellResult], n: int) -> str:
    """Deterministic results CSV (no wall-clock columns)."""
    rows = (
        [res.cell["cell_index"], res.cell["m"], n, res.cell["s"], _fmt(res.cell["noise_norm"]),
         res.trials, _fmt(res.success_rate), _fmt(res.median_iterations),
         _fmt(res.median_final_error)]
        for res in results
    )
    return _csv_text(SWEEP_COLUMNS, rows)


def sweep_timing_csv(results: list[CellResult]) -> str:
    rows = ([res.cell["cell_index"], _fmt(res.median_iteration_time_us)] for res in results)
    return _csv_text(("cell_index", "median_iteration_time_us"), rows)


BENCH_STEPS = ("proxy", "identify", "merge", "estimate", "prune", "update")


def bench_operator(op: SamplingOperator, s: int, iterations: int, seed: int) -> dict[str, float]:
    """Median per-step microseconds over the recovery loop's iterations."""
    truth = make_sparse(
        op.n,
        s,
        "flat",
        position_seed=prng.mix_seed(seed, 1),
        sign_seed=prng.mix_seed(seed, 2),
    )
    u = op.apply(truth)
    config = RecoveryConfig(s=s, halting=FixedIterations(iterations), lsq=LsqConfig())
    report = recover(op, u, config)
    medians: dict[str, float] = {}
    for step in BENCH_STEPS:
        samples = [row.step_times_us.get(step, 0.0) for row in report.trace]
        medians[step] = float(np.median(samples)) if samples else 0.0
    medians["total"] = float(np.median([row.total_time_us() for row in report.trace]))
    return medians


def bench_rows(cfg: dict) -> list[tuple[str, dict[str, float]]]:
    """(label, per-step medians) for each scenario of the config's bench section."""
    seed = master_seed(cfg)
    rows = []
    with _reading("bench"):
        bench = cfg["bench"]
        for index, scenario in enumerate(bench["scenarios"]):
            with _reading(f"scenarios[{index}]"):
                op = build_operator(scenario["operator"])
                label = scenario.get("label", f"{scenario['operator']['kind']}_n{op.n}")
                s = json_int(scenario.get("s", bench.get("s", 8)))
                iterations = json_int(scenario.get("iterations", bench.get("iterations", 5)))
                rows.append((label, bench_operator(op, s, iterations, seed)))
    return rows


def bench_csv(rows: list[tuple[str, dict[str, float]]]) -> str:
    lines = ([step] + [_fmt(med[step]) for _, med in rows] for step in BENCH_STEPS + ("total",))
    return _csv_text(["step"] + [label for label, _ in rows], lines)
