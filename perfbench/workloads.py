"""The benchmark's four seeded workloads.

Each workload turns ``--seed`` into its inputs (``build``), makes one timed
call into the library (``call``), and checks that call's output (``check``).
The library only ever sees the generated inputs, never the seed itself.

Every fixture is described by a ``config_v1`` dict and built through
``cosamp.experiment`` exactly as ``experiment.run_trial`` derives its trial
inputs, so the same fixture can be rebuilt by the library's own harness.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from cosamp import experiment, models, prng, recovery, rip, signals

PINNED_PATH = Path(__file__).with_name("pinned.json")

#: Seed whose outputs are checked like any other but which no metric run uses.
HELD_OUT_SEED = 987_654_321

_HALT_TO_TOLERANCE = [
    {"kind": "sample_norm", "epsilon": 1e-9},
    {"kind": "fixed_iterations", "count": 50},
]


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))


@dataclass
class Problem:
    """One recovery instance: what ``experiment.run_trial`` builds for a trial."""

    op: object
    truth: np.ndarray
    noise: np.ndarray | None
    u: np.ndarray
    config: recovery.RecoveryConfig

    @property
    def noise_norm(self) -> float:
        return 0.0 if self.noise is None else float(np.linalg.norm(self.noise))


def build_problem(cfg: dict, cell: dict | None = None) -> Problem:
    """Inputs of trial 0 of ``cell`` (cell index 0 when absent), derived from
    ``cfg["master_seed"]`` with the stream constants ``run_trial`` uses."""
    cell = cell or {}
    master = int(cfg["master_seed"])
    index = int(cell.get("cell_index", 0))

    def seed(stream: int) -> int:
        return prng.mix_seed(master, index, 0, stream)

    op_desc = dict(cfg["operator"])
    if "m" in cell:
        op_desc["m"] = cell["m"]
    op_desc.setdefault("seed", seed(experiment.STREAM_OPERATOR))
    op = experiment.build_operator(op_desc)

    signal_spec = dict(cfg["signal"])
    if "s" in cell:
        signal_spec["s"] = cell["s"]
    truth = experiment.build_signal(
        signal_spec,
        (
            seed(experiment.STREAM_SIGNAL_POSITIONS),
            seed(experiment.STREAM_SIGNAL_SIGNS),
            seed(experiment.STREAM_PERMUTATION),
        ),
    )
    noise_spec = {"norm": cell["noise_norm"]} if "noise_norm" in cell else cfg.get("noise")
    noise = experiment.build_noise(noise_spec, op.m, op.is_complex, seed(experiment.STREAM_NOISE))

    config = experiment.parse_recovery(dict(cfg["recovery"]))
    if "s" in cell:
        config = replace(config, s=int(cell["s"]))
    u = op.apply(truth)
    if noise is not None:
        u = u + noise
    return Problem(op, truth, noise, u, config)


def _relative_error(truth: np.ndarray, approx: np.ndarray) -> float:
    return float(np.linalg.norm(truth - approx) / np.linalg.norm(truth))


class Workload:
    """Interface shared by the workloads below.

    ``units`` counts the work one call completes (recoveries, sweep trials or
    RIP supports); ``successes`` gives the call's (succeeded, attempted)
    contribution to ``success_rate``; ``layer_problem`` names the operator,
    ambient dimension and sparsity the per-layer microbenchmarks run at, plus
    the recovery instance the least-squares solvers are replayed on (None
    without one).
    """

    name: str
    why: str
    #: (kernel, repetitions) of ``reference`` timed beside each call: the
    #: kernel closest to the call's own work, repeated to about a fifth of it
    reference: tuple[str, int]

    def build(self, seed: int):
        raise NotImplementedError

    def warmup(self, fx) -> None:
        self.call(fx)

    def call(self, fx):
        raise NotImplementedError

    def check(self, fx, out) -> list[str]:
        raise NotImplementedError

    def units(self, fx, out) -> int:
        return 1

    def successes(self, fx, out, problems: list[str]) -> tuple[int, int]:
        return (0 if problems else 1), 1

    def layer_problem(self, fx) -> tuple[object, int, int, Problem | None]:
        raise NotImplementedError

    def trial_config(self, fx) -> dict | None:
        """Config whose ``experiment.run_trial`` rebuilds this fixture, if any."""
        return None

    def traced_fixture(self, fx, wrap):
        """The fixture with each operator it holds passed through ``wrap``."""
        return fx

    def summary(self, fx, out) -> dict:
        """The few numbers ``describe`` needs from one call's output."""
        raise NotImplementedError

    def describe(self, fx, summaries: list[dict]) -> dict:
        """Details printed beside the metrics, from the calls' summaries."""
        raise NotImplementedError


@dataclass
class RecoveryFixture:
    cfg: dict
    problem: Problem
    first_digest: str | None = None


class _RecoveryWorkload(Workload):
    """One ``recover`` per call on a fixed seeded instance."""

    def config(self, seed: int) -> dict:
        raise NotImplementedError

    def build(self, seed: int) -> RecoveryFixture:
        cfg = self.config(seed)
        return RecoveryFixture(cfg, build_problem(cfg))

    def call(self, fx: RecoveryFixture):
        p = fx.problem
        return recovery.recover(p.op, p.u, p.config)

    def check(self, fx: RecoveryFixture, report) -> list[str]:
        problems = self.check_accuracy(fx.problem, report)
        digest = hashlib.sha256(np.ascontiguousarray(report.approximation).tobytes()).hexdigest()
        if fx.first_digest is None:
            fx.first_digest = digest
        elif digest != fx.first_digest:
            problems.append("approximation differs from the run's first call")
        return problems

    def check_accuracy(self, p: Problem, report) -> list[str]:
        raise NotImplementedError

    def layer_problem(self, fx: RecoveryFixture):
        p = fx.problem
        return p.op, p.op.n, p.config.s, p

    def trial_config(self, fx: RecoveryFixture) -> dict:
        return fx.cfg

    def traced_fixture(self, fx: RecoveryFixture, wrap):
        return replace(fx, problem=replace(fx.problem, op=wrap(fx.problem.op)))

    def summary(self, fx: RecoveryFixture, report) -> dict:
        return {
            "iterations": report.iterations_run,
            "rel_error": _relative_error(fx.problem.truth, report.approximation),
        }

    def describe(self, fx: RecoveryFixture, summaries: list[dict]) -> dict:
        if not summaries:
            return {}
        return {
            "iterations_p50": float(np.median([s["iterations"] for s in summaries])),
            "final_rel_error_max": max(s["rel_error"] for s in summaries),
        }


class PartialFourier64k(_RecoveryWorkload):
    name = "pf-64k"
    why = (
        "partial Fourier N=2^16 m=2^14 s=64, noiseless, CG-3 to SampleNorm(1e-9): "
        "FFT products inside CG and argsort selection over 2^16 dominate"
    )
    reference = ("fft", 10)

    def config(self, seed: int) -> dict:
        n, m, s = 2**16, 2**14, 64
        return {
            "version": "config_v1",
            "master_seed": seed,
            "operator": {"kind": "partial_fourier", "m": m, "n": n},
            "signal": {"kind": "sparse", "n": n, "s": s, "law": "flat"},
            "noise": None,
            "recovery": {"s": s, "halting": _HALT_TO_TOLERANCE},
        }

    def check_accuracy(self, p: Problem, report) -> list[str]:
        problems = []
        if report.halt_reason != "sample_norm":
            problems.append(f"halted on {report.halt_reason}, expected sample_norm")
        if report.support != signals.support_of(p.truth):
            problems.append("recovered support differs from the planted support")
        rel = _relative_error(p.truth, report.approximation)
        if not rel <= 1e-8:
            problems.append(f"relative error {rel:.3e} exceeds 1e-8")
        return problems


class GaussCompressible(_RecoveryWorkload):
    name = "gauss-compressible"
    why = (
        "dense Gaussian 1024x4096, p=0.7 compressible signal, noise 1e-3, 30 fixed "
        "iterations: BLAS matvecs and column gathers on a support that keeps changing"
    )
    reference = ("dense", 32)
    iterations = 30

    def config(self, seed: int) -> dict:
        n, m, s = 4096, 1024, 40
        return {
            "version": "config_v1",
            "master_seed": seed,
            "operator": {"kind": "gaussian", "m": m, "n": n},
            "signal": {"kind": "compressible", "n": n, "p": 0.7, "magnitude": 1.0},
            "noise": {"norm": 1e-3},
            "recovery": {
                "s": s,
                "halting": [{"kind": "fixed_iterations", "count": self.iterations}],
            },
        }

    def check_accuracy(self, p: Problem, report) -> list[str]:
        problems = []
        if report.iterations_run != self.iterations or report.halt_reason != "fixed_iterations":
            problems.append(
                f"ran {report.iterations_run} iterations ({report.halt_reason}), "
                f"expected {self.iterations} (fixed_iterations)"
            )
        # Theorem A: ||x - a|| <= 2^-k ||x|| + 20 nu
        nu = models.unrecoverable_energy(p.truth, p.config.s, p.noise_norm)
        bound = 2.0 ** -report.iterations_run * float(np.linalg.norm(p.truth)) + 20.0 * nu
        err = float(np.linalg.norm(p.truth - report.approximation))
        if not err <= bound:
            problems.append(f"error {err:.3e} exceeds the Theorem A bound {bound:.3e}")
        return problems


_SWEEP_N = 256


# A cell's median final error is compared within this tolerance rather than
# exactly: in converged cells it is ~1e-10 and set by rounding along the
# iteration path, so a correct reordering of the arithmetic moves its digits.
# The absolute floor sits far below the 1e-4 noiseless success bar.
FINAL_ERROR_RTOL = 1e-6
FINAL_ERROR_ATOL = 1e-8


@dataclass
class SweepFixture:
    cfg: dict
    pinned: dict | None
    first: dict | None = None


def sweep_pin(results) -> dict:
    """What sweep-small pins: the sha256 of ``sweep_csv`` with the final-error
    column zeroed, which must match exactly, and the cells' median final
    errors, which must match within the tolerance above."""
    exact = [replace(r, median_final_error=0.0) for r in results]
    text = experiment.sweep_csv(exact, _SWEEP_N)
    return {
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "final_errors": [float(r.median_final_error) for r in results],
    }


def sweep_pin_problems(got: dict, pinned: dict) -> list[str]:
    problems = []
    if got["digest"] != pinned["digest"]:
        problems.append("sweep CSV differs from the pinned digest")
    far = [
        i
        for i, (v, p) in enumerate(zip(got["final_errors"], pinned["final_errors"]))
        if not abs(v - p) <= FINAL_ERROR_ATOL + FINAL_ERROR_RTOL * abs(p)
    ]
    if far or len(got["final_errors"]) != len(pinned["final_errors"]):
        problems.append(f"median final errors of cells {far} differ from the pinned values")
    return problems


class SweepSmall(Workload):
    name = "sweep-small"
    why = (
        "run_sweep jobs=1 over Gaussian N=256, m x s x noise = 3x3x2 cells: thousands "
        "of tiny calls, so per-call Python overhead and fixture generation dominate"
    )
    reference = ("small", 10)
    trials = 8

    def config(self, seed: int) -> dict:
        return {
            "version": "config_v1",
            "master_seed": seed,
            "operator": {"kind": "gaussian", "m": 64, "n": _SWEEP_N},
            "signal": {"kind": "sparse", "n": _SWEEP_N, "s": 8, "law": "flat"},
            "noise": None,
            "recovery": {"s": 8, "halting": _HALT_TO_TOLERANCE},
            "trials": self.trials,
            "sweep": {"m": [64, 96, 128], "s": [8, 16, 24], "noise_norm": [0.0, 1e-2]},
        }

    def build(self, seed: int) -> SweepFixture:
        pinned = load_pinned()["sweep-small"].get(str(seed))
        return SweepFixture(self.config(seed), pinned)

    def warmup(self, fx: SweepFixture) -> None:
        cfg = dict(fx.cfg, trials=1, sweep={"m": [64], "s": [8], "noise_norm": [0.0]})
        experiment.run_sweep(cfg, jobs=1)

    def call(self, fx: SweepFixture):
        return experiment.run_sweep(fx.cfg, jobs=1)

    def check(self, fx: SweepFixture, results) -> list[str]:
        problems = []
        failures = sum(r.failures for r in results)
        if failures:
            problems.append(f"{failures} sweep trials raised")
        got = sweep_pin(results)
        if fx.first is None:
            fx.first = got
        if fx.pinned is not None:
            problems += sweep_pin_problems(got, fx.pinned)
        if got != fx.first:
            problems.append("sweep CSV differs from the run's first call")
        return problems

    def units(self, fx, results) -> int:
        return sum(r.trials for r in results)

    def successes(self, fx, results, problems) -> tuple[int, int]:
        trials = sum(r.trials for r in results)
        ok = sum(round(r.success_rate * (r.trials - r.failures)) for r in results)
        return ok, trials

    def layer_problem(self, fx: SweepFixture):
        # the grid's largest noiseless cell that is well inside the success region
        cell = next(
            c
            for c in experiment.sweep_cells(fx.cfg)
            if c["m"] == 128 and c["s"] == 16 and c["noise_norm"] == 0.0
        )
        p = build_problem(fx.cfg, cell)
        return p.op, p.op.n, p.config.s, p

    def summary(self, fx: SweepFixture, results) -> dict:
        return {
            "cell_iterations_p50": float(np.median([r.median_iterations for r in results])),
            "cell_rel_error_max": float(max(r.median_final_error for r in results)),
        }

    def describe(self, fx: SweepFixture, summaries: list[dict]) -> dict:
        # every call of a run returns the same grid, so the first one stands for all
        return {
            "digest": fx.first["digest"] if fx.first else None,
            "pinned": fx.pinned is not None,
            **(summaries[0] if summaries else {}),
        }


@dataclass
class RipFixture:
    op6: object
    op8: object
    mc_seed: int
    pinned: list[float] | None
    first: tuple[float, float] | None = None


class RipCert(Workload):
    name = "rip-cert"
    why = (
        "exhaustive delta_6 of a 24x32 Gaussian (906,192 supports) plus Monte Carlo "
        "delta_8 with 10,000 supports on 64x128: the rip layer and its prng shuffles"
    )
    reference = ("small", 15)
    mc_trials = 10_000

    def build(self, seed: int) -> RipFixture:
        # seed k gives the operator of trial k in acceptance criterion 07
        op6 = experiment.build_operator(
            {"kind": "gaussian", "m": 24, "n": 32, "seed": prng.mix_seed(900, seed)}
        )
        op8 = experiment.build_operator(
            {"kind": "gaussian", "m": 64, "n": 128, "seed": prng.mix_seed(910, seed)}
        )
        pinned = load_pinned()["rip-cert"].get(str(seed))
        return RipFixture(op6, op8, prng.mix_seed(920, seed), pinned)

    def warmup(self, fx: RipFixture) -> None:
        rip.rip_estimate(fx.op6, 2, "exhaustive")
        rip.rip_estimate(fx.op8, 8, "monte_carlo", trials=100, seed=fx.mc_seed)

    def call(self, fx: RipFixture):
        t0 = time.perf_counter()
        d6 = rip.rip_estimate(fx.op6, 6, "exhaustive")
        t1 = time.perf_counter()
        d8 = rip.rip_estimate(fx.op8, 8, "monte_carlo", trials=self.mc_trials, seed=fx.mc_seed)
        t2 = time.perf_counter()
        return d6, d8, t1 - t0, t2 - t1

    def check(self, fx: RipFixture, out) -> list[str]:
        d6, d8, _, _ = out
        problems = []
        values = (d6.delta_exact, d8.delta_lower)
        if d6.delta_exact is None or d6.delta_lower != d6.delta_exact:
            problems.append("exhaustive estimate is not exact")
        if fx.first is None:
            fx.first = values
        if values != fx.first:
            problems.append("deltas differ from the run's first call")
        if fx.pinned is not None and any(
            not abs(v - p) <= 1e-12 for v, p in zip(values, fx.pinned)
        ):
            problems.append(f"deltas {values} differ from pinned {fx.pinned}")
        # independent lower bounds: single supports through gram_deviation
        for t in range(3):
            s6 = signals.SupportSet(prng.sample_without_replacement(prng.mix_seed(930, t), 32, 6), 32)
            if rip.gram_deviation(fx.op6, s6) > d6.delta_exact + 1e-12:
                problems.append("a 6-support deviates more than delta_6")
            s8 = signals.SupportSet(
                prng.sample_without_replacement(prng.mix_seed(fx.mc_seed, t), 128, 8), 128
            )
            if rip.gram_deviation(fx.op8, s8) > d8.delta_lower + 1e-12:
                problems.append("a sampled 8-support deviates more than the Monte Carlo delta_8")
        return problems

    def units(self, fx: RipFixture, out) -> int:
        return math.comb(fx.op6.n, 6) + self.mc_trials

    def layer_problem(self, fx: RipFixture):
        return fx.op6, fx.op6.n, 6, None

    def traced_fixture(self, fx: RipFixture, wrap):
        return replace(fx, op6=wrap(fx.op6), op8=wrap(fx.op8))

    def summary(self, fx: RipFixture, out) -> dict:
        return {"exhaustive_s": out[2], "monte_carlo_s": out[3]}

    def describe(self, fx: RipFixture, summaries: list[dict]) -> dict:
        return {
            "delta_6": fx.first[0] if fx.first else None,
            "delta_8_monte_carlo": fx.first[1] if fx.first else None,
            "pinned": fx.pinned is not None,
            **{
                key: float(np.median([s[key] for s in summaries])) if summaries else 0.0
                for key in ("exhaustive_s", "monte_carlo_s")
            },
        }


WORKLOADS = {wl.name: wl for wl in (PartialFourier64k(), GaussCompressible(), SweepSmall(), RipCert())}
