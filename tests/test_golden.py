"""Golden outputs of the three recovery loops, pinned bit for bit.

Each of 144 seeded instances runs ``recover``, ``recover_residual_variant``
or ``recover_prune_first_variant`` on a real Gaussian, a complex dense or a
partial-Fourier operator, or on a real Gaussian with complex truth and noise
("real-complex", whose dense products fall back from ``ndarray.dot`` to ``@``),
with the CG, Richardson or direct solver.  The pins
in ``golden_loop.json`` hold, per instance, the sha256 of the approximation's
bytes, the halt reason, ``iterations_run``, the diverged iterations and the
sha256 of every trace row's ``v_norm``, ``y_inf``, ``err_l2`` and ``err_linf``
(as ``float.hex``).  A change to the loop that only makes it faster must leave
all of them as they are.

To pin a deliberate change of the arithmetic, rewrite the file with
``PYTHONPATH=src python tests/test_golden.py`` and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import cosamp
from cosamp import prng
from cosamp.lsq import LsqConfig
from cosamp.recovery import (FixedIterations, ProxyInfinityNorm, RecoveryConfig, SampleNorm,
                             SolverFailure, recover)
from cosamp.variants import recover_prune_first_variant, recover_residual_variant

PINS = Path(__file__).with_name("golden_loop.json")

LOOPS = {
    "standard": recover,
    "residual": recover_residual_variant,
    "prune-first": recover_prune_first_variant,
}
KINDS = ("gaussian", "complex", "fourier", "real-complex")
SOLVERS = ("cg", "richardson", "direct")
SEEDS = (0, 1, 2, 3)
M, N = 48, 128


def _operator(kind: str, seed: int):
    op_seed = prng.mix_seed(seed, 501)
    if kind in ("gaussian", "real-complex"):
        return cosamp.gaussian_operator(M, N, op_seed)
    if kind == "complex":
        return cosamp.dense_operator(prng.complex_normals(op_seed, M * N).reshape(M, N)
                                     / math.sqrt(M))
    return cosamp.partial_fourier_operator(M, N, seed=op_seed)


def _instance(kind: str, solver: str, seed: int):
    """(op, u, config, truth, noise): s, the noise and the halting rules vary with the seed."""
    op = _operator(kind, seed)
    complex_data = op.is_complex or kind == "real-complex"
    draw = prng.complex_normals if complex_data else prng.normals
    s = 3 + seed
    x = np.zeros(N, dtype=np.complex128 if complex_data else np.float64)
    x[prng.sample_without_replacement(prng.mix_seed(seed, 502), N, s)] = draw(
        prng.mix_seed(seed, 503), s)
    u = op.apply(x)
    noise = None
    if seed % 2:
        noise = draw(prng.mix_seed(seed, 504), M) * 1e-3
        u = u + noise
    halting = (
        (SampleNorm(1e-9),),
        (FixedIterations(12),),
        (ProxyInfinityNorm(1e-3), SampleNorm(1e-10)),
        (SampleNorm(2e-3), FixedIterations(20)),
    )[seed]
    config = RecoveryConfig(s=s, halting=halting, max_iterations=30,
                            lsq=LsqConfig(solver=solver, iterations=3))
    return op, u, config, x, noise


def _hex(value) -> str:
    return "none" if value is None else float(value).hex()


def _digest(report) -> dict:
    approx = np.ascontiguousarray(report.approximation)
    rows = ";".join(
        ",".join(_hex(v) for v in (row.v_norm, row.y_inf, row.err_l2, row.err_linf))
        for row in report.trace
    )
    return {
        "approximation": f"{approx.dtype.str}:" + hashlib.sha256(approx.tobytes()).hexdigest(),
        "halt_reason": report.halt_reason,
        "iterations_run": report.iterations_run,
        "diverged": list(report.diverged_iterations),
        "trace": hashlib.sha256(rows.encode()).hexdigest(),
    }


def run_case(case: str) -> dict:
    """The pinned record of ``case`` = "loop/kind/solver/seed"."""
    loop, kind, solver, seed = case.split("/")
    op, u, config, x, noise = _instance(kind, solver, int(seed))
    try:
        return _digest(LOOPS[loop](op, u, config, truth=x, noise=noise))
    except SolverFailure as exc:
        return {"raised": f"SolverFailure at iteration {exc.iteration}"}


CASES = [f"{loop}/{kind}/{solver}/{seed}"
         for loop in LOOPS for kind in KINDS for solver in SOLVERS for seed in SEEDS]


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def test_every_case_is_pinned(pins):
    assert len(CASES) >= 100
    assert sorted(pins) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_loop_output_is_bit_identical(case, pins):
    assert run_case(case) == pins[case]


if __name__ == "__main__":
    got = {case: run_case(case) for case in CASES}
    PINS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(got)} pins to {PINS}")
