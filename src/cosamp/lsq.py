"""Least-squares solvers for the estimation step.

Richardson's iteration and conjugate gradient need the normal product
Phi_T* Phi_T z once per iteration.  When the operator offers a closed-form
Gram (``gram_sub``, e.g. partial Fourier) that product is a |T| x |T|
matrix-vector multiply; otherwise it is one multiply each with Phi_T and
Phi_T*, so the solvers compose with any matrix-free operator.  Either way
the right-hand side Phi_T* u and the final sample-space residual are real
operator products.  The direct normal-equations solver is reference
scaffolding: exact, but it forms the Gram matrix.

When ||Phi_T* Phi_T - I|| < 1, Richardson contracts by that norm per
iteration; three warm-started iterations suffice for the recovery loop's
guarantees, which is the default wiring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import SamplingOperator, closed_form_gram, gram_matrix
from .signals import SupportSet

_DIVERGENCE_FACTOR = 10.0


class RankDeficiencyError(np.linalg.LinAlgError):
    """Phi_T is numerically rank deficient; carries the smallest Gram eigenvalue."""

    def __init__(self, smallest_eigenvalue: float):
        self.smallest_eigenvalue = smallest_eigenvalue
        super().__init__(
            f"Gram matrix numerically singular (smallest eigenvalue {smallest_eigenvalue:.3e})"
        )


@dataclass(frozen=True)
class LsqConfig:
    """Solver selection for the estimation step.

    The recovery loop always seeds the iterative solvers with the current
    signal approximation restricted to T.
    """

    solver: str = "cg"  # richardson | cg | direct
    iterations: int = 3

    def __post_init__(self) -> None:
        if self.solver not in ("richardson", "cg", "direct"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass(frozen=True)
class LsqResult:
    coefficients: np.ndarray  # length |T|
    iterations_used: int
    residual_samples_norm: float
    diverged: bool = False


def _result(op, T, u, z, iterations) -> LsqResult:
    residual = u - op.apply_sub(T, z)
    return LsqResult(z, iterations, float(np.linalg.norm(residual)), False)


def _prepare(op: SamplingOperator, T: SupportSet, u, z0) -> np.ndarray:
    if len(T) < 1:
        raise ValueError("support must be nonempty")
    u = np.asarray(u)
    if u.size != op.m:
        raise ValueError(f"sample vector length {u.size} != m = {op.m}")
    dtype = np.complex128 if (op.is_complex or np.iscomplexobj(u)) else np.float64
    if z0 is None:
        return np.zeros(len(T), dtype=dtype)
    z0 = np.asarray(z0).astype(dtype)
    if z0.size != len(T):
        raise ValueError(f"warm start length {z0.size} != |T| = {len(T)}")
    return z0


def _normal_product(op: SamplingOperator, T: SupportSet):
    """z -> Phi_T* Phi_T z, through the closed-form Gram when the operator has one.

    Dense operators keep the two products: forming their Gram costs more
    than the few iterations it would serve.
    """
    gram = closed_form_gram(op, T)
    if gram is None:
        return lambda z: op.adjoint_sub(T, op.apply_sub(T, z))
    return lambda z: gram @ z


def richardson_solve(
    op: SamplingOperator, T: SupportSet, u, z0=None, iterations: int = 3
) -> LsqResult:
    """Richardson iterates z <- Phi_T* u - (Phi_T* Phi_T - I) z.

    Returns the iterate after ``iterations`` steps.  Divergence is not an
    error: if the sample-space residual norm grows by 10x over the run the
    result is flagged, and the caller decides what to do.
    """
    z = _prepare(op, T, u, z0)
    normal = _normal_product(op, T)
    atu = op.adjoint_sub(T, u)
    initial_residual = float(np.linalg.norm(u - op.apply_sub(T, z)))
    for _ in range(iterations):
        z = atu - normal(z) + z
    residual = float(np.linalg.norm(u - op.apply_sub(T, z)))
    diverged = residual > _DIVERGENCE_FACTOR * max(initial_residual, 1e-300)
    return LsqResult(z, iterations, residual, diverged)


def cg_solve(
    op: SamplingOperator, T: SupportSet, u, z0=None, iterations: int = 3
) -> LsqResult:
    """Conjugate gradient on the normal equations Phi_T* Phi_T z = Phi_T* u.

    Each iteration costs one normal product (see :func:`_normal_product`).
    Terminates early on a zero residual (e.g. when seeded with the exact
    solution).
    """
    z = _prepare(op, T, u, z0)
    normal = _normal_product(op, T)
    atu = op.adjoint_sub(T, u)
    resid = atu - normal(z)
    direction = resid.copy()
    rho = float(np.vdot(resid, resid).real)
    used = 0
    for _ in range(iterations):
        if rho == 0.0:
            break
        gram_d = normal(direction)
        curvature = float(np.vdot(direction, gram_d).real)
        if curvature <= 0.0:
            break
        alpha = rho / curvature
        z = z + alpha * direction
        resid = resid - alpha * gram_d
        rho_next = float(np.vdot(resid, resid).real)
        direction = resid + (rho_next / rho) * direction
        rho = rho_next
        used += 1
    return _result(op, T, u, z, used)


def direct_solve(op: SamplingOperator, T: SupportSet, u) -> LsqResult:
    """Exact pseudoinverse solve (Phi_T* Phi_T)^{-1} Phi_T* u.

    Reference oracle only: forms and factors the Gram (see
    :func:`cosamp.operators.gram_matrix`), so it is deliberately not the
    production path.  Raises :class:`RankDeficiencyError` when the smallest
    Gram eigenvalue falls at or below 1e-12.
    """
    _prepare(op, T, u, None)
    gram = gram_matrix(op, T)
    smallest = float(np.linalg.eigvalsh(gram)[0])
    if smallest <= 1e-12:
        raise RankDeficiencyError(smallest)
    z = np.linalg.solve(gram, op.adjoint_sub(T, u))
    return _result(op, T, u, z, 1)


def solve(op: SamplingOperator, T: SupportSet, u, z0, config: LsqConfig) -> LsqResult:
    """Dispatch to the configured solver (z0 ignored by the direct path)."""
    if config.solver == "richardson":
        return richardson_solve(op, T, u, z0, config.iterations)
    if config.solver == "cg":
        return cg_solve(op, T, u, z0, config.iterations)
    return direct_solve(op, T, u)
