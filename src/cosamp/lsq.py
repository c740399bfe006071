"""Least-squares solvers for the estimation step.

Every solver sees Phi_T through one view (see :class:`cosamp.operators.RestrictedView`):
``op.restricted(T)`` made once per solve, or the caller's own view of T (``view=``),
which also gives the residual.  Richardson's iteration and conjugate gradient
need the normal product Phi_T* Phi_T z once per iteration.  When the operator offers a closed-form Gram
(``gram_sub``, e.g. partial Fourier) that product is a |T| x |T|
matrix-vector multiply; otherwise it is one multiply each with Phi_T and
Phi_T*, so the solvers compose with any matrix-free operator.  A dense
operator's view slices Phi_T once, and its products are BLAS calls on that
slice; forming its Gram would cost more than the few iterations it serves.
The right-hand side Phi_T* u is one product, or none when the Gram has a
closed form and the caller passes its ``proxy`` Phi* u; the residual
||u - Phi_T z||_2 waits for its first read, except in Richardson, whose
divergence flag needs it.  The direct solver is the exact solve: it forms
and factors the Gram matrix; ``final_polish`` and ``solver="direct"`` run it.

Lengths are checked where data enters a view, not on each internal product:
each solve checks the support, u, the warm start and a given proxy once, then
takes the view's unchecked ``products`` and its inner product for its working dtype.

When ||Phi_T* Phi_T - I|| < 1, Richardson contracts by that norm per
iteration; three warm-started iterations suffice for the recovery loop's
guarantees, which is the default wiring.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operators import _REAL, SamplingOperator, _check_length
from .signals import SupportSet, check_int

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
        if check_int(self.iterations, "iterations") < 1:
            raise ValueError("iterations must be >= 1")


@dataclass(frozen=True, eq=False)
class LsqResult:
    """``residual`` is ||u - Phi_T z||_2, or a function that ``residual_samples_norm``
    calls on first read to compute it from the solve's own copy of u and read-only z."""

    coefficients: np.ndarray  # length |T|
    iterations_used: int
    residual: float | Callable[[], float] = field(repr=False)
    diverged: bool = False

    @functools.cached_property
    def residual_samples_norm(self) -> float:
        return self.residual() if callable(self.residual) else self.residual


def _result(apply, u: np.ndarray, z, iterations) -> LsqResult:
    z.setflags(write=False)  # u is _prepare's copy: the residual stays that of the samples solved
    return LsqResult(z, iterations, lambda: float(np.linalg.norm(u - apply(z))))


def _prepare(op: SamplingOperator, T: SupportSet, u, z0, view, proxy):
    """(u, z, view, rhs, apply, normal): checked copies of u and z0, Phi_T, Phi_T* u and
    the products; u, z0 and a given proxy Phi* u must each be 1-D of length m, |T| and N."""
    size = T.indices.size
    if size < 1:
        raise ValueError("support must be nonempty")
    u = _check_length(np.array(u), op.m, "sample vector")  # the solve's own copy
    dtype = np.complex128 if (op.is_complex or u.dtype.kind == "c") else np.float64
    z = np.zeros(size, dtype) if z0 is None else np.array(z0, dtype)
    _check_length(z, size, "warm start")
    proxy = None if proxy is None else _check_length(proxy, op.n, "proxy")
    view = op.restricted(T) if view is None else view
    return (u, z, view, view.rhs(u, proxy), *view.products(z.dtype))


def richardson_solve(
    op: SamplingOperator, T: SupportSet, u, z0=None, iterations: int = 3, proxy=None, view=None
) -> LsqResult:
    """Richardson iterates z <- Phi_T* u - (Phi_T* Phi_T - I) z.

    Returns the iterate after ``iterations`` steps.  Divergence is not an
    error: if the sample-space residual norm grows by 10x over the run the
    result is flagged, and the caller decides what to do.
    """
    u, z, view, atu, apply, normal = _prepare(op, T, u, z0, view, proxy)
    initial_residual = float(np.linalg.norm(u - apply(z)))
    for _ in range(iterations):
        z = atu - normal(z) + z
    residual = float(np.linalg.norm(u - apply(z)))
    diverged = residual > _DIVERGENCE_FACTOR * max(initial_residual, 1e-300)
    return LsqResult(z, iterations, residual, diverged)


def cg_solve(
    op: SamplingOperator, T: SupportSet, u, z0=None, iterations: int = 3, proxy=None, view=None
) -> LsqResult:
    """Conjugate gradient on the normal equations Phi_T* Phi_T z = Phi_T* u.

    Each iteration costs one normal product of the view (see the module
    docstring).  Stops early on a zero residual (e.g. seeded with the exact solution);
    raises ``LinAlgError`` on a curvature d* Phi_T* Phi_T d <= 0 at a nonzero residual.
    """
    u, z, view, atu, apply, normal = _prepare(op, T, u, z0, view, proxy)
    inner = np.ndarray.dot if z.dtype == _REAL else np.vdot  # <a, b>: ddot for real vectors
    resid = direction = atu - normal(z)  # neither is written in place
    rho = float(inner(resid, resid).real)
    used = 0
    for _ in range(iterations):
        if rho == 0.0:
            break
        gram_d = normal(direction)
        curvature = float(inner(direction, gram_d).real)
        if curvature <= 0.0:  # with rho > 0: ||Phi_T d||^2 underflowed, and z would stall
            raise np.linalg.LinAlgError(f"CG curvature {curvature!r} <= 0 at residual {rho!r} > 0")
        alpha = rho / curvature
        z = z + alpha * direction
        used += 1
        if used == iterations:  # the last step's residual and direction would go unread
            break
        resid = resid - alpha * gram_d
        rho, rho_prev = float(inner(resid, resid).real), rho
        direction = resid + (rho / rho_prev) * direction
    return _result(apply, u, z, used)


def direct_solve(op: SamplingOperator, T: SupportSet, u, proxy=None, view=None) -> LsqResult:
    """Exact pseudoinverse solve (Phi_T* Phi_T)^{-1} Phi_T* u.

    The exact solve: forms and factors the view's Gram (see
    :meth:`cosamp.operators.RestrictedView.gram`).  ``final_polish`` and
    ``LsqConfig(solver="direct")`` run it.  Raises :class:`RankDeficiencyError`
    when the smallest Gram eigenvalue falls at or below 1e-12.
    """
    u, _, view, atu, apply, _ = _prepare(op, T, u, None, view, proxy)
    gram = view.gram()
    smallest = float(np.linalg.eigvalsh(gram)[0])
    if smallest <= 1e-12:
        raise RankDeficiencyError(smallest)
    z = np.linalg.solve(gram, atu)
    return _result(apply, u, z, 1)


def solve(op: SamplingOperator, T: SupportSet, u, z0, config: LsqConfig, proxy=None,
          view=None) -> LsqResult:
    """Dispatch to the configured solver (z0 ignored by the direct path)."""
    if config.solver == "richardson":
        return richardson_solve(op, T, u, z0, config.iterations, proxy, view)
    if config.solver == "cg":
        return cg_solve(op, T, u, z0, config.iterations, proxy, view)
    return direct_solve(op, T, u, proxy, view)
