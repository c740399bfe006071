"""Restricted-isometry diagnostics.

The r-th restricted isometry constant of Phi is the least delta with
(1 - delta)||x||^2 <= ||Phi x||^2 <= (1 + delta)||x||^2 for all r-sparse x,
equivalently max over |T| = r of ||Phi_T* Phi_T - I||_2.  Certifying it is
combinatorial, so this module offers an exhaustive mode under a support
budget and a Monte Carlo mode that yields a certified lower bound, plus
instance checks for the spectral consequences the recovery analysis leans
on (approximate orthogonality, cross-correlation, the block bound
delta_cr <= c * delta_2r, and the nonsparse energy bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import prng
from .operators import SamplingOperator, gram_matrix
from .signals import SupportSet, norms, restrict, support_of

_CHUNK = 50_000


class RipBudgetError(ValueError):
    """Exhaustive enumeration would exceed the support budget."""


@dataclass(frozen=True)
class RipEstimate:
    r: int
    delta_lower: float
    delta_exact: float | None
    method: str
    trials: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.delta_exact is not None and self.delta_lower > self.delta_exact + 1e-12:
            raise ValueError("lower bound exceeds exhaustive value")


def gram_deviation(op: SamplingOperator, T: SupportSet) -> float:
    """Exact ||Phi_T* Phi_T - I||_2 via a dense eigendecomposition of the Gram."""
    eigs = np.linalg.eigvalsh(gram_matrix(op, T))
    return float(max(eigs[-1] - 1.0, 1.0 - eigs[0]))


def _full_gram(op: SamplingOperator) -> np.ndarray:
    mat = op.materialize()
    return mat.conj().T @ mat


def _max_deviation_over(gram: np.ndarray, supports: np.ndarray) -> float:
    """Max spectral deviation of the Gram restricted to each support row."""
    worst = 0.0
    for start in range(0, supports.shape[0], _CHUNK):
        block = supports[start : start + _CHUNK]
        sub = gram[block[:, :, None], block[:, None, :]]
        eigs = np.linalg.eigvalsh(sub)
        dev = np.maximum(eigs[:, -1] - 1.0, 1.0 - eigs[:, 0])
        worst = max(worst, float(dev.max()))
    return worst


def rip_estimate(
    op: SamplingOperator,
    r: int,
    method: str = "exhaustive",
    *,
    budget: int = 10**6,
    trials: int = 10_000,
    seed: int = 0,
) -> RipEstimate:
    """Estimate delta_r exhaustively or by Monte Carlo support sampling.

    Exhaustive mode enumerates all C(N, r) supports and is exact; it raises
    :class:`RipBudgetError` when the count exceeds ``budget``.  Monte Carlo
    samples ``trials`` supports with per-trial derived seeds and returns the
    max deviation seen, which is a certified lower bound on delta_r.
    """
    if not 1 <= r <= op.n:
        raise ValueError(f"need 1 <= r <= N, got r={r}")
    gram = _full_gram(op)
    if method == "exhaustive":
        count = math.comb(op.n, r)
        if count > budget:
            raise RipBudgetError(
                f"C({op.n}, {r}) = {count} supports exceed the budget of {budget}; "
                "use method='monte_carlo'"
            )
        supports = np.array(list(combinations(range(op.n), r)), dtype=np.int64)
        delta = _max_deviation_over(gram, supports)
        return RipEstimate(r, delta, delta, "exhaustive")
    if method == "monte_carlo":
        supports = np.empty((trials, r), dtype=np.int64)
        for t in range(trials):
            supports[t] = prng.sample_without_replacement(
                prng.mix_seed(seed, t), op.n, r
            )
        delta = _max_deviation_over(gram, supports)
        return RipEstimate(r, delta, None, "monte_carlo", trials=trials, seed=seed)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class ConsequenceCheck:
    name: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + 1e-12 * max(1.0, abs(self.rhs))


@dataclass(frozen=True)
class RipConsequenceReport:
    checks: tuple[ConsequenceCheck, ...]
    deltas: dict[int, float] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[ConsequenceCheck]:
        return [c for c in self.checks if not c.passed]


ALL_CHECKS = (
    "singular_values",
    "approximate_orthogonality",
    "cross_correlation",
    "block_gershgorin",
    "energy_bound",
)


def check_rip_consequences(
    op: SamplingOperator,
    *,
    r: int = 2,
    c: int = 3,
    x=None,
    support: SupportSet | None = None,
    disjoint: SupportSet | None = None,
    seed: int = 0,
    budget: int = 10**6,
    include: tuple[str, ...] = ALL_CHECKS,
) -> RipConsequenceReport:
    """Audit the spectral-consequence inequalities on one small instance.

    All delta values are computed exhaustively, so the instance must be
    small enough for the enumeration budget; ``include`` restricts the
    audit when some delta order would blow it.  ``x`` defaults to a seeded
    dense vector; ``support``/``disjoint`` default to seeded sets of size r.
    The report carries every inequality's two sides; failures are reported,
    not raised.
    """
    n = op.n
    if x is None:
        x = prng.normals(prng.mix_seed(seed, 1), n)
    x = np.asarray(x)
    if support is None:
        support = SupportSet(prng.sample_without_replacement(prng.mix_seed(seed, 2), n, r), n)
    if disjoint is None:
        pool = support.complement().indices
        take = pool[prng.sample_without_replacement(prng.mix_seed(seed, 3), pool.size, r)]
        disjoint = SupportSet(np.sort(take), n)

    mat = op.materialize()
    deltas: dict[int, float] = {}

    def delta(order: int) -> float:
        if order not in deltas:
            deltas[order] = rip_estimate(op, order, "exhaustive", budget=budget).delta_lower
        return deltas[order]

    checks: list[ConsequenceCheck] = []

    if "singular_values" in include:
        # singular values of Phi_T within [sqrt(1-delta_r), sqrt(1+delta_r)]
        sub = mat[:, support.indices]
        sing = np.linalg.svd(sub, compute_uv=False)
        d_r = delta(len(support))
        checks.append(
            ConsequenceCheck("singular_value_upper", float(sing.max()), math.sqrt(1 + d_r))
        )
        checks.append(
            ConsequenceCheck("singular_value_lower", math.sqrt(max(1 - d_r, 0.0)), float(sing.min()))
        )

    if "approximate_orthogonality" in include:
        # disjoint column blocks are nearly orthogonal: ||Phi_S* Phi_T|| <= delta_{|S|+|T|}
        cross = mat[:, disjoint.indices].conj().T @ mat[:, support.indices]
        cross_norm = float(np.linalg.svd(cross, compute_uv=False).max())
        checks.append(
            ConsequenceCheck(
                "approximate_orthogonality", cross_norm, delta(len(support) + len(disjoint))
            )
        )

    if "cross_correlation" in include:
        # ||Phi_T* Phi x|_{T^c}|| <= delta_r' ||x|_{T^c}|| with r' >= |T u supp(x)|
        x_sparse, _ = _sparsify_for_cross(x, support, r)
        tail = restrict(x_sparse, support.complement())
        lhs = float(np.linalg.norm(mat[:, support.indices].conj().T @ (mat @ tail)))
        r_union = len(support.union(support_of(x_sparse)))
        checks.append(
            ConsequenceCheck(
                "cross_correlation", lhs, delta(max(r_union, 1)) * float(np.linalg.norm(tail))
            )
        )

    if "block_gershgorin" in include:
        checks.append(ConsequenceCheck("block_gershgorin", delta(c * r), c * delta(2 * r)))

    if "energy_bound" in include:
        # nonsparse vectors inflate by at most sqrt(1+delta_r) (l2 + l1/sqrt(r))
        nx = norms(x)
        checks.append(
            ConsequenceCheck(
                "energy_bound",
                float(np.linalg.norm(mat @ x)),
                math.sqrt(1 + delta(r)) * (nx.l2 + nx.l1 / math.sqrt(r)),
            )
        )

    return RipConsequenceReport(tuple(checks), deltas)


def _sparsify_for_cross(x: np.ndarray, T: SupportSet, r: int) -> tuple[np.ndarray, SupportSet]:
    """Trim x so |T union supp(x)| stays exhaustively checkable (size <= 2r)."""
    keep = np.concatenate([T.indices, T.complement().indices[:r]])
    mask = np.zeros(x.size, dtype=bool)
    mask[keep] = True
    out = np.where(mask, x, 0)
    return out, SupportSet(np.sort(keep).astype(np.int64), x.size)
