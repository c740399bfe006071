"""Restricted-isometry diagnostics.

The r-th restricted isometry constant of Phi is the least delta with
(1 - delta)||x||^2 <= ||Phi x||^2 <= (1 + delta)||x||^2 for all r-sparse x,
equivalently max over |T| = r of ||Phi_T* Phi_T - I||_2.  Certifying it is
combinatorial, so this module offers an exhaustive mode under a support
budget and a Monte Carlo mode that yields a certified lower bound, plus
instance checks for the spectral consequences the recovery analysis leans
on (approximate orthogonality, cross-correlation, the block bound
delta_cr <= c * delta_2r, and the nonsparse energy bound).

Both modes take the maximum of ||G_S - I||_2 over a list of supports
without solving an eigenproblem for each: a cheap upper bound per support
(the Frobenius norm ||G_S - I||_F) rules out every support that cannot beat
the worst deviation already found, with a margin far above rounding, so the
maximum is the brute-force one bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import prng
from .operators import SamplingOperator, gram_matrix
from .recovery import StepBound
from .signals import SupportSet, norms, restrict, support_of

_CHUNK = 50_000
_PROBE_COUNT = 256


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


def _combinations(n: int, r: int) -> np.ndarray:
    """All r-subsets of range(n) as int64 rows, in ``itertools.combinations`` order.

    Built one position at a time from the right: the last k entries of an
    r-subset form a k-subset of range(r - k, n), and the k-subsets of
    {i+1, ..., n-1} are the last C(n-1-i, k) of those in lexicographic
    order, so the (k+1)-subsets of range(r-k-1, n) are each first element i
    followed by that suffix of the previous table.  Table k has
    C(n-r+k, k) <= C(n, r) rows, so no step outgrows the output.  Tables
    are filled position-major and returned as a transposed view, so no
    step copies a whole table.
    """
    table = np.empty((0, 1), dtype=np.int64)
    for k in range(r):
        firsts = np.arange(r - 1 - k, n - k)
        lengths = np.array([math.comb(n - 1 - i, k) for i in firsts], dtype=np.int64)
        out_starts = np.cumsum(lengths) - lengths
        src_starts = table.shape[1] - lengths
        picks = np.arange(int(lengths.sum())) + np.repeat(src_starts - out_starts, lengths)
        grown = np.empty((k + 1, picks.size), dtype=np.int64)
        grown[0] = np.repeat(firsts, lengths)
        # picks are in range; mode='raise' would buffer a copy of the output
        np.take(table, picks, axis=1, out=grown[1:], mode="clip")
        table = grown
    return table.T


def _deviations(gram: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """||G_S - I||_2 for each support row S, one ``eigvalsh`` per matrix."""
    out = np.empty(supports.shape[0])
    for start in range(0, supports.shape[0], _CHUNK):
        block = supports[start : start + _CHUNK]
        eigs = np.linalg.eigvalsh(gram[block[:, :, None], block[:, None, :]])
        out[start : start + block.shape[0]] = np.maximum(eigs[:, -1] - 1.0, 1.0 - eigs[:, 0])
    return out


def _deviation_bounds(gram: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """||G_S - I||_F, an upper bound on ||G_S - I||_2, for each increasing support row S.

    The norm is taken over the lower triangle of G_S - I, which is all that
    ``eigvalsh`` reads: for b > a, entry (S_b, S_a) of G is in its lower
    triangle.  The entries are gathered straight from G, so no N x N
    temporary is made.
    """
    n = gram.shape[0]
    entries = gram.ravel()
    diagonal = np.diagonal(gram)
    out = np.empty(supports.shape[0])
    for start in range(0, supports.shape[0], _CHUNK):
        cols = supports[start : start + _CHUNK].T
        squares = sum(np.abs(diagonal[c] - 1.0) ** 2 for c in cols)
        for b in range(1, len(cols)):
            row = cols[b] * n
            for a in range(b):
                squares += 2.0 * np.abs(entries[row + cols[a]]) ** 2
        out[start : start + cols.shape[1]] = np.sqrt(squares)
    return out


def _max_deviation_over(gram: np.ndarray, supports: np.ndarray) -> float:
    """Max of ||G_S - I||_2 over the support rows, exactly as if every row's
    ``eigvalsh`` had been computed.

    The supports with the _PROBE_COUNT largest Frobenius bounds from
    :func:`_deviation_bounds` are solved first; their worst deviation L is a
    lower bound on the answer.  A support whose bound is at most L - tol
    cannot beat L, so only the rest are solved.  tol = 1e-9 max(1, L) sits
    far above the rounding in a bound or an eigenvalue (about r * 1e-16
    relative), so no skipped support could have come out above L, and each
    solved matrix gives the same eigenvalues in any batch: the result equals
    the unpruned maximum bit for bit.
    """
    bounds = _deviation_bounds(gram, supports)
    if bounds.size > _PROBE_COUNT:
        probes = np.argpartition(bounds, -_PROBE_COUNT)[-_PROBE_COUNT:]
    else:
        probes = np.arange(bounds.size)
    worst = float(np.max(_deviations(gram, supports[probes]), initial=0.0))
    pending = bounds > worst - 1e-9 * max(1.0, worst)
    pending[probes] = False
    return float(np.max(_deviations(gram, supports[pending]), initial=worst))


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
    :class:`RipBudgetError` when the count exceeds ``budget``, which counts
    supports, not work: near r = N the pruning can solve every support, so
    r = 27 on a 24 x 32 Gaussian (201,376 supports) takes about 9 s.  Monte Carlo
    samples ``trials`` >= 1 supports, trial t's being
    ``sample_without_replacement(mix_seed(seed, t), N, r)``, and returns the
    max deviation seen, which is a certified lower bound on delta_r.  All
    trials are drawn in one batched pass, :func:`prng.sample_many`, which gives
    those same supports bit for bit.  The method, the budget and the trial
    count are checked before the Gram matrix is built.

    Both modes return the largest ||G_S - I||_2 over their supports but
    solve an eigenproblem only for supports whose cheap upper bound, the
    Frobenius norm ||G_S - I||_F, could beat the worst deviation already
    found; skipped supports cannot, so the value is the one solving every
    support gives, bit for bit (see :func:`_max_deviation_over`).
    """
    if not 1 <= r <= op.n:
        raise ValueError(f"need 1 <= r <= N, got r={r}")
    if method == "exhaustive":
        count = math.comb(op.n, r)
        if count > budget:
            raise RipBudgetError(
                f"C({op.n}, {r}) = {count} supports exceed the budget of {budget}; "
                "use method='monte_carlo'"
            )
        delta = _max_deviation_over(_full_gram(op), _combinations(op.n, r))
        return RipEstimate(r, delta, delta, "exhaustive")
    if method == "monte_carlo":
        if trials < 1:
            raise ValueError(f"need trials >= 1, got trials={trials}")
        delta = _max_deviation_over(_full_gram(op), prng.sample_many(seed, trials, op.n, r))
        return RipEstimate(r, delta, None, "monte_carlo", trials=trials, seed=seed)
    raise ValueError(f"unknown method {method!r}")


class ConsequenceCheck(StepBound):
    """One consequence inequality lhs <= rhs; ``passed`` is ``holds``."""

    passed = StepBound.holds


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
    seed: int = 0,
    include: tuple[str, ...] = ALL_CHECKS,
) -> RipConsequenceReport:
    """Audit the spectral-consequence inequalities on one small instance.

    All delta values are computed exhaustively, so the instance must be
    small enough for :func:`rip_estimate`'s default budget; ``include``
    restricts the audit when some delta order would exceed it.  ``x``
    defaults to a seeded dense vector; the support and the disjoint set are
    seeded sets of size r.  The report carries every inequality's two sides;
    failures are reported, not raised.
    """
    n = op.n
    if x is None:
        x = prng.normals(prng.mix_seed(seed, 1), n)
    x = np.asarray(x)
    support = SupportSet(prng.sample_without_replacement(prng.mix_seed(seed, 2), n, r), n)
    pool = support.complement().indices
    take = pool[prng.sample_without_replacement(prng.mix_seed(seed, 3), pool.size, r)]
    disjoint = SupportSet(np.sort(take), n)

    mat = op.materialize()
    deltas: dict[int, float] = {}

    def delta(order: int) -> float:
        if order not in deltas:
            deltas[order] = rip_estimate(op, order, "exhaustive").delta_lower
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
        # x on the first r indices off T only, so |T u supp| <= 2r stays checkable
        tail = restrict(x, SupportSet(support.complement().indices[:r], n))
        lhs = float(np.linalg.norm(mat[:, support.indices].conj().T @ (mat @ tail)))
        r_union = len(support.union(support_of(tail)))
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
