"""Restricted-isometry diagnostics.

The r-th restricted isometry constant of Phi is the least delta with
(1 - delta)||x||^2 <= ||Phi x||^2 <= (1 + delta)||x||^2 for all r-sparse x,
equivalently max over |T| = r of ||Phi_T* Phi_T - I||_2.  Certifying it is
combinatorial, so this module offers an exhaustive mode under a support
budget and a Monte Carlo mode that yields a certified lower bound, plus
instance checks for the spectral consequences the recovery analysis leans
on (approximate orthogonality, cross-correlation, the block bound
delta_cr <= c * delta_2r, and the nonsparse energy bound).

Both modes take the maximum of ||G_S - I||_2 without solving an
eigenproblem per support: its Frobenius and Schatten-4 norms bound it, and
a support whose bound cannot beat the worst deviation already solved, less
a margin far above rounding, is skipped; exhaustive mode also skips whole
subtrees of supports sharing a prefix, by a Schur-complement bound on every
completion.  Every value returned is one support's own ``eigvalsh``, so the
maximum is the brute-force one bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import prng
from .operators import SamplingOperator
from .recovery import StepBound
from .signals import SupportSet, norms, restrict, support_of

_CHUNK = 50_000
_GATHER = 36 * _CHUNK  # entries in one batch of r x r gathers: _CHUNK supports of 6 x 6
_PROBE_COUNT = 256
# supports and prefixes of at most this many indices get the spectral bounds;
# past it, a bound costs as much as the eigendecompositions it could save
_SPECTRAL_DEPTH = 12


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
    eigs = np.linalg.eigvalsh(op.restricted(T).gram())
    return float(max(eigs[-1] - 1.0, 1.0 - eigs[0]))


def _full_gram(op: SamplingOperator) -> np.ndarray:
    mat = op.materialize()
    return mat.conj().T @ mat


def _deviations(gram: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """||G_S - I||_2 for each support row S, one ``eigvalsh`` per matrix."""
    out, step = np.empty(supports.shape[0]), max(1, _GATHER // supports.shape[1] ** 2)
    for start in range(0, supports.shape[0], step):
        block = supports[start : start + step]
        eigs = np.linalg.eigvalsh(gram[block[:, :, None], block[:, None, :]])
        out[start : start + block.shape[0]] = np.maximum(eigs[:, -1] - 1.0, 1.0 - eigs[:, 0])
    return out


def _deviation_bounds(gram: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """||G_S - I||_F, an upper bound on ||G_S - I||_2, for each increasing support row S,
    over the lower triangle ``eigvalsh`` reads (entry (S_b, S_a) of G for b > a).  Each
    term, |G_ss - 1|^2 or 2|G_ts|^2, is squared once: all of G when the supports read
    more entries than it has, else as gathered, so few supports make no N x N temporary."""
    n, r, entries = gram.shape[0], supports.shape[1], gram.ravel()
    diagonal, squared = np.abs(np.diagonal(gram) - 1.0) ** 2, supports.size * (r - 1) > 2 * n * n
    if squared:  # the same ufuncs on the same entries: the same bits as squaring each gather
        entries = 2.0 * np.abs(entries) ** 2
    out = np.empty(supports.shape[0])
    for start in range(0, supports.shape[0], _CHUNK):
        cols = np.ascontiguousarray(supports[start : start + _CHUNK].T)
        squares = sum(diagonal[c] for c in cols)
        for b in range(1, len(cols)):
            row = cols[b] * n
            for a in range(b):
                pair = entries[row + cols[a]]
                squares += pair if squared else 2.0 * np.abs(pair) ** 2
        out[start : start + cols.shape[1]] = np.sqrt(squares)
    return out


def _hermitian_deviation(gram: np.ndarray) -> np.ndarray:
    """G - I as the Hermitian matrix ``eigvalsh`` builds from the lower triangle of G."""
    dev = np.tril(gram, -1)
    dev = dev + dev.conj().T
    dev[np.diag_indices_from(dev)] = np.diagonal(gram).real - 1.0
    return dev


def _schatten4_bounds(dev: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """(tr E_S^4)^(1/4) >= ||E_S||_2 for each support row S of E = ``dev``: at most
    r^(1/4) times ||E_S||_2, where the Frobenius norm may reach sqrt(r) times it."""
    out, step = np.empty(supports.shape[0]), max(1, _GATHER // supports.shape[1] ** 2)
    for start in range(0, supports.shape[0], step):
        block = supports[start : start + step]
        sub = dev[block[:, :, None], block[:, None, :]]
        squared = sub @ sub
        fourth = np.einsum("kij,kij->k", squared, squared.conj()).real
        out[start : start + block.shape[0]] = np.sqrt(np.sqrt(fourth))
    return out


def _max_deviation_over(gram: np.ndarray, supports: np.ndarray) -> float:
    """Max of ||G_S - I||_2 over the increasing support rows, exactly as if every
    row's ``eigvalsh`` had been computed.

    The supports with the _PROBE_COUNT largest Frobenius bounds are solved
    first; their worst deviation L bounds the answer below, and a support
    whose Frobenius or Schatten-4 bound is at most L - tol cannot beat it, so
    only the rest are solved.  tol = 1e-9 max(1, L) sits far above the
    rounding in a bound or an eigenvalue (about r * 1e-16 relative), and a
    matrix gives the same eigenvalues in any batch, so the result is the
    unpruned maximum bit for bit.
    """
    bounds = _deviation_bounds(gram, supports)
    if bounds.size > _PROBE_COUNT:
        probes = np.argpartition(bounds, -_PROBE_COUNT)[-_PROBE_COUNT:]
    else:
        probes = np.arange(bounds.size)
    worst = float(np.max(_deviations(gram, supports[probes]), initial=0.0))
    floor = worst - 1e-9 * max(1.0, worst)
    bounds[probes] = -np.inf  # solved already
    rows, step = np.flatnonzero(bounds > floor), max(1, _GATHER // supports.shape[1] ** 2)
    dev = _hermitian_deviation(gram) if supports.shape[1] <= _SPECTRAL_DEPTH else None
    for start in range(0, rows.size, step):  # a batch of pending rows at a time, not a copy of all
        rest = supports[rows[start : start + step]]
        if dev is not None:
            rest = rest[_schatten4_bounds(dev, rest) > floor]
        worst = float(np.max(_deviations(gram, rest), initial=worst))
    return worst


def _greedy_worst(gram: np.ndarray, dev: np.ndarray, r: int) -> float:
    """The worst deviation among N real r-supports, each grown from one index
    by adding, r - 1 times, the index that most raises the Frobenius norm."""
    rows = np.arange(dev.shape[0])
    pairs = 2.0 * np.abs(dev) ** 2
    supports, gain = [rows], 0.5 * pairs.diagonal() + pairs
    for _ in range(1, r):
        gain[rows, supports[-1]] = -np.inf
        supports.append(np.argmax(gain, axis=1))
        gain += pairs[supports[-1]]
    return float(np.max(_deviations(gram, np.sort(np.stack(supports, axis=1), axis=1))))


def _extremes(dev: np.ndarray, sets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper bounds on lambda_max(E_Q) and lambda_max(-E_Q) for each 2- or 3-set
    row Q of E = ``dev``, from the closed-form roots of the characteristic
    polynomial, widened by 1e-7 of the spectrum's scale to cover their rounding."""
    diag = dev.diagonal().real[sets]
    mean = diag.mean(axis=1)
    diag -= mean[:, None]
    if sets.shape[1] == 2:
        radius = np.hypot(diag[:, 0], np.abs(dev[sets[:, 0], sets[:, 1]]))
        high, low = radius, -radius
    else:
        x, y, z = (dev[sets[:, a], sets[:, b]] for a, b in ((0, 1), (0, 2), (1, 2)))
        xx, yy, zz = np.abs(x) ** 2, np.abs(y) ** 2, np.abs(z) ** 2
        radius = np.sqrt((np.sum(diag**2, axis=1) + 2.0 * (xx + yy + zz)) / 6.0)
        det = np.prod(diag, axis=1) + 2.0 * np.real(x * z * y.conj())
        det -= diag[:, 0] * zz + diag[:, 1] * yy + diag[:, 2] * xx
        with np.errstate(divide="ignore", invalid="ignore"):
            cosine = np.clip(np.nan_to_num(det / (2.0 * radius**3)), -1.0, 1.0)
        angle = np.arccos(cosine) / 3.0
        high, low = 2.0 * radius * np.cos(angle), 2.0 * radius * np.cos(angle + 2.0 * np.pi / 3.0)
    slack = 1e-7 * (radius + np.abs(mean))
    return mean + high + slack, -(mean + low) + slack


def _completion_bounds(dev: np.ndarray, r: int) -> np.ndarray:
    """bounds[0, t, q] >= lambda_max(E_Q) and bounds[1, t, q] >= lambda_max(-E_Q) for
    every t-set Q whose least index is q (E = ``dev``), -inf where there is none.

    For t = 2, 3 (when r > t) these are the largest over the sets themselves.
    Beyond, Q is {q} and a (t - 1)-set R past q, so lambda_max(s E_Q) is at
    most the larger eigenvalue of [[s E_qq, b], [b, c]] with b^2 the t - 1
    largest |E_qc'|^2 past q summed and c the bound for R."""
    n = dev.shape[0]
    couplings = np.cumsum(-np.sort(-np.abs(np.triu(dev, 1)) ** 2, axis=1), axis=1)
    bounds = np.full((2, r + 1, n), -np.inf)
    bounds[:, 1] = dev.diagonal().real, -dev.diagonal().real
    for t in range(2, r + 1):
        if t <= 3 and t < r:
            sets = _candidates(dev, t, 0.0)
            for side, extreme in enumerate(_extremes(dev, sets)):
                np.maximum.at(bounds[side, t], sets[:, 0], extreme)
            continue
        head = slice(0, n - t + 1)
        for side, diagonal in enumerate((dev.diagonal().real, -dev.diagonal().real)):
            rest = np.maximum.accumulate(bounds[side, t - 1, :0:-1])[::-1][head]
            a, b2 = diagonal[head], couplings[head, t - 2]
            bounds[side, t, head] = 0.5 * (a + rest) + np.sqrt(0.25 * (a - rest) ** 2 + b2)
    return bounds


def _may_exceed(dev, prefixes, completion, left, floor):
    """For each prefix row P and index q, whether some S = P + {q} + R, R a
    ``left``-set past q, may have ||E_S||_2 > ``floor``.

    While ||E_P||_2 < floor, lambda_max(s E_S) < floor (s = +1, -1) holds when
    lambda_max(s E_Q) + lambda_max(B* (floor - s E_P)^-1 B) < floor, Q = S - P
    and B = E_PQ (a Schur complement).  The second term is at most its trace,
    the sum over c in Q of f(c) = b_c* (floor - s E_P)^-1 b_c, so f(q) plus the
    lesser of the ``left`` largest f past P and ``left`` times the largest f
    past q bounds it; ``completion`` bounds the first."""
    if prefixes.shape[1] == 0:
        return np.any(completion >= floor, axis=0)[None, :]
    lam, vecs = np.linalg.eigh(dev[prefixes[:, :, None], prefixes[:, None, :]])
    weights = np.abs(np.einsum("mka,mkn->man", vecs.conj(), dev[prefixes])) ** 2
    inside = (lam[:, -1] < floor) & (-lam[:, 0] < floor)
    past = np.arange(dev.shape[0]) > prefixes[:, -1:]
    may = past & ~inside[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        for side, gaps in enumerate((floor - lam, floor + lam)):
            f = np.where(past, np.einsum("man,ma->mn", weights, 1.0 / gaps), -np.inf)
            top = np.zeros_like(f)  # top[:, q] >= the ``left`` largest f past q
            if left:
                top[:, :-1] = np.maximum.accumulate(f[:, :0:-1], axis=1)[:, ::-1]
                top[:, -1] = -np.inf
                largest = -np.partition(-f, left - 1, axis=1)[:, :left].sum(axis=1)
                top = np.minimum(left * top, largest[:, None])
            may |= completion[side] + f + top >= floor
    return may


def _candidates(dev: np.ndarray, r: int, floor: float) -> np.ndarray:
    """The increasing r-supports S whose ||E_S||_2 (E = ``dev``) may exceed
    ``floor``, as rows in lexicographic order; every r-support when floor <= 0.

    Supports grow an index per level, a level at a time in blocks of
    prefixes.  A child P + {q} is dropped with its subtree when no completion
    may exceed the floor (:func:`_may_exceed`).  A block of prefixes is tested
    only when they are at most _SPECTRAL_DEPTH long and the leaves the test
    could drop outnumber their entries, and no level is tested after one
    whose tests dropped nothing.  No table of all C(N, r) supports is made.
    """
    n, testing = dev.shape[0], floor > 0
    if testing:
        bounds = _completion_bounds(dev, r)
        # below[t, q]: both bounds on t-sets from q sit under the floor, so a child at q may go
        below = np.all((bounds < floor) & (bounds > -np.inf), axis=0)
    step = max(1, _CHUNK // max(n, 1))
    table = np.empty((0, 1), dtype=np.int64)  # position-major: row j holds index j of every prefix
    for k in range(r):
        left, parents, children, dropped = r - 1 - k, [], [], 0
        testing &= k <= _SPECTRAL_DEPTH
        if testing:  # the leaves under a child at q that may go
            savings = below[left + 1] * np.array([math.comb(n - 1 - c, left) for c in range(n)], float)
        for lo in range(0, max(table.shape[1], 1), step):
            block = table[:, lo : lo + step]
            last = block[-1] if k else np.full(block.shape[1], -1)
            counts = np.maximum(n - left - 1 - last, 0)  # children q in (last, n - left)
            rows = np.repeat(np.arange(block.shape[1]), counts)
            q = np.arange(rows.size) + np.repeat(last + 1 - np.cumsum(counts) + counts, counts)
            if testing and savings[q].sum() > k * block.shape[1]:
                keep = _may_exceed(dev, block.T, bounds[:, left + 1], left, floor)[rows, q]
                rows, q, dropped = rows[keep], q[keep], dropped + keep.size - keep.sum()
            parents.append(rows + lo)
            children.append(q)
        grown = np.empty((k + 1, sum(c.size for c in children)), dtype=np.int64)  # one write a level
        np.take(table, np.concatenate(parents), axis=1, out=grown[:k], mode="clip")
        grown[k], table = np.concatenate(children), grown
        testing &= k == 0 or dropped > 0  # a level that drops nothing ends the tests
    return table.T


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

    Exhaustive mode is exact over all C(N, r) supports: from the worst of N
    real supports grown greedily (:func:`_greedy_worst`), it grows supports
    most coupled index first, drops every prefix whose completions cannot
    beat it (:func:`_candidates`) and solves the rest through
    :func:`_max_deviation_over`.  :class:`RipBudgetError` is raised when
    C(N, r) > ``budget``, which counts supports, not work: near r = N little
    is pruned, so on ``gaussian_operator(24, 32, seed=77)`` r = 26 (906,192
    supports) takes about 30 s and r = 27 about 6-10 s.  Monte Carlo solves
    ``trials`` >= 1 supports, trial t's being
    ``sample_without_replacement(mix_seed(seed, t), N, r)``, all drawn by
    :func:`prng.sample_many`; its maximum is a certified lower bound on
    delta_r.  The method, budget, trial count and seed are checked before the Gram.
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
        gram = _full_gram(op)
        dev = _hermitian_deviation(gram)
        worst = _greedy_worst(gram, dev, r)
        # the most coupled indices first, so the bounds on completions past q fall fastest
        order = np.argsort(-np.sum(np.abs(dev) ** 2, axis=1), kind="stable")
        kept = _candidates(dev[np.ix_(order, order)], r, worst - 1e-9 * max(1.0, worst))
        for position in kept.T:  # mapped back and sorted in place: no copy of the table
            position[...] = order[position]
        kept.sort(axis=1)
        delta = max(worst, _max_deviation_over(gram, kept))
        return RipEstimate(r, delta, delta, "exhaustive")
    if method == "monte_carlo":
        prng.check_seed(seed)
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
    prng.check_seed(seed)
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

    def check(name: str, lhs: float, rhs: float) -> None:
        checks.append(ConsequenceCheck(name, lhs, rhs))

    if "singular_values" in include:
        # singular values of Phi_T within [sqrt(1-delta_r), sqrt(1+delta_r)]
        sub = mat[:, support.indices]
        sing = np.linalg.svd(sub, compute_uv=False)
        d_r = delta(len(support))
        check("singular_value_upper", float(sing.max()), math.sqrt(1 + d_r))
        check("singular_value_lower", math.sqrt(max(1 - d_r, 0.0)), float(sing.min()))

    if "approximate_orthogonality" in include:
        # disjoint column blocks are nearly orthogonal: ||Phi_S* Phi_T|| <= delta_{|S|+|T|}
        cross = mat[:, disjoint.indices].conj().T @ mat[:, support.indices]
        cross_norm = float(np.linalg.svd(cross, compute_uv=False).max())
        check("approximate_orthogonality", cross_norm, delta(len(support) + len(disjoint)))

    if "cross_correlation" in include:
        # ||Phi_T* Phi x|_{T^c}|| <= delta_r' ||x|_{T^c}|| with r' >= |T u supp(x)|
        # x on the first r indices off T only, so |T u supp| <= 2r stays checkable
        tail = restrict(x, SupportSet(support.complement().indices[:r], n))
        lhs = float(np.linalg.norm(mat[:, support.indices].conj().T @ (mat @ tail)))
        r_union = len(support.union(support_of(tail)))
        check("cross_correlation", lhs, delta(max(r_union, 1)) * float(np.linalg.norm(tail)))

    if "block_gershgorin" in include:
        check("block_gershgorin", delta(c * r), c * delta(2 * r))

    if "energy_bound" in include:
        # nonsparse vectors inflate by at most sqrt(1+delta_r) (l2 + l1/sqrt(r))
        nx = norms(x)
        bound = math.sqrt(1 + delta(r)) * (nx.l2 + nx.l1 / math.sqrt(r))
        check("energy_bound", float(np.linalg.norm(mat @ x)), bound)

    return RipConsequenceReport(tuple(checks), deltas)
