"""Restricted isometry estimation and its spectral consequences."""

import hashlib
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from conftest import gated_operator
from cosamp import prng, rip
from cosamp.operators import (
    dense_operator,
    gaussian_operator,
    identity_operator,
    partial_fourier_operator,
)
from cosamp.rip import (
    RipBudgetError,
    RipEstimate,
    check_rip_consequences,
    gram_deviation,
    rip_estimate,
)
from cosamp.signals import SupportSet


class TestRipEstimate:
    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_identity_has_zero_delta(self, r):
        est = rip_estimate(identity_operator(8), r, "exhaustive")
        assert est.delta_exact == pytest.approx(0.0, abs=1e-12)

    def test_duplicated_column_forces_delta_at_least_one(self):
        mat = prng.normals(3, 8 * 8).reshape(8, 8)
        mat[:, 5] = mat[:, 2]
        est = rip_estimate(dense_operator(mat), 2, "exhaustive")
        assert est.delta_exact >= 1.0

    def test_monte_carlo_never_exceeds_exhaustive(self):
        op = gaussian_operator(24, 32, seed=77)
        exact = rip_estimate(op, 2, "exhaustive")
        sampled = rip_estimate(op, 2, "monte_carlo", trials=10_000, seed=5)
        assert sampled.delta_lower <= exact.delta_exact + 1e-12
        assert sampled.delta_exact is None

    def test_monotone_in_r(self):
        op = gaussian_operator(12, 16, seed=8)
        deltas = [rip_estimate(op, r, "exhaustive").delta_exact for r in (1, 2, 3, 4)]
        assert all(a <= b + 1e-12 for a, b in zip(deltas, deltas[1:]))

    def test_budget_exceeded_suggests_monte_carlo(self):
        op = gaussian_operator(24, 32, seed=1)
        with pytest.raises(RipBudgetError, match="monte_carlo"):
            rip_estimate(op, 16, "exhaustive", budget=1000)

    def test_estimate_invariant(self):
        with pytest.raises(ValueError):
            RipEstimate(r=2, delta_lower=0.5, delta_exact=0.4, method="exhaustive")

    def test_monte_carlo_deterministic(self):
        op = gaussian_operator(12, 16, seed=2)
        a = rip_estimate(op, 3, "monte_carlo", trials=200, seed=9)
        b = rip_estimate(op, 3, "monte_carlo", trials=200, seed=9)
        assert a.delta_lower == b.delta_lower

    def test_gram_deviation_matches_exhaustive_max(self):
        op = gaussian_operator(12, 16, seed=4)
        worst = max(
            gram_deviation(op, SupportSet(np.array(t), 16))
            for t in [(0, 1), (3, 9), (14, 15)]
        )
        assert worst <= rip_estimate(op, 2, "exhaustive").delta_exact + 1e-12


def view_gram(op):
    """Phi* Phi as ``rip_estimate`` reads it: the Gram of the view on all N columns."""
    return op.restricted(SupportSet.full(op.n)).gram()


def brute_force_delta(op, supports):
    """max ||G_S - I||_2 with one unpruned eigvalsh per support."""
    return brute_force_max(view_gram(op), supports)


def brute_force_max(gram, supports):
    worst = 0.0
    for support in supports:
        idx = np.asarray(support)
        eigs = np.linalg.eigvalsh(gram[np.ix_(idx, idx)])
        worst = max(worst, float(max(eigs[-1] - 1.0, 1.0 - eigs[0])))
    return worst


def duplicated_column_operator():
    mat = prng.normals(3, 8 * 8).reshape(8, 8)
    mat[:, 5] = mat[:, 2]
    return dense_operator(mat)


def complex_operator():
    return dense_operator(prng.complex_normals(21, 10 * 14).reshape(10, 14) / np.sqrt(10))


# every operator this file estimates a restricted isometry constant of
RIP_FIXTURES = {
    "identity8": lambda: identity_operator(8),
    "identity12": lambda: identity_operator(12),
    "duplicated-column": duplicated_column_operator,
    "complex10x14": complex_operator,
    "gauss8x10": lambda: gaussian_operator(8, 10, seed=6),
    "gauss12x16-2": lambda: gaussian_operator(12, 16, seed=2),
    "gauss12x16-4": lambda: gaussian_operator(12, 16, seed=4),
    "gauss12x16-8": lambda: gaussian_operator(12, 16, seed=8),
    "gauss24x32-1": lambda: gaussian_operator(24, 32, seed=1),
    "gauss24x32-11": lambda: gaussian_operator(24, 32, seed=11),
    "gauss24x32-13": lambda: gaussian_operator(24, 32, seed=13),
    "gauss24x32-77": lambda: gaussian_operator(24, 32, seed=77),
    "gauss32x64": lambda: gaussian_operator(32, 64, seed=7),
    "fourier16x32": lambda: partial_fourier_operator(16, 32, seed=2),
    "gated12": lambda: gated_operator(12, seed=5),
    "gated16": lambda: gated_operator(16, seed=1),
}


# (fixture, r) on which a block of the full Gram and the per-support view Gram, BLAS
# products of different shapes, round apart in their last bits: 1-supports of the 16-
# and 24-row real fixtures, and 1- and 3-supports of the complex one
LAST_BIT_CASES = {
    ("complex10x14", 1), ("complex10x14", 3), ("gauss24x32-1", 1), ("gauss24x32-11", 1),
    ("gauss24x32-13", 1), ("gauss24x32-77", 1), ("gated16", 1),
}


class TestDeltaIsTheMaximumOfGramDeviation:
    """``rip_estimate`` and ``gram_deviation`` both take the Gram from
    ``op.restricted``, so delta_r is the largest ``gram_deviation`` over all
    r-supports, bit for bit, wherever the blocks round alike."""

    # orders 1 to 3 with at most 5,000 supports, one gram_deviation each
    ORDERS = [(name, r) for name, make in RIP_FIXTURES.items() for r in (1, 2, 3)
              if math.comb(make().n, r) <= 5_000]

    @pytest.mark.parametrize("name, r", ORDERS, ids=[f"{name}-r{r}" for name, r in ORDERS])
    def test_exhaustive_delta_is_the_largest_deviation(self, name, r):
        op = RIP_FIXTURES[name]()
        delta = rip_estimate(op, r).delta_exact
        brute = max(gram_deviation(op, SupportSet(np.array(t), op.n))
                    for t in combinations(range(op.n), r))
        if (name, r) in LAST_BIT_CASES:
            assert delta != brute and delta == pytest.approx(brute, rel=1e-14, abs=1e-15)
        else:
            assert delta == brute


class TestFullGramBound:
    """||G - I||_2 bounds every delta_r: each G_S - I is a principal
    submatrix of G - I, so Cauchy interlacing caps its norm."""

    @pytest.mark.parametrize("make_op", list(RIP_FIXTURES.values()), ids=list(RIP_FIXTURES))
    def test_bound_covers_every_exhaustive_delta(self, make_op):
        op = make_op()
        bound = gram_deviation(op, SupportSet.full(op.n))
        # orders past N/2 or past 1e5 supports take seconds to minutes each on
        # the 32-column operators; delta_r grows with r and delta_N is the bound
        orders = [r for r in range(1, op.n // 2 + 1) if math.comb(op.n, r) <= 10**5]
        for r in orders + [op.n]:
            delta = rip_estimate(op, r, "exhaustive").delta_exact
            assert delta <= bound + 1e-12 * max(1.0, bound)


# sha256 of _deviation_bounds' bytes on two fixed Grams: rip-cert's real 64 x 128
# Monte Carlo operator and a complex partial-Fourier one, each over 10,000 and 20
# of rip-cert's seed-0 Monte Carlo 8-supports
DEVIATION_BOUND_PINS = {
    ("rip-cert-64x128", 10_000): "edbd46eeb063b01aed7efa1aca8d27658c46468e03d13c857aa47a65db4ec985",
    ("rip-cert-64x128", 20): "151bcc1200e47ea6d285282f361598dcc61087628382e0aa93e13cfd91e32ba0",
    ("fourier-48x128", 10_000): "513d3cd8848cfafd2b8bf7c86bc587e1f7ad337b774c641b5f136cd6ecd2ae27",
    ("fourier-48x128", 20): "267f146485c4dd418036f320d3c44785fe0e47d8d897323a3eb07907969d3362",
}


class TestDeviationBoundPins:
    OPERATORS = {
        "rip-cert-64x128": lambda: gaussian_operator(64, 128, seed=prng.mix_seed(910, 0)),
        "fourier-48x128": lambda: partial_fourier_operator(48, 128, seed=5),
    }

    @pytest.mark.parametrize("name, trials", list(DEVIATION_BOUND_PINS), ids=str)
    def test_bounds_keep_their_bytes(self, name, trials):
        mat = self.OPERATORS[name]().materialize()
        supports = prng.sample_many(prng.mix_seed(920, 0), trials, 128, 8)
        bounds = rip._deviation_bounds(mat.conj().T @ mat, supports)
        assert hashlib.sha256(bounds.tobytes()).hexdigest() == DEVIATION_BOUND_PINS[name, trials]


class TestPrunedEstimateIsExact:
    """The pruned search returns the unpruned maximum bit for bit."""

    @pytest.mark.parametrize(
        "make_op, r",
        [
            (lambda: gaussian_operator(12, 16, seed=4), 1),
            (lambda: gaussian_operator(12, 16, seed=4), 4),
            (lambda: gaussian_operator(8, 10, seed=6), 10),
            (lambda: gaussian_operator(24, 32, seed=11), 4),
            (lambda: gaussian_operator(24, 32, seed=11), 30),
            (complex_operator, 3),
            (complex_operator, 14),
            (lambda: partial_fourier_operator(16, 32, seed=2), 3),
            (lambda: identity_operator(8), 3),
            (duplicated_column_operator, 2),
            (lambda: gated_operator(12, seed=5), 6),
        ],
        ids=[
            "gauss-r1", "gauss-r4", "gauss-r=N", "gauss24x32-r4", "gauss24x32-r30", "complex-r3",
            "complex-r=N", "fourier-r3", "identity", "duplicated-column", "gated",
        ],
    )
    @pytest.mark.parametrize("probe_count", [1, 256])
    def test_exhaustive_matches_brute_force(self, make_op, r, probe_count, monkeypatch):
        # with one probe support the pruning pass does nearly all the work
        monkeypatch.setattr(rip, "_PROBE_COUNT", probe_count)
        op = make_op()
        est = rip_estimate(op, r, "exhaustive")
        assert est.delta_exact == brute_force_delta(op, combinations(range(op.n), r))
        assert est.delta_lower == est.delta_exact

    @pytest.mark.parametrize(
        "make_op, r",
        [
            (lambda: gaussian_operator(32, 64, seed=7), 5),
            (complex_operator, 4),
            (lambda: gated_operator(16, seed=1), 8),
        ],
        ids=["gauss", "complex", "gated"],
    )
    @pytest.mark.parametrize("probe_count", [1, 256])
    def test_monte_carlo_matches_brute_force(self, make_op, r, probe_count, monkeypatch):
        monkeypatch.setattr(rip, "_PROBE_COUNT", probe_count)
        op = make_op()
        trials, seed = 600, 13
        supports = [
            prng.sample_without_replacement(prng.mix_seed(seed, t), op.n, r)
            for t in range(trials)
        ]
        est = rip_estimate(op, r, "monte_carlo", trials=trials, seed=seed)
        assert est.delta_lower == brute_force_delta(op, supports)

    @pytest.mark.parametrize(
        "op",
        [gaussian_operator(12, 16, seed=4), complex_operator(), gated_operator(12, seed=5)],
        ids=["gauss", "complex", "gated"],
    )
    def test_bounds_cover_every_deviation(self, op):
        mat = op.materialize()
        gram = mat.conj().T @ mat
        supports = np.array(list(combinations(range(op.n), 4)))
        bounds = rip._deviation_bounds(gram, supports)
        for support, bound in zip(supports, bounds):
            assert brute_force_max(gram, [support]) <= bound + 1e-12

    def test_bounds_make_no_gram_sized_temporary(self):
        n = 1024
        gram = prng.complex_normals(3, n * n).reshape(n, n)
        supports = np.sort(prng.sample_without_replacement(4, n, 8 * 64).reshape(64, 8))
        tracemalloc.start()
        try:
            rip._deviation_bounds(gram, supports)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gram.nbytes / 100

    def test_support_with_a_tight_bound_just_above_the_probe_is_solved(self, monkeypatch):
        # support (0, 1, 2) is a star: deviation 0.5 sqrt 2, Frobenius bound 1.0.
        # support (3, 4, 5) has deviation 0.71 and Frobenius bound 0.71 sqrt 2,
        # so it is the only probe; the star's bound is above 0.71, so it is
        # solved too.
        monkeypatch.setattr(rip, "_PROBE_COUNT", 1)
        gram = np.eye(6)
        gram[0, 1] = gram[1, 0] = gram[0, 2] = gram[2, 0] = 0.5
        gram[3, 4] = gram[4, 3] = 0.71
        supports = np.array([[0, 1, 2], [3, 4, 5]])
        worst = rip._max_deviation_over(gram, supports)
        assert worst == brute_force_max(gram, supports)
        assert worst == pytest.approx(0.71)

    def test_support_whose_bound_barely_beats_the_probe_is_solved(self, monkeypatch):
        # support (0, 1, 2) is a star: deviation 0.5 sqrt 2 = 0.707, Frobenius
        # bound 1.0, so it is the only probe.  Support (3, 4, 5) is I + 0.24 J:
        # G_S - I has rank one, so its bound equals its deviation 0.72, only
        # 0.013 above the probe's, and it must still be solved.
        monkeypatch.setattr(rip, "_PROBE_COUNT", 1)
        gram = np.eye(6)
        gram[0, 1] = gram[1, 0] = gram[0, 2] = gram[2, 0] = 0.5
        gram[3:, 3:] += 0.24
        supports = np.array([[0, 1, 2], [3, 4, 5]])
        assert rip._deviation_bounds(gram, supports) == pytest.approx([1.0, 0.72])
        worst = rip._max_deviation_over(gram, supports)
        assert worst == brute_force_max(gram, supports)
        assert worst == pytest.approx(0.72)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_enumeration_order_matches_itertools(self, n):
        # with no floor the descent prunes nothing and yields every support in
        # lexicographic order
        dev = rip._hermitian_deviation(np.eye(n) + 0.1 * np.ones((n, n)))
        for r in range(0, n + 2):
            expected = list(combinations(range(n), r))
            table = rip._candidates(dev, r, 0.0)
            assert table.shape == (len(expected), r)
            assert [tuple(row) for row in table.tolist()] == expected

    def test_enumeration_memory_stays_near_the_output_for_r_near_n(self):
        # C(24, 22) = 276 supports, none pruned; a level of every
        # middle-sized prefix would hold C(24, 12) = 2.7e6 rows
        mat = gaussian_operator(16, 24, seed=3).materialize()
        dev = rip._hermitian_deviation(mat.T @ mat)
        tracemalloc.start()
        try:
            table = rip._candidates(dev, 22, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (276, 22)
        assert peak <= 2.5 * table.nbytes


def unpruned_delta(op, r):
    """The oracle: one batched ``eigvalsh`` over every ``itertools.combinations``
    support, with no bound and no pruning."""
    gram = view_gram(op)
    supports = np.array(list(combinations(range(op.n), r)))
    eigs = np.linalg.eigvalsh(gram[supports[:, :, None], supports[:, None, :]])
    return float(np.max(np.maximum(eigs[:, -1] - 1.0, 1.0 - eigs[:, 0])))


def rip_cert_operator(k):
    """The 24 x 32 Gaussian of trial k of acceptance criterion 07."""
    return gaussian_operator(24, 32, seed=prng.mix_seed(900, k))


class TestPrefixDescent:
    """Exhaustive mode descends supports by prefix and drops whole subtrees;
    a wrong prune shows up as a delta below the unpruned maximum."""

    @pytest.mark.parametrize("r", [4, 5])
    @pytest.mark.parametrize("k", range(5))
    def test_rip_cert_fixtures_match_the_unpruned_oracle(self, k, r):
        op = rip_cert_operator(k)
        assert rip_estimate(op, r, "exhaustive").delta_exact == unpruned_delta(op, r)

    @pytest.mark.parametrize("r", range(1, 15))
    def test_complex_operator_matches_the_unpruned_oracle_at_every_order(self, r):
        op = complex_operator()
        assert rip_estimate(op, r, "exhaustive").delta_exact == unpruned_delta(op, r)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_partial_fourier_matches_the_unpruned_oracle(self, r):
        op = partial_fourier_operator(16, 32, seed=2)
        assert rip_estimate(op, r, "exhaustive").delta_exact == unpruned_delta(op, r)

    @pytest.mark.parametrize(
        "k, expected",
        [
            (0, "0x1.ef700134d9ac6p+0"),
            (5, "0x1.47f3a46cb7c50p+1"),
            (306, "0x1.c46f11c360454p+0"),
            (308, "0x1.a9644cf621a28p+0"),
            # greedy growth alone stops furthest below delta_6 on these
            (26, "0x1.a494ff82ec7e2p+0"),
            (81, "0x1.928c10242ba02p+0"),
            (86, "0x1.4863239c89ba0p+1"),
            (611, "0x1.f79a1d90071dap+0"),
        ],
    )
    def test_delta_6_of_rip_cert_fixtures_is_frozen(self, k, expected):
        # the maximum over all 906,192 supports, as the enumeration that the
        # descent replaced found it; the descent prunes least on seeds 306
        # and 308 and most on seed 5
        assert rip_estimate(rip_cert_operator(k), 6, "exhaustive").delta_exact.hex() == expected

    @pytest.mark.parametrize(
        "op",
        [gaussian_operator(12, 16, seed=4), complex_operator(), gated_operator(12, seed=5)],
        ids=["gauss", "complex", "gated"],
    )
    @pytest.mark.parametrize("r", [1, 3, 5, 6])
    def test_candidates_keep_every_support_above_the_floor(self, op, r):
        mat = op.materialize()
        gram = mat.conj().T @ mat
        everything = np.array(list(combinations(range(op.n), r)))
        deviations = rip._deviations(gram, everything)
        dev = rip._hermitian_deviation(gram)
        top = deviations.max()
        for floor in [*np.quantile(deviations, [0.0, 0.5, 0.99]), top * (1 - 1e-9)]:
            table = rip._candidates(dev, r, floor)
            kept = list(map(tuple, table.tolist()))
            assert kept == sorted(set(kept))
            assert set(kept) >= {tuple(s) for s in everything[deviations > floor * (1 + 1e-12)]}

    @pytest.mark.parametrize("k", range(5))
    def test_descent_keeps_little_beyond_the_worst_support(self, k):
        # the test on the last index is exact, so with a floor just under
        # delta_6 almost nothing but the worst support reaches the leaves
        mat = rip_cert_operator(k).materialize()
        gram = mat.T @ mat
        delta = rip_estimate(rip_cert_operator(k), 6, "exhaustive").delta_exact
        table = rip._candidates(rip._hermitian_deviation(gram), 6, delta * (1 - 1e-9))
        assert 1 <= table.shape[0] <= 5
        assert rip._deviations(gram, table).max() == delta

    @pytest.mark.parametrize(
        "op",
        [gaussian_operator(12, 16, seed=4), complex_operator(), gated_operator(12, seed=5)],
        ids=["gauss", "complex", "gated"],
    )
    def test_pair_bounds_are_the_largest_pair_extremes_from_each_index(self, op):
        # the two-index bounds are closed form: at least the largest
        # eigvalsh extreme over the pairs {q, p}, p > q, and within 1e-6 of its scale
        mat = op.materialize()
        dev = rip._hermitian_deviation(mat.conj().T @ mat)
        pairs = np.array(list(combinations(range(op.n), 2)))
        eigs = np.linalg.eigvalsh(dev[pairs[:, :, None], pairs[:, None, :]])
        high, low, scale = (np.full(op.n, -np.inf) for _ in range(3))
        np.maximum.at(high, pairs[:, 0], eigs[:, -1])
        np.maximum.at(low, pairs[:, 0], -eigs[:, 0])
        np.maximum.at(scale, pairs[:, 0], np.abs(eigs).max(axis=1) + 1e-300)
        bounds = rip._completion_bounds(dev, 3)[:, 2]
        assert np.all(bounds[:, -1] == -np.inf)  # no pair starts at the last index
        for bound, extreme in zip(bounds[:, :-1], (high[:-1], low[:-1])):
            assert np.all(bound >= extreme)
            assert np.all(bound - extreme <= 1e-6 * scale[:-1])

    @pytest.mark.parametrize(
        "op",
        [gaussian_operator(12, 16, seed=4), complex_operator(), gated_operator(12, seed=5)],
        ids=["gauss", "complex", "gated"],
    )
    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_completion_bounds_cover_every_set(self, op, r):
        # pairs by the closed form, three or more indices by the recursion
        mat = op.materialize()
        dev = rip._hermitian_deviation(mat.conj().T @ mat)
        bounds = rip._completion_bounds(dev, r)
        for t in range(1, r + 1):
            sets = np.array(list(combinations(range(op.n), t)))
            eigs = np.linalg.eigvalsh(dev[sets[:, :, None], sets[:, None, :]])
            assert np.all(bounds[0, t, sets[:, 0]] >= eigs[:, -1])
            assert np.all(bounds[1, t, sets[:, 0]] >= -eigs[:, 0])

    def test_support_whose_bound_barely_beats_the_greedy_worst_is_solved(self, monkeypatch):
        # G_S - I on S = (3, 4, 5) is 0.24 J, rank one, so its Frobenius bound
        # equals its deviation 0.72, the largest; a starting worst just below
        # it must not prune it
        gram = np.eye(6)
        gram[3:, 3:] += 0.24
        op = dense_operator(np.linalg.cholesky(gram).T)
        delta = unpruned_delta(op, 3)
        assert delta == pytest.approx(0.72)
        monkeypatch.setattr(rip, "_greedy_worst", lambda *args: delta * (1 - 1e-10))
        assert rip_estimate(op, 3, "exhaustive").delta_exact == delta

    def test_exhaustive_delta_6_stays_below_8_mb(self):
        # enumerating all C(32, 6) supports took a 43 MB table before the
        # descent; seed 308 is a rip-cert fixture on which it prunes least
        op = rip_cert_operator(308)
        tracemalloc.start()
        try:
            rip_estimate(op, 6, "exhaustive")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
class MaterializeForbidden:
    """An operator that may be neither densified nor viewed: its Gram would come first."""

    n = 64

    def materialize(self):
        raise AssertionError("materialize called before the argument checks")

    def restricted(self, T):
        raise AssertionError("restricted called before the argument checks")


class TestFailsBeforeTheGram:
    def test_budget_error_comes_first(self):
        with pytest.raises(RipBudgetError):
            rip_estimate(MaterializeForbidden(), 8, "exhaustive", budget=1000)

    def test_unknown_method_comes_first(self):
        with pytest.raises(ValueError, match="unknown method"):
            rip_estimate(MaterializeForbidden(), 2, "sampling")

    @pytest.mark.parametrize("trials", [0, -3])
    def test_monte_carlo_needs_a_trial_and_says_so_first(self, trials):
        with pytest.raises(ValueError, match="trials"):
            rip_estimate(MaterializeForbidden(), 2, "monte_carlo", trials=trials)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_monte_carlo_refuses_a_seed_outside_u64_first(self, seed):
        with pytest.raises(ValueError, match=r"a seed must lie in \[0, 2\*\*64\)"):
            rip_estimate(MaterializeForbidden(), 4, "monte_carlo", trials=50, seed=seed)

    @pytest.mark.parametrize(
        "given, kind, message",
        [
            ({"seed": -1}, ValueError, r"a seed must lie in \[0, 2\*\*64\)"),
            ({"seed": "x"}, TypeError, "a seed must be an integer"),
            ({"trials": 0}, ValueError, "need trials >= 1"),
        ],
        ids=["seed-negative", "seed-str", "trials-0"],
    )
    def test_exhaustive_reads_seed_and_trials_first(self, given, kind, message):
        # exhaustive mode draws nothing, but a bad seed or trial count is still refused
        with pytest.raises(kind, match=message):
            rip_estimate(MaterializeForbidden(), 2, "exhaustive", **given)

    def test_monte_carlo_accepts_the_largest_u64_seed(self):
        op = gaussian_operator(12, 16, seed=4)
        top = 2**64 - 1
        estimate = rip_estimate(op, 4, "monte_carlo", trials=50, seed=top)
        assert estimate.seed == top
        assert 0.0 < estimate.delta_lower <= rip_estimate(op, 4, "exhaustive").delta_exact


class TestBatchedDraws:
    def test_monte_carlo_makes_no_per_trial_draw(self, monkeypatch):
        op = gaussian_operator(16, 32, seed=2)
        calls = {"mix_seed": 0, "raw_words": 0, "sample_without_replacement": 0}

        def counted(name):
            inner = getattr(prng, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(prng, name, counted(name))
        rip_estimate(op, 3, "monte_carlo", trials=2000, seed=4)
        assert calls["raw_words"] == calls["sample_without_replacement"] == 0
        assert calls["mix_seed"] <= 1


class TestConsequences:
    @pytest.mark.parametrize("seed", [-1, -5, 2**64])
    def test_seed_outside_u64_is_refused_first(self, seed):
        with pytest.raises(ValueError, match=r"a seed must lie in \[0, 2\*\*64\)"):
            check_rip_consequences(MaterializeForbidden(), seed=seed)

    def test_largest_u64_seed_is_accepted(self):
        assert check_rip_consequences(identity_operator(12), seed=2**64 - 1).all_passed

    def test_identity_all_pass_with_slack(self):
        report = check_rip_consequences(identity_operator(12), r=2, c=3)
        assert report.all_passed
        for check in report.checks:
            assert check.margin >= 0

    def test_gaussian_block_bound(self):
        # delta_6 <= 3 * delta_4, exhaustively, on a seeded 24x32 ensemble draw
        op = gaussian_operator(24, 32, seed=11)
        report = check_rip_consequences(op, r=2, c=3)
        by_name = {c.name: c for c in report.checks}
        assert by_name["block_gershgorin"].passed
        assert report.deltas[6] <= 3 * report.deltas[4] + 1e-12

    def test_energy_bound_on_dense_vector(self):
        op = gaussian_operator(24, 32, seed=13)
        x = prng.normals(99, 32)
        report = check_rip_consequences(op, r=4, x=x, include=("energy_bound",))
        by_name = {c.name: c for c in report.checks}
        assert by_name["energy_bound"].passed

    def test_report_carries_failures_without_raising(self):
        # an adversarial "delta" cannot happen, but a rigged check object can
        from cosamp.rip import ConsequenceCheck, RipConsequenceReport

        bad = ConsequenceCheck("synthetic", lhs=2.0, rhs=1.0)
        report = RipConsequenceReport((bad,), {})
        assert not report.all_passed
        assert report.failures() == [bad]


class TestBoundedGathers:
    """The r x r gathers of ``_deviations`` and of the rows ``_max_deviation_over`` passes
    ``_schatten4_bounds`` are batched by entries, not by supports: 50,000 supports of
    6 x 6 at a time, as before, and fewer of a larger r, so near r = N one batch stays
    ~14 MB instead of growing with the support count.  A matrix's eigenvalues and
    Schatten-4 bound do not depend on its batch."""

    def test_near_n_supports_are_solved_in_bounded_batches_with_the_same_bytes(self):
        gram = view_gram(gaussian_operator(24, 32, seed=77))
        supports = prng.sample_many(3, 6_000, 32, 26)  # one gather of all: 32 MB
        tracemalloc.start()
        try:
            got = rip._deviations(gram, supports)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * rip._GATHER + 2 * 2**20
        eigs = np.linalg.eigvalsh(gram[supports[:, :, None], supports[:, None, :]])
        assert got.tobytes() == np.maximum(eigs[:, -1] - 1.0, 1.0 - eigs[:, 0]).tobytes()

    def test_schatten4_bounds_keep_their_bytes_in_batches(self):
        # _schatten4_bounds gathers what it is given; its caller cuts the batches
        gram = view_gram(gaussian_operator(24, 32, seed=77))
        dev = rip._hermitian_deviation(gram)
        supports = prng.sample_many(4, 500, 32, 12)
        whole = rip._schatten4_bounds(dev, supports)
        batches = [rip._schatten4_bounds(dev, supports[i : i + 7]) for i in range(0, 500, 7)]
        assert np.concatenate(batches).tobytes() == whole.tobytes()

    def test_rip_certs_orders_keep_their_single_batch(self):
        # exhaustive delta_6 solves at most 50,000 supports per batch, as before,
        # and Monte Carlo delta_8's 10,000 supports stay one batch
        assert rip._GATHER // 6**2 == 50_000 and rip._GATHER // 8**2 >= 10_000


class TestNearNTables:
    """Near r = N the support tables dominate an exhaustive estimate.  ``_candidates``
    writes each level once at its size, from the previous level's table and the
    parent and child indices, so it peaks near two final tables (it held three:
    the previous level, the grown blocks and their concatenation); ``rip_estimate``
    maps and sorts the kept table in place."""

    def test_candidates_peak_near_two_final_tables(self):
        dev = rip._hermitian_deviation(view_gram(gaussian_operator(20, 24, seed=77)))
        tracemalloc.start()
        try:
            table = rip._candidates(dev, 19, 0.0)  # all C(24, 19) = 42,504 supports
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (math.comb(24, 19), 19)
        assert peak <= 2.25 * table.nbytes

    def test_pending_rows_are_solved_a_batch_at_a_time_with_the_same_maximum(self, monkeypatch):
        # with one probe nearly all 1,820 rows of C(16, 12) stay pending; batches of 16
        # rows take them through the Schatten-4 filter and eigvalsh, with no copy of all
        gram = view_gram(gaussian_operator(12, 16, seed=77))
        supports = np.array(list(combinations(range(16), 12)))
        monkeypatch.setattr(rip, "_PROBE_COUNT", 1)
        monkeypatch.setattr(rip, "_GATHER", 144 * 16)
        batches, schatten4 = [], rip._schatten4_bounds
        monkeypatch.setattr(rip, "_schatten4_bounds",
                            lambda dev, rows: batches.append(len(rows)) or schatten4(dev, rows))
        assert rip._max_deviation_over(gram, supports) == brute_force_max(gram, supports)
        assert sum(batches) >= 200 and len(batches) >= 5 and max(batches) == 16

    def test_near_n_delta_keeps_its_bits(self):
        # the table mapped back through the order and sorted in place gives the
        # same supports, so the same maximum, as the copies it replaces
        op = gaussian_operator(16, 20, seed=77)
        assert rip_estimate(op, 16).delta_exact == unpruned_delta(op, 16)
