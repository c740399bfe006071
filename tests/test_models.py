"""Signal generators, tail bounds, bands, and SNR metrics."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import gated_operator
from cosamp import prng
from cosamp.models import (
    CompressibleSpec,
    band_profile,
    compressible_constants,
    compressible_energy_bound,
    compressible_tail_bounds,
    dynamic_range_iterations,
    iteration_bound,
    make_compressible,
    make_sparse,
    noise_fold,
    snr_metrics,
    unrecoverable_energy,
    unrecoverable_energy_l1_bound,
)
from cosamp.operators import gaussian_operator
from cosamp.signals import best_s_approx, norms


def bands_by_direct_evaluation(x):
    """Independent band assignment straight from the defining inequalities."""
    total = float(np.sum(np.abs(x) ** 2))
    out = {}
    for i, value in enumerate(np.abs(x) ** 2):
        if value == 0:
            continue
        j = 0
        while not (math.ldexp(total, -(j + 1)) < value <= math.ldexp(total, -j)):
            j += 1
            assert j < 2000
        out.setdefault(j, set()).add(i)
    return out


class TestMakeSparse:
    def test_flat_has_profile_one(self):
        x = make_sparse(32, 4, "flat", position_seed=1, sign_seed=2)
        assert norms(x).l0 == 4
        assert band_profile(x).profile == 1

    def test_exponential_many_octaves_has_full_profile(self):
        s = 6
        x = make_sparse(64, s, "exponential", alpha=0.5, position_seed=3, sign_seed=4)
        direct = bands_by_direct_evaluation(x)
        assert len(direct) == s
        assert band_profile(x).profile == s

    def test_deterministic(self):
        a = make_sparse(32, 4, "flat", position_seed=9, sign_seed=10)
        b = make_sparse(32, 4, "flat", position_seed=9, sign_seed=10)
        assert np.array_equal(a, b)

    def test_custom_magnitudes(self):
        x = make_sparse(
            16, 3, "custom", magnitudes=[3.0, 2.0, 1.0], position_seed=5, sign_seed=6
        )
        assert sorted(np.abs(x[x != 0]).tolist(), reverse=True) == [3.0, 2.0, 1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            make_sparse(4, 5, position_seed=0, sign_seed=0)
        with pytest.raises(ValueError):
            make_sparse(4, 2, "exponential", alpha=1.5, position_seed=0, sign_seed=0)

    @pytest.mark.parametrize("scale", [0.0, -0.0, math.inf, -math.inf, math.nan])
    def test_scale_must_be_finite_and_nonzero(self, scale):
        with pytest.raises(ValueError, match="scale must be finite and nonzero"):
            make_sparse(8, 2, scale=scale, position_seed=0, sign_seed=0)

    def test_negative_scale_keeps_s_nonzeros(self):
        x = make_sparse(8, 2, scale=-2.0, position_seed=0, sign_seed=0)
        assert norms(x).l0 == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_custom_magnitudes_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="positive finite magnitudes"):
            make_sparse(8, 2, "custom", magnitudes=[1.0, bad], position_seed=0, sign_seed=0)

    @pytest.mark.parametrize("bad", [-1, 2**64])
    @pytest.mark.parametrize("name", ["position_seed", "sign_seed"])
    def test_seed_outside_u64_is_refused(self, name, bad):
        seeds = {"position_seed": 1, "sign_seed": 2, name: bad}
        with pytest.raises(ValueError, match=r"a seed must lie in \[0, 2\*\*64\)"):
            make_sparse(10, 3, **seeds)

    def test_largest_u64_seed_is_accepted(self):
        x = make_sparse(10, 3, position_seed=2**64 - 1, sign_seed=2**64 - 1)
        assert norms(x).l0 == 3


class TestMakeCompressible:
    @pytest.mark.parametrize("bad", [-1, 2**64])
    @pytest.mark.parametrize("name", ["sign_seed", "permutation_seed"])
    def test_seed_outside_u64_is_refused(self, name, bad):
        seeds = {"sign_seed": 1, "permutation_seed": 2, name: bad}
        with pytest.raises(ValueError, match=r"a seed must lie in \[0, 2\*\*64\)"):
            CompressibleSpec(p=0.7, magnitude=1.0, n=16, **seeds)

    def test_largest_u64_seed_is_accepted(self):
        top = 2**64 - 1
        spec = CompressibleSpec(p=0.7, magnitude=1.0, n=16, sign_seed=top, permutation_seed=top)
        assert norms(make_compressible(spec)).l0 == 16

    def test_sorted_magnitudes_follow_power_law(self):
        spec = CompressibleSpec(p=0.5, magnitude=2.0, n=64, sign_seed=1, permutation_seed=2)
        x = make_compressible(spec)
        mags = np.sort(np.abs(x))[::-1]
        ranks = np.arange(1, 65)
        assert np.allclose(mags, 2.0 * ranks ** (-2.0), rtol=1e-13, atol=0)

    def test_p_one_l1_bound(self):
        n = 256
        spec = CompressibleSpec(p=1.0, magnitude=1.0, n=n, sign_seed=3, permutation_seed=4)
        x = make_compressible(spec)
        assert norms(x).l1 <= 1.0 * (1.0 + math.log(n))

    @pytest.mark.parametrize("p", [0.3, 0.5])
    @pytest.mark.parametrize("s", [4, 16])
    def test_tail_bounds(self, p, s):
        spec = CompressibleSpec(p=p, magnitude=1.5, n=128, sign_seed=5, permutation_seed=6)
        x = make_compressible(spec)
        tail = x - best_s_approx(x, s)[0]
        l1_bound, l2_bound = compressible_tail_bounds(spec, s)
        assert norms(tail).l1 <= l1_bound
        assert norms(tail).l2 <= l2_bound

    def test_tail_bounds_hold_for_every_s(self):
        spec = CompressibleSpec(p=0.5, magnitude=1.0, n=64, sign_seed=9, permutation_seed=10)
        x = make_compressible(spec)
        for s in range(1, 65):
            tail = x - best_s_approx(x, s)[0]
            l1_bound, l2_bound = compressible_tail_bounds(spec, s)
            assert norms(tail).l1 <= l1_bound + 1e-12
            assert norms(tail).l2 <= l2_bound + 1e-12

    def test_deterministic(self):
        spec = CompressibleSpec(p=0.7, magnitude=1.0, n=32, sign_seed=7, permutation_seed=8)
        assert np.array_equal(make_compressible(spec), make_compressible(spec))

    @pytest.mark.parametrize("magnitude", [0.0, -1.0, math.inf, math.nan])
    def test_magnitude_must_be_positive_and_finite(self, magnitude):
        with pytest.raises(ValueError, match="magnitude must be positive and finite"):
            CompressibleSpec(p=0.7, magnitude=magnitude, n=32, sign_seed=7, permutation_seed=8)

    def test_constants(self):
        c_p, d_p = compressible_constants(0.5)
        assert c_p == pytest.approx(1.0)
        assert d_p == pytest.approx(3.0**-0.5)
        assert math.isinf(compressible_constants(1.0)[0])


class TestUnrecoverableEnergy:
    def test_sparse_signal_is_zero(self):
        x = make_sparse(32, 4, "flat", position_seed=11, sign_seed=12)
        assert unrecoverable_energy(x, 4) == 0.0

    def test_noise_only_term(self):
        x = make_sparse(32, 4, "flat", position_seed=13, sign_seed=14)
        assert unrecoverable_energy(x, 4, e_norm=0.25) == pytest.approx(0.25)

    @pytest.mark.parametrize("s", [4, 8, 16])
    def test_l1_tail_bound_on_random_signals(self, s):
        for trial in range(10):
            x = prng.normals(prng.mix_seed(60, trial), 64)
            nu = unrecoverable_energy(x, s, e_norm=0.1)
            assert nu <= unrecoverable_energy_l1_bound(x, s, e_norm=0.1) + 1e-12

    def test_compressible_energy_bound(self):
        spec = CompressibleSpec(p=0.5, magnitude=1.0, n=256, sign_seed=15, permutation_seed=16)
        x = make_compressible(spec)
        for s in (4, 16, 64):
            assert unrecoverable_energy(x, s) <= compressible_energy_bound(spec, s) + 1e-12


class TestNoiseFold:
    def test_sparse_signal_folds_to_exact_noise(self):
        op = gaussian_operator(16, 32, seed=17)
        x = make_sparse(32, 3, "flat", position_seed=18, sign_seed=19)
        e = prng.normals(20, 16)
        fold = noise_fold(op, x, 3, e)
        assert np.array_equal(fold.folded, e)

    def test_bound_holds_on_gated_instance(self, gated_16):
        op, delta = gated_16  # delta_8 verified exhaustively, so delta_4 <= 0.1 too
        assert delta <= 0.1
        x = prng.normals(61, 16)
        fold = noise_fold(op, x, 4)
        assert fold.norm <= fold.bound + 1e-12

    def test_tail_part_independent_of_noise(self):
        op = gaussian_operator(12, 24, seed=22)
        x = prng.normals(62, 24)
        e1 = prng.normals(63, 12)
        e2 = prng.normals(64, 12)
        pure_tail = noise_fold(op, x, 3, None).folded
        tail1 = noise_fold(op, x, 3, e1).folded - e1
        tail2 = noise_fold(op, x, 3, e2).folded - e2
        scale = np.linalg.norm(pure_tail)
        assert np.linalg.norm(tail1 - pure_tail) <= 1e-12 * scale
        assert np.linalg.norm(tail2 - pure_tail) <= 1e-12 * scale


class TestBandProfile:
    def test_flat_sparse_single_band(self):
        x = make_sparse(16, 4, "flat", position_seed=23, sign_seed=24)
        bp = band_profile(x)
        assert bp.profile == 1
        assert list(bp.bands.keys()) == [2]  # |x_i|^2 = ||x||^2 / 4 lands in (1/8, 1/4]

    def test_four_two_one_example(self):
        bp = band_profile(np.array([4.0, 2.0, 1.0]))
        assert {j: list(T) for j, T in bp.bands.items()} == {0: [0], 2: [1], 4: [2]}
        assert bp.profile == 3

    def test_boundary_goes_to_inclusive_side(self):
        bp = band_profile(np.array([1.0, 1.0]))  # each entry exactly at 2^-1 ||x||^2
        assert list(bp.bands.keys()) == [1]

    def test_an_entry_one_ulp_past_an_edge_is_placed_by_the_exact_comparison(self):
        # |x_1|^2 sits just above 2^-5 ||x||^2, yet log2 of the ratio rounds to
        # exactly -5: the log guess says band 5 and the exact comparison moves it to 4
        x = np.array([1.0, 0.1796053020267749])
        sq = x**2
        total = float(sq.sum())
        assert -math.log2(sq[1] / total) == 5.0
        assert Fraction(float(sq[1])) * 2**5 > Fraction(total)
        bp = band_profile(x)
        assert {j: list(T) for j, T in bp.bands.items()} == {0: [0], 4: [1]}

    def test_profile_at_most_sparsity(self):
        for trial in range(10):
            x = prng.normals(prng.mix_seed(65, trial), 24)
            x[np.abs(x) < 0.4] = 0.0
            if not x.any():
                continue
            bp = band_profile(x)
            assert bp.profile <= norms(x).l0

    def test_bands_partition_support(self):
        x = make_sparse(32, 6, "exponential", alpha=0.4, position_seed=25, sign_seed=26)
        bp = band_profile(x)
        members = sorted(i for T in bp.bands.values() for i in T)
        assert members == sorted(np.flatnonzero(x).tolist())
        assert sum(len(T) for T in bp.bands.values()) == norms(x).l0

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            band_profile(np.zeros(4))

    def test_matches_direct_evaluation_on_random_signals(self):
        for trial in range(10):
            x = prng.normals(prng.mix_seed(66, trial), 20)
            got = {j: set(T) for j, T in band_profile(x).bands.items()}
            assert got == bands_by_direct_evaluation(x)


def _floor_log2(q: Fraction) -> int:
    k = q.numerator.bit_length() - q.denominator.bit_length()  # 2^(k-1) < q < 2^(k+1)
    return k if q >= Fraction(2) ** k else k - 1


def _round53(q: Fraction) -> Fraction:
    """q > 0 rounded to 53 significant bits, ties to even, at any exponent."""
    ulp = Fraction(2) ** (_floor_log2(q) - 52)
    return round(q / ulp) * ulp


def bands_in_rationals(x):
    """The defining inequalities in exact rationals, on |x_i|^2 and ||x||^2 rounded
    once each to 53 significant bits, as double precision rounds them, but with no
    exponent limit.  No ldexp: band j is floor(log2(||x||^2 / |x_i|^2))."""
    squares = {i: _round53(Fraction(float(a)) ** 2) for i, a in enumerate(np.abs(x)) if a}
    total = _round53(sum(squares.values()))
    out = {}
    for i, sq in squares.items():
        out.setdefault(_floor_log2(total / sq), []).append(i)
    return out


def _as_lists(profile):
    return {j: list(T) for j, T in profile.bands.items()}


_dyadic = st.builds(math.ldexp, st.integers(-8, 8), st.integers(-1080, 1015))  # edges, subnormals
_real = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # spreads to 10^+-308, subnormals included
    st.floats(-2.3e-308, 2.3e-308),
    _dyadic,
)
_complex = st.one_of(
    st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False),
    st.builds(complex, _dyadic, _dyadic),
)
_vectors = st.one_of(
    st.lists(_real, min_size=1, max_size=12),
    st.lists(_complex, min_size=1, max_size=12),
).map(np.array)
# mantissas times 2^e, |e| <= 320: 2^+-700 keeps them normal, and the squares span 2^1280
_scalable = st.lists(
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-320, 320))
    | st.just(0.0),
    min_size=1, max_size=12,
).map(np.array)


class TestBandsByExponent:
    """Bands from binary exponents against an exact rational reference, at every scale."""

    @settings(max_examples=400, deadline=None)
    @given(_vectors)
    def test_equals_the_rational_reference(self, x):
        assume(np.any(x))
        assert _as_lists(band_profile(x)) == bands_in_rationals(x)

    @pytest.mark.parametrize(
        "x, bands",
        [
            ([1e150, 1e-160], {0: [0], 2059: [1]}),  # the ratio of squares underflows
            ([2.0**-537] * 3, {1: [0, 1, 2]}),  # each square 2^-1074, the total subnormal
            ([1e200, 1.0], {0: [0], 1328: [1]}),  # the square overflows
            ([1.0, 1e-170], {0: [0], 1129: [1]}),  # the small square underflows to zero
        ],
        ids=["ratio-underflow", "subnormal-total", "overflow", "square-underflow"],
    )
    def test_squares_beyond_the_float_range(self, x, bands):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = band_profile(np.array(x))
        assert _as_lists(profile) == bands == bands_in_rationals(np.array(x))
        assert profile.profile == len(bands)

    @settings(max_examples=200, deadline=None)
    @given(_scalable, st.integers(1, 12))
    def test_scaling_by_a_power_of_two_moves_no_entry(self, x, s):
        assume(np.any(x))
        for j in (300, -300, 700, -700):
            scaled = np.ldexp(x, j)
            assert np.all(np.isfinite(scaled)) and np.array_equal(np.ldexp(scaled, -j), x)
            assert _as_lists(band_profile(scaled)) == _as_lists(band_profile(x))
            assert iteration_bound(scaled, s) == iteration_bound(x, s)

    def test_the_order_of_the_entries_moves_no_entry(self):
        # |x_1|^2 is 20 to the rounding of hypot, a quarter of ||x||^2 = 80: a total
        # summed in storage order could land on either side of the edge
        x = np.array([-5.0, 4 + 2j, 3.0, -1 - 5j])
        order = np.array([0, 2, 3, 1])
        reordered = band_profile(x[order]).bands
        moved = {j: sorted(order[T.indices].tolist()) for j, T in reordered.items()}
        assert moved == _as_lists(band_profile(x)) == bands_in_rationals(x)

    @pytest.mark.parametrize(
        "x, bands",
        [
            ([complex(1.5e308, 1.5e308), 1.0], {0: [0], 2048: [1]}),
            ([1e-300, complex(-1.7e308, 1e308), 3j], {0: [1], 2045: [2], 4041: [0]}),
            ([complex(1.3e308, 1.3e308)] * 3, {1: [0, 1, 2]}),
            ([complex(1.5e308, 1.5e308), complex(2.0**-1074, 1e308)], {0: [0], 2: [1]}),
        ],
        ids=["one-entry", "spread", "all-entries", "subnormal-part"],
    )
    def test_a_finite_entry_whose_modulus_overflows_is_placed(self, x, bands):
        # |x_i| passes the largest double; halving every entry is exact and moves no entry
        x = np.array(x)
        with np.errstate(over="ignore"):
            assert np.isinf(np.abs(x)).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = band_profile(x)
        assert _as_lists(profile) == bands == bands_in_rationals(x / 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 1.0),
                                     complex(1.0, np.inf)], ids=["nan", "inf", "-inf",
                                                                 "complex-nan", "complex-inf"])
    def test_a_non_finite_entry_is_refused(self, bad):
        with pytest.raises(ValueError, match="^band profile needs a nonzero, finite signal"):
            band_profile(np.array([1.0, bad, 0.5]))


class TestIterationBound:
    def test_single_band_single_spike(self):
        x = np.zeros(8)
        x[3] = 2.0
        assert iteration_bound(x, 1) == 12  # ceil(log_{4/3} 5.6) + 6

    def test_never_exceeds_six_s_plus_one(self):
        # worst case p = s, algebraically, for every s up to 100
        for s in range(1, 101):
            raw = s * math.log(1 + 4.6 * math.sqrt(1.0)) / math.log(4.0 / 3.0)
            assert math.ceil(raw) + 6 <= 6 * (s + 1)

    def test_monotone_in_profile(self):
        s = 64
        values = [
            math.ceil(p * math.log(1 + 4.6 * math.sqrt(s / p)) / math.log(4.0 / 3.0)) + 6
            for p in range(1, s + 1)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_profile_from_signal(self):
        flat = make_sparse(32, 4, "flat", position_seed=27, sign_seed=28)
        expected = math.ceil(math.log(1 + 4.6 * 2.0) / math.log(4.0 / 3.0)) + 6
        assert iteration_bound(flat, 4) == expected

    def test_zero_signal_floor(self):
        assert iteration_bound(np.zeros(8), 2) == 6


class TestSnrMetrics:
    def test_exact_reconstruction_sentinel(self):
        x = np.array([1.0, 2.0])
        snr, rsnr = snr_metrics(x, x, nu=0.5)
        assert rsnr == -math.inf
        assert snr == pytest.approx(10 * math.log10(np.linalg.norm(x) / 0.5))

    def test_total_miss_is_zero_db(self):
        x = np.array([3.0, 0.0])
        _, rsnr = snr_metrics(x, np.zeros(2), nu=1.0)
        assert rsnr == pytest.approx(0.0)

    def test_halving_error_drops_three_db(self):
        x = np.array([2.0, 0.0, 0.0])
        _, r1 = snr_metrics(x, np.array([1.0, 0.0, 0.0]), nu=1.0)
        _, r2 = snr_metrics(x, np.array([1.5, 0.0, 0.0]), nu=1.0)
        assert r1 - r2 == pytest.approx(10 * math.log10(2.0))

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            snr_metrics(np.zeros(2), np.zeros(2), nu=1.0)
        with pytest.raises(ValueError):
            snr_metrics(np.ones(2), np.zeros(2), nu=0.0)

    def test_dynamic_range_diagnostic(self):
        x = np.array([0.0, 4.0, 0.25])
        expected = 3.3 * (10 * math.log10(16.0)) + math.log2(math.sqrt(2)) + 1
        assert dynamic_range_iterations(x, 2) == pytest.approx(expected)
