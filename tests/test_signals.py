"""Vector arithmetic, supports, and best-s-term selection."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosamp.signals import (
    SupportSet,
    as_samples,
    as_signal,
    best_s_approx,
    embed,
    head_tail_l1_bound,
    norms,
    restrict,
    support_of,
)
from cosamp import prng


def brute_force_best_support(x, s):
    """Exhaustive search over all supports of size s for the l2-best one."""
    best_err, best_T = None, None
    for T in combinations(range(len(x)), s):
        z = np.zeros_like(x)
        idx = list(T)
        z[idx] = x[idx]
        err = np.linalg.norm(x - z)
        if best_err is None or err < best_err - 1e-15:
            best_err, best_T = err, T
    return best_err, best_T


def stable_sort_support(x, s):
    """The selection rule spelled out as a stable sort by descending magnitude."""
    mag = np.abs(x)
    chosen = np.argsort(-mag, kind="stable")[: min(s, x.size)]
    return np.sort(chosen[mag[chosen] > 0])


class TestBestSApprox:
    def test_magnitude_order(self):
        xs, supp = best_s_approx(np.array([3.0, -2.0, 1.0]), 2)
        assert np.array_equal(xs, [3.0, -2.0, 0.0])
        assert list(supp) == [0, 1]

    def test_lexicographic_tie_break(self):
        _, supp = best_s_approx(np.ones(4), 2)
        assert list(supp) == [0, 1]

    def test_matches_brute_force_oracle(self):
        x = prng.normals(314, 16)
        xs, supp = best_s_approx(x, 4)
        oracle_err, _ = brute_force_best_support(x, 4)
        assert np.linalg.norm(x - xs) == pytest.approx(oracle_err, rel=1e-14)

    def test_zero_sparsity(self):
        xs, supp = best_s_approx(np.array([1.0, 2.0]), 0)
        assert not xs.any() and len(supp) == 0

    def test_support_excludes_exact_zeros(self):
        xs, supp = best_s_approx(np.array([0.0, 5.0, 0.0]), 3)
        assert list(supp) == [1]

    def test_complex_magnitudes(self):
        x = np.array([1 + 1j, 2.0, 0.5j])
        xs, supp = best_s_approx(x, 1)
        assert list(supp) == [1]
        assert xs[1] == 2.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=12),
        st.integers(0, 3),
    )
    def test_optimal_among_all_sparse(self, entries, s):
        x = np.array(entries)
        s = min(s, x.size)
        xs, _ = best_s_approx(x, s)
        err = np.linalg.norm(x - xs)
        for T in combinations(range(x.size), s):
            z = np.zeros_like(x)
            z[list(T)] = x[list(T)]
            assert err <= np.linalg.norm(x - z) + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                # a small alphabet, so that ties and exact zeros are common
                st.sampled_from([0.0, 1.0, -1.0, 2.0, 1j, -2j, 1 + 1j]),
                st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
            ),
            max_size=24,
        ),
        st.booleans(),
        st.integers(0, 30),
    )
    def test_matches_stable_sort_reference(self, entries, real, s):
        x = np.array(entries, dtype=np.complex128)
        if real:
            x = x.real.copy()
        xs, supp = best_s_approx(x, s)
        want = stable_sort_support(x, s)
        assert np.array_equal(supp.indices, want)
        expected = np.zeros_like(x)
        expected[want] = x[want]
        assert xs.dtype == x.dtype and np.array_equal(xs, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=20),
        st.integers(1, 8),
    )
    def test_head_tail_bound(self, entries, t):
        x = np.array(entries)
        xs, _ = best_s_approx(x, t)
        assert np.linalg.norm(x - xs) <= head_tail_l1_bound(x, t) + 1e-12


class TestRestrict:
    def test_single_index(self):
        T = SupportSet(np.array([1]), 3)
        assert np.array_equal(restrict(np.array([5.0, 6.0, 7.0]), T), [0.0, 6.0, 0.0])

    def test_full_set_identity(self):
        x = prng.normals(7, 6)
        assert np.array_equal(restrict(x, SupportSet.full(6)), x)

    def test_empty_set_zero(self):
        x = prng.normals(8, 6)
        assert not restrict(x, SupportSet.empty(6)).any()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            restrict(np.zeros(4), SupportSet.empty(5))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=16), st.data())
    def test_partition_is_exact(self, entries, data):
        x = np.array(entries)
        subset = data.draw(st.sets(st.integers(0, x.size - 1)))
        T = SupportSet(np.array(sorted(subset), dtype=np.int64), x.size)
        assert np.array_equal(restrict(x, T) + restrict(x, T.complement()), x)


class TestNorms:
    def test_three_four_five(self):
        assert norms(np.array([3.0, 4.0])) == (7.0, 5.0, 4.0, 2)

    def test_zero_vector(self):
        assert norms(np.zeros(5)) == (0.0, 0.0, 0.0, 0)

    def test_l2_against_compensated_summation(self):
        x = prng.normals(999, 257)
        expected = math.sqrt(math.fsum(float(v) ** 2 for v in x))
        assert norms(x).l2 == pytest.approx(expected, rel=1e-13)

    def test_l0_counts_exact_nonzeros(self):
        assert norms(np.array([0.0, 1e-300, -2.0])).l0 == 2

    def test_empty_vector(self):
        assert norms(np.array([])) == (0.0, 0.0, 0.0, 0)


class TestValidators:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_signal([1.0, float("nan")])

    def test_rejects_inf_samples(self):
        with pytest.raises(ValueError):
            as_samples([float("inf")])

    def test_rejects_complex_nan(self):
        with pytest.raises(ValueError):
            as_signal(np.array([1.0 + 1j * float("nan")]))

    def test_read_only(self):
        x = as_signal([1.0, 2.0])
        with pytest.raises(ValueError):
            x[0] = 3.0

    def test_length_check(self):
        with pytest.raises(ValueError):
            as_signal([1.0, 2.0], n=3)


class TestRealComplexAgreement:
    def test_real_and_complex_paths_agree(self):
        # the real fast path must match the complex path to 1e-12 relative
        x_real = prng.normals(77, 32)
        x_complex = x_real.astype(np.complex128)
        for s in (0, 3, 7):
            real_s, real_supp = best_s_approx(x_real, s)
            complex_s, complex_supp = best_s_approx(x_complex, s)
            assert real_supp == complex_supp
            assert np.linalg.norm(real_s - complex_s) <= 1e-12 * max(np.linalg.norm(real_s), 1e-30)
        nr, nc = norms(x_real), norms(x_complex)
        for a, b in zip(nr[:3], nc[:3]):
            assert abs(a - b) <= 1e-12 * max(abs(a), 1e-30)
        assert nr.l0 == nc.l0


class TestSupportSet:
    def test_equality_with_anything_else_is_false(self):
        T = SupportSet([1, 2], 4)
        assert T != [1, 2] and T != (1, 2) and not T == "T"
        assert T == SupportSet([1, 2], 4) and T != SupportSet([1, 2], 5)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SupportSet(np.array([1, 1]), 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SupportSet(np.array([4]), 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="must lie in"):
            SupportSet(np.array([-1, 2]), 4)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SupportSet(np.array([2, 1]), 4)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            SupportSet(np.array([[0, 1], [2, 3]]), 4)

    def test_constructor_copies(self):
        idx = np.array([0, 2])
        T = SupportSet(idx, 4)
        idx[0] = 3
        assert list(T) == [0, 2] and not T.indices.flags.writeable

    def test_union_and_complement(self):
        a = SupportSet(np.array([1, 5]), 10)
        b = SupportSet(np.array([2, 5, 9]), 10)
        assert list(a.union(b)) == [1, 2, 5, 9]
        assert list(a.complement()) == [0, 2, 3, 4, 6, 7, 8, 9]

    def test_from_any_sorts_and_dedupes(self):
        assert list(SupportSet.from_any([3, 1, 3], 5)) == [1, 3]

    def test_embed_inverts_restriction(self):
        T = SupportSet(np.array([0, 2]), 4)
        x = embed(np.array([1.5, -2.5]), T)
        assert np.array_equal(x, [1.5, 0.0, -2.5, 0.0])
        assert support_of(x) == T


def assert_trusted(T, n):
    """``T`` is what the validating constructor makes of its own indices."""
    assert T.indices.dtype == np.int64 and T.indices.ndim == 1
    assert not T.indices.flags.writeable
    assert T.n == n
    assert T == SupportSet(T.indices, n)


vectors = st.lists(
    st.one_of(
        # a small alphabet, so that ties and exact zeros are common
        st.sampled_from([0.0, 1.0, -1.0, 2.0, 1j, -2j, 1 + 1j, float("nan")]),
        st.complex_numbers(max_magnitude=4, allow_infinity=False),
    ),
    max_size=24,
)


class TestTrustedSupports:
    """Supports the package computes skip the constructor's checks; they
    must still be what the checked constructor would accept."""

    @settings(max_examples=200, deadline=None)
    @given(vectors, st.booleans(), st.integers(0, 30))
    def test_computed_supports_are_valid(self, entries, real, s):
        from cosamp.recovery import identify

        x = np.array(entries, dtype=np.complex128)
        if real:
            x = x.real.copy()
        n = x.size
        for width in (s, 0, n):
            _, supp = best_s_approx(x, width)
            assert_trusted(supp, n)
            assert_trusted(identify(x, width), n)
            assert identify(x, width) == supp
        exact = support_of(x)
        assert_trusted(exact, n)
        assert_trusted(supp.union(exact), n)
        want = np.union1d(supp.indices, exact.indices)
        assert np.array_equal(supp.union(exact).indices, want)
        assert_trusted(exact.complement(), n)

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_empty_and_full(self, n):
        assert_trusted(SupportSet.empty(n), n)
        assert_trusted(SupportSet.full(n), n)
        assert len(SupportSet.empty(n)) == 0 and list(SupportSet.full(n)) == list(range(n))

    def test_union_of_empty_sides(self):
        a, e = SupportSet(np.array([1, 4]), 6), SupportSet.empty(6)
        assert a.union(e) == a and e.union(a) == a and e.union(e) == e
        assert_trusted(e.union(e), 6)


class TestIndexReader:
    """``SupportSet(indices, n)`` and ``SupportSet.from_any`` read integers only: a
    fractional, bool or string index is refused rather than truncated or cast, and so
    is an ``n`` that is not a nonnegative integer.  Integer input builds what it did."""

    REFUSED = {
        "fractions": [0.5, 1.7],
        "integral floats": [0.0, 1.0],
        "float array": np.array([0.0, 2.0]),
        "a bool among ints": [True, 2],
        "numpy bool among ints": [np.True_, 2],
        "bools": [False, True],
        "bool array": np.array([False, True]),
        "strings": ["1", "2"],
        "complex": [1 + 0j],
        "objects": np.array([1, 2], dtype=object),
    }

    @pytest.mark.parametrize("indices", REFUSED.values(), ids=REFUSED.keys())
    @pytest.mark.parametrize("reader", ["init", "from_any"])
    def test_refuses_indices_that_are_not_integers(self, reader, indices):
        build = SupportSet if reader == "init" else SupportSet.from_any
        with pytest.raises(TypeError, match="an index must be an integer"):
            build(indices, 4)

    @pytest.mark.parametrize("n", [4.5, 4.0, True, "4", None, np.float64(4.0), -1],
                             ids=repr)
    @pytest.mark.parametrize("reader", ["init", "from_any"])
    def test_refuses_an_n_that_is_not_a_nonnegative_integer(self, reader, n):
        build = SupportSet if reader == "init" else SupportSet.from_any
        with pytest.raises((TypeError, ValueError), match="n must be"):
            build([0, 1], n)

    ACCEPTED = {
        "list": [0, 2],
        "tuple": (0, 2),
        "numpy ints": [np.int64(0), np.uint8(2)],
        "int32 array": np.array([0, 2], dtype=np.int32),
        "uint64 array": np.array([0, 2], dtype=np.uint64),
        "int64 array": np.array([0, 2]),
    }

    @pytest.mark.parametrize("indices", ACCEPTED.values(), ids=ACCEPTED.keys())
    @pytest.mark.parametrize("n", [4, np.int64(4), np.uint16(4)], ids=repr)
    def test_integers_build_what_they_did(self, indices, n):
        for supp in (SupportSet(indices, n), SupportSet.from_any(indices, n)):
            assert supp.indices.dtype == np.int64 and supp.indices.tolist() == [0, 2]
            assert not supp.indices.flags.writeable and supp.n is n
            assert supp == SupportSet._trusted(np.array([0, 2]), 4)

    @pytest.mark.parametrize("empty", [[], (), np.array([]), np.array([], dtype=np.int32)],
                             ids=repr)
    def test_an_empty_collection_of_any_dtype_is_the_empty_support(self, empty):
        for supp in (SupportSet(empty, 5), SupportSet.from_any(empty, 5)):
            assert supp == SupportSet.empty(5) and supp.indices.dtype == np.int64

    def test_from_any_still_sorts_and_drops_repeats(self):
        assert SupportSet.from_any([3, 1, 3, np.int64(0)], 4).indices.tolist() == [0, 1, 3]
