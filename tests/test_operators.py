"""Sampling operators against dense oracles and the adjoint identity."""

import tracemalloc

import numpy as np
import pytest

from cosamp import prng
from cosamp.operators import (
    DimensionMismatchError,
    GaussianOperator,
    IdentityOperator,
    PartialFourierOperator,
    SamplingOperator,
    dense_operator,
    gaussian_operator,
    identity_operator,
    partial_fourier_operator,
)
from cosamp.signals import SupportSet, as_samples, embed


def dft_submatrix_oracle(rows, n, m):
    """Explicit sqrt(N/m)-scaled unitary-DFT rows, built entrywise."""
    out = np.empty((len(rows), n), dtype=np.complex128)
    for r, row in enumerate(rows):
        for j in range(n):
            out[r, j] = np.exp(-2j * np.pi * row * j / n)
    return out / np.sqrt(m)


def random_signal(seed, n, complex_valued=False):
    if complex_valued:
        return prng.complex_normals(seed, n)
    return prng.normals(seed, n)


class TestIdentity:
    def test_apply_is_identity(self):
        op = identity_operator(5)
        x = random_signal(1, 5)
        assert np.array_equal(op.apply(x), x)
        assert np.array_equal(op.adjoint(x), x)

    def test_materialize(self):
        assert np.array_equal(identity_operator(3).materialize(), np.eye(3))


class TestPartialFourier:
    def test_full_row_set_is_unitary(self):
        op = partial_fourier_operator(8, 8, rows=np.arange(8))
        x = random_signal(3, 8, complex_valued=True)
        assert np.linalg.norm(op.apply(x)) == pytest.approx(np.linalg.norm(x), rel=1e-12)

    def test_matches_dense_dft_oracle(self):
        op = partial_fourier_operator(8, 32, seed=5)
        oracle = dft_submatrix_oracle(op.rows, 32, 8)
        x = random_signal(4, 32, complex_valued=True)
        got, want = op.apply(x), oracle @ x
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        v = random_signal(5, 8, complex_valued=True)
        got_adj, want_adj = op.adjoint(v), oracle.conj().T @ v
        assert np.linalg.norm(got_adj - want_adj) <= 1e-10 * np.linalg.norm(want_adj)

    def test_row_set_deterministic(self):
        a = partial_fourier_operator(8, 64, seed=9)
        b = partial_fourier_operator(8, 64, seed=9)
        assert np.array_equal(a.rows, b.rows)

    def test_sixteen_of_sixty_four_rows_match_oracle(self):
        op = partial_fourier_operator(16, 64, seed=10)
        oracle = dft_submatrix_oracle(op.rows, 64, 16)
        x = random_signal(11, 64, complex_valued=True)
        want = oracle @ x
        assert np.linalg.norm(op.apply(x) - want) <= 1e-10 * np.linalg.norm(want)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            partial_fourier_operator(4, 12, seed=0)

    def test_rejects_duplicate_rows(self):
        with pytest.raises(ValueError):
            partial_fourier_operator(2, 8, rows=[3, 3])

    def test_fast_apply_scaling(self):
        # one quadrupling of N: O(N log N) keeps the cost ratio well under 6x
        import time

        def best_time(op, x, repeats=30):
            best = np.inf
            for _ in range(repeats):
                t0 = time.perf_counter()
                op.apply(x)
                best = min(best, time.perf_counter() - t0)
            return best

        small = partial_fourier_operator(2**10, 2**12, seed=1)
        large = partial_fourier_operator(2**12, 2**14, seed=1)
        x_small = random_signal(6, 2**12, complex_valued=True)
        x_large = random_signal(7, 2**14, complex_valued=True)
        # Freeing one 8 MB block makes glibc raise its mmap and trim thresholds,
        # so the FFTs' scratch is reused from the heap whatever earlier tests
        # left there, and no timed apply faults in fresh pages.
        block = np.empty(2**20)
        del block
        best_time(small, x_small, repeats=3)  # warm the fft plan caches
        best_time(large, x_large, repeats=3)
        ratio = best_time(large, x_large) / best_time(small, x_small)
        assert ratio < 6.0


class TestClosedFormGram:
    @pytest.mark.parametrize("n", [8, 16, 64, 256, 1024])
    def test_matches_materialized_gram(self, n):
        op = partial_fourier_operator(max(n // 4, 2), n, seed=n)
        # both ends of [0, N) are in T, so the index differences wrap around
        middle = prng.sample_without_replacement(n + 1, n - 3, min(n - 3, 12)) + 2
        T = SupportSet.from_any(np.concatenate([[0, 1, n - 1], middle]), n)
        cols = op.materialize()[:, T.indices]
        gram = op.gram_sub(T)
        assert gram.shape == (len(T), len(T))
        assert np.abs(gram - cols.conj().T @ cols).max() <= 1e-12

    def test_kernel_is_read_only(self):
        op = partial_fourier_operator(16, 64, seed=1)
        assert op.gram_kernel.shape == (64,) and not op.gram_kernel.flags.writeable

    def test_rejects_support_of_other_dimension(self):
        op = partial_fourier_operator(16, 64, seed=1)
        with pytest.raises(DimensionMismatchError):
            op.gram_sub(SupportSet(np.array([0, 3]), 32))

    def test_gram_matrix_uses_closed_form(self):
        op = partial_fourier_operator(16, 64, seed=2)
        T = SupportSet(np.array([0, 5, 63]), 64)
        assert np.array_equal(op.restricted(T).gram(), op.gram_sub(T))

    @pytest.mark.parametrize("size", [0, 1, 2, 5, 255, 256, 257, 700])
    def test_row_blocks_give_the_one_gather(self, size):
        # a block holds 2**16 lags, so |T| = 257 and 700 take ragged row blocks
        n = 2**16
        op = partial_fourier_operator(2**12, n, seed=size)
        idx = np.unique(np.concatenate([[0, n - 1], prng.sample_without_replacement(size, n, size)]))
        T = SupportSet(idx[:size], n)
        want = op.gram_kernel[(T.indices[:, None] - T.indices[None, :]) % n]
        got = op.gram_sub(T)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_storage_is_the_gram_plus_one_block(self):
        op = partial_fourier_operator(2**14, 2**16, seed=3)
        T = SupportSet(prng.sample_without_replacement(4, 2**16, 2048), 2**16)
        tracemalloc.start()
        try:
            gram = op.gram_sub(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gram.nbytes == 16 * 2048**2
        assert peak <= gram.nbytes + 8 * 2**20

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_dense_gram_is_exact(self, complex_valued):
        mat = prng.normals(4, 12 * 40).reshape(12, 40)
        if complex_valued:
            mat = mat + 1j * prng.normals(5, 12 * 40).reshape(12, 40)
        op = dense_operator(mat)
        T = SupportSet(np.array([0, 7, 21, 39]), 40)
        cols = op.matrix[:, T.indices]
        assert not hasattr(op, "gram_sub")
        assert np.array_equal(op.restricted(T).gram(), cols.conj().T @ cols)


def view_cases():
    """(name, operator, support) for each operator kind the view serves."""
    real = prng.normals(41, 24 * 80).reshape(24, 80)
    cplx = real + 1j * prng.normals(42, 24 * 80).reshape(24, 80)
    T = SupportSet(np.array([0, 3, 17, 40, 79]), 80)
    return [
        ("dense-real", dense_operator(real), T),
        ("dense-complex", dense_operator(cplx), T),
        ("gaussian", gaussian_operator(24, 80, seed=43), T),
        ("partial-fourier", partial_fourier_operator(16, 64, seed=44),
         SupportSet(np.array([0, 9, 33, 63]), 64)),
        ("identity", identity_operator(80), T),
    ]


def column_loop_gram(op, T):
    """Phi_T* Phi_T from single-column ``apply_sub`` products."""
    dtype = np.complex128 if op.is_complex else np.float64
    cols = np.empty((op.m, len(T)), dtype=dtype)
    for j in range(len(T)):
        single = SupportSet(T.indices[j : j + 1], op.n)
        cols[:, j] = op.apply_sub(single, np.ones(1, dtype=dtype))
    return cols.conj().T @ cols


class TestRestrictedView:
    @pytest.mark.parametrize("case", view_cases(), ids=lambda c: c[0])
    def test_products_match_submatrix_actions(self, case):
        _, op, T = case
        view = op.restricted(T)
        for seed in range(3):
            z = random_signal(50 + seed, len(T), complex_valued=op.is_complex)
            v = random_signal(60 + seed, op.m, complex_valued=op.is_complex)
            assert np.array_equal(view.apply(z), op.apply_sub(T, z))
            assert np.array_equal(view.adjoint(v), op.adjoint_sub(T, v))
            if hasattr(op, "gram_sub"):
                assert np.array_equal(view.normal(z), op.gram_sub(T) @ z)
                slow = op.adjoint_sub(T, op.apply_sub(T, z))
                assert np.abs(view.normal(z) - slow).max() <= 1e-12 * np.abs(slow).max()
            else:
                assert np.array_equal(view.normal(z), op.adjoint_sub(T, op.apply_sub(T, z)))

    @pytest.mark.parametrize("complex_valued", [False, True])
    @pytest.mark.parametrize("shape", [(1, 1), (7, 30), (40, 40), (64, 300)])
    def test_dense_gram_equals_column_loop(self, shape, complex_valued):
        m, n = shape
        mat = prng.normals(m * n, m * n).reshape(m, n)
        if complex_valued:
            mat = mat + 1j * prng.normals(m * n + 1, m * n).reshape(m, n)
        op = dense_operator(mat)
        for size in sorted({1, min(3, n), min(17, n), n}):
            T = SupportSet(prng.sample_without_replacement(size, n, size), n)
            assert np.array_equal(op.restricted(T).gram(), column_loop_gram(op, T))

    def test_dense_view_slices_once(self):
        op = gaussian_operator(16, 64, seed=45)
        T = SupportSet(np.array([2, 5, 60]), 64)
        view = op.restricted(T)
        assert np.array_equal(view.sub, op.matrix[:, T.indices])
        assert not np.shares_memory(view.sub, op.matrix)  # products never gather again

    def test_subclass_override_gets_base_view(self):
        class Doubled(GaussianOperator):
            def apply_sub(self, T, coeffs):
                return 2.0 * super().apply_sub(T, coeffs)

        op = Doubled(16, 64, seed=46)
        T = SupportSet(np.array([1, 8]), 64)
        z = random_signal(47, 2)
        view = op.restricted(T)
        assert np.array_equal(view.apply(z), op.apply_sub(T, z))
        assert np.array_equal(view.gram(), column_loop_gram(op, T))

    @pytest.mark.parametrize("case", view_cases(), ids=lambda c: c[0])
    def test_generic_materialize_uses_view_columns(self, case):
        _, op, _ = case

        class ApplyOnly(SamplingOperator):
            m, n, is_complex = op.m, op.n, op.is_complex

            def apply(self, x):
                return op.apply(x)

            def adjoint(self, v):
                return op.adjoint(v)

        cols = ApplyOnly().materialize()
        assert cols.dtype == (np.complex128 if op.is_complex else np.float64)
        assert np.abs(cols - op.materialize()).max() <= 1e-12

    def test_rejects_support_of_other_dimension(self):
        for _, op, _ in view_cases():
            with pytest.raises(DimensionMismatchError):
                op.restricted(SupportSet(np.array([0, 3]), op.n + 1))

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_dense_normal_is_adjoint_of_apply(self, complex_valued):
        # the sliced view's normal product skips the length checks, not the arithmetic
        mat = prng.normals(49, 24 * 80).reshape(24, 80)
        if complex_valued:
            mat = mat + 1j * prng.normals(50, 24 * 80).reshape(24, 80)
        op = dense_operator(mat)
        for size in (1, 5, 24, 80):
            T = SupportSet(prng.sample_without_replacement(size + 51, 80, size), 80)
            view = op.restricted(T)
            assert type(view).__name__ == "_SlicedView"
            for seed in range(3):
                z = random_signal(52 + seed, size, complex_valued=complex_valued)
                assert np.array_equal(view.normal(z), view.adjoint(view.apply(z)))

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_dense_rhs_is_kept_only_for_samples_that_cannot_change(self, complex_valued):
        mat = prng.normals(53, 12 * 40).reshape(12, 40)
        op = dense_operator(mat + 1j * mat[::-1] if complex_valued else mat)
        T = SupportSet(np.array([3, 7, 20, 31]), 40)
        view = op.restricted(T)
        u = random_signal(54, 12, complex_valued=complex_valued)
        assert np.array_equal(view.rhs(u), op.adjoint_sub(T, u))
        u *= 2.0  # a writable u may change between solves: its product is made again
        assert np.array_equal(view.rhs(u), op.adjoint_sub(T, u))
        frozen = as_samples(u)
        kept = view.rhs(frozen)
        assert view.rhs(frozen) is kept and not kept.flags.writeable
        assert np.array_equal(kept, op.adjoint_sub(T, frozen))
        assert np.array_equal(view.rhs(list(frozen)), kept)  # not kept, the same bits

    def test_dense_view_checks_lengths(self):
        view = gaussian_operator(16, 64, seed=48).restricted(SupportSet(np.array([1, 8]), 64))
        with pytest.raises(DimensionMismatchError):
            view.apply(np.ones(3))
        with pytest.raises(DimensionMismatchError):
            view.adjoint(np.ones(15))


class TestGaussian:
    def test_deterministic_for_fixed_seed(self):
        a = gaussian_operator(16, 64, seed=3)
        b = gaussian_operator(16, 64, seed=3)
        assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_adjoint_matches_conjugate_transpose(self):
        op = gaussian_operator(16, 64, seed=3)
        v = random_signal(8, 16)
        assert np.allclose(op.adjoint(v), op.matrix.T @ v, rtol=1e-12, atol=0)

    def test_entry_variance(self):
        op = gaussian_operator(64, 256, seed=10)
        assert np.var(op.matrix * np.sqrt(64)) == pytest.approx(1.0, rel=0.05)

    def test_column_norm_concentration(self):
        op = gaussian_operator(256, 512, seed=21)
        col_norms = np.linalg.norm(op.matrix, axis=0)
        assert col_norms.min() >= 0.7 and col_norms.max() <= 1.3

    def test_energy_preserved_on_average(self):
        x = random_signal(31, 128)
        x = x / np.linalg.norm(x)
        energies = [
            np.linalg.norm(gaussian_operator(64, 128, seed=t).apply(x)) ** 2
            for t in range(200)
        ]
        assert np.mean(energies) == pytest.approx(1.0, rel=0.10)

    def test_requires_m_at_most_n(self):
        with pytest.raises(ValueError):
            gaussian_operator(10, 5, seed=0)

    def test_storage_is_the_matrix_plus_one_block(self):
        tracemalloc.start()
        try:
            op = gaussian_operator(1024, 4096, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.matrix.nbytes == 8 * 1024 * 4096
        assert peak <= op.matrix.nbytes + 8 * 2**20

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3, 2**70])
    def test_seed_outside_u64_is_refused(self, seed):
        # the streams fold seeds modulo 2**64, so 2**64 + 3 would build seed 3's matrix
        with pytest.raises(ValueError, match="must lie in"):
            gaussian_operator(4, 8, seed)
        with pytest.raises(ValueError, match="must lie in"):
            partial_fourier_operator(4, 16, seed=seed)

    def test_largest_u64_seed_is_accepted(self):
        assert gaussian_operator(4, 8, 2**64 - 1).seed == 2**64 - 1
        assert partial_fourier_operator(4, 16, seed=2**64 - 1).seed == 2**64 - 1


class TestSubmatrixActions:
    @pytest.fixture()
    def op(self):
        return gaussian_operator(12, 24, seed=14)

    def test_full_support_equals_apply(self, op):
        T = SupportSet.full(op.n)
        c = random_signal(2, op.n)
        assert np.allclose(op.apply_sub(T, c), op.apply(c), rtol=1e-13, atol=0)
        v = random_signal(3, op.m)
        assert np.allclose(op.adjoint_sub(T, v), op.adjoint(v), rtol=1e-13, atol=0)

    def test_apply_sub_is_apply_of_embedding(self, op):
        T = SupportSet(np.array([1, 7, 20]), op.n)
        c = random_signal(4, 3)
        assert np.allclose(op.apply_sub(T, c), op.apply(embed(c, T)), rtol=1e-13, atol=0)

    def test_against_explicit_submatrix(self, op):
        T = SupportSet(np.array([2, 5, 13]), op.n)
        sub = op.matrix[:, T.indices]
        c = random_signal(5, 3)
        assert np.allclose(op.apply_sub(T, c), sub @ c, rtol=1e-12, atol=0)
        v = random_signal(6, op.m)
        assert np.allclose(op.adjoint_sub(T, v), sub.conj().T @ v, rtol=1e-12, atol=0)

    def test_matrix_free_submatrix_actions(self):
        op = partial_fourier_operator(8, 16, seed=2)
        dense = op.materialize()
        T = SupportSet(np.array([0, 3, 9]), 16)
        c = random_signal(7, 3, complex_valued=True)
        assert np.allclose(op.apply_sub(T, c), dense[:, T.indices] @ c, rtol=1e-10, atol=1e-14)


class TestAdjointConsistency:
    @pytest.mark.parametrize(
        "make_op",
        [
            lambda: identity_operator(24),
            lambda: gaussian_operator(12, 24, seed=4),
            lambda: partial_fourier_operator(8, 32, seed=4),
            lambda: dense_operator(prng.normals(40, 8 * 20).reshape(8, 20)),
        ],
    )
    def test_inner_product_identity(self, make_op):
        op = make_op()
        for trial in range(25):
            x = random_signal(prng.mix_seed(50, trial), op.n, complex_valued=True)
            v = random_signal(prng.mix_seed(51, trial), op.m, complex_valued=True)
            lhs = np.vdot(v, op.apply(x))
            rhs = np.vdot(op.adjoint(v), x)
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(v)

    @pytest.mark.parametrize("complex_v", [False, True])
    def test_complex_dense_adjoint_matches_the_conjugate_transpose(self, complex_v):
        op = dense_operator(prng.complex_normals(42, 64 * 96).reshape(64, 96))
        v = random_signal(43, 64, complex_valued=complex_v)
        assert op.adjoint(v).tobytes() == (op.matrix.conj().T @ v).tobytes()

    def test_complex_dense_adjoint_copies_no_matrix(self):
        op = dense_operator(prng.complex_normals(44, 256 * 1024).reshape(256, 1024))
        v = prng.complex_normals(45, 256)
        tracemalloc.start()
        try:
            op.adjoint(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < op.matrix.nbytes / 100


class TestDenseEquivalence:
    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
    def test_fast_paths_match_materialization(self, n):
        ops = [
            gaussian_operator(max(n // 2, 1), n, seed=n),
            partial_fourier_operator(max(n // 2, 1), n, seed=n),
        ]
        for op in ops:
            dense = op.materialize()
            for trial in range(10):
                x = random_signal(prng.mix_seed(n, trial), n, complex_valued=True)
                want = dense @ x
                got = op.apply(x)
                assert np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), 1e-30)


class TestDimensionChecks:
    def test_apply_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatchError):
            gaussian_operator(4, 8, seed=0).apply(np.zeros(7))

    def test_adjoint_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatchError):
            partial_fourier_operator(4, 8, seed=0).adjoint(np.zeros(8))

    def test_support_ambient_mismatch(self):
        op = gaussian_operator(4, 8, seed=0)
        with pytest.raises(DimensionMismatchError):
            op.apply_sub(SupportSet(np.array([0]), 9), np.ones(1))


# (m, N, |T|): a one-row operator, a one-column support, the 48 x 128 golden
# shape, a 128 x 48 slice, and gauss-compressible's 1024 x 4096 with |T| = 3 s.
DISPATCH_SHAPES = [(1, 16, 4), (48, 128, 1), (48, 128, 24), (128, 48, 48), (1024, 4096, 120)]


@pytest.fixture(scope="module", params=DISPATCH_SHAPES, ids=lambda s: "x".join(map(str, s)))
def dispatch_matrices(request):
    m, n, t = request.param
    real = prng.normals(m * 7 + n, m * n).reshape(m, n)
    cplx = real + 1j * prng.normals(m * 7 + n + 1, m * n).reshape(m, n)
    T = SupportSet(prng.sample_without_replacement(m + n + t, n, t), n)
    return {"real": real, "complex": cplx}, T


class TestProductDispatch:
    """Every dense product is the bytes of the ``@`` it stands for: ``ndarray.dot``
    when matrix and vector are both float64, ``@`` whenever either is complex."""

    @staticmethod
    def same_bytes(got, want):
        return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("vector", ["real", "complex"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_view_products_match_matmul(self, dispatch_matrices, kind, vector):
        matrices, T = dispatch_matrices
        mat = matrices[kind]
        m = mat.shape[0]
        view = dense_operator(mat).restricted(T)
        sub = mat[:, T.indices]
        for seed in range(2):
            z = random_signal(70 + seed, len(T), complex_valued=vector == "complex")
            v = random_signal(80 + seed, m, complex_valued=vector == "complex")
            assert self.same_bytes(view.apply(z), sub @ z)
            assert self.same_bytes(view.adjoint(v), sub.conj().T @ v)
            assert self.same_bytes(view.normal(z), sub.conj().T @ (sub @ z))

    @pytest.mark.parametrize("vector", ["real", "complex"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_operator_products_match_matmul(self, dispatch_matrices, kind, vector):
        matrices, T = dispatch_matrices
        mat = matrices[kind]
        m, n = mat.shape
        op = dense_operator(mat)
        x = random_signal(90, n, complex_valued=vector == "complex")
        v = random_signal(91, m, complex_valued=vector == "complex")
        z = random_signal(92, len(T), complex_valued=vector == "complex")
        assert self.same_bytes(op.apply(x), mat @ x)
        adjoint = (v.conj() @ mat).conj() if kind == "complex" else mat.T @ v
        assert self.same_bytes(op.adjoint(v), adjoint)
        assert self.same_bytes(op.apply_sub(T, z), mat[:, T.indices] @ z)
        assert self.same_bytes(op.adjoint_sub(T, v), mat[:, T.indices].conj().T @ v)

    def test_gaussian_matrix_is_one_read_only_array(self):
        op = gaussian_operator(96, 256, seed=5)
        want = prng.normals(5, 96 * 256).reshape(96, 256) / np.sqrt(96)
        assert self.same_bytes(op.matrix, want) and not op.matrix.flags.writeable
        assert (op.m, op.n, op.is_complex) == (96, 256, False)
        assert type(op.m) is int and type(op.n) is int


class TestOneDefinition:
    """The lowercase constructors are the classes, and a partial-Fourier row set is
    read by the ``SupportSet`` reader: integers in [0, N), refused otherwise."""

    def test_lowercase_names_are_the_classes(self):
        import cosamp

        assert cosamp.identity_operator is cosamp.IdentityOperator is IdentityOperator
        assert cosamp.dense_operator is cosamp.DenseOperator
        assert cosamp.gaussian_operator is cosamp.GaussianOperator is GaussianOperator
        assert cosamp.partial_fourier_operator is cosamp.PartialFourierOperator
        assert partial_fourier_operator is PartialFourierOperator

    @pytest.mark.parametrize("rows", [[1.5, 3.2], [1.0, 3.0], [True, 3], ["1", "3"],
                                      np.array([1.5, 3.0]), np.array([True, False])], ids=repr)
    def test_row_sets_that_are_not_integers_are_refused(self, rows):
        with pytest.raises(TypeError, match="an index must be an integer"):
            partial_fourier_operator(2, 8, rows=rows)

    @pytest.mark.parametrize("rows", [[1, 3, 3], [1, 3, 5], [3], [-1, 3], [3, 8]], ids=repr)
    def test_row_sets_of_the_wrong_count_or_range_are_refused(self, rows):
        # three entries with one repeat hold two distinct rows, yet are not a 2-row set
        with pytest.raises(ValueError):
            partial_fourier_operator(2, 8, rows=rows)

    @pytest.mark.parametrize("rows", [[5, 1, 3], (5, 1, 3), np.array([5, 1, 3], np.int32),
                                      np.array([1, 3, 5], np.uint64), [np.int64(5), 1, 3]],
                             ids=repr)
    def test_integer_row_sets_build_the_same_operator(self, rows):
        op = partial_fourier_operator(3, 8, rows=rows)
        assert op.rows.dtype == np.int64 and op.rows.tolist() == [1, 3, 5]
        assert not op.rows.flags.writeable and op.seed is None
        want = np.fft.ifft(np.isin(np.arange(8), [1, 3, 5]).astype(float)) * (8 / 3)
        assert op.gram_kernel.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", np.float64(1.0)], ids=repr)
    def test_seeds_that_are_not_integers_are_refused(self, seed):
        # 1.5 used to build seed 1's matrix and report .seed == 1
        with pytest.raises(TypeError, match="a seed must be an integer"):
            gaussian_operator(4, 8, seed)
        with pytest.raises(TypeError, match="a seed must be an integer"):
            partial_fourier_operator(4, 16, seed=seed)

    def test_numpy_integer_seeds_build_the_same_operator(self):
        assert gaussian_operator(4, 8, np.uint64(3)).matrix.tobytes() == \
            gaussian_operator(4, 8, 3).matrix.tobytes()
        assert partial_fourier_operator(4, 16, np.int64(3)).rows.tolist() == \
            partial_fourier_operator(4, 16, 3).rows.tolist()


class TestSizeReader:
    """Identity, Gaussian and partial-Fourier sizes go through one reader: integers
    (Python or numpy, not bools, floats or strings) with 0 < m <= N."""

    BUILDERS = {
        "identity n": lambda v: identity_operator(v),
        "gaussian m": lambda v: gaussian_operator(v, 8, 1),
        "gaussian n": lambda v: gaussian_operator(4, v, 1),
        "partial fourier m": lambda v: partial_fourier_operator(v, 16, seed=1),
        "partial fourier n": lambda v: partial_fourier_operator(4, v, seed=1),
    }

    @pytest.mark.parametrize("value", [2.5, 4.0, True, "4", None], ids=repr)
    @pytest.mark.parametrize("where", BUILDERS)
    def test_sizes_that_are_not_integers_are_refused(self, where, value):
        # identity_operator(2.5) used to build an operator with m = n = 2.5, and the
        # others failed inside numpy or on a bitwise & of a float
        with pytest.raises(TypeError, match=r"^(m|n) must be an integer, got "):
            self.BUILDERS[where](value)

    @pytest.mark.parametrize("where", BUILDERS)
    def test_sizes_out_of_order_are_refused(self, where):
        with pytest.raises(ValueError, match=r"^need 0 < m <= n, got m="):
            self.BUILDERS[where](0 if where.endswith("m") or where == "identity n" else 2)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint64, np.uint8])
    def test_numpy_integer_sizes_build_the_same_operator(self, kind):
        ident = identity_operator(kind(4))
        assert (ident.m, ident.n) == (4, 4) and type(ident.m) is int and type(ident.n) is int
        gauss, want = gaussian_operator(kind(4), kind(8), 1), gaussian_operator(4, 8, 1)
        assert gauss.matrix.tobytes() == want.matrix.tobytes()
        assert (type(gauss.m), type(gauss.n)) == (int, int)
        fourier, want = partial_fourier_operator(kind(4), kind(16), seed=1), \
            partial_fourier_operator(4, 16, seed=1)
        assert fourier.rows.tobytes() == want.rows.tobytes()
        assert fourier.gram_kernel.tobytes() == want.gram_kernel.tobytes()
        assert (fourier.m, fourier.n) == (4, 16) and type(fourier.m) is int


class TestKeptRhs:
    """The dense view keeps Phi_T* u keyed on u's dtype, shape and bytes, so no
    change to u, however made, returns the product of other samples."""

    def setup_method(self):
        self.op = gaussian_operator(12, 40, seed=53)
        self.T = SupportSet(np.array([3, 7, 20, 31]), 40)
        self.view = self.op.restricted(self.T)

    def test_samples_written_after_their_flag_is_flipped_get_a_fresh_product(self):
        u = as_samples(np.arange(12.0))
        kept = self.view.rhs(u)
        assert self.view.rhs(u) is kept
        u.flags.writeable = True
        u[:] = 100.0
        assert np.array_equal(self.view.rhs(u), self.op.adjoint_sub(self.T, u))
        assert not np.array_equal(self.view.rhs(u), kept)

    def test_the_key_holds_the_dtype_and_the_shape(self):
        u = as_samples(np.arange(12.0))
        kept = self.view.rhs(u)
        as_ints = u.view(np.int64)  # the same bytes read as integers
        assert np.array_equal(self.view.rhs(as_ints), self.op.adjoint_sub(self.T, as_ints))
        assert not np.array_equal(self.view.rhs(as_ints), kept)
        with pytest.raises(DimensionMismatchError):
            self.view.rhs(u.reshape(3, 4))

    def test_equal_samples_in_a_new_array_reuse_the_product(self):
        u = as_samples(np.arange(12.0))
        kept = self.view.rhs(u)
        assert self.view.rhs(np.arange(12.0)) is kept
