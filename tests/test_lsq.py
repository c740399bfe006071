"""Iterative least-squares solvers against the direct reference."""

import gc

import numpy as np
import pytest

from conftest import gated_operator, planted_instance
from cosamp import prng
from cosamp.lsq import (
    LsqConfig,
    LsqResult,
    RankDeficiencyError,
    cg_solve,
    direct_solve,
    richardson_solve,
    solve,
)
from cosamp.operators import (
    DenseOperator,
    SamplingOperator,
    dense_operator,
    gaussian_operator,
    identity_operator,
    partial_fourier_operator,
)
from cosamp.rip import gram_deviation
from cosamp.signals import SupportSet, as_samples


def orthonormal_op(n=8, cols=8, seed=0):
    g = prng.normals(seed, n * n).reshape(n, n)
    q, _ = np.linalg.qr(g)
    return dense_operator(q[:, :cols])


class ProductsOnly(SamplingOperator):
    """Delegates the four products and counts them; offers no closed-form Gram."""

    def __init__(self, inner):
        self.inner = inner
        self.m, self.n, self.is_complex = inner.m, inner.n, inner.is_complex
        self.products = 0

    def apply(self, x):
        self.products += 1
        return self.inner.apply(x)

    def adjoint(self, v):
        self.products += 1
        return self.inner.adjoint(v)

    def apply_sub(self, T, coeffs):
        self.products += 1
        return self.inner.apply_sub(T, coeffs)

    def adjoint_sub(self, T, v):
        self.products += 1
        return self.inner.adjoint_sub(T, v)


class Forwarding(ProductsOnly):
    """Also forwards every other attribute, as a tracing wrapper does."""

    def __getattr__(self, name):
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)


def partial_fourier_instance():
    op = partial_fourier_operator(64, 256, seed=9)
    # both ends of [0, N) are in T, so the Gram's index differences wrap around
    middle = prng.sample_without_replacement(3, 256, 22)
    T = SupportSet.from_any(np.concatenate([[0, 255], middle]), 256)
    return op, T, prng.complex_normals(4, 64), prng.complex_normals(5, len(T))


class TestRichardson:
    def test_orthonormal_columns_one_step_exact(self):
        op = orthonormal_op()
        T = SupportSet(np.array([1, 4, 6]), op.n)
        u = prng.normals(5, op.m)
        exact = op.adjoint_sub(T, u)
        z0 = prng.normals(6, 3)  # arbitrary start: M = 0 kills it in one step
        result = richardson_solve(op, T, u, z0, iterations=1)
        assert np.allclose(result.coefficients, exact, rtol=1e-12, atol=1e-14)

    def test_exact_solution_is_fixed_point(self):
        op = gaussian_operator(16, 32, seed=2)
        T = SupportSet(np.array([3, 8, 20]), 32)
        u = prng.normals(7, 16)
        z_star = direct_solve(op, T, u).coefficients
        result = richardson_solve(op, T, u, z_star, iterations=5)
        assert np.allclose(result.coefficients, z_star, rtol=1e-10, atol=1e-12)

    def test_converges_to_direct_reference(self):
        op = gaussian_operator(32, 64, seed=1)
        T = SupportSet(prng.sample_without_replacement(prng.mix_seed(1, 9), 64, 6), 64)
        assert gram_deviation(op, T) < 0.45  # contraction fast enough for 1e-8 in 25
        u = prng.normals(prng.mix_seed(1, 10), 32)
        want = direct_solve(op, T, u).coefficients
        got = richardson_solve(op, T, u, None, iterations=25).coefficients
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_contraction_ratio_bounded_by_gram_norm(self):
        op = gated_operator(16, seed=3)
        T = SupportSet(np.array([0, 4, 7, 11, 13]), 16)
        dev = gram_deviation(op, T)
        assert dev < 1
        u = prng.normals(11, 16)
        z_star = direct_solve(op, T, u).coefficients
        errors = [np.linalg.norm(np.zeros(5) - z_star)]
        for ell in range(1, 6):
            z = richardson_solve(op, T, u, None, iterations=ell).coefficients
            errors.append(np.linalg.norm(z - z_star))
        for prev, cur in zip(errors, errors[1:]):
            if prev > 1e-12 * np.linalg.norm(z_star):
                assert cur <= prev * (dev + 1e-10)

    def test_divergence_flagged_not_raised(self):
        op = dense_operator(3.0 * np.eye(4))  # ||Gram - I|| = 8: Richardson blows up
        T = SupportSet(np.array([0, 1]), 4)
        u = np.ones(4)
        result = richardson_solve(op, T, u, None, iterations=12)
        assert result.diverged

    def test_rejects_empty_support(self):
        with pytest.raises(ValueError):
            richardson_solve(identity_operator(4), SupportSet.empty(4), np.ones(4))


class TestConjugateGradient:
    def test_singleton_support_one_iteration(self):
        op = gaussian_operator(8, 16, seed=4)
        T = SupportSet(np.array([5]), 16)
        u = prng.normals(12, 8)
        want = direct_solve(op, T, u).coefficients
        got = cg_solve(op, T, u, None, iterations=1)
        assert np.allclose(got.coefficients, want, rtol=1e-12, atol=1e-14)
        assert got.iterations_used == 1

    def test_exact_solution_is_fixed_point(self):
        op = gaussian_operator(16, 32, seed=5)
        T = SupportSet(np.array([0, 9, 17, 30]), 32)
        u = prng.normals(13, 16)
        z_star = direct_solve(op, T, u).coefficients
        result = cg_solve(op, T, u, z_star, iterations=4)
        assert np.allclose(result.coefficients, z_star, rtol=1e-9, atol=1e-12)

    def test_finite_termination_matches_direct(self):
        op = gaussian_operator(24, 48, seed=6)
        T = SupportSet(np.array([2, 11, 23, 31, 40]), 48)
        u = prng.normals(14, 24)
        want = direct_solve(op, T, u).coefficients
        got = cg_solve(op, T, u, None, iterations=len(T)).coefficients
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_error_bound_from_condition_number(self):
        op = gated_operator(16, seed=8)
        T = SupportSet(np.array([1, 3, 6, 10, 14]), 16)
        cols = op.matrix[:, T.indices]
        eigs = np.linalg.eigvalsh(cols.T @ cols)
        kappa = eigs[-1] / eigs[0]
        rho = (np.sqrt(kappa) - 1) / (np.sqrt(kappa) + 1)
        u = prng.normals(15, 16)
        z_star = direct_solve(op, T, u).coefficients
        start_err = np.linalg.norm(z_star)
        for ell in range(1, 5):
            z = cg_solve(op, T, u, None, iterations=ell).coefficients
            assert np.linalg.norm(z - z_star) <= 2 * rho**ell * start_err + 1e-12

    def test_underflowed_curvature_raises(self):
        # rho = <r, r> = 1e-322 > 0 while d* Phi_T* Phi_T d = 1e-328 underflows to 0:
        # stopping there returned the warm start 0 against the exact answer 1e-155
        op = dense_operator([[1e-3]])
        assert direct_solve(op, SupportSet(np.array([0]), 1), [1e-158]).coefficients[0] > 0.0
        with pytest.raises(np.linalg.LinAlgError, match="curvature"):
            cg_solve(op, SupportSet(np.array([0]), 1), [1e-158])

    def test_complex_instance(self):
        op = __import__("cosamp").partial_fourier_operator(8, 16, seed=3)
        T = SupportSet(np.array([2, 7, 12]), 16)
        u = prng.complex_normals(16, 8)
        want = direct_solve(op, T, u).coefficients
        got = cg_solve(op, T, u, None, iterations=6).coefficients
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


class TestClosedFormGram:
    def test_cg_matches_product_path(self):
        op, T, u, z0 = partial_fourier_instance()
        fast = cg_solve(op, T, u, z0, iterations=3)
        slow = cg_solve(ProductsOnly(op), T, u, z0, iterations=3)
        scale = np.linalg.norm(slow.coefficients)
        assert np.linalg.norm(fast.coefficients - slow.coefficients) <= 1e-12 * scale
        assert fast.residual_samples_norm == pytest.approx(slow.residual_samples_norm, rel=1e-12)

    @pytest.mark.parametrize("solver", [cg_solve, richardson_solve])
    def test_forwarding_wrapper_is_bit_identical(self, solver):
        op, T, u, z0 = partial_fourier_instance()
        bare = solver(op, T, u, z0, iterations=3)
        wrapped = solver(Forwarding(op), T, u, z0, iterations=3)
        assert np.array_equal(wrapped.coefficients, bare.coefficients)
        assert wrapped.residual_samples_norm == bare.residual_samples_norm

    def test_cg_makes_two_products(self):
        op, T, u, z0 = partial_fourier_instance()
        wrapped = Forwarding(op)
        result = cg_solve(wrapped, T, u, z0, iterations=3)
        assert result.iterations_used == 3
        assert wrapped.products == 1  # the right-hand side
        residual = np.linalg.norm(u - op.apply_sub(T, result.coefficients))
        assert result.residual_samples_norm == pytest.approx(residual, rel=1e-12)
        assert wrapped.products == 2  # the residual, on first read
        assert result.residual_samples_norm == pytest.approx(residual, rel=1e-12)
        assert wrapped.products == 2  # kept: a second read makes no product

    def test_dense_keeps_product_path(self):
        op = ProductsOnly(gaussian_operator(16, 32, seed=2))
        T = SupportSet(np.array([3, 8, 20]), 32)
        result = cg_solve(op, T, prng.normals(7, 16), None, iterations=3)
        assert op.products == 1 + 2 * 4  # per normal product: Phi_T, then Phi_T*
        result.residual_samples_norm
        assert op.products == 1 + 2 * 4 + 1  # the residual, on first read
        result.residual_samples_norm
        assert op.products == 1 + 2 * 4 + 1

    @pytest.mark.parametrize("solver", [cg_solve, richardson_solve, direct_solve])
    def test_proxy_gives_the_same_solve_with_no_product(self, solver):
        # a closed-form Gram view reads Phi_T* u off the proxy Phi* u, which
        # equals adjoint_sub(T, u) bit for bit
        op, T, u, z0 = partial_fourier_instance()
        proxy = op.adjoint(u)
        assert np.array_equal(op.restricted(T).rhs(u, proxy), op.adjoint_sub(T, u))
        args = (z0, 3) if solver is not direct_solve else ()
        bare = solver(op, T, u, *args)
        wrapped = Forwarding(op)
        taken = solver(wrapped, T, u, *args, proxy=proxy)
        assert np.array_equal(taken.coefficients, bare.coefficients)
        expected = 0 if solver is not richardson_solve else 2  # its two residuals
        assert wrapped.products == expected
        assert taken.residual_samples_norm == bare.residual_samples_norm

    @pytest.mark.parametrize("solver", [cg_solve, richardson_solve, direct_solve])
    def test_dense_view_ignores_the_proxy(self, solver):
        # restricting a full gemv differs from the sliced product in the last
        # bits, so a view with no closed-form Gram keeps its own product
        op = gaussian_operator(16, 32, seed=2)
        T = SupportSet(np.array([3, 8, 20]), 32)
        u = prng.normals(7, 16)
        args = (None, 3) if solver is not direct_solve else ()
        bare = solver(op, T, u, *args)
        with_proxy = solver(op, T, u, *args, proxy=np.zeros(32))
        assert np.array_equal(with_proxy.coefficients, bare.coefficients)

    def test_direct_matches_product_path(self):
        op, T, u, _ = partial_fourier_instance()
        want = cg_solve(ProductsOnly(op), T, u, None, iterations=len(T)).coefficients
        got = direct_solve(op, T, u).coefficients
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


class TestResidualOnRead:
    """CG and the direct solve compute ||u - Phi_T z||_2 when it is first read,
    with the same bits as computing it at once."""

    CASES = [
        ("dense", lambda: gaussian_operator(16, 32, seed=2), lambda n: prng.normals(7, n)),
        ("complex_dense", lambda: dense_operator(
            prng.complex_normals(8, 16 * 32).reshape(16, 32) / 4.0),
         lambda n: prng.complex_normals(9, n)),
        ("partial_fourier", lambda: partial_fourier_operator(16, 32, seed=3),
         lambda n: prng.complex_normals(10, n)),
    ]

    @pytest.mark.parametrize("solver", ["cg", "direct"])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_late_read_equals_eager_norm(self, case, solver):
        _, make_op, make_u = case
        op = make_op()
        T = SupportSet(np.array([1, 5, 9, 30]), op.n)
        u = make_u(op.m)
        result = solve(op, T, u, None, LsqConfig(solver=solver))
        eager = np.linalg.norm(u - op.apply_sub(T, result.coefficients))
        assert result.residual_samples_norm == eager
        assert result.residual_samples_norm == eager

    def test_richardson_computes_it_at_once(self):
        op = ProductsOnly(gaussian_operator(16, 32, seed=2))
        T = SupportSet(np.array([3, 8, 20]), 32)
        result = richardson_solve(op, T, prng.normals(7, 16), None, iterations=3)
        products = op.products
        result.residual_samples_norm
        assert op.products == products

    @pytest.mark.parametrize("solver", ["cg", "direct"])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_later_writes_do_not_reach_the_residual(self, case, solver):
        # the value read late is the solve's, whatever the caller does to u
        # in between; the coefficients it was computed from are read-only
        _, make_op, make_u = case
        op = make_op()
        T = SupportSet(np.array([1, 5, 9, 30]), op.n)
        u = make_u(op.m)
        samples = u.copy()
        result = solve(op, T, samples, None, LsqConfig(solver=solver))
        eager = np.linalg.norm(u - op.apply_sub(T, result.coefficients))
        samples[:] = 0.0
        with pytest.raises(ValueError):
            result.coefficients[0] = 0.0
        assert result.residual_samples_norm == eager

    def test_read_only_samples_are_kept_as_they_are(self):
        op = gaussian_operator(16, 32, seed=2)
        T = SupportSet(np.array([3, 8, 20]), 32)
        u = as_samples(prng.normals(7, 16))
        result = cg_solve(op, T, u, None, iterations=3)
        assert result.residual_samples_norm == np.linalg.norm(
            u - op.apply_sub(T, result.coefficients))

    @pytest.mark.parametrize("solver", ["cg", "direct"])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_read_only_samples_made_writable_again_do_not_reach_the_residual(self, case,
                                                                            solver):
        # a read-only u can have its flag flipped back and be written: the residual
        # read afterwards is still that of the samples solved
        _, make_op, make_u = case
        op = make_op()
        T = SupportSet(np.array([1, 5, 9, 30]), op.n)
        u = as_samples(make_u(op.m))
        result = solve(op, T, u, None, LsqConfig(solver=solver))
        eager = np.linalg.norm(u - op.apply_sub(T, result.coefficients))
        u.flags.writeable = True
        u[:] = 0.0
        assert result.residual_samples_norm == eager

    def test_the_named_stale_residual_reads_that_of_the_samples_solved(self):
        op = gaussian_operator(12, 40, seed=53)
        T = SupportSet(np.array([3, 7, 20, 31]), 40)
        u = as_samples(np.arange(12.0))
        result = cg_solve(op, T, u)
        solved = float(np.linalg.norm(u - op.apply_sub(T, result.coefficients)))
        u.flags.writeable = True
        u[:] = 0.0
        assert result.residual_samples_norm == solved == pytest.approx(19.04, abs=0.01)

    def test_a_given_residual_is_returned(self):
        result = LsqResult(np.array([1.0, 2.0]), 3, 0.5)
        assert result.residual_samples_norm == 0.5

    def test_repr_shows_no_function(self):
        op = gaussian_operator(16, 32, seed=2)
        result = cg_solve(op, SupportSet(np.array([3, 8]), 32), prng.normals(7, 16))
        assert "lambda" not in repr(result)


class TestDirect:
    def test_identity_restricts_samples(self):
        op = identity_operator(6)
        T = SupportSet(np.array([1, 4]), 6)
        u = prng.normals(17, 6)
        result = direct_solve(op, T, u)
        assert np.allclose(result.coefficients, u[[1, 4]], rtol=1e-14, atol=0)

    def test_orthonormal_columns_give_adjoint(self):
        op = orthonormal_op(seed=18)
        T = SupportSet(np.array([0, 2, 5]), op.n)
        u = prng.normals(19, op.m)
        result = direct_solve(op, T, u)
        assert np.allclose(result.coefficients, op.adjoint_sub(T, u), rtol=1e-12, atol=1e-14)

    def test_normal_equation_residual_vanishes(self):
        op = gaussian_operator(12, 20, seed=20)
        T = SupportSet(np.array([0, 3, 9, 15]), 20)
        u = prng.normals(21, 12)
        z = direct_solve(op, T, u).coefficients
        residual = op.adjoint_sub(T, u - op.apply_sub(T, z))
        assert np.linalg.norm(residual) <= 1e-10

    def test_rank_deficiency_reports_eigenvalue(self):
        mat = prng.normals(22, 6 * 8).reshape(6, 8)
        mat[:, 4] = mat[:, 1]
        op = dense_operator(mat)
        T = SupportSet(np.array([1, 4]), 8)
        with pytest.raises(RankDeficiencyError) as excinfo:
            direct_solve(op, T, np.ones(6))
        assert excinfo.value.smallest_eigenvalue <= 1e-12


class TestInputChecks:
    """Each solve checks its support, samples and warm start where they enter."""

    CASES = [
        ("dense", gaussian_operator(16, 32, seed=2)),
        ("partial_fourier", partial_fourier_operator(16, 32, seed=3)),
    ]

    @pytest.mark.parametrize("solver", ["cg", "richardson", "direct"])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_wrong_sample_length(self, case, solver):
        _, op = case
        T = SupportSet(np.array([1, 5, 9]), op.n)
        for m in (op.m - 1, op.m + 1):
            with pytest.raises(ValueError):
                solve(op, T, np.ones(m), None, LsqConfig(solver=solver))

    @pytest.mark.parametrize("solver", [cg_solve, richardson_solve])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_wrong_warm_start_length(self, case, solver):
        _, op = case
        T = SupportSet(np.array([1, 5, 9]), op.n)
        for size in (2, 4):
            with pytest.raises(ValueError):
                solver(op, T, np.ones(op.m), np.ones(size))

    @pytest.mark.parametrize("solver", ["cg", "richardson", "direct"])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_support_of_other_dimension(self, case, solver):
        _, op = case
        T = SupportSet(np.array([1, 5, 9]), op.n + 1)
        with pytest.raises(ValueError):
            solve(op, T, np.ones(op.m), None, LsqConfig(solver=solver))


class TestPublicContract:
    """What a caller may rely on: array-likes in, and a warm start that stays the caller's."""

    CASES = [
        ("dense", gaussian_operator(16, 32, seed=2)),
        ("partial_fourier", partial_fourier_operator(16, 32, seed=3)),
    ]
    SOLVES = [
        ("cg", lambda op, T, u, z0: cg_solve(op, T, u, z0)),
        ("richardson", lambda op, T, u, z0: richardson_solve(op, T, u, z0)),
        ("solve-cg", lambda op, T, u, z0: solve(op, T, u, z0, LsqConfig("cg"))),
        ("solve-richardson", lambda op, T, u, z0: solve(op, T, u, z0, LsqConfig("richardson"))),
        ("solve-direct", lambda op, T, u, z0: solve(op, T, u, z0, LsqConfig("direct"))),
    ]

    @staticmethod
    def instance(op):
        T = SupportSet(np.array([1, 5, 9, 20]), op.n)
        x = np.zeros(op.n)
        x[T.indices] = [1.0, -2.0, 0.5, 3.0]
        u = op.apply(x) + 1e-3 * prng.normals(77, op.m)
        return T, u, np.array([0.9, -1.8, 0.4, 2.5], dtype=complex if op.is_complex else float)

    @pytest.mark.parametrize("name, run", SOLVES, ids=[n for n, _ in SOLVES])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_lists_give_the_arrays_result(self, case, name, run):
        _, op = case
        T, u, z0 = self.instance(op)
        want = run(op, T, u, z0)
        got = run(op, T, u.tolist(), z0.tolist())
        assert got.coefficients.tobytes() == want.coefficients.tobytes()
        assert got.residual_samples_norm == want.residual_samples_norm

    @pytest.mark.parametrize("name, run", SOLVES, ids=[n for n, _ in SOLVES])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_warm_start_is_never_aliased(self, case, name, run):
        _, op = case
        T, u, z0 = self.instance(op)
        before = z0.copy()
        result = run(op, T, u, z0)
        assert not np.shares_memory(result.coefficients, z0)
        assert z0.flags.writeable and z0.tobytes() == before.tobytes()

    @pytest.mark.parametrize("solver", [cg_solve, solve])
    def test_exact_warm_start_stays_the_callers(self, solver):
        # rho = 0 at once: CG returns the warm start's values without an iteration
        op = identity_operator(8)
        T = SupportSet(np.array([1, 3, 6]), 8)
        u = np.arange(8.0)
        z0 = u[T.indices].copy()
        result = solver(op, T, u, z0) if solver is cg_solve else solver(op, T, u, z0, LsqConfig())
        assert result.iterations_used == 0
        assert result.coefficients.tobytes() == z0.tobytes()
        assert not np.shares_memory(result.coefficients, z0)
        assert z0.flags.writeable
        z0[0] = -1.0  # the caller can still write it, and the result does not move
        assert result.coefficients[0] == 1.0


class TestDispatch:
    def test_solver_names(self):
        op = gated_operator(16, seed=23)  # contraction certain: every delta < 0.1
        T = SupportSet(np.array([4, 9]), 16)
        u = prng.normals(24, 16)
        want = direct_solve(op, T, u).coefficients
        for name in ("richardson", "cg", "direct"):
            cfg = LsqConfig(solver=name, iterations=30)
            got = solve(op, T, u, None, cfg).coefficients
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LsqConfig(solver="qr")
        with pytest.raises(ValueError):
            LsqConfig(iterations=0)


class TestWarmStartBound:
    def test_initial_iterate_distance(self, gated_16):
        # on a gated instance the merged-support LS solution stays within
        # 2.112 ||x - a|| + 1.06 ||e|| of the incoming approximation
        op, _ = gated_16
        import cosamp

        x, e, u = planted_instance(op, 2, seed=30, noise_norm=0.05)
        config = cosamp.RecoveryConfig(s=2, lsq=LsqConfig(solver="direct"))
        state = cosamp.initial_state(op, u, 2)
        for _ in range(6):
            state = cosamp.cosamp_iteration(state, op, u, config)
            a_prev_on_t = state.a_prev[state.T.indices]
            z_star = direct_solve(op, state.T, u).coefficients
            lhs = np.linalg.norm(a_prev_on_t - z_star)
            rhs = 2.112 * np.linalg.norm(x - state.a_prev) + 1.06 * np.linalg.norm(e)
            assert lhs <= rhs + 1e-12


class TestRestrictedView:
    @pytest.mark.parametrize("kind", ["dense", "partial_fourier"])
    def test_forwarding_view_matches_submatrix_actions(self, kind):
        if kind == "dense":
            inner = gaussian_operator(16, 32, seed=2)
            T = SupportSet(np.array([3, 8, 20]), 32)
        else:
            inner, T, _, _ = partial_fourier_instance()
        op = Forwarding(inner)
        view = op.restricted(T)
        z = prng.complex_normals(30, len(T))
        v = prng.complex_normals(31, op.m)
        assert np.array_equal(view.apply(z), inner.apply_sub(T, z))
        assert np.array_equal(view.adjoint(v), inner.adjoint_sub(T, v))
        assert np.array_equal(view.normal(z), inner.restricted(T).normal(z))
        assert np.array_equal(view.gram(), inner.restricted(T).gram())

    def test_forwarding_products_are_counted(self):
        op = Forwarding(gaussian_operator(16, 32, seed=2))
        view = op.restricted(SupportSet(np.array([3, 8, 20]), 32))
        view.normal(np.ones(3))
        view.adjoint(np.ones(16))
        assert op.products == 3

    @pytest.mark.parametrize("solver", [cg_solve, richardson_solve])
    def test_dense_override_is_used(self, solver):
        class Counted(DenseOperator):
            calls = 0

            def apply_sub(self, T, coeffs):
                Counted.calls += 1
                return super().apply_sub(T, coeffs)

        op = Counted(gaussian_operator(16, 32, seed=2).matrix)
        T = SupportSet(np.array([3, 8, 20]), 32)
        u = prng.normals(7, 16)
        result = solver(op, T, u, None, iterations=3)
        assert Counted.calls >= 4  # every normal product and the final residual
        bare = solver(gaussian_operator(16, 32, seed=2), T, u, None, iterations=3)
        assert np.array_equal(result.coefficients, bare.coefficients)

    @pytest.mark.parametrize("make", [gaussian_operator, partial_fourier_operator])
    def test_solve_leaves_no_reference_cycle(self, make):
        # a view that referenced itself would keep each Phi_T slice alive until GC
        op = make(64, 256, seed=3)
        T = SupportSet(np.arange(0, 256, 9), 256)
        u = prng.normals(8, op.m)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for solver in (cg_solve, richardson_solve):
                solver(op, T, u, None, iterations=3)
            direct_solve(op, T, u)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


class TestIterationsAreIntegers:
    """``LsqConfig.iterations`` is refused where it is built unless it is a Python or
    numpy integer; ``iterations=2.5`` used to fail only inside the solve."""

    @pytest.mark.parametrize("iterations", [2.5, 3.0, True, "3", None, np.float64(3.0)],
                             ids=repr)
    def test_refuses_a_non_integer(self, iterations):
        with pytest.raises(TypeError, match="iterations must be an integer"):
            LsqConfig(iterations=iterations)

    @pytest.mark.parametrize("iterations", [3, np.int64(3), np.uint8(3)], ids=repr)
    def test_accepts_an_integer(self, iterations):
        assert LsqConfig(iterations=iterations).iterations is iterations
