"""The recovery loop: identification, merging, iteration invariants,
halting rules, diagnostics, and determinism."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

import cosamp
from conftest import gated_operator, planted_instance
from cosamp import prng
from cosamp.experiment import BENCH_STEPS, TRACE_COLUMNS, report_payload, run_trial
from cosamp.lsq import LsqConfig, cg_solve
from cosamp.models import noise_fold
from cosamp.recovery import (
    FixedIterations,
    ProxyInfinityNorm,
    RecoveryConfig,
    SampleNorm,
    SolverFailure,
    check_halt,
    cosamp_iteration,
    identify,
    initial_state,
    iteration_diagnostics,
    merge_support,
    recover,
)
from cosamp.signals import SupportSet, support_of


class TestIdentify:
    def test_exact_nonzero_count(self):
        y = np.zeros(16)
        y[[2, 5, 9, 11]] = [1.0, -2.0, 0.5, 3.0]
        assert list(identify(y, 4)) == [2, 5, 9, 11]

    def test_all_equal_magnitudes_take_lowest_indices(self):
        assert list(identify(np.ones(10), 6)) == [0, 1, 2, 3, 4, 5]

    def test_matches_full_sort_oracle(self):
        y = prng.normals(404, 32)
        width = 8
        order = sorted(range(32), key=lambda i: (-abs(y[i]), i))
        assert list(identify(y, width)) == sorted(order[:width])

    def test_zero_proxy_gives_empty_set(self):
        assert len(identify(np.zeros(8), 4)) == 0


class TestMergeSupport:
    def test_empty_previous(self):
        omega = SupportSet(np.array([1, 3]), 8)
        assert merge_support(omega, SupportSet.empty(8)) == omega

    def test_idempotent(self):
        omega = SupportSet(np.array([2, 6]), 8)
        assert merge_support(omega, omega) == omega

    def test_sorted_union(self):
        a = SupportSet(np.array([1, 5]), 10)
        b = SupportSet(np.array([2, 5, 9]), 10)
        assert list(merge_support(a, b)) == [1, 2, 5, 9]


class TestIterationInvariants:
    def test_identity_recovers_in_one_iteration_exactly(self):
        op = cosamp.identity_operator(12)
        x = np.zeros(12)
        x[[1, 7]] = [2.0, -3.0]
        state = initial_state(op, x, 2)
        state = cosamp_iteration(state, op, x, RecoveryConfig(s=2))
        assert np.array_equal(state.a, x)
        assert not state.v.any()

    def test_initial_state_holds_its_own_arrays(self):
        op = cosamp.gaussian_operator(8, 16, seed=1)
        u = prng.normals(3, 8)
        state = initial_state(op, u, 2)
        assert not np.shares_memory(state.a, state.a_prev)
        assert not np.shares_memory(state.v, u)
        assert not state.a.any() and not state.a_prev.any()

    def test_zero_signal_stays_zero(self):
        op = cosamp.gaussian_operator(8, 16, seed=1)
        u = np.zeros(8)
        state = initial_state(op, u, 2)
        for _ in range(3):
            state = cosamp_iteration(state, op, u, RecoveryConfig(s=2))
            assert not state.a.any()
            assert not state.v.any()

    def test_cardinality_and_sample_identity(self):
        op = cosamp.gaussian_operator(32, 64, seed=2)
        x, _, u = planted_instance(op, 3, seed=40)
        config = RecoveryConfig(s=3)
        state = initial_state(op, u, 3)
        for _ in range(8):
            state = cosamp_iteration(state, op, u, config)
            assert len(state.omega) <= 2 * 3
            assert len(state.T) <= 3 * 3
            assert support_of(state.a).indices.size <= 3
            recomputed = u - op.apply(state.a)
            scale = max(np.linalg.norm(u), 1.0)
            assert np.linalg.norm(state.v - recomputed) <= 1e-12 * scale

    def test_zero_proxy_keeps_current_approximation(self):
        # consistent samples make v = 0, the proxy vanish, and the iteration
        # complete as a no-op
        from dataclasses import replace

        op = cosamp.gaussian_operator(16, 32, seed=14)
        a = cosamp.make_sparse(32, 2, "flat", position_seed=15, sign_seed=16)
        u = op.apply(a)
        state = replace(initial_state(op, u, 2), a=a, a_prev=a, v=u - op.apply(a))
        assert not state.v.any()  # bitwise zero: same computation both times
        follow = cosamp_iteration(state, op, u, RecoveryConfig(s=2))
        assert len(follow.omega) == 0
        assert np.array_equal(follow.a, a)
        assert not follow.v.any()

    @pytest.mark.parametrize("complex_op", [False, True])
    def test_state_carries_the_prune_support(self, complex_op):
        if complex_op:
            op = cosamp.partial_fourier_operator(32, 128, seed=5)
        else:
            op = cosamp.gaussian_operator(32, 128, seed=5)
        x = cosamp.make_sparse(128, 4, "exponential", alpha=0.5, position_seed=6, sign_seed=7)
        u = op.apply(x) + 1e-3 * prng.normals(8, op.m)
        config = RecoveryConfig(s=4)
        state = initial_state(op, u, 4)
        assert state.support is None  # unknown until a prune has run
        for _ in range(6):
            state = cosamp_iteration(state, op, u, config)
            assert state.support == support_of(state.a)
        report = recover(op, u, RecoveryConfig(s=4, halting=FixedIterations(6)))
        assert report.support == support_of(report.approximation) == state.support

    def test_replacing_a_drops_the_carried_support(self):
        op = cosamp.gaussian_operator(32, 128, seed=5)
        x = cosamp.make_sparse(128, 4, "flat", position_seed=6, sign_seed=7)
        u = op.apply(x)
        config = RecoveryConfig(s=4)
        state = cosamp_iteration(initial_state(op, u, 4), op, u, config)
        a = np.zeros(128)
        a[[0, 1]] = 1.0
        moved = dataclasses.replace(state, a=a)
        assert moved.support is None  # the loop sets it; replace cannot carry it over
        nxt = cosamp_iteration(moved, op, u, config)
        assert {0, 1} <= set(nxt.T.indices.tolist())

    def test_planted_error_sequence_converges(self):
        op = cosamp.gaussian_operator(32, 64, seed=3)
        x, _, u = planted_instance(op, 3, seed=41)
        report = recover(op, u, RecoveryConfig(s=3, halting=FixedIterations(20)), truth=x)
        errors = [row.err_l2 for row in report.trace]
        assert min(errors) <= 1e-6 * np.linalg.norm(x)
        reached = next(i for i, e in enumerate(errors) if e <= 1e-6 * np.linalg.norm(x))
        assert reached < 20
        for prev, cur in zip(errors[:reached], errors[1 : reached + 1]):
            assert cur <= prev + 1e-12


class TestRecover:
    def test_fixed_zero_iterations_returns_zero(self):
        op = cosamp.gaussian_operator(8, 16, seed=4)
        report = recover(op, np.ones(8), RecoveryConfig(s=2, halting=FixedIterations(0)))
        assert not report.approximation.any()
        assert report.iterations_run == 0
        assert report.halt_reason == "fixed_iterations"

    def test_zero_cap_outranks_a_positive_fixed_count(self):
        # the cap stops the run before the count is reached, so the cap is the reason
        op = cosamp.gaussian_operator(8, 16, seed=4)
        cfg = RecoveryConfig(s=2, halting=FixedIterations(5), max_iterations=0)
        report = recover(op, np.ones(8), cfg)
        assert report.iterations_run == 0
        assert report.halt_reason == "max_iterations"
        assert report.trace == ()

    def test_zero_samples_halt_immediately(self):
        op = cosamp.gaussian_operator(8, 16, seed=5)
        report = recover(op, np.zeros(8), RecoveryConfig(s=2, halting=SampleNorm(1e-6)))
        assert report.iterations_run == 0
        assert report.halt_reason == "sample_norm"
        assert not report.approximation.any()

    def test_final_error_is_the_last_rows_error_against_the_truth(self):
        op = cosamp.gaussian_operator(32, 128, seed=5)
        x = cosamp.make_sparse(128, 4, "flat", position_seed=6, sign_seed=7)
        cfg = RecoveryConfig(s=4, halting=FixedIterations(3))
        report = recover(op, op.apply(x), cfg, truth=x)
        assert report.final_error is not None
        assert report.final_error == report.trace[-1].err_l2
        assert report.final_error == float(np.linalg.norm(x - report.approximation))
        assert recover(op, op.apply(x), cfg).final_error is None
        capped = recover(op, op.apply(x), RecoveryConfig(s=4, max_iterations=0), truth=x)
        assert capped.trace == () and capped.final_error is None

    def test_default_cap_is_six_s_plus_one(self):
        op = cosamp.gaussian_operator(8, 64, seed=6)
        u = op.apply(prng.normals(42, 64))  # dense target: never converges exactly
        report = recover(op, u, RecoveryConfig(s=2))
        assert report.iterations_run == 6 * 3
        assert report.halt_reason == "max_iterations"

    def test_warns_when_undersampled_in_sparsity(self):
        op = cosamp.gaussian_operator(8, 16, seed=7)
        with pytest.warns(UserWarning, match="4 s"):
            recover(op, np.ones(8), RecoveryConfig(s=5, halting=FixedIterations(1)))

    def test_deterministic_reports(self):
        op = cosamp.gaussian_operator(32, 64, seed=8)
        x, _, u = planted_instance(op, 3, seed=42)
        cfg = RecoveryConfig(s=3, halting=[SampleNorm(1e-9), FixedIterations(30)])
        a = recover(op, u, cfg, truth=x)
        b = recover(op, u, cfg, truth=x)
        assert np.array_equal(a.approximation, b.approximation)
        assert a.iterations_run == b.iterations_run
        assert a.halt_reason == b.halt_reason
        assert [r.v_norm for r in a.trace] == [r.v_norm for r in b.trace]
        assert [r.err_l2 for r in a.trace] == [r.err_l2 for r in b.trace]

    def test_solver_failure_carries_iteration(self):
        mat = prng.normals(43, 8 * 16).reshape(8, 16)
        mat[:, 1] = mat[:, 0]  # identical columns make the Gram singular
        op = cosamp.dense_operator(mat)
        u = op.apply(np.eye(16)[0] + np.eye(16)[1])
        cfg = RecoveryConfig(s=2, lsq=LsqConfig(solver="direct"))
        with pytest.raises(SolverFailure) as excinfo:
            recover(op, u, cfg)
        assert excinfo.value.iteration == 1

    def test_underflowed_cg_curvature_is_a_solver_failure(self):
        # on the merged support CG's curvature underflows to 0 while its residual does not
        u = np.zeros(8)
        u[0] = 1e-158
        cfg = RecoveryConfig(s=1, halting=FixedIterations(3), lsq=LsqConfig(solver="cg"))
        with pytest.raises(SolverFailure, match="curvature") as excinfo:
            recover(cosamp.dense_operator(1e-3 * np.eye(8)), u, cfg)
        assert excinfo.value.iteration == 1
        assert isinstance(excinfo.value.cause, np.linalg.LinAlgError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, bad):
        op = cosamp.gaussian_operator(16, 64, seed=3)
        u = op.apply(np.eye(64)[5])
        u[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            recover(op, u, RecoveryConfig(s=2, halting=FixedIterations(5)))

    @pytest.mark.parametrize("op", [cosamp.gaussian_operator(16, 64, seed=3),
                                    cosamp.partial_fourier_operator(16, 64, seed=3)],
                             ids=["gaussian", "partial_fourier"])
    def test_trace_v_norm_is_the_residual_norm(self, op):
        # the row's v_norm is ||u - Phi_T a_k||_2 of that iteration's T and a_k, bit for bit
        x, _, u = planted_instance(op, 2, seed=50, noise_norm=0.01)
        report = recover(op, u, RecoveryConfig(s=2, halting=FixedIterations(5)), truth=x)
        assert [row.k for row in report.trace] == [1, 2, 3, 4, 5]
        state = initial_state(op, u, 2)
        for row in report.trace:
            state = cosamp_iteration(state, op, u, RecoveryConfig(s=2))
            a_k = recover(op, u, RecoveryConfig(s=2, halting=FixedIterations(row.k))).approximation
            T_k = state.T
            assert row.v_norm == float(np.linalg.norm(u - op.apply_sub(T_k, a_k[T_k.indices])))

    def test_wrong_sample_length_rejected(self):
        op = cosamp.gaussian_operator(16, 64, seed=3)
        with pytest.raises(ValueError, match="length"):
            recover(op, np.ones(15), RecoveryConfig(s=2))

    def test_non_finite_estimate_raises(self):
        class NanAdjointSub(cosamp.DenseOperator):
            def adjoint_sub(self, T, v):
                return np.full(len(T), np.nan)

        op = NanAdjointSub(prng.normals(44, 16 * 64).reshape(16, 64) / 4.0)
        u = op.apply(np.eye(64)[5])
        with pytest.raises(SolverFailure, match="non-finite") as excinfo:
            recover(op, u, RecoveryConfig(s=2, halting=FixedIterations(5)))
        assert excinfo.value.iteration == 1
        assert isinstance(excinfo.value.cause, np.linalg.LinAlgError)

    def test_noise_floor_on_gated_instance(self, gated_16):
        op, delta = gated_16
        assert delta <= 0.1
        x, e, u = planted_instance(op, 2, seed=48, noise_norm=0.1)
        report = recover(op, u, RecoveryConfig(s=2, halting=FixedIterations(20)))
        assert np.linalg.norm(x - report.approximation) <= 15 * np.linalg.norm(e)

    def test_solver_equivalence_on_well_conditioned_instance(self):
        op = gated_operator(16, seed=9)
        x, _, u = planted_instance(op, 2, seed=43)
        outputs = []
        for solver in ("richardson", "cg", "direct"):
            cfg = RecoveryConfig(
                s=2,
                halting=FixedIterations(10),
                lsq=LsqConfig(solver=solver, iterations=25),
            )
            outputs.append(recover(op, u, cfg).approximation)
        scale = np.linalg.norm(x)
        for first in outputs:
            for second in outputs:
                assert np.linalg.norm(first - second) <= 1e-6 * scale

    def test_storage_stays_linear_in_signal_length(self):
        n, m, s = 4096, 1024, 8
        op = cosamp.partial_fourier_operator(m, n, seed=10)
        x = cosamp.make_sparse(n, s, "flat", position_seed=1, sign_seed=2)
        u = op.apply(x)
        cfg = RecoveryConfig(s=s, halting=FixedIterations(5))
        recover(op, u, cfg)  # warm any lazy allocations
        tracemalloc.start()
        recover(op, u, cfg)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # a dense materialization would need m*n*16 = 67 MB; O(N) scratch stays far below
        assert peak < 50 * n * 16


class TestHaltingRules:
    @pytest.mark.parametrize("rule", [SampleNorm, ProxyInfinityNorm])
    @pytest.mark.parametrize("threshold", [-1e-9, float("nan")])
    def test_threshold_must_be_nonnegative(self, rule, threshold):
        with pytest.raises(ValueError, match="must be nonnegative"):
            rule(threshold)

    def test_sample_norm_fires_on_zero(self):
        op = cosamp.identity_operator(4)
        state = initial_state(op, np.zeros(4), 1)
        assert check_halt(state, SampleNorm(0.0))

    def test_sample_norm_zero_epsilon_needs_zero_norm(self):
        op = cosamp.identity_operator(4)
        state = initial_state(op, np.ones(4), 1)
        assert not check_halt(state, SampleNorm(0.0))

    def test_proxy_rule_threshold(self):
        op = cosamp.identity_operator(8)
        state = initial_state(op, np.zeros(8), 2)
        probe = type(state)(
            k=1, s=2, a=state.a, a_prev=state.a_prev, v=state.v,
            y=np.full(8, 0.2), omega=state.omega, T=state.T, b=None,
        )
        eta = 0.2 * np.sqrt(4.0)  # threshold: ||y||_inf <= eta / sqrt(2 s)
        assert check_halt(probe, ProxyInfinityNorm(eta))
        assert not check_halt(probe, ProxyInfinityNorm(eta * 0.99))

    @pytest.mark.parametrize(
        "rules, reason",
        [
            ([FixedIterations(5), FixedIterations(2)], "fixed_iterations"),
            ([SampleNorm(1e-300), SampleNorm(1e-1), FixedIterations(30)], "sample_norm"),
            ([ProxyInfinityNorm(1e-300), ProxyInfinityNorm(1e-1), FixedIterations(30)],
             "proxy_infinity_norm"),
        ],
        ids=["fixed", "sample", "proxy"],
    )
    def test_a_kind_fires_with_its_loosest_rule(self, rules, reason):
        # the run halts where any one of its rules alone would
        op = cosamp.gaussian_operator(32, 64, seed=3)
        x, _, u = planted_instance(op, 3, seed=41)
        both = recover(op, u, RecoveryConfig(s=3, halting=rules))
        first = min(
            recover(op, u, RecoveryConfig(s=3, halting=[rule, FixedIterations(30)])).iterations_run
            for rule in rules
        )
        assert (both.halt_reason, both.iterations_run) == (reason, first)
        assert 0 < first < 30

    def test_rules_are_read_on_every_run(self):
        op = cosamp.gaussian_operator(32, 64, seed=3)
        _, _, u = planted_instance(op, 3, seed=41)
        rules = [FixedIterations(3)]
        config = RecoveryConfig(s=3, halting=rules)
        assert recover(op, u, config).iterations_run == 3
        rules[0] = FixedIterations(1)
        assert recover(op, u, config).iterations_run == 1

    def test_proxy_halt_keeps_certified_approximation(self):
        # once the proxy is tiny, the loop stops before touching `a`
        op = cosamp.identity_operator(8)
        x = np.zeros(8)
        x[3] = 1.0
        u = x.copy()
        cfg = RecoveryConfig(s=1, halting=ProxyInfinityNorm(1e6))
        report = recover(op, u, cfg)
        assert report.halt_reason == "proxy_infinity_norm"
        assert report.iterations_run == 0

    def test_fixed_iterations_reason(self):
        op = cosamp.gaussian_operator(16, 32, seed=11)
        x, _, u = planted_instance(op, 2, seed=44)
        report = recover(op, u, RecoveryConfig(s=2, halting=FixedIterations(4)))
        assert report.iterations_run == 4
        assert report.halt_reason == "fixed_iterations"

    @pytest.mark.parametrize("fixed_first", [True, False])
    def test_sample_norm_outranks_fixed_count_on_the_same_iteration(self, fixed_first):
        op = cosamp.gaussian_operator(32, 64, seed=12)
        x, _, u = planted_instance(op, 3, seed=45)
        k = recover(op, u, RecoveryConfig(s=3, halting=SampleNorm(1e-8))).iterations_run
        assert 0 < k < 30
        rules = [FixedIterations(k), SampleNorm(1e-8)]
        if not fixed_first:
            rules.reverse()
        report = recover(op, u, RecoveryConfig(s=3, halting=rules))
        assert report.iterations_run == k
        assert report.halt_reason == "sample_norm"

    def test_any_rule_triggers(self):
        op = cosamp.gaussian_operator(32, 64, seed=12)
        x, _, u = planted_instance(op, 3, seed=45)
        cfg = RecoveryConfig(s=3, halting=[FixedIterations(40), SampleNorm(1e-8)])
        report = recover(op, u, cfg, truth=x)
        assert report.halt_reason == "sample_norm"
        assert report.iterations_run < 40

    @pytest.mark.parametrize(
        "halting",
        [
            [{"kind": "sample_norm", "epsilon": 1e-9}],
            "sample_norm",  # would iterate as a tuple of characters
            [SampleNorm(1e-9), None],
        ],
        ids=["dict", "string", "none_entry"],
    )
    def test_unknown_rule_rejected(self, halting):
        with pytest.raises(TypeError, match="unknown halting rule"):
            RecoveryConfig(s=3, halting=halting)

    def test_one_shot_iterator_rejected(self):
        # validating would use up the rules, and the loop would then run without them
        with pytest.raises(TypeError, match="iterator"):
            RecoveryConfig(s=3, halting=(r for r in [SampleNorm(1e-9)]))


class TestDiagnostics:
    def test_identity_instance_all_hold_with_slack(self):
        op = cosamp.identity_operator(12)
        x = np.zeros(12)
        x[[2, 9]] = [1.0, -0.5]
        cfg = RecoveryConfig(s=2, halting=FixedIterations(2), record_diagnostics=True,
                             lsq=LsqConfig(solver="direct"))
        report = recover(op, x.copy(), cfg, truth=x)
        assert report.step_audits
        for margins in report.step_audits:
            for margin in margins:
                assert margin.holds

    def test_merger_inequality_unconditional(self):
        # holds on any instance: T^c is contained in Omega^c
        op = cosamp.gaussian_operator(8, 24, seed=13)
        x = prng.normals(46, 24)
        u = op.apply(x)
        state = initial_state(op, u, 2)
        for _ in range(5):
            state = cosamp_iteration(state, op, u, RecoveryConfig(s=2))
            margins = {m.name: m for m in iteration_diagnostics(state, x, None)}
            assert margins["support_merger"].holds

    def test_gated_instance_full_chain(self, gated_16):
        op, delta = gated_16
        assert delta <= 0.1
        x, e, u = planted_instance(op, 2, seed=47, noise_norm=0.02)
        cfg = RecoveryConfig(s=2, lsq=LsqConfig(solver="direct"))
        state = initial_state(op, u, 2)
        for _ in range(8):
            state = cosamp_iteration(state, op, u, cfg)
            for margin in iteration_diagnostics(state, x, e):
                assert margin.holds, margin

    def test_requires_completed_iteration(self):
        op = cosamp.identity_operator(4)
        state = initial_state(op, np.ones(4), 1)
        with pytest.raises(ValueError):
            iteration_diagnostics(state, np.ones(4), None)


class TestOneEngine:
    @pytest.mark.parametrize(
        "op",
        [
            cosamp.gaussian_operator(32, 64, seed=15),
            cosamp.partial_fourier_operator(32, 128, seed=16),
        ],
        ids=["gaussian", "partial_fourier"],
    )
    def test_stepping_matches_recover_bit_for_bit(self, op, monkeypatch):
        # recover and cosamp_iteration share their step code, so k steps
        # from the initial state are exactly recover with FixedIterations(k)
        x, _, u = planted_instance(op, 3, seed=49, noise_norm=0.01)
        merged = []

        def spy(omega, prev):
            merged.append(merge_support(omega, prev))
            return merged[-1]

        state = initial_state(op, u, 3)
        for k in range(1, 7):
            state = cosamp_iteration(state, op, u, RecoveryConfig(s=3))
            merged.clear()
            with monkeypatch.context() as patch:
                patch.setattr(cosamp.recovery, "merge_support", spy)
                report = recover(op, u, RecoveryConfig(s=3, halting=FixedIterations(k)))
            assert report.iterations_run == k
            assert np.array_equal(report.approximation, state.a)
            T_k = state.T
            assert np.array_equal(u - op.apply_sub(T_k, report.approximation[T_k.indices]),
                                  state.v)
            assert report.trace[-1].v_norm == float(np.linalg.norm(state.v))
            assert merged[-1] == state.T

    def test_stepping_rejects_non_finite_samples(self):
        op = cosamp.gaussian_operator(16, 64, seed=3)
        u = op.apply(np.eye(64)[5])
        u[2] = np.nan
        state = initial_state(op, u, 2)
        with pytest.raises(ValueError, match="sample vector contains non-finite"):
            cosamp_iteration(state, op, u, RecoveryConfig(s=2))


class TestResultsCompareByIdentity:
    """Frozen results that hold arrays compare by identity instead of raising
    on an array's ambiguous truth value, and hash."""

    @staticmethod
    def make_results():
        op = cosamp.gaussian_operator(16, 32, seed=3)
        x = cosamp.make_sparse(32, 2, "flat", position_seed=4, sign_seed=5)
        u = op.apply(x)
        config = RecoveryConfig(s=2, halting=FixedIterations(2))
        cfg = {
            "version": "config_v1",
            "master_seed": 7,
            "operator": {"kind": "gaussian", "m": 16, "n": 64},
            "signal": {"kind": "sparse", "n": 64, "s": 3, "law": "flat"},
            "noise": None,
            "recovery": {"s": 3},
        }
        return (
            cg_solve(op, SupportSet(np.arange(4), 32), u),
            cosamp_iteration(initial_state(op, u, 2), op, u, config),
            recover(op, u, config),
            run_trial(cfg),
            noise_fold(op, prng.normals(6, 32), 2),
        )

    def test_equal_values_are_distinct_results(self):
        for first, second in zip(self.make_results(), self.make_results()):
            assert first == first
            assert first != second
            assert hash(first) != hash(second)


class TestFrozenOutputs:
    """Three seeded recoveries pinned by ``float.hex``: the support, the
    approximation's nonzero entries (real, imaginary) and, per iteration,
    ``v_norm``, ``y_inf``, ``err_l2`` and ``err_linf``."""

    FROZEN = {
        "gaussian": {
            "support": [13, 35, 73, 86],
            "entries": [
                "-0x1.ffdde41548db8p-1", "-0x1.fe3473f80a1afp-1",
                "0x1.0005e0c697648p+0", "-0x1.000fd86c44fb9p+0",
            ],
            "trace": [
                ("0x1.5d860a870c626p-4", "0x1.6acf7f77be6a1p+0",
                 "0x1.d10139d9c33cep-4", "0x1.69726edb21260p-4"),
                ("0x1.58c8bbc5c509ap-7", "0x1.7acdd54464cb2p-5",
                 "0x1.5892bd04894fbp-7", "0x1.4ef26e46c4600p-7"),
                ("0x1.f76ac018d5c35p-8", "0x1.807ba92e0a376p-8",
                 "0x1.ce0c928fa5714p-9", "0x1.cb8c07f5e5100p-9"),
            ],
        },
        "complex_dense": {
            "support": [60, 61, 78, 123],
            "entries": [
                ("0x1.269e98a8aebaep-3", "0x1.621a776bcc95bp+0"),
                ("0x1.1fdf958ff5c10p+0", "0x1.3e770d7e8bcdcp+0"),
                ("0x1.64bcacd542874p-3", "-0x1.45f7c0eb907c3p-2"),
                ("-0x1.67333014a0a34p-2", "0x1.e4385ef702458p-4"),
            ],
            "trace": [
                ("0x1.b5215665c82fcp-3", "0x1.c27d6b912ca84p+0",
                 "0x1.9da4318b5f3b9p-3", "0x1.176875057b300p-3"),
                ("0x1.cd9e107735381p-6", "0x1.28450b340488dp-3",
                 "0x1.b2d90f211e62cp-6", "0x1.1db3e3eee6de2p-6"),
                ("0x1.1aef4b283b9acp-8", "0x1.3a72a6bddf6e1p-6",
                 "0x1.061ee17755d08p-8", "0x1.721b38082bb4dp-9"),
            ],
        },
        "partial_fourier": {
            "support": [54, 83, 108, 112, 126],
            "entries": [
                ("0x1.0048d32932946p+0", "0x1.936f301b91bdcp-10"),
                ("0x1.0010de3bb7ddcp+0", "0x1.33da7bb36e133p-12"),
                ("0x1.00265422a32b4p+0", "-0x1.38f9800a0b459p-10"),
                ("-0x1.0005a1be7b5e7p+0", "-0x1.19758634aca77p-15"),
                ("0x1.ff7e85c8ed007p-1", "0x1.125e9ce287e40p-12"),
            ],
            "trace": [
                ("0x1.c202e05290295p-8", "0x1.49ae09896958bp+0",
                 "0x1.02fccf12030a1p-9", "0x1.74719b4f16bafp-10"),
                ("0x1.c73c0e4eee6a0p-8", "0x1.1f8b5e30d31f9p-9",
                 "0x1.2ee9ea63d1bdcp-9", "0x1.bc42e9ca37a2ap-10"),
                ("0x1.ca1c79867e54ep-8", "0x1.2249f7ff21b57p-9",
                 "0x1.501dbcd7b9ca4p-9", "0x1.f19bdf258c718p-10"),
            ],
        },
    }

    @staticmethod
    def instance(name):
        if name == "gaussian":
            op = cosamp.gaussian_operator(64, 128, seed=71)
            x = cosamp.make_sparse(128, 4, "flat", position_seed=72, sign_seed=73)
            e = 1e-3 * prng.normals(74, 64)
            return op, x, e, RecoveryConfig(
                s=4, halting=[SampleNorm(1e-9), FixedIterations(3)], lsq=LsqConfig(solver="cg")
            )
        if name == "complex_dense":
            mat = prng.complex_normals(81, 96 * 128).reshape(96, 128) / np.sqrt(96)
            T = SupportSet.from_any(prng.sample_without_replacement(83, 128, 4), 128)
            x = cosamp.embed(prng.complex_normals(82, 4), T)
            return cosamp.dense_operator(mat), x, None, RecoveryConfig(
                s=4,
                halting=[ProxyInfinityNorm(1e-9), FixedIterations(3)],
                lsq=LsqConfig(solver="richardson"),
            )
        op = cosamp.partial_fourier_operator(48, 128, seed=91)
        x = cosamp.make_sparse(128, 5, "flat", position_seed=92, sign_seed=93)
        e = 1e-3 * prng.complex_normals(94, 48)
        return op, x, e, RecoveryConfig(
            s=5, halting=FixedIterations(3), lsq=LsqConfig(solver="direct")
        )

    @pytest.mark.parametrize("name", ["gaussian", "complex_dense", "partial_fourier"])
    def test_bits_unchanged(self, name):
        op, x, e, cfg = self.instance(name)
        u = op.apply(x) if e is None else op.apply(x) + e
        report = recover(op, u, cfg, truth=x, noise=e)
        want = self.FROZEN[name]
        a = report.approximation
        assert (report.halt_reason, report.iterations_run) == ("fixed_iterations", 3)
        assert report.support.indices.tolist() == want["support"]
        assert support_of(a) == report.support
        if np.iscomplexobj(a):
            got = [(float(a[i].real).hex(), float(a[i].imag).hex()) for i in want["support"]]
        else:
            got = [float(a[i]).hex() for i in want["support"]]
        assert got == want["entries"]
        rows = [
            tuple(float(v).hex() for v in (row.v_norm, row.y_inf, row.err_l2, row.err_linf))
            for row in report.trace
        ]
        assert rows == want["trace"]


class Counting(cosamp.SamplingOperator):
    """Counts each product by name and forwards every other attribute (such
    as ``gram_sub``) to the operator it wraps, as a tracing wrapper does."""

    def __init__(self, inner):
        self.inner = inner
        self.m, self.n, self.is_complex = inner.m, inner.n, inner.is_complex
        self.calls = {}

    def _count(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1
        return getattr(self.inner, name)

    def apply(self, x):
        return self._count("apply")(x)

    def adjoint(self, v):
        return self._count("adjoint")(v)

    def apply_sub(self, T, coeffs):
        return self._count("apply_sub")(T, coeffs)

    def adjoint_sub(self, T, v):
        return self._count("adjoint_sub")(T, v)

    def __getattr__(self, name):
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)


def _report_bits(report):
    return (
        report.approximation.tobytes(),
        report.support.indices.tolist(),
        report.halt_reason,
        report.iterations_run,
        report.diverged_iterations,
        [tuple(float(v).hex() for v in (row.v_norm, row.y_inf, row.err_l2, row.err_linf))
         for row in report.trace],
    )


def dense_instances():
    """A real Gaussian and a complex dense 48 x 128 instance, 5-sparse and noisy."""
    gauss = cosamp.gaussian_operator(48, 128, seed=61)
    x = cosamp.make_sparse(128, 5, "exponential", alpha=0.7, position_seed=62, sign_seed=63)
    mat = prng.complex_normals(64, 48 * 128).reshape(48, 128) / np.sqrt(48)
    z = cosamp.embed(prng.complex_normals(65, 5), SupportSet(np.array([3, 40, 41, 90, 127]), 128))
    return [
        (gauss, x, gauss.apply(x) + 1e-2 * prng.normals(66, 48)),
        (cosamp.dense_operator(mat), z, mat @ z + 1e-2 * prng.complex_normals(67, 48)),
    ]


LOOPS = {
    "standard": recover,
    "residual": cosamp.recover_residual_variant,
    "prune_first": cosamp.recover_prune_first_variant,
}


class TestTwoProductIteration:
    """A partial-Fourier iteration makes only the proxy Phi* v and the update
    Phi a: the solve takes Phi_T* u off a proxy and its Gram in closed form,
    and nobody reads its residual."""

    @staticmethod
    def instance(noisy=False):
        op = cosamp.partial_fourier_operator(48, 128, seed=91)
        x = cosamp.make_sparse(128, 5, "flat", position_seed=92, sign_seed=93)
        u = op.apply(x)
        if noisy:
            u = u + 1e-3 * prng.complex_normals(94, 48)
        return op, x, u

    @pytest.mark.parametrize("solver", ["cg", "direct"])
    @pytest.mark.parametrize("loop", LOOPS, ids=str)
    def test_k_iterations_make_k_proxies_and_k_updates(self, loop, solver):
        op, x, u = self.instance(noisy=True)
        counted = Counting(op)
        cfg = RecoveryConfig(s=5, halting=FixedIterations(4), lsq=LsqConfig(solver=solver))
        report = LOOPS[loop](counted, u, cfg, truth=x)
        assert report.iterations_run == 4
        assert counted.calls == {"adjoint": 4, "apply": 4}

    @pytest.mark.parametrize("solver", ["cg", "richardson", "direct"])
    @pytest.mark.parametrize("loop", LOOPS, ids=str)
    def test_forwarded_runs_equal_bare_runs(self, loop, solver):
        # a wrapped dense operator gets the generic view, not the slice:
        # its products, and so its bits, must still be the slice's
        cfg = RecoveryConfig(
            s=5, halting=[SampleNorm(1e-9), FixedIterations(5)], lsq=LsqConfig(solver=solver)
        )
        for op, x, u in (self.instance(noisy=True), *dense_instances()):
            bare = LOOPS[loop](op, u, cfg, truth=x)
            forwarded = LOOPS[loop](Counting(op), u, cfg, truth=x)
            assert _report_bits(forwarded) == _report_bits(bare)

    @pytest.mark.parametrize("loop", ["standard", "residual"])
    def test_proxy_right_hand_side_is_adjoint_sub(self, loop, monkeypatch):
        # the standard loop solves against u with proxy Phi* u, the residual
        # variant against v_k with the iteration's proxy Phi* v_k
        from cosamp import lsq, variants

        op, x, u = self.instance(noisy=True)
        checked = []

        def spy(op_, T, samples, z0, config, proxy=None, view=None):
            assert proxy is not None
            assert np.array_equal(proxy[T.indices], op_.adjoint_sub(T, samples))
            checked.append(len(T))
            return lsq.solve(op_, T, samples, z0, config, proxy, view)

        module = cosamp.recovery if loop == "standard" else variants
        monkeypatch.setattr(module, "solve", spy)
        LOOPS[loop](op, u, RecoveryConfig(s=5, halting=FixedIterations(4)))
        assert len(checked) >= 3

    def test_stepping_has_no_proxy_and_matches_recover(self):
        # cosamp_iteration holds no Phi* u, so its solve makes the product itself
        op, x, u = self.instance()
        counted = Counting(op)
        state = initial_state(counted, u, 5)
        state = cosamp_iteration(state, counted, u, RecoveryConfig(s=5))
        assert counted.calls == {"adjoint": 1, "adjoint_sub": 1, "apply": 1}
        report = recover(op, u, RecoveryConfig(s=5, halting=FixedIterations(1)))
        assert np.array_equal(state.a, report.approximation)

    @pytest.mark.parametrize("loop", LOOPS, ids=str)
    @pytest.mark.parametrize("kind", ["gaussian", "partial_fourier"])
    def test_prune_on_t_is_best_s_of_b(self, loop, kind):
        # supp(b) lies in T, so ranking b on T picks what ranking all of b picks
        if kind == "gaussian":
            op = cosamp.gaussian_operator(40, 128, seed=5)
            x = cosamp.make_sparse(128, 6, "exponential", alpha=0.7, position_seed=6, sign_seed=7)
        else:
            op = cosamp.partial_fourier_operator(48, 128, seed=5)
            x = cosamp.make_sparse(128, 6, "flat", position_seed=6, sign_seed=7)
        u = op.apply(x) + 1e-2 * prng.normals(8, op.m)
        states = []

        def spy(state, y, *args):
            new_state, v_norm = iterate(state, y, *args)
            states.append(new_state)
            return new_state, v_norm

        iterate = cosamp.recovery._iterate
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cosamp.recovery, "_iterate", spy)
            LOOPS[loop](op, u, RecoveryConfig(s=6, halting=FixedIterations(5)))
        assert len(states) == 5
        for state in states:
            assert not np.delete(state.b, state.T.indices).any()
            a, supp = cosamp.best_s_approx(state.b, 6)
            assert np.array_equal(state.a, a) and state.a.dtype == a.dtype
            assert state.support == supp


class TestCarriedView:
    """The loop makes T's view of Phi_T once per iteration, hands it to the
    solve and to the update v = u - Phi_T a_T, and reuses it while T holds."""

    @staticmethod
    def step(op, u, iterations):
        """The states of ``iterations`` steps, and how many reused their view."""
        state, states, reused = initial_state(op, u, 5), [], 0
        for _ in range(iterations):
            carried = state.view
            state = cosamp_iteration(state, op, u, RecoveryConfig(s=5))
            states.append(state)
            reused += state.view is carried
        return states, reused

    @pytest.mark.parametrize("which", [0, 1], ids=["gaussian", "complex_dense"])
    def test_reused_slice_is_the_fresh_gather(self, which):
        # BLAS picks its kernel by memory order, so a reused slice must be the
        # F-ordered array that matrix[:, T] gives, not a copy in another order
        op, _, u = dense_instances()[which]
        states, reused = self.step(op, u, 12)
        assert reused >= 2
        for state in states:
            fresh = op.matrix[:, state.T.indices]
            assert np.array_equal(state.view.sub, fresh)
            assert state.view.sub.flags.f_contiguous and fresh.flags.f_contiguous

    @pytest.mark.parametrize("which", [0, 1], ids=["gaussian", "complex_dense"])
    def test_stepping_with_a_carried_view_matches_recover(self, which):
        op, _, u = dense_instances()[which]
        states, reused = self.step(op, u, 12)
        assert reused >= 2
        for k, state in enumerate(states, start=1):
            report = recover(op, u, RecoveryConfig(s=5, halting=FixedIterations(k)))
            assert np.array_equal(report.approximation, state.a)
            assert report.trace[-1].v_norm == float(np.linalg.norm(state.v))

    @pytest.mark.parametrize("loop", LOOPS, ids=str)
    def test_k_iterations_make_k_full_products(self, loop):
        # the proxy is the one full product; the solve and the update use Phi_T
        op, _, u = dense_instances()[0]
        counted = Counting(op)
        report = LOOPS[loop](counted, u, RecoveryConfig(s=5, halting=FixedIterations(6)))
        assert report.iterations_run == 6
        assert counted.calls["adjoint"] == 6 and "apply" not in counted.calls

    def test_a_view_is_not_reused_on_another_operator(self):
        op, _, u = dense_instances()[0]
        state = self.step(op, u, 12)[0][-1]
        other = cosamp.dense_operator(2.0 * op.matrix)
        stepped = cosamp_iteration(state, other, u, RecoveryConfig(s=5))
        fresh = cosamp_iteration(dataclasses.replace(state), other, u, RecoveryConfig(s=5))
        assert stepped.view is not state.view
        assert np.array_equal(stepped.v, fresh.v) and np.array_equal(stepped.a, fresh.a)


class TestLoopRecords:
    """The per-iteration records: a slotted state the loop completes in place,
    and an immutable, hashable trace row whose fields are the trace columns."""

    @staticmethod
    def outcome():
        return run_trial({
            "version": "config_v1",
            "master_seed": 11,
            "operator": {"kind": "gaussian", "m": 32, "n": 128},
            "signal": {"kind": "sparse", "n": 128, "s": 4, "law": "flat"},
            "noise": None,
            "recovery": {"s": 4, "halting": [{"kind": "fixed_iterations", "count": 3}]},
        })

    def test_report_trace_keys_are_the_trace_columns(self):
        payload = report_payload(self.outcome())
        assert len(payload["trace"]) == 3
        for row in payload["trace"]:
            assert tuple(row) == TRACE_COLUMNS
            assert tuple(row["step_times_us"]) == BENCH_STEPS

    def test_step_times_are_the_six_bench_steps(self):
        for row in self.outcome().report.trace:
            assert set(row.step_times_us) == set(BENCH_STEPS)
            assert all(t >= 0.0 for t in row.step_times_us.values())
            assert row.total_time_us() == float(sum(row.step_times_us.values()))

    def test_trace_rows_are_immutable_and_hashable(self):
        trace = self.outcome().report.trace
        row = trace[0]
        with pytest.raises(AttributeError):
            row.v_norm = 0.0
        assert row.v_norm == row[1] and row.k == 1
        twin = type(row)(*row[:5], dict(reversed(row.step_times_us.items())))
        assert twin == row and hash(twin) == hash(row)
        assert len({row, twin, *trace}) == len(trace)

    def test_states_are_slotted_and_replace_drops_support_and_view(self):
        op = cosamp.gaussian_operator(32, 128, seed=5)
        u = op.apply(cosamp.make_sparse(128, 4, "flat", position_seed=6, sign_seed=7))
        state = cosamp_iteration(initial_state(op, u, 4), op, u, RecoveryConfig(s=4))
        assert not hasattr(state, "__dict__")
        assert state.support == support_of(state.a) and state.view.T == state.T
        moved = dataclasses.replace(state)
        assert moved.support is None and moved.view is None
        assert moved != state and moved == moved and hash(moved) != hash(state)


def _held(state):
    """Each field of ``state``, with an array's bytes as they are now."""
    values = {f.name: getattr(state, f.name) for f in dataclasses.fields(state)}
    return {name: (value, value.tobytes() if isinstance(value, np.ndarray) else None)
            for name, value in values.items()}


def _still_holds(state, held):
    return all(getattr(state, name) is value
               and (raw is None or value.tobytes() == raw) for name, (value, raw) in held.items())


class TestReturnedStatesStayPut:
    """The loop hands each iteration a state of its own, so no state it
    returned loses its proxy y, its estimate b or its a_prev, or changes a byte."""

    @staticmethod
    def instance(kind):
        if kind == "gaussian":
            op = cosamp.gaussian_operator(40, 128, seed=5)
        else:
            op = cosamp.partial_fourier_operator(48, 128, seed=5)
        x = cosamp.make_sparse(128, 6, "flat", position_seed=6, sign_seed=7)
        return op, x, op.apply(x) + 1e-2 * prng.normals(8, op.m)

    @pytest.mark.parametrize("loop", LOOPS, ids=str)
    @pytest.mark.parametrize("kind", ["gaussian", "partial_fourier"])
    def test_loop_never_modifies_a_state_it_returned(self, loop, kind):
        op, x, u = self.instance(kind)
        returned = []

        def spy(state, y, *args):
            new_state, v_norm = iterate(state, y, *args)
            returned.append((new_state, _held(new_state)))
            return new_state, v_norm

        iterate = cosamp.recovery._iterate
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cosamp.recovery, "_iterate", spy)
            config = RecoveryConfig(s=6, halting=FixedIterations(5), record_diagnostics=True)
            LOOPS[loop](op, u, config, truth=x)
        assert len(returned) == 5
        for state, held in returned:
            assert all(held[name][0] is not None for name in ("y", "b", "a_prev"))
            assert _still_holds(state, held)

    @pytest.mark.parametrize("kind", ["gaussian", "partial_fourier"])
    def test_stepping_leaves_its_input_state_as_it_was(self, kind):
        op, _, u = self.instance(kind)
        state = initial_state(op, u, 6)
        for _ in range(5):
            held = _held(state)
            stepped = cosamp_iteration(state, op, u, RecoveryConfig(s=6))
            assert _still_holds(state, held)
            state = stepped


class TestStorageContract:
    """One partial-Fourier ``recover`` works in O(N) storage: its tracemalloc
    peak stays within 7.5 complex N-vectors, plus the closed-form Gram on
    |T| <= 3s and 1 MiB, and its approximation keeps its pinned bytes."""

    APPROXIMATION_SHA256 = {
        16: "43a45079fc8cb354e9211a20e20f4c7954283b5795cdb474d432ce3a4791ae13",
        18: "351dc2410ea27f65023377ba01be1fecf3006f5847f0544c59e266dc3d4c7f68",
        20: "5e3e8c6e21d1f9515088b2740c16441b17bc675a848f2dbb0b0e68b3624aa2f5",
    }

    @pytest.mark.parametrize("log2_n", sorted(APPROXIMATION_SHA256))
    def test_recover_peak_is_seven_and_a_half_vectors(self, log2_n):
        n = 1 << log2_n
        s = max(8, n // 2048)
        op = cosamp.partial_fourier_operator(n // 4, n, seed=7)
        u = op.apply(cosamp.make_sparse(n, s, "flat", position_seed=1, sign_seed=2))
        config = RecoveryConfig(s=s, halting=SampleNorm(1e-9 * float(np.linalg.norm(u))))
        tracemalloc.start()
        try:
            report = recover(op, u, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.halt_reason == "sample_norm"
        assert peak <= 7.5 * 16 * n + 16 * (3 * s) ** 2 + 2**20
        digest = hashlib.sha256(report.approximation.tobytes()).hexdigest()
        assert digest == self.APPROXIMATION_SHA256[log2_n]


class TestCostCounts:
    """The paper's cost as counts, which hold on any host: one full adjoint per
    iteration, plus one full apply (the update) per partial-Fourier iteration;
    at most k + 1 normal products per CG-k or Richardson-k solve and none in the
    direct solve; a new view of Phi_T only when T changes; and no other product.

    ``Counting`` hides the dense operators' sliced view, so every product of the
    solves and the update reaches it as an ``apply_sub`` or ``adjoint_sub``."""

    KINDS = ("gaussian", "complex", "fourier")
    ITERATIONS = 12

    @staticmethod
    def instance(kind):
        if kind == "fourier":
            return TestTwoProductIteration.instance(noisy=True)
        return dense_instances()[TestCostCounts.KINDS.index(kind)]

    @pytest.mark.parametrize("solver", ["cg", "richardson", "direct"])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("loop", LOOPS, ids=str)
    def test_products_per_iteration_and_per_solve(self, loop, kind, solver, monkeypatch):
        from cosamp import lsq, variants
        from cosamp.operators import RestrictedView

        op, x, u = self.instance(kind)
        counted = Counting(op)
        solves, views, states = [], [], []  # solves: [|T|, normal products] per solve

        def spy_solve(op_, T, samples, z0, config, proxy=None, view=None):
            solves.append([len(T), 0])
            return lsq.solve(op_, T, samples, z0, config, proxy, view)

        def spy_normal(view, z):
            solves[-1][1] += 1
            return normal(view, z)

        def spy_init(view, op_, T):
            views.append(T.indices.tobytes())
            init(view, op_, T)

        def spy_iterate(state, y, *args):
            done, v_norm = iterate(state, y, *args)
            states.append(done)
            return done, v_norm

        normal, init = RestrictedView.normal, RestrictedView.__init__
        iterate = cosamp.recovery._iterate
        monkeypatch.setattr(cosamp.recovery, "solve", spy_solve)
        monkeypatch.setattr(variants, "solve", spy_solve)
        monkeypatch.setattr(RestrictedView, "normal", spy_normal)
        monkeypatch.setattr(RestrictedView, "__init__", spy_init)
        monkeypatch.setattr(cosamp.recovery, "_iterate", spy_iterate)
        k = self.ITERATIONS
        config = RecoveryConfig(s=5, halting=FixedIterations(k),
                                lsq=LsqConfig(solver=solver, iterations=3))
        report = LOOPS[loop](counted, u, config, truth=x)

        assert report.iterations_run == k and len(states) == k and len(solves) == k
        calls = counted.calls
        assert calls["adjoint"] == k
        assert calls.get("apply", 0) == (k if kind == "fourier" else 0)
        normals = [count for _, count in solves]
        if solver == "direct":
            assert normals == [0] * k
        else:
            assert all(count <= 3 + 1 for count in normals)
            assert solver == "cg" or normals == [3] * k
        t_changes = sum(
            state.T.indices.tobytes() != (states[i - 1].T.indices.tobytes() if i else None)
            for i, state in enumerate(states)
        )
        assert len(views) == t_changes + (k if loop == "residual" else 0)

        # nothing else: the right-hand side and each normal product, the update,
        # Richardson's two residuals and the direct solve's columns
        residuals = 2 * k if solver == "richardson" else 0
        if kind == "fourier":
            assert calls.get("adjoint_sub", 0) == 0
            assert calls.get("apply_sub", 0) == residuals
        else:
            columns = sum(size for size, _ in solves) if solver == "direct" else 0
            assert calls["adjoint_sub"] == k + sum(normals)
            assert calls["apply_sub"] == sum(normals) + k + residuals + columns


class TestIntegerParameters:
    """Loop counts must be Python or numpy integers, refused where they are built:
    ``FixedIterations(2.5)`` used to run 3 iterations, and ``s=2.5`` failed only
    inside ``recover``."""

    @pytest.mark.parametrize("count", [2.5, 2.0, True, False, "2", None, np.float64(2.0)],
                             ids=repr)
    def test_fixed_iterations_refuses_a_non_integer(self, count):
        with pytest.raises(TypeError, match="iteration count must be an integer"):
            FixedIterations(count)

    @pytest.mark.parametrize("field, value", [
        ("s", 2.5), ("s", 3.0), ("s", True), ("s", "3"), ("s", np.float64(3.0)),
        ("max_iterations", 2.5), ("max_iterations", 4.0), ("max_iterations", False),
        ("max_iterations", "4"),
    ], ids=repr)
    def test_recovery_config_refuses_a_non_integer(self, field, value):
        kwargs = {"s": 3, "halting": FixedIterations(2), field: value}
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            RecoveryConfig(**kwargs)

    @pytest.mark.parametrize("integer", [int, np.int64, np.uint8], ids=str)
    def test_numpy_integers_run_as_python_ints(self, integer):
        op, x, u = dense_instances()[0]
        want = recover(op, u, RecoveryConfig(s=5, halting=FixedIterations(3), max_iterations=9))
        got = recover(op, u, RecoveryConfig(s=integer(5), halting=FixedIterations(integer(3)),
                                            max_iterations=integer(9)))
        assert got.iterations_run == want.iterations_run == 3
        assert got.approximation.tobytes() == want.approximation.tobytes()


class TestNoValidationInTheLoop:
    """The loop wraps the supports it computes as they are: no validating
    ``SupportSet`` constructor runs in ``recover``, its variants or
    ``cosamp_iteration``, diagnostics included, so the reader's checks cost the
    loop nothing."""

    @pytest.mark.parametrize("kind", TestCostCounts.KINDS)
    @pytest.mark.parametrize("loop", LOOPS, ids=str)
    def test_no_validated_support_set_is_built(self, loop, kind, monkeypatch):
        op, x, u = TestCostCounts.instance(kind)
        config = RecoveryConfig(s=5, halting=FixedIterations(6), record_diagnostics=True)
        calls = []
        post_init = SupportSet.__post_init__

        def spy(self):
            calls.append(len(self.indices))
            post_init(self)

        monkeypatch.setattr(SupportSet, "__post_init__", spy)
        report = LOOPS[loop](op, u, config, truth=x)
        state = initial_state(op, u, 5)
        for _ in range(3):
            state = cosamp_iteration(state, op, u, config)
        assert report.iterations_run == 6 and len(report.step_audits) == 6
        assert calls == []
        SupportSet([0], op.n)  # the spy sees a validated construction
        assert calls == [1]
