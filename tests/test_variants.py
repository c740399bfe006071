"""Loop variants: residual approximation, final polish, prune-first."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosamp
from conftest import gated_operator, planted_instance
from cosamp import experiment, prng
from cosamp.experiment import _dispatch
from cosamp.lsq import LsqConfig
from cosamp.recovery import FixedIterations, RecoveryConfig, SampleNorm, SolverFailure, recover
from cosamp.recovery import initial_state
from cosamp.signals import SupportSet, _select, support_of
from cosamp.variants import (
    _surrogate_prune,
    final_polish,
    recover_prune_first_variant,
    recover_residual_variant,
)


def spike_signal(n, positions, values):
    x = np.zeros(n)
    x[list(positions)] = values
    return x


class TestResidualVariant:
    def test_identity_exact_in_one_iteration(self):
        op = cosamp.identity_operator(10)
        x = spike_signal(10, [2, 6], [1.5, -2.0])
        report = recover_residual_variant(op, x.copy(), RecoveryConfig(s=2, halting=SampleNorm(1e-12)))
        assert np.allclose(report.approximation, x, rtol=0, atol=1e-12)
        assert report.iterations_run == 1

    def test_zero_stays_zero(self):
        op = cosamp.gaussian_operator(8, 16, seed=1)
        report = recover_residual_variant(
            op, np.zeros(8), RecoveryConfig(s=2, halting=FixedIterations(3))
        )
        assert not report.approximation.any()

    def test_tracks_standard_loop(self):
        op = cosamp.gaussian_operator(48, 96, seed=2)
        x, _, u = planted_instance(op, 4, seed=50)
        cfg = RecoveryConfig(s=4, halting=FixedIterations(25))
        standard = recover(op, u, cfg, truth=x)
        variant = recover_residual_variant(op, u, cfg, truth=x)
        std_err = max(standard.trace[-1].err_l2, 1e-12 * np.linalg.norm(x))
        assert variant.trace[-1].err_l2 <= 10 * std_err

    def test_preserves_sparsity_and_sample_identity(self):
        op = cosamp.gaussian_operator(24, 48, seed=3)
        x, _, u = planted_instance(op, 3, seed=51)
        for k in (1, 3, 6):
            report = recover_residual_variant(
                op, u, RecoveryConfig(s=3, halting=FixedIterations(k))
            )
            assert support_of(report.approximation).indices.size <= 3
            v = u - op.apply(report.approximation)
            assert report.trace[-1].v_norm == pytest.approx(np.linalg.norm(v), rel=1e-12)


class TestFinalPolish:
    def test_fixed_point_when_already_least_squares(self):
        op = cosamp.gaussian_operator(16, 32, seed=4)
        x, _, u = planted_instance(op, 2, seed=52)
        polished = final_polish(op, u, x)
        again = final_polish(op, u, polished)
        assert np.allclose(again, polished, rtol=1e-12, atol=1e-14)

    def test_noiseless_correct_support_returns_truth(self):
        op = cosamp.gaussian_operator(16, 32, seed=5)
        x, _, u = planted_instance(op, 3, seed=53)
        rough = x * 1.37  # right support, wrong values
        polished = final_polish(op, u, rough)
        assert np.allclose(polished, x, rtol=0, atol=1e-10)

    def test_never_increases_sample_residual(self):
        op = cosamp.gaussian_operator(24, 48, seed=6)
        x, e, u = planted_instance(op, 3, seed=54, noise_norm=0.3)
        report = recover(op, u, RecoveryConfig(s=3, halting=FixedIterations(8)))
        before = np.linalg.norm(u - op.apply(report.approximation))
        polished = final_polish(op, u, report.approximation)
        after = np.linalg.norm(u - op.apply(polished))
        assert after <= before + 1e-12

    def test_zero_approximation_passes_through(self):
        op = cosamp.identity_operator(4)
        assert not final_polish(op, np.ones(4), np.zeros(4)).any()


class TestPruneFirstVariant:
    def test_identity_exact_in_one_iteration(self):
        op = cosamp.identity_operator(10)
        x = spike_signal(10, [0, 9], [1.0, 2.0])
        report = recover_prune_first_variant(
            op, x.copy(), RecoveryConfig(s=2, halting=SampleNorm(1e-12))
        )
        assert np.allclose(report.approximation, x, rtol=0, atol=1e-12)
        assert report.iterations_run == 1

    @pytest.mark.filterwarnings("ignore:4 s")
    def test_full_width_matches_standard(self):
        # s = N: the surrogate pruning never removes anything
        op = gated_operator(8, seed=7)
        u = op.apply(prng.normals(55, 8))
        cfg = RecoveryConfig(
            s=8, halting=FixedIterations(4), lsq=LsqConfig(solver="direct")
        )
        std = recover(op, u, cfg)
        variant = recover_prune_first_variant(op, u, cfg)
        assert np.allclose(variant.approximation, std.approximation, rtol=1e-10, atol=1e-12)

    def test_estimation_support_never_exceeds_s(self):
        op = cosamp.gaussian_operator(24, 48, seed=8)
        x, _, u = planted_instance(op, 3, seed=56)
        for k in (1, 2, 5):
            report = recover_prune_first_variant(
                op, u, RecoveryConfig(s=3, halting=FixedIterations(k))
            )
            assert support_of(report.approximation).indices.size <= 3

    def test_exact_ls_makes_next_proxy_vanish_on_support(self):
        # after an exact solve the samples are orthogonal to the used columns,
        # so identification keeps selecting new components
        op = cosamp.gaussian_operator(24, 48, seed=9)
        x, _, u = planted_instance(op, 3, seed=57)
        cfg_base = dict(s=3, lsq=LsqConfig(solver="direct"))
        for k in (1, 2, 3):
            report = recover_prune_first_variant(
                op, u, RecoveryConfig(halting=FixedIterations(k), **cfg_base)
            )
            a_k = report.approximation
            supp = support_of(a_k)
            v_k = u - op.apply(a_k)
            if np.linalg.norm(v_k) <= 1e-9 * np.linalg.norm(u) or not len(supp):
                continue
            y_next = op.adjoint(v_k)
            on_support = np.abs(y_next[supp.indices]).max()
            assert on_support <= 1e-9 * np.abs(y_next).max()
            omega_next = cosamp.identify(y_next, 6)
            assert not set(omega_next) & set(supp)


def _surrogate_prune_over_n(state, y_neg, omega, width):
    """The prune-first merge as it ranked keys over all N indices."""
    prev = support_of(state.a) if state.support is None else state.support
    merged = omega.union(prev)
    if len(merged) <= width:
        return merged
    keys = np.zeros(merged.n)
    keys[omega.indices] = y_neg[omega.indices]
    keys[prev.indices] = -np.abs(state.a[prev.indices])
    return SupportSet(_select(keys, width), merged.n)


class TestSurrogateRanking:
    """Ranking only the merged indices picks what ranking all N did."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 1j, -1 - 1j]),
                 min_size=12, max_size=12),
        st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.0, 2.0, -2.0, 1j]), min_size=12,
                 max_size=12),
        st.integers(1, 6),
        st.integers(0, 8),
    )
    def test_matches_ranking_over_n(self, y_entries, a_entries, width, omega_width):
        # few distinct magnitudes, so ties and |a_i| = |y_i| are common
        y = np.array(y_entries, dtype=np.complex128)
        a = np.array(a_entries, dtype=np.complex128)
        state = replace(initial_state(cosamp.identity_operator(12), np.zeros(12), width), a=a)
        y_neg = -np.abs(y)
        omega = cosamp.identify(y, omega_width)
        got = _surrogate_prune(state, y_neg, omega, width)
        assert got == _surrogate_prune_over_n(state, y_neg, omega, width)


class TestSharedDriver:
    """All three loops run through one driver, so they validate, fail and
    trace alike."""

    @pytest.mark.parametrize("variant", ["standard", "residual", "prune-first"])
    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.inf)])
    def test_non_finite_samples_rejected(self, variant, bad):
        op = cosamp.gaussian_operator(16, 64, seed=3)
        u = op.apply(np.eye(64)[5]).astype(type(bad))
        u[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _dispatch(variant)(op, u, RecoveryConfig(s=2, halting=FixedIterations(5)), None)

    @pytest.mark.parametrize("loop", [recover_residual_variant, recover_prune_first_variant])
    def test_trace_rows_carry_every_step_time(self, loop):
        op = cosamp.gaussian_operator(24, 48, seed=3)
        x, _, u = planted_instance(op, 3, seed=51)
        report = loop(op, u, RecoveryConfig(s=3, halting=FixedIterations(4)), truth=x)
        assert report.trace
        for row in report.trace:
            assert set(row.step_times_us) == {
                "proxy", "identify", "merge", "estimate", "prune", "update"
            }

    @pytest.mark.parametrize("loop", [recover_residual_variant, recover_prune_first_variant])
    def test_solver_failure_carries_iteration(self, loop):
        mat = prng.normals(43, 8 * 16).reshape(8, 16)
        mat[:, 1] = mat[:, 0]  # identical columns make the Gram singular
        op = cosamp.dense_operator(mat)
        u = op.apply(np.eye(16)[0] + np.eye(16)[1])
        cfg = RecoveryConfig(s=2, lsq=LsqConfig(solver="direct"))
        with pytest.raises(SolverFailure) as excinfo:
            loop(op, u, cfg)
        assert excinfo.value.iteration == 1


class TestNoiseReachesAudits:
    @pytest.mark.parametrize("variant", ["standard", "residual", "prune-first"])
    def test_identification_bound_counts_the_noise(self, gated_16, variant):
        op, _ = gated_16
        x, e, u = planted_instance(op, 2, seed=48, noise_norm=0.3)
        cfg = RecoveryConfig(
            s=2,
            halting=FixedIterations(3),
            lsq=LsqConfig(solver="direct"),
            record_diagnostics=True,
        )
        report = _dispatch(variant)(op, u, cfg, x, e)
        identification = report.step_audits[0][0]
        assert identification.name == "identification"
        # iteration 1 starts from a = 0, so the residual is x itself
        expected = 0.2223 * float(np.linalg.norm(x)) + 2.34 * float(np.linalg.norm(e))
        assert identification.rhs == expected

    @pytest.mark.parametrize("variant", ["standard", "residual", "prune-first"])
    def test_run_trial_hands_the_noise_to_the_loop(self, monkeypatch, variant):
        seen = []
        real = experiment._dispatch

        def spy(name):
            loop = real(name)

            def run(op, u, config, truth=None, noise=None):
                seen.append(noise)
                return loop(op, u, config, truth, noise)

            return run

        monkeypatch.setattr(experiment, "_dispatch", spy)
        cfg = {
            "master_seed": 3,
            "operator": {"kind": "gaussian", "m": 32, "n": 64},
            "signal": {"kind": "sparse", "n": 64, "s": 3},
            "noise": {"norm": 0.05},
            "recovery": {"s": 3},
        }
        outcome = experiment.run_trial(cfg, variant=variant)
        assert len(seen) == 1 and seen[0] is not None
        assert float(np.linalg.norm(seen[0])) == outcome.noise_norm
