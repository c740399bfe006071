"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Guarantee-constant checks run only on instances whose restricted isometry
constant is verified (the gate: a proven bound, or an exhaustive value),
since the property cannot be certified for large random matrices;
large-scale checks are property-based.
Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import cosamp
from conftest import gated_operator, planted_instance
from cosamp import prng
from cosamp.lsq import LsqConfig, direct_solve
from cosamp.models import (
    CompressibleSpec,
    band_profile,
    compressible_energy_bound,
    compressible_tail_bounds,
    iteration_bound,
    make_compressible,
    unrecoverable_energy,
    unrecoverable_energy_l1_bound,
)
from cosamp.recovery import (
    FixedIterations,
    RecoveryConfig,
    SampleNorm,
    cosamp_iteration,
    initial_state,
    iteration_diagnostics,
    recover,
)
from cosamp.rip import gram_deviation, rip_estimate
from cosamp.signals import SupportSet, best_s_approx, norms


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {num:02d} {label}: PASS", flush=True)


# --- shared delta-gated instance pool -------------------------------------

GATE = 0.1


@pytest.fixture(scope="session")
def gated_pool():
    """20 operators with delta_4s <= 0.1, as (op, s, bound) with bound >= delta_4s.

    Construction Q (I + eps S) keeps every delta_r below 2 eps + eps^2.
    The gate is still checked, on the proven bound ||G - I||_2 of the full
    Gram G: every G_S - I is a principal submatrix of G - I, so by Cauchy
    interlacing (Horn & Johnson, Thm 4.3.28) the bound is at least every
    delta_r, and bound <= 0.1 implies delta_4s <= 0.1 without enumerating
    supports.
    """
    specs = (
        [(16, 2, 100 + i) for i in range(12)]
        + [(24, 2, 200 + i) for i in range(4)]
        + [(32, 1, 300 + i) for i in range(4)]
    )
    pool = []
    for n, s, seed in specs:
        op = gated_operator(n, seed=seed)
        bound = gram_deviation(op, SupportSet.full(op.n))
        assert bound <= GATE
        pool.append((op, s, bound))
    return pool


def gaussian_trial(master: int, trial: int, m: int, n: int, s: int, noise_norm: float):
    op = cosamp.gaussian_operator(m, n, prng.mix_seed(master, trial, 1))
    x = cosamp.make_sparse(
        n,
        s,
        "flat",
        position_seed=prng.mix_seed(master, trial, 2),
        sign_seed=prng.mix_seed(master, trial, 3),
    )
    if noise_norm > 0:
        e = prng.normals(prng.mix_seed(master, trial, 4), m)
        e *= noise_norm / np.linalg.norm(e)
    else:
        e = np.zeros(m)
    return op, x, e, op.apply(x) + e


def test_criterion_01_exact_sparse_recovery():
    with criterion(1, "exact sparse recovery, Gaussian 128x256, s=10"):
        start = time.perf_counter()
        successes = 0
        for trial in range(100):
            op, x, _, u = gaussian_trial(1001, trial, 128, 256, 10, 0.0)
            cfg = RecoveryConfig(
                s=10,
                halting=[SampleNorm(1e-9), FixedIterations(50)],
                max_iterations=50,
            )
            report = recover(op, u, cfg, truth=x)
            rel = np.linalg.norm(x - report.approximation) / np.linalg.norm(x)
            successes += rel <= 1e-5 and report.iterations_run <= 50
        elapsed = time.perf_counter() - start
        assert successes >= 99, f"only {successes}/100 trials recovered"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_02_noise_floor():
    with criterion(2, "noise floor: final error within 15 ||e||"):
        within = 0
        for trial in range(100):
            noise_norm = 0.1 * np.sqrt(10) / np.sqrt(10)  # 0.1 ||x|| / sqrt(s), ||x|| = sqrt(s)
            op, x, e, u = gaussian_trial(1002, trial, 128, 256, 10, noise_norm)
            cfg = RecoveryConfig(s=10, halting=FixedIterations(50), max_iterations=50)
            report = recover(op, u, cfg, truth=x)
            err = np.linalg.norm(x - report.approximation)
            within += err <= 15 * np.linalg.norm(e)
        assert within >= 95, f"only {within}/100 trials within the noise floor"


def _error_sequence(op, x, e, u, config):
    report = recover(op, u, config, truth=x)
    return [float(np.linalg.norm(x))] + [row.err_l2 for row in report.trace]


def test_criterion_03_gated_contraction(gated_pool):
    with criterion(3, "delta-gated per-iteration contraction 0.5 err + 10 nu"):
        violations = 0
        for idx, (op, s, _delta) in enumerate(gated_pool):
            if idx % 3 == 2:
                # general (nonsparse) target: sparse spikes plus a dense tail
                x, e, _ = planted_instance(op, s, seed=500 + idx, noise_norm=0.02)
                x = x + 0.05 * prng.normals(prng.mix_seed(501, idx), op.n)
                u = op.apply(x) + e
            else:
                law = "flat" if idx % 2 == 0 else "exponential"
                noise = 0.0 if idx % 4 == 0 else 0.03
                x, e, u = planted_instance(op, s, seed=500 + idx, law=law, noise_norm=noise)
            e_norm = float(np.linalg.norm(e))
            nu = unrecoverable_energy(x, s, e_norm)
            is_sparse = norms(x).l0 <= s
            floor = 1e-12 * np.linalg.norm(x)
            solvers = (
                LsqConfig(solver="direct"),
                LsqConfig(solver="cg", iterations=3),
                LsqConfig(solver="richardson", iterations=3),
            )
            for solver in solvers:
                cfg = RecoveryConfig(s=s, halting=FixedIterations(12), lsq=solver)
                errs = _error_sequence(op, x, e, u, cfg)
                for prev, cur in zip(errs, errs[1:]):
                    if cur > 0.5 * prev + 10 * nu + floor:
                        violations += 1
                    # sparse targets obey the tighter 7.5 ||e|| constant
                    if is_sparse and cur > 0.5 * prev + 7.5 * e_norm + floor:
                        violations += 1
        assert violations == 0, f"{violations} contraction violations"


def test_criterion_04_step_bound_audit(gated_pool):
    with criterion(4, "identification/merger/estimation/pruning bound chain"):
        violations = []
        for idx, (op, s, _delta) in enumerate(gated_pool):
            noise = 0.0 if idx % 2 == 0 else 0.05
            x, e, u = planted_instance(op, s, seed=600 + idx, noise_norm=noise)
            cfg = RecoveryConfig(s=s, lsq=LsqConfig(solver="direct"))
            state = initial_state(op, u, s)
            for _ in range(10):
                state = cosamp_iteration(state, op, u, cfg)
                for margin in iteration_diagnostics(state, x, e):
                    if not margin.holds:
                        violations.append((idx, state.k, margin))
        assert not violations, violations


def test_criterion_05_iterative_least_squares(gated_pool):
    with criterion(5, "Richardson contraction and 3-iteration equivalence"):
        # (a) per-step error ratio bounded by the measured Gram deviation
        ratio_violations = 0
        for idx, (op, s, _delta) in enumerate(gated_pool[:8]):
            x, e, u = planted_instance(op, s, seed=700 + idx, noise_norm=0.02)
            cfg = RecoveryConfig(s=s, lsq=LsqConfig(solver="richardson", iterations=3))
            state = initial_state(op, u, s)
            for _ in range(6):
                state = cosamp_iteration(state, op, u, cfg)
                T = state.T
                if len(T) == 0:
                    continue
                deviation = gram_deviation(op, T)
                z_star = direct_solve(op, T, u).coefficients
                z0 = state.a_prev[T.indices]
                prev_err = np.linalg.norm(z0 - z_star)
                for ell in range(1, 4):
                    z_ell = cosamp.richardson_solve(op, T, u, z0, iterations=ell).coefficients
                    cur_err = np.linalg.norm(z_ell - z_star)
                    if prev_err > 1e-12 * max(np.linalg.norm(z_star), 1.0):
                        if cur_err > prev_err * (deviation + 1e-10):
                            ratio_violations += 1
                    prev_err = cur_err
        assert ratio_violations == 0, f"{ratio_violations} contraction-ratio violations"

        # (b) 3-iteration warm-started Richardson matches exact LS recovery
        for idx, (op, s, _delta) in enumerate(gated_pool[:8]):
            x, _, u = planted_instance(op, s, seed=750 + idx)
            exact_cfg = RecoveryConfig(s=s, halting=FixedIterations(15),
                                       lsq=LsqConfig(solver="direct"))
            rich_cfg = RecoveryConfig(
                s=s, halting=FixedIterations(15),
                lsq=LsqConfig(solver="richardson", iterations=3),
            )
            err_exact = np.linalg.norm(x - recover(op, u, exact_cfg).approximation)
            err_rich = np.linalg.norm(x - recover(op, u, rich_cfg).approximation)
            assert abs(err_rich - err_exact) <= 1e-6 * np.linalg.norm(x)


def test_criterion_06_oracle_equivalence():
    with criterion(6, "fast paths match dense materializations to 1e-10"):
        checked = 0
        for n in (8, 16, 32, 64, 128):
            ops = [
                cosamp.gaussian_operator(n // 2, n, seed=n + 1),
                cosamp.partial_fourier_operator(n // 2, n, seed=n + 2),
            ]
            for op in ops:
                dense = op.materialize()
                for trial in range(100):
                    x = prng.complex_normals(prng.mix_seed(800, n, trial), n)
                    v = prng.complex_normals(prng.mix_seed(801, n, trial), op.m)
                    fast = op.apply(x)
                    want = dense @ x
                    assert np.linalg.norm(fast - want) <= 1e-10 * np.linalg.norm(want)
                    adj = op.adjoint(v)
                    adj_want = dense.conj().T @ v
                    assert np.linalg.norm(adj - adj_want) <= 1e-10 * np.linalg.norm(adj_want)
                    gap = abs(np.vdot(v, fast) - np.vdot(adj, x))
                    assert gap <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(v)
                    checked += 1
        assert checked == 1000


def test_criterion_07_rip_consequence_bounds():
    with criterion(7, "block bound delta_6 <= 3 delta_4 and the energy bound"):
        for trial in range(10):
            op = cosamp.gaussian_operator(24, 32, seed=prng.mix_seed(900, trial))
            delta_4 = rip_estimate(op, 4, "exhaustive").delta_exact
            delta_6 = rip_estimate(op, 6, "exhaustive").delta_exact
            assert delta_6 <= 3 * delta_4 + 1e-12
            delta_2 = rip_estimate(op, 2, "exhaustive").delta_exact
            x = prng.normals(prng.mix_seed(901, trial), 32)
            nx = norms(x)
            lhs = np.linalg.norm(op.apply(x))
            rhs = np.sqrt(1 + delta_2) * (nx.l2 + nx.l1 / np.sqrt(2))
            assert lhs <= rhs + 1e-12


def test_criterion_08_halting_certificates(gated_pool):
    with criterion(8, "halting rules certify and trigger as stated"):
        guarantee_hits = trigger_hits = 0
        for idx, (op, s, _delta) in enumerate(gated_pool):
            x, e, u = planted_instance(op, s, seed=820 + idx, noise_norm=0.04)
            e_norm = float(np.linalg.norm(e))
            cfg = RecoveryConfig(s=s, halting=FixedIterations(20),
                                 lsq=LsqConfig(solver="direct"))
            report = recover(op, u, cfg, truth=x)
            rows = report.trace
            v_norms = [row.v_norm for row in rows]
            epsilons = [1.2 * e_norm, 2 * e_norm, 4 * e_norm, v_norms[len(v_norms) // 2]]
            for eps in epsilons:
                for row in rows:
                    if row.v_norm <= eps:
                        guarantee_hits += 1
                        assert row.err_l2 <= 1.06 * (eps + e_norm) + 1e-12
                    if row.err_l2 <= 0.95 * (eps - e_norm):
                        trigger_hits += 1
                        assert row.v_norm <= eps + 1e-12
            # proxy rule: row k's proxy reflects the approximation of row k-1
            x_inf = float(np.abs(x).max())
            etas = [q * np.sqrt(2 * s) * e_norm for q in (1.0, 3.0, 10.0)]
            etas.append(rows[len(rows) // 2].y_inf * np.sqrt(2 * s))
            for eta in etas:
                for k, row in enumerate(rows):
                    if row.y_inf <= eta / np.sqrt(2 * s):
                        prev_err_inf = rows[k - 1].err_linf if k >= 1 else x_inf
                        guarantee_hits += 1
                        assert prev_err_inf <= 1.12 * eta + 1.17 * e_norm + 1e-12
                    trigger_level = 0.45 * eta / s - 0.68 * e_norm / np.sqrt(s)
                    if row.err_linf <= trigger_level and k + 1 < len(rows):
                        trigger_hits += 1
                        assert rows[k + 1].y_inf <= eta / np.sqrt(2 * s) + 1e-12
        assert guarantee_hits > 0 and trigger_hits > 0  # audits were exercised


def test_criterion_09_iteration_count(gated_pool):
    with criterion(9, "iteration-count bounds reach the 17 ||e|| floor"):
        flat_pool = [(op, s) for op, s, _ in gated_pool]
        for trial in range(20):
            op, s = flat_pool[trial % len(flat_pool)]
            x, e, u = planted_instance(op, s, seed=830 + trial, law="flat", noise_norm=0.01)
            bound = iteration_bound(x, s)
            assert band_profile(x).profile == 1
            cfg = RecoveryConfig(s=s, halting=FixedIterations(bound), max_iterations=bound,
                                 lsq=LsqConfig(solver="direct"))
            report = recover(op, u, cfg)
            err = np.linalg.norm(x - report.approximation)
            assert err <= 17 * np.linalg.norm(e), f"flat trial {trial}: {err}"
        for trial in range(20):
            op, s = flat_pool[trial % len(flat_pool)]
            x, e, u = planted_instance(
                op, s, seed=860 + trial, law="exponential", noise_norm=0.01
            )
            cap = 6 * (s + 1)
            cfg = RecoveryConfig(s=s, halting=FixedIterations(cap), max_iterations=cap,
                                 lsq=LsqConfig(solver="direct"))
            report = recover(op, u, cfg)
            err = np.linalg.norm(x - report.approximation)
            assert err <= 17 * np.linalg.norm(e), f"exponential trial {trial}: {err}"


def test_criterion_10_compressible_bounds():
    with criterion(10, "compressible tail and unrecoverable-energy bounds"):
        n = 1024
        for p in (0.3, 0.5, 1.0):
            for s in (4, 16, 64):
                spec = CompressibleSpec(
                    p=p, magnitude=1.0, n=n,
                    sign_seed=prng.mix_seed(840, int(p * 10)),
                    permutation_seed=prng.mix_seed(841, s),
                )
                x = make_compressible(spec)
                tail = x - best_s_approx(x, s)[0]
                l1_bound, l2_bound = compressible_tail_bounds(spec, s)
                assert norms(tail).l1 <= l1_bound
                assert norms(tail).l2 <= l2_bound
                for e_norm in (0.0, 0.1):
                    nu = unrecoverable_energy(x, s, e_norm)
                    assert nu <= compressible_energy_bound(spec, s, e_norm)
                    assert nu <= unrecoverable_energy_l1_bound(x, s, e_norm) + 1e-12


def _min_iteration_total(op, s, iters=5, repeats=4):
    x = cosamp.make_sparse(op.n, s, "flat", position_seed=1, sign_seed=2)
    u = op.apply(x)
    cfg = RecoveryConfig(s=s, halting=FixedIterations(iters))
    best = np.inf
    for _ in range(repeats):
        report = recover(op, u, cfg)
        best = min(best, min(row.total_time_us() for row in report.trace))
    return best


def _min_proxy_time(op, s, iters=4, repeats=4):
    x = cosamp.make_sparse(op.n, s, "flat", position_seed=3, sign_seed=4)
    u = op.apply(x)
    cfg = RecoveryConfig(s=s, halting=FixedIterations(iters))
    best = np.inf
    for _ in range(repeats):
        report = recover(op, u, cfg)
        best = min(best, min(row.step_times_us["proxy"] for row in report.trace))
    return best


def test_criterion_11_step_cost_scaling():
    with criterion(11, "per-iteration cost scales like the operator's multiply"):
        small = cosamp.partial_fourier_operator(2**12, 2**14, seed=1)
        large = cosamp.partial_fourier_operator(2**14, 2**16, seed=1)
        _min_iteration_total(small, 32, iters=2, repeats=1)  # warm caches
        _min_iteration_total(large, 32, iters=2, repeats=1)
        fast_ratio = _min_iteration_total(large, 32) / _min_iteration_total(small, 32)
        assert fast_ratio <= 6.0, f"fast-operator ratio {fast_ratio:.2f}"

        dense_small = cosamp.gaussian_operator(512, 2048, seed=2)
        dense_large = cosamp.gaussian_operator(1024, 4096, seed=2)
        _min_proxy_time(dense_small, 16, iters=2, repeats=1)
        _min_proxy_time(dense_large, 16, iters=2, repeats=1)
        dense_ratio = _min_proxy_time(dense_large, 16) / _min_proxy_time(dense_small, 16)
        assert dense_ratio >= 3.0, f"dense proxy ratio {dense_ratio:.2f}"


def test_criterion_12_sweep_reproducibility(tmp_path):
    with criterion(12, "sweep reruns are byte-identical across worker counts"):
        from cosamp.cli import main
        from cosamp.serialize import dump_json

        cfg = {
            "version": "config_v1",
            "master_seed": 77,
            "operator": {"kind": "gaussian", "m": 16, "n": 64},
            "signal": {"kind": "sparse", "n": 64, "s": 3, "law": "flat"},
            "noise": None,
            "recovery": {
                "s": 3,
                "halting": [
                    {"kind": "sample_norm", "epsilon": 1e-8},
                    {"kind": "fixed_iterations", "count": 30},
                ],
            },
            "trials": 5,
            "sweep": {"m": [12, 16, 24], "noise_norm": [0.0, 0.05]},
        }
        path = tmp_path / "sweep.json"
        dump_json(path, cfg)
        outputs = []
        for label, jobs in (("a", 1), ("b", 1), ("c", 8)):
            out = tmp_path / label
            assert main(["sweep", "--config", str(path), "--out", str(out),
                         "--jobs", str(jobs)]) == 0
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
