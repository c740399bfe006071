"""Variations on the recovery loop: residual approximation, final polish,
and prune-before-estimate.

These share the standard loop's machinery but change where the
least-squares problem sits.  No convergence constants are claimed for
them; tests track them against the standard loop empirically.
"""

from __future__ import annotations

import numpy as np

from .lsq import direct_solve, solve
from .operators import SamplingOperator
from .recovery import (
    FixedIterations,
    ProxyInfinityNorm,
    RecoveryConfig,
    RecoveryReport,
    SampleNorm,
    TraceRow,
    check_halt,
    identify,
    initial_state,
    merge_support,
)
from .signals import SupportSet, best_s_approx, embed, support_of

def _run_loop(op: SamplingOperator, u, config: RecoveryConfig, truth, step):
    """Shared halting/trace scaffolding; ``step`` maps (state, y) -> state."""
    u = np.asarray(u)
    rules = config.rules()
    proxy_rules = [r for r in rules if isinstance(r, ProxyInfinityNorm)]
    sample_rules = [r for r in rules if isinstance(r, SampleNorm)]
    fixed_rules = [r for r in rules if isinstance(r, FixedIterations)]
    max_iters = config.effective_max_iterations()
    for rule in fixed_rules:
        max_iters = min(max_iters, rule.count)

    state = initial_state(op, u, config.s)
    x = None if truth is None else np.asarray(truth)
    trace: list[TraceRow] = []
    halt_reason = "max_iterations"

    if any(check_halt(state, rule) for rule in sample_rules):
        return RecoveryReport(state.a, support_of(state.a), 0, "sample_norm", ())
    if max_iters == 0:
        reason = "fixed_iterations" if fixed_rules else "max_iterations"
        return RecoveryReport(state.a, support_of(state.a), 0, reason, ())

    from dataclasses import replace

    while state.k < max_iters:
        y = op.adjoint(state.v)
        if proxy_rules and any(check_halt(replace(state, y=y), r) for r in proxy_rules):
            halt_reason = "proxy_infinity_norm"
            break
        state = step(state, y)
        err_l2 = err_linf = None
        if x is not None:
            diff = x - state.a
            err_l2 = float(np.linalg.norm(diff))
            err_linf = float(np.abs(diff).max()) if diff.size else 0.0
        y_inf = float(np.abs(y).max()) if y.size else 0.0
        trace.append(TraceRow(state.k, float(np.linalg.norm(state.v)), y_inf, err_l2, err_linf, {}))
        if any(check_halt(state, rule) for rule in sample_rules):
            halt_reason = "sample_norm"
            break
        if fixed_rules and any(state.k >= rule.count for rule in fixed_rules):
            halt_reason = "fixed_iterations"
            break

    return RecoveryReport(
        approximation=state.a,
        support=support_of(state.a),
        iterations_run=state.k,
        halt_reason=halt_reason,
        trace=tuple(trace),
    )


def recover_residual_variant(
    op: SamplingOperator, u, config: RecoveryConfig, truth=None
) -> RecoveryReport:
    """Approximate the residual instead of the whole signal.

    The least-squares solve targets the CURRENT samples v on the identified
    set Omega, always warm-started from zero (the residual shrinks, so zero
    is the natural seed); the resulting residual estimate is added onto the
    previous approximation before pruning.
    """
    from dataclasses import replace as _replace

    u_arr = np.asarray(u)
    identify_width, prune_width = config.widths(op.n)

    def step(state, y):
        omega = identify(y, identify_width)
        if len(omega):
            result = solve(op, omega, state.v, None, _zero_start(config))
            residual_est = embed(result.coefficients, omega)
        else:
            result = None
            residual_est = np.zeros_like(state.a)
        merged = state.a + residual_est
        a_next, _ = best_s_approx(merged, prune_width)
        v_next = u_arr - op.apply(a_next)
        return _replace(
            state,
            k=state.k + 1,
            a=a_next,
            a_prev=state.a,
            v=v_next,
            y=y,
            omega=omega,
            T=omega.union(support_of(state.a)),
            b=merged,
            lsq_result=result,
        )

    return _run_loop(op, u, config, truth, step)


def _zero_start(config: RecoveryConfig):
    from dataclasses import replace

    return replace(config.lsq, warm_start="zero")


def final_polish(op: SamplingOperator, u, a) -> np.ndarray:
    """Re-solve least squares on supp(a) against the original samples.

    Never increases the sample-space residual norm; rank deficiency raises
    as in the direct solver.
    """
    a = np.asarray(a)
    T = support_of(a)
    if len(T) == 0:
        return a.copy()
    result = direct_solve(op, T, np.asarray(u))
    return embed(result.coefficients, T)


def recover_prune_first_variant(
    op: SamplingOperator, u, config: RecoveryConfig, truth=None
) -> RecoveryReport:
    """Prune the merged support to s entries BEFORE the least-squares solve.

    Surrogate ranking: indices already in the approximation keep their
    current magnitudes |a_i|; newly identified indices use the proxy
    magnitudes |y_i|.  The top s of the merged ranking (lexicographic ties)
    form the estimation support.
    """
    from dataclasses import replace as _replace

    u_arr = np.asarray(u)
    identify_width, prune_width = config.widths(op.n)

    def step(state, y):
        omega = identify(y, identify_width)
        prev = support_of(state.a)
        merged = merge_support(omega, prev)
        pruned = _surrogate_prune(state.a, y, prev, omega, merged, prune_width)
        if len(pruned):
            z0 = state.a[pruned.indices] if config.lsq.warm_start == "current" else None
            result = solve(op, pruned, u_arr, z0, config.lsq)
            b = embed(result.coefficients, pruned)
        else:
            result = None
            b = np.zeros_like(state.a)
        a_next, _ = best_s_approx(b, prune_width)
        v_next = u_arr - op.apply(a_next)
        return _replace(
            state,
            k=state.k + 1,
            a=a_next,
            a_prev=state.a,
            v=v_next,
            y=y,
            omega=omega,
            T=pruned,
            b=b,
            lsq_result=result,
        )

    return _run_loop(op, u, config, truth, step)


def _surrogate_prune(
    a: np.ndarray,
    y: np.ndarray,
    prev: SupportSet,
    omega: SupportSet,
    merged: SupportSet,
    width: int,
) -> SupportSet:
    if len(merged) <= width:
        return merged
    keys = np.zeros(merged.n)
    keys[prev.indices] = np.abs(a[prev.indices])
    new_only = np.setdiff1d(omega.indices, prev.indices, assume_unique=True)
    keys[new_only] = np.abs(y[new_only])
    ranked = sorted(merged.indices.tolist(), key=lambda i: (-keys[i], i))
    return SupportSet(np.sort(np.array(ranked[:width], dtype=np.int64)), merged.n)
