"""Variations on the recovery loop: residual approximation, final polish,
and prune-before-estimate.

Both loop variants run through the standard loop's driver and supply only
the steps they change: the residual variant its estimate, the prune-first
variant its merge.  No convergence constants are claimed for them; tests
track them against the standard loop empirically.
"""

from __future__ import annotations

import numpy as np

from .lsq import direct_solve, solve
from .operators import SamplingOperator
from .recovery import (RecoveryConfig, RecoveryReport, _drive, _estimate, _merge, _support,
                       merge_support)
from .signals import SupportSet, _select, as_signal, embed, support_of


def recover_residual_variant(
    op: SamplingOperator, u, config: RecoveryConfig, truth=None, noise=None
) -> RecoveryReport:
    """Approximate the residual instead of the whole signal.

    The least-squares solve targets the CURRENT samples v on the identified
    set Omega, always warm-started from zero (the residual shrinks, so zero
    is the natural seed) and given the iteration's proxy Phi* v; the
    resulting residual estimate is added onto the previous approximation
    before pruning.  ``truth`` and ``noise`` feed the trace and the audits
    as in :func:`~cosamp.recovery.recover`.
    """
    return _drive(op, u, config, truth, noise, _merge, _residual_estimate)


def _residual_estimate(op, u, c, y, state, omega: SupportSet, view, config: RecoveryConfig):
    if len(omega) == 0:
        return state.a[view.T.indices], None
    result = solve(op, omega, state.v, None, config.lsq, y)  # y = Phi* v
    return (state.a + embed(result.coefficients, omega))[view.T.indices], result


def final_polish(op: SamplingOperator, u, a) -> np.ndarray:
    """Re-solve least squares on supp(a) against the original samples.

    Never increases the sample-space residual norm; rank deficiency raises
    as in the direct solver.  ``a`` is read as a finite length-N signal.
    """
    a = as_signal(a, op.n)
    T = support_of(a)
    if len(T) == 0:
        return a.copy()
    result = direct_solve(op, T, np.asarray(u))
    return embed(result.coefficients, T)


def recover_prune_first_variant(
    op: SamplingOperator, u, config: RecoveryConfig, truth=None, noise=None
) -> RecoveryReport:
    """Prune the merged support to s entries BEFORE the least-squares solve.

    Surrogate ranking: indices already in the approximation keep their
    current magnitudes |a_i|; newly identified indices use the proxy
    magnitudes |y_i|.  The top s of the merged ranking (lexicographic ties)
    form the estimation support.  ``truth`` and ``noise`` feed the trace
    and the audits as in :func:`~cosamp.recovery.recover`.
    """
    return _drive(op, u, config, truth, noise, _surrogate_prune, _estimate)


def _surrogate_prune(state, y_neg: np.ndarray, omega: SupportSet, width: int) -> SupportSet:
    prev = _support(state)
    merged = merge_support(omega, prev)
    if len(merged) <= width:
        return merged
    idx = merged.indices
    keys = y_neg[idx]  # negated ranking keys on the merged set, as _select takes them
    keys[np.searchsorted(idx, prev.indices)] = -np.abs(state.a[prev.indices])  # |a_i| wins
    # merged is sorted, so ties still go to the lowest index
    return SupportSet._trusted(idx[_select(keys, width)], merged.n)
