"""The five-step greedy recovery loop with pluggable halting rules.

Each iteration forms the proxy y = Phi* v, identifies the largest proxy
components, merges their support with the current approximation's, solves
a least-squares problem on the merged support T against the ORIGINAL
samples, prunes the estimate back to s terms, and updates the current
samples v = u - Phi_T a_T so they reflect the residual.  The solve and the
update share one view of Phi_T, which the next iteration reuses while T holds.
Each iteration gets a new state holding only what it reads, and no state the
loop returned is ever modified, so a recovery holds ~7 N-vectors at its peak.

Halting is composable: any rule firing stops the loop.  The proxy
infinity-norm rule is evaluated on the proxy already computed that
iteration (no extra multiply), and when it fires the loop returns the
approximation whose residual produced that proxy.

The loop variants in :mod:`cosamp.variants` run through the same driver and
replace only the merge and estimate steps.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Union

import numpy as np

from .lsq import LsqConfig, LsqResult, solve
from .operators import RestrictedView, SamplingOperator, _check_length
from .signals import (SupportSet, _l2, _neg_abs, _select, as_samples, best_s_approx, check_int,
                      embed, restrict, support_of)  # perfbench patches best_s_approx, embed here


@dataclass(frozen=True)
class FixedIterations:
    count: int

    def __post_init__(self) -> None:
        if check_int(self.count, "iteration count") < 0:
            raise ValueError("iteration count must be nonnegative")


@dataclass(frozen=True)
class SampleNorm:
    """Fires when the current-sample norm ||v||_2 drops to epsilon or below."""

    epsilon: float

    def __post_init__(self) -> None:
        if not self.epsilon >= 0:  # NaN included
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon!r}")


@dataclass(frozen=True)
class ProxyInfinityNorm:
    """Fires when ||y||_inf <= eta / sqrt(2 s) for the current proxy."""

    eta: float

    def __post_init__(self) -> None:
        if not self.eta >= 0:  # NaN included
            raise ValueError(f"eta must be nonnegative, got {self.eta!r}")


HaltingRule = Union[FixedIterations, SampleNorm, ProxyInfinityNorm]


@dataclass(frozen=True)
class RecoveryConfig:
    """Run parameters for :func:`recover`.

    ``max_iterations`` defaults to 6 (s + 1), the worst-case bound for
    exact arithmetic.  Each iteration identifies 2s proxy components and
    prunes to s, as the algorithm prescribes.
    """

    s: int
    halting: HaltingRule | Sequence[HaltingRule] = ()
    max_iterations: int | None = None
    lsq: LsqConfig = field(default_factory=LsqConfig)
    record_diagnostics: bool = False

    def __post_init__(self) -> None:
        if check_int(self.s, "s") < 1:
            raise ValueError("s must be >= 1")
        if self.max_iterations is not None and check_int(self.max_iterations, "max_iterations") < 0:
            raise ValueError("max_iterations must be nonnegative")
        if not isinstance(self.halting, HaltingRule) and iter(self.halting) is self.halting:
            raise TypeError("halting must be a rule or a collection of rules, not an iterator")
        for rule in self.rules():
            if not isinstance(rule, HaltingRule):
                raise TypeError(f"unknown halting rule {rule!r}")

    def rules(self) -> tuple[HaltingRule, ...]:
        if isinstance(self.halting, HaltingRule):
            return (self.halting,)
        return tuple(self.halting)

    def effective_max_iterations(self) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return 6 * (self.s + 1)


@dataclass(eq=False, slots=True)
class RecoveryState:
    """Everything the loop knows after an iteration: approximation a,
    previous approximation, current samples v, the proxy y that drove the
    iteration, the identified and merged supports, and the pre-prune
    estimate b.

    ``support`` is supp(a) as the prune chose it, so that no later step
    rescans a; None means not known, and the loop then takes it from a.
    ``view`` is the Phi_T that made b and v, for the next iteration's T if
    equal.  Only the loop sets these two, right after building the state;
    ``dataclasses.replace`` drops them.  The loop modifies no state it built:
    it hands each iteration a copy whose ``a_prev``, ``y`` and ``b`` are None.
    """

    k: int
    s: int
    a: np.ndarray
    a_prev: np.ndarray | None
    v: np.ndarray
    y: np.ndarray | None
    omega: SupportSet
    T: SupportSet
    b: np.ndarray | None
    lsq_result: LsqResult | None = None
    support: SupportSet | None = field(default=None, init=False)
    view: RestrictedView | None = field(default=None, init=False)


def _support(state: RecoveryState) -> SupportSet:
    """supp(a): the prune's support when the state carries it, else a scan of a."""
    return support_of(state.a) if state.support is None else state.support


def initial_state(op: SamplingOperator, u, s: int) -> RecoveryState:
    u = np.asarray(u)
    dtype = np.complex128 if (op.is_complex or np.iscomplexobj(u)) else np.float64
    zero, empty = np.zeros(op.n, dtype=dtype), SupportSet.empty(op.n)
    return RecoveryState(0, s, zero, np.zeros(op.n, dtype), u.astype(dtype), None, empty, empty, None)


def identify(y, width: int) -> SupportSet:
    """Support of the best ``width``-term approximation of the proxy.

    Ties break lexicographically; exact zeros are never selected, so a zero
    proxy yields the empty set.
    """
    return SupportSet._trusted(_select(_neg_abs(y), width), np.size(y))


def merge_support(omega: SupportSet, prev: SupportSet) -> SupportSet:
    """Sorted union of the newly identified set with the previous support."""
    return omega.union(prev)


def _inf_norm(y: np.ndarray) -> float:
    mag = np.abs(y)  # read at argmax: max's entry, without a reduction's set-up cost
    return float(mag[mag.argmax()]) if y.size else 0.0


def _limits(rules, s: int) -> tuple[float, float, float]:
    """(epsilon, count, y_limit): ``rules`` fire after k iterations when
    ||v||_2 <= epsilon, k >= count or the proxy's ||y||_inf <= y_limit.
    A kind of rule fires when its loosest member does."""
    return (
        max((r.epsilon for r in rules if isinstance(r, SampleNorm)), default=-np.inf),
        min((r.count for r in rules if isinstance(r, FixedIterations)), default=np.inf),
        max((r.eta / np.sqrt(2.0 * s) for r in rules if isinstance(r, ProxyInfinityNorm)),
            default=-np.inf),
    )


def check_halt(state: RecoveryState, rule: HaltingRule) -> bool:
    """Whether ``rule`` fires on ``state``.

    The proxy rule reads the proxy stored in the state, i.e. the one
    computed during that iteration; it never triggers an extra multiply.
    """
    if not isinstance(rule, HaltingRule):
        raise TypeError(f"unknown halting rule {rule!r}")
    epsilon, count, y_limit = _limits((rule,), state.s)
    return (state.k >= count or float(np.linalg.norm(state.v)) <= epsilon
            or (state.y is not None and _inf_norm(state.y) <= y_limit))


def _merge(state: RecoveryState, y_neg, omega: SupportSet, width: int) -> SupportSet:
    """Standard merge: Omega united with the current approximation's support."""
    return merge_support(omega, _support(state))


def _estimate(
    op, u, c, y, state: RecoveryState, omega: SupportSet, view: RestrictedView, config
) -> tuple[np.ndarray, LsqResult | None]:
    """Standard estimate: least squares on ``view`` = Phi_T against the original samples
    u and the proxy c = Phi* u (None if unknown), warm-started from a restricted to T."""
    T = view.T
    if T.indices.size == 0:
        return np.zeros(0, state.a.dtype), None
    result = solve(op, T, u, state.a[T.indices], config.lsq, c, view)
    return result.coefficients, result


def _iterate(state: RecoveryState, y: np.ndarray, keys: list[np.ndarray], op: SamplingOperator,
             u: np.ndarray, c: np.ndarray | None, config: RecoveryConfig, merge, estimate,
             times: dict[str, float]) -> tuple[RecoveryState, float]:
    """Identify, merge, estimate, prune and update from the proxy ``y`` and ``keys``
    = [y_neg], y_neg = -|y|, for a validated ``u`` and ``c`` = Phi* u (or None); the
    merge pops y_neg, which then goes unless the caller kept it.  Returns (state, ||v||_2).

    ``merge(state, y_neg, omega, prune_width)`` returns the estimation
    support T and ``estimate(op, u, c, y, state, omega, view, config)`` the
    pre-prune estimate b on T, b[T] (b is zero off T, so the prune ranks b on
    T alone), with its solver result; they are the only steps in which the
    loop variants differ; ``view`` is Phi_T, which the update applies too.
    The five step times in microseconds go into ``times``, in one update from
    the step boundaries.  A solver ``LinAlgError``, a non-finite estimate
    included, raises :class:`SolverFailure`.
    """
    clock = time.perf_counter_ns
    t0 = clock()
    n = op.n
    prune_width = min(config.s, n)  # identify 2s, prune to s, both capped at N
    omega = SupportSet._trusted(_select(keys[0], min(2 * config.s, n)), n)
    t1 = clock()
    T = merge(state, keys.pop(), omega, prune_width)
    t2 = clock()
    idx, view = T.indices, state.view
    if view is None or view.op is not op or view.T.indices.tobytes() != idx.tobytes():
        view = op.restricted(T)
    try:
        b_T, lsq_result = estimate(op, u, c, y, state, omega, view, config)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(state.k + 1, exc) from exc
    b = np.zeros(n, b_T.dtype)
    b[idx] = b_T
    t3 = clock()
    chosen = _select(_neg_abs(b_T), prune_width)  # T is sorted: ties break as on b
    support = SupportSet._trusted(idx[chosen], n)
    kept = np.zeros(idx.size, b_T.dtype)  # a_next on T, for the update
    kept[chosen] = values = b_T[chosen]
    a_next = np.zeros(n, b_T.dtype)  # best_s_approx(b, prune_width), selected on T alone
    a_next[support.indices] = values
    t4 = clock()
    v_next = u - view.products(b_T.dtype)[0](kept, a_next)
    v_norm = _l2(v_next)
    state = RecoveryState(state.k + 1, state.s, a_next, state.a, v_next, y, omega, T, b,
                          lsq_result)
    state.support, state.view = support, view
    t5 = clock()
    times.update(identify=(t1 - t0) / 1000.0, merge=(t2 - t1) / 1000.0,
                 estimate=(t3 - t2) / 1000.0, prune=(t4 - t3) / 1000.0, update=(t5 - t4) / 1000.0)
    return state, v_norm


def cosamp_iteration(
    state: RecoveryState, op: SamplingOperator, u, config: RecoveryConfig
) -> RecoveryState:
    """One full iteration: proxy, identify, merge, estimate, prune, update.

    It runs the same step code as :func:`recover`, so stepping it k times
    from :func:`initial_state` reproduces ``recover`` with
    ``FixedIterations(k)``.  ``u`` is validated as in :func:`recover`.
    """
    u = as_samples(u, op.m)
    y = op.adjoint(state.v)
    return _iterate(state, y, [_neg_abs(y)], op, u, None, config, _merge, _estimate, {})[0]


class TraceRow(NamedTuple):
    k: int
    v_norm: float
    y_inf: float
    err_l2: float | None
    err_linf: float | None
    step_times_us: dict[str, float]

    def total_time_us(self) -> float:
        return float(sum(self.step_times_us.values()))

    def __hash__(self) -> int:  # by value, the step-time dict by its items
        return hash((*self[:5], frozenset(self.step_times_us.items())))


@dataclass(frozen=True)
class StepBound:
    name: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + 1e-12 * max(1.0, abs(self.rhs))


def iteration_diagnostics(state: RecoveryState, truth, noise) -> tuple[StepBound, ...]:
    """Per-iteration audit of the identification / merger / estimation /
    pruning inequalities against a planted s-sparse truth.

    ``state`` must be a completed iteration (k >= 1); the residual is taken
    against the approximation that began the iteration.  The estimation
    inequality assumes the exact least-squares solution, so audit runs
    should use the direct solver.
    """
    if state.k < 1 or state.b is None or state.y is None:
        raise ValueError("diagnostics need a completed iteration")
    x, m = _check_length(truth, state.a.size, "truth"), state.v.size
    e_norm = 0.0 if noise is None else float(np.linalg.norm(_check_length(noise, m, "noise")))
    r = x - state.a_prev
    r_off_omega = float(np.linalg.norm(restrict(r, state.omega.complement())))
    r_norm = float(np.linalg.norm(r))
    x_off_t = float(np.linalg.norm(restrict(x, state.T.complement())))
    est_err = float(np.linalg.norm(x - state.b))
    prune_err = float(np.linalg.norm(x - state.a))
    return (
        StepBound("identification", r_off_omega, 0.2223 * r_norm + 2.34 * e_norm),
        StepBound("support_merger", x_off_t, r_off_omega),
        StepBound("estimation", est_err, 1.112 * x_off_t + 1.06 * e_norm),
        StepBound("pruning", prune_err, 2.0 * est_err),
    )


@dataclass(frozen=True, eq=False)
class RecoveryReport:
    """Audited outcome of one recovery run."""

    approximation: np.ndarray
    support: SupportSet
    iterations_run: int
    halt_reason: str
    trace: tuple[TraceRow, ...]
    step_audits: tuple[tuple[StepBound, ...], ...] = ()
    diverged_iterations: tuple[int, ...] = ()

    @property
    def final_error(self) -> float | None:
        if self.trace and self.trace[-1].err_l2 is not None:
            return self.trace[-1].err_l2
        return None


class SolverFailure(RuntimeError):
    """Least-squares failure surfaced with the iteration index."""

    def __init__(self, iteration: int, cause: Exception):
        self.iteration = iteration
        self.cause = cause
        super().__init__(f"least-squares solver failed at iteration {iteration}: {cause}")


def recover(
    op: SamplingOperator, u, config: RecoveryConfig, truth=None, noise=None
) -> RecoveryReport:
    """Run the loop until a halting rule fires or the iteration cap is hit.

    Before each proxy the loop checks the sample-norm rules, then the fixed
    counts, then the cap; right after the proxy it checks the proxy rules.
    The first that fires names the halt reason, whatever the order of
    ``config.halting``.

    ``u`` must be a finite length-m sample vector (``ValueError`` otherwise);
    an estimate with non-finite coefficients raises :class:`SolverFailure`.

    When ``truth`` (length N) is supplied, per-iteration errors are recorded in
    the trace; with ``config.record_diagnostics`` the per-step bound audit runs
    too (requires truth, and uses ``noise``, length m, for the noise-energy terms).
    """
    return _drive(op, u, config, truth, noise, _merge, _estimate)


def _drive(
    op: SamplingOperator, u, config: RecoveryConfig, truth, noise, merge, estimate
) -> RecoveryReport:
    """The recovery loop behind :func:`recover` and the loop variants.

    It validates ``u``, ``truth`` and ``noise``, applies the halting rules, times
    every step, and records the trace, the diverged iterations and the audits;
    ``merge`` and ``estimate`` are the variant's own steps, as in :func:`_iterate`.
    """
    u = as_samples(u, op.m)
    if 4 * config.s > op.n:
        warnings.warn(
            f"4 s = {4 * config.s} exceeds N = {op.n}; recovery guarantees assume 4 s <= N",
            stacklevel=3,
        )
    epsilon, count, y_limit = _limits(config.rules(), config.s)
    max_iters = config.effective_max_iterations()

    state = initial_state(op, u, config.s)
    x = None if truth is None else _check_length(truth, op.n, "truth")
    noise = None if noise is None else _check_length(noise, op.m, "noise")
    trace: list[TraceRow] = []
    audits: list[tuple[StepBound, ...]] = []
    diverged: list[int] = []
    v_norm = _l2(state.v)
    c = None  # Phi* u: the first proxy, since v_0 = u

    # One halting pass per iteration; see recover for the priority.
    while True:
        if v_norm <= epsilon:
            halt_reason = "sample_norm"
            break
        if state.k >= count:
            halt_reason = "fixed_iterations"
            break
        if state.k >= max_iters:
            halt_reason = "max_iterations"
            break

        tick = time.perf_counter_ns()
        y = op.adjoint(state.v)
        keys = [_neg_abs(y)]  # the one |y| pass: ||y||_inf, the identify step, prune-first
        y_inf = float(-keys[0][keys[0].argmin()]) if y.size else 0.0
        c = y if c is None else c
        times = {"proxy": (time.perf_counter_ns() - tick) / 1000.0}
        if y_inf <= y_limit:
            halt_reason = "proxy_infinity_norm"
            break

        done, v_norm = _iterate(state, y, keys, op, u, c, config, merge, estimate, times)
        if done.lsq_result is not None and done.lsq_result.diverged:
            diverged.append(done.k)

        diff = None if x is None else x - done.a
        err_l2, err_linf = (None, None) if diff is None else (_l2(diff), _inf_norm(diff))
        trace.append(TraceRow(done.k, v_norm, y_inf, err_l2, err_linf, times))
        if config.record_diagnostics and x is not None:
            audits.append(iteration_diagnostics(done, x, noise))
        state = RecoveryState(done.k, done.s, done.a, None, done.v, None, done.omega, done.T, None)
        state.support, state.view = done.support, done.view
        del y, done, diff  # y, b and a_prev go before the next proxy: state holds the rest

    return RecoveryReport(
        approximation=state.a,
        support=_support(state),
        iterations_run=state.k,
        halt_reason=halt_reason,
        trace=tuple(trace),
        step_audits=tuple(audits),
        diverged_iterations=tuple(diverged),
    )
