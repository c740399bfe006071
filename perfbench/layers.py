"""The traced run: per-layer metrics for one workload.

Untraced and traced calls alternate for the run's length, so their
difference (the tracing overhead) is not skewed by drift on the machine.
Untraced calls feed the loop-step medians, which ``recover`` times itself;
traced calls feed the spans, self times and counts.  Microbenchmarks then
time each layer's public functions at the workload's own sizes.
A layer that the workload never enters reports 0.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from cosamp import experiment, lsq, models, prng, recovery, rip, signals

from tracing import LAYERS, PRODUCTS, TracedOperator, Tracer

STEPS = ("proxy", "identify", "merge", "estimate", "prune", "update")

PER_LAYER = (
    ("operators.apply_us", "us", "lower"),
    ("operators.adjoint_us", "us", "lower"),
    ("operators.apply_sub_us", "us", "lower"),
    ("operators.adjoint_sub_us", "us", "lower"),
    ("operators.products_per_call", "count", "lower"),
    ("operators.fft_flops_computed", "count", "lower"),
    ("operators.dense_bytes_computed", "B", "lower"),
    ("operators.self_ms", "ms", "lower"),
    ("signals.best_s_approx_us", "us", "lower"),
    ("signals.support_union_us", "us", "lower"),
    ("signals.support_set_us", "us", "lower"),
    ("signals.self_ms", "ms", "lower"),
    ("lsq.cg_us", "us", "lower"),
    ("lsq.richardson_us", "us", "lower"),
    ("lsq.direct_us", "us", "lower"),
    ("lsq.products_per_solve", "count", "lower"),
    ("lsq.iterations_used", "count", "lower"),
    ("lsq.residual_norm", "1", "lower"),
    ("lsq.self_ms", "ms", "lower"),
    *((f"recovery.step.{step}_us", "us", "lower") for step in STEPS),
    ("recovery.loop_overhead_us", "us", "lower"),
    ("recovery.iterations_p50", "count", "lower"),
    ("recovery.self_ms", "ms", "lower"),
    ("rip.exhaustive_s", "s", "lower"),
    ("rip.monte_carlo_s", "s", "lower"),
    ("rip.supports_evaluated", "count", "lower"),
    ("rip.gram_deviation_us", "us", "lower"),
    ("rip.self_ms", "ms", "lower"),
    ("prng.sample_without_replacement_ms", "ms", "lower"),
    ("prng.sample_without_replacement_small_us", "us", "lower"),
    ("prng.normals_ms", "ms", "lower"),
    ("prng.self_ms", "ms", "lower"),
    ("models.make_sparse_ms", "ms", "lower"),
    ("models.make_compressible_ms", "ms", "lower"),
    ("models.self_ms", "ms", "lower"),
    ("experiment.build_operator_ms", "ms", "lower"),
    ("experiment.build_signal_ms", "ms", "lower"),
    ("experiment.run_trial_ms", "ms", "lower"),
    ("experiment.fixture_share", "ratio", "lower"),
    ("experiment.self_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.spans_per_call", "count", "lower"),
    ("process.minor_faults_per_call", "count", "lower"),
)

_LSQ_REPLAY_ITERATIONS = 8


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def _time_us(fn, budget_s: float = 0.25, max_reps: int = 200) -> float:
    """Median microseconds of ``fn()`` over at least ``min(3, max_reps)`` and
    at most ``max_reps`` calls, stopping once ``budget_s`` has passed."""
    samples = []
    least = min(3, max_reps)
    deadline = time.perf_counter() + budget_s
    while len(samples) < max_reps and (len(samples) < least or time.perf_counter() < deadline):
        start = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - start)
    return _median(samples) / 1e3


class RecoverSink:
    """Captures ``(trace rows, iterations, wall_ns)`` of every ``recover``
    call while ``collect`` is set, whoever the caller is."""

    def __init__(self):
        self.collect = False
        self.records: list[tuple[tuple, int, int]] = []

    @contextlib.contextmanager
    def active(self):
        original = recovery.recover

        @functools.wraps(original)
        def capturing(*args, **kwargs):
            start = time.perf_counter_ns()
            report = original(*args, **kwargs)
            if self.collect:
                wall_ns = time.perf_counter_ns() - start
                self.records.append((report.trace, report.iterations_run, wall_ns))
            return report

        recovery.recover = experiment.recover = capturing
        try:
            yield self
        finally:
            recovery.recover = experiment.recover = original


def _step_metrics(records) -> dict[str, float]:
    rows = [row for trace, _, _ in records for row in trace]
    out = {
        f"recovery.step.{step}_us": _median(row.step_times_us.get(step, 0.0) for row in rows)
        for step in STEPS
    }
    overheads = [
        (wall_ns / 1e3 - sum(row.total_time_us() for row in trace)) / iterations
        for trace, iterations, wall_ns in records
        if iterations
    ]
    out["recovery.loop_overhead_us"] = _median(overheads)
    out["recovery.iterations_p50"] = _median(iterations for _, iterations, _ in records)
    return out


def _operator_metrics(op, n: int, s: int, seed: int) -> dict[str, float]:
    x = prng.normals(prng.mix_seed(seed, 11), n)
    v = op.apply(x)
    width = min(3 * s, n)
    T = signals.SupportSet(prng.sample_without_replacement(prng.mix_seed(seed, 12), n, width), n)
    coeffs = prng.normals(prng.mix_seed(seed, 13), width)
    return {
        "operators.apply_us": _time_us(lambda: op.apply(x)),
        "operators.adjoint_us": _time_us(lambda: op.adjoint(v)),
        "operators.apply_sub_us": _time_us(lambda: op.apply_sub(T, coeffs)),
        "operators.adjoint_sub_us": _time_us(lambda: op.adjoint_sub(T, v)),
    }


def _signals_metrics(n: int, s: int, seed: int) -> dict[str, float]:
    y = prng.normals(prng.mix_seed(seed, 21), n)
    wide = prng.sample_without_replacement(prng.mix_seed(seed, 22), n, min(2 * s, n))
    narrow = prng.sample_without_replacement(prng.mix_seed(seed, 23), n, min(s, n))
    merged = np.union1d(wide, narrow)
    a, b = signals.SupportSet(wide, n), signals.SupportSet(narrow, n)
    return {
        "signals.best_s_approx_us": _time_us(lambda: signals.best_s_approx(y, 2 * s)),
        "signals.support_union_us": _time_us(lambda: a.union(b)),
        "signals.support_set_us": _time_us(lambda: signals.SupportSet(merged, n)),
    }


def _lsq_metrics(problem) -> dict[str, float]:
    """Replays each solver on the supports and warm starts that stepping
    ``cosamp_iteration`` from the initial state produces, up to the
    workload's halt (at most eight iterations)."""
    op, u, config = problem.op, problem.u, problem.config
    state = recovery.initial_state(op, u, config.s)
    captured = []
    while len(captured) < _LSQ_REPLAY_ITERATIONS:
        state = recovery.cosamp_iteration(state, op, u, config)
        captured.append((state.T, state.a_prev[state.T.indices]))
        if any(recovery.check_halt(state, rule) for rule in config.rules()):
            break
    iters = config.lsq.iterations
    cg = [lsq.cg_solve(op, T, u, z0, iters) for T, z0 in captured]
    counter = Tracer()
    with counter.active():
        lsq.cg_solve(TracedOperator(op, counter), captured[0][0], u, captured[0][1], iters)
    products = counter.counts()
    return {
        "lsq.cg_us": _median(
            _time_us(lambda: lsq.cg_solve(op, T, u, z0, iters), budget_s=0.1, max_reps=5)
            for T, z0 in captured
        ),
        "lsq.richardson_us": _median(
            _time_us(lambda: lsq.richardson_solve(op, T, u, z0, iters), budget_s=0.1, max_reps=5)
            for T, z0 in captured
        ),
        "lsq.direct_us": _median(
            _time_us(lambda: lsq.direct_solve(op, T, u), budget_s=0.0, max_reps=1)
            for T, _ in captured[:2]
        ),
        "lsq.products_per_solve": float(sum(products[f"operators.{p}"] for p in PRODUCTS)),
        "lsq.iterations_used": _median(r.iterations_used for r in cg),
        "lsq.residual_norm": _median(r.residual_samples_norm for r in cg),
    }


def _fixture_metrics(n: int, s: int, seed: int) -> dict[str, float]:
    spec = models.CompressibleSpec(
        p=0.7, magnitude=1.0, n=n, sign_seed=prng.mix_seed(seed, 31),
        permutation_seed=prng.mix_seed(seed, 32),
    )
    return {
        "prng.sample_without_replacement_ms": _time_us(
            lambda: prng.sample_without_replacement(seed, 2**16, 2**14), max_reps=5
        ) / 1e3,
        "prng.sample_without_replacement_small_us": _time_us(
            lambda: prng.sample_without_replacement(seed, 128, 8)
        ),
        "prng.normals_ms": _time_us(lambda: prng.normals(seed, 4 * 2**20), max_reps=3) / 1e3,
        "models.make_sparse_ms": _time_us(
            lambda: models.make_sparse(
                n, s, "flat", position_seed=prng.mix_seed(seed, 33),
                sign_seed=prng.mix_seed(seed, 34),
            ),
            max_reps=20,
        ) / 1e3,
        "models.make_compressible_ms": _time_us(
            lambda: models.make_compressible(spec), max_reps=20
        ) / 1e3,
    }


def _experiment_metrics(calls: Tracer, build: Tracer, trial: Tracer) -> dict[str, float]:
    """Fixture build times, and the share of ``run_trial`` spent building the
    trial's operator, signal and noise (from the sweep's own trials when the
    calls run any, else from one traced ``run_trial`` of the fixture)."""
    tracers = (calls, build, trial)
    source = calls if calls.durations_ns("experiment.run_trial") else trial
    trial_ns = sum(source.durations_ns("experiment.run_trial"))
    fixture_ns = sum(
        sum(source.durations_ns(f"experiment.{name}"))
        for name in ("build_operator", "build_signal", "build_noise")
    )
    return {
        f"experiment.{name}_ms": _median(
            d for t in tracers for d in t.durations_ns(f"experiment.{name}")
        ) / 1e6
        for name in ("build_operator", "build_signal")
    } | {"experiment.fixture_share": fixture_ns / trial_ns if trial_ns else 0.0}


def traced_run(wl, fx, seed: int, seconds: float, out_dir):
    """Runs the traced measurement; returns (metrics, detail, attempted, failed)."""
    calls, build, trial = Tracer(), Tracer(), Tracer()
    sink = RecoverSink()
    untraced_ns, traced_ns, faults, summaries = [], [], [], []
    attempted = failed = 0

    def one_call(fixture, tracer):
        nonlocal attempted, failed
        attempted += 1
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                sink.collect = True
                try:
                    out = wl.call(fixture)
                finally:
                    sink.collect = False
            else:
                with tracer.active(), tracer.span("bench.call"):
                    out = wl.call(fixture)
        except Exception:  # a raising call is counted and the loop goes on
            traceback.print_exc(file=sys.stderr)
            failed += 1
            return
        elapsed = time.perf_counter_ns() - start
        if tracer is None:
            untraced_ns.append(elapsed)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            summaries.append(wl.summary(fixture, out))
        else:
            traced_ns.append(elapsed)
        try:
            problems = wl.check(fixture, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            problems = ["check raised"]
        if problems:
            failed += 1
            print(f"check failed ({'traced' if tracer else 'untraced'}): {problems}")

    with sink.active():
        deadline = time.perf_counter() + seconds
        one_call(fx, None)
        traced_fx = wl.traced_fixture(fx, lambda op: TracedOperator(op, calls))
        one_call(traced_fx, calls)
        while time.perf_counter() < deadline:
            one_call(fx, None)
            one_call(traced_fx, calls)

    with build.active(), build.span("bench.build"):
        wl.build(seed)
    metrics: dict[str, float] = {"experiment.run_trial_ms": 0.0}
    trial_cfg = wl.trial_config(fx)
    if trial_cfg is not None:
        start = time.perf_counter_ns()
        outcome = experiment.run_trial(trial_cfg)
        metrics["experiment.run_trial_ms"] = (time.perf_counter_ns() - start) / 1e6
        attempted += 1
        if wl.check(fx, outcome.report):
            failed += 1
            print("check failed: experiment.run_trial disagrees with the benchmark's call")
        with trial.active(), trial.span("bench.run_trial"):
            experiment.run_trial(trial_cfg)

    n_traced = max(len(traced_ns), 1)  # per-call figures are 0 when every call raised
    self_ns = calls.self_ns_by_layer()
    counts = calls.counts()
    detail = wl.describe(fx, summaries)
    metrics.update({f"{layer}.self_ms": self_ns.get(layer, 0) / n_traced / 1e6 for layer in LAYERS})
    metrics.update(
        {
            "operators.products_per_call": sum(counts[f"operators.{p}"] for p in PRODUCTS)
            / n_traced,
            "operators.fft_flops_computed": calls.fft_flops / n_traced,
            "operators.dense_bytes_computed": calls.dense_bytes / n_traced,
            "rip.supports_evaluated": calls.eig_matrices / n_traced,
            "rip.exhaustive_s": detail.get("exhaustive_s", 0.0),
            "rip.monte_carlo_s": detail.get("monte_carlo_s", 0.0),
            "trace.overhead_ms": (_median(traced_ns) - _median(untraced_ns)) / 1e6,
            "trace.spans_per_call": len(calls.spans) / n_traced,
            "process.minor_faults_per_call": _median(faults),
        }
    )
    metrics.update(_experiment_metrics(calls, build, trial))
    records = sink.records
    metrics.update(_step_metrics(records) if records else _zero("recovery.", "self_ms"))

    op, n, s, problem = wl.layer_problem(fx)
    metrics.update(_operator_metrics(op, n, s, seed))
    metrics.update(_signals_metrics(n, s, seed))
    metrics.update(_lsq_metrics(problem) if problem is not None else _zero("lsq.", "self_ms"))
    r = min(s, n)
    T = signals.SupportSet(prng.sample_without_replacement(prng.mix_seed(seed, 41), n, r), n)
    metrics["rip.gram_deviation_us"] = _time_us(lambda: rip.gram_deviation(op, T), max_reps=20)
    metrics.update(_fixture_metrics(n, s, seed))

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{seed}"
    calls.write(out_dir / f"{stem}-calls.csv.gz")
    build.write(out_dir / f"{stem}-build.csv.gz")
    trial.write(out_dir / f"{stem}-run_trial.csv.gz")
    detail.update(
        {
            "untraced_calls": len(untraced_ns),
            "traced_calls": len(traced_ns),
            "untraced_call_ms_p50": _median(untraced_ns) / 1e6,
            "traced_call_ms_p50": _median(traced_ns) / 1e6,
            "product_counts_per_call": {p: counts[f"operators.{p}"] / n_traced for p in PRODUCTS},
            "spans_written": str(out_dir / f"{stem}-calls.csv.gz"),
        }
    )
    return metrics, detail, attempted, failed


def _zero(prefix: str, keep_out: str) -> dict[str, float]:
    """Zeros for every per-layer metric under ``prefix`` except ``keep_out``."""
    return {
        name: 0.0
        for name, _, _ in PER_LAYER
        if name.startswith(prefix) and not name.endswith(keep_out)
    }
