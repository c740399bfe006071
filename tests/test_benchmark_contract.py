"""What the benchmark in ``perfbench/`` relies on in the library, checked from here.

The benchmark's tracer replaces named functions of the ``cosamp`` modules, its
sweep-small workload checks a ``run_sweep`` grid against pinned digests, and its
rip-cert workload checks two RIP constants against pinned values.  These tests
read those files and never edit them: a renamed patch site, or a sweep or RIP
estimate whose output moved, fails here, not only in a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import cosamp
from cosamp import experiment, signals
from cosamp.recovery import FixedIterations, RecoveryConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """``perfbench/<name>.py`` as module ``perfbench_<name>``, without putting
    the directory on the import path."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


def test_every_patch_site_resolves(tracing):
    for module, names in tracing.PATCH_SITES:
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    for name in tracing.SUPPORT_SET_METHODS:
        assert callable(getattr(signals.SupportSet, name, None)), f"SupportSet.{name}"


def test_traced_recovery_matches_and_restores(tracing):
    op = cosamp.gaussian_operator(32, 128, seed=5)
    u = op.apply(cosamp.make_sparse(128, 4, "flat", position_seed=6, sign_seed=7))
    config = RecoveryConfig(s=4, halting=FixedIterations(4))
    before = [(module, name, getattr(module, name)) for module, names in tracing.PATCH_SITES
              for name in names]
    tracer = tracing.Tracer()
    with tracer.active():
        traced = cosamp.recover(tracing.TracedOperator(op, tracer), u, config)
    plain = cosamp.recover(op, u, config)
    assert tracer.counts()["operators.adjoint"] == 4
    assert np.array_equal(traced.approximation, plain.approximation)
    assert all(getattr(module, name) is original for module, name, original in before)


def test_traced_recovery_shows_one_solve_per_iteration(tracing):
    # perfbench's lsq metrics read these spans: each iteration's solve must still
    # pass through recovery.solve and lsq.cg_solve, the names the tracer patches
    op = cosamp.gaussian_operator(32, 128, seed=5)
    u = op.apply(cosamp.make_sparse(128, 4, "flat", position_seed=6, sign_seed=7))
    tracer = tracing.Tracer()
    with tracer.active():
        report = cosamp.recover(tracing.TracedOperator(op, tracer), u,
                                RecoveryConfig(s=4, halting=FixedIterations(4)))
    counts = tracer.counts()
    assert report.iterations_run == 4
    assert counts["lsq.solve"] == 4 and counts["lsq.cg_solve"] == 4


def test_sweep_small_seed_0_matches_its_pin():
    workloads = load("workloads")
    pinned = json.loads((PERFBENCH / "pinned.json").read_text(encoding="utf-8"))
    results = experiment.run_sweep(workloads.SweepSmall().config(0), jobs=1)
    assert sum(r.failures for r in results) == 0
    assert workloads.sweep_pin_problems(workloads.sweep_pin(results),
                                        pinned["sweep-small"]["0"]) == []


def test_rip_cert_seed_0_matches_its_pin():
    workload = load("workloads").RipCert()
    pinned = json.loads((PERFBENCH / "pinned.json").read_text(encoding="utf-8"))
    fixture = workload.build(0)
    out = workload.call(fixture)
    d6, d8 = out[:2]
    assert d6.delta_exact is not None and d6.delta_lower == d6.delta_exact
    exact_6, lower_8 = pinned["rip-cert"]["0"]
    assert abs(d6.delta_exact - exact_6) <= 1e-12
    assert abs(d8.delta_lower - lower_8) <= 1e-12
    assert workload.check(fixture, out) == []
