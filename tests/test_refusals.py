"""Every validation branch the rest of the suite never reaches, given a bad input.

Each row names the call, the exception type and the start of its message.
``tools/line_coverage.py`` lists the function-body statements a test run never
executes; these rows are its ``raise`` statements, the length reads of the
solvers', the recovery loop's, the step audit's, the polish's, the noise fold's and the
SNR metrics' vector inputs, the solvers' refusal of a non-finite estimate, and the integer
reads of the counts that enter ``rip_estimate``, ``prng.sample_many``, ``models`` and
``signals``.  The operator size checks live in
``test_operators.py::TestSizeReader``.
"""

import re

import numpy as np
import pytest

from cosamp import experiment, models, prng, rip, serialize
from cosamp.lsq import cg_solve
from cosamp.operators import (
    DenseOperator,
    DimensionMismatchError,
    PartialFourierOperator,
    SamplingOperator,
    gaussian_operator,
    partial_fourier_operator,
)
from cosamp.recovery import (FixedIterations, RecoveryConfig, check_halt, cosamp_iteration,
                             initial_state, iteration_diagnostics, recover)
from cosamp.signals import SupportSet, as_signal, best_s_approx, embed, head_tail_l1_bound
from cosamp.variants import final_polish

TINY = {
    "version": "config_v1",
    "master_seed": 3,
    "operator": {"kind": "gaussian", "m": 8, "n": 16},
    "signal": {"kind": "sparse", "n": 16, "s": 2},
    "noise": None,
    "recovery": {"s": 2, "halting": [{"kind": "fixed_iterations", "count": 2}]},
}


def _config_file(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    return experiment.load_config(path)


def _signal_file(tmp_path, header, payload):
    path = tmp_path / "signal.csk1"
    path.write_bytes(serialize.SIGNAL_MAGIC + header + payload)
    return serialize.read_signal(path)


def _matrix_file(tmp_path, raw):
    path = tmp_path / "matrix.cskm"
    path.write_bytes(raw)
    return serialize.read_matrix(path)


class Unknown(SamplingOperator):
    """An operator kind the descriptor format does not know."""

    m = n = 3
    apply = adjoint = staticmethod(np.asarray)


def _solve(**given):
    """CG on a 16 x 64 partial Fourier operator and T = {1, 5, 9}, u = ones(16)
    unless ``given`` replaces it, and z0 or a proxy Phi* u when given."""
    return cg_solve(partial_fourier_operator(16, 64, seed=3), SupportSet([1, 5, 9], 64),
                    **{"u": np.ones(16), **given})


def _recover(**given):
    """Three iterations on a 32 x 64 Gaussian operator, with a truth or noise when given."""
    return recover(gaussian_operator(32, 64, seed=3), np.ones(32),
                   RecoveryConfig(s=3, halting=FixedIterations(3)), **given)


def _diagnose(truth=np.zeros(32), noise=None):
    """The step audit of one iteration on a 16 x 32 Gaussian operator, u = ones(16)."""
    op, u = gaussian_operator(16, 32, seed=3), np.ones(16)
    state = cosamp_iteration(initial_state(op, u, 2), op, u, RecoveryConfig(s=2))
    return iteration_diagnostics(state, truth, noise)


def _polish(a):
    """``final_polish`` of ``a`` on a 16 x 32 Gaussian operator, u = ones(16)."""
    return final_polish(gaussian_operator(16, 32, seed=1), np.ones(16), a)


SPEC = models.CompressibleSpec(0.7, 1.0, 16, 1, 2)

# (id, call of tmp_path, exception type, message start)
REFUSALS = [
    # experiment
    ("config root", lambda d: _config_file(d, "[1, 2]"),
     experiment.ConfigError, "config root must be an object"),
    ("variant", lambda d: experiment.run_trial(TINY, variant="fastest"),
     experiment.ConfigError, "unknown variant 'fastest'"),
    ("empty axis", lambda d: experiment.sweep_cells({**TINY, "sweep": {"m": []}}),
     experiment.ConfigError, "sweep: axes must be nonempty"),
    ("null axis value", lambda d: experiment.sweep_cells({**TINY, "sweep": {"s": [2, None]}}),
     experiment.ConfigError, "sweep: axes need explicit values (m, s, noise_norm)"),
    # lsq: u, z0 and a proxy are read as 1-D vectors of length m, |T| and N
    ("u 2-D", lambda d: _solve(u=np.ones((16, 1)), proxy=np.ones(64)),
     DimensionMismatchError, "sample vector must have length 16, got shape (16, 1)"),
    ("u length", lambda d: _solve(u=np.ones(15)),
     DimensionMismatchError, "sample vector must have length 16, got shape (15,)"),
    ("z0 2-D", lambda d: _solve(z0=np.zeros((3, 1))),
     DimensionMismatchError, "warm start must have length 3, got shape (3, 1)"),
    ("z0 length", lambda d: _solve(z0=np.zeros(4)),
     DimensionMismatchError, "warm start must have length 3, got shape (4,)"),
    ("proxy 2-D", lambda d: _solve(proxy=np.ones((64, 1))),
     DimensionMismatchError, "proxy must have length 64, got shape (64, 1)"),
    ("proxy length", lambda d: _solve(proxy=np.ones(63)),
     DimensionMismatchError, "proxy must have length 64, got shape (63,)"),
    # lsq: no solve returns a non-finite estimate
    ("non-finite sample", lambda d: _solve(u=np.full(16, np.nan)),
     np.linalg.LinAlgError, "estimate has non-finite coefficients"),
    # variants: final_polish reads a as a finite length-N signal
    ("polish NaN", lambda d: _polish(np.where(np.isin(np.arange(32), [3, 17]), np.nan, 0.0)),
     ValueError, "signal contains non-finite entries"),
    ("polish length", lambda d: _polish(np.zeros(31)),
     ValueError, "signal has length 31, expected 32"),
    # recovery: truth and noise are read as 1-D vectors of length N and m
    ("truth 2-D", lambda d: _recover(truth=np.zeros((64, 1))),
     DimensionMismatchError, "truth must have length 64, got shape (64, 1)"),
    ("truth length", lambda d: _recover(truth=np.array([0.0])),
     DimensionMismatchError, "truth must have length 64, got shape (1,)"),
    ("noise 2-D", lambda d: _recover(noise=np.zeros((32, 1))),
     DimensionMismatchError, "noise must have length 32, got shape (32, 1)"),
    ("noise length", lambda d: _recover(noise=np.zeros(31)),
     DimensionMismatchError, "noise must have length 32, got shape (31,)"),
    # recovery: the step audit reads truth and noise as recover does
    ("audit truth length", lambda d: _diagnose(truth=np.zeros(31)),
     DimensionMismatchError, "truth must have length 32, got shape (31,)"),
    ("audit scalar noise", lambda d: _diagnose(noise=[5.0]),
     DimensionMismatchError, "noise must have length 16, got shape (1,)"),
    ("audit 3 x 3 noise", lambda d: _diagnose(noise=np.ones((3, 3))),
     DimensionMismatchError, "noise must have length 16, got shape (3, 3)"),
    # models
    ("compressible p", lambda d: models.CompressibleSpec(1.5, 1.0, 8, 1, 2),
     ValueError, "p must lie in (0, 1]"),
    ("compressible n", lambda d: models.CompressibleSpec(0.5, 1.0, 0, 1, 2),
     ValueError, "n must be positive"),
    ("magnitude law", lambda d: models.make_sparse(8, 2, "steep", position_seed=1, sign_seed=2),
     ValueError, "unknown magnitude law 'steep'"),
    ("unrecoverable energy s", lambda d: models.unrecoverable_energy(np.ones(4), 0),
     ValueError, "s must be >= 1"),
    ("l1 bound s", lambda d: models.unrecoverable_energy_l1_bound(np.ones(4), 0),
     ValueError, "s must be >= 1"),
    ("iteration bound s", lambda d: models.iteration_bound(np.ones(4), 0),
     ValueError, "s must be >= 1"),
    # models: counts are read as integers
    ("compressible n float", lambda d: models.CompressibleSpec(0.7, 1.0, 4.5, 1, 2),
     TypeError, "n must be an integer, got 4.5"),
    ("compressible n bool", lambda d: models.CompressibleSpec(0.7, 1.0, True, 1, 2),
     TypeError, "n must be an integer, got True"),
    ("sparse s bool", lambda d: models.make_sparse(10, True, position_seed=1, sign_seed=2),
     TypeError, "s must be an integer, got True"),
    ("sparse n float", lambda d: models.make_sparse(10.0, 2, position_seed=1, sign_seed=2),
     TypeError, "n must be an integer, got 10.0"),
    ("unrecoverable energy s float", lambda d: models.unrecoverable_energy(np.ones(4), 2.0),
     TypeError, "s must be an integer, got 2.0"),
    ("l1 bound s float", lambda d: models.unrecoverable_energy_l1_bound(np.ones(4), 2.0),
     TypeError, "s must be an integer, got 2.0"),
    ("iteration bound s float", lambda d: models.iteration_bound(np.ones(4), 2.0),
     TypeError, "s must be an integer, got 2.0"),
    ("fold s float", lambda d: models.noise_fold(gaussian_operator(8, 16, seed=1),
                                                 np.ones(16), 2.0),
     TypeError, "s must be an integer, got 2.0"),
    ("dynamic range of zero", lambda d: models.dynamic_range_iterations(np.zeros(4), 2),
     ValueError, "dynamic range is undefined for the zero signal"),
    ("tail bounds s", lambda d: models.compressible_tail_bounds(SPEC, -1),
     ValueError, "s must be >= 1"),
    ("tail bounds s float", lambda d: models.compressible_tail_bounds(SPEC, 2.5),
     TypeError, "s must be an integer, got 2.5"),
    ("energy bound s", lambda d: models.compressible_energy_bound(SPEC, 0),
     ValueError, "s must be >= 1"),
    ("energy bound s bool", lambda d: models.compressible_energy_bound(SPEC, True),
     TypeError, "s must be an integer, got True"),
    ("dynamic range s", lambda d: models.dynamic_range_iterations(np.ones(4), 0),
     ValueError, "s must be >= 1"),
    ("dynamic range s float", lambda d: models.dynamic_range_iterations(np.ones(4), 2.5),
     TypeError, "s must be an integer, got 2.5"),
    ("fold s", lambda d: models.noise_fold(gaussian_operator(8, 16, seed=1), np.ones(16), 0),
     ValueError, "s must be >= 1"),
    ("snr approximation length", lambda d: models.snr_metrics(np.ones(4), [0.0], 1.0),
     DimensionMismatchError, "approximation must have length 4, got shape (1,)"),
    ("fold scalar noise", lambda d: models.noise_fold(gaussian_operator(8, 16, seed=1),
                                                      np.ones(16), 2, [0.5]),
     DimensionMismatchError, "noise must have length 8, got shape (1,)"),
    ("fold 2-D noise", lambda d: models.noise_fold(gaussian_operator(8, 16, seed=1),
                                                   np.ones(16), 2, np.zeros((8, 1))),
     DimensionMismatchError, "noise must have length 8, got shape (8, 1)"),
    # operators
    ("dense 1-D", lambda d: DenseOperator(np.ones(4)), ValueError, "matrix must be 2-D"),
    ("dense non-finite", lambda d: DenseOperator(np.array([[1.0, np.nan]])),
     ValueError, "matrix contains non-finite entries"),
    ("fourier rows", lambda d: PartialFourierOperator(4, 16),
     ValueError, "need either a seed or an explicit row set"),
    # recovery
    ("fixed count", lambda d: FixedIterations(-1),
     ValueError, "iteration count must be nonnegative"),
    ("recovery s", lambda d: RecoveryConfig(s=0), ValueError, "s must be >= 1"),
    ("max iterations", lambda d: RecoveryConfig(s=1, max_iterations=-1),
     ValueError, "max_iterations must be nonnegative"),
    ("halting rule", lambda d: check_halt(None, "sample_norm"),
     TypeError, "unknown halting rule 'sample_norm'"),
    # prng: sample_many's sizes are read as integers
    ("sample many trials float", lambda d: prng.sample_many(0, 2.5, 16, 4),
     TypeError, "trials must be an integer, got 2.5"),
    ("sample many n bool", lambda d: prng.sample_many(0, 3, True, 1),
     TypeError, "n must be an integer, got True"),
    ("sample many m float", lambda d: prng.sample_many(0, 3, 16, 4.0),
     TypeError, "m must be an integer, got 4.0"),
    # rip
    ("rip order", lambda d: rip.rip_estimate(gaussian_operator(4, 8, 1), 0),
     ValueError, "need 1 <= r <= N, got r=0"),
    ("rip order bool", lambda d: rip.rip_estimate(gaussian_operator(4, 8, 1), True),
     TypeError, "r must be an integer, got True"),
    ("rip budget bool", lambda d: rip.rip_estimate(gaussian_operator(4, 8, 1), 2, budget=True),
     TypeError, "budget must be an integer, got True"),
    ("rip trials bool", lambda d: rip.rip_estimate(gaussian_operator(4, 8, 1), 2, "monte_carlo",
                                                   trials=True),
     TypeError, "trials must be an integer, got True"),
    ("rip exhaustive seed", lambda d: rip.rip_estimate(gaussian_operator(8, 16, seed=1), 2,
                                                       "exhaustive", seed=-1),
     ValueError, "a seed must lie in [0, 2**64), got -1"),
    ("rip exhaustive seed str", lambda d: rip.rip_estimate(gaussian_operator(8, 16, seed=1), 2,
                                                           "exhaustive", seed="x"),
     TypeError, "a seed must be an integer, got 'x'"),
    ("rip exhaustive trials", lambda d: rip.rip_estimate(gaussian_operator(8, 16, seed=1), 2,
                                                         "exhaustive", trials=0),
     ValueError, "need trials >= 1, got trials=0"),
    # serialize
    ("signal 2-D", lambda d: serialize.write_signal(d / "s.csk1", np.ones((2, 2))),
     ValueError, "signals are 1-D"),
    ("complex payload", lambda d: _signal_file(d, b"\x02\x00\x00\x00\x01", bytes(24)),
     ValueError, "truncated complex signal payload"),
    ("scalar kind", lambda d: _signal_file(d, b"\x01\x00\x00\x00\x02", bytes(8)),
     ValueError, "unknown scalar kind 2"),
    ("matrix 1-D", lambda d: serialize.write_matrix(d / "m.cskm", np.ones(3)),
     ValueError, "matrices are 2-D"),
    ("matrix magic", lambda d: _matrix_file(d, b"CSKX" + bytes(8)),
     ValueError, "bad matrix magic b'CSKX'"),
    ("matrix payload", lambda d: _matrix_file(d, serialize.MATRIX_MAGIC
                                              + b"\x01\x00\x00\x00\x02\x00\x00\x00" + bytes(16)),
     ValueError, "truncated matrix payload"),
    ("descriptor", lambda d: serialize.operator_descriptor(Unknown()),
     TypeError, "cannot describe operator Unknown"),
    # signals
    ("signal shape", lambda d: as_signal(np.ones((2, 2))),
     ValueError, "signal must be 1-D, got shape (2, 2)"),
    ("union dimensions", lambda d: SupportSet([1], 4).union(SupportSet([1], 5)),
     ValueError, "ambient dimensions differ"),
    ("best s", lambda d: best_s_approx(np.ones(4), -1), ValueError, "s must be nonnegative"),
    ("embed size", lambda d: embed(np.ones(3), SupportSet([0, 2], 4)),
     ValueError, "got 3 coefficients for |T| = 2"),
    ("tail bound t", lambda d: head_tail_l1_bound(np.ones(4), 0), ValueError, "t must be >= 1"),
    ("best s float", lambda d: best_s_approx(np.ones(4), 2.0),
     TypeError, "s must be an integer, got 2.0"),
    ("tail bound t float", lambda d: head_tail_l1_bound(np.ones(4), 2.5),
     TypeError, "t must be an integer, got 2.5"),
]


@pytest.mark.parametrize("call, kind, message", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_a_bad_input_is_refused_with_its_message(tmp_path, call, kind, message):
    with pytest.raises(kind, match="^" + re.escape(message)) as caught:
        call(tmp_path)
    assert type(caught.value) is kind


X = np.array([3.0, -1.0, 0.5, 2.0, -4.0, 0.25])

# (id, call of a count reader): each count goes through ``reader``
COUNTS = [
    ("compressible n", lambda k: models.make_compressible(models.CompressibleSpec(0.7, 1.0, k(8),
                                                                                  1, 2))),
    ("compressible n 255", lambda k: models.make_compressible(  # n + 1 wraps in uint8
        models.CompressibleSpec(0.7, 1.0, k(255), 1, 2))),
    ("sparse n and s", lambda k: models.make_sparse(k(10), k(3), position_seed=1, sign_seed=2)),
    ("unrecoverable energy s", lambda k: models.unrecoverable_energy(X, k(2))),
    ("l1 bound s", lambda k: models.unrecoverable_energy_l1_bound(X, k(2))),
    ("iteration bound s", lambda k: models.iteration_bound(X, k(2))),
    ("fold s", lambda k: models.noise_fold(gaussian_operator(4, 6, seed=1), X, k(2)).folded),
    ("best s", lambda k: best_s_approx(X, k(2))[0]),
    ("tail bound t", lambda k: head_tail_l1_bound(X, k(2))),
    ("sample many sizes", lambda k: prng.sample_many(0, k(3), k(16), k(4))),
]


@pytest.mark.parametrize("reader", [np.int64, np.int32, np.uint8], ids=lambda k: k.__name__)
@pytest.mark.parametrize("call", [row[1] for row in COUNTS], ids=[row[0] for row in COUNTS])
def test_a_numpy_integer_count_gives_the_python_ints_result(call, reader):
    assert np.asarray(call(reader)).tobytes() == np.asarray(call(int)).tobytes()
