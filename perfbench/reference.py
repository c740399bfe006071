"""Fixed reference kernels that the benchmark times beside every call.

On a shared host the processor's speed can drift by tens of percent over
minutes, and the drift moves a 25-second run's median call time as much as
a real change would.
So each timed call is paired with a reference kernel that does the same
kind of work with numpy alone: its inputs come from a fixed seed, it never
calls into ``cosamp``, and so it runs the same code at every commit.  The
end-to-end call metrics are call times in units of the mean of the
reference times taken just before and just after the call.

``dense``: matvecs with a 1024x4096 Gaussian, its adjoint and a column
gather, the work of ``DenseOperator`` products.  ``fft``: a length-2^16
FFT round trip and an argsort of its magnitudes, the work of a partial
Fourier product and of selection over N=2^16.  ``small``: batched
``eigvalsh`` of 6x6 Gram blocks and a Python Fisher-Yates loop over numpy
scalars, the work of small-matrix calls and of ``prng`` shuffles.
"""

from __future__ import annotations

import time
from itertools import combinations, islice

import numpy as np

_rng = np.random.default_rng(20_080_316)
_A = _rng.standard_normal((1024, 4096))
_x = _rng.standard_normal(4096)
_columns = np.sort(_rng.choice(4096, 120, replace=False))
_z = _rng.standard_normal(1 << 16) + 1j * _rng.standard_normal(1 << 16)
_B = _rng.standard_normal((24, 32))
_gram = _B.T @ _B / 24
_supports = np.array(list(islice(combinations(range(32), 6), 20_000)), dtype=np.int64)
_words = _rng.integers(0, 2**63, size=1024, dtype=np.uint64)


def _dense() -> None:
    y = _A @ _x
    _A.T @ y
    _A[:, _columns].T @ y


def _fft() -> None:
    np.fft.ifft(np.fft.fft(_z))
    np.argsort(np.abs(_z))


def _small() -> None:
    for start in range(0, len(_supports), 4096):
        block = _supports[start : start + 4096]
        np.linalg.eigvalsh(_gram[block[:, :, None], block[:, None, :]])
    perm = np.arange(128, dtype=np.int64)
    for k in range(8):
        for i in range(127):
            j = i + int(_words[i + k] % np.uint64(128 - i))
            perm[i], perm[j] = perm[j], perm[i]


KERNELS = {"dense": _dense, "fft": _fft, "small": _small}


def seconds(kind: str, reps: int) -> float:
    """Wall seconds of ``reps`` back-to-back runs of the ``kind`` kernel."""
    kernel = KERNELS[kind]
    start = time.perf_counter()
    for _ in range(reps):
        kernel()
    return time.perf_counter() - start
