"""Seeded, portable random primitives.

Every random draw in this package flows through the routines below so that
fixtures are reproducible bit-for-bit across runs, worker counts, and
platforms.  The generation pipeline is pinned:

* Raw 64-bit words come from the Philox-4x64-10 counter-based generator
  keyed by a single 64-bit seed (``numpy.random.Philox``).
* Uniforms in [0, 1) are ``(word >> 11) * 2**-53``.
* Normal deviates use the Box-Muller transform on uniform pairs.
* Sampling without replacement is a Fisher-Yates shuffle driven by raw
  words reduced modulo the remaining range.  Drawing m of n runs only the
  first min(m, n - 1) swaps on the first min(m, n - 1) words: later swaps
  never touch the leading m entries, and Philox words form a prefix-stable
  stream, so the sample is the leading m entries of the full shuffle.
* Derived seeds (per sweep cell, per trial) come from ``mix_seed``, a
  SplitMix64 fold of the master seed and the index tuple.

Changing any of these choices invalidates stored fixtures, so don't.
"""

from __future__ import annotations

import threading

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (next_state, output_word)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def mix_seed(*parts: int) -> int:
    """Fold integers into a single 64-bit seed.

    ``mix_seed(master, cell_index, trial_index, stream)`` is the documented
    derivation used by sweeps, so any cell/trial is re-runnable in isolation.
    """
    state = 0
    for part in parts:
        state = (state ^ (int(part) & _MASK64)) & _MASK64
        state, out = splitmix64(state)
        state = out
    return state


_local = threading.local()


def raw_words(seed: int, count: int) -> np.ndarray:
    """``count`` raw uint64 words from Philox-4x64-10 keyed by ``seed``.

    They are the words of a fresh ``numpy.random.Philox(key=seed)``, whose
    construction draws OS entropy for a seed the key then overrides; so each
    thread keeps one generator and resets it to counter 0 under the key.
    """
    if not hasattr(_local, "philox"):
        _local.philox = np.random.Philox(key=0)
        _local.fresh = _local.philox.state  # counter 0, empty buffer
    _local.fresh["state"]["key"][0] = int(seed) & _MASK64
    _local.philox.state = _local.fresh
    return _local.philox.random_raw(count)


def uniforms(seed: int, count: int) -> np.ndarray:
    """Uniform doubles in [0, 1), one per raw word."""
    words = raw_words(seed, count)
    return (words >> np.uint64(11)) * 2.0**-53


def normals(seed: int, count: int) -> np.ndarray:
    """Standard normal deviates via Box-Muller.

    Consumes 2*ceil(count/2) uniforms; pairs (u1, u2) map to
    sqrt(-2 ln(1-u1)) * (cos, sin)(2 pi u2).  The 1-u1 form keeps the log
    argument in (0, 1], so no special-casing of u1 == 0 is needed.
    """
    pairs = (count + 1) // 2
    u = uniforms(seed, 2 * pairs)
    u1 = u[0::2]
    u2 = u[1::2]
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def complex_normals(seed: int, count: int) -> np.ndarray:
    """Circular complex normals with E|z|^2 = 1 (re and im ~ N(0, 1/2))."""
    z = normals(seed, 2 * count)
    return (z[0::2] + 1j * z[1::2]) / np.sqrt(2.0)


def _fisher_yates(seed: int, n: int, steps: int) -> list[int]:
    """arange(n) after the first ``steps`` Fisher-Yates swaps; swap i uses
    raw word i, reduced modulo n - i."""
    perm = list(range(n))
    if steps > 0:
        offsets = raw_words(seed, steps) % np.arange(n, n - steps, -1, dtype=np.uint64)
        for i, off in enumerate(offsets.tolist()):
            j = i + off
            perm[i], perm[j] = perm[j], perm[i]
    return perm


def shuffled(seed: int, n: int) -> np.ndarray:
    """Fisher-Yates permutation of arange(n), driven by raw Philox words."""
    return np.array(_fisher_yates(seed, n, n - 1), dtype=np.int64)


def sample_without_replacement(seed: int, n: int, m: int) -> np.ndarray:
    """First ``m`` entries of a seeded Fisher-Yates shuffle of [0, n), sorted.

    Only the first min(m, n - 1) swaps run; they alone decide those entries.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    picked = _fisher_yates(seed, n, min(m, n - 1))[:m]
    return np.sort(np.array(picked, dtype=np.int64))


def signs(seed: int, count: int) -> np.ndarray:
    """Seeded +-1 array (uniform < 0.5 maps to -1)."""
    return np.where(uniforms(seed, count) < 0.5, -1.0, 1.0)
