"""Seeded, portable random primitives.

Every random draw in this package flows through the routines below so that
fixtures are reproducible bit-for-bit across runs, worker counts, and
platforms.  The generation pipeline is pinned:

* Raw 64-bit words come from the Philox-4x64-10 counter-based generator
  keyed by a single 64-bit seed (``numpy.random.Philox``).
* Uniforms in [0, 1) are ``(word >> 11) * 2**-53``.
* Normal deviates use the Box-Muller transform on uniform pairs, in blocks
  straight into the output: the one-shot bits, in output size plus ~4 MB.
* Sampling without replacement is a Fisher-Yates shuffle driven by raw
  words reduced modulo the remaining range.  Drawing m of n runs only the
  first min(m, n - 1) swaps on the first min(m, n - 1) words: later swaps
  never touch the leading m entries, and Philox words form a prefix-stable
  stream, so the sample is the leading m entries of the full shuffle.
* Derived seeds (per sweep cell, per trial) come from ``mix_seed``, a
  SplitMix64 fold of the master seed and the index tuple.

Single streams come from numpy's ``Philox``, the fast path and the reference.
Many short streams at once (:func:`sample_many`, one per Monte Carlo trial)
take one numpy pass: Philox block b of key k is a pure function of (k, b),
so :func:`raw_words_many` runs the same rounds in place over a key vector,
and the shuffles run swap by swap on a positions x trials byte table.

Changing any of these choices invalidates stored fixtures, so don't.
"""

from __future__ import annotations

import threading

import numpy as np

from .signals import check_int

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Philox-4x64 round multipliers and key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_TABLE_ENTRIES = 1 << 21  # bytes in one chunk of sample_many's shuffle table and words
_BLOCK_PAIRS = 1 << 17  # Box-Muller pairs per block of normals (2 MB of words)


def _splitmix64(state):
    """SplitMix64's output word for ``state``: a Python int or a uint64 array
    (whose multiplies wrap modulo 2**64, as the masks do for ints)."""
    z = (state + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def check_seed(seed: int) -> int:
    """``seed`` if it is a u64, in [0, 2**64); the streams would fold any other int silently."""
    if not 0 <= check_int(seed, "a seed") <= _MASK64:
        raise ValueError(f"a seed must lie in [0, 2**64), got {seed!r}")
    return seed


def mix_seed(*parts: int) -> int:
    """Fold integers into one 64-bit seed: ``mix_seed(master, cell_index,
    trial_index, stream)`` is the documented derivation used by sweeps, so any
    cell/trial is re-runnable in isolation."""
    state = 0
    for part in parts:
        state = _splitmix64(state ^ (int(part) & _MASK64))
    return state


_local = threading.local()


def _philox(seed: int) -> np.random.Philox:
    """This thread's Philox at counter 0 under key ``seed`` (a new one would draw OS entropy)."""
    if not hasattr(_local, "philox"):
        _local.philox = np.random.Philox(key=0)
        _local.fresh = _local.philox.state  # counter 0, empty buffer
    _local.fresh["state"]["key"][0] = int(seed) & _MASK64
    _local.philox.state = _local.fresh
    return _local.philox


def raw_words(seed: int, count: int) -> np.ndarray:
    """``count`` raw uint64 words: those of a fresh ``numpy.random.Philox(key=seed)``."""
    return _philox(seed).random_raw(count)


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high words of the 128-bit products a * b, the low ones over the uint64
    array b; the high word is summed in place from 32-bit half products, none overflowing."""
    a_lo, a_hi, half = np.uint64(a & _MASK32), np.uint64(a >> 32), np.uint64(32)
    b_lo, b_hi = b & np.uint64(_MASK32), b >> half
    mid = b_lo * a_lo
    mid >>= half
    mid += b_hi * a_lo
    b_lo *= a_hi
    b_lo += mid & np.uint64(_MASK32)
    b_hi *= a_hi
    b_hi += mid >> half
    b_hi += b_lo >> half
    b *= np.uint64(a)
    return b, b_hi


def raw_words_many(keys: np.ndarray, count: int) -> np.ndarray:
    """Row i is ``raw_words(keys[i], count)``, computed for every key at once.

    Philox-4x64-10 runs on key (k, 0) over block counters 1, 2, ..., as
    numpy's ``Philox`` numbers them, in place on blocks x keys lanes: a lane is
    the shared counter row until a key enters it.  Its ``.T`` is C-contiguous words x keys.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    blocks, k0, k1 = -(-count // 4), keys, 0
    x0 = np.arange(1, blocks + 1, dtype=np.uint64)[:, None]
    x1, x2, x3 = (np.zeros_like(x0) for _ in range(3))
    for round_ in range(_PHILOX_ROUNDS):
        if round_:
            k0, k1 = k0 + np.uint64(_PHILOX_W[0]), (k1 + _PHILOX_W[1]) & _MASK64
        lo0, hi0 = _mulhilo(_PHILOX_M[0], x0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], x2)
        hi1 = np.bitwise_xor(hi1, k0, out=hi1 if hi1.shape[1] == keys.size else None)
        hi1 ^= x1
        hi0 ^= x3
        hi0 ^= np.uint64(k1)
        x0, x1, x2, x3 = hi1, lo1, hi0, lo0
    return np.stack((x0, x1, x2, x3), axis=1).reshape(4 * blocks, keys.size)[:count].T


def uniforms(seed: int, count: int) -> np.ndarray:
    """Uniform doubles in [0, 1), one per raw word."""
    return (raw_words(seed, count) >> np.uint64(11)) * 2.0**-53


def normals(seed: int, count: int) -> np.ndarray:
    """Standard normal deviates via Box-Muller: 2*ceil(count/2) uniforms, pairs
    (u1, u2) mapped to sqrt(-2 ln(1-u1)) * (cos, sin)(2 pi u2).  The 1-u1 form
    keeps the log argument in (0, 1], so u1 == 0 needs no special case."""
    pairs = (count + 1) // 2
    out, philox = np.empty(2 * pairs), _philox(seed)
    for start in range(0, 2 * pairs, 2 * _BLOCK_PAIRS):
        block = out[start : start + 2 * _BLOCK_PAIRS]
        u = (philox.random_raw(block.size) >> np.uint64(11)) * 2.0**-53
        radius, angle = np.sqrt(-2.0 * np.log1p(-u[0::2])), 2.0 * np.pi * u[1::2]
        del u  # gone before the products, so a block peaks at four arrays of its pairs
        block[0::2], block[1::2] = radius * np.cos(angle), radius * np.sin(angle)
        del radius, angle  # nor held through the next block's words
    return out[:count]


def complex_normals(seed: int, count: int) -> np.ndarray:
    """Circular complex normals, E|z|^2 = 1: (re + 1j im) / sqrt(2) for consecutive
    normals (re, im), divided in place as the complex view of ``normals(seed, 2 * count)``."""
    out = normals(seed, 2 * count).view(np.complex128)
    out /= np.sqrt(2.0)
    return out


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
    """First ``m`` entries of a seeded Fisher-Yates shuffle of [0, n), sorted;
    only the first min(m, n - 1) swaps run, as they alone decide those entries."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    picked = _fisher_yates(seed, n, min(m, n - 1))[:m]
    return np.sort(np.array(picked, dtype=np.int64))


def sample_many(seed: int, trials: int, n: int, m: int) -> np.ndarray:
    """Row t is ``sample_without_replacement(mix_seed(seed, t), n, m)``, t < ``trials``.

    Each chunk of trials keys one :func:`raw_words_many` pass by a SplitMix64 fold
    and runs the truncated Fisher-Yates on a positions x trials table of the narrowest
    unsigned type holding n - 1, bytes up to n = 256: swap i trades row i, contiguous,
    with one entry per trial.
    """
    if trials < 0 or not 0 <= m <= n:
        raise ValueError(f"need trials >= 0 and 0 <= m <= n, got trials={trials}, m={m}, n={n}")
    steps, base = max(min(m, n - 1), 0), np.uint64(mix_seed(seed))
    dtype = np.min_scalar_type(max(n - 1, 0))
    chunk = max(1, _TABLE_ENTRIES // max(n * dtype.itemsize, 8 * steps, 1))
    out, moduli = np.empty((trials, m), dtype=np.int64), n - np.arange(steps, dtype=np.uint64)
    for start in range(0, trials, chunk):
        keys = _splitmix64(np.arange(start, min(trials, start + chunk), dtype=np.uint64) ^ base)
        # flat index (i + offset) * keys + t of the entry that swap i trades with (i, t)
        targets = (raw_words_many(keys, steps).T % moduli[:, None]).view(np.int64)
        targets *= keys.size
        targets += np.arange(targets.size).reshape(targets.shape)
        table = np.broadcast_to(np.arange(n, dtype=dtype)[:, None], (n, keys.size)).copy()
        flat = table.reshape(-1)
        for i in range(steps):
            flat[targets[i]], table[i] = table[i], flat[targets[i]]
        out[start : start + keys.size] = table[:m].T
        del targets, table, flat  # none held through the next chunk's words
    out.sort(axis=1)
    return out


def signs(seed: int, count: int) -> np.ndarray:
    """Seeded +-1 array (uniform < 0.5 maps to -1)."""
    return np.where(uniforms(seed, count) < 0.5, -1.0, 1.0)
