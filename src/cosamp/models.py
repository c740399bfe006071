"""Signal generators and the analytic functionals used to judge recovery:
sparse and power-law-compressible models, the unrecoverable-energy
baseline, noise folding, dyadic component bands, iteration-count bounds,
and SNR metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import prng
from .operators import SamplingOperator
from .signals import SupportSet, best_s_approx, norms


@dataclass(frozen=True)
class CompressibleSpec:
    """Power-law magnitude model: the i-th largest magnitude is exactly
    R * i^(-1/p) (worst case allowed by the decay bound, which maximizes
    stress on recovery), randomly signed and permuted."""

    p: float
    magnitude: float
    n: int
    sign_seed: int
    permutation_seed: int

    def __post_init__(self) -> None:
        prng.check_seed(self.sign_seed)
        prng.check_seed(self.permutation_seed)
        if not 0 < self.p <= 1:
            raise ValueError("p must lie in (0, 1]")
        if not 0 < self.magnitude < math.inf:
            raise ValueError(f"magnitude must be positive and finite, got {self.magnitude!r}")
        if self.n < 1:
            raise ValueError("n must be positive")


def make_sparse(
    n: int,
    s: int,
    law: str = "flat",
    *,
    alpha: float = 0.5,
    magnitudes=None,
    scale: float = 1.0,
    position_seed: int,
    sign_seed: int,
) -> np.ndarray:
    """Exactly s nonzeros at seeded random positions with seeded signs.

    ``flat`` gives equal magnitudes (profile 1); ``exponential`` gives
    magnitudes alpha^j for j = 0..s-1, assigned to positions in ascending
    index order; ``custom`` takes explicit magnitudes.
    """
    prng.check_seed(position_seed)
    prng.check_seed(sign_seed)
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
    if not 0 < abs(scale) < math.inf:
        raise ValueError(f"scale must be finite and nonzero, got {scale!r}")
    if law == "flat":
        mags = np.ones(s)
    elif law == "exponential":
        if not 0 < alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        mags = alpha ** np.arange(s)
    elif law == "custom":
        mags = np.asarray(magnitudes, dtype=np.float64)
        if mags.size != s or not ((0 < mags) & (mags < math.inf)).all():
            raise ValueError("custom law needs s positive finite magnitudes")
    else:
        raise ValueError(f"unknown magnitude law {law!r}")
    positions = prng.sample_without_replacement(position_seed, n, s)
    x = np.zeros(n)
    x[positions] = scale * mags * prng.signs(sign_seed, s)
    return x


def make_compressible(spec: CompressibleSpec) -> np.ndarray:
    ranks = np.arange(1, spec.n + 1, dtype=np.float64)
    mags = spec.magnitude * ranks ** (-1.0 / spec.p)
    signed = mags * prng.signs(spec.sign_seed, spec.n)
    perm = prng.shuffled(spec.permutation_seed, spec.n)
    x = np.empty(spec.n)
    x[perm] = signed
    return x


def compressible_constants(p: float) -> tuple[float, float]:
    """(C_p, D_p) in the tail bounds; C_1 is infinite."""
    c_p = math.inf if p == 1.0 else 1.0 / (1.0 / p - 1.0)
    d_p = (2.0 / p - 1.0) ** -0.5
    return c_p, d_p


def compressible_tail_bounds(spec: CompressibleSpec, s: int) -> tuple[float, float]:
    """(l1 bound, l2 bound) on the tail x - x_s of a p-compressible signal."""
    c_p, d_p = compressible_constants(spec.p)
    exponent = 1.0 - 1.0 / spec.p
    l1 = c_p * spec.magnitude * s**exponent if math.isfinite(c_p) else math.inf
    l2 = d_p * spec.magnitude * s ** (0.5 - 1.0 / spec.p)
    return l1, l2


def unrecoverable_energy(x, s: int, e_norm: float = 0.0) -> float:
    """Baseline error ||x - x_s||_2 + ||x - x_s||_1 / sqrt(s) + ||e||_2."""
    if s < 1:
        raise ValueError("s must be >= 1")
    x = np.asarray(x)
    tail = x - best_s_approx(x, s)[0]
    t = norms(tail)
    return t.l2 + t.l1 / math.sqrt(s) + float(e_norm)


def unrecoverable_energy_l1_bound(x, s: int, e_norm: float = 0.0) -> float:
    """Scaled-l1-tail bound 1.71 ||x - x_{s/2}||_1 / sqrt(s) + ||e||_2.

    The half-sparsity index rounds down (minimum 1); the 1.71 constant
    assumes even s.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    x = np.asarray(x)
    half = max(s // 2, 1)
    tail = x - best_s_approx(x, half)[0]
    return 1.71 * norms(tail).l1 / math.sqrt(s) + float(e_norm)


def compressible_energy_bound(spec: CompressibleSpec, s: int, e_norm: float = 0.0) -> float:
    """Unrecoverable-energy bound 2 C_p R s^(1/2 - 1/p) + ||e|| for the model."""
    c_p, _ = compressible_constants(spec.p)
    if not math.isfinite(c_p):
        return math.inf
    return 2.0 * c_p * spec.magnitude * s ** (0.5 - 1.0 / spec.p) + float(e_norm)


@dataclass(frozen=True, eq=False)
class NoiseFold:
    """Tail-folded noise: u = Phi x_s + folded, with the analytic bound."""

    folded: np.ndarray
    norm: float
    bound: float


def noise_fold(op: SamplingOperator, x, s: int, e=None) -> NoiseFold:
    """Fold the signal tail into the noise: folded = Phi (x - x_s) + e.

    The bound is 1.05 [ ||x - x_s||_2 + ||x - x_s||_1 / sqrt(s) ] + ||e||_2
    and is guaranteed only when delta_s <= 0.1 holds for the operator.
    """
    x = np.asarray(x)
    tail = x - best_s_approx(x, s)[0]
    folded = op.apply(tail)
    if e is not None:
        folded = folded + np.asarray(e)
        e_norm = float(np.linalg.norm(e))
    else:
        e_norm = 0.0
    t = norms(tail)
    bound = 1.05 * (t.l2 + t.l1 / math.sqrt(s)) + e_norm
    return NoiseFold(folded, float(np.linalg.norm(folded)), bound)


@dataclass(frozen=True)
class BandProfile:
    """Dyadic energy bands: index i with magnitude x_i lands in band j when
    2^-(j+1) ||x||^2 < |x_i|^2 <= 2^-j ||x||^2.  The profile counts the
    nonempty bands, i.e. how many orders of magnitude carry coefficients."""

    bands: dict[int, SupportSet]
    profile: int


def band_profile(x) -> BandProfile:
    """Bands by binary exponent, exact at every finite scale: with |x_i| = m_i 2^e_i,
    E = max e_i and T = fsum (|x_i| 2^-E)^2 (m_i^2 and T rounded once each), entry i
    lies in band e(T) - e(m_i^2) - [mant(T) < mant(m_i^2)] + 2 (E - e_i) by ``frexp``."""
    mags = np.abs(np.asarray(x))
    peak = float(mags.max(initial=0.0))
    if not 0.0 < peak < math.inf:
        raise ValueError(f"band profile needs a nonzero, finite signal, got max |x_i| = {peak}")
    nonzero = np.flatnonzero(mags)
    mant, exp = np.frexp(mags[nonzero])
    top = exp.max()
    total, total_exp = np.frexp(math.fsum(np.ldexp(mant, exp - top) ** 2))
    sq, sq_exp = np.frexp(mant**2)
    band = total_exp - sq_exp - (total < sq) + 2 * (top - exp)
    packed = {int(j): SupportSet(nonzero[band == j], mags.size) for j in np.unique(band)}
    return BandProfile(packed, len(packed))


def iteration_bound(x, s: int) -> int:
    """Iterations sufficient to hit the noise floor, from the band profile:
    ceil(p log_{4/3}(1 + 4.6 sqrt(s/p))) + 6 with p = profile(x_s).

    Maximized at p = s, where it stays below the universal 6 (s + 1) cap.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    x_s, _ = best_s_approx(np.asarray(x), s)
    if not np.any(x_s):
        return 6
    p = band_profile(x_s).profile
    raw = p * math.log(1.0 + 4.6 * math.sqrt(s / p)) / math.log(4.0 / 3.0)
    return int(math.ceil(raw)) + 6


def dynamic_range_iterations(x, s: int) -> float:
    """Reported diagnostic 3.3 * dynamic_range_dB + log2 sqrt(s) + 1 for an
    s-sparse x (not an asserted bound)."""
    x = np.asarray(x)
    mags = np.abs(x[x != 0])
    if mags.size == 0:
        raise ValueError("dynamic range is undefined for the zero signal")
    delta_db = 10.0 * math.log10(float(mags.max()) / float(mags.min()))
    return 3.3 * delta_db + math.log2(math.sqrt(s)) + 1.0


def snr_metrics(x, a, nu: float) -> tuple[float, float]:
    """(SNR, R-SNR) in decibels.

    SNR = 10 log10(||x|| / nu); R-SNR = 10 log10(||x - a|| / ||x||), which
    is <= 0 for good reconstructions and -inf for exact ones.
    """
    x = np.asarray(x)
    x_norm = float(np.linalg.norm(x))
    if x_norm == 0.0:
        raise ValueError("SNR metrics need a nonzero signal")
    if nu <= 0.0:
        raise ValueError("SNR needs a positive unrecoverable energy")
    err = float(np.linalg.norm(x - np.asarray(a)))
    snr = 10.0 * math.log10(x_norm / nu)
    rsnr = -math.inf if err == 0.0 else 10.0 * math.log10(err / x_norm)
    return snr, rsnr
