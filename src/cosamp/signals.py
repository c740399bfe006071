"""Dense vector arithmetic, supports, and best-s-term approximation.

Signals live in C^N (or R^N on the real fast path) as plain 1-D numpy
arrays; index sets are :class:`SupportSet` instances carrying their ambient
dimension.  All indexing is 0-based.

Validation happens at the public constructors: ``as_signal``, ``as_samples``,
``SupportSet(indices, n)`` and ``SupportSet.from_any`` copy and check what
they are given, and refuse an index that is not an integer rather than
truncate it.  Supports the package computes itself (the selection, exact
supports, unions, complements) are strictly increasing int64 arrays by
construction, so they are wrapped as they are, read-only and unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np


def _validated_vector(entries, length: int | None, what: str) -> np.ndarray:
    arr = np.asarray(entries)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be 1-D, got shape {arr.shape}")
    arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=True)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    if length is not None and arr.size != length:
        raise ValueError(f"{what} has length {arr.size}, expected {length}")
    arr.flags.writeable = False
    return arr


def check_int(value, what: str):
    """``value`` if it is a Python or numpy integer; a bool, a float or anything else is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _as_indices(indices) -> np.ndarray:
    """A new int64 array of ``indices``, refused unless each is an integer, not a bool."""
    if not isinstance(indices, np.ndarray):  # element by element: [True, 2] reads as int64
        indices = np.array([check_int(i, "an index") for i in indices], dtype=np.int64)
    if indices.size and indices.dtype.kind not in "iu":
        raise TypeError(f"an index must be an integer, got dtype {indices.dtype}")
    return indices.astype(np.int64)


def as_signal(entries, n: int | None = None) -> np.ndarray:
    """Validate a length-N signal: 1-D, finite, float64 or complex128.

    Returns a read-only copy, so signals are safe to share across threads.
    """
    return _validated_vector(entries, n, "signal")


def as_samples(entries, m: int | None = None) -> np.ndarray:
    """Validate a length-m sample vector (same rules as :func:`as_signal`)."""
    return _validated_vector(entries, m, "sample vector")


@dataclass(frozen=True)
class SupportSet:
    """Strictly increasing index set inside an ambient dimension ``n``."""

    indices: np.ndarray
    n: int

    def __post_init__(self) -> None:
        if check_int(self.n, "n") < 0:
            raise ValueError(f"n must be nonnegative, got {self.n!r}")
        idx = _as_indices(self.indices)
        if idx.ndim != 1:
            raise ValueError("indices must be 1-D")
        if idx.size and (np.diff(idx) <= 0).any():
            raise ValueError("indices must be strictly increasing")
        if idx.size and (idx[0] < 0 or idx[-1] >= self.n):
            raise ValueError(f"indices must lie in [0, {self.n})")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    @classmethod
    def _trusted(cls, indices: np.ndarray, n: int) -> "SupportSet":
        """Wrap int64 indices increasing and in [0, n) by construction: no copy, no check."""
        indices.setflags(write=False)
        supp = object.__new__(cls)
        supp.__dict__.update(indices=indices, n=n)  # past the frozen __setattr__
        return supp

    @classmethod
    def empty(cls, n: int) -> "SupportSet":
        return cls._trusted(np.empty(0, dtype=np.int64), n)

    @classmethod
    def full(cls, n: int) -> "SupportSet":
        return cls._trusted(np.arange(n, dtype=np.int64), n)

    @classmethod
    def from_any(cls, indices, n: int) -> "SupportSet":
        """Build from an unsorted, possibly duplicated index collection."""
        return cls(np.unique(_as_indices(indices)), n)

    def __len__(self) -> int:
        return int(self.indices.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SupportSet):
            return NotImplemented
        # int64 on both sides: equal bytes are equal indices, without a compare and a reduce
        return self.n == other.n and self.indices.tobytes() == other.indices.tobytes()

    def union(self, other: "SupportSet") -> "SupportSet":
        if self.n != other.n:
            raise ValueError("ambient dimensions differ")
        idx = np.concatenate((self.indices, other.indices))
        idx.sort()  # then drop repeats: np.union1d's result without its wrappers
        return SupportSet._trusted(np.concatenate((idx[:1], idx[1:][idx[1:] != idx[:-1]])), self.n)

    def complement(self) -> "SupportSet":
        mask = np.ones(self.n, dtype=bool)
        mask[self.indices] = False
        return SupportSet._trusted(np.flatnonzero(mask), self.n)


def support_of(x: np.ndarray) -> SupportSet:
    """Exact nonzero support of ``x``."""
    x = np.asarray(x)
    return SupportSet._trusted(np.flatnonzero(x != 0), x.size)


def best_s_approx(x, s: int) -> tuple[np.ndarray, SupportSet]:
    """Best s-term approximation ``x_s`` and its support.

    Keeps the ``s`` largest-magnitude entries (ties broken lexicographically,
    lower index wins) and zeroes the rest.  The returned support has
    cardinality ``min(s, l0(x))``: exact zeros are never selected.  ``x_s``
    minimizes ``||x - z||_p`` over s-sparse ``z`` for every p.
    """
    x = np.asarray(x)
    supp = SupportSet._trusted(_select(_neg_abs(x), s), x.size)
    return restrict(x, supp), supp


def _l2(x: np.ndarray) -> float:
    """||x||_2; for a real x, np.linalg.norm's own formula sqrt(x . x), without its wrappers."""
    return math.sqrt(x.dot(x)) if x.dtype.kind == "f" else float(np.linalg.norm(x))


def _neg_abs(x) -> np.ndarray:
    """-|x| in one new array: ascending order is descending magnitude, NaN last."""
    neg = np.abs(x)
    return np.negative(neg, out=neg)


def _select(neg: np.ndarray, s: int) -> np.ndarray:
    """Sorted int64 indices of x's best s-term support, given ``neg`` = -|x|."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s == 0:
        return np.empty(0, dtype=np.int64)
    # Linear-time selection rather than a stable sort: every entry above the
    # s-th largest magnitude, then the lowest-index entries tied at it.  With no
    # s-th magnitude, or a NaN one, the threshold is 0: every nonzero entry makes the cut.
    threshold = 0.0
    if s < neg.size:
        part = neg.copy()
        part.partition(s - 1)  # np.partition's kernel, as .nonzero() is np.flatnonzero's
        threshold = float(part[s - 1])  # compared as a Python float: the same float64 compares
        threshold = threshold if threshold == threshold else 0.0
    chosen = (neg <= threshold).nonzero()[0]
    if chosen.size > s:
        # more entries tie at the threshold than fit: the lowest-index ones stay
        above = neg[chosen] < threshold
        above[(~above).nonzero()[0][: s - np.count_nonzero(above)]] = True
        chosen = chosen[above]
    if threshold == 0:  # exact zeros made the cut; they are never selected
        chosen = chosen[neg[chosen] < 0]
    return chosen


def restrict(x, T: SupportSet) -> np.ndarray:
    """Signal equal to ``x`` on ``T`` and zero elsewhere."""
    x = np.asarray(x)
    if x.size != T.n:
        raise ValueError(f"signal length {x.size} != support ambient {T.n}")
    out = np.zeros(x.shape, x.dtype)
    out[T.indices] = x[T.indices]
    return out


def embed(coeffs, T: SupportSet) -> np.ndarray:
    """Length-``T.n`` signal holding ``coeffs`` on ``T`` and zero elsewhere."""
    coeffs = np.asarray(coeffs)
    if coeffs.size != len(T):
        raise ValueError(f"got {coeffs.size} coefficients for |T| = {len(T)}")
    dtype = np.complex128 if np.iscomplexobj(coeffs) else np.float64
    out = np.zeros(T.n, dtype=dtype)
    out[T.indices] = coeffs
    return out


class Norms(NamedTuple):
    l1: float
    l2: float
    linf: float
    l0: int


def norms(x) -> Norms:
    """(l1, l2, linf, l0) of a vector; l0 counts exact nonzeros."""
    x = np.asarray(x)
    mag = np.abs(x)
    if x.size == 0:
        return Norms(0.0, 0.0, 0.0, 0)
    return Norms(
        float(mag.sum()),
        float(np.sqrt((mag * mag).sum())),
        float(mag.max()),
        int(np.count_nonzero(x)),
    )


def head_tail_l1_bound(x, t: int) -> float:
    """Upper bound ``||x||_1 / (2 sqrt(t))`` on the l2 tail ``||x - x_t||_2``."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return norms(x).l1 / (2.0 * math.sqrt(t))
