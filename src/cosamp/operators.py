"""Matrix-free sampling operators: dense, Gaussian, partial Fourier, identity.

Every operator exposes ``apply`` / ``adjoint`` plus the column-submatrix
actions ``apply_sub`` / ``adjoint_sub``, implemented by embedding and
restricting so that matrix-free kinds never extract columns.  ``adjoint``
is the true conjugate transpose for all kinds.

The solvers and the Gram builders see Phi_T through ``restricted(T)``, a
view with ``apply``, ``adjoint``, ``normal``, ``columns`` and ``gram`` that
runs on the operator's own ``apply_sub`` / ``adjoint_sub``.  Dense
operators, unless a subclass overrides those, slice Phi_T once per view
instead of once per product.  Lengths are checked where data enters a
view, not on each internal product: a view's ``apply`` / ``adjoint`` check
theirs, its ``products`` do not.  Dense products of two
float64 operands run as ``ndarray.dot``, ``@``'s BLAS call without matmul's
dispatch; any complex operand keeps ``@``, as ``dot``'s bits differ there.
A full product or a public view product decides this per call; the solvers
and the loop's update take it once per view and dtype from ``products``.

An operator whose Gram matrix ``Phi* Phi`` has a closed form may also offer
``gram_sub(T)``, returning ``Phi_T* Phi_T`` without an operator product
(partial Fourier does).  It is deliberately not declared on the base class:
the view looks it up as an attribute, so delegating wrappers that forward
unknown attributes to the operator they wrap reach it too.  Its view reads
Phi_T* u off the loop's proxy Phi* u when given it (``rhs``), with no
product; that is the base ``adjoint_sub``, Phi* u restricted to T, bit for bit.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from . import prng
from .signals import SupportSet, check_int, embed

_REAL = np.dtype(np.float64)


class DimensionMismatchError(ValueError):
    pass


def _product(a: np.ndarray, b: np.ndarray):
    """``a @ b``, taken as ``a.dot(b)`` when both are float64 (see above)."""
    return a.dot(b) if a.dtype == _REAL and b.dtype == _REAL else a @ b


def _sizes(m, n) -> tuple[int, int]:
    """(m, N) as Python ints: both integers (not bools, not floats) with 0 < m <= N."""
    n, m = int(check_int(n, "n")), int(check_int(m, "m"))
    if not 0 < m <= n:
        raise ValueError(f"need 0 < m <= n, got m={m}, n={n}")
    return m, n


def _check_length(vec, expected: int, what: str) -> np.ndarray:
    vec = np.asarray(vec)
    if vec.ndim != 1 or vec.size != expected:
        raise DimensionMismatchError(
            f"{what} must have length {expected}, got shape {vec.shape}"
        )
    return vec


class SamplingOperator(abc.ABC):
    """m x N linear map accessed only through its action on vectors."""

    m: int
    n: int
    #: True when the operator's samples are intrinsically complex.
    is_complex: bool = False

    @abc.abstractmethod
    def apply(self, x) -> np.ndarray:
        """Phi @ x for a length-N signal."""

    @abc.abstractmethod
    def adjoint(self, v) -> np.ndarray:
        """Phi* @ v for a length-m sample vector."""

    def apply_sub(self, T: SupportSet, coeffs) -> np.ndarray:
        """Phi_T @ c: embed c on T, then apply the full operator."""
        self._check_support(T)
        return self.apply(embed(coeffs, T))

    def adjoint_sub(self, T: SupportSet, v) -> np.ndarray:
        """Phi_T* @ v: apply the full adjoint, then restrict to T."""
        self._check_support(T)
        return self.adjoint(v)[T.indices]

    def restricted(self, T: SupportSet) -> "RestrictedView":
        """Phi_T as a view for one solve (see :class:`RestrictedView`)."""
        self._check_support(T)
        return RestrictedView(self, T)

    def materialize(self) -> np.ndarray:
        """Dense m x N matrix (oracle/diagnostic use; O(mN) memory)."""
        return self.restricted(SupportSet.full(self.n)).columns()

    def _check_support(self, T: SupportSet) -> None:
        if T.n != self.n:
            raise DimensionMismatchError(
                f"support ambient dimension {T.n} != operator columns {self.n}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(m={self.m}, n={self.n})"


class RestrictedView:
    """Phi_T of one operator on one support T, made once per solve, or once
    while the recovery loop's T holds.

    ``apply`` / ``adjoint`` are the operator's ``apply_sub`` / ``adjoint_sub``
    on T and ``normal(z)`` is Phi_T* Phi_T z.  ``columns()`` is Phi_T as an
    array, column j being ``apply_sub`` of a one on the single index t_j,
    which touches one column rather than |T|.  ``gram()`` is Phi_T* Phi_T of
    the columns, unless the operator offers ``gram_sub``: then it is that
    closed form, formed once per view, ``normal`` multiplies by it, and
    ``rhs`` takes Phi_T* u from a proxy Phi* u when it is given one.
    """

    def __init__(self, op: SamplingOperator, T: SupportSet):
        self.op, self.T, self._gram = op, T, None
        self._gram_sub = getattr(op, "gram_sub", None)

    def apply(self, z, embedded=None) -> np.ndarray:
        """Phi_T z; a closed-form kind applies ``embedded`` (z on T) instead of embedding z."""
        if embedded is None or self._gram_sub is None:
            return self.op.apply_sub(self.T, z)
        return self.op.apply(embedded)

    def adjoint(self, v) -> np.ndarray:
        return self.op.adjoint_sub(self.T, v)

    def normal(self, z) -> np.ndarray:
        return self.adjoint(self.apply(z)) if self._gram_sub is None else self.gram() @ z

    def rhs(self, u, proxy=None) -> np.ndarray:
        """Phi_T* u, read off a given ``proxy`` = Phi* u if the Gram has a closed form."""
        return self.adjoint(u) if proxy is None or self._gram_sub is None else proxy[self.T.indices]

    def products(self, dtype) -> tuple:
        """``(apply, normal)`` for length-|T| vectors of ``dtype`` the caller made: unchecked."""
        return self.apply, self.normal

    def columns(self) -> np.ndarray:
        op, T = self.op, self.T
        dtype = np.complex128 if op.is_complex else np.float64
        cols = np.empty((op.m, len(T)), dtype=dtype)
        one = np.ones(1, dtype=dtype)
        for j in range(len(T)):
            cols[:, j] = op.apply_sub(SupportSet._trusted(T.indices[j : j + 1], op.n), one)
        return cols

    def gram(self) -> np.ndarray:
        if self._gram_sub is None:
            cols = self.columns()
            return cols.conj().T @ cols
        if self._gram is None:
            self._gram = self._gram_sub(self.T)
        return self._gram


class _SlicedView(RestrictedView):
    """Dense Phi_T sliced once.  Each product is the BLAS call that
    ``apply_sub`` / ``adjoint_sub`` make on a fresh slice, so the results
    are theirs bit for bit; the columns are the slice.  The slice keeps the
    gather's memory order, which decides BLAS's bits.  A real slice times a
    real vector is ``ndarray.dot``, any complex side ``@``: ``products`` makes
    that choice once for a dtype, ``apply`` and ``adjoint`` per call."""

    def __init__(self, op: SamplingOperator, T: SupportSet, sub: np.ndarray):
        self.op, self.T, self.sub, self.sub_h, self._gram_sub = op, T, sub, sub.conj().T, None
        self._key = self._products = None

    def apply(self, z, embedded=None) -> np.ndarray:
        return _product(self.sub, _check_length(z, len(self.T), "coefficients"))

    def adjoint(self, v) -> np.ndarray:
        return _product(self.sub_h, _check_length(v, self.sub.shape[0], "sample vector"))

    def products(self, dtype) -> tuple:
        if self._products is None or self._products[0] != dtype:  # bound once per dtype
            sub, sub_h = self.sub, self.sub_h
            if dtype == _REAL and sub.dtype == _REAL:
                dot, dot_h = sub.dot, sub_h.dot
                pair = (lambda z, embedded=None: dot(z)), (lambda z: dot_h(dot(z)))
            else:
                pair = (lambda z, embedded=None: sub @ z), (lambda z: sub_h @ (sub @ z))
            self._products = (dtype, pair)
        return self._products[1]

    def rhs(self, u, proxy=None) -> np.ndarray:
        u = np.asarray(u)
        key = (u.dtype, u.shape, u.tobytes())  # the samples themselves, not their flags
        if key != self._key:  # keep Phi_T* u while the loop's samples hold
            self._key, self._rhs = key, self.adjoint(u)
            self._rhs.flags.writeable = False
        return self._rhs

    def columns(self) -> np.ndarray:
        return self.sub


class IdentityOperator(SamplingOperator):
    """The N x N identity; useful for exact short-circuit tests."""

    def __init__(self, n: int):
        self.m, self.n = _sizes(n, n)

    def apply(self, x) -> np.ndarray:
        return _check_length(x, self.n, "signal").copy()

    def adjoint(self, v) -> np.ndarray:
        return _check_length(v, self.m, "sample vector").copy()


class DenseOperator(SamplingOperator):
    """Explicit m x N matrix with random access to columns."""

    def __init__(self, matrix):
        mat = np.asarray(matrix)
        if mat.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if np.iscomplexobj(mat):
            mat = mat.astype(np.complex128, copy=True)
            self.is_complex = True
        else:
            mat = mat.astype(np.float64, copy=True)
        if not np.isfinite(mat).all():
            raise ValueError("matrix contains non-finite entries")
        mat.flags.writeable = False
        self.matrix = mat
        self.m, self.n = mat.shape

    def apply(self, x) -> np.ndarray:
        return _product(self.matrix, _check_length(x, self.n, "signal"))

    def adjoint(self, v) -> np.ndarray:
        v = _check_length(v, self.m, "sample vector")
        if self.is_complex:
            # conj(Phi)^T v = conj(conj(v)^T Phi), without an m x N copy of conj(Phi)
            return (v.conj() @ self.matrix).conj()
        return _product(self.matrix.T, v)

    def apply_sub(self, T: SupportSet, coeffs) -> np.ndarray:
        self._check_support(T)
        coeffs = _check_length(coeffs, len(T), "coefficients")
        return _product(self.matrix[:, T.indices], coeffs)

    def adjoint_sub(self, T: SupportSet, v) -> np.ndarray:
        self._check_support(T)
        v = _check_length(v, self.m, "sample vector")
        return _product(self.matrix[:, T.indices].conj().T, v)

    def restricted(self, T: SupportSet) -> RestrictedView:
        """Phi_T sliced once; the base view when a subclass overrides a product."""
        cls = type(self)
        if (cls.apply_sub, cls.adjoint_sub) != (DenseOperator.apply_sub, DenseOperator.adjoint_sub):
            return super().restricted(T)
        self._check_support(T)
        return _SlicedView(self, T, self.matrix[:, T.indices])

    def materialize(self) -> np.ndarray:
        return np.array(self.matrix)


class GaussianOperator(DenseOperator):
    """Seeded Gaussian ensemble: entries i.i.d. N(0, 1/m).

    The matrix is filled row-major from the pinned Box-Muller stream
    (see :mod:`cosamp.prng`), so a fixed seed reproduces it byte-for-byte.
    """

    def __init__(self, m: int, n: int, seed: int):
        m, n = _sizes(m, n)
        entries = prng.normals(prng.check_seed(seed), m * n).reshape(m, n)
        entries /= math.sqrt(m)  # in place: Box-Muller output is finite and ours to keep
        entries.flags.writeable = False
        self.matrix, (self.m, self.n), self.seed = entries, entries.shape, int(seed)


class PartialFourierOperator(SamplingOperator):
    """sqrt(N/m) times m rows of the unitary DFT; power-of-two N only.

    Scaling is chosen so that E ||Phi x||^2 = ||x||^2 over the random row
    set (with m = N the operator is exactly unitary).  Rows are drawn
    without replacement by a seeded Fisher-Yates shuffle unless an explicit
    row set is given, and then no seed is kept.  Apply/adjoint run in O(N log N)
    via the FFT and scale its output in place: the same ufunc, so the same bits.

    ``Phi* Phi`` is circulant with kernel ``g = (N/m) ifft(1_rows)``, computed
    once here (one length-N FFT, N complex values, read-only like ``rows``),
    so ``gram_sub(T)`` is an O(|T|^2) gather with no FFT.
    """

    is_complex = True

    def __init__(self, m: int, n: int, seed: int | None = None, rows=None):
        m, n = _sizes(m, n)
        if n & (n - 1):
            raise ValueError(f"N must be a power of two, got {n}")
        drawn = rows is None
        if drawn:
            if seed is None:
                raise ValueError("need either a seed or an explicit row set")
            rows = prng.sample_without_replacement(prng.check_seed(seed), n, m)
        given = np.size(rows)
        rows = SupportSet.from_any(rows, n).indices  # refuses non-integers and rows outside [0, N)
        if rows.size != m or given != m:
            raise ValueError(f"row set has {given} entries, {rows.size} distinct; expected {m}")
        self.m = m
        self.n = n
        self.seed = int(seed) if drawn else None
        self.rows = rows
        indicator = np.zeros(self.n)
        indicator[rows] = 1.0
        self.gram_kernel = np.fft.ifft(indicator)
        self.gram_kernel *= self.n / self.m
        self.gram_kernel.flags.writeable = False

    def apply(self, x) -> np.ndarray:
        x = _check_length(x, self.n, "signal")
        # sqrt(N/m) * (unitary DFT rows) == fft(x)[rows] / sqrt(m)
        out = np.fft.fft(x)[self.rows]
        return np.true_divide(out, math.sqrt(self.m), out=out)

    def adjoint(self, v) -> np.ndarray:
        v = _check_length(v, self.m, "sample vector")
        padded = np.zeros(self.n, dtype=np.complex128)
        padded[self.rows] = v
        out = np.fft.ifft(padded)
        return np.multiply(out, self.n / math.sqrt(self.m), out=out)

    def gram_sub(self, T: SupportSet) -> np.ndarray:
        """Phi_T* Phi_T, entry (j, k) = g[(t_j - t_k) mod N], gathered in row blocks."""
        self._check_support(T)
        idx = T.indices
        gram = np.empty((idx.size, idx.size), dtype=np.complex128)
        rows = max(1, (1 << 16) // max(idx.size, 1))  # 512 KB of int64 lags per block
        for start in range(0, idx.size, rows):
            lags = (idx[start : start + rows, None] - idx) & (self.n - 1)  # mod N: N = 2**k
            np.take(self.gram_kernel, lags, out=gram[start : start + rows], mode="clip")
        return gram

    def materialize(self) -> np.ndarray:
        j = np.arange(self.n)
        phases = np.exp(-2j * np.pi * np.outer(self.rows, j) / self.n)
        return phases / math.sqrt(self.m)


# the lowercase names are the classes themselves
identity_operator, dense_operator = IdentityOperator, DenseOperator
gaussian_operator, partial_fourier_operator = GaussianOperator, PartialFourierOperator
