"""Shared fixtures: delta-gated operators and planted instances.

Guarantee-constant tests only run on instances whose restricted isometry
constant is verified, since the property cannot be certified at scale.  The
gated construction is Q (I + eps S) with Q orthogonal and ||S||_2 = 1,
which bounds every delta_r by 2 eps + eps^2 by design; the tests still
check delta_4s before relying on it, on the proven bound ||G - I||_2 >=
delta_r (the acceptance pool) or exhaustively (``gated_16``).
"""

from __future__ import annotations

import numpy as np
import pytest

import cosamp
from cosamp import prng


def gated_operator(n: int, seed: int, eps: float = 0.04) -> cosamp.DenseOperator:
    """Square near-isometry with every delta_r <= 2 eps + eps^2."""
    g = prng.normals(prng.mix_seed(seed, 101), n * n).reshape(n, n)
    q, _ = np.linalg.qr(g)
    s_raw = prng.normals(prng.mix_seed(seed, 102), n * n).reshape(n, n)
    sym = (s_raw + s_raw.T) / 2.0
    sym /= np.abs(np.linalg.eigvalsh(sym)).max()
    return cosamp.dense_operator(q @ (np.eye(n) + eps * sym))


def planted_instance(op, s: int, seed: int, *, law: str = "flat", noise_norm: float = 0.0):
    """(x, e, u) with exactly s-sparse x and ||e|| == noise_norm."""
    x = cosamp.make_sparse(
        op.n,
        s,
        law,
        position_seed=prng.mix_seed(seed, 201),
        sign_seed=prng.mix_seed(seed, 202),
    )
    if noise_norm > 0:
        e = prng.normals(prng.mix_seed(seed, 203), op.m)
        e *= noise_norm / np.linalg.norm(e)
    else:
        e = np.zeros(op.m)
    u = op.apply(x) + e
    return x, e, u


@pytest.fixture(scope="session")
def gated_16():
    """N = 16 gated operator with exhaustively verified delta_8 <= 0.1."""
    op = gated_operator(16, seed=0)
    est = cosamp.rip_estimate(op, 8, "exhaustive")
    assert est.delta_exact is not None and est.delta_exact <= 0.1
    return op, est.delta_exact
