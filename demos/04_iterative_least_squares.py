#!/usr/bin/env python3
"""Why three warm-started least-squares iterations are enough.

The estimation step solves min ||u - Phi_T z|| on the merged support.
When the operator is nearly an isometry on 3s columns, Richardson's
iteration contracts by ||Phi_T* Phi_T - I|| per step and conjugate
gradient even faster, so a handful of matrix-vector products replaces a
dense factorization.
"""

import numpy as np

import cosamp
from cosamp import prng
from cosamp.signals import SupportSet

# near-isometry: Q (I + eps S) keeps every Gram submatrix close to I
n, eps = 32, 0.04
q, _ = np.linalg.qr(prng.normals(201, n * n).reshape(n, n))
sym = prng.normals(202, n * n).reshape(n, n)
sym = (sym + sym.T) / 2
sym /= np.abs(np.linalg.eigvalsh(sym)).max()
op = cosamp.dense_operator(q @ (np.eye(n) + eps * sym))

T = SupportSet(np.array([1, 5, 9, 17, 26, 30]), n)
u = prng.normals(203, n)
deviation = cosamp.gram_deviation(op, T)
print(f"||Phi_T* Phi_T - I|| = {deviation:.4f}  (contraction per Richardson step)")

z_star = cosamp.direct_solve(op, T, u).coefficients
print(f"\n{'iters':>5} {'richardson':>12} {'cg':>12}")
for iters in range(1, 6):
    rich = cosamp.richardson_solve(op, T, u, None, iterations=iters)
    cg = cosamp.cg_solve(op, T, u, None, iterations=iters)
    err_r = np.linalg.norm(rich.coefficients - z_star)
    err_c = np.linalg.norm(cg.coefficients - z_star)
    print(f"{iters:>5} {err_r:>12.2e} {err_c:>12.2e}")

# inside the recovery loop, warm starts make 3 iterations enough
x = cosamp.make_sparse(n, 3, "flat", position_seed=204, sign_seed=205)
u = op.apply(x)
for solver in ("direct", "richardson", "cg"):
    cfg = cosamp.RecoveryConfig(
        s=3,
        halting=cosamp.FixedIterations(10),
        lsq=cosamp.LsqConfig(solver=solver, iterations=3),
    )
    report = cosamp.recover(op, u, cfg)
    err = np.linalg.norm(x - report.approximation)
    print(f"recovery with {solver:10s} (3 LS iters): error {err:.2e}")
