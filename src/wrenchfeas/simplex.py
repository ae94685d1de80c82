"""Nonnegative least squares, the one solver behind classification and
membership.

``solve(matrix, target)`` minimizes ``|matrix @ x - target|`` over ``x >= 0``
by the active-set method of Lawson & Hanson (*Solving Least Squares Problems*,
1974, ch. 23).  Columns and target are scaled to unit largest entry (2-norms
underflow below about 1e-154) and ``A^T A``, ``A^T b`` are formed once (Bro &
De Jong, J. Chemometrics 1997), so each passive-set step is a small Cholesky
solve (LAPACK ``dposv``), or a refined least-squares solve when that block is
ill-conditioned.  The output is deterministic.  The module keeps its
historical name because the benchmark tracer wraps ``simplex.solve``.
"""

import numpy as np
from scipy.linalg.lapack import dposv

_EPS = np.finfo(float).eps


def solve(matrix, target):
    """Return ``(x, relative_residual)``: ``x >= 0`` minimizes
    ``|matrix @ x - target|`` and the residual is that minimum divided by
    ``|target|``.  A zero target gives ``x = 0`` and residual 0."""
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(target, dtype=float)
    if a.ndim != 2 or b.shape != (a.shape[0],):
        raise ValueError(f"matrix {a.shape} and target {b.shape} do not match")
    col_max = np.abs(a).max(axis=0, initial=0.0)
    b_max = np.abs(b).max(initial=0.0)
    if not (np.isfinite(col_max).all() and np.isfinite(b_max)):
        raise ValueError("matrix and target must be finite")
    n = a.shape[1]
    x = np.zeros(n)
    if b_max == 0.0:
        return x, 0.0
    col_max[col_max == 0.0] = 1.0
    a = a / col_max
    b = b / b_max
    gram = a.T @ a
    atb = a.T @ b
    tol = 10.0 * _EPS * n
    passive = []  # column indices, in order of entry
    w = atb.copy()
    for _ in range(3 * n):
        w[passive] = -np.inf
        j = int(w.argmax())
        if w[j] <= tol:
            break  # Kuhn-Tucker conditions hold
        idx = np.array(passive + [j])
        z = _passive_solve(gram, atb, a, b, idx)
        if z[-1] <= 0.0:
            # Column j depends numerically on the passive ones: skip it.
            w[j] = -np.inf
            continue
        while z.size and z.min() <= 0.0:
            # Step from x toward z until the first passive entry hits zero.
            xp = x[idx]
            neg = z <= 0.0
            ratios = xp[neg] / (xp[neg] - z[neg])
            xp += ratios.min() * (z - xp)
            xp[np.flatnonzero(neg)[ratios.argmin()]] = 0.0
            x[idx] = xp
            idx = idx[xp > 0.0]
            z = _passive_solve(gram, atb, a, b, idx)
        passive = idx.tolist()
        x[:] = 0.0
        x[idx] = z
        w = a.T @ (b - a @ x)
    residual = float(np.linalg.norm(a @ x - b) / np.linalg.norm(b))
    return x / col_max * b_max, residual


def _passive_solve(gram, atb, a, b, idx):
    if not idx.size:
        return np.zeros(0)
    factor, z, info = dposv(gram.take(idx, 0).take(idx, 1), atb[idx])
    # Scaled columns have norms of at least 1: a tiny pivot means ill-conditioning.
    if info != 0 or factor.diagonal().min() < 1e-3:
        cols = a[:, idx]
        z = np.linalg.lstsq(cols, b, rcond=None)[0]
        # One step of iterative refinement: on an ill-conditioned block the
        # first solve can leave a residual well above eps |A||z|.
        z += np.linalg.lstsq(cols, b - cols @ z, rcond=None)[0]
    return z
