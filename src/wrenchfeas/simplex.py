"""Nonnegative least squares, the one solver behind classification and
membership.

``solve(matrix, target)`` minimizes ``|matrix @ x - target|`` over ``x >= 0``
by the active-set method of Lawson & Hanson (*Solving Least Squares Problems*,
1974, ch. 23).  Columns and target are scaled to unit largest entry (2-norms
underflow below about 1e-154) and ``A^T A`` is formed once (Bro & De Jong,
J. Chemometrics 1997), so each passive-set step is a small Cholesky solve
(LAPACK ``dposv``), or a refined least-squares solve when that block is
ill-conditioned.  The output is deterministic.

The work that depends on the matrix alone (its checks, the column scaling
and ``A^T A``) is done by ``prepare``; the ``PreparedMatrix`` it returns then
solves for any number of targets.  ``solve`` is exactly prepare-then-solve.
The module keeps its historical name because the benchmark tracer wraps
``simplex.solve``.
"""

import math

import numpy as np
from scipy.linalg.lapack import dposv

_EPS = np.finfo(float).eps


class PreparedMatrix:
    """A matrix checked, column-scaled and with its Gram matrix formed, ready
    for NNLS solves against many targets.  Its arrays are read-only, so one
    instance may be shared between threads."""

    __slots__ = ("scaled", "gram", "col_max", "tol")

    def __init__(self, scaled, gram, col_max, tol):
        self.scaled = scaled
        self.gram = gram
        self.col_max = col_max
        self.tol = tol

    def solve(self, target):
        """Return ``(x, relative_residual)`` as ``solve(matrix, target)``
        does for the matrix this was prepared from."""
        a = self.scaled
        b = np.asarray(target, dtype=float)
        if b.shape != (a.shape[0],):
            raise ValueError(f"target {b.shape} does not match matrix {a.shape}")
        b_max = np.abs(b).max(initial=0.0)
        if not math.isfinite(b_max):
            raise ValueError("target must be finite")
        n = a.shape[1]
        x = np.zeros(n)
        if b_max == 0.0:
            return x, 0.0
        b = b / b_max
        gram = self.gram
        atb = a.T @ b
        # The passive set, in order of entry, is order[:k]; it never holds
        # more than n columns.
        order = np.empty(n, dtype=np.intp)
        k = 0
        w = atb.copy()
        for _ in range(3 * n):
            j = int(w.argmax())
            if w[j] <= self.tol:
                break  # Kuhn-Tucker conditions hold
            order[k] = j
            idx = order[: k + 1]
            z = _passive_solve(gram, atb, a, b, idx)
            if z[-1] <= 0.0:
                # Column j depends numerically on the passive ones: skip it.
                w[j] = -np.inf
                continue
            # z holds a few entries: a float min costs less than a numpy reduction.
            while z.size and min(z.tolist()) <= 0.0:
                # Step from x toward z until the first passive entry hits zero.
                xp = x[idx]
                neg = z <= 0.0
                ratios = xp[neg] / (xp[neg] - z[neg])
                xp += ratios.min() * (z - xp)
                xp[np.flatnonzero(neg)[ratios.argmin()]] = 0.0
                x[idx] = xp
                idx = idx[xp > 0.0]
                z = _passive_solve(gram, atb, a, b, idx)
            k = idx.size
            order[:k] = idx
            x[:] = 0.0
            x[idx] = z
            w = a.T @ (b - a @ x)
            w[idx] = -np.inf
        # The 2-norms as np.linalg.norm forms them, without its overhead.
        r = a @ x - b
        residual = math.sqrt(r.dot(r)) / math.sqrt(b.dot(b))
        return x / self.col_max * b_max, residual


def prepare(matrix) -> PreparedMatrix:
    """Check ``matrix`` (2-D, finite), scale its columns to unit largest
    entry and form their Gram matrix, once for every later target."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {a.shape}")
    col_max = np.abs(a).max(axis=0, initial=0.0)
    if not np.isfinite(col_max).all():
        raise ValueError("matrix must be finite")
    col_max[col_max == 0.0] = 1.0
    a = a / col_max
    gram = a.T @ a
    for arr in (a, gram, col_max):
        arr.flags.writeable = False
    return PreparedMatrix(a, gram, col_max, 10.0 * _EPS * a.shape[1])


def solve(matrix, target):
    """Return ``(x, relative_residual)``: ``x >= 0`` minimizes
    ``|matrix @ x - target|`` and the residual is that minimum divided by
    ``|target|``.  A zero target gives ``x = 0`` and residual 0."""
    return prepare(matrix).solve(target)


def _passive_solve(gram, atb, a, b, idx):
    if not idx.size:
        return np.zeros(0)
    factor, z, info = dposv(gram.take(idx, 0).take(idx, 1), atb[idx])
    # Scaled columns have norms of at least 1: a tiny pivot means ill-conditioning.
    if info != 0 or min(factor.diagonal().tolist()) < 1e-3:
        cols = a[:, idx]
        z = np.linalg.lstsq(cols, b, rcond=None)[0]
        # One step of iterative refinement: on an ill-conditioned block the
        # first solve can leave a residual well above eps |A||z|.
        z += np.linalg.lstsq(cols, b - cols @ z, rcond=None)[0]
    return z
