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
Every ``PreparedMatrix`` gets its Gram matrix and tolerance from one private
routine, ``_prepared``.  Classification calls it directly: its matrix has
unit largest column entries by construction, so the checks and scaling would
leave it unchanged, and ``feasibility.classify`` does not call ``solve``.

A solve's cost is call overhead, not arithmetic: its vectors hold one to a
few dozen entries.  So the step-back (the inner loop that moves from ``x``
toward a passive solution with a nonpositive entry and drops the entries that
reach zero) runs on Python floats, where each numpy call on its few
passive entries would cost more than the operation itself.  It performs the
same IEEE operations in the same order as an array form would (the ratio
test, the first-index minimum, ``x + step * (z - x)``), so its results are
bit for bit those of the array form that the tests keep as a reference.
Products with the matrix go through ``np.dot``, which gives the same bits
as ``@`` here with less dispatch.
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
        entries = b.tolist()
        if not all(map(math.isfinite, entries)):
            raise ValueError("target must be finite")
        b_max = max(map(abs, entries), default=0.0)
        n = a.shape[1]
        x = np.zeros(n)
        if b_max == 0.0:
            return x, 0.0
        b = b / b_max
        gram, at, tol = self.gram, a.T, self.tol
        atb = np.dot(at, b)
        # The passive set, in order of entry, is order[:k]; it never holds
        # more than n columns.  x is zero off it.
        order = np.empty(n, dtype=np.intp)
        k = 0
        w = atb.copy()
        for _ in range(3 * n):
            j = int(w.argmax())
            if w[j] <= tol:
                break  # Kuhn-Tucker conditions hold
            order[k] = j
            idx = order[: k + 1]
            z = _passive_solve(gram, atb, a, b, idx)
            zs = z.tolist()
            if zs[-1] <= 0.0:
                # Column j depends numerically on the passive ones: skip it.
                w[j] = -np.inf
                continue
            if min(zs) <= 0.0:
                idx, z = _step_back(gram, atb, a, b, idx.tolist(), x[idx].tolist(), zs)
                k = idx.size
                order[:k] = idx
                x[:] = 0.0
            else:
                k += 1  # the passive set only grew, so it is order[:k] already
            x[idx] = z
            w = np.dot(at, b - np.dot(a, x))
            w[idx] = -np.inf
        # The 2-norms as np.linalg.norm forms them, without its overhead.
        r = np.dot(a, x) - b
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
    return _prepared(a / col_max, col_max)


def _prepared(scaled, col_max) -> PreparedMatrix:
    """The ``PreparedMatrix`` of a checked matrix already scaled to unit
    largest column entries, ``scaled``, with those scales, ``col_max``: its
    Gram matrix and stop tolerance.  Both arrays are taken over and made
    read-only."""
    gram = scaled.T @ scaled
    for arr in (scaled, gram, col_max):
        arr.setflags(write=False)
    return PreparedMatrix(scaled, gram, col_max, 10.0 * _EPS * scaled.shape[1])


def solve(matrix, target):
    """Return ``(x, relative_residual)``: ``x >= 0`` minimizes
    ``|matrix @ x - target|`` and the residual is that minimum divided by
    ``|target|``.  A zero target gives ``x = 0`` and residual 0."""
    return prepare(matrix).solve(target)


def _step_back(gram, atb, a, b, passive, xp, zs):
    """Lawson and Hanson's inner loop: step from the passive values ``xp``
    toward the passive solution ``zs`` until the first entry hits zero, drop
    the zeroed entries and solve again, until the solution is positive.
    Returns the passive columns (as an index array) and their solution."""
    while True:
        # The ratio test; a strict < keeps the first minimum, as argmin does.
        step, drop = math.inf, 0
        for i, (xi, zi) in enumerate(zip(xp, zs)):
            if zi <= 0.0:
                ratio = xi / (xi - zi)
                if ratio < step:
                    step, drop = ratio, i
        xp = [xi + step * (zi - xi) for xi, zi in zip(xp, zs)]
        xp[drop] = 0.0
        passive = [i for i, xi in zip(passive, xp) if xi > 0.0]
        xp = [xi for xi in xp if xi > 0.0]
        idx = np.array(passive, dtype=np.intp)
        z = _passive_solve(gram, atb, a, b, idx)
        zs = z.tolist()
        if not zs or not min(zs) <= 0.0:
            return idx, z


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
