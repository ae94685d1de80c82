"""Halfspace descriptions of convex hulls in low dimension (d <= 6).

qhull (via scipy) does the heavy lifting on full-dimensional input.  This
module adds the degeneracy handling around it: a point cloud that only spans
an affine subspace is hulled inside that subspace, and the result combines
facet inequalities (sense ``normal . p >= offset``) with the equalities that
pin the subspace.  Together they describe the hull exactly in the ambient
space, which downstream code needs because single-contact and symmetric
scenes genuinely produce flat point clouds.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateInput, HullFailure

RANK_TOL = 1e-9
MERGE_TOL = 1e-9


@dataclass(frozen=True)
class HullResult:
    """Inequality/equality description of a convex hull in ``dim`` dimensions.

    ``facets`` is a read-only k x (dim + 1) array whose rows
    ``[normal | offset]`` (unit normal) mean ``normal . p >= offset``.
    ``equalities`` is a read-only m x (dim + 1) array of the same layout
    whose rows mean ``normal . p == offset``; each normal's first
    non-negligible component is positive.  ``affine_dim + m == dim`` always
    holds, and every input point satisfies every row to tolerance.
    """

    facets: np.ndarray
    equalities: np.ndarray
    affine_dim: int
    dim: int

    def __post_init__(self):
        self.facets.flags.writeable = False
        self.equalities.flags.writeable = False


def _affine_split(pts: np.ndarray):
    # Singular values below RANK_TOL times the largest are treated as zero.
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, sv, vt = np.linalg.svd(centered, full_matrices=True)
    if sv.size == 0 or sv[0] <= np.finfo(float).tiny:
        rank = 0
    else:
        rank = int(np.sum(sv > RANK_TOL * sv[0]))
    return rank, vt[:rank], vt[rank:], centroid


def convex_hull(points) -> HullResult:
    """Facets and equalities of the convex hull of a point cloud.

    Rank-deficient clouds are projected onto their affine hull, hulled there,
    and lifted back; the orthogonal directions become equalities.  A cloud of
    coincident points is a valid dimension-zero hull, not an error.  Nearly
    identical facets are merged (``MERGE_TOL`` on the normal, with the offset
    tolerance relative to the cloud diameter) so numerical duplicates do not
    inflate the description: the rows are sorted by a fixed projection and
    each is compared only with its neighbours inside the window the
    tolerance allows, and a row goes when an earlier one matches it.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise DegenerateInput("cannot hull an empty point set")
    if pts.ndim != 2:
        raise ValueError(f"points must be 2-D (n_points, dim), got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    dim = pts.shape[1]

    rank, basis, complement, centroid = _affine_split(pts)
    # Equalities hold with either orientation; fix the sign so the first
    # non-negligible component is positive.
    first = np.argmax(np.abs(complement) > 1e-12, axis=1)
    signs = np.sign(complement[np.arange(len(complement)), first])[:, None]
    equalities = signs * np.column_stack([complement, complement @ centroid])
    if rank == 0:
        return HullResult(np.empty((0, dim + 1)), equalities, 0, dim)

    projected = (pts - centroid) @ basis.T
    if rank == 1:
        y = projected[:, 0]
        sub = np.array([[1.0, y.min()], [-1.0, -y.max()]])
    else:
        try:
            hull = ConvexHull(projected)
        except QhullError as exc:
            raise HullFailure(f"qhull failed on projected cloud: {exc}") from exc
        # qhull rows satisfy normal . y + off <= 0 inside; flip to >= sense.
        sub = hull.equations * np.append(-np.ones(rank), 1.0)
        diameter = float(np.linalg.norm(projected.max(axis=0) - projected.min(axis=0)))
        sub = _merge_duplicates(sub, diameter)

    normals = sub[:, :-1] @ basis
    norms = np.linalg.norm(normals, axis=1)
    normals /= norms[:, None]
    facets = np.column_stack([normals, sub[:, -1] / norms + normals @ centroid])
    facets = facets[np.lexsort(np.round(facets, 12).T[::-1])]
    return HullResult(facets, equalities, rank, dim)


def _merge_duplicates(rows: np.ndarray, diameter: float) -> np.ndarray:
    # scipy always runs qhull with Qt, so each hyperplane arrives once per
    # simplex of its triangulated facet.  Two rows within ``tol`` column by
    # column project onto the nonnegative ``weights`` at most ``weights @ tol``
    # apart, plus a few ulps of rounding.  So after sorting by that projection
    # each row is compared only with the later rows inside that window: one
    # vectorized pass per offset k, ending at the first k with no pair inside
    # it.  A row goes when an earlier row in sorted order matches it, which
    # makes the kept set independent of the input order; survivors keep their
    # input order.  Rows are not rounded to a grid, since rounding splits
    # near-ties, and unequal weights keep mirrored normals apart.
    tol = np.full(rows.shape[1], MERGE_TOL)
    tol[-1] = MERGE_TOL * (1.0 + diameter)
    weights = np.sqrt(np.arange(2.0, rows.shape[1] + 2.0))
    projected = rows @ weights
    order = np.argsort(projected, kind="stable")
    rows_sorted, projected = rows[order], projected[order]
    scale = float(np.abs(rows).max()) * weights.sum()
    window = tol @ weights + 4 * len(weights) * np.finfo(float).eps * scale
    dropped = np.zeros(len(rows), dtype=bool)
    for k in range(1, len(rows)):
        near = np.flatnonzero(projected[k:] - projected[:-k] <= window)
        if near.size == 0:
            break
        same = np.all(np.abs(rows_sorted[near + k] - rows_sorted[near]) <= tol, axis=1)
        dropped[near[same] + k] = True
    keep = np.ones(len(rows), dtype=bool)
    keep[order[dropped]] = False
    return rows[keep]
