"""Halfspace descriptions of convex hulls in low dimension (d <= 6).

qhull (via scipy) does the heavy lifting on full-dimensional input.  This
module adds the degeneracy handling around it: a point cloud that only spans
an affine subspace is hulled inside that subspace, and the result combines
facet inequalities (sense ``normal . p >= offset``) with the equalities that
pin the subspace.  Together they describe the hull exactly in the ambient
space, which downstream code needs because single-contact and symmetric
scenes genuinely produce flat point clouds.  Facet rows are qhull's own
hyperplanes, one per merged facet: qhull is not asked to triangulate (no
``Qt``), so no facet arrives twice, no dedup pass follows and no tolerance
decides which facets merge.  They come in qhull's facet-list order; no
canonical sort follows.

The affine rank and the complement come from one SVD of the centered cloud,
LAPACK's ``dgesdd`` called through ``scipy.linalg.lapack``: the routine
``np.linalg.svd`` calls, without numpy's wrapper, whose overhead is a sizable
share of a small cloud's hull.

qhull is driven through scipy's ``_Qhull`` object, the one ``ConvexHull``
itself wraps, because ``ConvexHull`` always adds ``Qt`` and builds simplex
and neighbour arrays this module never reads.  It runs with option ``Q5``
alone, which skips qhull's last pass: that pass measures how far the input
points lie above each finished facet (its outer plane) and never moves a
facet's hyperplane.  For input of five or more dimensions qhull selects exact
merging (``Qx``) by itself.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesdd
from scipy.spatial import QhullError
from scipy.spatial._qhull import _Qhull

from .errors import DegenerateInput, HullFailure

RANK_TOL = 1e-9
_EPS = np.finfo(float).eps.item()
_TINY = np.finfo(float).tiny.item()


@dataclass(frozen=True)
class HullResult:
    """Inequality/equality description of a convex hull in ``dim`` dimensions.

    ``facets`` is a read-only k x (dim + 1) array whose rows
    ``[normal | offset]`` (unit normal) mean ``normal . p >= offset``.
    ``equalities`` is a read-only m x (dim + 1) array of the same layout
    whose rows mean ``normal . p == offset``; its normals, an orthonormal basis
    set by the affine hull alone, each have a positive first non-negligible
    component.  ``affine_dim + m == dim`` always holds, and every input point
    satisfies every row to tolerance.
    """

    facets: np.ndarray
    equalities: np.ndarray
    affine_dim: int
    dim: int

    def __post_init__(self):
        self.facets.setflags(write=False)
        self.equalities.setflags(write=False)


def _affine_split(pts: np.ndarray):
    # Singular values below RANK_TOL times the largest are treated as zero,
    # and so are those at the rounding level of the coordinates (at most
    # |centroid| + sv[0]), which is all centering leaves of coincident points.
    # The complement needs all of V only when there are fewer points than
    # dimensions; otherwise the thin SVD has it and skips forming U.  The sum
    # over the count is np.mean's arithmetic, and the scalar work runs on
    # Python floats: a small stance's split is call overhead, not arithmetic.
    centroid = pts.sum(axis=0) / len(pts)
    _, sv, vt, info = dgesdd(pts - centroid, full_matrices=len(pts) < pts.shape[1])
    if info != 0:
        raise np.linalg.LinAlgError(f"SVD did not converge (LAPACK dgesdd info {info})")
    values = sv.tolist()
    size = max(map(abs, centroid.tolist())) + values[0]
    cut = max(RANK_TOL * values[0], 16 * len(pts) * _EPS * size, _TINY)
    rank = sum(value > cut for value in values)
    complement = vt[rank:] if rank == len(vt) else _canonical_basis(vt[rank:])
    return rank, vt[:rank], complement, centroid


def _canonical_basis(rows: np.ndarray) -> np.ndarray:
    # Rounding noise sets the SVD's basis of a flat cloud's complement, so
    # take Gram-Schmidt over the columns of its projector in index order,
    # keeping a column whose unspanned part's squared length (its diagonal
    # entry) exceeds ``cut2``.  One always does: those sum to >= 1, the skipped
    # ones to < dim * cut2 = 1/e.  An irrational cut ties no rational cloud.
    # On Python floats, each entry by the operations of the array form, in
    # its order (the projector, then one outer-product update per kept
    # column), but formed only when read: a skipped column's diagonal, a kept
    # column's line.
    cut2 = 1.0 / (math.e * rows.shape[1])
    projector = (rows.T @ rows).tolist()
    basis = []
    for j, line in enumerate(projector):
        diagonal = line[j]
        for kept in basis:
            diagonal -= kept[j] * kept[j]
        if diagonal > cut2:
            for kept in basis:
                scale = kept[j]
                line = [entry - scale * other for entry, other in zip(line, kept)]
            norm = math.sqrt(line[j])
            basis.append([entry / norm for entry in line])
            if len(basis) == len(rows):
                break
    return np.array(basis).reshape(len(rows), rows.shape[1])


def convex_hull(points) -> HullResult:
    """Facets and equalities of the convex hull of a point cloud.

    Rank-deficient clouds are projected onto their affine hull, hulled there,
    and lifted back; the orthogonal directions become equalities.  A cloud of
    coincident points is a valid dimension-zero hull, not an error.  qhull
    does not triangulate (no ``Qt``), so each merged facet's hyperplane
    arrives once and no dedup follows.  The facets come in qhull's
    facet-list order, not sorted.
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
    if rank == dim:
        equalities = np.empty((0, dim + 1))
    else:
        # Equalities hold with either orientation; fix the sign so the first
        # non-negligible component is positive.
        first = np.argmax(np.abs(complement) > 1e-12, axis=1)
        signs = np.sign(complement[np.arange(len(complement)), first])[:, None]
        equalities = signs * np.column_stack([complement, complement @ centroid])
    if rank == 0:
        return HullResult(np.empty((0, dim + 1)), equalities, 0, dim)

    # Rows [normal | off] meaning normal . y + off <= 0 inside, qhull's sense;
    # the lift below divides by minus the norm, which flips them to >=.
    projected = (pts - centroid) @ basis.T
    if rank == 1:
        y = projected[:, 0]
        sub = np.array([[-1.0, y.min()], [1.0, -y.max()]])
    else:
        try:
            qhull = _Qhull(b"i", projected, b"Q5")
        except QhullError as exc:
            raise HullFailure(f"qhull failed on projected cloud: {exc}") from exc
        try:
            sub = qhull.get_hull_facets()[1]
        finally:
            qhull.close()

    normals = sub[:, :-1] @ basis
    norms = np.sqrt((normals * normals).sum(axis=1))  # np.linalg.norm's formula
    normals /= -norms[:, None]
    facets = np.column_stack([normals, sub[:, -1] / norms + normals @ centroid])
    return HullResult(facets, equalities, rank, dim)
