"""Halfspace descriptions of convex hulls in low dimension (d <= 6).

qhull (via scipy) does the heavy lifting on full-dimensional input.  This
module adds the degeneracy handling around it: a point cloud that only spans
an affine subspace is hulled inside that subspace, and the result combines
facet inequalities (sense ``normal . p >= offset``) with the equalities that
pin the subspace.  Together they describe the hull exactly in the ambient
space, which downstream code needs because single-contact and symmetric
scenes genuinely produce flat point clouds.  Facet rows are qhull's own
hyperplanes, deduplicated exactly by one sort: no tolerance decides which
facets merge.  They come in the order qhull first reports each hyperplane;
no canonical sort follows.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateInput, HullFailure

RANK_TOL = 1e-9


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
        self.facets.flags.writeable = False
        self.equalities.flags.writeable = False


def _affine_split(pts: np.ndarray):
    # Singular values below RANK_TOL times the largest are treated as zero,
    # and so are those at the rounding level of the coordinates (at most
    # |centroid| + sv[0]), which is all centering leaves of coincident points.
    # The complement needs all of V only when there are fewer points than
    # dimensions; otherwise the thin SVD has it and skips forming U.
    centroid = pts.mean(axis=0)
    _, sv, vt = np.linalg.svd(pts - centroid, full_matrices=len(pts) < pts.shape[1])
    size = max(map(abs, centroid.tolist())) + sv[0]
    noise = 16 * len(pts) * np.finfo(float).eps * size
    rank = int(np.sum(sv > max(RANK_TOL * sv[0], noise, np.finfo(float).tiny)))
    complement = vt[rank:] if rank == len(vt) else _canonical_basis(vt[rank:])
    return rank, vt[:rank], complement, centroid


def _canonical_basis(rows: np.ndarray) -> np.ndarray:
    # Rounding noise sets the SVD's basis of a flat cloud's complement, so
    # take Gram-Schmidt over the columns of its projector in index order,
    # keeping a column whose unspanned part's squared length (its diagonal
    # entry) exceeds ``cut2``.  One always does: those sum to >= 1, the skipped
    # ones to < dim * cut2 = 1/e.  An irrational cut ties no rational cloud.
    cut2 = 1.0 / (math.e * rows.shape[1])
    unspanned = rows.T @ rows
    basis = []
    for j in range(rows.shape[1]):
        if unspanned[j, j] > cut2:
            basis.append(unspanned[j] / math.sqrt(unspanned[j, j]))
            if len(basis) == len(rows):
                break
            unspanned -= basis[-1][:, None] * basis[-1]
    return np.array(basis).reshape(len(rows), rows.shape[1])


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The rows of a 2-D float array without exact copies, each kept at its
    first occurrence, in input order.  One sort of each row's bytes as a
    single key finds the copies: adding 0.0 turns -0.0 into 0.0, so two rows'
    bytes are equal exactly when their values are.  A bytes key sorts faster
    than a void one; it ignores trailing NUL bytes, but keys of one width
    that differ anywhere still differ.  np.unique returns each key's first
    occurrence; sorting those indices restores the input order."""
    keys = (rows + 0.0).view(f"S{rows.itemsize * rows.shape[1]}")
    first = np.unique(keys.ravel(), return_index=True)[1]
    first.sort()
    return rows[first]


def convex_hull(points) -> HullResult:
    """Facets and equalities of the convex hull of a point cloud.

    Rank-deficient clouds are projected onto their affine hull, hulled there,
    and lifted back; the orthogonal directions become equalities.  A cloud of
    coincident points is a valid dimension-zero hull, not an error.  qhull
    triangulates its output (scipy always passes ``Qt``), so a facet arrives
    once per simplex, each copy carrying the facet's hyperplane bit for bit;
    exact duplicates are dropped, keeping each row's first occurrence.  The
    facets come in that first-occurrence order, qhull's, not sorted.
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
            hull = ConvexHull(projected)
        except QhullError as exc:
            raise HullFailure(f"qhull failed on projected cloud: {exc}") from exc
        # Drop copies before the lift below: there, BLAS may round two copies
        # of one row differently.
        sub = _unique_rows(hull.equations)

    normals = sub[:, :-1] @ basis
    norms = np.sqrt((normals * normals).sum(axis=1))  # np.linalg.norm's formula
    normals /= -norms[:, None]
    facets = np.column_stack([normals, sub[:, -1] / norms + normals @ centroid])
    return HullResult(facets, equalities, rank, dim)
