"""Convex hull in low dimension, with degenerate (flat) clouds."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg.lapack import dgesdd
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from wrenchfeas import (
    Contact,
    ContactConfiguration,
    FrictionCone,
    bundled_path,
    classify,
    cone_generators,
    convex_hull,
    load_scene,
)
from wrenchfeas import hull
from wrenchfeas.errors import DegenerateInput, HullFailure
from wrenchfeas.scenes import rotation_from_normal
from wrenchfeas.wcm import modified_generators

from conftest import random_config, same_rows
from wrenchfeas import build_generating_matrices

# Two facet rows this close in every column (the offset relative to the cloud
# diameter) describe one hyperplane.
MERGE_TOL = 1e-9


def lp_inside(points, query, tol=1e-9):
    """Independent membership oracle: is ``query`` a convex combination of
    the points?  Feasibility of sum(l_i p_i) = q, sum(l_i) = 1, l >= 0."""
    pts = np.asarray(points, float)
    n = pts.shape[0]
    a_eq = np.vstack([pts.T, np.ones((1, n))])
    b_eq = np.concatenate([np.asarray(query, float), [1.0]])
    res = linprog(np.zeros(n), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def hull_margin(result, query):
    """Smallest facet slack and negated equality residual at ``query``:
    nonnegative (to tolerance) exactly when the hull contains it."""
    q = np.asarray(query, float)
    slack = result.facets[:, :-1] @ q - result.facets[:, -1]
    residual = np.abs(result.equalities[:, :-1] @ q - result.equalities[:, -1])
    return float(np.min(np.concatenate([slack, -residual, [np.inf]])))


def hull_inside(result, query, tol=1e-9):
    return hull_margin(result, query) >= -tol


def assert_description_valid(points, result, tol=1e-9):
    pts = np.asarray(points, float)
    assert result.facets.shape[1] == result.equalities.shape[1] == result.dim + 1
    assert result.affine_dim + len(result.equalities) == result.dim
    assert np.allclose(np.linalg.norm(result.facets[:, :-1], axis=1), 1.0, atol=1e-12)
    assert np.all(pts @ result.facets[:, :-1].T - result.facets[:, -1] >= -tol)
    assert np.all(
        np.abs(pts @ result.equalities[:, :-1].T - result.equalities[:, -1]) <= tol
    )


class TestAffineDimension:
    def test_single_point(self):
        result = convex_hull(np.array([[1.0, 2.0, 3.0]]))
        assert result.affine_dim == 0
        assert len(result.equalities) == 3
        assert hull_inside(result, [1, 2, 3])

    def test_collinear_points_in_5d(self):
        direction = np.array([1.0, -1.0, 0.5, 2.0, 0.0])
        pts = np.outer([0.0, 1.0, 2.0], direction)
        result = convex_hull(pts)
        assert result.affine_dim == 1
        assert len(result.equalities) == 4
        unit = direction / np.linalg.norm(direction)
        assert np.allclose(np.abs(result.facets[:, :-1] @ unit), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n_points", [2, 3, 4, 5])
    def test_fewer_points_than_dimensions(self, n_points):
        # n generic points in 6-D span an (n - 1)-simplex: n facets inside
        # its affine hull and 7 - n equalities, whose normals must be the
        # whole orthonormal complement of that hull.
        rng = np.random.default_rng(n_points)
        pts = rng.normal(size=(n_points, 6))
        result = convex_hull(pts)
        assert result.affine_dim == n_points - 1
        assert len(result.facets) == n_points
        assert len(result.equalities) == 7 - n_points
        normals = result.equalities[:, :-1]
        assert np.allclose(normals @ normals.T, np.eye(7 - n_points), atol=1e-12)
        assert np.allclose(normals @ (pts[1:] - pts[0]).T, 0.0, atol=1e-12)
        assert_description_valid(pts, result)
        assert hull_inside(result, pts.mean(axis=0))
        assert not hull_inside(result, pts.mean(axis=0) + 1e-3 * normals[0])

    def test_generic_four_contact_cloud_is_full_dimensional(self):
        rng = np.random.default_rng(4)
        config = random_config(rng, n_contacts=4)
        gen = build_generating_matrices(config, [0.0, 0.1, 0.4])
        pts = gen.stacked()[[0, 1, 3, 4, 5], :].T  # drop one force row: 16 x 5
        result = convex_hull(pts)
        assert result.affine_dim == 5
        assert len(result.equalities) == 0


class TestConvexHull:
    def test_unit_square(self):
        pts = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        result = convex_hull(pts)
        assert result.affine_dim == 2
        assert len(result.facets) == 4
        assert len(result.equalities) == 0
        expected = {(-1, 0), (1, 0), (0, -1), (0, 1)}
        got = {tuple(n) for n in np.round(result.facets[:, :-1], 9)}
        assert got == expected
        assert np.allclose(result.facets[:, -1], -1.0, atol=1e-12)
        assert_description_valid(pts, result)

    def test_single_contact_tangential_square(self):
        # Tangential parts of the pyramid edges for mu = 0.8, four sides: a
        # square of half-width 0.8 * sqrt(2)/2.
        u = cone_generators(FrictionCone(0.8, 4))
        pts = u[:2].T
        result = convex_hull(pts)
        half = 0.8 * np.sqrt(2.0) / 2.0
        assert len(result.facets) == 4
        assert np.allclose(result.facets[:, -1], -half, atol=1e-12)
        assert_description_valid(pts, result)

    def test_5d_simplex_has_six_facets(self):
        pts = np.vstack([np.zeros(5), np.eye(5)])
        result = convex_hull(pts)
        assert result.affine_dim == 5
        assert len(result.facets) == 6
        assert_description_valid(pts, result)

    def test_coincident_points_pin_everything(self):
        pts = np.tile([0.5, -1.0, 2.0, 0.0, 1.0], (4, 1))
        result = convex_hull(pts)
        assert result.affine_dim == 0
        assert len(result.facets) == 0
        assert len(result.equalities) == 5
        assert_description_valid(pts, result)
        assert hull_inside(result, pts[0])
        assert not hull_inside(result, pts[0] + 1e-3)

    def test_collinear_cloud_in_5d(self):
        direction = np.array([1.0, -1.0, 0.5, 2.0, 0.0])
        pts = np.outer([0.0, 0.3, 1.0], direction) + 0.25
        result = convex_hull(pts)
        assert result.affine_dim == 1
        assert len(result.facets) == 2
        assert len(result.equalities) == 4
        assert_description_valid(pts, result)
        assert hull_inside(result, 0.5 * direction + 0.25)
        assert not hull_inside(result, 1.5 * direction + 0.25)

    def test_equalities_have_positive_leading_component(self):
        pts = np.outer([0.0, 1.0], [0.0, -1.0, 2.0]) + np.array([1.0, 2.0, -3.0])
        result = convex_hull(pts)
        assert len(result.equalities) == 2
        for row in result.equalities:
            assert row[np.argmax(np.abs(row[:-1]) > 1e-12)] > 0.0

    def test_result_is_read_only(self):
        result = convex_hull(np.vstack([np.zeros(3), np.eye(3)]))
        with pytest.raises(ValueError):
            result.facets[0, 0] = 0.0

    def test_empty_input_raises(self):
        with pytest.raises(DegenerateInput):
            convex_hull(np.zeros((0, 3)))

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_points_must_be_2d(self, shape):
        message = f"points must be 2-D (n_points, dim), got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            convex_hull(np.ones(shape))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            convex_hull(np.array([[0.0, np.inf]]))

    def test_traverse_phase2_cloud_merges_triangulated_facets(self):
        # scipy's ConvexHull triangulates, so each of the hull's 120
        # hyperplanes arrives there as several simplices; convex_hull reads
        # qhull's merged facets, one row per hyperplane.
        scene = load_scene(bundled_path("traverse_phase2"))
        cls = classify(scene.config, scene.com)
        mod = modified_generators(cls.generating, cls.witness)
        pts = np.vstack([mod.force_generators[:2], mod.moment_generators]).T
        result = convex_hull(pts)
        assert len(ConvexHull(pts).equations) > 250
        assert len(result.facets) == 120
        assert_description_valid(pts, result)


class TestMembershipEquivalence:
    @pytest.mark.parametrize(
        "dim,n_points,seed", [(2, 12, 0), (3, 15, 1), (5, 25, 2), (5, 48, 3)]
    )
    def test_agrees_with_lp_oracle(self, dim, n_points, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n_points, dim))
        result = convex_hull(pts)
        assert_description_valid(pts, result)
        band = 1e-7
        checked = 0
        for _ in range(250):
            if rng.random() < 0.5:
                weights = rng.exponential(size=n_points)
                query = weights @ pts / weights.sum()
            else:
                base = pts[rng.integers(n_points)]
                query = base + rng.normal(size=dim) * 0.3
            if abs(hull_margin(result, query)) <= band:
                continue  # too close to the boundary to compare tolerances
            checked += 1
            assert hull_inside(result, query) == lp_inside(pts, query)
        assert checked > 150

    def test_degenerate_cloud_agrees_with_lp_oracle(self):
        rng = np.random.default_rng(9)
        basis = rng.normal(size=(2, 5))
        coeffs = rng.normal(size=(10, 2))
        pts = coeffs @ basis + 0.1
        result = convex_hull(pts)
        assert result.affine_dim == 2
        assert_description_valid(pts, result)
        for _ in range(100):
            weights = rng.exponential(size=10)
            inside = weights @ pts / weights.sum()
            assert hull_inside(result, inside)
            assert lp_inside(pts, inside)
            outside = inside + rng.normal(size=5) * 0.05
            assert hull_inside(result, outside) == lp_inside(pts, outside) or (
                abs(hull_margin(result, outside)) <= 1e-7
            )


class TestDeterminismAndReproducibility:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(20, 3))
        result = convex_hull(pts)
        permuted = convex_hull(pts[rng.permutation(20)])
        assert same_rows(result.facets, permuted.facets, 1e-8)

    def test_facet_reproducible_from_incident_points(self):
        rng = np.random.default_rng(22)
        pts = rng.normal(size=(14, 3))
        result = convex_hull(pts)
        facet = result.facets[0]
        incident = pts[np.abs(pts @ facet[:-1] - facet[-1]) <= 1e-9]
        assert incident.shape[0] >= result.affine_dim
        sub = convex_hull(incident)
        hyperplanes = np.vstack([sub.facets, sub.equalities])
        gap = np.minimum(
            np.abs(hyperplanes - facet).max(axis=1),
            np.abs(hyperplanes + facet).max(axis=1),
        )
        assert np.min(gap) <= 1e-8


@st.composite
def clouds(draw):
    """Small-integer point clouds in 2-5 D spanning an affine subspace of
    any dimension (coincident, collinear, flat or full), with repeats."""
    dim = draw(st.integers(2, 5))
    rank = draw(st.integers(0, dim))
    n = draw(st.integers(1, 12))
    ints = lambda *shape: draw(arrays(np.int64, shape, elements=st.integers(-2, 2)))
    pts = (ints(n, rank) @ ints(rank, dim) + ints(1, dim)).astype(float)
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=4))
    return np.vstack([pts, pts[repeats]])


@settings(max_examples=150, deadline=None)
@given(clouds(), st.data())
def test_hull_properties(pts, data):
    result = convex_hull(pts)
    assert_description_valid(pts, result)

    order = data.draw(st.permutations(range(len(pts))))
    permuted = convex_hull(pts[order])
    assert same_rows(permuted.facets, result.facets, 1e-8)
    assert same_rows(convex_hull(np.vstack([pts, pts])).facets, result.facets, 1e-8)

    # The equalities depend on the subspace alone: neither the order of the
    # points nor a one-ulp nudge of every coordinate moves them.
    nudged = convex_hull(np.nextafter(pts, np.inf))
    for other in (permuted, nudged):
        assert other.equalities.shape == result.equalities.shape
        assert np.all(np.abs(other.equalities - result.equalities) <= 1e-12)

    gap = np.abs(result.facets[:, None, :] - result.facets[None, :, :]).max(axis=2)
    np.fill_diagonal(gap, np.inf)
    assert np.all(gap > MERGE_TOL)


def greedy_merge(rows, diameter):
    """Tolerance reference for qhull's facet merging: keep each row not yet
    removed, in input order, and remove every row within ``MERGE_TOL`` of
    it."""
    offset_tol = MERGE_TOL * (1.0 + diameter)
    removed = np.zeros(len(rows), dtype=bool)
    kept = []
    for i in range(len(rows)):
        if removed[i]:
            continue
        kept.append(i)
        gap = np.abs(rows - rows[i])
        removed |= (gap[:, :-1].max(axis=1) <= MERGE_TOL) & (gap[:, -1] <= offset_tol)
    return rows[kept]


def raw_rows(pts):
    """qhull's triangulated rows for ``pts`` (scipy's ``ConvexHull``, which
    passes ``Qt``), in the frame ``convex_hull`` hulls in."""
    rank, basis, _, centroid = hull._affine_split(pts)
    projected = (pts - centroid) @ basis.T
    return ConvexHull(projected).equations * np.append(-np.ones(rank), 1.0)


def canonical(facets):
    """Facet rows in one order fixed by their values: a lexsort of the rows
    rounded to 12 digits.  ``convex_hull`` returns them in qhull's order."""
    return facets[np.lexsort(np.round(facets, 12).T[::-1])]


def greedy_facets(pts):
    """qhull's triangulated rows for ``pts``, in the frame ``convex_hull``
    hulls in, and the facets ``convex_hull`` would return if its merged
    facets were ``greedy_merge``'s pick of those rows (lifted as it lifts),
    in ``canonical`` order."""
    rank, basis, _, centroid = hull._affine_split(pts)
    projected = (pts - centroid) @ basis.T
    raw = raw_rows(pts)
    diameter = float(np.linalg.norm(projected.max(axis=0) - projected.min(axis=0)))
    sub = greedy_merge(raw, diameter)
    normals = sub[:, :-1] @ basis
    norms = np.linalg.norm(normals, axis=1)
    normals /= norms[:, None]
    facets = np.column_stack([normals, sub[:, -1] / norms + normals @ centroid])
    return raw, canonical(facets)


def stance_cloud(config, com):
    """The 5-D cloud ``build_wcm`` hulls for a constrained stance."""
    cls = classify(config, com)
    assert cls.constrained
    mod = modified_generators(cls.generating, cls.witness)
    return np.vstack([mod.force_generators[:2], mod.moment_generators]).T


def stance(rng, family, n, sides, mu):
    """``n`` contacts with spun pyramids: a ``"floor"`` patch with slightly
    tilted normals (constrained for every mu, since +z lies in every dual
    cone), two facing ``"walls"`` in turn, or ``"mixed"``: floor, wall and
    handle in turn, a handle's normal uniform on the sphere."""
    contacts = []
    for i in range(n):
        kind = ("floor", "walls", "handle")[i % 3] if family == "mixed" else family
        if kind == "floor":
            point = [rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15), 0.0]
            normal = np.array([0.0, 0.0, 1.0]) + rng.normal(size=3) * 0.1
        elif kind == "walls":
            side = 1.0 if i % 2 == 0 else -1.0
            point = [-0.4 * side, rng.uniform(-0.3, 0.3), rng.uniform(0.2, 1.2)]
            normal = np.array([side, 0.0, 0.0]) + rng.normal(size=3) * 0.1
        else:
            point = rng.uniform([-0.4, -0.4, 0.6], [0.4, 0.4, 1.4])
            normal = rng.normal(size=3)
        th = rng.uniform(0.0, 2.0 * np.pi)
        spin = np.array(
            [[np.cos(th), -np.sin(th), 0.0], [np.sin(th), np.cos(th), 0.0], [0.0, 0.0, 1.0]]
        )
        rotation = rotation_from_normal(normal) @ spin
        contacts.append(Contact(point, rotation, FrictionCone(mu, sides)))
    return ContactConfiguration(tuple(contacts))


def test_merge_matches_greedy_on_sixteen_contact_stance():
    # Sixteen floor contacts with eight-sided pyramids and tilted normals:
    # the largest stance shape, with over a thousand triangulated simplices.
    # qhull's merged facets must be the tolerance merge of those simplices'
    # rows: no hyperplane lost, none split in two.
    rng = np.random.default_rng(16)
    contacts = []
    for _ in range(16):
        point = [rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15), 0.0]
        normal = np.array([0.0, 0.0, 1.0]) + rng.normal(size=3) * 0.1
        cone = FrictionCone(0.5, 8)
        contacts.append(Contact(point, rotation_from_normal(normal), cone))
    pts = stance_cloud(ContactConfiguration(tuple(contacts)), [0.0, 0.0, 0.8])
    raw, expected = greedy_facets(pts)
    assert len(raw) > 1000 and len(expected) < len(raw)
    assert np.array_equal(canonical(convex_hull(pts).facets), expected)


def test_merge_matches_greedy_on_seeded_stances():
    # qhull with Qt gives every simplex of a facet that facet's hyperplane
    # bit for bit, so a tolerance merge of the triangulated rows keeps one
    # row per merged facet, and convex_hull, which reads qhull's merged
    # facets without Qt, must return exactly those rows.  A qhull whose merged
    # facets split or lost a hyperplane would fail here.  One to ten contacts
    # keep the quadratic reference quick; the test above covers sixteen.
    rng = np.random.default_rng(2016)
    hulled = merged = 0
    for k in range(240):
        mu = (0.0, 0.3, 0.5, 0.8)[k % 4]
        config = stance(rng, "floor", int(rng.integers(1, 11)), int(rng.integers(3, 9)), mu)
        com = rng.uniform([-0.05, -0.05, 0.7], [0.05, 0.05, 0.9])
        pts = stance_cloud(config, com)
        if hull._affine_split(pts)[0] < 2:
            continue  # no qhull call, nothing to merge
        raw, expected = greedy_facets(pts)
        assert np.array_equal(canonical(convex_hull(pts).facets), expected), k
        hulled += 1
        merged += len(expected) < len(raw)
    assert hulled >= 200 and merged >= 150


def lexsort_unique_rows(rows):
    """An exact dedup: a stable lexsort over every column, a comparison of
    adjacent sorted rows, and a mask indexed through the sort order, which
    keeps each first occurrence in input order."""
    order = np.lexsort(rows.T)
    ranked = rows[order]
    head = np.append(True, np.any(ranked[1:] != ranked[:-1], axis=1))
    keep = np.zeros(len(rows), dtype=bool)
    keep[order[head]] = True
    return rows[keep]


def degenerate_clouds(rng):
    """5-D clouds of every affine rank from 0 to 5: integer lattices,
    duplicated points, cospherical points and Gaussian flats, each placed by
    a random affine map, and the lattice also along the coordinate axes."""
    for rank in range(6):
        embed = rng.normal(size=(rank, 5))
        offset = rng.normal(size=5)
        lattice = rng.integers(-2, 3, size=(24, rank)).astype(float)
        flat = rng.normal(size=(16, rank))
        sphere = flat / np.maximum(np.linalg.norm(flat, axis=1), 1e-300)[:, None]
        for coords in (lattice, np.vstack([flat, flat[::2]]), sphere, flat):
            yield coords @ embed + offset
        yield np.hstack([lattice, np.zeros((24, 5 - rank))]) + np.round(offset)


def row_set(rows):
    """The rows of a 2-D float array sorted by value, as bytes: two arrays of
    value-distinct rows give equal bytes exactly when their rows are the
    same set, bit for bit."""
    return rows[np.lexsort(rows.T)].tobytes()


def triangulated_facets(pts):
    """The facet rows ``convex_hull`` should return for ``pts``, from scipy's
    public ``ConvexHull`` with its default options: qhull triangulates
    (``Qt``), so each hyperplane arrives once per simplex; the copies are
    dropped exactly by ``lexsort_unique_rows`` and the rest lifted as
    ``convex_hull`` lifts.  A qhull error becomes ``HullFailure``, as there."""
    rank, basis, _, centroid = hull._affine_split(pts)
    projected = (pts - centroid) @ basis.T
    try:
        sub = lexsort_unique_rows(ConvexHull(projected).equations)
    except QhullError:
        raise HullFailure("qhull failed on projected cloud")
    normals = sub[:, :-1] @ basis
    norms = np.sqrt((normals * normals).sum(axis=1))
    normals /= -norms[:, None]
    return np.column_stack([normals, sub[:, -1] / norms + normals @ centroid])


def facets_or_failure(hull_of, pts):
    """``hull_of(pts)``, or None if it raised ``HullFailure``.  Only the type
    is compared: qhull's message lists the options it ran with."""
    try:
        return hull_of(pts)
    except HullFailure:
        return None


def test_merged_facets_match_deduplicated_triangulation():
    # convex_hull reads qhull's merged facets, one hyperplane each, without
    # Qt.  Triangulating splits a merged facet into simplices that each carry
    # its hyperplane bit for bit, so after an exact dedup scipy's public
    # ConvexHull must give the same rows, byte for byte as a set, and both
    # must fail on the same clouds.  A scipy whose private _Qhull stopped
    # matching what ConvexHull drives would fail here.  Most wall and mixed
    # stances are unconstrained and have no cloud, so each cell is drawn
    # three times.
    rng = np.random.default_rng(515)
    clouds = []
    per_family = dict.fromkeys(("floor", "walls", "mixed"), 0)
    for family in per_family:
        for mu in (0.0, 0.3, 0.5, 0.8):
            for n in [*range(1, 17)] * 3:
                config = stance(rng, family, n, int(rng.integers(3, 9)), mu)
                com = rng.uniform([-0.05, -0.05, 0.7], [0.05, 0.05, 0.9])
                if classify(config, com).constrained:
                    clouds.append(stance_cloud(config, com))
                    per_family[family] += 1
    clouds.extend(degenerate_clouds(rng))

    ranks = set()
    for k, pts in enumerate(clouds):
        rank = hull._affine_split(pts)[0]
        if rank < 2:
            continue  # no qhull call
        ranks.add(rank)
        got = facets_or_failure(lambda p: hull.convex_hull(p).facets, pts)
        want = facets_or_failure(triangulated_facets, pts)
        assert (got is None) == (want is None), k
        if got is not None:
            assert row_set(got) == row_set(want), k
            assert len(lexsort_unique_rows(got)) == len(got), k
    assert min(per_family.values()) >= 10, per_family
    assert ranks == {2, 3, 4, 5}


def reference_canonical_basis(rows):
    """``hull._canonical_basis`` in its array form: Gram-Schmidt over the
    projector's columns, with an outer-product update of the whole projector
    after each kept column."""
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


def reference_affine_split(pts, svd=np.linalg.svd):
    """``hull._affine_split`` in its array form: ``svd`` (numpy's unless
    given), ``pts.mean`` and numpy reductions for the rank, and
    ``reference_canonical_basis``."""
    centroid = pts.mean(axis=0)
    _, sv, vt = svd(pts - centroid, full_matrices=len(pts) < pts.shape[1])
    size = max(map(abs, centroid.tolist())) + sv[0]
    noise = 16 * len(pts) * np.finfo(float).eps * size
    rank = int(np.sum(sv > max(hull.RANK_TOL * sv[0], noise, np.finfo(float).tiny)))
    complement = vt[rank:] if rank == len(vt) else reference_canonical_basis(vt[rank:])
    return rank, vt[:rank], complement, centroid


def lapack_svd(a, full_matrices):
    """LAPACK's ``dgesdd`` through scipy, as ``hull`` calls it, in
    ``np.linalg.svd``'s return layout."""
    u, sv, vt, info = dgesdd(a, full_matrices=full_matrices)
    assert info == 0
    return u, sv, vt


def split_clouds():
    """``degenerate_clouds`` of every rank, and the 5-D clouds of seeded
    constrained stances, frictionless ones among them."""
    rng = np.random.default_rng(27)
    clouds = list(degenerate_clouds(rng))
    while len(clouds) < 150:
        family = ("floor", "walls", "mixed")[len(clouds) % 3]
        mu = (0.0, 0.3, 0.5, 0.8)[len(clouds) % 4]
        config = stance(rng, family, int(rng.integers(1, 13)), int(rng.integers(3, 9)), mu)
        com = rng.uniform([-0.05, -0.05, 0.7], [0.05, 0.05, 0.9])
        if classify(config, com).constrained:
            clouds.append(stance_cloud(config, com))
    return clouds


def test_affine_split_is_the_array_form_bit_for_bit():
    # The module computes the centroid as a sum over the count, the rank on
    # Python floats and the canonical complement on Python floats, all with
    # the array form's operations in its order: given the same SVD, the
    # centroid, rank, basis and complement are the same bytes.
    ranks = set()
    for k, pts in enumerate(split_clouds()):
        rank, basis, complement, centroid = hull._affine_split(pts)
        want = reference_affine_split(pts, lapack_svd)
        assert rank == want[0], k
        for got, expected in zip((basis, complement, centroid), want[1:]):
            assert got.shape == expected.shape, k
            assert got.tobytes() == expected.tobytes(), k
        ranks.add(rank)
    assert ranks == {0, 1, 2, 3, 4, 5}


def test_affine_split_matches_numpy_svd():
    # The SVD is LAPACK's dgesdd, called through scipy rather than through
    # np.linalg.svd.  The two packages may link different LAPACK builds, so
    # the results are compared to 1e-12: the singular vectors' signs may
    # differ, so the basis is compared through its projector; the complement
    # is canonical and compared as it is.
    for k, pts in enumerate(split_clouds()):
        rank, basis, complement, centroid = hull._affine_split(pts)
        want_rank, want_basis, want_complement, want_centroid = reference_affine_split(pts)
        assert rank == want_rank, k
        assert centroid.tobytes() == want_centroid.tobytes(), k
        assert np.abs(basis.T @ basis - want_basis.T @ want_basis).max(initial=0.0) <= 1e-12, k
        assert complement.shape == want_complement.shape, k
        assert np.abs(complement - want_complement).max(initial=0.0) <= 1e-12, k


def test_affine_split_raises_when_the_svd_fails(monkeypatch):
    def failing(a, full_matrices):
        return None, np.zeros(min(a.shape)), None, 3

    monkeypatch.setattr(hull, "dgesdd", failing)
    with pytest.raises(np.linalg.LinAlgError, match="info 3"):
        hull._affine_split(np.eye(5))
