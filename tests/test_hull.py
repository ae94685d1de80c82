"""Convex hull in low dimension, with degenerate (flat) clouds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

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
from wrenchfeas.errors import DegenerateInput
from wrenchfeas.scenes import rotation_from_normal
from wrenchfeas.wcm import modified_generators

from conftest import random_config
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


def same_rows(a, b, tol):
    """Equal row sets: same count, and each row within ``tol`` of a row of
    the other."""
    if a.shape != b.shape:
        return False
    if len(a) == 0:
        return True
    gap = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
    return bool(np.all(gap.min(axis=1) <= tol) and np.all(gap.min(axis=0) <= tol))


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

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            convex_hull(np.array([[0.0, np.inf]]))

    def test_traverse_phase2_cloud_merges_triangulated_facets(self):
        # qhull triangulates, so each of the hull's 120 hyperplanes arrives
        # as several raw facets; convex_hull keeps one row per hyperplane.
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
    """Tolerance reference for the facet dedup: keep each row not yet
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


def greedy_facets(pts):
    """qhull's raw rows for ``pts``, in the frame ``convex_hull`` hulls in,
    and the facets ``convex_hull`` would return if ``greedy_merge`` chose
    the rows it keeps (lifted and sorted as it does)."""
    rank, basis, _, centroid = hull._affine_split(pts)
    projected = (pts - centroid) @ basis.T
    raw = ConvexHull(projected).equations * np.append(-np.ones(rank), 1.0)
    diameter = float(np.linalg.norm(projected.max(axis=0) - projected.min(axis=0)))
    sub = greedy_merge(raw, diameter)
    normals = sub[:, :-1] @ basis
    norms = np.linalg.norm(normals, axis=1)
    normals /= norms[:, None]
    facets = np.column_stack([normals, sub[:, -1] / norms + normals @ centroid])
    return raw, facets[np.lexsort(np.round(facets, 12).T[::-1])]


def stance_cloud(config, com):
    """The 5-D cloud ``build_wcm`` hulls for a constrained stance."""
    cls = classify(config, com)
    assert cls.constrained
    mod = modified_generators(cls.generating, cls.witness)
    return np.vstack([mod.force_generators[:2], mod.moment_generators]).T


def floor_stance(rng, n, sides, mu):
    """``n`` floor contacts with slightly tilted normals and spun pyramids:
    constrained for every mu, since +z lies in every dual cone."""
    contacts = []
    for _ in range(n):
        point = [rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15), 0.0]
        normal = np.array([0.0, 0.0, 1.0]) + rng.normal(size=3) * 0.1
        th = rng.uniform(0.0, 2.0 * np.pi)
        spin = np.array(
            [[np.cos(th), -np.sin(th), 0.0], [np.sin(th), np.cos(th), 0.0], [0.0, 0.0, 1.0]]
        )
        rotation = rotation_from_normal(normal) @ spin
        contacts.append(Contact(point, rotation, FrictionCone(mu, sides)))
    return ContactConfiguration(tuple(contacts))


def test_merge_matches_greedy_on_sixteen_contact_stance():
    # Sixteen floor contacts with eight-sided pyramids and tilted normals:
    # the largest stance shape, with over a thousand raw qhull facets.
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
    assert np.array_equal(convex_hull(pts).facets, expected)


def test_merge_matches_greedy_on_seeded_stances():
    # qhull with Qt gives every simplex of a facet that facet's hyperplane
    # bit for bit, so exact dedup keeps what the tolerance merge keeps.  A
    # qhull that stopped copying hyperplanes exactly would fail here.  One to
    # ten contacts keep the quadratic reference quick; the test above covers
    # sixteen.
    rng = np.random.default_rng(2016)
    hulled = merged = 0
    for k in range(240):
        mu = (0.0, 0.3, 0.5, 0.8)[k % 4]
        config = floor_stance(rng, int(rng.integers(1, 11)), int(rng.integers(3, 9)), mu)
        com = rng.uniform([-0.05, -0.05, 0.7], [0.05, 0.05, 0.9])
        pts = stance_cloud(config, com)
        if hull._affine_split(pts)[0] < 2:
            continue  # no qhull call, nothing to dedup
        raw, expected = greedy_facets(pts)
        assert np.array_equal(convex_hull(pts).facets, expected), k
        hulled += 1
        merged += len(expected) < len(raw)
    assert hulled >= 200 and merged >= 150
