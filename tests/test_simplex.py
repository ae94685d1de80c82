"""NNLS solver checks against hand results, a brute-force passive-set
enumeration and scipy's reference implementation."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import nnls

from wrenchfeas import build_generating_matrices, load_scene
from wrenchfeas.oracle import MEMBERSHIP_TOL
from wrenchfeas.simplex import _passive_solve, _step_back, prepare, solve

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


def enumerate_optimum(a, b):
    """Independent NNLS oracle for tiny problems: the optimum is the
    least-squares fit on some set of linearly independent columns whose
    coefficients are all nonnegative.  Try every column subset, keep the
    nonnegative fits, return the smallest residual."""
    best = np.linalg.norm(b)
    for k in range(1, min(a.shape) + 1):
        for cols in itertools.combinations(range(a.shape[1]), k):
            sub = a[:, cols]
            if np.linalg.matrix_rank(sub) < k:
                continue
            coef = np.linalg.lstsq(sub, b, rcond=None)[0]
            if coef.min() >= 0.0:
                best = min(best, np.linalg.norm(sub @ coef - b))
    return best


def scaled(a, b, x):
    """The same problem with every column and the target at unit largest
    entry.  Positive scaling changes neither the optimal relative residual
    nor the signs in the optimality conditions, and keeps norms clear of
    underflow."""
    col = np.abs(a).max(axis=0)
    col[col == 0.0] = 1.0
    top = np.abs(b).max() or 1.0
    return a / col, b / top, x * col / top


def rounding_floor(a, x):
    """Floating point evaluates b - Ax only to about n eps |A||x|."""
    return a.shape[1] * np.finfo(float).eps * np.linalg.norm(np.abs(a) @ x)


def reference_solve(a, b):
    """The active-set loop with its step-back written on arrays (masks,
    ``np.flatnonzero``, ``ratios.min()`` and ``argmin``), the form the
    solver had before its step-back moved to Python floats.  Both perform
    the same IEEE operations in the same order, so ``solve`` must match it
    bit for bit."""
    prepared = prepare(a)
    a, gram, tol = prepared.scaled, prepared.gram, prepared.tol
    b = np.asarray(b, dtype=float)
    b_max = np.abs(b).max(initial=0.0)
    n = a.shape[1]
    x = np.zeros(n)
    if b_max == 0.0:
        return x, 0.0
    b = b / b_max
    atb = a.T @ b
    order = np.empty(n, dtype=np.intp)
    k = 0
    w = atb.copy()
    for _ in range(3 * n):
        j = int(w.argmax())
        if w[j] <= tol:
            break
        order[k] = j
        idx = order[: k + 1]
        z = _passive_solve(gram, atb, a, b, idx)
        if z[-1] <= 0.0:
            w[j] = -np.inf
            continue
        while z.size and min(z.tolist()) <= 0.0:
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
    r = a @ x - b
    residual = math.sqrt(r.dot(r)) / math.sqrt(b.dot(b))
    return x / prepared.col_max * b_max, residual


def assert_same_bits(result, expected):
    assert result[0].tobytes() == expected[0].tobytes()
    assert np.float64(result[1]).tobytes() == np.float64(expected[1]).tobytes()


def assert_kkt(a, b, x, tol=1e-9):
    """Optimality for min |Ax - b|, x >= 0: the gradient A^T(b - Ax) is
    nonpositive everywhere and zero on the support of x."""
    a, b, x = scaled(a, b, x)
    tol += rounding_floor(a, x)
    grad = a.T @ (b - a @ x)
    assert x.min() >= 0.0
    assert grad.max() <= tol
    assert np.all(np.abs(grad[x > 0.0]) <= tol)


def test_single_variable_lower_bound_row():
    # The row asks for x = 3, which the bound x >= 0 allows.
    x, residual = solve([[1.0]], [3.0])
    assert x[0] == pytest.approx(3.0, abs=1e-12)
    assert residual <= 1e-15


def test_crossed_row_and_bound_is_infeasible():
    # The row asks for x = -3 and the bound x >= 0 crosses it: the best
    # nonnegative x is 0 and nothing of the target is reached.
    x, residual = solve([[1.0]], [-3.0])
    assert x[0] == 0.0
    assert residual == pytest.approx(1.0)


def test_equality_rows():
    # Every x >= 0 on the segment x1 + x2 = 1 is optimal; any one of them
    # must reproduce the row exactly.
    x, residual = solve([[1.0, 1.0]], [1.0])
    assert x.min() >= 0.0
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    assert residual <= 1e-12


def test_zero_column_is_never_used():
    a = np.array([[0.0, 1.0], [0.0, 1.0]])
    x, residual = solve(a, [2.0, 2.0])
    assert x[0] == 0.0
    assert x[1] == pytest.approx(2.0)
    assert residual <= 1e-15


def test_ill_conditioned_block_meets_reachable_target():
    # The last passive block has condition number about 1e7, so the step
    # takes the least-squares fallback; unrefined, that left a relative
    # residual of 6e-8 on a target that x = (1e6, 1, 4e6) meets exactly.
    a = np.array([[1e-6, -1.0, 0.0], [-4.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    target = np.array([0.0, 0.0, 1.0])
    x, residual = solve(a, target)
    assert_kkt(a, target, x)
    assert residual <= 1e-12
    assert x == pytest.approx([1e6, 1.0, 4e6], rel=1e-9)


def test_cycling_classification_matrix_terminates():
    # The classification matrix [U; 1^T] of a 13-contact floor stance on
    # which a textbook simplex cycled.  NNLS must stop at the optimum.
    scene = load_scene(FIXTURES / "simplex_cycling.json")
    u = build_generating_matrices(scene.config, scene.com).force_generators
    e = np.vstack([u / np.linalg.norm(u, axis=0), np.ones(u.shape[1])])
    target = np.array([0.0, 0.0, 0.0, 1.0])
    x, residual = solve(e, target)
    assert_kkt(e, target, x)
    assert residual == pytest.approx(nnls(e, target)[1], abs=1e-9)


def test_malformed_dimension_mismatch():
    with pytest.raises(ValueError):
        solve([[1.0, 2.0]], [0.0, 1.0])
    with pytest.raises(ValueError):
        solve([1.0, 2.0], [0.0, 1.0])


def test_prepared_matrix_rejects_malformed_input():
    with pytest.raises(ValueError):
        prepare([1.0, 2.0])
    with pytest.raises(ValueError):
        prepare([[1.0, np.inf]])
    prepared = prepare([[1.0, 2.0]])
    with pytest.raises(ValueError):
        prepared.solve([0.0, 1.0])
    with pytest.raises(ValueError):
        prepared.solve([np.nan])


def test_prepared_arrays_are_read_only_and_input_untouched():
    a = np.array([[2.0, -1.0], [0.5, 4.0]])
    prepared = prepare(a)
    for arr in (prepared.scaled, prepared.gram, prepared.col_max):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert a.flags.writeable
    assert np.array_equal(a, [[2.0, -1.0], [0.5, 4.0]])


def test_malformed_nonfinite():
    with pytest.raises(ValueError):
        solve([[np.nan]], [1.0])
    with pytest.raises(ValueError):
        solve([[1.0]], [np.inf])


@pytest.mark.parametrize("seed", range(30))
def test_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    n = int(rng.integers(2, 7))
    a = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    expected = enumerate_optimum(a, b)
    x, residual = solve(a, b)
    assert x.min() >= 0.0
    assert residual * np.linalg.norm(b) == pytest.approx(expected, abs=1e-9)
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) == pytest.approx(
        residual, abs=1e-12
    )


@pytest.mark.parametrize("seed", range(10))
def test_feasible_points_bound_the_optimum(seed):
    # The reported minimum can never be above the residual at any x >= 0,
    # and a target built from nonnegative coefficients is reached exactly.
    rng = np.random.default_rng(100 + seed)
    m, n = 6, 24
    a = rng.normal(size=(m, n))
    b = rng.normal(size=m) * 3.0
    x, residual = solve(a, b)
    samples = rng.exponential(size=(200, n)) * rng.uniform(0.0, 1.0, size=(200, 1))
    sampled = np.linalg.norm(samples @ a.T - b, axis=1) / np.linalg.norm(b)
    assert residual <= sampled.min() + 1e-12
    reachable = a @ rng.exponential(size=n)
    x, residual = solve(a, reachable)
    assert x.min() >= 0.0
    assert residual <= 1e-9
    assert np.linalg.norm(a @ x - reachable) <= 1e-9 * np.linalg.norm(reachable)


def test_bitwise_determinism():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 30))
    b = rng.normal(size=5)
    first = solve(a, b)
    second = solve(a, b)
    assert np.array_equal(first[0], second[0])
    assert first[1] == second[1]


# In the first problem one outer step drops two columns in turn: two
# step-backs, each zeroing one entry.  In the second, one step-back zeroes
# two entries at once, since both reach zero at the same ratio.
@pytest.mark.parametrize(
    "a, b",
    [
        ([[2.0, 3.0, 1.0], [4.0, -4.0, 0.0], [2.0, 4.0, 3.0]], [0.0, 0.0, 4.0]),
        ([[2.0, 2.0, -3.0, 4.0], [0.0, -2.0, -3.0, 3.0], [1.0, 2.0, 0.0, 0.0]], [4.0, 0.0, 2.0]),
    ],
    ids=["in-turn", "at-once"],
)
def test_step_back_drops_several_columns(a, b):
    a, b = np.array(a), np.array(b)
    x, residual = solve(a, b)
    assert residual * np.linalg.norm(b) == pytest.approx(enumerate_optimum(a, b), abs=1e-12)
    assert_kkt(a, b, x)
    assert_same_bits(prepare(a).solve(b), (x, residual))
    assert_same_bits(reference_solve(a, b), (x, residual))


def test_matches_array_step_back_reference():
    # 400 seeded problems, sparse or offset columns and arbitrary targets;
    # 31 of them run the step-back, three dropping two columns in one step.
    rng = np.random.default_rng(2026)
    for i in range(400):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 50))
        a = rng.normal(size=(m, n))
        a = a + 1.0 if i % 2 else a * (rng.random((m, n)) < 0.5)
        b = rng.normal(size=m)
        assert_same_bits(solve(a, b), reference_solve(a, b))


def test_step_back_can_empty_the_passive_set():
    # No problem found reaches this: each step-back keeps the objective
    # below |b|^2 in exact arithmetic, and x = 0 attains |b|^2, so only
    # rounding could empty the passive set.  The state is made by hand:
    # column 1 entered beside column 0 with z = (-1, 1), and alone it fits
    # b only with a negative coefficient.
    prepared = prepare(np.eye(2))
    a, b = prepared.scaled, np.array([1.0, -1.0])
    idx, z = _step_back(prepared.gram, a.T @ b, a, b, [0, 1], [1.0, 0.0], [-1.0, 1.0])
    assert idx.size == 0 and z.size == 0


def test_negative_zero_target_is_zero():
    x, residual = solve([[1.0, -2.0], [3.0, 0.5]], [-0.0, -0.0])
    assert x.tobytes() == np.zeros(2).tobytes()
    assert residual == 0.0


@pytest.mark.xfail(
    strict=True, reason="ROADMAP item 2: the stop test is absolute, not relative to |r|"
)
@pytest.mark.parametrize(
    "a, b, tol, fit",
    [
        # After the first step r = (1e-7, 0), and column 1's gradient,
        # 3.3e-15, is below the stop tolerance 10 eps n = 4.4e-15, although
        # relative to |r| it is 3.3e-8.  x = (4, 1) reaches the target exactly.
        ([[0.0, 1e-7], [1.0, -3.0]], [1e-7, 1.0], 1e-12, [4.0, 1.0]),
        # The solve stops at x = (0.5, 0, 0), relative residual 5.0e-8:
        # column 2's gradient, 2.2e-15, is below the stop tolerance 6.7e-15,
        # although relative to |r| it is 4.4e-8.  x = (0, 0, 1) fits exactly
        # (column 1 is zero, so the fit is not unique).
        (
            [[0.0, 0.0, 0.0], [2.0, 0.0, 1.0], [1e-7, 0.0, 0.0]],
            [0.0, 1.0, 0.0],
            MEMBERSHIP_TOL,
            None,
        ),
    ],
    ids=["two-columns", "zero-column"],
)
def test_stop_test_sees_a_gradient_small_only_in_absolute_terms(a, b, tol, fit):
    x, residual = solve(np.array(a), np.array(b))
    assert residual <= tol
    if fit is not None:
        assert x == pytest.approx(fit, rel=1e-9)


@pytest.mark.xfail(
    strict=True, reason="ROADMAP item 2: a gradient entry lost in rounding stops short of a fit"
)
def test_reaches_a_fit_admitted_only_by_a_gradient_below_rounding():
    # The gradient entry that would admit column 0, about 3e-19, is lost in
    # the rounding of A^T (b - Ax): the solve stops at x = (0, 0.498, 0.596)
    # with a relative residual of 4.28e-9, yet the nonnegative
    # x = (32.6, 37.7, 24.3) fits exactly.
    a = np.array(
        [
            [5.1625099107345704, -7.6714892118526326, 4.9337932016343782],
            [-7.6714892118526326, 5.1625099107345704, 2.4490394398196198],
            [5.4196146806530209e-10, -1.9076283690526757e-22, -1.9076283690526757e-22],
        ]
    )
    b = np.array([-0.87886997505571429, 4.0323056455937838, 1.7672677475815698e-08])
    assert np.linalg.solve(a, b).min() > 0.0
    _, residual = solve(a, b)
    assert residual <= MEMBERSHIP_TOL


# Entries far below 1e-200 could put the exact solution past the largest
# double; smaller ones still reach the underflow of 2-norms.
ELEMENTS = st.floats(-10.0, 10.0, allow_nan=False).filter(
    lambda v: v == 0.0 or abs(v) >= 1e-200
)


@st.composite
def problems(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 50))
    a = draw(arrays(np.float64, (m, n), elements=ELEMENTS))
    b = draw(arrays(np.float64, (m,), elements=ELEMENTS))
    return a, b


@settings(max_examples=300, deadline=None)
@given(problems())
def test_properties_match_scipy_nnls(problem):
    a, b = problem
    x, residual = solve(a, b)
    assert_kkt(a, b, x)
    if not b.any():
        assert np.array_equal(x, np.zeros(a.shape[1]))
        assert residual == 0.0
    else:
        # Compared on the scaled problem, so that the reference also copes
        # with badly scaled columns.
        unit_a, unit_b, unit_x = scaled(a, b, x)
        expected = nnls(unit_a, unit_b)[1] / np.linalg.norm(unit_b)
        tol = 1e-9 + rounding_floor(unit_a, unit_x) / np.linalg.norm(unit_b)
        assert residual == pytest.approx(expected, abs=tol)
        zero_x, zero_residual = solve(a, np.zeros_like(b))
        assert np.array_equal(zero_x, np.zeros(a.shape[1])) and zero_residual == 0.0
    again = solve(a, b)
    assert np.array_equal(again[0], x) and again[1] == residual


@settings(max_examples=150, deadline=None)
@given(problems(), st.data())
def test_prepared_matrix_solves_each_target_as_solve_does(problem, data):
    # One preparation serves several targets in turn, reachable, arbitrary,
    # zero and repeated ones: each result must be bit for bit the one-shot
    # solve's, so nothing of one solve leaks into the next.
    a, b = problem
    m, n = a.shape
    reachable = a @ data.draw(arrays(np.float64, (n,), elements=st.floats(0.0, 10.0)))
    others = data.draw(st.lists(arrays(np.float64, (m,), elements=ELEMENTS), max_size=3))
    prepared = prepare(a)
    for target in [b, reachable, np.zeros(m), *others, b]:
        x, residual = prepared.solve(target)
        expected_x, expected_residual = solve(a, target)
        assert np.array_equal(x, expected_x)
        assert residual == expected_residual
