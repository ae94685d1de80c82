"""Constraint-matrix pipeline: modified generators, build, shift, queries."""

import re

import numpy as np
import pytest
from scipy.optimize import linprog

from wrenchfeas import (
    Contact,
    ContactConfiguration,
    FrictionCone,
    MotionQuery,
    RigidBodyParams,
    Wrench,
    build_generating_matrices,
    build_wcm,
    classify,
    force_membership_lp,
    acceleration_feasible,
    acceleration_verdict,
    required_wrench,
    shift_wcm,
    wrench_feasible,
    wrench_margin,
    wrench_membership_lp,
)
from wrenchfeas import bundled_path, load_scene, wcm as wcm_module
from wrenchfeas.errors import AnchorMismatch, WitnessOnBoundary
from wrenchfeas.scenes import rotation_from_normal, scene_from_dict
from wrenchfeas.wcm import (
    WrenchConstraintMatrix,
    modified_generators,
    trajectory_verdicts,
    wrench_verdicts,
)

from conftest import (
    flat_foot_config,
    line_foot_config,
    random_constrained_config,
    random_rotation,
    rotate_config,
    single_contact_config,
)

HALF = 0.8 * np.sqrt(2.0) / 2.0


def cone_member(matrix, target):
    """Independent membership check: HiGHS feasibility of matrix @ a = target,
    a >= 0."""
    res = linprog(
        np.zeros(matrix.shape[1]),
        A_eq=matrix,
        b_eq=target,
        bounds=(0, None),
        method="highs",
    )
    assert res.status in (0, 2), res.message
    return res.status == 0


@pytest.fixture(scope="module")
def identity_contact_gen():
    config = ContactConfiguration(
        (Contact([0, 0, 0.5], np.eye(3), FrictionCone(0.8, 4)),)
    )
    return build_generating_matrices(config, [0, 0, 0.5])


class TestModifiedGenerators:
    def test_z_witness_identity_contact_is_unchanged(self, identity_contact_gen):
        mod = modified_generators(identity_contact_gen, [0.0, 0.0, 1.0])
        assert np.allclose(
            mod.force_generators, identity_contact_gen.force_generators, atol=1e-14
        )
        assert np.all(mod.force_generators[2] == 1.0)

    def test_witness_scale_invariance(self, identity_contact_gen):
        a = modified_generators(identity_contact_gen, [0.2, 0.1, 1.0])
        b = modified_generators(identity_contact_gen, [2.0, 1.0, 10.0])
        assert np.allclose(a.force_generators, b.force_generators, atol=1e-12)
        assert np.allclose(a.moment_generators, b.moment_generators, atol=1e-12)

    def test_arrays_are_read_only(self, identity_contact_gen):
        mod = modified_generators(identity_contact_gen, [0.2, 0.1, 1.0])
        for arr in (mod.force_generators, mod.moment_generators, mod.rotation):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("seed", range(5))
    def test_third_row_is_ones(self, seed):
        rng = np.random.default_rng(seed)
        config = random_constrained_config(rng, n_contacts=5)
        com = rng.uniform(-0.2, 0.2, size=3)
        cls = classify(config, com)
        assert cls.constrained
        mod = modified_generators(cls.generating, cls.witness)
        assert np.max(np.abs(mod.force_generators[2] - 1.0)) <= 1e-12

    def test_generated_cone_is_preserved(self):
        # Nonnegative combinations of the rescaled columns and of the rotated
        # originals realize exactly the same wrenches.
        config = flat_foot_config()
        com = np.array([0.02, -0.01, 0.7])
        cls = classify(config, com)
        mod = modified_generators(cls.generating, cls.witness)
        rot = mod.rotation
        rotated = np.vstack(
            [rot @ cls.generating.force_generators, rot @ cls.generating.moment_generators]
        )
        rescaled = np.vstack([mod.force_generators, mod.moment_generators])
        rng = np.random.default_rng(0)
        for _ in range(10):
            coeff = rng.exponential(size=rotated.shape[1])
            assert cone_member(rescaled, rotated @ coeff)
            assert cone_member(rotated, rescaled @ coeff)

    def test_boundary_witness_rejected(self, identity_contact_gen):
        # (1, 0, 0) has negative projection on half the pyramid edges.
        with pytest.raises(WitnessOnBoundary):
            modified_generators(identity_contact_gen, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "v, message",
        [
            ([0.0, 0.0, np.nan], "witness must have finite components"),
            ([0.0, 0.0, np.inf], "witness must have finite components"),
            ([0.0, 0.0, 0.0], "witness must be a nonzero vector"),
            ([0.0, 0.0, 1e200], r"a witness component of 1e\+200 exceeds 1e\+150"),
            ([0.0, 0.0, 1.0, 0.0], r"witness must be a 3-vector, got shape \(4,\)"),
        ],
    )
    def test_unusable_witness_rejected(self, identity_contact_gen, v, message):
        # Each is a ValueError naming the witness, raised before any
        # arithmetic could give NaN generators or an overflow warning.
        with pytest.raises(ValueError, match=message):
            modified_generators(identity_contact_gen, v)

    def test_witness_at_the_component_bound_is_a_direction(self, identity_contact_gen):
        big = modified_generators(identity_contact_gen, [0.0, 0.0, 1e150])
        unit = modified_generators(identity_contact_gen, [0.0, 0.0, 1.0])
        assert np.array_equal(big.force_generators, unit.force_generators)
        assert np.array_equal(big.moment_generators, unit.moment_generators)


class TestBuildWcm:
    @pytest.mark.parametrize(
        "name, n_rows",
        [
            ("flat_foot", 17),
            ("traverse_phase1", 115),
            ("traverse_phase2", 121),
            ("traverse_phase3", 161),
            ("traverse_phase4", 43),
            ("traverse_phase5", 121),
            ("traverse_phase6", 51),
        ],
    )
    def test_row_count_on_bundled_scenes(self, name, n_rows):
        # The facet rows come in qhull's order; their number is fixed.
        scene = load_scene(bundled_path(name))
        cls = classify(scene.config, scene.com)
        assert build_wcm(scene.config, scene.com, cls.witness).n_rows == n_rows

    def test_single_contact_at_anchor_closed_form(self):
        # Moments must vanish and the tangential force is boxed by the
        # pyramid: |fx| <= half * fz, |fy| <= half * fz, fz >= 0.
        config = ContactConfiguration(
            (Contact([0, 0, 0.5], np.eye(3), FrictionCone(0.8, 4)),)
        )
        com = np.array([0.0, 0.0, 0.5])
        cls = classify(config, com)
        wcm = build_wcm(config, com, cls.witness)
        rng = np.random.default_rng(8)
        for _ in range(300):
            w6 = rng.normal(size=6) * np.array([1, 1, 1, 0.1, 0.1, 0.1])
            if rng.random() < 0.5:
                w6[3:] = 0.0
                w6[2] = abs(w6[2])
                w6[:2] *= 0.5
            expected = (
                np.allclose(w6[3:], 0.0, atol=1e-9)
                and w6[2] >= -1e-9
                and abs(w6[0]) <= HALF * w6[2] + 1e-9
                and abs(w6[1]) <= HALF * w6[2] + 1e-9
            )
            wrench = Wrench(w6[:3], w6[3:], com)
            margin = wrench_margin(wcm, wrench)
            if abs(margin) <= 1e-7 * (1 + np.linalg.norm(w6)):
                continue
            assert wrench_feasible(wcm, wrench) == expected

    def test_sampled_cone_points_satisfy_rows(self):
        config = flat_foot_config()
        com = np.array([0.0, 0.0, 0.8])
        cls = classify(config, com)
        wcm = build_wcm(config, com, cls.witness)
        stacked = cls.generating.stacked()
        rng = np.random.default_rng(1)
        coeffs = rng.exponential(size=(stacked.shape[1], 1000))
        wrenches = (stacked @ coeffs).T
        margins = np.min(wrenches @ wcm.rows.T, axis=1)
        norms = np.linalg.norm(wrenches, axis=1)
        assert np.all(margins >= -1e-7 * norms)

    def test_zmp_recovery_coarse(self, flat_foot_scene):
        # Vertical force through a point is supportable exactly when the
        # point is inside the foot rectangle.
        scene = flat_foot_scene
        cls = classify(scene.config, scene.com)
        wcm = build_wcm(scene.config, scene.com, cls.witness)
        mg = scene.body.mass * 9.81
        for x in np.linspace(-0.18, 0.18, 13):
            for y in np.linspace(-0.12, 0.12, 11):
                point = np.array([x, y, 0.0])
                force = np.array([0.0, 0.0, mg])
                moment = np.cross(point - scene.com, force)
                inside = abs(x) <= 0.1 - 1e-6 and abs(y) <= 0.05 - 1e-6
                on_edge = (
                    abs(abs(x) - 0.1) <= 1e-6 or abs(abs(y) - 0.05) <= 1e-6
                )
                if on_edge:
                    continue
                assert (
                    wrench_feasible(wcm, Wrench(force, moment, scene.com))
                    == inside
                )

    def test_rows_are_unit_norm(self, flat_foot_scene):
        scene = flat_foot_scene
        cls = classify(scene.config, scene.com)
        wcm = build_wcm(scene.config, scene.com, cls.witness)
        assert np.allclose(np.linalg.norm(wcm.rows, axis=1), 1.0, atol=1e-12)


class TestShift:
    @pytest.fixture
    def built(self, flat_foot_scene):
        scene = flat_foot_scene
        cls = classify(scene.config, scene.com)
        return scene, cls, build_wcm(scene.config, scene.com, cls.witness)

    def test_zero_shift_is_identity(self, built):
        _, _, wcm = built
        shifted = shift_wcm(wcm, [0.0, 0.0, 0.0])
        assert np.allclose(shifted.rows, wcm.rows, atol=1e-15)
        assert np.allclose(shifted.anchor, wcm.anchor)

    def test_round_trip_verdicts(self, built):
        scene, cls, wcm = built
        delta = np.array([0.05, -0.02, 0.1])
        back = shift_wcm(shift_wcm(wcm, delta), -delta)
        rng = np.random.default_rng(2)
        stacked = cls.generating.stacked()
        for k in range(300):
            w6 = (
                stacked @ rng.exponential(size=stacked.shape[1])
                if k % 2 == 0
                else rng.normal(size=6) * 200
            )
            wrench = Wrench(w6[:3], w6[3:], wcm.anchor)
            if abs(wrench_margin(wcm, wrench)) <= 1e-7 * (1 + np.linalg.norm(w6)):
                continue
            assert wrench_feasible(back, wrench) == wrench_feasible(wcm, wrench)

    def test_shift_matches_rebuild(self, built):
        scene, cls, wcm = built
        rng = np.random.default_rng(3)
        delta = np.array([0.05, -0.02, 0.1])
        shifted = shift_wcm(wcm, delta)
        com_b = scene.com + delta
        rebuilt = build_wcm(scene.config, com_b, cls.witness)
        gen_b = build_generating_matrices(scene.config, com_b)
        stacked = gen_b.stacked()
        disagreements = 0
        for k in range(1000):
            w6 = (
                stacked @ rng.exponential(size=stacked.shape[1])
                if k % 2 == 0
                else rng.normal(size=6) * 300
            )
            wrench = Wrench(w6[:3], w6[3:], com_b)
            a = wrench_feasible(shifted, wrench)
            b = wrench_feasible(rebuilt, wrench)
            if a != b:
                band = 1e-7 * (1 + np.linalg.norm(w6))
                near = min(
                    abs(wrench_margin(shifted, wrench)),
                    abs(wrench_margin(rebuilt, wrench)),
                )
                if near > band:
                    disagreements += 1
        assert disagreements == 0

    @pytest.mark.parametrize(
        "delta", [[np.nan, 0, 0], [0, 0, np.inf], [0.1, 0.2], [[0, 0, 0]], [0, 2e150, 0]]
    )
    def test_bad_delta_rejected(self, built, delta):
        _, _, wcm = built
        # A finite 3-vector fails only by a component beyond MAX_SHIFT.
        finite = np.shape(delta) == (3,) and np.isfinite(delta).all()
        with pytest.raises(ValueError, match="exceeds 1e\\+150" if finite else "delta"):
            shift_wcm(wcm, delta)

    def test_shifted_rows_unit_and_read_only(self, built):
        _, _, wcm = built
        shifted = shift_wcm(wcm, [0.3, -0.2, 0.1])
        assert np.allclose(np.linalg.norm(shifted.rows, axis=1), 1.0, atol=1e-14)
        with pytest.raises(ValueError):
            shifted.rows[0, 0] = 1.0

    def test_anchor_bookkeeping(self, built):
        _, _, wcm = built
        delta = np.array([0.1, 0.2, -0.3])
        shifted = shift_wcm(wcm, delta)
        assert np.allclose(shifted.anchor, wcm.anchor + delta)


class TestQueries:
    def test_zero_wrench_always_feasible(self, flat_foot_scene):
        scene = flat_foot_scene
        cls = classify(scene.config, scene.com)
        wcm = build_wcm(scene.config, scene.com, cls.witness)
        assert wrench_feasible(wcm, Wrench([0, 0, 0], [0, 0, 0], scene.com))

    def test_anchor_mismatch_raises(self, flat_foot_scene):
        scene = flat_foot_scene
        cls = classify(scene.config, scene.com)
        wcm = build_wcm(scene.config, scene.com, cls.witness)
        with pytest.raises(AnchorMismatch):
            wrench_feasible(wcm, Wrench([0, 0, 1], [0, 0, 0], scene.com + 0.1))

    def test_nan_anchor_is_a_mismatch(self, flat_foot_scene):
        # NaN in a component other than the first: a max over abs() or a
        # ``> tol`` test would let it through to a silent verdict.
        scene = flat_foot_scene
        cls = classify(scene.config, scene.com)
        wcm = build_wcm(scene.config, scene.com, cls.witness)
        anchor = scene.com.copy()
        anchor[1] = np.nan
        broken = WrenchConstraintMatrix(wcm.rows, anchor)
        with pytest.raises(AnchorMismatch):
            wrench_feasible(broken, Wrench([0, 0, 1], [0, 0, 0], scene.com))

    def test_positive_row_scaling_changes_no_verdict(self, flat_foot_scene):
        scene = flat_foot_scene
        cls = classify(scene.config, scene.com)
        wcm = build_wcm(scene.config, scene.com, cls.witness)
        rng = np.random.default_rng(4)
        scales = rng.uniform(0.1, 10.0, size=(wcm.n_rows, 1))
        rescaled_rows = wcm.rows * scales
        renormalized = rescaled_rows / np.linalg.norm(
            rescaled_rows, axis=1, keepdims=True
        )
        assert np.allclose(renormalized, wcm.rows, atol=1e-14)

    def test_upward_acceleration_between_walls(self, two_walls_scene):
        scene = two_walls_scene
        cls = classify(scene.config, scene.com)
        assert not cls.constrained
        ok = acceleration_feasible(
            cls, None, scene.body, MotionQuery([0.0, 0.0, 5.0]), scene.com
        )
        assert ok

    def test_unconstrained_with_pinned_moment_uses_oracle(self, two_walls_scene):
        scene = two_walls_scene
        cls = classify(scene.config, scene.com)
        query = MotionQuery([0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        result = acceleration_feasible(cls, None, scene.body, query, scene.com)
        assert result in (True, False)  # resolved by the oracle, not assumed

    def test_unconstrained_nan_com_is_a_mismatch(self, two_walls_scene):
        scene = two_walls_scene
        cls = classify(scene.config, scene.com)
        com = scene.com.copy()
        com[2] = np.nan
        query = MotionQuery([0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        with pytest.raises(AnchorMismatch):
            acceleration_feasible(cls, None, scene.body, query, com)

    def test_free_fall_and_double_gravity(self, flat_foot_scene):
        scene = flat_foot_scene
        cls = classify(scene.config, scene.com)
        wcm = build_wcm(scene.config, scene.com, cls.witness)
        g = scene.body.gravity
        assert acceleration_feasible(
            cls, wcm, scene.body, MotionQuery(g, [0, 0, 0]), scene.com
        )
        assert not acceleration_feasible(
            cls, wcm, scene.body, MotionQuery(2 * g, [0, 0, 0]), scene.com
        )

    def test_verdict_carries_the_margin(self, flat_foot_scene, two_walls_scene):
        query = MotionQuery([0.5, -0.2, 1.0], [0.0, 0.0, 0.0])
        scene = flat_foot_scene
        cls = classify(scene.config, scene.com)
        wcm = build_wcm(scene.config, scene.com, cls.witness)
        wrench = required_wrench(scene.body, query, scene.com)
        feasible, margin = acceleration_verdict(cls, wcm, scene.body, query, scene.com)
        assert ([feasible], [margin]) == trajectory_verdicts(
            cls, wcm, scene.body, [scene.com], [query.com_accel], [query.angular_momentum_rate]
        )
        assert feasible == wrench_feasible(wcm, wrench)
        # The one-sample path divides by the row norms, 1 +/- 1 ulp at the anchor.
        assert margin == pytest.approx(wrench_margin(wcm, wrench), rel=1e-15)
        scene = two_walls_scene
        cls = classify(scene.config, scene.com)
        feasible, margin = acceleration_verdict(cls, None, scene.body, query, scene.com)
        assert margin is None
        assert feasible == acceleration_feasible(cls, None, scene.body, query, scene.com)

    def test_constrained_requires_wcm(self, flat_foot_scene):
        scene = flat_foot_scene
        cls = classify(scene.config, scene.com)
        with pytest.raises(ValueError):
            acceleration_feasible(
                cls, None, scene.body, MotionQuery([0, 0, 0]), scene.com
            )

    def test_free_moment_query_off_the_anchor_is_a_mismatch(self, two_walls_scene):
        # Unconstrained and leaving the moment free needs no solve, yet the
        # query must still be made at the generators' anchor.
        scene = two_walls_scene
        cls = classify(scene.config, scene.com)
        assert not cls.constrained
        query = MotionQuery([0.0, 0.0, 1.0])
        assert acceleration_verdict(cls, None, scene.body, query, scene.com) == (True, None)
        with pytest.raises(AnchorMismatch):
            acceleration_verdict(cls, None, scene.body, query, scene.com + [0.0, 0.1, 0.0])


CONSTRAINED_SCENES = ["flat_foot"] + [f"traverse_phase{k}" for k in range(1, 7)]

# Two opposed contacts pinching the CoM height: unconstrained, yet a pinned
# moment about x is out of reach at the contacts' height.
PINCH = {
    "mass": 60.0,
    "gravity": [0.0, 0.0, -9.81],
    "com": [0.0, 0.0, 0.6],
    "contacts": [
        {"point": [-0.3, 0.0, 0.6], "normal": [1, 0, 0], "mu": 0.8, "sides": 4},
        {"point": [0.3, 0.0, 0.6], "normal": [-1, 0, 0], "mu": 0.8, "sides": 4},
    ],
}


def seeded_path(rng, com, n, reach=0.3, free_every=3):
    """``n`` CoM samples within ``reach`` of ``com``, with random
    accelerations and angular momentum rates (every ``free_every``-th left
    free)."""
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    coms = com + direction * rng.uniform(0.0, reach, size=(n, 1))
    accels = rng.normal(size=(n, 3)) * 3.0
    l_dots = [None if t % free_every == 0 else rng.normal(size=3) * 3.0 for t in range(n)]
    return coms, accels, l_dots


def reference_transfer(delta):
    """The 6x6 map of a wrench about A + delta to the same wrench about A:
    the identity with skew(delta) in its lower-left block."""
    dx, dy, dz = delta
    transfer = np.eye(6)
    transfer[3:, :3] = [[0.0, -dz, dy], [dz, 0.0, -dx], [-dy, dx, 0.0]]
    return transfer


# Each scene's W as built (C order, id the scene's name) and as an F-ordered
# copy, which the constructor keeps in F order.
@pytest.mark.parametrize(
    "name,layout",
    [pytest.param(n, "C", id=n) for n in CONSTRAINED_SCENES]
    + [pytest.param(n, "F", id=f"{n}-F") for n in CONSTRAINED_SCENES],
)
def test_per_sample_path_matches_reference_bit_for_bit(name, layout):
    # required_wrench, shift_wcm and wrench_margin/wrench_feasible against
    # the array expressions they stand for, byte for byte, on seeded samples.
    scene = load_scene(bundled_path(name))
    cls = classify(scene.config, scene.com)
    wcm = build_wcm(scene.config, scene.com, cls.witness)
    wcm = WrenchConstraintMatrix(np.array(wcm.rows, order=layout), wcm.anchor)
    assert wcm.rows.flags[f"{layout}_CONTIGUOUS"]
    body = scene.body
    rng = np.random.default_rng(CONSTRAINED_SCENES.index(name) + 20)
    for _ in range(40):
        delta = rng.uniform(-0.3, 0.3, size=3)
        accel, l_dot = rng.normal(size=(2, 3)) * 3.0
        com = wcm.anchor + delta
        shifted = shift_wcm(wcm, delta)
        wrench = required_wrench(body, MotionQuery(accel, l_dot), com)

        rows = wcm.rows @ reference_transfer(delta)
        rows = rows / np.sqrt((rows * rows) @ np.ones(6))[:, None]
        force = body.mass * (accel - body.gravity)
        w6 = np.concatenate([force, l_dot])
        margin = (rows @ w6).min()
        assert shifted.rows.tobytes() == rows.tobytes()
        assert shifted.anchor.tobytes() == (wcm.anchor + delta).tobytes()
        assert wrench.force.tobytes() == force.tobytes()
        assert wrench_margin(shifted, wrench).hex() == float(margin).hex()
        expected = margin >= -wcm_module.MEMBERSHIP_EPS * (1.0 + np.linalg.norm(w6))
        assert wrench_feasible(shifted, wrench) == expected


def test_constructor_copies_and_freezes_its_arrays(flat_foot_scene):
    # The caller's arrays stay writable and later writes to them move
    # nothing the anchor guard trusts; no value is validated, so a NaN
    # anchor still makes a matrix (test_nan_anchor_is_a_mismatch).
    scene = flat_foot_scene
    cls = classify(scene.config, scene.com)
    built = build_wcm(scene.config, scene.com, cls.witness)
    rows, anchor = built.rows.copy(), scene.com.copy()
    wcm = WrenchConstraintMatrix(rows, anchor)
    assert rows.flags.writeable and anchor.flags.writeable
    assert not wcm.rows.flags.writeable and not wcm.anchor.flags.writeable
    rows[0] = 5.0
    anchor[0] = 5.0
    assert np.array_equal(wcm.rows, built.rows)
    assert np.array_equal(wcm.anchor, scene.com)
    assert wrench_feasible(wcm, Wrench([0, 0, 1], [0, 0, 0], scene.com))
    with pytest.raises(AnchorMismatch):
        wrench_feasible(wcm, Wrench([0, 0, 1], [0, 0, 0], anchor))
    for made in (built, shift_wcm(built, [0.1, 0.0, -0.1])):
        assert not made.rows.flags.writeable and not made.anchor.flags.writeable


class TestTrajectoryVerdicts:
    @pytest.mark.parametrize("name", CONSTRAINED_SCENES)
    def test_matches_shift_then_query(self, name):
        # One batched call against shift_wcm + wrench_margin/wrench_feasible
        # per sample, on seeded paths with |delta| <= 0.3 m.
        scene = load_scene(bundled_path(name))
        cls = classify(scene.config, scene.com)
        wcm = build_wcm(scene.config, scene.com, cls.witness)
        rng = np.random.default_rng(CONSTRAINED_SCENES.index(name))
        coms, accels, l_dots = seeded_path(rng, scene.com, 60)
        verdicts, margins = trajectory_verdicts(cls, wcm, scene.body, coms, accels, l_dots)
        outside = 0
        for com, accel, l_dot, feasible, margin in zip(coms, accels, l_dots, verdicts, margins):
            shifted = shift_wcm(wcm, com - wcm.anchor)
            wrench = required_wrench(scene.body, MotionQuery(accel, l_dot), com)
            expected = wrench_margin(shifted, wrench)
            scale = 1.0 + np.linalg.norm(wrench.as_array())
            assert abs(margin - expected) <= 1e-12 * scale
            if abs(expected) > 1e-7 * scale:
                outside += 1
                assert feasible == wrench_feasible(shifted, wrench)
        assert outside >= 50
        assert {True, False} <= set(verdicts) or name == "flat_foot"

    @pytest.mark.parametrize("raw", ["two_walls", PINCH], ids=["two_walls", "pinch"])
    def test_unconstrained_phase_anchor_matches_sample_anchor(self, raw):
        # Phase-anchored membership solves against generators built at each
        # sample's CoM.
        if isinstance(raw, str):
            scene = load_scene(bundled_path(raw))
        else:
            scene = scene_from_dict(raw)
        cls = classify(scene.config, scene.com)
        assert not cls.constrained
        rng = np.random.default_rng(11)
        coms, accels, l_dots = seeded_path(rng, scene.com, 30, reach=0.1)
        verdicts, margins = trajectory_verdicts(cls, None, scene.body, coms, accels, l_dots)
        expected = []
        for com, accel, l_dot in zip(coms, accels, l_dots):
            if l_dot is None:
                expected.append(True)
                continue
            gen = build_generating_matrices(scene.config, com)
            wrench = required_wrench(scene.body, MotionQuery(accel, l_dot), com)
            expected.append(wrench_membership_lp(gen, wrench).feasible)
        assert verdicts == expected
        assert margins == [None] * len(coms)
        # two_walls admits every wrench; the pinch rejects some moments.
        assert set(expected) == ({True} if raw == "two_walls" else {True, False})

    def test_one_sample_matches_acceleration_verdict(self, flat_foot_scene, two_walls_scene):
        query = MotionQuery([0.5, -0.2, 1.0], [0.1, 0.0, -0.2])
        for scene in (flat_foot_scene, two_walls_scene):
            cls = classify(scene.config, scene.com)
            wcm = build_wcm(scene.config, scene.com, cls.witness) if cls.constrained else None
            single = acceleration_verdict(cls, wcm, scene.body, query, scene.com)
            (feasible,), (margin,) = trajectory_verdicts(
                cls, wcm, scene.body, [scene.com], [query.com_accel], [query.angular_momentum_rate]
            )
            assert (feasible, margin) == single

    def test_free_moments_need_no_solve(self, two_walls_scene, monkeypatch):
        scene = two_walls_scene
        cls = classify(scene.config, scene.com)
        monkeypatch.setattr(wcm_module, "wrench_membership_lp", None)
        coms = [scene.com, scene.com + 0.1]
        assert trajectory_verdicts(cls, None, scene.body, coms, [[0, 0, 5]] * 2, [None] * 2) == (
            [True, True],
            [None, None],
        )

    def test_empty_path(self, flat_foot_scene):
        scene = flat_foot_scene
        cls = classify(scene.config, scene.com)
        wcm = build_wcm(scene.config, scene.com, cls.witness)
        assert trajectory_verdicts(cls, wcm, scene.body, [], [], []) == ([], [])

    def test_constrained_requires_wcm(self, flat_foot_scene):
        scene = flat_foot_scene
        cls = classify(scene.config, scene.com)
        with pytest.raises(ValueError, match="constraint matrix is required"):
            trajectory_verdicts(cls, None, scene.body, [scene.com], [[0, 0, 0]], [None])

    @pytest.mark.parametrize("far", [1e200, np.nan])
    def test_unusable_com_is_rejected(self, flat_foot_scene, two_walls_scene, far):
        for scene in (flat_foot_scene, two_walls_scene):
            cls = classify(scene.config, scene.com)
            wcm = build_wcm(scene.config, scene.com, cls.witness) if cls.constrained else None
            com = scene.com.copy()
            com[1] = far
            with pytest.raises(ValueError, match="shift component"):
                trajectory_verdicts(cls, wcm, scene.body, [scene.com, com], [[0, 0, 0]] * 2, [[0, 0, 0]] * 2)
        # A free-moment sample on an unconstrained set is not mapped, yet its
        # CoM and force must still be finite; a finite far CoM stays feasible.
        scene = two_walls_scene
        cls = classify(scene.config, scene.com)
        com = scene.com.copy()
        com[1] = far
        if np.isnan(far):
            with pytest.raises(ValueError, match="shift component is not finite"):
                trajectory_verdicts(cls, None, scene.body, [com], [[0, 0, 0]], [None])
        else:
            assert trajectory_verdicts(cls, None, scene.body, [com], [[0, 0, 0]], [None]) == ([True], [None])
        for accel in ([np.nan, 0, 0], [0, 0, np.inf]):
            with pytest.raises(ValueError, match="force must have finite components"):
                trajectory_verdicts(cls, None, scene.body, [scene.com], [accel], [None])

    def test_overflowing_wrench_is_rejected(self, two_walls_scene):
        scene = two_walls_scene
        cls = classify(scene.config, scene.com)
        com = scene.com + [1e10, 0.0, 0.0]
        with pytest.raises(ValueError, match="about the anchor is not finite"):
            trajectory_verdicts(cls, None, scene.body, [com], [[0, 1e300, 0]], [[0, 0, 0]])


def test_wrench_verdicts_match_one_at_a_time(flat_foot_scene):
    scene = flat_foot_scene
    cls = classify(scene.config, scene.com)
    wcm = build_wcm(scene.config, scene.com, cls.witness)
    rng = np.random.default_rng(8)
    stacked = cls.generating.stacked()
    wrenches = np.vstack(
        [(stacked @ rng.exponential(size=(stacked.shape[1], 20))).T, rng.normal(size=(20, 6)) * 300]
    )
    feasible, margins = wrench_verdicts(wcm, wrenches, scene.com)
    for w6, ok, margin in zip(wrenches, feasible, margins):
        wrench = Wrench(w6[:3], w6[3:], scene.com)
        assert margin == pytest.approx(wrench_margin(wcm, wrench), rel=1e-12, abs=1e-12)
        assert ok == wrench_feasible(wcm, wrench)
    assert set(feasible.tolist()) == {True, False}
    with pytest.raises(AnchorMismatch):
        wrench_verdicts(wcm, wrenches, scene.com + 0.1)
    for bad in (np.ones((4, 3)), np.ones(6), np.ones((2, 6, 1))):
        with pytest.raises(ValueError, match=re.escape(f"(T, 6) array, got shape {bad.shape}")):
            wrench_verdicts(wcm, bad, scene.com)


class TestConcurrentUse:
    def test_shared_objects_under_thread_pool(self, flat_foot_scene):
        # All types are immutable and operations pure: concurrent classify,
        # build and query calls must agree with the serial results exactly.
        # Membership solves on one shared GeneratingMatrices start together,
        # so its lazily prepared problems are first used concurrently.
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor

        scene = flat_foot_scene
        cls = classify(scene.config, scene.com)
        wcm = build_wcm(scene.config, scene.com, cls.witness)
        shared_gen = build_generating_matrices(scene.config, scene.com)
        rng = np.random.default_rng(0)
        wrenches = [
            Wrench(w6[:3], w6[3:], scene.com)
            for w6 in rng.normal(size=(64, 6)) * 150.0
        ]
        serial = [
            (
                wrench_feasible(wcm, w),
                wrench_membership_lp(cls.generating, w),
                force_membership_lp(cls.generating, w.force),
            )
            for w in wrenches
        ]
        start = threading.Barrier(8)

        def job(i):
            if i < 8:
                start.wait(timeout=30)
            wrench = wrenches[i]
            local = classify(scene.config, scene.com)
            rebuilt = build_wcm(scene.config, scene.com, local.witness)
            return (
                wrench_feasible(wcm, wrench),
                wrench_feasible(rebuilt, wrench),
                local.s_star,
                wrench_membership_lp(shared_gen, wrench),
                force_membership_lp(shared_gen, wrench.force),
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(job, range(len(wrenches)), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for expected, got in zip(serial, results):
            verdict, wrench_member, force_member = expected
            shared, rebuilt_verdict, s_star, wrench_got, force_got = got
            assert shared == verdict
            assert rebuilt_verdict == verdict
            assert s_star == cls.s_star
            for want, have in ((wrench_member, wrench_got), (force_member, force_got)):
                assert have.feasible == want.feasible
                assert (have.coefficients is None) == (want.coefficients is None)
                if want.coefficients is not None:
                    assert np.array_equal(have.coefficients, want.coefficients)
        stacked = shared_gen.stacked_prepared()
        assert np.array_equal(stacked.gram, cls.generating.stacked_prepared().gram)


class TestFrameEquivariance:
    @pytest.mark.parametrize("seed", range(5))
    def test_rotated_scene_rotated_wrench(self, seed):
        rng = np.random.default_rng(seed)
        config = flat_foot_config()
        com = np.array([0.01, -0.02, 0.6])
        cls = classify(config, com)
        wcm = build_wcm(config, com, cls.witness)

        q = random_rotation(rng)
        rotated = rotate_config(config, q)
        cls_r = classify(rotated, q @ com)
        assert cls_r.constrained == cls.constrained
        wcm_r = build_wcm(rotated, q @ com, cls_r.witness)

        stacked = cls.generating.stacked()
        for k in range(200):
            w6 = (
                stacked @ rng.exponential(size=stacked.shape[1])
                if k % 2 == 0
                else rng.normal(size=6) * 100
            )
            wrench = Wrench(w6[:3], w6[3:], com)
            band = 1e-7 * (1 + np.linalg.norm(w6))
            if abs(wrench_margin(wcm, wrench)) <= band:
                continue
            rotated_wrench = Wrench(q @ w6[:3], q @ w6[3:], q @ com)
            if abs(wrench_margin(wcm_r, rotated_wrench)) <= band:
                continue
            assert wrench_feasible(wcm, wrench) == wrench_feasible(
                wcm_r, rotated_wrench
            )


def _build_with_hull_counts(config, com, witness, monkeypatch):
    """``build_wcm`` plus its hull's facet and equality counts, read off the
    ``wcm.convex_hull`` call."""
    seen = []
    hull = wcm_module.convex_hull
    monkeypatch.setattr(wcm_module, "convex_hull", lambda p: seen.append(hull(p)) or seen[-1])
    matrix = build_wcm(config, com, witness)
    monkeypatch.setattr(wcm_module, "convex_hull", hull)
    (result,) = seen
    return matrix, len(result.facets), len(result.equalities)


def _span_projector(rows):
    if len(rows) == 0:
        return np.zeros((6, 6))
    _, s, vt = np.linalg.svd(rows)
    basis = vt[: int(np.sum(s > 1e-9 * s[0]))]
    return basis.T @ basis


_SPIN_CASES = [(name, None) for name in CONSTRAINED_SCENES] + [
    ("single_contact", single_contact_config),
    ("line_foot", line_foot_config),
]


@pytest.mark.parametrize("name, make", _SPIN_CASES, ids=[c[0] for c in _SPIN_CASES])
def test_w_does_not_depend_on_witness_frame_spin(name, make, monkeypatch):
    # The witness frame is fixed only up to a turn about the witness; any
    # such turn must give the same W: the same facet rows as a set, the same
    # equality span, and the same verdicts away from the band.
    if make is None:
        scene = load_scene(bundled_path(name))
        config, com = scene.config, scene.com
    else:
        config, com = make(), np.array([0.01, -0.02, 0.6])
    cls = classify(config, com)
    assert cls.constrained
    base, k, m = _build_with_hull_counts(config, com, cls.witness, monkeypatch)
    rng = np.random.default_rng(8)
    stacked = cls.generating.stacked()
    wrenches = np.vstack(
        [(stacked @ rng.exponential(size=(stacked.shape[1], 100))).T, rng.normal(size=(100, 6)) * 300]
    )
    base_feasible, base_margins = wrench_verdicts(base, wrenches, com)
    original = wcm_module.rotation_aligning_z
    for theta in (0.4, 1.9, -2.7):
        c, s = np.cos(theta), np.sin(theta)
        spin = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        monkeypatch.setattr(wcm_module, "rotation_aligning_z", lambda v: spin @ original(v))
        spun, k_spun, m_spun = _build_with_hull_counts(config, com, cls.witness, monkeypatch)
        assert (spun.n_rows, k_spun, m_spun) == (base.n_rows, k, m)
        # Facet rows and the normal-force row, as sets.
        ours = np.vstack([base.rows[:k], base.rows[-1:]])
        theirs = np.vstack([spun.rows[:k], spun.rows[-1:]])
        distance = np.linalg.norm(ours[:, None, :] - theirs[None, :, :], axis=2)
        assert distance.min(axis=1).max() <= 1e-12
        assert distance.min(axis=0).max() <= 1e-12
        equalities = slice(k, k + 2 * m)
        assert np.allclose(
            _span_projector(spun.rows[equalities]), _span_projector(base.rows[equalities]), atol=1e-12
        )
        feasible, margins = wrench_verdicts(spun, wrenches, com)
        band = 1e-7 * (1.0 + np.linalg.norm(wrenches, axis=1))
        clear = (np.abs(margins) > band) & (np.abs(base_margins) > band)
        assert clear.sum() >= 100
        assert np.array_equal(feasible[clear], base_feasible[clear])


# Known faults, pinned as strict xfails: each asserts the correct answer, so
# the fix that mends the fault turns its test into a pass.


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: a constrained query with no l_dot is checked at zero moment",
)
def test_unpinned_moment_admits_any_moment(flat_foot_scene):
    # `wrenchfeas check flat_foot --accel 3,0,0`: MotionQuery leaves the
    # moment free and the contacts can make the force m (a - g), yet the
    # constrained path fills the moment with zeros and reads margin -66.28.
    scene = flat_foot_scene
    cls = classify(scene.config, scene.com)
    wcm = build_wcm(scene.config, scene.com, cls.witness)
    query = MotionQuery([3.0, 0.0, 0.0])
    force = scene.body.mass * (query.com_accel - scene.body.gravity)
    assert force_membership_lp(cls.generating, force).feasible
    feasible, _ = acceleration_verdict(cls, wcm, scene.body, query, scene.com)
    assert feasible


def _frictionless(point, rotation):
    return Contact(point, rotation, FrictionCone(0.0, 4))


def _frictionless_ring(n):
    """``n`` frictionless contacts on a ring at one height with inward
    horizontal normals: no upward force is reachable."""
    return ContactConfiguration(
        tuple(
            _frictionless(
                [0.3 * np.cos(a), 0.3 * np.sin(a), 0.5],
                rotation_from_normal([-np.cos(a), -np.sin(a), 0.0]),
            )
            for a in 2.0 * np.pi * np.arange(n) / n
        )
    )


OPPOSED_VERTICAL = ContactConfiguration(
    (
        _frictionless([0.0, 0.0, 0.0], np.eye(3)),
        _frictionless([0.05, 0.0, 1.2], np.diag([1.0, -1.0, -1.0])),
    )
)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: a frictionless set whose force cone is not R^3 "
    "classifies as unconstrained",
)
@pytest.mark.parametrize(
    "config, com, accel",
    [
        (OPPOSED_VERTICAL, [0.0, 0.0, 0.6], [1.0, 0.0, 0.0]),
        (_frictionless_ring(3), [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]),
        (_frictionless_ring(4), [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]),
    ],
    ids=["opposed_vertical", "ring_of_3", "ring_of_4"],
)
def test_frictionless_set_rejects_a_force_it_cannot_make(config, com, accel):
    # Two vertical contacts cannot push along x, and a horizontal ring cannot
    # hold up the body's 588.6 N; the unconstrained path admits any force.
    body = RigidBodyParams(60.0, [0.0, 0.0, -9.81])
    com = np.array(com)
    cls = classify(config, com)
    query = MotionQuery(accel)
    force = body.mass * (query.com_accel - body.gravity)
    assert not force_membership_lp(cls.generating, force).feasible
    wcm = build_wcm(config, com, cls.witness) if cls.constrained else None
    feasible, _ = acceleration_verdict(cls, wcm, body, query, com)
    assert not feasible
