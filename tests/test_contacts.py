"""Contact model: pyramid generators, generating matrices, kinematic helpers."""

import warnings
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrenchfeas import (
    Contact,
    ContactConfiguration,
    FrictionCone,
    MotionQuery,
    RigidBodyParams,
    Wrench,
    build_generating_matrices,
    cone_generators,
    required_wrench,
    rotation_aligning_z,
)
from wrenchfeas.contacts import ORTHONORMAL_TOL, skew
from wrenchfeas.errors import ZeroVector
from wrenchfeas.scenes import rotation_from_normal

from conftest import flat_foot_config, random_config

HALF_SQRT2 = np.sqrt(2.0) / 2.0


class TestConeGenerators:
    def test_first_column_mu08_m4(self):
        u = cone_generators(FrictionCone(0.8, 4))
        assert u[:, 0] == pytest.approx([0.8 * HALF_SQRT2, 0.8 * HALF_SQRT2, 1.0])

    def test_frictionless_degenerates_to_normal_ray(self):
        u = cone_generators(FrictionCone(0.0, 4))
        assert np.allclose(u, np.array([[0.0], [0.0], [1.0]]) @ np.ones((1, 4)))

    def test_four_sign_combinations(self):
        u = cone_generators(FrictionCone(0.8, 4))
        tangentials = {tuple(np.sign(np.round(col[:2], 12))) for col in u.T}
        assert tangentials == {(1, 1), (-1, 1), (-1, -1), (1, -1)}

    def test_normal_component_is_exactly_one(self):
        for sides in (3, 4, 7, 16):
            u = cone_generators(FrictionCone(0.5, sides))
            assert np.all(u[2] == 1.0)

    @pytest.mark.parametrize("sides", [3, 4, 7])
    def test_closed_under_own_rotation_symmetry(self, sides):
        # Rotating the edge set by one sector permutes it cyclically.
        u = cone_generators(FrictionCone(0.8, sides))
        angle = 2.0 * np.pi / sides
        rot_z = np.array(
            [
                [np.cos(angle), -np.sin(angle), 0.0],
                [np.sin(angle), np.cos(angle), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        assert np.allclose(rot_z @ u, np.roll(u, -1, axis=1), atol=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FrictionCone(-0.1, 4)
        with pytest.raises(ValueError):
            FrictionCone(0.8, 2)


class TestSkew:
    def test_zero_vector(self):
        assert np.array_equal(skew([0.0, 0.0, 0.0]), np.zeros((3, 3)))

    def test_unit_cross_product(self):
        assert np.allclose(skew([1, 0, 0]) @ [0, 1, 0], [0, 0, 1])

    def test_matches_cross_product(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r, x = rng.normal(size=3), rng.normal(size=3)
            assert np.allclose(skew(r) @ x, np.cross(r, x), atol=1e-14)

    def test_antisymmetric(self):
        s = skew([1.2, -0.7, 3.4])
        assert np.array_equal(s, -s.T)


class TestGeneratingMatrices:
    def test_four_contacts_m4_is_3x16(self):
        gen = build_generating_matrices(flat_foot_config(), [0, 0, 0.8])
        assert gen.force_generators.shape == (3, 16)
        assert gen.moment_generators.shape == (3, 16)

    def test_twelve_contacts_m4_is_3x48(self):
        rng = np.random.default_rng(0)
        config = random_config(rng, n_contacts=12)
        gen = build_generating_matrices(config, [0, 0, 0])
        assert gen.force_generators.shape == (3, 48)

    def test_contact_at_anchor_has_zero_moment_block(self):
        config = ContactConfiguration(
            (Contact([0, 0, 0.5], np.eye(3), FrictionCone(0.8, 4)),)
        )
        gen = build_generating_matrices(config, [0, 0, 0.5])
        assert np.allclose(gen.moment_generators, 0.0)
        assert np.allclose(
            gen.force_generators, cone_generators(FrictionCone(0.8, 4))
        )

    def test_column_blocks_match_per_contact_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            config = random_config(rng)
            com = rng.uniform(-0.3, 0.3, size=3)
            gen = build_generating_matrices(config, com)
            ref_force, ref_moment = reference_generators(config, com)
            assert np.allclose(gen.force_generators, ref_force, atol=1e-12)
            assert np.allclose(gen.moment_generators, ref_moment, atol=1e-12)

    def test_heterogeneous_side_counts(self):
        contacts = (
            Contact([0, 0, 0], np.eye(3), FrictionCone(0.8, 3)),
            Contact([0.1, 0, 0], rotation_from_normal([0.2, -0.1, 1.0]), FrictionCone(0.5, 5)),
        )
        gen = build_generating_matrices(ContactConfiguration(contacts), [0, 0, 0])
        assert gen.n_columns == 8
        blocks = np.split(gen.force_generators, [3], axis=1)
        for block, contact in zip(blocks, contacts):
            expected = contact.rotation @ cone_generators(contact.cone)
            assert np.allclose(block, expected, atol=1e-15)

    def test_stacked_is_one_read_only_matrix(self):
        gen = build_generating_matrices(flat_foot_config(), [0, 0, 0.8])
        stacked = gen.stacked()
        assert stacked is gen.stacked()
        assert np.array_equal(stacked[:3], gen.force_generators)
        assert np.array_equal(stacked[3:], gen.moment_generators)
        with pytest.raises(ValueError):
            stacked[0, 0] = 1.0

    def test_prepared_problems_cached_outside_equality_and_repr(self):
        gen = build_generating_matrices(flat_foot_config(), [0, 0, 0.8])
        before = repr(gen)
        stacked, force = gen.stacked_prepared(), gen.force_prepared()
        assert gen.stacked_prepared() is stacked and gen.force_prepared() is force
        assert repr(gen) == before
        assert repr(build_generating_matrices(flat_foot_config(), [0, 0, 0.8])) == before
        assert "prepared" not in before
        compared = [f.name for f in fields(gen) if f.compare]
        assert compared == ["force_generators", "moment_generators", "anchor"]
        assert gen == gen
        assert stacked.scaled.shape == (6, 16) and force.scaled.shape == (3, 16)
        with pytest.raises(ValueError):
            stacked.gram[0, 0] = 1.0


def reference_generators(config, com):
    """Per-contact reference: ``rotation @ cone_generators`` for the forces
    and ``skew(point - com) @ edges`` for the moments, stacked in order."""
    forces, moments = [], []
    for contact in config.contacts:
        edges = contact.rotation @ cone_generators(contact.cone)
        forces.append(edges)
        moments.append(skew(contact.point - np.asarray(com, dtype=float)) @ edges)
    return np.hstack(forces), np.hstack(moments)


_coord = st.floats(-2.0, 2.0, allow_nan=False)
_contact = st.tuples(
    st.tuples(_coord, _coord, _coord),  # point
    st.tuples(_coord, _coord, _coord).filter(lambda n: np.linalg.norm(n) > 1e-3),
    st.floats(0.0, 2.0 * np.pi),  # spin of the pyramid about its normal
    st.one_of(st.just(0.0), st.floats(0.0, 1.5)),  # mu
    st.integers(3, 8),  # sides
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_contact, min_size=1, max_size=16), st.tuples(_coord, _coord, _coord))
def test_precomputed_generators_match_reference(drawn, com):
    items = []
    for point, normal, spin, mu, sides in drawn:
        c, s = np.cos(spin), np.sin(spin)
        rotation = rotation_from_normal(normal) @ np.array(
            [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
        )
        items.append(Contact(point, rotation, FrictionCone(mu, sides)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # drawn contacts may repeat
        config = ContactConfiguration(tuple(items))
    gen = build_generating_matrices(config, com)
    ref_force, ref_moment = reference_generators(config, com)
    scale = max(1.0, float(np.abs(ref_moment).max()))
    assert np.max(np.abs(gen.force_generators - ref_force)) <= 1e-13
    assert np.max(np.abs(gen.moment_generators - ref_moment)) <= 1e-13 * scale


class TestRequiredWrench:
    BODY = RigidBodyParams(10.0, [0.0, 0.0, -9.81])

    @pytest.mark.parametrize("com", [[0, np.nan, 1], [np.inf, 0, 1], [0, 1]])
    def test_bad_com_rejected(self, com):
        with pytest.raises(ValueError, match="com"):
            required_wrench(self.BODY, MotionQuery([0, 0, 0], [0, 0, 0]), com)

    def test_force_overflow_rejected(self):
        heavy = RigidBodyParams(1e300, [0.0, 0.0, -9.81])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="force"):
            required_wrench(heavy, MotionQuery([1e10, 0, 0], [0, 0, 0]), [0, 0, 1])

    def test_free_fall_needs_nothing(self):
        w = required_wrench(self.BODY, MotionQuery([0, 0, -9.81]), [0, 0, 1])
        assert np.allclose(w.force, 0.0)

    def test_static_support(self):
        w = required_wrench(
            self.BODY, MotionQuery([0, 0, 0], [0, 0, 0]), [0, 0, 1]
        )
        assert w.force == pytest.approx([0.0, 0.0, 98.1])
        assert np.allclose(w.moment, 0.0)

    def test_linear_combination(self):
        w = required_wrench(self.BODY, MotionQuery([1, 0, 0]), [0, 0, 1])
        assert w.force == pytest.approx([10.0, 0.0, 98.1])

    def test_moment_is_angular_momentum_rate(self):
        w = required_wrench(
            self.BODY, MotionQuery([0, 0, 0], [1.0, -2.0, 0.5]), [0, 0, 1]
        )
        assert np.allclose(w.moment, [1.0, -2.0, 0.5])
        assert np.allclose(w.about, [0, 0, 1])


class TestRotationAligningZ:
    def test_already_aligned_gives_identity(self):
        assert np.array_equal(rotation_aligning_z([0, 0, 5.0]), np.eye(3))

    def test_antipodal_is_half_turn_about_x(self):
        assert np.allclose(
            rotation_aligning_z([0, 0, -1.0]), np.diag([1.0, -1.0, -1.0])
        )

    @pytest.mark.parametrize(
        "v",
        [
            [1.0, 1.0, 1.0],
            [0.0, 1.0, 0.0],
            [-0.3, 0.2, -0.9],
            [1e-9, 0.0, -1.0],
            [2.0, -1.0, 1e-8],
        ],
    )
    def test_postconditions(self, v):
        r = rotation_aligning_z(v)
        vhat = np.asarray(v, float) / np.linalg.norm(v)
        assert np.allclose(r @ vhat, [0, 0, 1], atol=1e-12)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_random_directions(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.normal(size=3)
            if np.linalg.norm(v) < 1e-6:
                continue
            r = rotation_aligning_z(v)
            assert np.allclose(
                r @ (v / np.linalg.norm(v)), [0, 0, 1], atol=1e-12
            )

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            rotation_aligning_z([0.0, 0.0, 0.0])


class TestValidation:
    def test_rotation_must_be_orthonormal(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError):
            Contact([0, 0, 0], bad, FrictionCone(0.8, 4))

    def test_rotation_must_be_proper(self):
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Contact([0, 0, 0], reflection, FrictionCone(0.8, 4))

    def test_mass_must_be_positive(self):
        with pytest.raises(ValueError):
            RigidBodyParams(0.0, [0, 0, -9.81])

    def test_empty_configuration_rejected(self):
        with pytest.raises(ValueError):
            ContactConfiguration(())

    def test_duplicate_contact_warns(self):
        c = Contact([0, 0, 0], np.eye(3), FrictionCone(0.8, 4))
        with pytest.warns(UserWarning, match="duplicate contact"):
            ContactConfiguration((c, c))

    def test_nonfinite_wrench_rejected(self):
        with pytest.raises(ValueError):
            Wrench([np.nan, 0, 0], [0, 0, 0], [0, 0, 0])

    @pytest.mark.parametrize("field", range(3))
    @pytest.mark.parametrize(
        "bad", [[0, 0, np.nan], [0, -np.inf, 0], [0, 0], [[0, 0, 0]]]
    )
    def test_wrench_fields_checked(self, field, bad):
        args = [[0.0, 0.0, 0.0]] * 3
        args[field] = bad
        with pytest.raises(ValueError):
            Wrench(*args)

    def test_duplicate_contact_warning_names_each_later_index(self):
        a = Contact([0, 0, 0], np.eye(3), FrictionCone(0.8, 4))
        b = Contact([0, 0, 0], rotation_from_normal([0, 0.1, 1]), FrictionCone(0.8, 4))
        with pytest.warns(UserWarning) as record:
            ContactConfiguration((a, b, a, a))
        assert [str(w.message).split(":")[0] for w in record] == [
            "duplicate contact at index 2",
            "duplicate contact at index 3",
            "duplicate contact at index 3",
        ]

    def test_precomputed_geometry_not_in_equality_or_repr(self):
        contacts = flat_foot_config().contacts
        a, b = ContactConfiguration(contacts), ContactConfiguration(contacts)
        assert a == b  # comparing the arrays would raise instead
        assert "edges" not in repr(a) and "column_points" not in repr(a)
        assert a.edges.shape == a.column_points.shape == (3, 16)
        with pytest.raises(ValueError):
            a.edges[0, 0] = 1.0
        with pytest.raises(ValueError):
            a.column_points[0, 0] = 1.0
        with pytest.raises(FrozenInstanceError):
            a.edges = np.zeros((3, 16))

    def test_arrays_are_read_only(self):
        c = Contact([0, 0, 0], np.eye(3), FrictionCone(0.8, 4))
        with pytest.raises(ValueError):
            c.point[0] = 1.0
        with pytest.raises(ValueError):
            c.rotation[0, 0] = 2.0


def reference_rotation_error(rotation):
    """Contact's rotation checks in their numpy form (finite entries, the
    largest entry of |r^T r - I|, the sign of det): the message, or None."""
    r = np.array(rotation, dtype=float)
    if not np.all(np.isfinite(r)):
        return "rotation must have finite entries"
    with np.errstate(over="ignore", invalid="ignore"):
        if np.max(np.abs(r.T @ r - np.eye(3))) > ORTHONORMAL_TOL:
            return "rotation must be orthonormal"
    if np.linalg.det(r) < 0.0:
        return "rotation must have determinant +1"
    return None


def contact_rotation_error(rotation):
    try:
        Contact([0.0, 0.0, 0.0], rotation, FrictionCone(0.5, 4))
    except ValueError as exc:
        return str(exc)
    return None


def reference_duplicate_warnings(contacts):
    """The pairwise duplicate scan in numpy: for each pair of equal contacts
    (point and rotation compared with ==), the later index, row by row."""
    keys = np.array([np.concatenate([c.point, c.rotation.ravel()]) for c in contacts])
    same = (keys[:, None, :] == keys[None, :, :]).all(axis=2)
    return [f"duplicate contact at index {i}" for i in np.nonzero(np.tril(same, -1))[0]]


class TestScalarValidation:
    @pytest.mark.parametrize("scale", [0.0, 1e-11, 1e-9])
    def test_rotation_check_matches_numpy(self, scale):
        # Perturbations of 1e-11 stay well inside ORTHONORMAL_TOL and 1e-9
        # well outside it, so rounding cannot decide the verdict.
        rng = np.random.default_rng(5)
        for _ in range(300):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            q *= np.sign(np.linalg.det(q))
            for r, proper in ((q, True), (-q, False)):
                r = r + scale * rng.uniform(-1.0, 1.0, size=(3, 3))
                expected = reference_rotation_error(r)
                assert contact_rotation_error(r) == expected
                if scale == 1e-9:
                    assert expected == "rotation must be orthonormal"
                else:
                    assert (expected is None) == proper

    @pytest.mark.parametrize(
        "rotation",
        [
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, np.nan]],
            [[1.0, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, 1.0]],
            [[1e200, 1e200, 0.0], [1e200, -1e200, 0.0], [0.0, 0.0, 1.0]],
            [[1e200, 0.0, 0.0], [0.0, 1e-200, 0.0], [0.0, 0.0, 1.0]],
            [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
            [[-0.0, -1.0, 0.0], [1.0, -0.0, 0.0], [0.0, 0.0, 1.0]],
        ],
        ids=["nan", "inf", "overflowing-products", "overflowing-square", "swap", "quarter-turn"],
    )
    def test_rotation_edge_cases_match_numpy(self, rotation):
        assert contact_rotation_error(rotation) == reference_rotation_error(rotation)

    def test_rotation_shape_checked(self):
        assert contact_rotation_error(np.eye(2)) == "rotation must be 3x3, got shape (2, 2)"

    @pytest.mark.parametrize(
        "pattern,expected",
        [
            ("abaa", [2, 3, 3]),
            ("aaab", [1, 2, 2]),
            ("zazbz", [1, 2, 2, 4, 4, 4]),
            ("bzab", [2, 3]),
        ],
    )
    def test_duplicate_warnings_match_pairwise_reference(self, pattern, expected):
        # "z" is "a" with -0.0 in place of some of its zeros: equal under ==.
        negative_zero = np.eye(3)
        negative_zero[0, 1] = negative_zero[2, 0] = -0.0
        cone = FrictionCone(0.8, 4)
        made = {
            "a": Contact([0.0, 0.5, 0.0], np.eye(3), cone),
            "z": Contact([-0.0, 0.5, -0.0], negative_zero, cone),
            "b": Contact([0.0, 0.5, 0.0], rotation_from_normal([0, 0.1, 1]), cone),
        }
        contacts = tuple(made[k] for k in pattern)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            ContactConfiguration(contacts)
        messages = [str(w.message).split(":")[0] for w in record]
        assert messages == reference_duplicate_warnings(contacts)
        assert messages == [f"duplicate contact at index {i}" for i in expected]
        assert all(w.category is UserWarning for w in record)


def reference_edges(contacts):
    """World-frame edges computed over all columns at once, each column's
    pyramid parameters gathered by its owning contact (no per-cone cache)."""
    sides = np.array([c.cone.sides for c in contacts])
    mu = np.array([c.cone.mu for c in contacts], dtype=float)
    owner = np.repeat(np.arange(len(contacts)), sides)
    j = np.arange(owner.size) - (np.cumsum(sides) - sides)[owner]
    ang = 2.0 * np.pi * (j + 0.5) / sides[owner]
    local = np.stack([mu[owner] * np.cos(ang), mu[owner] * np.sin(ang), np.ones(owner.size)])
    rotations = np.array([c.rotation for c in contacts])
    return np.einsum("kij,jk->ik", rotations[owner], local, order="C")


def test_cached_cone_edges_are_bit_identical():
    # Cones with mu = 0, 0.0 and -0.0 compare equal and share one cached
    # entry; the world-frame edges must still match, bit for bit, those
    # computed over all columns at once without a cache.
    rng = np.random.default_rng(9)
    for _ in range(200):
        contacts = []
        for _ in range(rng.integers(1, 9)):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            mu = [0, 0.0, -0.0, 0.5, float(rng.uniform(0.0, 1.5))][rng.integers(5)]
            cone = FrictionCone(mu, int(rng.integers(3, 9)))
            contacts.append(Contact(rng.normal(size=3), q * np.sign(np.linalg.det(q)), cone))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = ContactConfiguration(tuple(contacts))
        assert config.edges.tobytes() == reference_edges(contacts).tobytes()
        points = np.repeat([c.point for c in contacts], [c.cone.sides for c in contacts], axis=0)
        assert config.column_points.tobytes() == np.ascontiguousarray(points.T).tobytes()
