"""Classification: dual-cone intersection LP and the two-way verdict."""

import numpy as np
import pytest

from wrenchfeas import (
    Contact,
    ContactConfiguration,
    FrictionCone,
    build_generating_matrices,
    classify,
    dual_intersection_lp,
    force_membership_lp,
)
from wrenchfeas.feasibility import CLASSIFICATION_EPS

from conftest import (
    flat_foot_config,
    opposed_walls_config,
    random_config,
    random_rotation,
    rotate_config,
    single_contact_config,
)


def angular_distance(a, b):
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return float(np.arctan2(np.linalg.norm(np.cross(a, b)), a @ b))


class TestDualIntersectionLp:
    def test_single_identity_contact(self):
        # The dual cone contains the surface normal, so the slack bottoms out
        # and the witness is forced onto the z-axis.
        config = ContactConfiguration(
            (Contact([0, 0, 0], np.eye(3), FrictionCone(0.8, 4)),)
        )
        gen = build_generating_matrices(config, [0, 0, 0])
        result = dual_intersection_lp(gen)
        assert result.constrained
        assert result.s_star == pytest.approx(-1.0, abs=1e-9)
        assert angular_distance(result.v, [0, 0, 1]) <= 1e-8
        # at the optimum every generator clears the slack margin
        assert np.min(result.v @ gen.force_generators) >= -result.s_star * (
            1.0 - 1e-6
        )

    def test_two_walls_scene(self, two_walls_scene):
        gen = build_generating_matrices(
            two_walls_scene.config, two_walls_scene.com
        )
        result = dual_intersection_lp(gen)
        assert not result.constrained
        assert abs(result.s_star) <= CLASSIFICATION_EPS
        assert np.max(np.abs(result.v)) <= 1e-6

    def test_opposed_normals_brute_force(self):
        # No sampled direction is strictly inside both dual cones.
        config = opposed_walls_config()
        gen = build_generating_matrices(config, [0, 0, 0.5])
        result = dual_intersection_lp(gen)
        assert not result.constrained
        rng = np.random.default_rng(0)
        dirs = rng.normal(size=(100_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        worst = np.min(dirs @ gen.force_generators, axis=1)
        assert np.max(worst) < -1e-3


class TestClassify:
    def test_flat_ground_witness_is_vertical(self):
        cls = classify(flat_foot_config(), [0.0, 0.0, 0.8])
        assert cls.constrained
        assert angular_distance(cls.witness, [0, 0, 1]) <= 1e-8
        assert np.max(np.abs(cls.witness)) == pytest.approx(1.0)
        assert np.min(np.array([0, 0, 1.0]) @ cls.generating.force_generators) > 0

    def test_frictionless_contact(self):
        # The frictionless dual is the half-space containing the normal, so
        # any witness must have positive projection on the normal.
        config = single_contact_config(normal=(0.2, -0.1, 1.0))
        frictionless = ContactConfiguration(
            tuple(
                Contact(c.point, c.rotation, FrictionCone(0.0, 4))
                for c in config.contacts
            )
        )
        normal = frictionless.contacts[0].normal
        cls = classify(frictionless, [0, 0, 0.5])
        assert cls.constrained
        assert cls.witness @ normal > 0.0

    def test_two_walls_unconstrained(self, two_walls_scene):
        cls = classify(two_walls_scene.config, two_walls_scene.com)
        assert not cls.constrained
        assert cls.witness is None

    def test_unconstrained_means_any_force(self, two_walls_scene):
        cls = classify(two_walls_scene.config, two_walls_scene.com)
        rng = np.random.default_rng(17)
        for _ in range(20):
            force = rng.normal(size=3) * 600.0
            assert force_membership_lp(cls.generating, force).feasible

    def test_constrained_rejects_force_opposing_witness(self):
        cls = classify(flat_foot_config(), [0.0, 0.0, 0.8])
        assert not force_membership_lp(cls.generating, -cls.witness).feasible


class TestNearTangentDuals:
    @staticmethod
    def two_contacts_at(angle_deg):
        half = np.radians(angle_deg) / 2.0
        cone = FrictionCone(0.8, 4)
        from wrenchfeas.scenes import rotation_from_normal

        return ContactConfiguration(
            (
                Contact(
                    [0.2, 0.0, 0.0],
                    rotation_from_normal([np.sin(half), 0.0, np.cos(half)]),
                    cone,
                ),
                Contact(
                    [-0.2, 0.0, 0.0],
                    rotation_from_normal([-np.sin(half), 0.0, np.cos(half)]),
                    cone,
                ),
            )
        )

    def test_slack_decays_to_zero_at_tangency(self):
        # For these two pyramids the duals stop overlapping near 121 degrees
        # of normal separation; the slack shrinks monotonically toward zero
        # and the verdict flips exactly once.
        com = np.array([0.0, 0.0, 0.3])
        previous = None
        for deg in (95.0, 105.0, 115.0, 120.0, 121.0):
            cls = classify(self.two_contacts_at(deg), com)
            assert cls.constrained
            if previous is not None:
                assert cls.s_star > previous
            previous = cls.s_star
        wide = classify(self.two_contacts_at(125.0), com)
        assert not wide.constrained

    def test_marginal_witness_still_builds_valid_matrix(self):
        from wrenchfeas import build_wcm, compare_wcm_oracle

        com = np.array([0.0, 0.0, 0.3])
        config = self.two_contacts_at(121.0)
        cls = classify(config, com)
        assert cls.constrained
        assert -1e-3 < cls.s_star < -CLASSIFICATION_EPS
        wcm = build_wcm(config, com, cls.witness)
        report = compare_wcm_oracle(cls.generating, wcm, 400, rng_seed=0)
        assert report.disagree == 0


class TestInvariance:
    @pytest.mark.parametrize("seed", range(8))
    def test_rotation_scaling_permutation(self, seed):
        rng = np.random.default_rng(seed)
        config = random_config(rng)
        com = rng.uniform(-0.2, 0.2, size=3)
        base = classify(config, com).constrained

        q = random_rotation(rng)
        assert classify(rotate_config(config, q), q @ com).constrained == base

        scale = float(rng.uniform(0.3, 4.0))
        scaled = ContactConfiguration(
            tuple(
                Contact(scale * c.point, c.rotation, c.cone)
                for c in config.contacts
            )
        )
        assert classify(scaled, scale * com).constrained == base

        order = rng.permutation(len(config.contacts))
        permuted = ContactConfiguration(
            tuple(config.contacts[i] for i in order)
        )
        assert classify(permuted, com).constrained == base

    def test_tiny_perturbations_do_not_flip(self, two_walls_scene):
        rng = np.random.default_rng(1)
        base = classify(two_walls_scene.config, two_walls_scene.com).constrained
        for _ in range(5):
            jittered = ContactConfiguration(
                tuple(
                    Contact(
                        c.point + rng.uniform(-1e-10, 1e-10, size=3),
                        c.rotation,
                        c.cone,
                    )
                    for c in two_walls_scene.config.contacts
                )
            )
            assert (
                classify(jittered, two_walls_scene.com).constrained == base
            )

    def test_tiny_perturbations_constrained_scene(self):
        rng = np.random.default_rng(2)
        config = flat_foot_config()
        com = np.array([0.0, 0.0, 0.8])
        for _ in range(5):
            jittered = ContactConfiguration(
                tuple(
                    Contact(
                        c.point + rng.uniform(-1e-10, 1e-10, size=3),
                        c.rotation,
                        c.cone,
                    )
                    for c in config.contacts
                )
            )
            assert classify(jittered, com).constrained
