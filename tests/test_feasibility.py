"""Classification: the dual-cone intersection search and the two-way verdict."""

from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from wrenchfeas import (
    Contact,
    ContactConfiguration,
    FrictionCone,
    build_generating_matrices,
    build_wcm,
    classify,
    force_membership_lp,
    load_scene,
)
from wrenchfeas import feasibility
from wrenchfeas.feasibility import CLASSIFICATION_EPS
from wrenchfeas.scenes import rotation_from_normal
from wrenchfeas.simplex import prepare, solve

from conftest import (
    flat_foot_config,
    line_foot_config,
    opposed_walls_config,
    random_config,
    random_rotation,
    rotate_config,
    single_contact_config,
)

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


def angular_distance(a, b):
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return float(np.arctan2(np.linalg.norm(np.cross(a, b)), a @ b))


class TestDualIntersectionLp:
    def test_single_identity_contact(self):
        # The dual cone contains the surface normal and every generator has
        # unit normal component, so the witness is the z-axis and s* = -1.
        config = ContactConfiguration(
            (Contact([0, 0, 0], np.eye(3), FrictionCone(0.8, 4)),)
        )
        cls = classify(config, [0, 0, 0])
        assert cls.constrained
        assert cls.s_star == pytest.approx(-1.0, abs=1e-9)
        assert angular_distance(cls.witness, [0, 0, 1]) <= 1e-8
        # every generator clears the reported margin
        assert np.min(cls.witness @ cls.generating.force_generators) >= -cls.s_star * (
            1.0 - 1e-6
        )

    def test_two_walls_scene(self, two_walls_scene):
        cls = classify(two_walls_scene.config, two_walls_scene.com)
        assert not cls.constrained
        assert abs(cls.s_star) <= CLASSIFICATION_EPS
        assert cls.witness is None

    def test_opposed_normals_brute_force(self):
        # No sampled direction is strictly inside both dual cones.
        config = opposed_walls_config()
        cls = classify(config, [0, 0, 0.5])
        assert not cls.constrained
        rng = np.random.default_rng(0)
        dirs = rng.normal(size=(100_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        worst = np.min(dirs @ cls.generating.force_generators, axis=1)
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

    def test_witness_is_read_only(self):
        cls = classify(flat_foot_config(), [0.0, 0.0, 0.8])
        assert not cls.witness.flags.writeable

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


def random_stance(rng, family, n, mu, sides):
    """Floor patch, two facing walls, or floor + wall + handle (handle
    normals uniform on the sphere); floor and wall normals tilt a little."""
    contacts = []
    for i in range(n):
        kind = {"floor": 0, "walls": 1 + i % 2, "mixed": (0, 1, 3)[i % 3]}[family]
        if kind == 0:
            point = [rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15), 0.0]
            normal = np.array([0.0, 0.0, 1.0]) + rng.normal(size=3) * 0.1
        elif kind in (1, 2):
            side = 1.0 if kind == 1 else -1.0
            point = [-0.4 * side, rng.uniform(-0.3, 0.3), rng.uniform(0.2, 1.2)]
            normal = np.array([side, 0.0, 0.0]) + rng.normal(size=3) * 0.1
        else:
            point = rng.uniform([-0.4, -0.4, 0.6], [0.4, 0.4, 1.4])
            normal = rng.normal(size=3)
        contacts.append(Contact(point, rotation_from_normal(normal), FrictionCone(mu, sides)))
    return ContactConfiguration(tuple(contacts))


def best_strict_margin(force_generators):
    """HiGHS: the largest t with u . v >= t for every generator u, over
    |v|_inf <= 1 and t <= 1.  Positive exactly when a strict witness exists."""
    n = force_generators.shape[1]
    res = linprog(
        [0.0, 0.0, 0.0, -1.0],
        A_ub=np.hstack([-force_generators.T, np.ones((n, 1))]),
        b_ub=np.zeros(n),
        bounds=[(-1.0, 1.0)] * 3 + [(None, 1.0)],
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


class TestRegressions:
    def test_simplex_cycling_fixture_builds(self):
        # 13 floor contacts, 6 sides, mu = 0.8: a pivoting LP solver cycled
        # on this stance's classification program.
        scene = load_scene(FIXTURES / "simplex_cycling.json")
        cls = classify(scene.config, scene.com)
        assert cls.constrained
        assert cls.s_star < -0.5
        assert np.min(cls.witness @ cls.generating.force_generators) > 0.5
        wcm = build_wcm(scene.config, scene.com, cls.witness)
        assert wcm.n_rows > 0

    def test_seeded_stance_sweep_verdicts_are_certified(self):
        # Constrained: the witness is strictly inside every dual cone and W
        # builds.  Unconstrained: HiGHS finds no strict witness either.  With
        # this seed a pivoting LP classifier failed on three of the stances.
        rng = np.random.default_rng(4)
        for k in range(210):
            family = ("floor", "walls", "mixed")[k % 3]
            mu = (0.0, 0.3, 0.5, 0.8)[(k // 3) % 4]
            n, sides = int(rng.integers(1, 17)), int(rng.integers(3, 9))
            config = random_stance(rng, family, n, mu, sides)
            com = rng.uniform([-0.05, -0.05, 0.7], [0.05, 0.05, 0.9])
            cls = classify(config, com)
            u = cls.generating.force_generators
            label = f"stance {k}: {family}, {n} contacts, {sides} sides, mu {mu}"
            if cls.constrained:
                assert np.min(cls.witness @ u) > CLASSIFICATION_EPS, label
                assert build_wcm(config, com, cls.witness).n_rows > 0, label
            else:
                assert best_strict_margin(u) <= 1e-7, label


def reference_classification(config, com):
    """``classify``'s (flag, witness bytes, s_star) by its earlier formulas:
    the force generators read from the 6-row generating matrices, and the
    least-distance program through ``simplex.solve``."""
    u = build_generating_matrices(config, com).force_generators
    e = np.empty((4, u.shape[1]))
    unit = np.divide(u, np.sqrt((u * u).sum(axis=0)), out=e[:3])
    e[3] = 1.0
    a, _ = solve(e, np.array([0.0, 0.0, 0.0, 1.0]))
    x = unit @ a
    size = max(map(abs, x.tolist()))
    witness, s_star = None, 0.0
    if size > 0.0:
        witness = x / size
        s_star = min(0.0, -float(np.min(witness @ u)))
    if s_star < -CLASSIFICATION_EPS:
        return True, witness.tobytes(), s_star
    return False, None, s_star


def pinned_stances():
    """Seeded stances of every family and mu, and the degenerate sets: a
    line foot, a single contact, opposed frictionless contacts and
    frictionless floors."""
    rng = np.random.default_rng(29)
    stances = []
    for k in range(48):
        family = ("floor", "walls", "mixed")[k % 3]
        mu = (0.0, 0.3, 0.5, 0.8)[(k // 3) % 4]
        n, sides = int(rng.integers(1, 17)), int(rng.integers(3, 9))
        config = random_stance(rng, family, n, mu, sides)
        stances.append((config, rng.uniform([-0.05, -0.05, 0.7], [0.05, 0.05, 0.9])))
    opposed = load_scene(FIXTURES / "frictionless_opposed.json")
    stances += [
        (line_foot_config(), np.array([0.0, 0.0, 0.8])),
        (single_contact_config(), np.array([0.0, 0.1, 0.6])),
        (opposed.config, opposed.com),
        (flat_foot_config(mu=0.0), np.array([0.01, 0.0, 0.8])),
        (flat_foot_config(mu=0.0, sides=7), np.array([0.0, -0.02, 0.9])),
    ]
    return stances


def test_classification_is_the_reference_bit_for_bit():
    # The LDP matrix goes to the solver unscaled and the generators are the
    # configuration's edges; flag, witness and s_star keep their bits.
    flags = set()
    for k, (config, com) in enumerate(pinned_stances()):
        cls = classify(config, com)
        got = (cls.constrained, None if cls.witness is None else cls.witness.tobytes(), cls.s_star)
        want = reference_classification(config, com)
        assert got[:2] == want[:2], k
        assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes(), k
        flags.add(cls.constrained)
    assert flags == {True, False}


def test_ldp_matrix_is_already_prepared():
    # Every column of [U; 1^T] has largest entry exactly 1, so prepare's
    # scaling returns it unchanged.
    for k, (config, _) in enumerate(pinned_stances()):
        u = config.edges
        e = np.vstack([u / np.sqrt((u * u).sum(axis=0)), np.ones(u.shape[1])])
        prepared = prepare(e)
        assert np.array_equal(prepared.col_max, np.ones(u.shape[1])), k
        assert prepared.scaled.tobytes() == e.tobytes(), k


def test_generators_are_built_on_first_read(monkeypatch):
    built = []
    real = feasibility.build_generating_matrices
    monkeypatch.setattr(
        feasibility, "build_generating_matrices", lambda *a: built.append(a) or real(*a)
    )
    for config, com in pinned_stances():
        built.clear()
        cls = classify(config, com)
        assert built == []
        gen = cls.generating
        assert len(built) == 1
        assert cls.generating is gen and len(built) == 1
        want = real(config, com)
        assert gen.stacked().tobytes() == want.stacked().tobytes()
        assert gen.anchor.tobytes() == want.anchor.tobytes()
        assert "generating" not in repr(cls) and "config" not in repr(cls)


def test_only_a_pinned_unconstrained_answer_builds_generators(monkeypatch, two_walls_scene):
    from wrenchfeas import MotionQuery, acceleration_verdict, trajectory_verdicts

    built = []
    real = feasibility.build_generating_matrices
    monkeypatch.setattr(
        feasibility, "build_generating_matrices", lambda *a: built.append(a) or real(*a)
    )
    scene = two_walls_scene
    cls = classify(scene.config, scene.com)
    assert not cls.constrained
    free = MotionQuery([0.0, 0.0, 1.0])
    assert acceleration_verdict(cls, None, scene.body, free, scene.com) == (True, None)
    coms, accels = [scene.com] * 3, [[0.0, 0.0, 1.0]] * 3
    assert trajectory_verdicts(cls, None, scene.body, coms, accels, [None] * 3)[0] == [True] * 3
    assert built == []
    pinned = MotionQuery([0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
    acceleration_verdict(cls, None, scene.body, pinned, scene.com)
    trajectory_verdicts(cls, None, scene.body, coms, accels, [[0.0, 0.0, 0.0]] * 3)
    assert len(built) == 1


def test_classification_keeps_a_checked_copy_of_its_anchor():
    config, anchor = flat_foot_config(), [0.0, 0.0, 0.8]
    cls = feasibility.Classification(True, np.array([0.0, 0.0, 1.0]), -1.0, config, anchor)
    assert isinstance(cls.anchor, np.ndarray) and not cls.anchor.flags.writeable
    assert cls.generating.anchor.tobytes() == np.array(anchor).tobytes()
    with pytest.raises(ValueError, match="anchor"):
        feasibility.Classification(False, None, 0.0, config, [0.0, np.inf, 0.8])
    assert not classify(config, anchor).anchor.flags.writeable
    with pytest.raises(ValueError, match="com"):
        classify(config, [0.0, np.nan, 0.8])
    with pytest.raises(ValueError, match="com"):
        classify(config, [0.0, 0.8])
