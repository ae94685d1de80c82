"""Scene/scenario files: parsing, validation messages, bundled data."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wrenchfeas import Contact, FrictionCone, bundled_path, classify, load_scenario, load_scene
from wrenchfeas.errors import SceneFormatError
from wrenchfeas.scenes import (
    _number,
    _numbers,
    rotation_from_normal,
    scene_from_dict,
    scenario_from_dict,
    scene_to_dict,
)


def minimal_scene(**overrides):
    scene = {
        "mass": 60.0,
        "gravity": [0.0, 0.0, -9.81],
        "com": [0.0, 0.0, 0.8],
        "contacts": [
            {"point": [0.1, 0.05, 0.0], "normal": [0.0, 0.0, 1.0], "mu": 0.8, "sides": 4}
        ],
    }
    scene.update(overrides)
    return scene


class TestRotationFromNormal:
    def test_vertical_normal(self):
        r = rotation_from_normal([0.0, 0.0, 1.0])
        assert np.allclose(r, np.eye(3))

    def test_is_proper_rotation_with_requested_normal(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = rng.normal(size=3)
            if np.linalg.norm(n) < 1e-6:
                continue
            r = rotation_from_normal(n)
            assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(r[:, 2], n / np.linalg.norm(n), atol=1e-12)

    def test_tangent_is_projected_world_x(self):
        n = np.array([0.0, 0.6, 0.8])
        r = rotation_from_normal(n)
        assert np.allclose(r[:, 0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_fallback_near_x_axis(self):
        r = rotation_from_normal([1.0, 1e-9, 0.0])
        # tangent comes from world y, not from a vanishing x projection
        assert np.allclose(r[:, 0], [0.0, 1.0, 0.0], atol=1e-6)

    def test_deterministic(self):
        a = rotation_from_normal([0.3, -0.4, 0.85])
        b = rotation_from_normal([0.3, -0.4, 0.85])
        assert np.array_equal(a, b)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            rotation_from_normal([0.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "normal, message",
        [
            ([np.nan, 0.0, 1.0], "normal must have finite components"),
            ([0.0, np.inf, 1.0], "normal must have finite components"),
            ([0.0, 0.0, -np.inf], "normal must have finite components"),
            ([0.0, 0.0, 1e200], r"a normal component of 1e\+200 exceeds 1e\+150"),
            ([-1.1e150, 0.0, 1.0], r"a normal component of 1.1e\+150 exceeds"),
        ],
    )
    def test_unusable_normal_rejected(self, normal, message):
        # Rejected before any arithmetic, so no NaN frame and no overflow
        # warning can come out.
        with pytest.raises(ValueError, match=message):
            rotation_from_normal(normal)

    def test_normal_at_the_component_bound_is_accepted(self):
        # Its squared norm, 1e300, is finite; the frame is the unit normal's.
        assert np.array_equal(
            rotation_from_normal([0.0, 0.0, 1e150]), rotation_from_normal([0.0, 0.0, 1.0])
        )

    @pytest.mark.parametrize("offset", [1e-7, 1e-6, 1.1e-6, 1e-5, 9e-4, 1.1e-3, 1e-2])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_near_x_normals_give_valid_contacts(self, offset, sign):
        # Projecting world x onto the tangent plane of a normal this close to
        # +/-x cancels most digits; the rotation must still pass Contact's
        # orthonormality check.
        for normal in ([0.75 * sign, 0.75 * offset, 0.0], [sign, 0.0, -offset]):
            r = rotation_from_normal(normal)
            Contact([0.0, 0.0, 0.0], r, FrictionCone(0.5, 4))
            assert np.allclose(r[:, 2], np.asarray(normal) / np.linalg.norm(normal))


class TestSceneParsing:
    def test_minimal_scene(self):
        scene = scene_from_dict(minimal_scene())
        assert scene.body.mass == 60.0
        assert len(scene.config) == 1

    def test_round_trip_identical(self):
        scene = scene_from_dict(minimal_scene())
        again = scene_from_dict(scene_to_dict(scene))
        assert again.body.mass == scene.body.mass
        assert np.array_equal(again.com, scene.com)
        for a, b in zip(again.config.contacts, scene.config.contacts):
            assert np.array_equal(a.point, b.point)
            assert np.array_equal(a.rotation, b.rotation)
            assert a.cone == b.cone

    def test_rotation_given_directly(self):
        scene_dict = minimal_scene(
            contacts=[
                {
                    "point": [0, 0, 0],
                    "rotation": list(np.eye(3).reshape(-1)),
                    "mu": 0.5,
                    "sides": 4,
                }
            ]
        )
        scene = scene_from_dict(scene_dict)
        assert np.allclose(scene.config.contacts[0].rotation, np.eye(3))

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d.update(mass=-5.0), "mass must be positive"),
            (lambda d: d.update(mass=0), "mass must be positive"),
            (lambda d: d.pop("gravity"), "gravity"),
            (lambda d: d.update(gravity=[0.0, 1.0]), "gravity"),
            (lambda d: d.update(contacts=[]), "contacts"),
            (
                lambda d: d["contacts"][0].pop("point"),
                "contacts[0]",
            ),
            (
                lambda d: d["contacts"][0].update(rotation=list(range(9))),
                "contacts[0]",
            ),
            (
                lambda d: d["contacts"][0].update(sides=2),
                "contacts[0]",
            ),
            (
                lambda d: d["contacts"][0].update(mu="high"),
                "contacts[0].mu",
            ),
            (lambda d: d["contacts"][0].update(mu=True), "contacts[0].mu must be"),
            (
                lambda d: d["contacts"][0].update(normal=[0.0, 0.0, 1e200]),
                "contacts[0].normal: a normal component of 1e+200 exceeds",
            ),
            (
                lambda d: d["contacts"][0].update(mu="0.8"),
                "contacts[0].mu must be a number",
            ),
            (lambda d: d.update(com=["0", "0", "0.8"]), "com[0]"),
            (lambda d: d.update(com=[True, 0, 0.8]), "com[0] must be a number"),
        ],
    )
    def test_errors_name_the_field(self, mutate, needle):
        scene_dict = minimal_scene()
        mutate(scene_dict)
        with pytest.raises(SceneFormatError, match=None) as excinfo:
            scene_from_dict(scene_dict)
        assert needle in str(excinfo.value)

    def test_normal_and_rotation_are_mutually_exclusive(self):
        scene_dict = minimal_scene()
        scene_dict["contacts"][0]["rotation"] = list(np.eye(3).reshape(-1))
        with pytest.raises(SceneFormatError, match="exactly one"):
            scene_from_dict(scene_dict)
        del scene_dict["contacts"][0]["rotation"]
        del scene_dict["contacts"][0]["normal"]
        with pytest.raises(SceneFormatError, match="exactly one"):
            scene_from_dict(scene_dict)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SceneFormatError, match="invalid JSON"):
            load_scene(path)


class TestScenarioParsing:
    def scenario_dict(self):
        return {
            "phases": [
                {
                    "name": "only",
                    "scene": minimal_scene(),
                    "com_trajectory": [
                        {"t": 0.0, "com": [0, 0, 0.8], "accel": [0, 0, 0]},
                        {
                            "t": 0.5,
                            "com": [0, 0, 0.81],
                            "accel": [0, 0, 0.1],
                            "l_dot": [0, 0, 0],
                        },
                    ],
                }
            ]
        }

    def test_inline_scene_and_optional_l_dot(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.scenario_dict()))
        scenario = load_scenario(path)
        assert len(scenario.phases) == 1
        samples = scenario.phases[0].samples
        assert samples[0].l_dot is None
        assert np.allclose(samples[1].l_dot, [0, 0, 0])

    def test_scene_reference_resolves_relative(self, tmp_path):
        (tmp_path / "base.json").write_text(json.dumps(minimal_scene()))
        data = self.scenario_dict()
        data["phases"][0]["scene"] = "base.json"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        scenario = load_scenario(path)
        assert len(scenario.phases[0].scene.config) == 1

    def test_times_must_strictly_increase(self, tmp_path):
        data = self.scenario_dict()
        data["phases"][0]["com_trajectory"][1]["t"] = 0.0
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SceneFormatError, match="strictly increasing"):
            load_scenario(path)

    def test_missing_phase_name(self, tmp_path):
        data = self.scenario_dict()
        del data["phases"][0]["name"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SceneFormatError, match="name"):
            load_scenario(path)


class TestBundledData:
    def test_bundled_path_appends_extension(self):
        assert bundled_path("two_walls") == bundled_path("two_walls.json")

    def test_unknown_bundled_name(self):
        with pytest.raises(FileNotFoundError, match="available"):
            bundled_path("missing_scene")

    @pytest.mark.parametrize(
        "name,expect_constrained",
        [
            ("two_walls", False),
            ("two_walls_hands", False),
            ("two_walls_feet", False),
            ("flat_foot", True),
            ("traverse_phase1", True),
            ("traverse_phase2", True),
            ("traverse_phase3", True),
            ("traverse_phase4", True),
            ("traverse_phase5", True),
            ("traverse_phase6", True),
        ],
    )
    def test_bundled_scene_classifications(self, name, expect_constrained):
        scene = load_scene(bundled_path(name))
        cls = classify(scene.config, scene.com)
        assert cls.constrained == expect_constrained

    def test_traverse_phase6_normals_are_parallel(self):
        scene = load_scene(bundled_path("traverse_phase6"))
        normals = np.array([c.normal for c in scene.config.contacts])
        assert np.max(np.abs(normals - normals[0])) <= 1e-12
        cls = classify(scene.config, scene.com)
        assert cls.constrained

    def test_contact_counts(self):
        counts = {
            "two_walls": 12,
            "two_walls_hands": 8,
            "two_walls_feet": 4,
            "traverse_phase1": 8,
            "traverse_phase2": 12,
            "traverse_phase3": 10,
            "traverse_phase4": 10,
            "traverse_phase5": 12,
            "traverse_phase6": 12,
        }
        for name, expected in counts.items():
            scene = load_scene(bundled_path(name))
            assert len(scene.config) == expected, name

    def test_bundled_scenarios_load(self):
        climbing = load_scenario(bundled_path("climbing_scenario"))
        assert len(climbing.phases) == 6
        assert {len(p.scene.config) for p in climbing.phases} == {4, 8, 12}
        traverse = load_scenario(bundled_path("traverse_scenario"))
        assert len(traverse.phases) == 6
        assert [len(p.scene.config) for p in traverse.phases] == [
            8, 12, 10, 10, 12, 12,
        ]


def reference_vector(value, length, where):
    """The per-element validator: every element goes through _number."""
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise SceneFormatError(f"{where} must be an array of {length} numbers")
    return np.array([_number(x, f"{where}[{i}]") for i, x in enumerate(value)])


def vector_outcome(build, value, length):
    try:
        return "accepted", build(value, length, "scene.com").tobytes()
    except SceneFormatError as exc:
        return "rejected", str(exc)


_json_element = st.one_of(
    st.floats(),  # with nan, +/-inf, -0.0 and subnormals
    st.integers(-(2**1100), 2**1100),  # also beyond the float range
    st.sampled_from([2**1024 - 2**970, 2**1024 - 2**970 - 1, 2**63, 2**64 + 1]),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.floats(), max_size=3),
    st.tuples(st.integers()),
)


@st.composite
def json_vectors(draw):
    length = draw(st.sampled_from([3, 9]))
    value = draw(
        st.one_of(
            st.lists(_json_element, min_size=length, max_size=length),
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=length, max_size=length),
            st.lists(_json_element, min_size=length, max_size=length).map(tuple),
            st.lists(_json_element, max_size=10),
            _json_element,
            st.dictionaries(st.text(max_size=2), st.floats(), max_size=2),
        )
    )
    return value, length


@given(json_vectors())
def test_vector_validation_matches_per_element_reference(drawn):
    value, length = drawn
    fast = vector_outcome(lambda *a: np.array(_numbers(*a), dtype=float), value, length)
    assert fast == vector_outcome(reference_vector, value, length)


class TestTrajectoryIngestion:
    BASE = {"t": 0.0, "com": [0.0, 0.0, 0.8], "accel": [0.0, 0.0, 0.0]}

    def scenario(self, *samples):
        trajectory = [dict(self.BASE, t=0.1 * k, **extra) for k, extra in enumerate(samples)]
        return {
            "phases": [
                {"name": "a", "scene": minimal_scene(), "com_trajectory": [dict(self.BASE)]},
                {"name": "b", "scene": minimal_scene(), "com_trajectory": trajectory},
            ]
        }

    @pytest.mark.parametrize("k", [0, 2])
    def test_overflowing_force_names_the_sample(self, k):
        samples = [{}, {"l_dot": [0.0, 0.0, 1.0]}, {}]
        samples[k] = {"accel": [1e308, 0.0, 0.0]}
        with pytest.raises(SceneFormatError) as excinfo:
            scenario_from_dict(self.scenario(*samples), base_dir=None)
        assert str(excinfo.value) == (
            f"scenario.phases[1].com_trajectory[{k}].accel: force must have finite components"
        )

    def test_large_finite_force_accepted(self):
        scenario = scenario_from_dict(self.scenario({"accel": [1e300, 0.0, -1e300]}), None)
        assert scenario.phases[1].samples[0].accel.tolist() == [1e300, 0.0, -1e300]

    def test_samples_hold_the_ingested_values(self):
        scenario = scenario_from_dict(
            self.scenario({}, {"l_dot": [1.0, 2, 3]}, {"accel": [0.5, 0, -1]}), None
        )
        samples = scenario.phases[1].samples
        for sample in samples:
            assert not sample.accel.flags.writeable
        assert [s.l_dot is None for s in samples] == [True, False, True]
        assert samples[1].l_dot.tolist() == [1.0, 2.0, 3.0]
        assert samples[2].accel.tolist() == [0.5, 0.0, -1.0]
        assert [s.t for s in samples] == [0.0, 0.1, 0.2]
