"""Scene and scenario files: JSON ingestion, validation, and bundled examples.

A scene file describes one static contact configuration::

    {
      "mass": 60.0,
      "gravity": [0.0, 0.0, -9.81],
      "com": [0.0, 0.0, 0.8],
      "contacts": [
        {"point": [0.1, 0.05, 0.0], "normal": [0.0, 0.0, 1.0],
         "mu": 0.8, "sides": 4},
        {"point": [...], "rotation": [r00, r01, ..., r22], "mu": 0.8, "sides": 4}
      ]
    }

Each contact gives either a ``normal`` (the direction the surface pushes; a
full rotation is completed deterministically) or a 9-entry row-major
``rotation``, never both, and a friction coefficient ``mu`` in [0, 1e6]
(``contacts.MAX_MU``).  A scenario file sequences phases, each with a scene
(inline object or a path relative to the scenario file) and a center-of-mass
trajectory::

    {"phases": [{"name": "...", "scene": "foo.json" | {...},
                 "com_trajectory": [{"t": 0.0, "com": [...], "accel": [...],
                                     "l_dot": [...]}, ...]}]}

``l_dot`` may be omitted from a trajectory sample to leave the angular
momentum rate unspecified.  A loaded phase holds its trajectory as the four
columns ``wcm.trajectory_verdicts`` takes: ``times``, ``coms``, ``accels``
and ``l_dots`` (None where a sample omits it), one entry per sample.

A scene's weight, ``mass * gravity``, must be finite; an overflow is an error
naming its ``mass``.  A sample's force, ``mass * (accel - gravity)``, must be
finite too; an overflow is an error naming the sample's ``accel``.  All
validation errors name the offending field.
"""

import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .contacts import (
    Contact,
    ContactConfiguration,
    FrictionCone,
    RigidBodyParams,
    _as_vec3,
    rotation_from_normal,
)
from .errors import SceneFormatError


@dataclass(frozen=True)
class Scene:
    """A body, its center of mass and its contacts.  ``com`` is kept as a
    read-only copy, so the caller's array stays writable."""

    body: RigidBodyParams
    com: np.ndarray
    config: ContactConfiguration

    def __post_init__(self):
        object.__setattr__(self, "com", _as_vec3(self.com, "com"))


@dataclass(frozen=True)
class ScenarioPhase:
    """A scene and its CoM trajectory, one entry per sample in each column:
    ``times``, and ``coms`` and ``accels`` as float triples, and ``l_dots``,
    a float triple or None where the sample leaves the rate free.  These are
    the columns ``wcm.trajectory_verdicts`` takes."""

    name: str
    scene: Scene
    times: tuple
    coms: tuple
    accels: tuple
    l_dots: tuple


@dataclass(frozen=True)
class Scenario:
    phases: tuple


def _require(mapping, key, where):
    if key not in mapping:
        raise SceneFormatError(f"{where}: missing required field '{key}'")
    return mapping[key]


def _number(value, where, positive=False):
    # A JSON number: bool is an int subclass, and float() would parse "60".
    # abs(x) <= max fails for inf, nan and ints too large to be a float.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneFormatError(f"{where} must be a number")
    if not abs(value) <= sys.float_info.max:
        raise SceneFormatError(f"{where} must be finite")
    if positive and value <= 0:
        raise SceneFormatError(f"{where} must be positive")
    return float(value)


def _numbers(value, length, where):
    # ``value`` as a tuple of floats; a failing element raises _number's message.
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise SceneFormatError(f"{where} must be an array of {length} numbers")
    for i, x in enumerate(value):
        if not ((type(x) is float or type(x) is int) and abs(x) <= sys.float_info.max):
            _number(x, f"{where}[{i}]")
    return tuple(map(float, value))


def scene_from_dict(data, where: str = "scene") -> Scene:
    if not isinstance(data, dict):
        raise SceneFormatError(f"{where} must be a JSON object")
    mass = _number(_require(data, "mass", where), f"{where}.mass", positive=True)
    gravity = _numbers(_require(data, "gravity", where), 3, f"{where}.gravity")
    if not all(math.isfinite(mass * g) for g in gravity):
        raise SceneFormatError(f"{where}.mass: weight mass * gravity must be finite")
    com = _numbers(_require(data, "com", where), 3, f"{where}.com")
    raw_contacts = _require(data, "contacts", where)
    if not isinstance(raw_contacts, list) or not raw_contacts:
        raise SceneFormatError(f"{where}.contacts must be a nonempty array")
    contacts = []
    for i, item in enumerate(raw_contacts):
        loc = f"{where}.contacts[{i}]"
        if not isinstance(item, dict):
            raise SceneFormatError(f"{loc} must be a JSON object")
        point = _numbers(_require(item, "point", loc), 3, f"{loc}.point")
        has_normal = "normal" in item
        has_rotation = "rotation" in item
        if has_normal == has_rotation:
            raise SceneFormatError(
                f"{loc}: exactly one of 'normal' and 'rotation' is required"
            )
        if has_normal:
            normal = _numbers(item["normal"], 3, f"{loc}.normal")
            try:
                rotation = rotation_from_normal(normal)
            except ValueError as exc:
                raise SceneFormatError(f"{loc}.normal: {exc}") from None
        else:
            r = _numbers(item["rotation"], 9, f"{loc}.rotation")
            rotation = [r[0:3], r[3:6], r[6:9]]
        mu = _number(_require(item, "mu", loc), f"{loc}.mu")
        sides = _require(item, "sides", loc)
        if not isinstance(sides, int) or isinstance(sides, bool):
            raise SceneFormatError(f"{loc}.sides must be an integer")
        try:
            contacts.append(Contact(point, rotation, FrictionCone(mu, sides)))
        except ValueError as exc:
            raise SceneFormatError(f"{loc}: {exc}") from None
    return Scene(RigidBodyParams(mass, gravity), com, ContactConfiguration(tuple(contacts)))


def scene_to_dict(scene: Scene) -> dict:
    """Serialize a scene; re-parsing reproduces the configuration exactly
    (rotations are emitted in full, never reduced back to normals)."""
    return {
        "mass": scene.body.mass,
        "gravity": scene.body.gravity.tolist(),
        "com": scene.com.tolist(),
        "contacts": [
            {
                "point": c.point.tolist(),
                "rotation": c.rotation.reshape(-1).tolist(),
                "mu": c.cone.mu,
                "sides": c.cone.sides,
            }
            for c in scene.config.contacts
        ],
    }


def _read_json(path: Path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise SceneFormatError(f"{path}: invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SceneFormatError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None


def load_scene(path) -> Scene:
    path = Path(path)
    return scene_from_dict(_read_json(path), where=str(path.name))


def scenario_from_dict(data, base_dir: Path, where: str = "scenario") -> Scenario:
    if not isinstance(data, dict):
        raise SceneFormatError(f"{where} must be a JSON object")
    raw_phases = _require(data, "phases", where)
    if not isinstance(raw_phases, list) or not raw_phases:
        raise SceneFormatError(f"{where}.phases must be a nonempty array")
    phases = []
    for i, item in enumerate(raw_phases):
        loc = f"{where}.phases[{i}]"
        if not isinstance(item, dict):
            raise SceneFormatError(f"{loc} must be a JSON object")
        name = _require(item, "name", loc)
        if not isinstance(name, str) or not name:
            raise SceneFormatError(f"{loc}.name must be a nonempty string")
        raw_scene = _require(item, "scene", loc)
        if isinstance(raw_scene, str):
            scene = load_scene(base_dir / raw_scene)
        else:
            scene = scene_from_dict(raw_scene, where=f"{loc}.scene")
        raw_traj = _require(item, "com_trajectory", loc)
        tloc = f"{loc}.com_trajectory"
        if not isinstance(raw_traj, list):
            raise SceneFormatError(f"{tloc} must be an array")
        mass, gravity = scene.body.mass, scene.body.gravity.tolist()
        times, coms, accels, l_dots = [], [], [], []
        for k, entry in enumerate(raw_traj):
            sloc = f"{tloc}[{k}]"
            if not isinstance(entry, dict):
                raise SceneFormatError(f"{sloc} must be a JSON object")
            t = _number(_require(entry, "t", sloc), f"{sloc}.t")
            if times and t <= times[-1]:
                raise SceneFormatError(f"{tloc}: times must be strictly increasing")
            times.append(t)
            coms.append(_numbers(_require(entry, "com", sloc), 3, f"{sloc}.com"))
            accel = _numbers(_require(entry, "accel", sloc), 3, f"{sloc}.accel")
            # required_wrench's force, in the same float operations numpy does
            if not all(math.isfinite(mass * (a - g)) for a, g in zip(accel, gravity)):
                raise SceneFormatError(f"{sloc}.accel: force must have finite components")
            accels.append(accel)
            has_l_dot = "l_dot" in entry
            l_dots.append(_numbers(entry["l_dot"], 3, f"{sloc}.l_dot") if has_l_dot else None)
        phases.append(
            ScenarioPhase(name, scene, tuple(times), tuple(coms), tuple(accels), tuple(l_dots))
        )
    return Scenario(tuple(phases))


def load_scenario(path) -> Scenario:
    path = Path(path)
    return scenario_from_dict(_read_json(path), path.parent, where=str(path.name))


def bundled_path(name: str) -> Path:
    """Path of a bundled example scene/scenario (``.json`` may be omitted)."""
    if not name.endswith(".json"):
        name = name + ".json"
    path = Path(str(resources.files("wrenchfeas") / "data" / name))
    if not path.exists():
        available = ", ".join(sorted(p.name for p in path.parent.glob("*.json")))
        raise FileNotFoundError(f"no bundled file {name!r}; available: {available}")
    return path
