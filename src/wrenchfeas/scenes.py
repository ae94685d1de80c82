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
``rotation``, never both.  A scenario file sequences phases, each with a scene
(inline object or a path relative to the scenario file) and a center-of-mass
trajectory::

    {"phases": [{"name": "...", "scene": "foo.json" | {...},
                 "com_trajectory": [{"t": 0.0, "com": [...], "accel": [...],
                                     "l_dot": [...]}, ...]}]}

``l_dot`` may be omitted from a trajectory sample to leave the angular
momentum rate unspecified.  All validation errors name the offending field.
"""

import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .contacts import (
    Contact,
    ContactConfiguration,
    FrictionCone,
    MotionQuery,
    RigidBodyParams,
)
from .errors import SceneFormatError


@dataclass(frozen=True)
class Scene:
    body: RigidBodyParams
    com: np.ndarray
    config: ContactConfiguration


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    com: np.ndarray
    accel: np.ndarray
    l_dot: np.ndarray | None = None

    def query(self) -> MotionQuery:
        return MotionQuery(self.accel, self.l_dot)


@dataclass(frozen=True)
class ScenarioPhase:
    name: str
    scene: Scene
    samples: tuple


@dataclass(frozen=True)
class Scenario:
    phases: tuple


def rotation_from_normal(normal) -> np.ndarray:
    """Complete a surface normal to a full contact rotation.

    The local x-axis is the world x-axis projected onto the tangent plane,
    falling back to world y when the normal is within 1e-6 of +/-x; this
    fixes the pyramid edge orientation so scenes rebuild identically.
    """
    n = np.asarray(normal, dtype=float)
    norm = np.linalg.norm(n)
    if norm <= 1e-12:
        raise ValueError("normal must be a nonzero vector")
    n = n / norm
    x_axis = np.array([1.0, 0.0, 0.0])
    if min(np.linalg.norm(n - x_axis), np.linalg.norm(n + x_axis)) < 1e-6:
        reference = np.array([0.0, 1.0, 0.0])
    else:
        reference = x_axis
    tangent = reference - (reference @ n) * n
    tangent /= np.linalg.norm(tangent)
    return np.column_stack([tangent, np.cross(n, tangent), n])


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


def _vector(value, length, where):
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise SceneFormatError(f"{where} must be an array of {length} numbers")
    return np.array([_number(x, f"{where}[{i}]") for i, x in enumerate(value)])


def scene_from_dict(data, where: str = "scene") -> Scene:
    if not isinstance(data, dict):
        raise SceneFormatError(f"{where} must be a JSON object")
    mass = _number(_require(data, "mass", where), f"{where}.mass", positive=True)
    gravity = _vector(_require(data, "gravity", where), 3, f"{where}.gravity")
    com = _vector(_require(data, "com", where), 3, f"{where}.com")
    raw_contacts = _require(data, "contacts", where)
    if not isinstance(raw_contacts, list) or not raw_contacts:
        raise SceneFormatError(f"{where}.contacts must be a nonempty array")
    contacts = []
    for i, item in enumerate(raw_contacts):
        loc = f"{where}.contacts[{i}]"
        if not isinstance(item, dict):
            raise SceneFormatError(f"{loc} must be a JSON object")
        point = _vector(_require(item, "point", loc), 3, f"{loc}.point")
        has_normal = "normal" in item
        has_rotation = "rotation" in item
        if has_normal == has_rotation:
            raise SceneFormatError(
                f"{loc}: exactly one of 'normal' and 'rotation' is required"
            )
        if has_normal:
            normal = _vector(item["normal"], 3, f"{loc}.normal")
            try:
                rotation = rotation_from_normal(normal)
            except ValueError as exc:
                raise SceneFormatError(f"{loc}.normal: {exc}") from None
        else:
            rotation = _vector(item["rotation"], 9, f"{loc}.rotation").reshape(3, 3)
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
        if not isinstance(raw_traj, list):
            raise SceneFormatError(f"{loc}.com_trajectory must be an array")
        samples = []
        previous_t = None
        for k, entry in enumerate(raw_traj):
            sloc = f"{loc}.com_trajectory[{k}]"
            if not isinstance(entry, dict):
                raise SceneFormatError(f"{sloc} must be a JSON object")
            t = _number(_require(entry, "t", sloc), f"{sloc}.t")
            if previous_t is not None and t <= previous_t:
                raise SceneFormatError(
                    f"{loc}.com_trajectory: times must be strictly increasing"
                )
            previous_t = t
            com = _vector(_require(entry, "com", sloc), 3, f"{sloc}.com")
            accel = _vector(_require(entry, "accel", sloc), 3, f"{sloc}.accel")
            l_dot = (
                _vector(entry["l_dot"], 3, f"{sloc}.l_dot")
                if "l_dot" in entry
                else None
            )
            samples.append(TrajectorySample(t, com, accel, l_dot))
        phases.append(ScenarioPhase(name, scene, tuple(samples)))
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
