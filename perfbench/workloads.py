"""The four benchmark workloads.

Each workload turns ``--seed`` into a fixed list of operations in ``setup``
(benchmark code, plus the program's own set-up where a user would pay it once),
runs one operation in ``execute`` (program calls only), and judges the outputs
of one round in ``check`` against the independent checker in ``checker.py``.
Program modules are always reached through their module attribute
(``feasibility.classify``), so the tracer can wrap them for a traced run.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from wrenchfeas import cli, contacts, feasibility, oracle, scenes, wcm

import checker

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
WORK_DIR = HERE / "results" / "work"

MU_VALUES = (0.0, 0.3, 0.5, 0.8)
FAMILIES = ("floor", "walls", "mixed")
GRAVITY = np.array([0.0, 0.0, -9.81])
BODY = contacts.RigidBodyParams(60.0, GRAVITY)
TRAVERSE = tuple(f"traverse_phase{k}" for k in range(1, 7))

# Streams that do not depend on --seed: the make-up of the stance lists and
# the contacts of each stance (see README, "Why stance contacts are fixed").
CELL_STREAM = 20160801
STANCE_STREAM = 20160802


@dataclass(frozen=True)
class Failure:
    """A program call raised; ``kind`` is the exception class and message."""

    kind: str


def failure_key(out):
    return ("error", out.kind) if isinstance(out, Failure) else None


@dataclass
class Judged:
    """Check outcome for one operation.  ``status`` is None when the verdict
    matched, "band" when it could not be judged, otherwise why it failed;
    ``verdict`` feeds the both-verdicts check; ``violations`` are method
    properties broken by an operation that did not fail."""

    status: str | None
    verdict: object
    violations: tuple | list

    @property
    def failed(self):
        return self.status not in (None, "band")


# ---------------------------------------------------------------- stances


def _tilted(rng, axis, spread):
    v = np.asarray(axis, dtype=float) + rng.normal(size=3) * spread
    return v / np.linalg.norm(v)


def _contact(rng, point, normal, mu, sides):
    # Random spin of the pyramid about its normal.
    th = rng.uniform(0.0, 2.0 * math.pi)
    spin = np.array([[math.cos(th), -math.sin(th), 0.0], [math.sin(th), math.cos(th), 0.0], [0.0, 0.0, 1.0]])
    return contacts.Contact(point, checker.rotation_from_normal(normal) @ spin, contacts.FrictionCone(mu, sides))


def make_stance(rng, family, n, sides, mu):
    """A candidate stance: floor patch, two facing walls, or floor + wall +
    handle (handle normals uniform on the sphere)."""
    items = []
    for i in range(n):
        kind = {"floor": 0, "walls": 1 + i % 2, "mixed": (0, 1, 3)[i % 3]}[family]
        if kind == 0:
            point = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15), 0.0])
            normal = _tilted(rng, [0.0, 0.0, 1.0], 0.1)
        elif kind in (1, 2):
            side = 1.0 if kind == 1 else -1.0
            point = np.array([-0.4 * side, rng.uniform(-0.3, 0.3), rng.uniform(0.2, 1.2)])
            normal = _tilted(rng, [side, 0.0, 0.0], 0.1)
        else:
            point = rng.uniform([-0.4, -0.4, 0.6], [0.4, 0.4, 1.4])
            normal = _tilted(rng, rng.normal(size=3), 0.0)
        items.append(_contact(rng, point, normal, mu, sides))
    return contacts.ContactConfiguration(tuple(items))


def _query(rng):
    return contacts.MotionQuery(rng.normal(size=3) * 2.5, rng.normal(size=3) * 4.0)


def _w6(body, query, com):
    force = body.mass * (np.asarray(query.com_accel) - body.gravity)
    return np.concatenate([force, query.angular_momentum_rate])


def _stance_cells(count, n_range):
    """Fixed (family, contacts, sides, mu) make-up: families and mu values in
    equal shares, contact and side counts from a fixed stream."""
    rng = np.random.default_rng([CELL_STREAM, n_range[0]])
    return [
        (FAMILIES[i % 3], int(rng.integers(*n_range)), int(rng.integers(3, 9)), MU_VALUES[(i // 3) % 4])
        for i in range(count)
    ]


# ---------------------------------------------------------------- workloads


class StanceSwitch:
    """Per stance: classify, build W when constrained, one pinned-moment
    acceleration query.  Verdict output: (constrained, feasible)."""

    name = "stance_switch"
    STANCES = 160  # 1-16 contacts; contacts from a fixed stream, CoM and query from --seed
    FIXTURES = ("simplex_cycling", "frictionless_opposed")

    def setup(self, seed):
        rng = np.random.default_rng([seed, 1])
        fixed = np.random.default_rng(STANCE_STREAM)
        ops = []
        for family, n, sides, mu in _stance_cells(self.STANCES, (1, 17)):
            config = make_stance(fixed, family, n, sides, mu)
            com = rng.uniform([-0.05, -0.05, 0.7], [0.05, 0.05, 0.9])
            ops.append((f"{family}-{n}x{sides}-mu{mu}", config, com, _query(rng)))
        for name in self.FIXTURES:
            scene = scenes.load_scene(FIXTURES / f"{name}.json")
            ops.append((name, scene.config, scene.com, _query(rng)))
        self.ops = ops

    def execute(self, op):
        _, config, com, query = op
        try:
            cls = feasibility.classify(config, com)
            matrix = wcm.build_wcm(config, com, cls.witness) if cls.constrained else None
            feasible = wcm.acceleration_feasible(cls, matrix, BODY, query, com)
        except Exception as exc:  # a program fault is a failed operation
            return Failure(f"{type(exc).__name__}: {exc}")
        return (cls.constrained, feasible, cls.witness)

    @staticmethod
    def key(out):
        return failure_key(out) or out[:2]

    @staticmethod
    def flip(out):
        return (out[0], not out[1], out[2])

    def check(self, outs):
        results = []
        for (label, config, com, query), out in zip(self.ops, outs):
            if isinstance(out, Failure):
                results.append(Judged(f"raised {out.kind}", None, ()))
                continue
            constrained, feasible, witness = out
            cone = checker.Cone(checker.raw_contacts(config), com)
            violations = []
            if cone.force_cone_is_r3() == constrained:
                results.append(Judged("wrong classification", feasible, ()))
                continue
            if constrained and not cone.witness_ok(witness):
                violations.append(f"{label}: witness not strictly inside every dual cone")
            truth = cone.verdict(_w6(BODY, query, com))
            if truth is None:
                results.append(Judged("band", feasible, violations))
            else:
                results.append(Judged(None if truth == feasible else "wrong query verdict", feasible, violations))
        return results


class TrajectoryDense:
    """W built once per traverse phase at its scene CoM; per CoM sample:
    required_wrench, shift_wcm from the phase anchor, wrench_feasible."""

    name = "trajectory_dense"
    SAMPLES = 100  # per phase
    REBUILD_EVERY = 10  # shift-vs-rebuild property on every tenth sample

    def setup(self, seed):
        rng = np.random.default_rng([seed, 2])
        self.phases = []
        ops = []
        for k, name in enumerate(TRAVERSE):
            scene = scenes.load_scene(scenes.bundled_path(name))
            cls = feasibility.classify(scene.config, scene.com)
            matrix = wcm.build_wcm(scene.config, scene.com, cls.witness)
            self.phases.append((scene, cls.witness, matrix))
            # A smooth seeded path around the phase CoM.
            t = np.linspace(0.0, 1.0, self.SAMPLES)[:, None]
            amp = rng.uniform(0.02, 0.12, size=3)
            freq = rng.uniform(0.5, 2.0, size=3)
            phase = rng.uniform(0.0, 2.0 * math.pi, size=3)
            path = scene.com + amp * np.sin(2.0 * math.pi * freq * t + phase)
            accel = rng.normal(size=(self.SAMPLES, 3)) * 3.0
            l_dot = rng.normal(size=(self.SAMPLES, 3)) * 3.0
            for com, a, l in zip(path, accel, l_dot):
                ops.append((k, scene.body, com, contacts.MotionQuery(a, l), matrix))
        self.ops = ops

    def execute(self, op):
        _, body, com, query, matrix = op
        try:
            wrench = contacts.required_wrench(body, query, com)
            moved = wcm.shift_wcm(matrix, com - matrix.anchor)
            return wcm.wrench_feasible(moved, wrench)
        except Exception as exc:  # a program fault is a failed operation
            return Failure(f"{type(exc).__name__}: {exc}")

    @staticmethod
    def key(out):
        return failure_key(out) or out

    @staticmethod
    def flip(out):
        return not out

    def check(self, outs):
        results = []
        for i, ((k, body, com, query, _), out) in enumerate(zip(self.ops, outs)):
            if isinstance(out, Failure):
                results.append(Judged(f"raised {out.kind}", None, ()))
                continue
            scene, witness, _ = self.phases[k]
            w6 = _w6(body, query, com)
            truth = checker.Cone(checker.raw_contacts(scene.config), com).verdict(w6)
            violations = []
            if truth is not None and i % self.REBUILD_EVERY == 0:
                rebuilt = wcm.build_wcm(scene.config, com, witness)
                if wcm.wrench_feasible(rebuilt, contacts.Wrench(w6[:3], w6[3:], com)) != out:
                    violations.append(f"sample {i}: shifted and rebuilt W disagree")
            if truth is None:
                results.append(Judged("band", out, violations))
            else:
                results.append(Judged(None if truth == out else "wrong verdict", out, violations))
        return results


class OracleVerify:
    """One membership LP per operation on benchmark-made wrenches (forces on
    scenes whose force cone is all of R^3)."""

    name = "oracle_verify"
    SCENES = ("flat_foot", "two_walls", "two_walls_feet", "two_walls_hands") + TRAVERSE
    # Targets per kind on a constrained scene: inside, far outside, and
    # straddle pairs (2 each); forces per unconstrained scene.  With these
    # shares the median operation lies inside the dense cluster of
    # constrained-scene solves rather than at its edge.
    PER_SCENE = 16
    STRADDLE = 1e-3  # relative distance of a straddle pair from the boundary

    def setup(self, seed):
        rng = np.random.default_rng([seed, 3])
        ops = []
        for name in self.SCENES:
            scene = scenes.load_scene(scenes.bundled_path(name))
            gen = contacts.build_generating_matrices(scene.config, scene.com)
            cone = checker.Cone(checker.raw_contacts(scene.config), scene.com)
            if cone.force_cone_is_r3():
                weight = scene.body.mass * 9.81
                for f in rng.normal(size=(self.PER_SCENE, 3)) * weight:
                    ops.append((name, gen, f, cone))
                continue
            g = cone.stacked
            targets = [g @ rng.exponential(size=g.shape[1]) for _ in range(self.PER_SCENE)]
            targets += [-(g @ rng.exponential(size=g.shape[1])) for _ in range(self.PER_SCENE)]
            while len(targets) < 4 * self.PER_SCENE:
                base = g @ rng.exponential(size=g.shape[1])
                direction = rng.normal(size=6)
                direction *= np.linalg.norm(base) / np.linalg.norm(direction)
                t = checker.boundary_step(cone, base, direction)
                if t is not None:
                    targets += [base + t * (1.0 - self.STRADDLE) * direction, base + t * (1.0 + self.STRADDLE) * direction]
            for w6 in targets:
                ops.append((name, gen, contacts.Wrench(w6[:3], w6[3:], scene.com), cone))
        self.ops = ops

    def execute(self, op):
        _, gen, target, _ = op
        try:
            if isinstance(target, np.ndarray):
                return oracle.force_membership_lp(gen, target)
            return oracle.wrench_membership_lp(gen, target)
        except Exception as exc:  # a program fault is a failed operation
            return Failure(f"{type(exc).__name__}: {exc}")

    @staticmethod
    def key(out):
        return failure_key(out) or out.feasible

    @staticmethod
    def flip(out):
        return oracle.MembershipVerdict(not out.feasible, out.coefficients)

    def check(self, outs):
        results = []
        for (name, _, target, cone), out in zip(self.ops, outs):
            if isinstance(out, Failure):
                results.append(Judged(f"raised {out.kind}", None, ()))
                continue
            vec = target if isinstance(target, np.ndarray) else target.as_array()
            violations = []
            if out.feasible and not cone.coefficients_ok(out.coefficients, vec):
                violations.append(f"{name}: coefficients negative or not reproducing the target")
            truth = cone.verdict(vec)
            if truth is None:
                results.append(Judged("band", out.feasible, violations))
            else:
                results.append(Judged(None if truth == out.feasible else "wrong verdict", out.feasible, violations))
        return results


class CliScenario:
    """``wrenchfeas scenario <file>`` in-process, stdout captured, on both
    bundled scenarios and seeded scenario files written at set-up."""

    name = "cli_scenario"
    BUNDLED = ("climbing_scenario", "traverse_scenario")
    SEEDED = 98  # scenario files; with the 2 bundled, about ten of 100 lie beyond p90
    PHASES = 2  # per seeded file
    SAMPLES = 5  # CoM samples per seeded phase

    def setup(self, seed):
        rng = np.random.default_rng([seed, 4])
        fixed = np.random.default_rng([STANCE_STREAM, 4])
        cells = _stance_cells(self.SEEDED * self.PHASES, (1, 9))
        work = WORK_DIR / f"cli_scenario-seed{seed}"
        work.mkdir(parents=True, exist_ok=True)
        ops = [(name, str(scenes.bundled_path(name))) for name in self.BUNDLED]
        for s in range(self.SEEDED):
            phases = []
            for p in range(self.PHASES):
                family, n, sides, mu = cells[s * self.PHASES + p]
                config = make_stance(fixed, family, n, sides, mu)
                com0 = fixed.uniform([-0.05, -0.05, 0.7], [0.05, 0.05, 0.9])
                samples = []
                for j in range(self.SAMPLES):
                    q = _query(rng)
                    samples.append({
                        "t": 0.1 * j,
                        "com": (com0 + rng.uniform(-0.05, 0.05, size=3)).tolist(),
                        "accel": q.com_accel.tolist(),
                        "l_dot": q.angular_momentum_rate.tolist(),
                    })
                scene = scenes.Scene(BODY, com0, config)
                phases.append({"name": f"p{p}-{family}", "scene": scenes.scene_to_dict(scene), "com_trajectory": samples})
            path = work / f"scenario_{s:02d}.json"
            path.write_text(json.dumps({"phases": phases}), encoding="utf-8")
            ops.append((path.name, str(path)))
        self.ops = ops

    def execute(self, op):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(["scenario", op[1]])
        except Exception as exc:  # a program fault is a failed operation
            return Failure(f"{type(exc).__name__}: {exc}")
        return (code, buf.getvalue())

    @staticmethod
    def key(out):
        if isinstance(out, Failure):
            return failure_key(out)
        report = json.loads(out[1])
        return (
            out[0],
            tuple(p["classification"] for p in report["phases"]),
            tuple(t["feasible"] for t in report["timeline"]),
        )

    @staticmethod
    def flip(out):
        report = json.loads(out[1])
        report["timeline"][0]["feasible"] = not report["timeline"][0]["feasible"]
        return (out[0], json.dumps(report))

    def check(self, outs):
        results = []
        for (label, path), out in zip(self.ops, outs):
            if isinstance(out, Failure):
                results.append(Judged(f"raised {out.kind}", None, ()))
                continue
            code, text = out
            report = json.loads(text)
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            problem, band, verdicts = None, False, []
            for phase, row in zip(data["phases"], report["phases"]):
                raw = phase["scene"]
                if isinstance(raw, str):
                    raw = json.loads((Path(path).parent / raw).read_text(encoding="utf-8"))
                items = checker.raw_contacts_from_json(raw["contacts"])
                body = contacts.RigidBodyParams(raw["mass"], np.asarray(raw["gravity"], dtype=float))
                r3 = checker.Cone(items, raw["com"]).force_cone_is_r3()
                if (row["classification"] == "constrained") == r3:
                    problem = problem or f"{label}: wrong classification of {phase['name']}"
                for sample, entry in zip(phase["com_trajectory"], (t for t in report["timeline"] if t["phase"] == phase["name"])):
                    cone = checker.Cone(items, sample["com"])
                    force = body.mass * (np.asarray(sample["accel"]) - body.gravity)
                    if "l_dot" in sample:
                        truth = cone.verdict(np.concatenate([force, sample["l_dot"]]))
                    else:
                        truth = cone.verdict(force)  # documented meaning: any moment
                    verdicts.append(entry["feasible"])
                    if truth is None:
                        band = True
                    elif truth != entry["feasible"]:
                        problem = problem or f"{label}: wrong verdict at t={sample['t']} of {phase['name']}"
            violations = []
            if len(verdicts) != len(report["timeline"]):
                violations.append(f"{label}: timeline has {len(report['timeline'])} entries, expected {len(verdicts)}")
            if code != (0 if all(verdicts) else 1):
                violations.append(f"{label}: exit code {code} does not match the timeline")
            status = problem or ("band" if band else None)
            results.append(Judged(status, tuple(verdicts), violations))
        return results


WORKLOADS = {w.name: w for w in (StanceSwitch, TrajectoryDense, OracleVerify, CliScenario)}
