"""Independent correctness checker for the benchmark.

Nothing here calls the package's simplex, hull or generator assembly.  The
pyramid edges and moment arms are rebuilt from the raw contact data (point,
rotation, mu, sides) following the documented edge formula, and membership in
the generated cone is decided by ``scipy.optimize.linprog(method="highs")``.

A membership verdict is judged only outside a boundary band: the wrench is
moved by ``BAND * (1 + |w|)`` along a unit direction strictly inside the cone,
once inwards and once outwards.  If both moved wrenches get the same HiGHS
verdict, that verdict is the truth for the wrench itself (cones are closed
under addition); if they differ, the wrench lies within the band and its
verdict is not judged.
"""

import math

import numpy as np
from scipy.optimize import linprog

BAND = 1e-6
# Relative tolerance for properties of returned coefficients and witnesses.
PROPERTY_TOL = 1e-7


def rotation_from_normal(normal):
    """Contact frame completed from a surface normal, as documented for scene
    files: local x is world x projected onto the tangent plane (world y when
    the normal is within 1e-6 of +/-x), local z is the normal."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    ref = np.array([1.0, 0.0, 0.0])
    if min(np.linalg.norm(n - ref), np.linalg.norm(n + ref)) < 1e-6:
        ref = np.array([0.0, 1.0, 0.0])
    t = ref - (ref @ n) * n
    t /= np.linalg.norm(t)
    return np.column_stack([t, np.cross(n, t), n])


def raw_contacts(config):
    """(point, rotation, mu, sides) tuples from a parsed configuration."""
    return [
        (np.array(c.point), np.array(c.rotation), float(c.cone.mu), int(c.cone.sides))
        for c in config.contacts
    ]


def raw_contacts_from_json(items):
    """(point, rotation, mu, sides) tuples from scene-file contact objects."""
    out = []
    for item in items:
        if "rotation" in item:
            rot = np.asarray(item["rotation"], dtype=float).reshape(3, 3)
        else:
            rot = rotation_from_normal(item["normal"])
        out.append((np.asarray(item["point"], dtype=float), rot, float(item["mu"]), int(item["sides"])))
    return out


class Cone:
    """The 6-D wrench cone and 3-D force cone of a contact set about ``com``."""

    def __init__(self, contacts, com):
        com = np.asarray(com, dtype=float)
        forces, moments = [], []
        for point, rot, mu, sides in contacts:
            for i in range(1, sides + 1):
                ang = 2.0 * math.pi * (i - 0.5) / sides
                edge = rot @ np.array([mu * math.cos(ang), mu * math.sin(ang), 1.0])
                forces.append(edge)
                moments.append(np.cross(point - com, edge))
        self.forces = np.array(forces).T
        self.stacked = np.vstack([self.forces, np.array(moments).T])
        self._interior = {6: _interior(self.stacked), 3: _interior(self.forces)}

    def _matrix(self, dim):
        return self.stacked if dim == 6 else self.forces

    def reachable(self, target) -> bool:
        """Plain HiGHS membership: target = G a with a >= 0."""
        target = np.asarray(target, dtype=float)
        g = self._matrix(target.size)
        res = linprog(np.zeros(g.shape[1]), A_eq=g, b_eq=target, bounds=(0, None), method="highs")
        if res.status not in (0, 2):
            raise RuntimeError(f"HiGHS membership returned status {res.status}: {res.message}")
        return res.status == 0

    def verdict(self, target):
        """True / False outside the boundary band, None inside it."""
        target = np.asarray(target, dtype=float)
        step = BAND * (1.0 + np.linalg.norm(target)) * self._interior[target.size]
        if self.reachable(target - step):
            return True
        if not self.reachable(target + step):
            return False
        return None

    def force_cone_is_r3(self) -> bool:
        """Unconstrained means every total force is reachable: +/- e_k all are."""
        return all(self.reachable(sign * e) for e in np.eye(3) for sign in (1.0, -1.0))

    def witness_ok(self, witness) -> bool:
        """A constrained witness has a strictly positive dot with every force generator."""
        v = np.asarray(witness, dtype=float)
        dots = v @ self.forces
        return bool(np.all(dots > PROPERTY_TOL * np.linalg.norm(v) * np.linalg.norm(self.forces, axis=0)))

    def coefficients_ok(self, coeffs, target) -> bool:
        """Feasible-membership coefficients are >= 0 and reproduce the target."""
        target = np.asarray(target, dtype=float)
        g = self._matrix(target.size)
        a = np.asarray(coeffs, dtype=float)
        if a.shape != (g.shape[1],):
            return False
        scale = 1.0 + np.linalg.norm(target) + np.linalg.norm(g, axis=0) @ np.abs(a)
        return bool(a.min() >= -PROPERTY_TOL * scale and np.linalg.norm(g @ a - target) <= PROPERTY_TOL * scale)


def boundary_step(cone, base, direction):
    """Largest t with base + t * direction in the 6-D cone (HiGHS), or None
    when the ray never leaves the cone."""
    g = cone.stacked
    n = g.shape[1]
    objective = np.zeros(n + 1)
    objective[-1] = -1.0
    res = linprog(
        objective,
        A_eq=np.hstack([g, -direction.reshape(-1, 1)]),
        b_eq=base,
        bounds=(0, None),
        method="highs",
    )
    if res.status == 3:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS boundary LP returned status {res.status}: {res.message}")
    return float(res.x[-1])


def _interior(g):
    # Sum of unit columns: a nonnegative combination of every generator, so it
    # lies in the relative interior of the cone they generate.  It vanishes
    # only when the cone is a linear subspace, which has no boundary inside
    # its span, so no band is needed there.
    c = (g / np.linalg.norm(g, axis=0)).sum(axis=1)
    norm = np.linalg.norm(c)
    return c / norm if norm > 1e-12 * g.shape[1] else np.zeros_like(c)
