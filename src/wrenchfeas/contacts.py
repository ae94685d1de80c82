"""Contact geometry and span-form generators for multi-contact wrench analysis.

Conventions used throughout the package:

* Positions are world-frame meters, forces newtons, moments newton-meters.
* A contact's ``rotation`` maps its local frame to the world frame; the local
  z-axis is the surface normal pointing from the surface toward the supported
  body, i.e. the direction in which the surface can push.
* Moments are always taken about an explicitly stated anchor point.  Contacts
  store absolute positions; moment arms are formed only when the generating
  matrices are built, so the same contacts can be re-anchored freely.

All types are immutable after construction (arrays are marked read-only) and
all operations are pure functions, so concurrent reads are safe.  Types that
hold arrays compare and hash by identity; ``FrictionCone``, two numbers,
compares by value.
"""

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AnchorMismatch, ZeroVector
from .simplex import PreparedMatrix, prepare

ORTHONORMAL_TOL = 1e-10
ANCHOR_TOL = 1e-12
# Largest component of a direction (a normal, a witness): its squared norm
# stays finite below it.
MAX_DIRECTION = 1e150
# Largest friction coefficient: beyond it the pyramid's edges lie so near the
# tangent plane that classification no longer resolves the cone (a single
# contact reads unconstrained from about 1e10, and overflows at 1e200).
MAX_MU = 1e6
# Most pyramid sides: far more than any friction model needs, and small
# enough that a contact's generator arrays stay small.
MAX_SIDES = 64
_ZERO3 = np.zeros(3)
_ZERO3.setflags(write=False)


def _as_vec3(value, name: str) -> np.ndarray:
    v = np.array(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    return _freeze_finite(v, name)


def _freeze_finite(v: np.ndarray, name: str) -> np.ndarray:
    # Scalar checks: a numpy reduction costs several times more on 3 entries.
    x, y, z = v.tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"{name} must have finite components")
    v.setflags(write=False)
    return v


def _check_anchor(anchor: np.ndarray, about: np.ndarray, what: str):
    # Written so that a NaN anywhere fails the comparison.
    if not math.dist(anchor.tolist(), about.tolist()) <= ANCHOR_TOL:
        raise AnchorMismatch(f"{what} anchored at {anchor}, not at {about}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _unchecked(cls, **fields):
    """A ``cls`` from fields the caller has already validated (read-only
    finite arrays); skips the copies and checks of ``__init__``."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, eq=False)
class Wrench:
    """A force/moment pair together with the point the moment is taken about."""

    force: np.ndarray
    moment: np.ndarray
    about: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "force", _as_vec3(self.force, "force"))
        object.__setattr__(self, "moment", _as_vec3(self.moment, "moment"))
        object.__setattr__(self, "about", _as_vec3(self.about, "about"))

    def as_array(self) -> np.ndarray:
        """Stacked 6-vector [force; moment]."""
        return np.concatenate([self.force, self.moment])


@dataclass(frozen=True)
class FrictionCone:
    """Pyramid approximation of a Coulomb friction cone.

    ``mu`` is the friction coefficient and ``sides`` the number of pyramid
    edges.  Three sides is the smallest full-dimensional approximation.
    ``mu == 0`` is accepted and degenerates the pyramid to the normal ray,
    one generator whatever ``sides`` says (``sides`` is still checked and
    kept); ``mu`` above ``MAX_MU`` and ``sides`` above ``MAX_SIDES`` are
    rejected.
    """

    mu: float
    sides: int

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu >= 0.0):
            raise ValueError("mu must be finite and >= 0")
        if self.mu > MAX_MU:
            raise ValueError(
                f"mu of {self.mu:g} exceeds {MAX_MU:g}, "
                "beyond which the contact's friction cone cannot be classified"
            )
        # The range test first: it is False for NaN and rejects infinities,
        # which int() could not convert.
        if not 3 <= self.sides <= MAX_SIDES or int(self.sides) != self.sides:
            raise ValueError(f"sides must be an integer in [3, {MAX_SIDES}], got {self.sides}")
        object.__setattr__(self, "sides", int(self.sides))


@dataclass(frozen=True, eq=False)
class Contact:
    """One unilateral frictional point contact."""

    point: np.ndarray
    rotation: np.ndarray
    cone: FrictionCone

    def __post_init__(self):
        object.__setattr__(self, "point", _as_vec3(self.point, "point"))
        r = np.array(self.rotation, dtype=float)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
        # Scalar checks on the nine entries cost less than numpy's on a 3x3.
        (a, b, c), (d, e, f), (g, h, i) = rows = r.tolist()
        if not all(map(math.isfinite, rows[0] + rows[1] + rows[2])):
            raise ValueError("rotation must have finite entries")
        # The six distinct entries of r^T r - I, diagonal first: those are
        # never NaN, and +inf whenever an off-diagonal product overflows.
        gram = (a * a + d * d + g * g - 1.0, b * b + e * e + h * h - 1.0,
                c * c + f * f + i * i - 1.0, a * b + d * e + g * h,
                a * c + d * f + g * i, b * c + e * f + h * i)
        if max(map(abs, gram)) > ORTHONORMAL_TOL:
            raise ValueError("rotation must be orthonormal")
        if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) < 0.0:
            raise ValueError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", _freeze(r))

    @property
    def normal(self) -> np.ndarray:
        """World-frame surface normal (direction the surface pushes)."""
        return self.rotation[:, 2]


@dataclass(frozen=True, eq=False)
class ContactConfiguration:
    """An ordered set of contacts acting on the same body.

    The anchor-independent geometry is computed once, at construction:
    ``edges`` (3 x n) stacks every contact's world-frame ``cone_generators``
    as columns, contact by contact (``sides`` pyramid edges, or the one
    normal ray of a frictionless contact), and ``column_points`` (3 x n)
    holds the point of the contact each column belongs to.  Both are
    read-only and take no part in ``repr``.
    """

    contacts: tuple
    edges: np.ndarray = field(init=False, repr=False, compare=False)
    column_points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        contacts = tuple(self.contacts)
        if not contacts:
            raise ValueError("a contact configuration needs at least one contact")
        points = np.array([c.point for c in contacts])
        rotations = np.array([c.rotation for c in contacts])
        # Float keys compare as == does: -0.0 and 0.0 are the same key.
        earlier = {}
        for i, (p, r) in enumerate(zip(points.tolist(), rotations.reshape(-1, 9).tolist())):
            key = tuple(p + r)
            for _ in range(earlier.get(key, 0)):  # one warning per earlier twin
                warnings.warn(
                    f"duplicate contact at index {i}: same point and rotation "
                    "(redundant, not invalid)",
                    stacklevel=2,
                )
            earlier[key] = earlier.get(key, 0) + 1
        object.__setattr__(self, "contacts", contacts)

        # Contact by contact, its cone's edges rotated into the world frame;
        # each contact owns as many columns as its cached edge block has.
        blocks = [_cone_edges(c.cone) for c in contacts]
        counts = [block.shape[1] for block in blocks]
        owners = np.repeat(rotations, counts, axis=0)
        edges = np.einsum("kij,jk->ik", owners, np.hstack(blocks), order="C")
        object.__setattr__(self, "edges", _freeze(edges))
        column_points = np.repeat(points, counts, axis=0).T.copy()
        object.__setattr__(self, "column_points", _freeze(column_points))

    def __len__(self) -> int:
        return len(self.contacts)

    @property
    def n_generators(self) -> int:
        return self.edges.shape[1]


@dataclass(frozen=True, eq=False)
class GeneratingMatrices:
    """Span-form description of all wrenches the contacts can transmit.

    ``force_generators`` stacks the configuration's world-frame edges (see
    ``ContactConfiguration``) as columns; ``moment_generators`` holds the
    corresponding moment arms about ``anchor``.  Every transmissible wrench
    is a nonnegative column combination of the stacked 6-row matrix, which
    is formed once, at construction; both generator fields are read-only
    views of it.  The membership solves on the stacked and the force-only
    matrix are prepared (``simplex.prepare``) on first use and shared by
    every later solve; that cache takes no part in ``repr``.
    """

    force_generators: np.ndarray
    moment_generators: np.ndarray
    anchor: np.ndarray
    _stacked: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        f = np.asarray(self.force_generators, dtype=float)
        m = np.asarray(self.moment_generators, dtype=float)
        if f.shape != m.shape or f.ndim != 2 or f.shape[0] != 3:
            raise ValueError("generator matrices must both be 3 x n_columns")
        stacked = _freeze(np.vstack([f, m]))
        object.__setattr__(self, "force_generators", stacked[:3])
        object.__setattr__(self, "moment_generators", stacked[3:])
        object.__setattr__(self, "anchor", _as_vec3(self.anchor, "anchor"))
        object.__setattr__(self, "_stacked", stacked)

    @property
    def n_columns(self) -> int:
        return self._stacked.shape[1]

    def stacked(self) -> np.ndarray:
        """6 x n matrix with force generators over moment generators
        (read-only)."""
        return self._stacked

    # Threads that race on first use each prepare an identical problem.
    @functools.cached_property
    def stacked_prepared(self) -> PreparedMatrix:
        """``stacked()`` prepared for NNLS membership solves."""
        return prepare(self._stacked)

    @functools.cached_property
    def force_prepared(self) -> PreparedMatrix:
        """``force_generators`` prepared for NNLS membership solves."""
        return prepare(self.force_generators)


@dataclass(frozen=True, eq=False)
class RigidBodyParams:
    """Mass and gravity for the supported body."""

    mass: float
    gravity: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise ValueError("mass must be positive")
        object.__setattr__(self, "gravity", _as_vec3(self.gravity, "gravity"))


@dataclass(frozen=True, eq=False)
class MotionQuery:
    """A queried motion state: CoM acceleration plus, optionally, the rate of
    change of angular momentum.  ``angular_momentum_rate=None`` means the query
    does not constrain the moment."""

    com_accel: np.ndarray
    angular_momentum_rate: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "com_accel", _as_vec3(self.com_accel, "com_accel"))
        if self.angular_momentum_rate is not None:
            object.__setattr__(
                self,
                "angular_momentum_rate",
                _as_vec3(self.angular_momentum_rate, "angular_momentum_rate"),
            )


def cone_generators(cone: FrictionCone) -> np.ndarray:
    """Edge directions of the friction pyramid in the contact frame.

    Returns a 3 x sides matrix whose i-th column (1-based) is
    ``[mu*cos(2*pi*(i - 1/2)/m), mu*sin(2*pi*(i - 1/2)/m), 1]``.  The normal
    component is set to exactly 1.0; later normalization stages rely on that.
    A frictionless cone (``mu == 0``, -0.0 too) is the normal ray alone, so
    it gives the one column ``[0, 0, 1]``, not ``sides`` copies of it.
    """
    if cone.mu == 0.0:
        return np.array([[0.0], [0.0], [1.0]])
    ang = 2.0 * np.pi * (np.arange(cone.sides) + 0.5) / cone.sides
    u = np.empty((3, cone.sides))
    u[0] = cone.mu * np.cos(ang)
    u[1] = cone.mu * np.sin(ang)
    u[2] = 1.0
    return u


@functools.lru_cache(maxsize=256)
def _cone_edges(cone: FrictionCone) -> np.ndarray:
    """``cone_generators``, computed once per distinct cone; read-only."""
    return _freeze(cone_generators(cone))


def build_generating_matrices(
    config: ContactConfiguration, com
) -> GeneratingMatrices:
    """Assemble the stacked generator matrices for a configuration, anchored
    at ``com``: the configuration's world-frame pyramid edges ``e`` and, per
    column, the moment arm (contact point minus anchor) crossed with its edge,
    ``(p - com) x e``."""
    com = _as_vec3(com, "com")
    e = config.edges
    rx, ry, rz = config.column_points - com[:, None]
    # Forces over moments in one array, the layout GeneratingMatrices keeps;
    # its inputs are checked already, so its constructor's copy is skipped.
    stacked = np.empty((6, e.shape[1]))
    stacked[:3] = e
    stacked[3] = ry * e[2] - rz * e[1]
    stacked[4] = rz * e[0] - rx * e[2]
    stacked[5] = rx * e[1] - ry * e[0]
    _freeze(stacked)  # its row views below inherit the flag
    return _unchecked(
        GeneratingMatrices,
        force_generators=stacked[:3],
        moment_generators=stacked[3:],
        anchor=com,
        _stacked=stacked,
    )


def required_wrench(body: RigidBodyParams, query: MotionQuery, com) -> Wrench:
    """Total contact wrench needed to realize the queried motion.

    Force balance gives ``force = mass * (accel - gravity)``; the moment equals
    the angular momentum rate (zero when the query leaves it unspecified).
    ``com`` is validated here, and the force checked for overflow; the other
    inputs were validated when the body and query were built.
    """
    com = _as_vec3(com, "com")
    # On floats, numpy's elementwise operations in the same order, so the
    # same bits; an overflow gives inf here with no numpy warning.
    (ax, ay, az), (gx, gy, gz), mass = query.com_accel.tolist(), body.gravity.tolist(), body.mass
    fx, fy, fz = mass * (ax - gx), mass * (ay - gy), mass * (az - gz)
    if not (math.isfinite(fx) and math.isfinite(fy) and math.isfinite(fz)):
        raise ValueError("force must have finite components")
    force = _freeze(np.array((fx, fy, fz)))
    moment = _required_moment(query.angular_momentum_rate)
    return _unchecked(Wrench, force=force, moment=moment, about=com)


def _required_moment(l_dot):
    """The required moment: the angular momentum rate, zero when the query
    leaves it unspecified."""
    return _ZERO3 if l_dot is None else l_dot


def _direction(value, name: str):
    """``value`` as a float 3-vector, and its norm, once it is checked to be
    a direction: finite, no component beyond ``MAX_DIRECTION`` and a norm
    above 1e-12.  Otherwise a ``ValueError`` naming ``name``, raised before
    any arithmetic that could overflow."""
    v = _as_vec3(value, name)
    largest = max(map(abs, v.tolist()))
    if largest > MAX_DIRECTION:
        raise ValueError(
            f"a {name} component of {largest:g} exceeds {MAX_DIRECTION:g}, "
            "beyond which its squared norm overflows"
        )
    norm = math.sqrt(v.dot(v))  # np.linalg.norm's formula, without its overhead
    if norm <= 1e-12:
        raise ZeroVector(f"{name} must be a nonzero vector")
    return v, norm


def rotation_from_normal(normal) -> np.ndarray:
    """Complete a surface normal to a full contact rotation.

    The local x-axis is the world x-axis projected onto the tangent plane,
    falling back to world y when the normal is within 1e-3 of +/-x; this
    fixes the pyramid edge orientation so scenes rebuild identically.  The
    normal must be a finite 3-vector with no component beyond
    ``MAX_DIRECTION`` and a norm above 1e-12.
    """
    n, norm = _direction(normal, "normal")
    return _complete_frame(n / norm)


def _complete_frame(n: np.ndarray) -> np.ndarray:
    """``rotation_from_normal`` of the checked unit normal ``n``."""
    # |n -/+ x|^2 = 2 - 2|n_x|: nearer +/-x, projecting x cancels too many digits.
    near_x = 1.0 - abs(n[0]) < 5e-7
    reference = np.array([0.0, 1.0, 0.0] if near_x else [1.0, 0.0, 0.0])
    tangent = reference - (reference @ n) * n
    tangent /= math.sqrt(tangent.dot(tangent))
    # Columns tangent, n x tangent (np.cross's products, on floats) and n.
    (t0, t1, t2), (n0, n1, n2) = tangent.tolist(), n.tolist()
    b0, b1, b2 = n1 * t2 - n2 * t1, n2 * t0 - n0 * t2, n0 * t1 - n1 * t0
    return np.array([[t0, b0, n0], [t1, b1, n1], [t2, b2, n2]])


def rotation_aligning_z(v) -> np.ndarray:
    """Rotation R with R @ (v/|v|) == (0, 0, 1), orthonormal, det +1.

    The transpose of ``rotation_from_normal(v)``: its angle about ``v`` is
    arbitrary, and the wrench constraint matrix does not depend on it.
    """
    return rotation_from_normal(v).T
