"""Construction and use of the linear wrench constraint matrix (WCM).

For a constrained configuration (one whose dual cones share a nonzero
direction ``v``), every achievable wrench lies in a polyhedral cone that can
be written as ``W @ [force; moment] >= 0`` for a k x 6 row matrix ``W``.  The
construction:

1. Rotate the scene so the witness direction becomes the z-axis and rescale
   every generator column so its normal force component is exactly one.  The
   rescaling only moves points along their own rays, so the generated cone is
   unchanged.
2. Any achievable wrench with positive normal force is then, after dividing
   by that normal force, a convex combination of the rescaled generator
   columns with the normal-force row removed: a point that must lie in the
   convex hull of those columns, viewed as points in 5-D.
3. Each hull facet (and each equality, for flat clouds, as a +/- row pair)
   turns into one homogeneous inequality on the full 6-D wrench, plus one
   extra row asserting nonnegative normal force along the witness; rotating
   the rows back yields ``W`` in the world frame.

Once built for one anchor point, the matrix is re-anchored under a shift of
the reference point by a single 6x6 multiply, because a wrench about the new
point maps linearly to the same wrench about the old one.  That makes moving
the reference point vastly cheaper than rebuilding.
"""

import math
from dataclasses import dataclass

import numpy as np

from .contacts import (
    ContactConfiguration,
    GeneratingMatrices,
    MotionQuery,
    RigidBodyParams,
    Wrench,
    _as_vec3,
    _check_anchor,
    build_generating_matrices,
    required_wrench,
    rotation_aligning_z,
)
from .errors import WitnessOnBoundary
from .feasibility import Classification
from .hull import convex_hull
from .oracle import wrench_membership_lp

POSITIVITY_EPS = 1e-10
MEMBERSHIP_EPS = 1e-9
_IDENTITY6 = np.eye(6)
_ONES6 = np.ones(6)


@dataclass(frozen=True)
class ModifiedGenerators:
    """Witness-aligned, column-rescaled generators.  The third row of
    ``force_generators`` is exactly one; each column pair spans the same ray
    as the original pair rotated into the witness frame."""

    force_generators: np.ndarray
    moment_generators: np.ndarray
    rotation: np.ndarray


@dataclass(frozen=True)
class WrenchConstraintMatrix:
    """Row matrix ``rows`` with unit-norm rows: a wrench about ``anchor`` is
    achievable iff ``rows @ [force; moment] >= 0`` (to tolerance)."""

    rows: np.ndarray
    anchor: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 6 or rows.shape[0] < 1:
            raise ValueError(f"rows must be (k, 6) with k >= 1, got {rows.shape}")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=float))

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]


def modified_generators(gen: GeneratingMatrices, v) -> ModifiedGenerators:
    """Rotate generators into the witness frame and rescale each column so
    its normal component is one.

    Requires the witness to be strictly inside every dual cone; a touching
    witness would divide by (nearly) zero and signals that the classification
    step needs a second look.
    """
    v = np.asarray(v, dtype=float)
    v_norm = np.linalg.norm(v)
    rot = rotation_aligning_z(v)
    dots = v @ gen.force_generators
    col_norms = np.linalg.norm(gen.force_generators, axis=0)
    if np.any(dots <= POSITIVITY_EPS * v_norm * col_norms):
        worst = int(np.argmin(dots / np.maximum(col_norms, 1e-300)))
        raise WitnessOnBoundary(
            f"witness is not strictly inside the dual cone (column {worst}: "
            f"projection {dots[worst]:.3e})"
        )
    scale = v_norm / dots
    force = (rot @ gen.force_generators) * scale
    moment = (rot @ gen.moment_generators) * scale
    force[2, :] = 1.0  # exact by construction; the hull step relies on it
    return ModifiedGenerators(force, moment, rot)


def build_wcm(config: ContactConfiguration, com, v) -> WrenchConstraintMatrix:
    """Build the wrench constraint matrix for a constrained configuration
    about anchor ``com`` with witness ``v``."""
    gen = build_generating_matrices(config, com)
    mod = modified_generators(gen, v)
    points = np.vstack([mod.force_generators[:2], mod.moment_generators]).T
    hull = convex_hull(points)

    # A bound a . p >= w on the normalized 5-D point (fx, fy, mx, my, mz)/fz
    # multiplies through by fz > 0 into one homogeneous row on the wrench:
    # (a0, a1, -w, a2, a3, a4).  Equalities contribute a +/- row pair, and a
    # last row asserts nonnegative normal force.
    planes = np.vstack([hull.facets, hull.equalities, -hull.equalities])
    rows = np.vstack(
        [np.insert(planes[:, :-1], 2, -planes[:, -1], axis=1), [0, 0, 1, 0, 0, 0]]
    )

    frame = np.zeros((6, 6))
    frame[:3, :3] = mod.rotation
    frame[3:, 3:] = mod.rotation
    world_rows = rows @ frame
    world_rows /= np.linalg.norm(world_rows, axis=1, keepdims=True)
    return WrenchConstraintMatrix(world_rows, gen.anchor)


def shift_wcm(wcm: WrenchConstraintMatrix, delta) -> WrenchConstraintMatrix:
    """Re-anchor the matrix to ``anchor + delta`` with one 6x6 multiply.

    A wrench about the new point B maps to the same physical wrench about the
    old point A via moment_A = moment_B + delta x force, so composing the rows
    with that map yields the constraints expressed about B.
    """
    delta = _as_vec3(delta, "delta")
    dx, dy, dz = delta.tolist()
    # The identity with skew(delta) in the lower-left block.
    transfer = _IDENTITY6.copy()
    transfer[3, 1], transfer[3, 2] = -dz, dy
    transfer[4, 0], transfer[4, 2] = dz, -dx
    transfer[5, 0], transfer[5, 1] = -dy, dx
    rows = wcm.rows @ transfer
    # Row norms by a matrix-vector product: np.einsum costs more, most of all
    # on the first call after other work has evicted its code from cache.
    rows /= np.sqrt((rows * rows) @ _ONES6)[:, None]
    return WrenchConstraintMatrix(rows, wcm.anchor + delta)


def wrench_margin(wcm: WrenchConstraintMatrix, wrench: Wrench) -> float:
    """Smallest row activation; nonnegative (to tolerance) means achievable."""
    _check_anchor(wcm.anchor, wrench.about, "constraint matrix")
    return float((wcm.rows @ wrench.as_array()).min())


def _within_band(margin: float, wrench: Wrench) -> bool:
    scale = 1.0 + math.hypot(*wrench.force.tolist(), *wrench.moment.tolist())
    return margin >= -MEMBERSHIP_EPS * scale


def wrench_feasible(wcm: WrenchConstraintMatrix, wrench: Wrench) -> bool:
    """Membership test ``rows @ [force; moment] >= 0`` with a relative band."""
    return _within_band(wrench_margin(wcm, wrench), wrench)


def acceleration_verdict(
    classification: Classification,
    wcm: WrenchConstraintMatrix | None,
    body: RigidBodyParams,
    query: MotionQuery,
    com,
) -> tuple[bool, float | None]:
    """Can the contacts support the queried motion of the center of mass?
    Returns the verdict and the required wrench's margin against ``wcm``.

    Constrained configurations check that wrench against ``wcm``.
    Unconstrained ones admit every total force, so a query that does not pin
    the angular momentum rate is feasible, with no margin; a pinned one goes
    to the membership oracle, since arbitrary force does not by itself give
    an arbitrary moment.  ``wcm``, or else the classification's generators,
    must be anchored at ``com``.
    """
    if classification.constrained:
        if wcm is None:
            raise ValueError(
                "constrained configuration: a wrench constraint matrix is required"
            )
        wrench = required_wrench(body, query, com)
        margin = wrench_margin(wcm, wrench)
        return _within_band(margin, wrench), margin
    if query.angular_momentum_rate is None:
        return True, None
    gen = classification.generating
    _check_anchor(gen.anchor, np.asarray(com, dtype=float), "classification")
    return wrench_membership_lp(gen, required_wrench(body, query, com)).feasible, None


def acceleration_feasible(classification, wcm, body, query, com) -> bool:
    """The verdict of ``acceleration_verdict``, without the margin."""
    return acceleration_verdict(classification, wcm, body, query, com)[0]
