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
3. Each hull facet ``a . p >= w`` (and each equality, for flat clouds, as a
   +/- row pair) turns into one homogeneous row ``a @ P - w v`` on the world
   wrench, where the rows of P give a wrench's five cloud coordinates in the
   witness frame and v is the unit witness on the force.  One extra row, v,
   asserts nonnegative normal force along the witness.

Once built for one anchor point, the matrix is re-anchored under a shift of
the reference point by a single 6x6 multiply, because a wrench about the new
point maps linearly to the same wrench about the old one.  That makes moving
the reference point vastly cheaper than rebuilding.  A whole path of CoM
samples needs no shifted matrix at all: ``trajectory_verdicts`` maps each
sample's wrench back to the build anchor and answers the path in one batched
product.  It is the one query path: ``acceleration_verdict`` is that call on
a single sample at the anchor.

The comparison against the membership oracle lives here too:
``compare_wcm_oracle`` reads ``W`` through ``wrench_verdicts``, and its
boundary-band rule, ``agreement_tally``, is the one ``wrenchfeas shift`` uses.
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
    _direction,
    _freeze,
    _required_moment,
    _unchecked,
    build_generating_matrices,
    rotation_aligning_z,
)
from .errors import WitnessOnBoundary
from .feasibility import Classification
from .hull import convex_hull
from .oracle import _straddle_pair, wrench_membership_lp

POSITIVITY_EPS = 1e-10
# The band of every verdict read from a constraint matrix: a wrench w with
# margin at least -MEMBERSHIP_EPS * (1 + |w|) is feasible.
MEMBERSHIP_EPS = 1e-9
# Relative width of the boundary band in which two verdicts on one wrench may
# differ: |margin| <= BOUNDARY_BAND * (1 + |w|).
BOUNDARY_BAND = 1e-7
# Largest shift component: the shifted rows' squared norms stay finite below it.
MAX_SHIFT = 1e150
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
    achievable iff ``rows @ [force; moment] >= 0`` (to tolerance).

    The constructor keeps read-only copies of both arrays, so the caller's
    arrays stay writable and a later write to them moves nothing here.
    """

    rows: np.ndarray
    anchor: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 6 or rows.shape[0] < 1:
            raise ValueError(f"rows must be (k, 6) with k >= 1, got {rows.shape}")
        object.__setattr__(self, "rows", _freeze(rows))
        object.__setattr__(self, "anchor", _freeze(np.array(self.anchor, dtype=float)))

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]


def modified_generators(gen: GeneratingMatrices, v) -> ModifiedGenerators:
    """Rotate generators into the witness frame and rescale each column so
    its normal component is one.

    The witness must be a finite nonzero 3-vector with no component beyond
    ``contacts.MAX_DIRECTION`` (else ``ValueError``), strictly inside every
    dual cone; a touching witness would divide by (nearly) zero and signals
    that the classification step needs a second look.
    """
    v, v_norm = _direction(v, "witness")
    rot = rotation_aligning_z(v)
    f = gen.force_generators
    dots = v @ f
    col_norms = np.sqrt((f * f).sum(axis=0))  # np.linalg.norm's formula
    if np.any(dots <= POSITIVITY_EPS * v_norm * col_norms):
        worst = int(np.argmin(dots / np.maximum(col_norms, 1e-300)))
        raise WitnessOnBoundary(
            f"witness is not strictly inside the dual cone (column {worst}: "
            f"projection {dots[worst]:.3e})"
        )
    # One product rotates force and moment rows alike: the zero blocks of
    # the frame add exact zeros, so each entry keeps the 3 x n product's bits.
    stacked = (_frame(rot) @ gen.stacked()) * (v_norm / dots)
    stacked[2] = 1.0  # exact by construction; the hull step relies on it
    _freeze(stacked)  # its row views below inherit the flag
    return ModifiedGenerators(stacked[:3], stacked[3:], _freeze(rot))


def _frame(rot: np.ndarray) -> np.ndarray:
    """The 6 x 6 block diagonal of ``rot``: the rotation of a wrench."""
    frame = np.zeros((6, 6))
    frame[:3, :3] = rot
    frame[3:, 3:] = rot
    return frame


def build_wcm(config: ContactConfiguration, com, v) -> WrenchConstraintMatrix:
    """Build the wrench constraint matrix for a constrained configuration
    about anchor ``com`` with witness ``v``."""
    gen = build_generating_matrices(config, com)
    mod = modified_generators(gen, v)
    points = np.vstack([mod.force_generators[:2], mod.moment_generators]).T
    hull = convex_hull(points)

    # The normalized 5-D point (fx, fy, mx, my, mz)/fz of a world wrench u is
    # (P @ u) / (n . u), for P the frame's rows 0, 1, 3, 4, 5 and n its row 2
    # (v / |v| on the force).  So a bound a . p >= w multiplies through by
    # n . u > 0 into the world row a @ P - w n.  Equalities give a +/- row
    # pair, and a last row, n itself, asserts nonnegative normal force.
    frame = _frame(mod.rotation)
    lift, n = frame[[0, 1, 3, 4, 5]], frame[2:3]
    planes = np.concatenate([hull.facets, hull.equalities, -hull.equalities])
    rows = np.concatenate([planes[:, :5] @ lift - planes[:, 5:] * n, n])
    # np.linalg.norm's formula, without its overhead.
    rows /= np.sqrt((rows * rows).sum(axis=1))[:, None]
    # gen.anchor is read-only and owned by gen, which lives only in this call.
    return _unchecked(WrenchConstraintMatrix, rows=_freeze(rows), anchor=gen.anchor)


def shift_wcm(wcm: WrenchConstraintMatrix, delta) -> WrenchConstraintMatrix:
    """Re-anchor the matrix to ``anchor + delta`` with one 6x6 multiply.

    A wrench about the new point B maps to the same physical wrench about the
    old point A via moment_A = moment_B + delta x force, so composing the rows
    with that map yields the constraints expressed about B.  A component of
    ``delta`` beyond ``MAX_SHIFT`` is rejected: the shifted rows' norms could
    overflow.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (3,):
        raise ValueError(f"delta must be a 3-vector, got shape {delta.shape}")
    dx, dy, dz = delta.tolist()
    # One scalar test: NaN fails it as surely as a component beyond the bound.
    if not (abs(dx) <= MAX_SHIFT and abs(dy) <= MAX_SHIFT and abs(dz) <= MAX_SHIFT):
        if not (math.isfinite(dx) and math.isfinite(dy) and math.isfinite(dz)):
            raise ValueError("delta must have finite components")
        raise ValueError(_overflow_message(dx, dy, dz))
    # The identity with skew(delta) in the lower-left block.
    transfer = _IDENTITY6.copy()
    transfer[3, 1], transfer[3, 2] = -dz, dy
    transfer[4, 0], transfer[4, 2] = dz, -dx
    transfer[5, 0], transfer[5, 1] = -dy, dx
    # ``@``, not np.dot, for both products: np.dot gives the same bits and
    # skips a dispatch step, but right after a build has evicted its code
    # from cache its first call costs a few us more than ``@``.
    rows = wcm.rows @ transfer
    # Row norms by a matrix-vector product: np.einsum costs more, most of all
    # on the first call after other work has evicted its code from cache.
    rows /= np.sqrt((rows * rows) @ _ONES6)[:, None]
    anchor = wcm.anchor + delta
    return _unchecked(WrenchConstraintMatrix, rows=_freeze(rows), anchor=_freeze(anchor))


def _overflow_message(*delta: float) -> str:
    if not all(map(math.isfinite, delta)):
        return "a shift component is not finite"
    return (
        f"a shift component of {max(map(abs, delta)):g} exceeds {MAX_SHIFT:g}, "
        "beyond which the shifted constraint matrix overflows"
    )


def wrench_margin(wcm: WrenchConstraintMatrix, wrench: Wrench) -> float:
    """Smallest row activation; nonnegative (to tolerance) means achievable."""
    _check_anchor(wcm.anchor, wrench.about, "constraint matrix")
    # np.dot of a matrix and a vector gives the bits of ``@``, at less cost
    # than stacking the wrench into an array first.
    return float(np.dot(wcm.rows, wrench.force.tolist() + wrench.moment.tolist()).min())


def _within_band(margin, norm):
    """The relative band of every verdict read from ``W``: a wrench of 2-norm
    ``norm`` whose margin is at least ``-MEMBERSHIP_EPS * (1 + norm)`` is
    feasible.  Scalars or matching arrays."""
    return margin >= -MEMBERSHIP_EPS * (1.0 + norm)


def _norm(wrench: Wrench) -> float:
    return math.hypot(*wrench.force.tolist(), *wrench.moment.tolist())


def wrench_feasible(wcm: WrenchConstraintMatrix, wrench: Wrench) -> bool:
    """Membership test ``rows @ [force; moment] >= 0`` with a relative band."""
    return _within_band(wrench_margin(wcm, wrench), _norm(wrench))


def wrench_verdicts(wcm: WrenchConstraintMatrix, wrenches, about):
    """``wrench_feasible`` and ``wrench_margin`` for many wrenches about
    ``about``, given as the rows of a T x 6 array ``[force | moment]``, from
    one product.  Returns a boolean array and a float array."""
    _check_anchor(wcm.anchor, _as_vec3(about, "about"), "constraint matrix")
    wrenches = np.asarray(wrenches, dtype=float)
    if wrenches.ndim != 2 or wrenches.shape[1] != 6:
        raise ValueError(f"wrenches must be a (T, 6) array, got shape {wrenches.shape}")
    margins = (wrenches @ wcm.rows.T).min(axis=1)
    norms = np.sqrt((wrenches * wrenches) @ _ONES6)
    return _within_band(margins, norms), margins


def agreement_tally(a, b, near, wrenches):
    """Compare two boolean verdict arrays on the rows of a T x 6 array
    ``wrenches``.  Returns the boolean arrays ``agree`` and ``excluded``: a
    sample is excluded when the verdicts differ but its ``near``, a
    ``|margin|``, is at most ``BOUNDARY_BAND * (1 + |w|)``, where two
    tolerance models may differ.  Every other sample disagrees."""
    agree = a == b
    band = BOUNDARY_BAND * (1.0 + np.linalg.norm(wrenches, axis=1))
    return agree, ~agree & (near <= band)


@dataclass(frozen=True)
class AgreementReport:
    """Tally of verdict agreement between a constraint matrix and the
    membership oracle; ``agreement_tally`` decides ``boundary_excluded``.
    ``examples`` holds up to ten disagreements as (wrench, oracle verdict,
    margin)."""

    agree_feasible: int
    agree_infeasible: int
    disagree: int
    boundary_excluded: int
    examples: tuple = ()

    @property
    def total(self) -> int:
        return self.agree_feasible + self.agree_infeasible + self.disagree + self.boundary_excluded


def compare_wcm_oracle(
    gen: GeneratingMatrices,
    wcm: WrenchConstraintMatrix,
    n_samples: int,
    rng_seed: int,
) -> AgreementReport:
    """Compare constraint-matrix verdicts against membership ground truth.

    Half the samples are constructively feasible (nonnegative generator
    combinations, so their feasibility certificate is the combination itself).
    The other half are pairs bracketing the feasibility boundary, found by
    walking a ray from a feasible wrench and bisecting with the membership
    test.  Every oracle verdict was established by an actual solve; the
    ``W`` side is one ``wrench_verdicts`` call on all samples.
    """
    _check_anchor(gen.anchor, wcm.anchor, "generators")
    rng = np.random.default_rng(rng_seed)
    wrenches, truth = [], []
    n_feasible = n_samples // 2
    if n_feasible:
        coeffs = rng.exponential(size=(gen.n_columns, n_feasible))
        wrenches += list((gen.stacked() @ coeffs).T)
        truth += [True] * n_feasible
    while len(wrenches) < n_samples:
        for w6, feasible in _straddle_pair(gen, rng)[: n_samples - len(wrenches)]:
            wrenches.append(w6)
            truth.append(feasible)

    wrenches = np.array(wrenches).reshape(-1, 6)
    truth = np.array(truth, dtype=bool)
    feasible, margins = wrench_verdicts(wcm, wrenches, gen.anchor)
    agree, excluded = agreement_tally(feasible, truth, np.abs(margins), wrenches)
    disagree = np.flatnonzero(~(agree | excluded))
    examples = tuple(
        (_freeze(wrenches[i].copy()), bool(truth[i]), float(margins[i]))
        for i in disagree[:10]
    )
    agree_feasible, agree_infeasible = int(np.sum(agree & truth)), int(np.sum(agree & ~truth))
    return AgreementReport(
        agree_feasible, agree_infeasible, disagree.size, int(np.sum(excluded)), examples
    )


def acceleration_verdict(
    classification: Classification,
    wcm: WrenchConstraintMatrix | None,
    body: RigidBodyParams,
    query: MotionQuery,
    com,
) -> tuple[bool, float | None]:
    """Can the contacts support the queried motion of the center of mass?
    Returns the verdict and the required wrench's margin against ``wcm``.

    ``wcm``, or else the classification's generators, must be anchored at
    ``com``; the answer is then ``trajectory_verdicts`` on that one sample,
    by the same rules and to the same bit.
    """
    constrained = classification.constrained
    anchored = wcm if constrained else classification.generating
    if anchored is not None:  # a missing W is trajectory_verdicts' error
        what = "constraint matrix" if constrained else "classification"
        _check_anchor(anchored.anchor, np.asarray(com, dtype=float), what)
    (feasible,), (margin,) = trajectory_verdicts(
        classification, wcm, body, [com], [query.com_accel], [query.angular_momentum_rate]
    )
    return feasible, margin


def acceleration_feasible(classification, wcm, body, query, com) -> bool:
    """The verdict of ``acceleration_verdict``, without the margin."""
    return acceleration_verdict(classification, wcm, body, query, com)[0]


def trajectory_verdicts(
    classification: Classification,
    wcm: WrenchConstraintMatrix | None,
    body: RigidBodyParams,
    coms,
    accels,
    l_dots,
) -> tuple[list, list]:
    """Can the contacts support every sample of a path: CoM ``coms[t]``,
    acceleration ``accels[t]`` and angular momentum rate ``l_dots[t]`` (None
    when not pinned)?  Returns the verdicts and the required wrenches'
    margins against ``wcm`` as lists.

    Constrained configurations check each required wrench against ``wcm``.
    Unconstrained ones admit every total force, so a sample that does not
    pin the angular momentum rate is feasible, with no margin; a pinned one
    goes to the membership oracle, since arbitrary force does not by itself
    give an arbitrary moment.  (Constrained, an unpinned rate is checked at
    zero moment, the fill of ``contacts._required_moment``.)  The answer is
    given at one anchor, that of ``wcm`` when the configuration is
    constrained, else that of the classification's generators.

    No matrix is shifted and no generators are built per sample.  Each
    sample's required wrench about its CoM B is mapped to the same physical
    wrench about the anchor A, ``m_A = m_B + (B - A) x f``.  Constrained, one
    (k x 6)(6 x T) product gives every row's activation on the mapped
    wrenches, and dividing by the norms the shifted rows would have,
    ``|r_f + r_m x (B - A)|^2 + |r_m|^2``, gives ``shift_wcm``'s margins.
    Unconstrained, each sample that pins the moment is one membership solve
    on the generators, which are prepared once for all of them.
    """
    constrained = classification.constrained
    if constrained and wcm is None:
        raise ValueError(
            "constrained configuration: a wrench constraint matrix is required"
        )
    count = len(l_dots)
    if len(coms) != count or len(accels) != count:
        raise ValueError("coms, accels and l_dots must have one entry per sample")
    verdicts, margins = [True] * count, [None] * count
    gen = classification.generating
    anchor = wcm.anchor if constrained else gen.anchor
    ax, ay, az = anchor.tolist()
    (gx, gy, gz), mass = body.gravity.tolist(), body.mass
    moments = [_required_moment(l_dot) for l_dot in l_dots]
    coms, accels, moments = np.array([coms, accels, moments], dtype=float).tolist()
    # Per sample, on floats: required_wrench's force (the same operations),
    # checked with the CoM on every sample; then, on each sample that is
    # mapped, its moment, the wrench mapped to the anchor, the 2-norm the band
    # reads, and skew(delta), the lower-left block of shift_wcm's T(delta).
    pinned, mapped, norms, skews = [], [], [], []
    for t in range(count):
        (cx, cy, cz), (ux, uy, uz), (mx, my, mz) = coms[t], accels[t], moments[t]
        fx, fy, fz = mass * (ux - gx), mass * (uy - gy), mass * (uz - gz)
        dx, dy, dz = cx - ax, cy - ay, cz - az
        if not all(map(math.isfinite, (dx, dy, dz))):
            raise ValueError(_overflow_message(dx, dy, dz))
        if not (math.isfinite(fx) and math.isfinite(fy) and math.isfinite(fz)):
            raise ValueError("force must have finite components")
        if not (constrained or l_dots[t] is not None):
            continue  # feasible: an unconstrained set admits every force
        pinned.append(t)
        if not (abs(dx) <= MAX_SHIFT and abs(dy) <= MAX_SHIFT and abs(dz) <= MAX_SHIFT):
            raise ValueError(_overflow_message(dx, dy, dz))
        w6 = (fx, fy, fz, mx + (dy * fz - dz * fy))
        w6 += (my + (dz * fx - dx * fz), mz + (dx * fy - dy * fx))
        if not all(map(math.isfinite, w6)):
            raise ValueError("a sample's required wrench about the anchor is not finite")
        mapped += w6
        norms.append(math.hypot(fx, fy, fz, mx, my, mz))
        skews += (0.0, -dz, dy, dz, 0.0, -dx, -dy, dx, 0.0)
    if not pinned:
        return verdicts, margins
    mapped = np.array(mapped).reshape(-1, 6)
    mapped.setflags(write=False)
    if not constrained:
        for t, w6 in zip(pinned, mapped):
            wrench = _unchecked(Wrench, force=w6[:3], moment=w6[3:], about=anchor)
            verdicts[t] = wrench_membership_lp(gen, wrench).feasible
        return verdicts, margins
    rows = wcm.rows
    transfers = np.empty((len(pinned), 6, 6))
    transfers[:] = _IDENTITY6
    transfers[:, 3:, :3] = np.array(skews).reshape(-1, 3, 3)
    shifted = rows @ transfers  # T x k x 6: every sample's shifted rows
    activation = mapped @ rows.T  # T x k
    found = (activation / np.sqrt((shifted * shifted) @ _ONES6)).min(axis=1).tolist()
    for t, margin, norm in zip(pinned, found, norms):
        verdicts[t], margins[t] = _within_band(margin, norm), margin
    return verdicts, margins
