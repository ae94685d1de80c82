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
the reference point vastly cheaper than rebuilding.  Every verdict reads
``W`` one way: a wrench times the unit rows of ``W`` shifted to its reference
point as ``shift_wcm`` shifts them.  ``trajectory_verdicts`` reads a path of
CoM samples so, in batched products, and is the one query path:
``acceleration_verdict`` is that call on a single sample at the anchor.

The verdict comparisons live here too: ``compare_wcm_oracle`` against the
membership oracle, on wrenches from a boundary sampler that brackets the
generators' cone, and ``compare_wcm_pair`` between two matrices (``wrenchfeas
shift``), on probes placed on both sides of each face of the matrix taken as
truth.  Both read ``W`` through ``wrench_verdicts`` and share one tally.
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
    _complete_frame,
    _direction,
    _freeze,
    _required_moment,
    _unchecked,
    build_generating_matrices,
)
from .errors import LpFailure, WitnessOnBoundary
from .feasibility import Classification
from .hull import convex_hull
from .oracle import _membership, wrench_membership_lp

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


@dataclass(frozen=True, eq=False)
class ModifiedGenerators:
    """Witness-aligned, column-rescaled generators.  The third row of
    ``force_generators`` is exactly one; each column pair spans the same ray
    as the original pair rotated into the witness frame."""

    force_generators: np.ndarray
    moment_generators: np.ndarray
    rotation: np.ndarray


@dataclass(frozen=True, eq=False)
class WrenchConstraintMatrix:
    """Row matrix ``rows`` with unit-norm rows: a wrench about ``anchor`` is
    achievable iff ``rows @ [force; moment] >= 0`` (to tolerance).

    ``rows`` is k x 6 but stored component-major: it is the transpose of a
    C-contiguous 6 x k block, so ``rows.T`` holds each wrench component's
    k coefficients in one contiguous row.  Re-anchoring and margins work on
    those six long rows.  The constructor keeps read-only copies of both
    arrays in this layout, whatever the caller's, so the caller's arrays
    stay writable and a later write to them moves nothing here.
    """

    rows: np.ndarray
    anchor: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float, order="F")
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
    # rotation_aligning_z(v), from the vector checked just now.
    rot = _complete_frame(v / v_norm).T
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
    planes, equalities = hull.facets, hull.equalities
    if len(equalities):
        planes = np.concatenate([planes, equalities, -equalities])
    # The lifted rows and n, written into one array.
    rows = np.empty((len(planes) + 1, 6))
    lifted = np.matmul(planes[:, :5], lift, out=rows[:-1])
    lifted -= planes[:, 5:] * n
    rows[-1] = n
    # np.linalg.norm's formula, without its overhead.
    rows /= np.sqrt((rows * rows).sum(axis=1))[:, None]
    # Stored component-major, with the bytes of the row-major arithmetic.
    # gen.anchor is read-only and owned by gen, which lives only in this call.
    rows = _freeze(np.asfortranarray(rows))
    return _unchecked(WrenchConstraintMatrix, rows=rows, anchor=gen.anchor)


def shift_wcm(wcm: WrenchConstraintMatrix, delta) -> WrenchConstraintMatrix:
    """Re-anchor the matrix to ``anchor + delta`` with one 6x6 multiply.

    A wrench about the new point B maps to the same physical wrench about the
    old point A via moment_A = moment_B + delta x force, so composing the rows
    with that map yields the constraints expressed about B.  The product is
    taken component-major, ``T(delta)^T @ rows.T`` (6 x 6 by 6 x k), and each
    row's norm sums its six squares down the columns of that 6 x k block.  A
    component of ``delta`` beyond ``MAX_SHIFT`` is rejected: the shifted
    rows' norms could overflow.
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
    # T(delta)^T: the identity with skew(delta)^T = -skew(delta) in the
    # upper-right block.
    transfer = _IDENTITY6.copy()
    transfer[1, 3], transfer[2, 3] = -dz, dy
    transfer[0, 4], transfer[2, 4] = dz, -dx
    transfer[0, 5], transfer[1, 5] = -dy, dx
    # ``@``, not np.dot, for both products: np.dot gives the same bits and
    # skips a dispatch step, but right after a build has evicted its code
    # from cache its first call costs a few us more than ``@``.
    components = transfer @ wcm.rows.T
    # Row norms by a vector-matrix product: np.einsum costs more, most of all
    # on the first call after other work has evicted its code from cache.
    components /= np.sqrt(_ONES6 @ (components * components))
    anchor = wcm.anchor + delta
    return _unchecked(
        WrenchConstraintMatrix, rows=_freeze(components).T, anchor=_freeze(anchor)
    )


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
    # np.dot of a vector and the 6 x k component block gives the bits of
    # ``@``, at less cost than stacking the wrench into an array first.
    return float(np.dot(wrench.force.tolist() + wrench.moment.tolist(), wcm.rows.T).min())


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
    """``wrench_feasible`` and ``wrench_margin``, to the bit, for many wrenches
    about ``about``, given as the rows of a T x 6 array ``[force | moment]``.
    Returns a boolean array and a float array."""
    _check_anchor(wcm.anchor, _as_vec3(about, "about"), "constraint matrix")
    wrenches = np.asarray(wrenches, dtype=float)
    if wrenches.ndim != 2 or wrenches.shape[1] != 6:
        raise ValueError(f"wrenches must be a (T, 6) array, got shape {wrenches.shape}")
    # One vector-matrix product per wrench, as wrench_margin reads it.
    margins = (wrenches[:, None, :] @ wcm.rows.T).min(axis=2).ravel()
    norms = np.sqrt((wrenches * wrenches) @ _ONES6)
    return _within_band(margins, norms), margins


@dataclass(frozen=True, eq=False)
class AgreementReport:
    """Tally of verdict agreement between a constraint matrix and the truth:
    the membership oracle or a reference matrix.  ``examples`` holds up to
    ten disagreements as (wrench, true verdict, the matrix's margin)."""

    agree_feasible: int
    agree_infeasible: int
    disagree: int
    boundary_excluded: int
    examples: tuple = ()

    @property
    def total(self) -> int:
        return self.agree_feasible + self.agree_infeasible + self.disagree + self.boundary_excluded


def _tally(wrenches, truth, feasible, margins) -> AgreementReport:
    """``feasible`` against ``truth`` on the rows of ``wrenches``.  Differing
    verdicts are excluded when ``|margin|`` is at most
    ``BOUNDARY_BAND * (1 + |w|)``, where two tolerance models may differ."""
    agree = feasible == truth
    near = np.abs(margins) <= BOUNDARY_BAND * (1.0 + np.linalg.norm(wrenches, axis=1))
    excluded = ~agree & near
    disagree = np.flatnonzero(~(agree | excluded))
    examples = tuple(
        (_freeze(wrenches[i].copy()), bool(truth[i]), float(margins[i])) for i in disagree[:10]
    )
    agree_feasible, agree_infeasible = int(np.sum(agree & truth)), int(np.sum(agree & ~truth))
    return AgreementReport(
        agree_feasible, agree_infeasible, disagree.size, int(np.sum(excluded)), examples
    )


def _straddle_pair(gen: GeneratingMatrices, rng: np.random.Generator):
    """Two wrenches bracketing the boundary of ``gen``'s cone, by the
    membership test, along a random ray from a nonnegative combination of
    its columns: ``(w6, True)`` that the test accepts and ``(w6, False)``
    that it rejects, within 1e-3 relative of each other along the ray."""
    stacked, prepared = gen.stacked(), gen.stacked_prepared

    def member(w6):
        return _membership(prepared, w6).feasible

    for _ in range(50):
        coeff = rng.exponential(size=stacked.shape[1])
        base = stacked @ coeff
        direction = rng.normal(size=6)
        direction *= (1.0 + np.linalg.norm(base)) / np.linalg.norm(direction)
        if member(direction):
            continue  # ray direction inside the cone: it would never leave
        lo, hi = 0.0, 1.0
        while member(base + hi * direction):
            lo = hi
            hi *= 4.0
            if hi > 2.0**40:
                break  # never left the cone: draw another ray
        else:
            while hi - lo > 1e-3 * (1.0 + hi):
                mid = 0.5 * (lo + hi)
                if member(base + mid * direction):
                    lo = mid
                else:
                    hi = mid
            return (base + lo * direction, True), (base + hi * direction, False)
    raise LpFailure("could not construct a boundary-straddling sample pair")


def _boundary_samples(gen: GeneratingMatrices, n_samples: int, rng):
    """``n_samples`` wrenches about ``gen``'s anchor, as an n x 6 array, and
    their membership verdicts: first ``n_samples // 2`` nonnegative
    combinations of ``gen``'s columns (feasible), from one exponential draw,
    then ``_straddle_pair`` pairs."""
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
    return np.array(wrenches).reshape(-1, 6), np.array(truth, dtype=bool)


def compare_wcm_oracle(
    gen: GeneratingMatrices,
    wcm: WrenchConstraintMatrix,
    n_samples: int,
    rng_seed: int,
) -> AgreementReport:
    """Compare constraint-matrix verdicts against membership ground truth.

    The samples are ``_boundary_samples``: half constructively feasible
    (their certificate is the combination itself), half pairs bracketing the
    feasibility boundary, found by walking a ray from a feasible wrench and
    bisecting with the membership test.  Every oracle verdict was
    established by an actual solve; the ``W`` side is one
    ``wrench_verdicts`` call on all samples.
    """
    _check_anchor(gen.anchor, wcm.anchor, "generators")
    wrenches, truth = _boundary_samples(gen, n_samples, np.random.default_rng(rng_seed))
    feasible, margins = wrench_verdicts(wcm, wrenches, gen.anchor)
    return _tally(wrenches, truth, feasible, margins)


def _facet_probes(gen: GeneratingMatrices, wcm: WrenchConstraintMatrix):
    """Wrenches about ``gen``'s anchor that test each face of ``wcm`` from
    both sides, as a T x 6 array, and their verdicts under ``wcm``.

    A generator is on row i's face when the row reads its unit column within
    ``MEMBERSHIP_EPS``.  For each row with such generators, c is the
    normalized sum of them, a point in the face, and d is the row with its
    part in the span of the equality rows (those on which every generator
    lies) removed, so that a step along d stays in a flat cloud's span.  The
    outside probe c - eps d (infeasible) goes eps = max(h, 10 *
    BOUNDARY_BAND) deep, where h is half the smallest slack beyond
    ``MEMBERSHIP_EPS`` of the other rows at c; the inside probe c + h d
    (feasible) goes h deep, so that no other row rejects it.  An equality
    row steps along itself and has only the outside probe: both sides of
    its plane are outside.  Last come the unit generators, all feasible.
    """
    stacked = gen.stacked()
    unit = stacked / np.sqrt((stacked * stacked).sum(axis=0))
    rows = wcm.rows
    tight = np.abs(rows @ unit) <= MEMBERSHIP_EPS
    faces = np.flatnonzero(tight.any(axis=1))
    equality = tight.all(axis=1)
    span = rows[equality]
    steps = rows.copy()
    steps[~equality] -= rows[~equality] @ np.linalg.pinv(span) @ span
    steps = steps[faces] / np.linalg.norm(steps[faces], axis=1)[:, None]
    centers = tight[faces].astype(float) @ unit.T
    centers /= np.linalg.norm(centers, axis=1)[:, None]
    slack = rows @ centers.T
    slack[faces, np.arange(faces.size)] = np.inf  # the face's own row
    slack[slack <= MEMBERSHIP_EPS] = np.inf
    # Unit rows read at most 1 at a unit point, so the initial value binds
    # only when no other row has slack there.
    half = 0.5 * slack.min(axis=0, initial=1.0)
    depth = np.maximum(half, 10.0 * BOUNDARY_BAND)
    two_sided = ~equality[faces]
    inside = centers[two_sided] + half[two_sided, None] * steps[two_sided]
    outside = centers - depth[:, None] * steps
    wrenches = np.concatenate([inside, outside, unit.T])
    truth = np.repeat([True, False, True], [len(inside), len(outside), unit.shape[1]])
    return wrenches, truth


def compare_wcm_pair(
    gen: GeneratingMatrices,
    wcm: WrenchConstraintMatrix,
    reference: WrenchConstraintMatrix,
) -> AgreementReport:
    """Compare ``wcm`` with ``reference``, taken as truth, on
    ``_facet_probes`` of ``reference`` about ``gen``'s anchor: a probe on
    each side of every face, where only that face's row tells the two apart,
    and the generators themselves, which every sound ``W`` admits.
    The ``W`` side is one ``wrench_verdicts`` call on all probes."""
    _check_anchor(gen.anchor, reference.anchor, "generators")
    wrenches, truth = _facet_probes(gen, reference)
    feasible, margins = wrench_verdicts(wcm, wrenches, gen.anchor)
    return _tally(wrenches, truth, feasible, margins)


def acceleration_verdict(
    classification: Classification,
    wcm: WrenchConstraintMatrix | None,
    body: RigidBodyParams,
    query: MotionQuery,
    com,
) -> tuple[bool, float | None]:
    """Can the contacts support the queried motion of the center of mass?
    Returns the verdict and the required wrench's margin against ``wcm``.

    ``wcm``, or else the classification, must be anchored at ``com``; the
    answer is then ``trajectory_verdicts`` on that one sample, by the same
    rules and to the same bit.
    """
    constrained = classification.constrained
    anchored = wcm if constrained else classification
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
    constrained, else that of the classification.

    Every sample's CoM B must lie within ``MAX_SHIFT`` of the anchor A in
    each component (else ``ValueError``), as for ``shift_wcm``.  No
    generators are built per sample.  Constrained, each sample's margin is
    ``wrench_margin(shift_wcm(wcm, B - A), w)``, to the bit, from batched
    products: one shifts the rows for every sample, one reads each wrench.
    Unconstrained, each sample that pins the moment is mapped to the same
    wrench about A, ``T(B - A) w``, and is one membership solve on the
    classification's generators, which are built and prepared once for all
    of them, and only when a sample pins the moment.
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
    anchor = wcm.anchor if constrained else classification.anchor
    ax, ay, az = anchor.tolist()
    (gx, gy, gz), mass = body.gravity.tolist(), body.mass
    moments = [_required_moment(l_dot) for l_dot in l_dots]
    coms, accels, moments = np.array([coms, accels, moments], dtype=float).tolist()
    # Per sample, on floats: required_wrench's force (the same operations)
    # and the shift delta, both checked on every sample; then, on each sample
    # that is read, its wrench about its own CoM, the 2-norm the band reads,
    # and skew(delta), the lower-left block of shift_wcm's T(delta).
    pinned, wrenches, norms, skews = [], [], [], []
    for t in range(count):
        (cx, cy, cz), (ux, uy, uz), (mx, my, mz) = coms[t], accels[t], moments[t]
        fx, fy, fz = mass * (ux - gx), mass * (uy - gy), mass * (uz - gz)
        dx, dy, dz = cx - ax, cy - ay, cz - az
        # shift_wcm's one scalar test: NaN fails it as surely as a component beyond the bound.
        if not (abs(dx) <= MAX_SHIFT and abs(dy) <= MAX_SHIFT and abs(dz) <= MAX_SHIFT):
            raise ValueError(_overflow_message(dx, dy, dz))
        if not (math.isfinite(fx) and math.isfinite(fy) and math.isfinite(fz)):
            raise ValueError("force must have finite components")
        if not (constrained or l_dots[t] is not None):
            continue  # feasible: an unconstrained set admits every force
        pinned.append(t)
        wrenches += (fx, fy, fz, mx, my, mz)
        norms.append(math.hypot(fx, fy, fz, mx, my, mz))
        skews += (0.0, -dz, dy, dz, 0.0, -dx, -dy, dx, 0.0)
    if not pinned:
        return verdicts, margins
    wrenches, skews = np.array(wrenches), np.array(skews).reshape(-1, 3, 3)
    transfers = np.empty((len(pinned), 6, 6))
    transfers[:] = _IDENTITY6
    if not constrained:
        # Each wrench about the anchor, T(delta) w; an overflow is an error.
        transfers[:, 3:, :3] = skews
        with np.errstate(over="ignore", invalid="ignore"):
            mapped = _freeze((transfers @ wrenches.reshape(-1, 6, 1)).reshape(-1, 6))
        if not np.isfinite(mapped).all():
            raise ValueError("a sample's required wrench about the anchor is not finite")
        gen = classification.generating
        for t, w6 in zip(pinned, mapped):
            wrench = _unchecked(Wrench, force=w6[:3], moment=w6[3:], about=anchor)
            verdicts[t] = wrench_membership_lp(gen, wrench).feasible
        return verdicts, margins
    # Every sample's shifted rows, T x 6 x k, as shift_wcm makes them from
    # T(delta)^T, each read on its own wrench by one vector-matrix product,
    # as wrench_margin.
    transfers[:, :3, 3:] = skews.transpose(0, 2, 1)
    rows = transfers @ wcm.rows.T
    rows /= np.sqrt(_ONES6 @ (rows * rows))[:, None, :]
    found = (wrenches.reshape(-1, 1, 6) @ rows).min(axis=2).ravel().tolist()
    for t, margin, norm in zip(pinned, found, norms):
        verdicts[t], margins[t] = _within_band(margin, norm), margin
    return verdicts, margins
