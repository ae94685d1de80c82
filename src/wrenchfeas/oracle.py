"""Solver-backed ground truth for wrench feasibility.

Everything in this module goes straight from the span-form generators to one
nonnegative least-squares solve: a wrench is achievable exactly when it is a
nonnegative combination of the stacked generator columns, i.e. when the NNLS
residual of ``generators @ a = wrench``, ``a >= 0``, vanishes (relative
residual at most ``MEMBERSHIP_TOL``).  No convex hull and no constraint
matrix is consulted anywhere here, which keeps the module an independent
check on the polyhedral pipeline built on top of it (it imports only the
contact model and the solver).

The generator matrices are fixed for a configuration and anchor, so their
checks, column scaling and Gram matrix are formed once per
``GeneratingMatrices`` (``stacked_prepared``, ``force_prepared``); each
membership test pays only for its own target's active-set solve.
"""

from dataclasses import dataclass

import numpy as np

from .contacts import GeneratingMatrices, Wrench, _check_anchor, _freeze
from .errors import LpFailure
from .simplex import PreparedMatrix

MEMBERSHIP_TOL = 1e-9
# The band of every verdict read from a constraint matrix: a wrench w with
# margin at least -MEMBERSHIP_EPS * (1 + |w|) is feasible.
MEMBERSHIP_EPS = 1e-9
# Relative width of the boundary band in which a constraint-matrix verdict and
# a membership verdict may differ: |margin| <= BOUNDARY_BAND * (1 + |w|).
BOUNDARY_BAND = 1e-7


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of a membership test; ``coefficients`` is a realizing
    nonnegative combination when one exists."""

    feasible: bool
    coefficients: np.ndarray | None = None


def _membership(prepared: PreparedMatrix, target: np.ndarray) -> MembershipVerdict:
    x, residual = prepared.solve(target)
    if residual <= MEMBERSHIP_TOL:
        return MembershipVerdict(True, _freeze(x))
    return MembershipVerdict(False)


def wrench_membership_lp(gen: GeneratingMatrices, wrench: Wrench) -> MembershipVerdict:
    """Can the contacts produce this exact wrench?  Feasibility of
    ``stacked_generators @ a == [force; moment]`` with ``a >= 0``."""
    _check_anchor(gen.anchor, wrench.about, "generators")
    return _membership(gen.stacked_prepared(), wrench.as_array())


def force_membership_lp(gen: GeneratingMatrices, force) -> MembershipVerdict:
    """Can the contacts produce this total force, with any moment?"""
    return _membership(gen.force_prepared(), force)


@dataclass(frozen=True)
class AgreementReport:
    """Tally of verdict agreement between a constraint matrix and this module.

    A sample counts as ``boundary_excluded`` when the two routes disagree but
    the sample sits within ``BOUNDARY_BAND`` of the constraint-matrix boundary,
    where the two tolerance models are allowed to differ.
    """

    agree_feasible: int
    agree_infeasible: int
    disagree: int
    boundary_excluded: int
    examples: tuple = ()

    @property
    def total(self) -> int:
        return (
            self.agree_feasible
            + self.agree_infeasible
            + self.disagree
            + self.boundary_excluded
        )


def compare_wcm_oracle(
    gen: GeneratingMatrices,
    wcm,
    n_samples: int,
    rng_seed: int,
) -> AgreementReport:
    """Compare constraint-matrix verdicts against membership ground truth.

    Half the samples are constructively feasible (nonnegative generator
    combinations, so their feasibility certificate is the combination itself).
    The other half are pairs bracketing the feasibility boundary, found by
    walking a ray from a feasible wrench and bisecting with the membership
    test.  Every emitted verdict was established by an actual solve.
    """
    _check_anchor(gen.anchor, wcm.anchor, "generators")
    rng = np.random.default_rng(rng_seed)
    stacked = gen.stacked()

    samples = []  # (wrench 6-vector, oracle verdict)
    n_feasible = n_samples // 2
    if n_feasible:
        coeffs = rng.exponential(size=(gen.n_columns, n_feasible))
        for w6 in (stacked @ coeffs).T:
            samples.append((w6, True))
    while len(samples) < n_samples:
        lo_pair, hi_pair = _straddle_pair(gen, rng)
        samples.append(lo_pair)
        if len(samples) < n_samples:
            samples.append(hi_pair)

    # The W side for every sample at once: one (S x 6)(6 x k) product.
    wrenches = np.array([w6 for w6, _ in samples]).reshape(-1, 6)
    margins = (wrenches @ wcm.rows.T).min(axis=1).tolist()
    scales = (1.0 + np.linalg.norm(wrenches, axis=1)).tolist()
    agree_feasible = agree_infeasible = disagree = excluded = 0
    examples = []
    for (w6, oracle_feasible), margin, scale in zip(samples, margins, scales):
        wcm_feasible = margin >= -MEMBERSHIP_EPS * scale
        if wcm_feasible == oracle_feasible:
            if oracle_feasible:
                agree_feasible += 1
            else:
                agree_infeasible += 1
        elif abs(margin) <= BOUNDARY_BAND * scale:
            excluded += 1
        else:
            disagree += 1
            if len(examples) < 10:
                examples.append((_freeze(w6.copy()), oracle_feasible, margin))
    return AgreementReport(
        agree_feasible, agree_infeasible, disagree, excluded, tuple(examples)
    )


def _straddle_pair(gen: GeneratingMatrices, rng: np.random.Generator):
    """Two wrenches bracketing the cone boundary along a random ray from a
    feasible interior sample, with solver-established verdicts."""
    stacked, prepared = gen.stacked(), gen.stacked_prepared()
    for _ in range(50):
        coeff = rng.exponential(size=stacked.shape[1])
        base = stacked @ coeff
        direction = rng.normal(size=6)
        direction *= (1.0 + np.linalg.norm(base)) / np.linalg.norm(direction)
        if _membership(prepared, direction).feasible:
            continue  # ray direction inside the cone: it would never leave
        lo, hi = 0.0, 1.0
        escaped = True
        while _membership(prepared, base + hi * direction).feasible:
            lo = hi
            hi *= 4.0
            if hi > 2.0**40:
                escaped = False
                break
        if not escaped:
            continue
        while hi - lo > 1e-3 * (1.0 + hi):
            mid = 0.5 * (lo + hi)
            if _membership(prepared, base + mid * direction).feasible:
                lo = mid
            else:
                hi = mid
        return (base + lo * direction, True), (base + hi * direction, False)
    raise LpFailure("could not construct a boundary-straddling sample pair")
