"""Solver-backed ground truth for wrench feasibility: membership only.

Everything in this module goes straight from the span-form generators to one
nonnegative least-squares solve: a wrench is achievable exactly when it is a
nonnegative combination of the stacked generator columns, i.e. when the NNLS
residual of ``generators @ a = wrench``, ``a >= 0``, vanishes (relative
residual at most ``MEMBERSHIP_TOL``).  No convex hull and no constraint
matrix is consulted or defined here, which keeps the module an independent
check on the polyhedral pipeline built on top of it (it imports only the
contact model and the solver).  ``wcm.compare_wcm_oracle`` compares the
pipeline with these verdicts.

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
