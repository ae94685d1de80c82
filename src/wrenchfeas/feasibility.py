"""Classification of contact configurations by their dual-cone intersection.

A direction ``v`` lies in the dual of a contact's friction cone exactly when
it has nonnegative dot product with all of that contact's generators.  When
the duals of all contacts intersect only at the origin, every total force is
achievable and the center of mass can be accelerated arbitrarily; otherwise
any nonzero direction in the intersection witnesses a linear constraint on
achievable wrenches.  The split is decided by one small LP:

    minimize s   subject to   generators^T v + s >= 0,  s >= -1

with the variables of ``v`` boxed to [-1, 1] so the optimum stays bounded and
the witness comes out well scaled.  An optimum of zero means only the trivial
direction fits; a negative optimum produces a strictly interior witness.
"""

from dataclasses import dataclass

import numpy as np

from .contacts import ContactConfiguration, GeneratingMatrices, build_generating_matrices
from .errors import LpFailure
from .simplex import LinearProgram, LpStatus, solve

CLASSIFICATION_EPS = 1e-8


@dataclass(frozen=True)
class DualIntersectionResult:
    """Raw LP outcome: optimal slack, optimizing direction, and the verdict."""

    s_star: float
    v: np.ndarray
    constrained: bool


@dataclass(frozen=True)
class Classification:
    """Configuration verdict.  ``witness`` is None when unconstrained and an
    inf-norm-normalized direction inside every dual cone otherwise."""

    constrained: bool
    witness: np.ndarray | None
    generating: GeneratingMatrices
    s_star: float


def dual_intersection_lp(gen: GeneratingMatrices) -> DualIntersectionResult:
    """Decide whether the contact dual cones share a nonzero direction."""
    u = gen.force_generators
    n_cols = u.shape[1]
    rows = np.hstack([u.T, np.ones((n_cols, 1))])
    sol = solve(
        LinearProgram(
            objective=np.array([0.0, 0.0, 0.0, 1.0]),
            a_ineq=rows,
            b_ineq=np.zeros(n_cols),
            lower=np.array([-1.0, -1.0, -1.0, -1.0]),
            upper=np.array([1.0, 1.0, 1.0, np.inf]),
        )
    )
    if sol.status is not LpStatus.OPTIMAL:
        # v = 0, s = 0 is always feasible and s is bounded below by -1.
        raise LpFailure(f"dual intersection LP returned {sol.status}")
    s_star = float(sol.x[3])
    return DualIntersectionResult(s_star, sol.x[:3], s_star < -CLASSIFICATION_EPS)


def classify(config: ContactConfiguration, com) -> Classification:
    """Build the generating matrices at ``com`` and classify the configuration."""
    gen = build_generating_matrices(config, com)
    result = dual_intersection_lp(gen)
    if not result.constrained:
        return Classification(False, None, gen, result.s_star)
    witness = result.v / np.max(np.abs(result.v))
    return Classification(True, witness, gen, result.s_star)
