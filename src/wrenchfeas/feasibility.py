"""Classification of contact configurations by their dual-cone intersection.

A direction ``v`` lies in the dual of a contact's friction cone exactly when
it has nonnegative dot product with all of that contact's generators.  When
the duals of all contacts share a strict direction (positive dot with every
generator), that direction witnesses a linear constraint on achievable
wrenches and the constraint matrix exists; otherwise the configuration is
classified unconstrained.

The search for a strict direction is a least-distance program: the
minimum-norm ``x`` with ``u_i . x >= 1`` for every unit force generator
``u_i``, which is the 2-norm max-margin direction.  It is solved through
nonnegative least squares (Lawson & Hanson, 1974, ch. 23): with
``E = [U; 1^T]`` and ``f = e_4``, take the NNLS solution ``a`` of
``E a ~ f`` and its residual ``r = E a - f``.  A zero residual means no such
``x`` exists; otherwise ``x = -r[:3] / r[3]``.  The verdict is then certified
by plain dot products with the generators, not by the solver.
"""

from dataclasses import dataclass

import numpy as np

from .contacts import ContactConfiguration, GeneratingMatrices, build_generating_matrices
from .simplex import solve

CLASSIFICATION_EPS = 1e-8
_E4 = np.array([0.0, 0.0, 0.0, 1.0])


@dataclass(frozen=True)
class Classification:
    """Configuration verdict.  ``witness`` is None when unconstrained and an
    inf-norm-normalized direction inside every dual cone otherwise.

    ``s_star`` is minus the smallest dot product of the witness with a force
    generator (each generator has unit normal component), capped above at 0:
    exactly -1 for a single contact, 0 when no strict witness exists, and the
    configuration is constrained iff ``s_star < -CLASSIFICATION_EPS``.
    """

    constrained: bool
    witness: np.ndarray | None
    generating: GeneratingMatrices
    s_star: float


def classify(config: ContactConfiguration, com) -> Classification:
    """Build the generating matrices at ``com`` and classify the configuration."""
    gen = build_generating_matrices(config, com)
    u = gen.force_generators
    # E = [U; 1^T] in one array, U's columns scaled by np.linalg.norm's formula.
    e = np.empty((4, u.shape[1]))
    unit = np.divide(u, np.sqrt((u * u).sum(axis=0)), out=e[:3])
    e[3] = 1.0
    a, _ = solve(e, _E4)
    # The residual r = E a - e_4 has r[:3] = unit @ a and, at the optimum,
    # r[3] = -|r|^2, so x = -r[:3] / r[3] points along unit @ a.
    x = unit @ a
    size = max(map(abs, x.tolist()))
    witness, s_star = None, 0.0
    if size > 0.0:
        witness = x / size
        s_star = min(0.0, -float(np.min(witness @ u)))
    if s_star < -CLASSIFICATION_EPS:
        return Classification(True, witness, gen, s_star)
    return Classification(False, None, gen, s_star)
