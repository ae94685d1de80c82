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

import functools
from dataclasses import dataclass, field

import numpy as np

from .contacts import (
    ContactConfiguration,
    GeneratingMatrices,
    _as_vec3,
    _freeze,
    _unchecked,
    build_generating_matrices,
)
from .simplex import _prepared

CLASSIFICATION_EPS = 1e-8
_E4 = np.array([0.0, 0.0, 0.0, 1.0])


@dataclass(frozen=True, eq=False)
class Classification:
    """Configuration verdict.  ``witness`` is None when unconstrained and an
    inf-norm-normalized direction inside every dual cone otherwise.

    ``s_star`` is minus the smallest dot product of the witness with a force
    generator (each generator has unit normal component), capped above at 0:
    exactly -1 for a single contact, 0 when no strict witness exists, and the
    configuration is constrained iff ``s_star < -CLASSIFICATION_EPS``.

    ``config`` and ``anchor`` are the classified configuration and CoM (a
    read-only copy); ``generating`` builds their generating matrices on
    first read and keeps them.  The instance compares and hashes by identity.
    """

    constrained: bool
    witness: np.ndarray | None
    s_star: float
    config: ContactConfiguration = field(compare=False, repr=False)
    anchor: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "anchor", _as_vec3(self.anchor, "anchor"))

    # Threads that race on first read each build an identical matrix.
    @functools.cached_property
    def generating(self) -> GeneratingMatrices:
        """The generating matrices of ``config`` anchored at ``anchor``."""
        return build_generating_matrices(self.config, self.anchor)


def classify(config: ContactConfiguration, com) -> Classification:
    """Classify the configuration; ``com`` is checked and kept as the anchor
    of the classification's generators, which are built only when read."""
    com = _as_vec3(com, "com")
    # The force generators are the configuration's edges, whatever the anchor.
    u = config.edges
    # E = [U; 1^T] in one array, U's columns scaled by np.linalg.norm's
    # formula.  Each column's largest entry is exactly 1 (the last row, and
    # |u_i| <= |u| holds after rounding), so prepare's column scaling would
    # leave E as it is: it goes to the solver as built.
    e = np.empty((4, u.shape[1]))
    unit = np.divide(u, np.sqrt((u * u).sum(axis=0)), out=e[:3])
    e[3] = 1.0
    a, _ = _prepared(e, np.ones(u.shape[1])).solve(_E4)
    # The residual r = E a - e_4 has r[:3] = unit @ a and, at the optimum,
    # r[3] = -|r|^2, so x = -r[:3] / r[3] points along unit @ a.
    x = unit @ a
    size = max(map(abs, x.tolist()))
    witness, s_star = None, 0.0
    if size > 0.0:
        witness = _freeze(x / size)
        s_star = min(0.0, -float((witness @ u).min()))
    constrained = s_star < -CLASSIFICATION_EPS
    return _unchecked(
        Classification,
        constrained=constrained,
        witness=witness if constrained else None,
        s_star=s_star,
        config=config,
        anchor=com,
    )
