"""Solver-backed ground truth for wrench feasibility: membership only.

Each membership test goes straight from the span-form generators to one
nonnegative least-squares solve: a wrench is achievable exactly when it is a
nonnegative combination of the stacked generator columns, i.e. when the NNLS
residual of ``generators @ a = wrench``, ``a >= 0``, vanishes (relative
residual at most ``MEMBERSHIP_TOL``).  No convex hull, no constraint matrix
and no random sample is consulted or defined here, which keeps the module an
independent check on the polyhedral pipeline built on top of it (it imports
only the contact model and the solver).  ``wcm.compare_wcm_oracle`` draws
its samples with ``wcm``'s boundary sampler, this module's test as the truth,
and compares the pipeline with these verdicts.

The generator matrices are fixed for a configuration and anchor, so their
checks, column scaling and Gram matrix are formed once per
``GeneratingMatrices`` (``stacked_prepared``, ``force_prepared``); each
membership test pays only for its own target's active-set solve.
"""

from dataclasses import dataclass

import numpy as np

from .contacts import GeneratingMatrices, Wrench, _check_anchor, _freeze
from .simplex import PreparedMatrix

MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
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
    return _membership(gen.stacked_prepared, wrench.as_array())


def force_membership_lp(gen: GeneratingMatrices, force) -> MembershipVerdict:
    """Can the contacts produce this total force, with any moment?"""
    return _membership(gen.force_prepared, force)
