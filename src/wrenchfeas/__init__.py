"""Wrench feasibility analysis for spatially distributed frictional contacts.

Given a set of unilateral point contacts with friction, this package decides
whether the contacts can realize arbitrary center-of-mass acceleration and,
when they cannot, computes the linear constraint matrix bounding all
achievable gravito-inertial wrenches, re-anchors it cheaply as the reference
point moves, and answers feasibility queries.  An independent membership
oracle validates every verdict.
"""

from .contacts import (
    Contact,
    ContactConfiguration,
    FrictionCone,
    GeneratingMatrices,
    MotionQuery,
    RigidBodyParams,
    Wrench,
    build_generating_matrices,
    cone_generators,
    required_wrench,
    rotation_aligning_z,
)
from .feasibility import Classification, classify
from .hull import HullResult, convex_hull
from .oracle import MembershipVerdict, force_membership_lp, wrench_membership_lp
from .scenes import Scene, Scenario, bundled_path, load_scenario, load_scene
from .simplex import solve
from .wcm import (
    AgreementReport,
    WrenchConstraintMatrix,
    acceleration_feasible,
    acceleration_verdict,
    build_wcm,
    compare_wcm_oracle,
    shift_wcm,
    trajectory_verdicts,
    wrench_feasible,
    wrench_margin,
)

__version__ = "0.1.0"

__all__ = [
    "AgreementReport",
    "Classification",
    "Contact",
    "ContactConfiguration",
    "FrictionCone",
    "GeneratingMatrices",
    "HullResult",
    "MembershipVerdict",
    "MotionQuery",
    "RigidBodyParams",
    "Scenario",
    "Scene",
    "Wrench",
    "WrenchConstraintMatrix",
    "acceleration_feasible",
    "acceleration_verdict",
    "build_generating_matrices",
    "build_wcm",
    "bundled_path",
    "classify",
    "compare_wcm_oracle",
    "cone_generators",
    "convex_hull",
    "force_membership_lp",
    "load_scenario",
    "load_scene",
    "required_wrench",
    "rotation_aligning_z",
    "shift_wcm",
    "solve",
    "trajectory_verdicts",
    "wrench_feasible",
    "wrench_margin",
    "wrench_membership_lp",
]
