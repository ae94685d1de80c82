"""Wrench feasibility analysis for spatially distributed frictional contacts.

Given a set of unilateral point contacts with friction, this package decides
whether the contacts can realize arbitrary center-of-mass acceleration and,
when they cannot, computes the linear constraint matrix bounding all
achievable gravito-inertial wrenches, re-anchors it cheaply as the reference
point moves, and answers feasibility queries.  An independent LP oracle
validates every verdict.
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
    skew,
)
from .feasibility import (
    Classification,
    DualIntersectionResult,
    classify,
    dual_intersection_lp,
)
from .hull import HullResult, convex_hull
from .oracle import (
    AgreementReport,
    MembershipVerdict,
    compare_wcm_oracle,
    force_membership_lp,
    sample_feasible_wrench,
    wrench_membership_lp,
)
from .scenes import Scene, Scenario, bundled_path, load_scenario, load_scene
from .simplex import LinearProgram, LpSolution, LpStatus, solve
from .wcm import (
    ModifiedGenerators,
    WrenchConstraintMatrix,
    acceleration_feasible,
    build_wcm,
    modified_generators,
    shift_wcm,
    wrench_feasible,
    wrench_margin,
)

__version__ = "0.1.0"

__all__ = [
    "AgreementReport",
    "Classification",
    "Contact",
    "ContactConfiguration",
    "DualIntersectionResult",
    "FrictionCone",
    "GeneratingMatrices",
    "HullResult",
    "LinearProgram",
    "LpSolution",
    "LpStatus",
    "MembershipVerdict",
    "ModifiedGenerators",
    "MotionQuery",
    "RigidBodyParams",
    "Scenario",
    "Scene",
    "Wrench",
    "WrenchConstraintMatrix",
    "acceleration_feasible",
    "build_generating_matrices",
    "build_wcm",
    "bundled_path",
    "classify",
    "compare_wcm_oracle",
    "cone_generators",
    "convex_hull",
    "dual_intersection_lp",
    "force_membership_lp",
    "load_scenario",
    "load_scene",
    "modified_generators",
    "required_wrench",
    "rotation_aligning_z",
    "sample_feasible_wrench",
    "shift_wcm",
    "skew",
    "solve",
    "wrench_feasible",
    "wrench_margin",
    "wrench_membership_lp",
]
