"""Exception types raised across the package."""


class ZeroVector(ValueError):
    """A direction vector with (near-)zero norm was given where one is required."""


class LpFailure(RuntimeError):
    """The boundary sampler of ``wcm.compare_wcm_oracle``
    (``wcm._straddle_pair``) found no ray from a feasible wrench that leaves
    the generators' cone."""


class WitnessOnBoundary(RuntimeError):
    """The witness direction touches the boundary of some contact's dual cone,
    so the generator normalization would divide by (nearly) zero."""


class HullFailure(RuntimeError):
    """The convex hull backend failed on the projected point cloud."""


class DegenerateInput(ValueError):
    """Input too degenerate to process (currently only: an empty point set)."""


class AnchorMismatch(ValueError):
    """A wrench or constraint matrix is anchored at a different reference point
    than the operation requires."""


class SceneFormatError(ValueError):
    """A scene or scenario file failed validation; the message names the field."""
