"""Clarke-transform kinematics for displacement-actuated continuum robots.

Maps between redundant joint-space vectors (displacements rho or joint
lengths q) and the two Clarke coordinates of a bending segment, with
support for length/twist joint extensions, multi-segment chains, and the
constant-curvature arc-parameter bridge.
"""

from .arc import (
    ArcParameters,
    BackbonePolyline,
    arc_to_clarke,
    arc_to_displacements,
    clarke_to_arc,
    sample_backbone,
)
from .chain import (
    ChainClarke,
    ChainState,
    chain_forward,
    chain_inverse,
    independent_forward,
    interdependent_accumulate,
    interdependent_forward,
    interdependent_inverse,
)
from .clarke import (
    ClarkeCoordinates,
    ClarkePair,
    DisplacementCheck,
    build_mp_inv,
    build_pair,
    forward,
    inverse,
    project,
    validate_displacement,
)
from .errors import (
    ArrangementMismatch,
    ConventionMismatch,
    DacrError,
    DegenerateArrangement,
    DimensionMismatch,
    DomainError,
    FilterPropertyUnavailable,
    OffManifold,
    SchemaError,
    UnsupportedArrangement,
)
from .model import (
    Coupling,
    JointArrangement,
    RobotSpec,
    SegmentSpec,
    SegmentType,
    Violation,
    make_symmetric_arrangement,
    validate_robot,
)
from .segments import (
    Convention,
    ExtendedClarkeState,
    JointState,
    common_radius,
    helical_offset,
    recover_length,
    segment_forward,
    segment_inverse,
    type1_forward_from_q,
    type1_inverse_to_q,
    type3_forward_from_q,
)

__version__ = "0.1.0"

__all__ = [
    "ArcParameters",
    "ArrangementMismatch",
    "BackbonePolyline",
    "ChainClarke",
    "ChainState",
    "ClarkeCoordinates",
    "ClarkePair",
    "Convention",
    "ConventionMismatch",
    "Coupling",
    "DacrError",
    "DegenerateArrangement",
    "DimensionMismatch",
    "DisplacementCheck",
    "DomainError",
    "ExtendedClarkeState",
    "FilterPropertyUnavailable",
    "JointArrangement",
    "JointState",
    "OffManifold",
    "RobotSpec",
    "SchemaError",
    "SegmentSpec",
    "SegmentType",
    "UnsupportedArrangement",
    "Violation",
    "arc_to_clarke",
    "arc_to_displacements",
    "build_mp_inv",
    "build_pair",
    "chain_forward",
    "chain_inverse",
    "clarke_to_arc",
    "common_radius",
    "forward",
    "helical_offset",
    "independent_forward",
    "interdependent_accumulate",
    "interdependent_forward",
    "interdependent_inverse",
    "inverse",
    "make_symmetric_arrangement",
    "project",
    "recover_length",
    "sample_backbone",
    "segment_forward",
    "segment_inverse",
    "type1_forward_from_q",
    "type1_inverse_to_q",
    "type3_forward_from_q",
    "validate_displacement",
    "validate_robot",
]
