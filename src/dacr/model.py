"""Robot description data model.

A continuum robot is described by an ordered list of segments. Each
segment carries the polar joint locations on its cross-section (the
arrangement), its neutral-axis length, and a type stating which joints
it has beyond bending. All values are unit-agnostic: the caller picks a
length unit and must use it consistently.

Everything here is an immutable value; validation that depends on
numeric content is performed by :func:`validate_robot`, which reports
violations as data instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * np.pi

# Every tolerance of the library. One function, :func:`_bound`, judges every
# residual: against an explicit ``tol`` (absolute, >= 0) or REL * max(1, max|x_i|).
#
# SYMMETRY_TOL_PSI: radians by which an angle may miss the evenly
#     spaced pattern, or another arrangement's angle, and still match.
# SYMMETRY_TOL_D: relative spread of the d_i still taken as one radius.
# GRAM_DEGENERACY_REL: a Gram determinant below this times (trace/2)**2
#     is singular. As det/scale**2 ~ 4/cond(Gram) = 4/cond(mp_inv)**2, it
#     refuses exactly when cond(mp_inv) >~ 2e6: near-collinear joints.
# FILTER_TOL: largest |mp @ ones| for which constants are filtered.
# DISPLACEMENT_REL: default residual bound of ``validate_displacement``.
# OFF_MANIFOLD_REL: default residual bound of the q-side length recovery.
SYMMETRY_TOL_PSI = 1e-9
SYMMETRY_TOL_D = 1e-9
GRAM_DEGENERACY_REL = 1e-12
FILTER_TOL = 1e-9
DISPLACEMENT_REL = 1e-9
OFF_MANIFOLD_REL = 1e-6


def _number(name: str, value) -> float:
    """float(value), or a DomainError naming the value: the one conversion of a caller's scalar."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a number, got {value!r}") from None


def _member(enum: type[Enum], value, name: str, error: type[Exception] = DomainError):
    """value if it is a member of enum, else the member it names, or error."""
    try:
        return value if isinstance(value, enum) else enum(value)
    except (TypeError, ValueError):
        raise error(f"unknown {name} {value!r}") from None


def _bound(rel: float, x: np.ndarray, residual: float, tol: float | None) -> float:
    """A residual's bound: tol, refused unless >= 0, or lazily rel * max(1, max|x_i|) of x."""
    if tol is None:
        return rel if residual <= rel else rel * max(1.0, float(np.abs(x).max()))
    tol = _number("tol", tol)
    if not (tol >= 0.0):
        raise DomainError(f"tol must be non-negative, got {tol}")
    return tol


def _positive(name: str, value) -> float:
    """value as a float, refused with DomainError unless it is greater than zero."""
    value = _number(name, value)
    if not (value > 0.0):
        raise DomainError(f"{name} must be positive, got {value}")
    return value


def _normalize_angles(psi):
    """Reduce a float or an array of angles into [0, 2*pi). Values that
    round up to exactly 2*pi (e.g. tiny negative inputs) are clamped to 0
    by multiplying with the comparison, which works for both."""
    out = psi % TWO_PI
    return out * (out < TWO_PI)


def _angles_match(psi: np.ndarray, target: np.ndarray) -> bool:
    """True if every circular difference psi_i - target_i is within
    SYMMETRY_TOL_PSI."""
    diff = np.mod(psi - target + np.pi, TWO_PI) - np.pi
    return bool(np.max(np.abs(diff)) <= SYMMETRY_TOL_PSI)


def _common_radius(d: np.ndarray) -> float | None:
    """d_1 if it is positive and every d_i agrees with it within
    SYMMETRY_TOL_D relative, else None."""
    d0 = float(d[0])
    if d0 > 0.0 and np.max(np.abs(d - d0)) <= SYMMETRY_TOL_D * d0:
        return d0
    return None


def _readonly(a, own: bool = False) -> np.ndarray:
    """A private, C-ordered, read-only float copy: the one way a state holds an array.
    own freezes in place a float array the library has just made and nothing else holds."""
    a = a if own else np.array(a, dtype=float, order="C")
    a.setflags(write=False)  # half the cost of assigning a.flags.writeable
    return a


def _checked(cls, **fields):
    """A cls holding fields as they are, without __post_init__: for values already checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class JointArrangement:
    """Polar joint locations (psi_i, d_i) on a segment cross-section.

    Attributes:
        psi: joint angles in radians, stored normalized to [0, 2*pi).
        d: radial distances from the neutral axis, in length units.

    Construction enforces structural sanity (1-D arrays of equal length
    n >= 2, finite entries). Value-domain rules such as d_i > 0 are
    checked by :func:`validate_robot` so that defective descriptions can
    be reported rather than rejected mid-parse.
    """

    psi: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        try:
            psi, d = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (self.psi, self.d))
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"psi and d must hold numbers ({exc})") from None
        if psi.ndim != 1 or d.ndim != 1:
            raise DomainError("psi and d must be one-dimensional")
        if psi.shape[0] != d.shape[0]:
            raise DomainError(
                f"psi and d must have the same length, got {psi.shape[0]} and {d.shape[0]}"
            )
        if psi.shape[0] < 2:
            raise DomainError("an arrangement needs at least two joints")
        if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(d))):
            raise DomainError("psi and d must be finite")
        object.__setattr__(self, "psi", _readonly(_normalize_angles(psi)))
        object.__setattr__(self, "d", _readonly(d))

    @property
    def n(self) -> int:
        """Number of joints."""
        return self.psi.shape[0]

    def is_symmetric(self) -> bool:
        """True if psi_i = 2*pi*(i-1)/n within 1e-9 rad and all d_i agree
        with d_1 within 1e-9 relative."""
        pattern = TWO_PI * np.arange(self.n) / self.n
        return _angles_match(self.psi, pattern) and _common_radius(self.d) is not None


def make_symmetric_arrangement(n: int, d: float) -> JointArrangement:
    """Build the evenly-spaced common-radius arrangement.

    psi_i = 2*pi*(i-1)/n and d_i = d for all i.

    Args:
        n: joint count, a whole number at least 3 (3.0 and "3" are 3).
        d: common radial distance, strictly positive.

    Raises:
        DomainError: if n is not a whole number >= 3, d <= 0, or n cannot be allocated.
    """
    count = _number("joint count", n)
    if not (count.is_integer() and count >= 3):
        raise DomainError(f"symmetric arrangements need n >= 3 joints, got {n}")
    d = _positive("radial distance", d)
    if count >= 2.0**63:  # np.arange(2**63) is empty; larger counts raise below
        raise DomainError(f"cannot allocate {n} joints")
    try:
        psi = TWO_PI * np.arange(count) / count
        return JointArrangement(psi=psi, d=np.full_like(psi, d))
    except (ValueError, MemoryError):  # a count NumPy cannot index or allocate
        raise DomainError(f"cannot allocate {n} joints") from None


class SegmentType(str, Enum):
    """Degrees of freedom of a segment beyond spatial bending.

    TYPE0: bending only (incompressible, torsionally stiff).
    TYPE1: bending plus variable length (joint value beta).
    TYPE2: bending plus proximal twist (joint value alpha).
    TYPE3: bending, variable length, and twist.
    """

    TYPE0 = "type0"
    TYPE1 = "type1"
    TYPE2 = "type2"
    TYPE3 = "type3"

    def __init__(self, value: str) -> None:  # plain attributes: no lookup per access
        self.has_length_joint = value in ("type1", "type3")
        self.has_twist_joint = value in ("type2", "type3")


class Coupling(str, Enum):
    """How the joints of consecutive segments interact.

    INDEPENDENT: each segment is actuated on its own (e.g. pneumatic
    chambers local to the segment).
    INTERDEPENDENT: actuation paths of distal segments run through the
    proximal ones, so joint lengths add up along the chain (e.g. tendons
    routed through earlier segments).
    """

    INDEPENDENT = "independent"
    INTERDEPENDENT = "interdependent"


@dataclass(frozen=True)
class SegmentSpec:
    """One segment: arrangement, initial neutral-axis length, type.

    A non-finite length raises :class:`DomainError`; a non-positive one
    is left for :func:`validate_robot` to report.
    """

    arrangement: JointArrangement
    length: float
    seg_type: SegmentType = SegmentType.TYPE0

    def __post_init__(self) -> None:
        if not isinstance(self.arrangement, JointArrangement):
            raise DomainError(f"segment arrangement must be a JointArrangement, got {self.arrangement!r}")
        length = _number("segment length", self.length)
        if not math.isfinite(length):
            raise DomainError(f"segment length must be finite, got {length}")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "seg_type", _member(SegmentType, self.seg_type, "segment type"))


@dataclass(frozen=True)
class RobotSpec:
    """Ordered segments plus the actuation coupling between them."""

    segments: tuple[SegmentSpec, ...]
    coupling: Coupling = Coupling.INDEPENDENT

    def __post_init__(self) -> None:
        try:
            segments = tuple(self.segments)
        except TypeError:
            raise DomainError(f"robot segments must be a sequence, got {self.segments!r}") from None
        for j, seg in enumerate(segments):
            if not isinstance(seg, SegmentSpec):
                raise DomainError(f"robot segment {j} must be a SegmentSpec, got {seg!r}")
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "coupling", _member(Coupling, self.coupling, "coupling"))


@dataclass(frozen=True)
class Violation:
    """A single invariant violation found in a robot description.

    segment is the 0-based segment index, or None for robot-level
    problems.
    """

    segment: int | None
    field: str
    message: str


def arrangements_match(a: JointArrangement, b: JointArrangement) -> bool:
    """True if both arrangements have the same joint count and the same
    angles element-wise within SYMMETRY_TOL_PSI (circular difference)."""
    return a.n == b.n and _angles_match(a.psi, b.psi)


def interdependent_violations(segments: tuple[SegmentSpec, ...]) -> list[Violation]:
    """Violations of the interdependent rule: type-0 segments on one
    aligned arrangement.

    Every segment must share segment 0's joint count and angles, since
    joint lengths are added entry by entry, which requires aligned
    routing; and every segment must be bending-only (type 0), since
    length/twist joints have no defined composition rule across a
    shared actuation path. Arrangement violations are listed first.
    """
    return [
        Violation(j, "joints", "arrangement mismatch with segment 0")
        for j, seg in enumerate(segments[1:], start=1)
        if not arrangements_match(segments[0].arrangement, seg.arrangement)
    ] + [
        Violation(j, "type", "interdependent coupling supports only type-0 segments")
        for j, seg in enumerate(segments)
        if seg.seg_type is not SegmentType.TYPE0
    ]


def validate_robot(spec: RobotSpec) -> list[Violation]:
    """Check every robot-description invariant.

    Returns a list of violations; an empty list means the description is
    valid. Violations are data, not errors: a defective description is
    still a description.

    Checked invariants:
      * at least one segment;
      * every radial distance strictly positive;
      * every segment length strictly positive;
      * interdependent coupling: :func:`interdependent_violations`.
    """
    violations: list[Violation] = []
    if len(spec.segments) == 0:
        violations.append(Violation(None, "segments", "robot has no segments"))
        return violations

    for j, seg in enumerate(spec.segments):
        for i, di in enumerate(seg.arrangement.d):
            if not (di > 0.0):
                violations.append(
                    Violation(j, "joints.d", f"non-positive radial distance at joint {i}")
                )
        if not (seg.length > 0.0):
            violations.append(Violation(j, "length", "non-positive segment length"))

    if spec.coupling is Coupling.INTERDEPENDENT:
        violations += interdependent_violations(spec.segments)
    return violations
