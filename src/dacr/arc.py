"""Bridge between Clarke coordinates and constant-curvature arc parameters.

Under the constant-curvature assumption a bending segment is a circular
arc described by (kappa, theta, l): curvature, bending-plane angle, and
length, with bending angle phi = l * kappa. The Clarke coordinates of a
symmetric segment relate to these as

    cc = d * l * kappa * (cos theta, sin theta)

where d is the common radial distance of the actuation paths. The
length l is not recoverable from cc alone (only the product l * kappa
is), so the inverse direction takes l as an input.

Frame convention for sampled backbones: the base tangent points along
+z and theta is measured from +x in the base cross-section plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clarke import ClarkeCoordinates, ClarkePair, inverse
from .errors import DomainError
from .model import _checked, _normalize_angles, _number, _positive, _readonly


@dataclass(frozen=True)
class ArcParameters:
    """Constant-curvature description of one segment.

    Every parameter, and the bending angle phi = l * kappa, must be
    finite.

    Attributes:
        kappa: curvature, 1/length units, >= 0 (bending direction is
            carried by theta, not by a sign on kappa).
        theta: bending-plane angle, radians, stored in [0, 2*pi).
        l: segment length, length units, > 0.
    """

    kappa: float
    theta: float
    l: float

    def __post_init__(self) -> None:
        kappa, theta, l = (_number(n, getattr(self, n)) for n in ("kappa", "theta", "l"))
        # phi = l * kappa is not finite if l or kappa is not; 0.0 * phi is then NaN.
        if not math.isfinite(theta + 0.0 * (l * kappa)):
            values = {"kappa": kappa, "theta": theta, "l": l, "phi": l * kappa}
            name = next(name for name, value in values.items() if not math.isfinite(value))
            raise DomainError(f"arc parameter {name} is non-finite: {values[name]}")
        if not (kappa >= 0.0):
            raise DomainError(f"curvature must be non-negative, got {kappa}")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "theta", _normalize_angles(theta))
        object.__setattr__(self, "l", _positive("segment length", l))

    @property
    def theta_defined(self) -> bool:
        """False for a straight segment (kappa = 0), where the bending
        plane is meaningless and theta is 0 by convention."""
        return self.kappa > 0.0

    @property
    def phi(self) -> float:
        """Bending angle phi = l * kappa, radians."""
        return self.l * self.kappa


@dataclass(frozen=True)
class BackbonePolyline:
    """Sampled backbone curve: arc lengths s and 3-D points, base at origin."""

    s: np.ndarray
    points: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _readonly(self.s))
        object.__setattr__(self, "points", _readonly(self.points))


def arc_to_clarke(arc: ArcParameters, d: float) -> ClarkeCoordinates:
    """Clarke coordinates of a constant-curvature segment.

    cc = d * l * kappa * (cos theta, sin theta).

    Raises:
        DomainError: if d <= 0, or the coordinates overflow.
    """
    magnitude = _positive("radial distance", d) * arc.l * arc.kappa
    return ClarkeCoordinates(
        magnitude * math.cos(arc.theta), magnitude * math.sin(arc.theta)
    )


def clarke_to_arc(cc: ClarkeCoordinates, d: float, l: float) -> ArcParameters:
    """Arc parameters realizing given Clarke coordinates at known length.

    kappa = |cc| / (d * l), theta = atan2(rho_im, rho_re). The length
    must be supplied: cc only determines the product l * kappa. A zero
    cc, or one whose curvature underflows, is the straight configuration,
    where theta is undefined and is reported as 0 (atan2 would give pi
    for a negative zero rho_re).

    Raises:
        DomainError: if d <= 0 or l <= 0, if d * l underflows to zero or
            overflows, or if the curvature overflows.
    """
    d = _positive("radial distance", d)
    l = _positive("segment length", l)
    norm = math.hypot(cc.rho_re, cc.rho_im)
    kappa = theta = 0.0
    if norm != 0.0:
        if d * l == 0.0:
            raise DomainError(f"d * l underflows to zero (d = {d}, l = {l})")
        if d * l == math.inf:
            raise DomainError(f"d * l overflows (d = {d}, l = {l})")
        kappa = norm / (d * l)
        theta = math.atan2(cc.rho_im, cc.rho_re) if kappa else 0.0
    if not math.isfinite(l * kappa):  # phi is all that is left; the constructor names a fault
        return ArcParameters(kappa=kappa, theta=theta, l=l)
    return _checked(ArcParameters, kappa=kappa, theta=_normalize_angles(theta), l=l)


def arc_to_displacements(pair: ClarkePair, arc: ArcParameters, d: float) -> np.ndarray:
    """Joint displacements of a constant-curvature segment: the inverse
    transform of :func:`arc_to_clarke`, rho_i = d * l * kappa *
    cos(theta - psi_i). Physically meaningful when all joints share the
    radial distance d.

    Raises:
        DomainError: if d <= 0, or the displacements overflow.
    """
    return inverse(pair, arc_to_clarke(arc, d))


def sample_backbone(arc: ArcParameters, points: int) -> BackbonePolyline:
    """Sample the backbone arc at evenly spaced arc lengths.

    The base is at the origin with tangent +z; the arc bends toward the
    direction (cos theta, sin theta, 0). The chord from the base to the
    point at arc length s has length s * sinc(u) and leans u = kappa*s/2
    away from the tangent, with sinc(t) = sin(t) / t:

        (x, y) = (cos theta, sin theta) * s * sinc(u) * sin(u)
        z      = s * sinc(u) * cos(u)

    These are kappa * s**2/2 * sinc(u)**2 = (1 - cos(kappa s)) / kappa
    and s * sinc(2u) = sin(kappa s) / kappa, without the cancellation
    near the straight configuration and without an overflowing s**2.
    At kappa = 0 they are exact: the +z axis.

    Args:
        arc: constant-curvature segment description.
        points: sample count including both endpoints, >= 2.

    Raises:
        DomainError: if points is not a whole number >= 2, or cannot be allocated.
    """
    count = _number("sample count", points)
    if not (count.is_integer() and count >= 2):
        raise DomainError(f"need at least two sample points, got {points}")
    # The largest count whose (points, 3) float array NumPy can index.
    if count > np.iinfo(np.intp).max // (3 * np.dtype(float).itemsize):
        raise DomainError(f"{points} sample points exceed the largest array NumPy can index")
    try:
        s = np.linspace(0.0, arc.l, int(count))
        u = arc.kappa / 2.0 * s
        # np.sinc(t / pi) = sin(t) / t
        chord = s * np.sinc(u / np.pi)
        # Each column is written in place, which keeps the peak memory
        # below that of stacking separately computed columns.
        xyz = np.empty((s.shape[0], 3))
        x, y, z = xyz.T
        np.multiply(chord, np.sin(u), out=x)
        np.multiply(x, math.sin(arc.theta), out=y)
        x *= math.cos(arc.theta)
        np.multiply(chord, np.cos(u), out=z)
    except MemoryError:
        raise DomainError(f"cannot allocate {points} sample points") from None
    # At kappa = 0, x and y are +0.0 times cos or sin theta: -0.0 where
    # that is negative. Adding +0.0 gives +0.0, so a straight backbone
    # is the bare +z axis.
    xyz += 0.0
    return BackbonePolyline(s=s, points=xyz)
