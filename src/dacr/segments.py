"""Per-segment state mappings for the four segment types.

Joint values can be expressed either as displacements ``rho`` (what the
Clarke transform acts on) or as absolute joint lengths ``q`` with the
convention

    q_i = l - rho_i

for a segment of neutral-axis length l. Because the forward matrix of a
symmetric arrangement annihilates constant vectors, the constant l (and
any other per-segment constant, such as the helical offset induced by a
proximal twist) drops out of ``mp @ q``, which is what makes the q-side
mappings here work.

Segment types: type 0 bends only; type I adds a length joint beta;
type II adds a twist joint alpha; type III has both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .clarke import (
    ClarkeCoordinates,
    ClarkePair,
    _as_vector,
    _check_finite,
    _check_length,
    _forward,
    _residual,
    build_pair,
    inverse,
)
from .errors import (
    ConventionMismatch,
    DomainError,
    FilterPropertyUnavailable,
    OffManifold,
    UnsupportedArrangement,
)
from .model import (
    OFF_MANIFOLD_REL,
    JointArrangement,
    SegmentSpec,
    SegmentType,
    _bound,
    _common_radius,
    _member,
    _number,
    _positive,
    _readonly,
)


class Convention(str, Enum):
    """Which quantity a joint-space vector holds."""

    RHO = "rho"
    Q = "q"


@dataclass(frozen=True)
class JointState:
    """Joint-space state of one segment in a declared convention.

    beta (length joint) and alpha (twist joint) are present exactly when
    the segment type has them.
    """

    convention: Convention
    values: np.ndarray
    beta: float | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "convention", _member(Convention, self.convention, "convention"))
        object.__setattr__(self, "values", _readonly(_as_vector(self.values, name="values")))
        _set_joint_scalars(self)


@dataclass(frozen=True)
class ExtendedClarkeState:
    """Clarke coordinates optionally extended by length/twist joints."""

    cc: ClarkeCoordinates
    beta: float | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        _set_joint_scalars(self)


def _set_joint_scalars(state: JointState | ExtendedClarkeState) -> None:
    """Store beta and alpha as floats, refusing NaN and infinity."""
    for name in ("beta", "alpha"):
        value = getattr(state, name)
        if value is not None:
            value = _number(name, value)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
            object.__setattr__(state, name, value)


def common_radius(arr: JointArrangement) -> float:
    """The shared radial distance of an arrangement.

    The twist mappings model every actuation path as a helix of the same
    radius, so they are only defined when all d_i agree.

    Raises:
        UnsupportedArrangement: if the d_i differ by more than 1e-9
            relative, or are not positive.
    """
    d0 = _common_radius(arr.d)
    if d0 is None:
        raise UnsupportedArrangement(
            "twist mappings need a common positive radial distance across joints"
        )
    return d0


def _from_q(
    pair: ClarkePair,
    t: SegmentType,
    q,
    tol: float | None = None,
    beta: float | None = None,
    alpha: float | None = None,
    d: float | None = None,
) -> tuple[np.ndarray, float | None]:
    """The checked q and beta of a type-t segment; :func:`_extended` adds cc = -mp @ q.

    Its checks run in one order: the vector (shape, length, finiteness),
    the filter property, the common radius, the value domain, the
    off-manifold residual. Without beta, a length-joint type recovers it
    from m = mean(q): beta = m (type I), or as :func:`type3_forward_from_q`
    describes (type III, at radius d or, when d is None, the arrangement's
    common radius); the residual is that of q - m, its default bound scaled
    by max|q_i|. Otherwise beta and alpha pass through. q may be a
    JointState, whose values the state has already checked.
    """
    if isinstance(q, JointState):
        q = q.values
        _check_length(q, pair.n, "q")
    else:
        q = _as_vector(q, pair.n, "q")
    if not pair.filter_ok:
        raise FilterPropertyUnavailable(
            "joint lengths need an arrangement whose forward matrix "
            "annihilates constant vectors"
        )
    if t.has_length_joint and beta is None:
        # ``sum / n`` is ``np.mean`` bit for bit.
        beta = m = float(q.sum() / q.shape[0])
        if t.has_twist_joint:
            d = common_radius(pair.arrangement) if d is None else _positive("radial distance", d)
            a = abs(_number("alpha", alpha) * d)
            if not (m > a):
                raise DomainError(
                    f"mean joint length {m} does not exceed the twist arm |alpha*d| = {a}"
                )
            beta = math.sqrt((m - a) * (m + a))
        beta = _positive("recovered length", beta)
        residual = _residual(pair, q - m)
        tol = _bound(OFF_MANIFOLD_REL, q, residual, tol)
        if not (residual <= tol):  # also refuses a NaN residual
            raise OffManifold(
                f"joint lengths are not consistent with any on-manifold displacement "
                f"(residual {residual:.3e} > tol {tol:.3e})"
            )
    return q, beta


def _extended(pair: ClarkePair, q, beta, alpha=None) -> ExtendedClarkeState:
    """The state of q and beta from :func:`_from_q`; cc = -mp @ q as q = l*ones - rho."""
    return ExtendedClarkeState(ClarkeCoordinates(*(-(pair.mp @ q)).tolist()), beta, alpha)


def _q_from_cc(pair: ClarkePair, cc: ClarkeCoordinates, length: float) -> np.ndarray:
    """q = length - rho for the on-manifold rho of cc; DomainError if it overflows."""
    return _check_finite(length - inverse(pair, cc), "joint lengths")


def recover_length(pair: ClarkePair, q, tol: float | None = None) -> float:
    """Recover the segment length from joint lengths.

    The length is (1/n) * ones.T @ (I + P) @ q, with P the projector
    onto the manifold, which equals l for any q = l*ones - rho with
    on-manifold rho. The projector term sums to zero when the filter
    property holds, so this is mean(q), which is refused unless positive.
    Asymmetric arrangements lack that property, and silently averaging
    their q would hide a modeling error. It is the beta of
    :func:`type1_forward_from_q`, so it refuses the same inputs.

    Args:
        pair: matrices for the segment's arrangement.
        q: n joint lengths.
        tol: off-manifold residual bound; defaults to
            OFF_MANIFOLD_REL * max(1, max|q_i|).

    Raises:
        DimensionMismatch: wrong q length.
        DomainError: q has a non-finite entry, mean(q) is not positive,
            tol is negative or NaN, or the Clarke coordinates overflow.
        FilterPropertyUnavailable: if pair.filter_ok is false.
        OffManifold: if, after removing the recovered constant, q is not
            a valid displacement vector within tol.
    """
    return type1_forward_from_q(pair, q, tol).beta


def type1_forward_from_q(pair: ClarkePair, q, tol: float | None = None) -> ExtendedClarkeState:
    """Type-I forward map on joint lengths: cc = -mp @ q, beta recovered.

    The constant l in q = l*ones - rho is filtered out of cc and
    reappears as the recovered beta.

    Raises:
        As :func:`recover_length`.
    """
    return _extended(pair, *_from_q(pair, SegmentType.TYPE1, q, tol))


def type1_inverse_to_q(pair: ClarkePair, state: ExtendedClarkeState) -> np.ndarray:
    """Type-I inverse map to joint lengths: q = beta * ones - inverse(pair, cc).

    Raises:
        ConventionMismatch: if the state carries no beta.
        DomainError: if q overflows.
    """
    if state.beta is None:
        raise ConventionMismatch("type-I inverse needs a length joint value (beta)")
    return _q_from_cc(pair, state.cc, state.beta)


def helical_offset(alpha: float, d: float, l: float) -> float:
    """Extra path length from twisting a segment of length l by alpha.

    A path at radius d becomes a helix; its length is the hypotenuse of
    the unrolled triangle with legs alpha*d and l:

        delta = sqrt((alpha*d)**2 + l**2) - l

    evaluated in the rationalized form (alpha*d)**2 / (hypot + l) to
    avoid cancellation for small alpha. Even in alpha, zero at alpha=0,
    strictly increasing in |alpha|.

    Raises:
        DomainError: if d <= 0 or l <= 0, or the offset is not finite.
    """
    d = _positive("radial distance", d)
    l = _positive("segment length", l)
    a = _number("alpha", alpha) * d
    offset = a * a / (math.hypot(a, l) + l)
    if not math.isfinite(offset):
        raise DomainError(f"helical offset is not finite (alpha = {alpha}, d = {d}, l = {l})")
    return offset


def type3_forward_from_q(
    pair: ClarkePair,
    q,
    alpha: float,
    d: float,
    l_hint: float | None = None,
    tol: float | None = None,
) -> ExtendedClarkeState:
    """Type-III forward map recovering beta from twist-compensated q.

    On the manifold mean(q) = beta + helical_offset(alpha, d, beta)
    = hypot(alpha*d, beta), so with m = mean(q) and a = |alpha*d| the
    length is beta = sqrt((m - a) * (m + a)), in its last bit not always
    the mean of the compensated q - (m - beta). As in type I, the residual
    is that of q - m (in exact arithmetic, of the compensated q minus
    beta), its default bound scales with max|q_i|, and a finite q whose
    mean overflows is OffManifold (a NaN residual). The Clarke
    coordinates come from the raw q: constants are filtered out.

    Args:
        pair: matrices for the segment's arrangement.
        q: n joint lengths including the helical offset.
        alpha: twist joint value, radians.
        d: common radial distance of the actuation paths, > 0.
        l_hint: ignored. Kept in the fifth position so that existing
            positional callers do not bind their length to ``tol``.
        tol: off-manifold bound passed to length recovery.

    Raises:
        DimensionMismatch, FilterPropertyUnavailable, OffManifold: as in
            :func:`recover_length`.
        DomainError: non-finite q, non-positive d, or mean(q) <=
            |alpha*d| (no positive length explains the joint lengths).
    """
    return _extended(pair, *_from_q(pair, SegmentType.TYPE3, q, tol, alpha=alpha, d=d), alpha)


def _check_joints(t: SegmentType, beta: float | None, alpha: float | None) -> None:
    """Refuse joint values the segment type does not have, and require alpha."""
    if beta is not None and not t.has_length_joint:
        raise ConventionMismatch(f"{t.value} segment takes no beta")
    if alpha is not None and not t.has_twist_joint:
        raise ConventionMismatch(f"{t.value} segment takes no alpha")
    if t.has_twist_joint and alpha is None:
        raise ConventionMismatch(f"{t.value} segment needs alpha (in the state or via --alpha)")


def segment_forward(
    seg: SegmentSpec, state: JointState, tol: float | None = None
) -> ExtendedClarkeState:
    """Forward map of one segment, dispatched on its type and the state's convention.

    On rho, cc = mp @ rho and the length/twist joints pass through; the
    length-joint types need beta. On q, cc = -mp @ q, which needs the
    filter property for every type: type I recovers beta, and type III
    recovers beta from twist-compensated q unless the state already
    carries it.

    Args:
        seg: the segment's description; its pair comes from
            :func:`dacr.clarke.build_pair`.
        state: joint state in either convention.
        tol: off-manifold bound for the q-side length recovery.

    Raises:
        DegenerateArrangement: from building the pair, before any other.
        ConventionMismatch: joint values the type lacks or needs.
        FilterPropertyUnavailable, OffManifold, DomainError,
        DimensionMismatch, UnsupportedArrangement: from the mappings.
    """
    pair = build_pair(seg.arrangement)
    t = seg.seg_type
    _check_joints(t, state.beta, state.alpha)
    if state.convention is Convention.RHO:
        if t.has_length_joint and state.beta is None:
            raise ConventionMismatch(f"{t.value} forward on rho needs beta")
        _check_length(state.values, pair.n, "rho")
        return ExtendedClarkeState(
            cc=_forward(pair, state.values), beta=state.beta, alpha=state.alpha
        )
    if t is SegmentType.TYPE1 and state.beta is not None:
        raise ConventionMismatch("q already encodes the length; drop beta or use rho")
    return _extended(pair, *_from_q(pair, t, state, tol, state.beta, state.alpha), state.alpha)


def segment_inverse(seg: SegmentSpec, state: ExtendedClarkeState) -> JointState:
    """Inverse map of one segment, dispatched on its type.

    Types 0/II return displacements rho; the length-joint types return
    joint lengths q, type III with the helical offset of its twist.

    Raises:
        DegenerateArrangement: from building the pair, before any other.
        ConventionMismatch: joint values the type lacks or needs.
        UnsupportedArrangement, DomainError: from the type-III offset,
            or an overflowing q.
    """
    pair = build_pair(seg.arrangement)
    t = seg.seg_type
    _check_joints(t, state.beta, state.alpha)
    if not t.has_length_joint:
        return JointState(Convention.RHO, inverse(pair, state.cc), alpha=state.alpha)
    if state.beta is None:
        raise ConventionMismatch(f"{t.value} inverse needs beta")
    length = state.beta
    if t.has_twist_joint:
        length += helical_offset(state.alpha, common_radius(pair.arrangement), state.beta)
    beta = state.beta if t.has_twist_joint else None
    return JointState(Convention.Q, _q_from_cc(pair, state.cc, length), beta, state.alpha)
