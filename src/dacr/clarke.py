"""Generalized Clarke transform for displacement-actuated segments.

An n-joint bending segment has only two degrees of freedom, so the
n-dimensional displacement vector rho lives on a 2-D linear manifold.
The Clarke transform maps between rho and the two free coordinates
(rho_re, rho_im):

    cc  = mp @ rho          (forward)
    rho = mp_inv @ cc       (inverse)

mp_inv has rows [cos(psi_i), sin(psi_i)]; mp is its Moore-Penrose left
pseudoinverse, which collapses to (2/n) * mp_inv.T for evenly spaced
joints on a common radius. Both matrices depend only on the joint
angles; the radial distances matter only when converting to arc
parameters (see :mod:`dacr.arc`).

Validation happens once, at the library boundary. Public functions
check what they are given (shape, length, finiteness) and raise a
:class:`~dacr.errors.DacrError`; ``_``-prefixed kernels trust their
input and only compute. The state dataclasses (``ClarkeCoordinates``,
``segments.JointState``, ``chain.ChainState``) check a caller's values
and hold them as finite floats or private read-only 1-D copies, so no
later write by the caller reaches them; a stack the library has just
computed is checked and frozen once, in place. A function given a state
checks only what it cannot know, such as the segment's joint count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateArrangement, DimensionMismatch, DomainError
from .model import (
    DISPLACEMENT_REL,
    FILTER_TOL,
    GRAM_DEGENERACY_REL,
    JointArrangement,
    _bound,
    _number,
    _readonly,
)


@dataclass(frozen=True)
class ClarkeCoordinates:
    """The two free variables of a bending segment, in length units.

    Raises:
        DomainError: if either coordinate is not a number, NaN or infinite.
    """

    rho_re: float
    rho_im: float

    def __post_init__(self) -> None:
        re, im = _number("rho_re", self.rho_re), _number("rho_im", self.rho_im)
        if not (math.isfinite(re) and math.isfinite(im)):
            raise DomainError(f"Clarke coordinates must be finite, got ({re}, {im})")
        self.__dict__.update(rho_re=re, rho_im=im)

    def as_array(self) -> np.ndarray:
        return np.array([self.rho_re, self.rho_im])


@dataclass(frozen=True)
class DisplacementCheck:
    """Result of testing whether a vector lies on the 2-DOF manifold."""

    valid: bool
    residual_norm: float


@dataclass(frozen=True)
class ClarkePair:
    """Forward/inverse Clarke matrices for one joint arrangement.

    Built by :func:`build_pair`, once per arrangement; every array is
    read-only, so the pair can be shared by all callers.

    Attributes:
        arrangement: the joint locations the matrices were built from.
        mp: 2 x n forward matrix (displacements -> Clarke coordinates).
        mp_inv: n x 2 right inverse (Clarke coordinates -> displacements).
        projector: n x n idempotent map ``mp_inv @ mp`` onto the
            manifold, computed once with the pair and stored.
        filter_ok: True when mp annihilates constant vectors
            (``mp @ ones(n) ~ 0``). Holds for symmetric arrangements;
            length recovery and the q-side mappings rely on it.
    """

    arrangement: JointArrangement
    mp: np.ndarray
    mp_inv: np.ndarray
    projector: np.ndarray
    filter_ok: bool

    @property
    def n(self) -> int:
        return self.arrangement.n


def _as_vector(values, n: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate a joint-space vector: a finite 1-D float array, of length n
    when n is given; a scalar is a vector of length 1."""
    try:
        out = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # text, ragged rows, 10**400
        raise DomainError(f"{name} must hold numbers ({exc})") from None
    if out.ndim == 0:
        out = out.reshape(1)
    elif out.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional, got shape {out.shape}")
    if n is not None:
        _check_length(out, n, name)
    return _check_finite(out, name)


def _check_finite(vector: np.ndarray, name: str) -> np.ndarray:
    """An array, refused with DomainError if any entry is NaN or infinite."""
    # count_nonzero is a plain C call, about half the cost of .all()
    # on the short vectors of a control loop.
    if np.count_nonzero(np.isfinite(vector)) != vector.size:
        raise DomainError(f"{name} must be finite")
    return vector


def _check_length(vector: np.ndarray, n: int, name: str) -> None:
    """The one check a vector held by a state still needs: its length."""
    if vector.shape[0] != n:
        raise DimensionMismatch(f"{name} has length {vector.shape[0]}, expected {n}")


def build_mp_inv(arr: JointArrangement) -> np.ndarray:
    """Build the n x 2 inverse Clarke matrix, row i = [cos psi_i, sin psi_i]."""
    return np.column_stack((np.cos(arr.psi), np.sin(arr.psi)))


def _pseudoinverse_mp(mp_inv: np.ndarray) -> np.ndarray:
    """Left pseudoinverse of mp_inv via the normal equations.

    The Gram matrix is 2x2, so it is inverted in closed form; no
    iterative or general-purpose solver is involved.

    Raises:
        DegenerateArrangement: if the Gram matrix is singular relative
            to its scale, i.e. all joints lie on one line through the
            cross-section center (psi values in {0, pi} up to shifts).
    """
    gram = mp_inv.T @ mp_inv
    det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
    scale = 0.5 * (gram[0, 0] + gram[1, 1])
    if det < GRAM_DEGENERACY_REL * scale * scale:
        raise DegenerateArrangement(
            "joint angles span only one bending direction (singular 2x2 Gram matrix)"
        )
    gram_inv = np.array([[gram[1, 1], -gram[0, 1]], [-gram[1, 0], gram[0, 0]]]) / det
    return gram_inv @ mp_inv.T


def build_pair(arr: JointArrangement) -> ClarkePair:
    """The (mp, mp_inv) matrix pair of an arrangement, built on the first
    call and returned as the same object on every later one.

    Symmetric arrangements with n >= 3 use the closed form
    (2/n) * mp_inv.T; every other arrangement, including the collinear
    symmetric pair psi = [0, pi], takes the pseudoinverse route.

    The pair is memoised on the arrangement itself, which is frozen and
    holds read-only arrays, so the memo can never go stale; it lives as
    long as the arrangement. A failed build stores nothing.

    Raises:
        DegenerateArrangement: joints collinear through the axis.
        DomainError: arr is not a JointArrangement.
    """
    pair = getattr(arr, "_pair", None)
    if pair is not None:
        return pair
    if not isinstance(arr, JointArrangement):
        raise DomainError(f"build_pair needs a JointArrangement, got {arr!r}")
    mp_inv = build_mp_inv(arr)
    if arr.n > 2 and arr.is_symmetric():
        mp = (2.0 / arr.n) * mp_inv.T
    else:
        mp = _pseudoinverse_mp(mp_inv)
    filter_ok = bool(np.max(np.abs(mp @ np.ones(arr.n))) <= FILTER_TOL)
    # The projector is built from the C-ordered copy of mp: its bits
    # depend on that layout.
    mp, mp_inv = _readonly(mp), _readonly(mp_inv)
    pair = ClarkePair(arr, mp, mp_inv, _readonly(mp_inv @ mp), filter_ok)
    object.__setattr__(arr, "_pair", pair)
    return pair


def forward(pair: ClarkePair, rho) -> ClarkeCoordinates:
    """Map a displacement vector to its Clarke coordinates (cc = mp @ rho).

    Args:
        pair: matrices for the segment's arrangement.
        rho: n displacement values, length units.

    Raises:
        DimensionMismatch: if rho does not have length n.
        DomainError: if rho has a non-finite entry, or the coordinates
            overflow.
    """
    return _forward(pair, _as_vector(rho, pair.n, "rho"))


def _forward(pair: ClarkePair, rho: np.ndarray) -> ClarkeCoordinates:
    """:func:`forward` on a validated length-n vector."""
    return ClarkeCoordinates(*(pair.mp @ rho).tolist())


def inverse(pair: ClarkePair, cc: ClarkeCoordinates) -> np.ndarray:
    """Reconstruct the on-manifold displacement vector (rho = mp_inv @ cc).

    Raises:
        DomainError: if the reconstruction overflows.
    """
    return _check_finite(pair.mp_inv @ cc.as_array(), "reconstructed rho")


def project(pair: ClarkePair, rho) -> np.ndarray:
    """Project an arbitrary n-vector onto the 2-DOF displacement manifold.

    Returns the unique on-manifold vector with the same Clarke
    coordinates as ``rho``; idempotent. For symmetric arrangements this
    removes any constant offset.

    Raises:
        DimensionMismatch: if rho does not have length n.
        DomainError: if rho has a non-finite entry, or the projection
            overflows.
    """
    rho = _as_vector(rho, pair.n, "rho")
    return _check_finite(pair.projector @ rho, "projected rho")


def validate_displacement(pair: ClarkePair, rho, tol: float | None = None) -> DisplacementCheck:
    """Check that a displacement vector lies on the segment's manifold.

    The residual is the Euclidean distance between ``rho`` and its
    projection. For symmetric arrangements a valid vector also has
    (near-)zero component sum, since constant vectors are orthogonal to
    the manifold.

    Args:
        pair: matrices for the segment's arrangement.
        rho: n candidate displacement values.
        tol: largest residual accepted as valid, length units; defaults
            to DISPLACEMENT_REL * max(1, max|rho_i|).

    Raises:
        DimensionMismatch: if rho does not have length n.
        DomainError: if rho has a non-finite entry, or tol is negative or NaN.
    """
    return _validate_displacement(pair, _as_vector(rho, pair.n, "rho"), tol)


def _validate_displacement(pair: ClarkePair, rho: np.ndarray, tol: float | None) -> DisplacementCheck:
    """:func:`validate_displacement` on a validated length-n vector."""
    residual = _residual(pair, rho)
    return DisplacementCheck(residual <= _bound(DISPLACEMENT_REL, rho, residual, tol), residual)


def _residual(pair: ClarkePair, x: np.ndarray) -> float:
    """Euclidean distance from a validated length-n vector to its projection.

    ``math.sqrt(np.vdot(r, r))`` is ``np.linalg.norm`` of a 1-D vector,
    bit for bit, without its dispatch or an overflow warning. Past |r| of
    about 1e154 the sum of squares overflows, and r is rescaled by max|r|.
    """
    r = x - pair.projector @ x
    residual = math.sqrt(np.vdot(r, r))
    if residual == math.inf:
        scale = float(np.abs(r).max())
        if scale < math.inf:
            r = r / scale
            residual = scale * math.sqrt(np.vdot(r, r))
    return residual
