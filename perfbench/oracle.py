"""Independent NumPy reference and the comparisons every workload uses.

Tolerances are relative to the scale of the compared values,
``atol = rel * max(1, max|expected|)``:

* REL_LINEAR for closed-form linear maps (forward, inverse, projection,
  accumulation, matrices, arc bridge, sampled backbones);
* REL_ITERATIVE for the length recovered by the type-3 twist fixed
  point, which stops at a 1e-9 step and so is not exact to rounding.
"""

from __future__ import annotations

import json
import math

import numpy as np

REL_LINEAR = 1e-9
REL_ITERATIVE = 1e-6

# Exit codes documented in the CLI for each kind of invalid request.
EXIT_OFF_MANIFOLD = 1
EXIT_DEGENERATE = 3
EXIT_WRONG_LENGTH = 4
EXIT_ASYMMETRIC_Q = 5


class Mismatch(Exception):
    """A result differs from the reference."""


def close(got, expected, rel: float = REL_LINEAR, what: str = "value") -> None:
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if got.shape != expected.shape:
        raise Mismatch(f"{what}: shape {got.shape} != {expected.shape}")
    scale = max(1.0, float(np.max(np.abs(expected)))) if expected.size else 1.0
    err = float(np.max(np.abs(got - expected))) if expected.size else 0.0
    if not err <= rel * scale:  # also catches NaN
        raise Mismatch(f"{what}: max error {err:.3e} > {rel * scale:.3e}")


def angle_close(got: float, expected: float, what: str = "theta") -> None:
    diff = (got - expected + math.pi) % (2.0 * math.pi) - math.pi
    if not abs(diff) <= REL_LINEAR * 2.0 * math.pi:
        raise Mismatch(f"{what}: {got!r} != {expected!r}")


def arc(kappa: float, theta: float, truth_kappa: float, truth_theta: float) -> None:
    close(kappa, truth_kappa, what="kappa")
    angle_close(theta, truth_theta)


def pinv(mp_inv: np.ndarray) -> np.ndarray:
    """Reference forward matrix: the Moore-Penrose pseudoinverse."""
    return np.linalg.pinv(mp_inv)


def backbone(kappa: float, theta: float, l: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference polyline: a point at arc length s is the planar arc point
    ((1 - cos(kappa s)) / kappa, 0, sin(kappa s) / kappa) rotated by
    theta about the base tangent z."""
    s = np.linspace(0.0, l, points)
    planar = np.stack(((1.0 - np.cos(kappa * s)) / kappa, np.zeros_like(s), np.sin(kappa * s) / kappa))
    c, si = math.cos(theta), math.sin(theta)
    rz = np.array([[c, -si, 0.0], [si, c, 0.0], [0.0, 0.0, 1.0]])
    return s, (rz @ planar).T


def polyline_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse ``s,x,y,z`` CSV output into (s, points)."""
    header, _, body = text.partition("\n")
    if header != "s,x,y,z":
        raise Mismatch(f"unexpected CSV header {header!r}")
    flat = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float)
    rows = flat.reshape(-1, 4)
    return rows[:, 0], rows[:, 1:]


def matrices_csv(text: str) -> tuple[dict, str]:
    """Parse the matrix command's CSV output into named arrays and the
    filter_ok flag as written."""
    out, rows = {}, []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line in ("mp", "mp_inv", "projector"):
            rows = out[line] = []
        elif line == "filter_ok":
            return {k: np.array(v) for k, v in out.items()}, lines[i + 1]
        else:
            rows.append([float(x) for x in line.split(",")])
    raise Mismatch("matrix CSV lacks filter_ok")


def matrices(seg_mp_inv: np.ndarray, mp, mp_inv, projector) -> None:
    ref = pinv(seg_mp_inv)
    close(mp, ref, what="mp")
    close(mp_inv, seg_mp_inv, what="mp_inv")
    close(projector, seg_mp_inv @ ref, what="projector")


def json_doc(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from None
