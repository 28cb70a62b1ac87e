"""Seeded inputs with known ground truth.

Every state is built forward from physical quantities: a bending angle
phi and plane angle theta give the Clarke coordinates
cc = d * phi * (cos theta, sin theta); the joint displacements are
rho = [cos psi_i, sin psi_i] @ cc; joint lengths add the segment length
(and, with a twist joint, the helical offset). The oracle compares what
dacr returns with these quantities, so nothing here calls dacr.

Stated physical ranges (length unit mm, angles in rad). Inputs are drawn
from these ranges and never filtered by whether the current code
handles them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

N_JOINTS = (3, 12)          # joints per segment, inclusive
RADIUS = (2.0, 20.0)        # radial distance d of the actuation paths
LENGTH = (5.0, 200.0)       # nominal segment length, log-uniform
BETA_REL = (0.75, 1.25)     # length joint beta as a share of the nominal length
ALPHA = (-math.pi, math.pi) # twist joint alpha
PHI = (0.0, math.pi)        # bending angle kappa * l
ASYM_JITTER = 0.4           # asymmetric psi_i: even spacing +- this share of a gap

TWIST_TYPES = ("type2", "type3")
LENGTH_TYPES = ("type1", "type3")


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream) so workloads do not share draws."""
    return np.random.default_rng([seed, *stream.encode()])


def helical_offset(alpha: float, d: float, l: float) -> float:
    """Extra path length of a helix of radius d twisted by alpha over length l."""
    return math.hypot(alpha * d, l) - l


def symmetric_psi(n: int) -> np.ndarray:
    return TWO_PI * np.arange(n) / n


def segment(rng, seg_type="type0", symmetric=True, n=None, d=None) -> dict:
    """One segment description: type, nominal length, n, d, psi (None if symmetric)."""
    n = int(rng.integers(N_JOINTS[0], N_JOINTS[1] + 1)) if n is None else n
    d = float(rng.uniform(*RADIUS)) if d is None else d
    length = float(math.exp(rng.uniform(math.log(LENGTH[0]), math.log(LENGTH[1]))))
    psi = None
    if not symmetric:
        gap = TWO_PI / n
        psi = (symmetric_psi(n) + rng.uniform(-ASYM_JITTER, ASYM_JITTER, n) * gap).tolist()
    return {"type": seg_type, "length": length, "n": n, "d": d, "psi": psi}


def psi_of(seg: dict) -> np.ndarray:
    return symmetric_psi(seg["n"]) if seg["psi"] is None else np.array(seg["psi"])


def mp_inv_ref(seg: dict) -> np.ndarray:
    psi = psi_of(seg)
    return np.column_stack((np.cos(psi), np.sin(psi)))


def robot_json(segments: list[dict], coupling: str = "independent") -> dict:
    """The CLI's robot-description document for these segments."""
    out = []
    for seg in segments:
        if seg["psi"] is None:
            joints = {"symmetric": {"n": seg["n"], "d": seg["d"]}}
        else:
            joints = {"explicit": [{"psi": p, "d": seg["d"]} for p in seg["psi"]]}
        out.append({"type": seg["type"], "length": seg["length"], "joints": joints})
    return {"coupling": coupling, "segments": out}


def clarke_truth(rng, d: float) -> np.ndarray:
    """Clarke coordinates d * phi * (cos theta, sin theta) of a random bend."""
    phi = float(rng.uniform(*PHI))
    theta = float(rng.uniform(0.0, TWO_PI))
    return d * phi * np.array([math.cos(theta), math.sin(theta)])


def segment_state(rng, seg: dict, convention: str) -> dict:
    """Joint state of one segment plus its ground truth.

    Keys: convention, values, beta, alpha (None where the type has no such
    joint), cc (true Clarke coordinates) and l (true length).
    """
    t = seg["type"]
    beta = seg["length"] * float(rng.uniform(*BETA_REL)) if t in LENGTH_TYPES else None
    alpha = float(rng.uniform(*ALPHA)) if t in TWIST_TYPES else None
    l = seg["length"] if beta is None else beta
    cc = clarke_truth(rng, seg["d"])
    rho = mp_inv_ref(seg) @ cc
    values = rho
    if convention == "q":
        offset = 0.0 if alpha is None else helical_offset(alpha, seg["d"], l)
        values = (l + offset) - rho
    return {
        "convention": convention,
        "values": values,
        "beta": beta,
        "alpha": alpha,
        "cc": cc,
        "l": l,
    }


def command_state(rng, seg: dict) -> dict:
    """A commanded Clarke state (cc plus beta/alpha where the type has them)."""
    st = segment_state(rng, seg, "rho")
    return {"cc": st["cc"], "beta": st["beta"], "alpha": st["alpha"]}


def inverse_truth(seg: dict, cmd: dict) -> np.ndarray:
    """Joint values the inverse map must return for a commanded state:
    rho for types 0 and 2, q for types 1 and 3."""
    rho = mp_inv_ref(seg) @ cmd["cc"]
    t = seg["type"]
    if t == "type1":
        return cmd["beta"] - rho
    if t == "type3":
        return cmd["beta"] + helical_offset(cmd["alpha"], seg["d"], cmd["beta"]) - rho
    return rho


def interdependent_chain(rng, count: int, n=None, d=None) -> list[dict]:
    """Type-0 segments sharing one symmetric arrangement."""
    n = int(rng.integers(N_JOINTS[0], N_JOINTS[1] + 1)) if n is None else n
    d = float(rng.uniform(*RADIUS)) if d is None else d
    return [segment(rng, "type0", True, n=n, d=d) for _ in range(count)]


def independent_chain(rng, count: int) -> list[dict]:
    """Type-0 segments, each with its own arrangement, half of them asymmetric."""
    return [segment(rng, "type0", bool(rng.integers(2))) for _ in range(count)]


def accumulate(segments: list[dict], rho_per_seg: list[np.ndarray]) -> list[np.ndarray]:
    """Coupled joint lengths q^j = l^j - rho^j + q^(j-1)."""
    out, q = [], 0.0
    for seg, rho in zip(segments, rho_per_seg):
        q = seg["length"] - rho + q
        out.append(q)
    return out


def chain_state(rng, segments: list[dict], coupling: str) -> dict:
    """Chain joint state with per-segment truth: rho (independent) or
    accumulated q (interdependent)."""
    ccs = [clarke_truth(rng, seg["d"]) for seg in segments]
    rhos = [mp_inv_ref(seg) @ cc for seg, cc in zip(segments, ccs)]
    if coupling == "interdependent":
        return {"convention": "q", "values": accumulate(segments, rhos), "cc": ccs}
    return {"convention": "rho", "values": rhos, "cc": ccs}


def chain_command(rng, segments: list[dict], coupling: str) -> dict:
    """Commanded per-segment Clarke coordinates and the joint values the
    chain inverse must return (rho, or accumulated q)."""
    ccs = [clarke_truth(rng, seg["d"]) for seg in segments]
    rhos = [mp_inv_ref(seg) @ cc for seg, cc in zip(segments, ccs)]
    expect = accumulate(segments, rhos) if coupling == "interdependent" else rhos
    return {"cc": ccs, "expect": expect}


def arc_truth(rng) -> dict:
    """Arc parameters {kappa, theta, l} of a random bend."""
    l = float(math.exp(rng.uniform(math.log(LENGTH[0]), math.log(LENGTH[1]))))
    phi = float(rng.uniform(*PHI))
    return {"kappa": phi / l, "theta": float(rng.uniform(0.0, TWO_PI)), "l": l}


class Files:
    """Writes the JSON inputs of one pool and tracks their sizes."""

    def __init__(self, workdir: Path) -> None:
        self.dir = workdir
        self.count = 0

    def write(self, obj) -> tuple[str, int]:
        self.count += 1
        path = self.dir / f"in{self.count:04d}.json"
        data = json.dumps(obj, default=_plain).encode()
        path.write_bytes(data)
        return str(path), len(data)


def _plain(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"cannot write {type(x).__name__}")
