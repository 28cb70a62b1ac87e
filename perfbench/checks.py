"""Checks of CLI output documents against the generator's ground truth.

Each ``expect_*`` returns a function of the CLI's standard output that
raises :class:`oracle.Mismatch` on any difference.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

import oracle

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Request:
    """One CLI invocation and what it must produce."""

    kind: str
    argv: list[str]
    expect_code: int
    check: Callable[[str], None]
    input_bytes: int


def verdict(req: Request, code: int, out: str, err: str) -> str:
    """OK, FAILED (traceback or wrong exit code) or WRONG (a wrong value,
    or invalid input accepted)."""
    if "Traceback" in err:
        return FAILED
    if req.expect_code != 0:
        if code == 0:
            return WRONG
        return OK if code == req.expect_code else FAILED
    if code != 0:
        return FAILED
    try:
        req.check(out)
    except (oracle.Mismatch, KeyError, TypeError, ValueError, IndexError):
        return WRONG
    return OK


def _optional(doc: dict, key: str, expected, rel=oracle.REL_LINEAR) -> None:
    if expected is None:
        if key in doc:
            raise oracle.Mismatch(f"unexpected {key!r} in output")
    else:
        oracle.close(doc[key], expected, rel, key)


def expect_clarke(cc, beta=None, alpha=None, beta_rel=oracle.REL_LINEAR):
    def check(out: str) -> None:
        doc = oracle.json_doc(out)
        oracle.close(doc["cc"], cc, what="cc")
        _optional(doc, "beta", beta, beta_rel)
        _optional(doc, "alpha", alpha)

    return check


def expect_joint(convention: str, values, beta=None, alpha=None):
    def check(out: str) -> None:
        doc = oracle.json_doc(out)
        if doc["convention"] != convention:
            raise oracle.Mismatch(f"convention {doc['convention']!r} != {convention!r}")
        oracle.close(doc["values"], values, what="values")
        _optional(doc, "beta", beta)
        _optional(doc, "alpha", alpha)

    return check


def expect_chain_clarke(ccs):
    def check(out: str) -> None:
        doc = oracle.json_doc(out)
        oracle.close([s["cc"] for s in doc["segments"]], ccs, what="chain cc")

    return check


def expect_chain_state(convention: str, values):
    def check(out: str) -> None:
        doc = oracle.json_doc(out)
        if doc["convention"] != convention:
            raise oracle.Mismatch(f"convention {doc['convention']!r} != {convention!r}")
        got = [s["values"] for s in doc["segments"]]
        if len(got) != len(values):
            raise oracle.Mismatch("segment count")
        for g, v in zip(got, values):
            oracle.close(g, v, what="chain values")

    return check


def expect_fields(**fields):
    """A JSON object whose listed numeric fields match (booleans exactly)."""

    def check(out: str) -> None:
        doc = oracle.json_doc(out)
        for key, value in fields.items():
            if isinstance(value, bool) or value is None:
                if doc[key] != value:
                    raise oracle.Mismatch(f"{key}: {doc[key]!r} != {value!r}")
            else:
                oracle.close(doc[key], value, what=key)

    return check


def expect_arc(kappa: float, theta: float, l: float):
    def check(out: str) -> None:
        doc = oracle.json_doc(out)
        oracle.arc(doc["kappa"], doc["theta"], kappa, theta)
        oracle.close([doc["l"], doc["phi"]], [l, kappa * l], what="l, phi")
        if doc["theta_defined"] is not True:
            raise oracle.Mismatch("theta_defined")

    return check


def expect_bytes(expected: bytes):
    def check(out: str) -> None:
        if out.encode() != expected:
            raise oracle.Mismatch("output differs from the golden file")

    return check


def expect_matrices(mp_inv: np.ndarray, fmt: str):
    filter_ok = bool(np.max(np.abs(oracle.pinv(mp_inv) @ np.ones(len(mp_inv)))) <= 1e-9)

    def check(out: str) -> None:
        if fmt == "csv":
            mats, flag = oracle.matrices_csv(out)
            flag = {"true": True, "false": False}[flag]
        else:
            mats = oracle.json_doc(out)
            flag = mats["filter_ok"]
        oracle.matrices(mp_inv, mats["mp"], mats["mp_inv"], mats["projector"])
        if flag != filter_ok:
            raise oracle.Mismatch("filter_ok")

    return check


def expect_backbone(arc: dict, points: int, fmt: str):
    def check(out: str) -> None:
        if fmt == "csv":
            s, xyz = oracle.polyline_csv(out)
        else:
            doc = oracle.json_doc(out)
            s, xyz = doc["s"], doc["points"]
        ref_s, ref_xyz = oracle.backbone(arc["kappa"], arc["theta"], arc["l"], points)
        oracle.close(s, ref_s, what="s")
        oracle.close(xyz, ref_xyz, what="points")

    return check
