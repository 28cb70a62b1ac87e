"""Every dacr library call the control-loop workload makes.

Calls go through module attributes (``clarke.forward``, not a name bound
at import) so that the tracer's wrappers are seen once installed. Only
primitives that ROADMAP keeps are used: no ``type1_forward``,
``type2_forward`` or ``l_hint`` keyword. The one place that depends on
today's signature is the positional length hint of
``segments.type3_forward_from_q`` in :func:`tick`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dacr import arc, chain, clarke, model, segments


@dataclass
class Prepared:
    """A robot ready for ticks: its spec and, for one segment, its pair."""

    kind: str  # "single", "independent" or "interdependent"
    desc: list[dict]
    spec: model.RobotSpec
    pair: clarke.ClarkePair | None


def arrangement(seg: dict) -> model.JointArrangement:
    if seg["psi"] is None:
        return model.make_symmetric_arrangement(seg["n"], seg["d"])
    return model.JointArrangement(psi=np.array(seg["psi"]), d=np.full(seg["n"], seg["d"]))


def prepare(kind: str, desc: list[dict]) -> Prepared:
    """Build and validate the robot; single segments get their pair now,
    as a controller would at start-up."""
    coupling = model.Coupling.INTERDEPENDENT if kind == "interdependent" else model.Coupling.INDEPENDENT
    spec = model.RobotSpec(
        segments=tuple(
            model.SegmentSpec(arrangement=arrangement(s), length=s["length"], seg_type=s["type"])
            for s in desc
        ),
        coupling=coupling,
    )
    violations = model.validate_robot(spec)
    if violations:
        raise ValueError(f"generated robot is invalid: {violations}")
    pair = clarke.build_pair(spec.segments[0].arrangement) if kind == "single" else None
    return Prepared(kind, desc, spec, pair)


def _single(p: Prepared, state: dict, cmd: dict):
    """Forward, arc and inverse of one segment. Returns
    ([cc], beta, [(kappa, theta)], inverse values)."""
    seg = p.desc[0]
    pair, t, d = p.pair, seg["type"], seg["d"]
    values = state["values"]
    beta = state["beta"]
    if state["convention"] == "rho":
        if not clarke.validate_displacement(pair, values).valid:
            raise ValueError("sensor state is off the displacement manifold")
        cc = clarke.forward(pair, clarke.project(pair, values))
    elif t == "type1":
        ext = segments.type1_forward_from_q(pair, values)
        cc, beta = ext.cc, ext.beta
    else:  # type3 on joint lengths: beta comes from the twist fixed point
        ext = segments.type3_forward_from_q(pair, values, state["alpha"], d, seg["length"])
        cc, beta = ext.cc, ext.beta
    bend = arc.clarke_to_arc(cc, d, seg["length"] if beta is None else beta)

    command = clarke.ClarkeCoordinates(*cmd["cc"])
    if t == "type1":
        back = segments.type1_inverse_to_q(pair, segments.ExtendedClarkeState(command, beta=cmd["beta"]))
    elif t == "type3":
        offset = segments.helical_offset(cmd["alpha"], d, cmd["beta"])
        back = cmd["beta"] + offset - clarke.inverse(pair, command)
    else:
        back = clarke.inverse(pair, command)
    return [cc], beta, [(bend.kappa, bend.theta)], [back]


def _chain(p: Prepared, state: dict, cmd: dict):
    """Chain forward, per-segment arc and chain inverse. Returns
    ([cc], None, [(kappa, theta)], [values per segment])."""
    convention = segments.Convention(state["convention"])
    joint = chain.ChainState(convention=convention, per_segment=tuple(state["values"]))
    command = chain.ChainClarke(per_segment=tuple(clarke.ClarkeCoordinates(*c) for c in cmd["cc"]))
    if p.kind == "interdependent":
        ccs = chain.interdependent_forward(p.spec, joint).per_segment
        back = chain.interdependent_inverse(p.spec, command).per_segment
    else:
        ccs = chain.independent_forward(p.spec, joint).per_segment
        back = [
            clarke.inverse(clarke.build_pair(s.arrangement), c)
            for s, c in zip(p.spec.segments, command.per_segment)
        ]
    bends = [arc.clarke_to_arc(cc, s["d"], s["length"]) for cc, s in zip(ccs, p.desc)]
    return list(ccs), None, [(b.kappa, b.theta) for b in bends], list(back)


def tick(p: Prepared, state: dict, cmd: dict):
    return _single(p, state, cmd) if p.kind == "single" else _chain(p, state, cmd)
