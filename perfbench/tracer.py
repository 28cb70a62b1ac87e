"""Spans and counters recorded around dacr's public functions.

The tracer replaces each public function of dacr's modules with a
timing wrapper at every place it is bound: the defining module, the
package namespace and every module that imported it by name (cli and
chain bind ``build_pair`` and ``forward`` directly, segments calls
``recover_length`` through its own globals). Nothing in ``src/`` is
edited, and :meth:`Tracer.uninstall` restores the originals.

Spans are kept in memory as flat arrays (name, start, end, parent span,
op) and written once, at exit, by :meth:`Tracer.save`.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("model", "clarke", "segments", "chain", "arc", "io", "cli")

IO_LOAD = {"io.load_robot", "io.load_state", "io.load_clarke", "io.load_arc"}
IO_EMIT = {
    "io.matrix_rows", "io.clarke_state_dict", "io.joint_state_dict",
    "io.chain_clarke_dict", "io.chain_state_dict", "io.arc_dict",
    "io.violations_dict", "io.dump_json", "io.write_matrix_csv",
    "io.write_polyline_csv",
}

# Per-call median of the inclusive span duration, in microseconds.
PER_CALL_US = {
    "cli.build_parser_us": "cli.build_parser",
    "cli.parse_args_us": "cli.parse_args",
    "model.validate_robot_us": "model.validate_robot",
    "clarke.build_pair_us": "clarke.build_pair",
    "clarke.forward_us": "clarke.forward",
    "clarke.inverse_us": "clarke.inverse",
    "clarke.project_us": "clarke.project",
    "clarke.validate_displacement_us": "clarke.validate_displacement",
    "segments.recover_length_us": "segments.recover_length",
    "segments.type1_forward_from_q_us": "segments.type1_forward_from_q",
    "segments.type3_forward_from_q_us": "segments.type3_forward_from_q",
    "chain.independent_forward_us": "chain.independent_forward",
    "chain.interdependent_forward_us": "chain.interdependent_forward",
    "chain.interdependent_inverse_us": "chain.interdependent_inverse",
    "chain.accumulate_us": "chain.interdependent_accumulate",
    "arc.clarke_to_arc_us": "arc.clarke_to_arc",
    "arc.sample_backbone_us": "arc.sample_backbone",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = 0
        self._stack: list[int] = []
        self.errors: Counter = Counter()
        self.pair_keys: set[bytes] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add_span(self, name: str, start: int, end: int, parent: int = -1) -> int:
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.op.append(self.current_op)
        self.start.append(start)
        self.end.append(end)
        return len(self.name) - 1

    def wrap(self, name: str, fn, hook=None):
        from dacr.errors import DacrError

        nid = self.name_id(name)
        layer = name.split(".", 1)[0]
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack, errors, clock = self._stack, self.errors, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0)
            stack.append(i)
            if hook is not None:
                hook(args)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except DacrError as exc:
                # Count each error once, in the innermost layer it left.
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    errors[layer] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    # -- patching ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public dacr function at every binding site, plus
        ``JointArrangement.is_symmetric`` and ``ArgumentParser.parse_args``."""
        import importlib

        import dacr

        mods = {m: importlib.import_module(f"dacr.{m}") for m in MODULES}
        wrappers = {}
        for m, mod in mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                hook = self._pair_hook if (m, attr) == ("clarke", "build_pair") else None
                wrappers[fn] = self.wrap(f"{m}.{attr}", fn, hook)
        cli_main = mods["cli"].main
        wrappers[cli_main] = self._count_exit_codes(wrappers[cli_main])
        for owner in (dacr, *mods.values()):
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(owner, attr, wrappers[value])
        arrangement = mods["model"].JointArrangement
        self._set(arrangement, "is_symmetric", self.wrap("model.is_symmetric", arrangement.is_symmetric))
        parser = argparse.ArgumentParser
        self._set(parser, "parse_args", self.wrap("cli.parse_args", parser.parse_args))

    def _count_exit_codes(self, main):
        """``cli.main`` turns errors into exit codes. A non-zero exit that
        no inner layer raised an error for (a refused robot description,
        an error raised by the CLI itself) counts as a cli error."""

        @functools.wraps(main)
        def counted(*args, **kwargs):
            before = sum(self.errors.values())
            code = main(*args, **kwargs)
            if code and sum(self.errors.values()) == before:
                self.errors["cli"] += 1
            return code

        return counted

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def _pair_hook(self, args) -> None:
        self.pair_keys.add(np.asarray(args[0].psi).tobytes())

    # -- exchange with traced child processes ----------------------------

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": [list(col) for col in (self.name, self.start, self.end, self.parent)],
            "errors": dict(self.errors),
            "pair_keys": sorted(k.hex() for k in self.pair_keys),
        }

    def merge(self, data: dict) -> None:
        """Append a child's spans under the current op."""
        base = len(self.name)
        ids = [self.name_id(n) for n in data["names"]]
        names, starts, ends, parents = data["spans"]
        for nid, s, e, p in zip(names, starts, ends, parents):
            self.name.append(ids[nid])
            self.start.append(s)
            self.end.append(e)
            self.parent.append(p + base if p >= 0 else -1)
            self.op.append(self.current_op)
        self.errors.update(data["errors"])
        self.pair_keys.update(bytes.fromhex(k) for k in data["pair_keys"])

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            names=np.array(json.dumps(self.names)),
        )

    # -- per-layer metrics -----------------------------------------------

    def layer_metrics(self, latencies_ns: dict[int, int]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the traced ops.

        latencies_ns maps each traced op to its end-to-end latency.
        Values for an operation the workload never calls are 0.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        n_ops = max(1, len(latencies_ns))
        in_ops = np.isin(op, list(latencies_ns))
        ids = self._name_ids

        def mask(*span_names):
            return np.isin(name, [ids[n] for n in span_names if n in ids])

        def med_us(values) -> float:
            return float(np.median(values)) / 1e3 if len(values) else 0.0

        def per_op_sum_us(selected) -> float:
            # Outermost spans only, summed per op, median over ops that had any.
            outer = selected & ~np.where(parent >= 0, selected[np.maximum(parent, 0)], False)
            if not outer.any():
                return 0.0
            sums = np.bincount(op[outer], weights=dur[outer])
            return float(np.median(sums[np.unique(op[outer])])) / 1e3

        out: dict[str, tuple[float, str]] = {}
        for metric, span in PER_CALL_US.items():
            out[metric] = (med_us(dur[mask(span)]), "us")

        main = mask("cli.main")
        child_time = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(name))
        out["cli.main_self_us"] = (med_us((dur - child_time[: len(dur)])[main]), "us")
        out["io.load_us"] = (per_op_sum_us(mask(*IO_LOAD)), "us")
        out["io.emit_us"] = (per_op_sum_us(mask(*IO_EMIT)), "us")

        out["model.is_symmetric.calls"] = (int((mask("model.is_symmetric") & in_ops).sum()) / n_ops, "1/op")
        builds = int(mask("clarke.build_pair").sum())
        out["clarke.build_pair.calls_per_op"] = (int((mask("clarke.build_pair") & in_ops).sum()) / n_ops, "1/op")
        out["clarke.pair_reuse_ratio"] = (len(self.pair_keys) / builds if builds else 0.0, "ratio")
        type3 = mask("segments.type3_forward_from_q")
        inner = mask("segments.recover_length") & np.where(parent >= 0, type3[np.maximum(parent, 0)], False)
        calls = int(type3.sum())
        out["segments.type3_iters_per_call"] = (int(inner.sum()) / calls if calls else 0.0, "1/call")
        for layer in MODULES:
            out[f"{layer}.errors"] = (self.errors[layer] / n_ops, "1/op")

        top = parent < 0
        covered = np.bincount(op[top], weights=dur[top], minlength=max(latencies_ns, default=0) + 1)
        lat = np.array(list(latencies_ns.values()), dtype=float)
        uncovered = lat - covered[list(latencies_ns)]
        out["trace.uncovered_share"] = (float(np.median(uncovered) / np.median(lat)), "ratio")
        return out
