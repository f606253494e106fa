"""Spans and per-layer counters recorded from outside skrates.

`install` replaces each public function at the names through which other
modules call it (for example `solve` as bound in skrates.capacity,
skrates.bounds and skrates.packing) with a wrapper that times the call.
Nothing under src/ changes, and `uninstall` puts the originals back.

A layer is a skrates module. Its self time is the time inside its wrapped
functions minus the time of wrapped calls they make into any function. Calls
into coarse functions are kept as spans (name, start, end, parent, operation
id); the hot leaves (entropy oracle methods and `partition_info`) are
aggregated into their layer's time and counts without a span each, which
would otherwise cost more memory than the work they time. Partition and
certificate generators are counted per item yielded, not timed: their time
falls to the caller that iterates them.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, layer, span name, kept as a span)
TARGETS = (
    ("skrates.cli", "main", "cli", "cli.main", True),
    ("skrates.cli", "load_source", "source", "source.load_source", True),
    ("skrates.entropy", "EntropyOracle.__init__", "entropy", "entropy.oracle", False),
    ("skrates.entropy", "EntropyOracle.entropy", "entropy", "entropy.entropy", False),
    ("skrates.entropy", "EntropyOracle.cond_entropy", "entropy", "entropy.cond_entropy", False),
    ("skrates.mmi", "partition_info", "mmi", "mmi.partition_info", False),
    ("skrates.bounds", "partition_info", "mmi", "mmi.partition_info", False),
    ("skrates.mmi", "mmi", "mmi", "mmi.mmi", True),
    ("skrates.capacity", "mmi", "mmi", "mmi.mmi", True),
    ("skrates.bounds", "mmi", "mmi", "mmi.mmi", True),
    ("skrates.cli", "mmi", "mmi", "mmi.mmi", True),
    ("skrates.capacity", "solve", "lp", "lp.solve", True),
    ("skrates.bounds", "solve", "lp", "lp.solve", True),
    ("skrates.packing", "solve", "lp", "lp.solve", True),
    ("skrates.capacity", "rco", "capacity", "capacity.rco", True),
    ("skrates.cli", "capacity", "capacity", "capacity.capacity", True),
    ("skrates.bounds", "capacity", "capacity", "capacity.capacity", True),
    ("skrates.bounds", "outer_check", "bounds", "bounds.outer_check", True),
    ("skrates.bounds", "outer_capacity_curve", "bounds", "bounds.outer_capacity_curve", True),
    ("skrates.bounds", "pin_capacity_curve", "bounds", "bounds.pin_capacity_curve", True),
    ("skrates.packing", "max_packing", "packing", "packing.max_packing", True),
    ("skrates.protocol", "build_tree_protocol", "protocol", "protocol.build_tree_protocol", True),
    ("skrates.protocol", "verify_protocol", "protocol", "protocol.verify_protocol", True),
    ("skrates.protocol", "measured_rates", "protocol", "protocol.measured_rates", True),
    ("skrates.protocol", "joint_value_counts", "kernel", "kernel.joint_value_counts", True),
)

# (module, attribute, counter): generators whose yielded items are counted.
COUNTED = (
    ("skrates.bounds", "enumerate_partitions", "source.partitions_enumerated"),
    ("skrates.mmi", "enumerate_partitions", "source.partitions_enumerated"),
    ("skrates.bounds", "generate_certificates", "bounds.certificates_evaluated"),
)

LAYERS = ("cli", "source", "entropy", "mmi", "lp", "capacity", "bounds", "packing", "protocol", "kernel")


class Tracer:
    """Span stack, per-layer self times and counters for one traced run."""

    def __init__(self):
        self.stack: list[list] = []  # [child seconds, nearest kept span id]
        self.layer_self: dict[str, float] = defaultdict(float)
        self.name_self: dict[str, float] = defaultdict(float)
        self.name_total: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.op_id = -1
        self._next_id = 0
        self._restore: list[tuple] = []

    def wrap(self, fn, layer: str, name: str, keep: bool, on_return=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else -1
            if keep:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, span_id if keep else parent_span]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spent = end - start
                tracer.layer_self[layer] += spent - frame[0]
                tracer.name_self[name] += spent - frame[0]
                tracer.name_total[name] += spent
                tracer.calls[name] += 1
                if parent is not None:
                    parent[0] += spent
                if keep:
                    tracer.spans.append((span_id, name, start, end, parent_span, tracer.op_id))
            if on_return is not None:
                on_return(tracer, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, fn, counter: str):
        tracer = self

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.counts[counter] += 1
                yield item

        counted.__wrapped__ = fn
        return counted

    def install(self):
        hooks = {"lp.solve": _on_solve, "kernel.joint_value_counts": _on_kernel}
        shared: dict[tuple, object] = {}
        for module_name, attr, layer, name, keep in TARGETS:
            owner, leaf = _resolve(importlib.import_module(module_name), attr)
            original = getattr(owner, leaf)
            # One wrapper per original, whichever module binds it.
            key = (id(original), name)
            if key not in shared:
                shared[key] = self.wrap(original, layer, name, keep, hooks.get(name))
            self._patch(owner, leaf, original, shared[key])
        for module_name, attr, counter in COUNTED:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
            self._patch(owner, attr, original, self.count(original, counter))

    def _patch(self, owner, leaf, original, replacement):
        self._restore.append((owner, leaf, original))
        setattr(owner, leaf, replacement)

    def uninstall(self):
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def write_spans(self, path, origin: float):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in sorted(self.spans):
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": round(start - origin, 9),
                    "end": round(end - origin, 9), "parent": parent, "op": op,
                }) + "\n")

    def per_layer(self, n_ops: int, n_sources: int) -> dict:
        """Per-layer metrics; counts and times per operation unless named otherwise."""
        ops = max(n_ops, 1)
        c, t, s = self.calls, self.name_total, self.layer_self
        kernel_calls = c["kernel.joint_value_counts"]
        kernel_total = t["kernel.joint_value_counts"]
        assignments = self.counts["kernel.assignments"]

        def per_op(x):
            return x / ops

        values = {
            "lp.solves": (per_op(c["lp.solve"]), "count/op"),
            "lp.lex_solves": (per_op(self.counts["lp.lex_solves"]), "count/op"),
            "lp.rows": (per_op(self.counts["lp.rows"]), "rows/op"),
            "lp.self_s": (per_op(s["lp"]), "s/op"),
            "capacity.calls": (per_op(c["capacity.capacity"]), "count/op"),
            "capacity.calls_per_source": (c["capacity.capacity"] / max(n_sources, 1), "count/source"),
            "capacity.self_s": (per_op(s["capacity"]), "s/op"),
            "bounds.outer_check_s": (per_op(t["bounds.outer_check"]), "s/op"),
            "bounds.certificates_evaluated": (per_op(self.counts["bounds.certificates_evaluated"]), "count/op"),
            "bounds.outer_curve_self_s": (per_op(self.name_self["bounds.outer_capacity_curve"]), "s/op"),
            "bounds.pin_curve_self_s": (per_op(self.name_self["bounds.pin_capacity_curve"]), "s/op"),
            "mmi.calls": (per_op(c["mmi.mmi"]), "count/op"),
            "mmi.calls_per_source": (c["mmi.mmi"] / max(n_sources, 1), "count/source"),
            "mmi.self_s": (per_op(s["mmi"]), "s/op"),
            "entropy.calls": (per_op(c["entropy.entropy"] + c["entropy.cond_entropy"]), "count/op"),
            "entropy.s": (per_op(s["entropy"]), "s/op"),
            "source.load_s": (per_op(t["source.load_source"]), "s/op"),
            "source.partitions_enumerated": (per_op(self.counts["source.partitions_enumerated"]), "count/op"),
            "packing.calls": (per_op(c["packing.max_packing"]), "count/op"),
            "packing.self_s": (per_op(s["packing"]), "s/op"),
            "protocol.build_s": (per_op(t["protocol.build_tree_protocol"]), "s/op"),
            "protocol.verify_self_s": (per_op(self.name_self["protocol.verify_protocol"]), "s/op"),
            "protocol.edge_bits": (self.counts["kernel.bits"] / max(kernel_calls, 1), "bits/protocol"),
            "kernel.calls": (per_op(kernel_calls), "count/op"),
            "kernel.s": (per_op(s["kernel"]), "s/op"),
            "kernel.assignments": (per_op(assignments), "count/op"),
            "kernel.assignments_per_s": (assignments / kernel_total if kernel_total else 0.0, "1/s"),
            "kernel.table_entries": (self.counts["kernel.table_entries"] / max(kernel_calls, 1), "count/call"),
            "cli.self_s": (per_op(s["cli"]), "s/op"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def shares(self, wall: float) -> dict:
        """Each layer's self time as a share of the traced loop's wall time."""
        out = {layer: self.layer_self.get(layer, 0.0) / wall for layer in LAYERS}
        out["unattributed"] = 1.0 - sum(out.values())
        return out


def _resolve(module, dotted: str):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _on_solve(tracer: Tracer, args, kwargs):
    lp = args[0] if args else kwargs["lp"]
    tracer.counts["lp.rows"] += len(lp.constraints)
    if kwargs.get("lex", args[1] if len(args) > 1 else True):
        tracer.counts["lp.lex_solves"] += 1


def _on_kernel(tracer: Tracer, args, kwargs):
    keys, msgs, n_bits = args
    tracer.counts["kernel.bits"] += n_bits
    tracer.counts["kernel.assignments"] += 1 << n_bits
    tracer.counts["kernel.table_entries"] += 1 << (len(keys) + len(msgs))
