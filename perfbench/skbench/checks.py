"""Checks of captured CLI outputs against the independent reference.

Each output is first validated against the subcommand's JSON schema in
docs/schemas, then its values are compared with quantities recomputed by
`oracle.Reference`. A checker returns a list of error strings; an empty list
means the output is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import jsonschema

from .oracle import Reference

SUBCOMMANDS = ("curve", "bounds", "simulate")
FEASIBLE = "feasible-under-outer-bound"
VIOLATED = "violated"


def load_validators(schema_dir: Path) -> dict:
    out = {}
    for sub in SUBCOMMANDS:
        schema = json.loads((schema_dir / f"{sub}.schema.json").read_text())
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        out[sub] = cls(schema)
    return out


class Checker:
    """Checks one workload's outputs; caches one Reference per source."""

    def __init__(self, schema_dir: Path):
        self.validators = load_validators(schema_dir)
        self._refs: dict[int, Reference] = {}
        # Set once a curve grid reached R_CO on some source.
        self.curve_reached_rco = False
        self.edge_bits: list[int] = []

    def reference(self, op) -> Reference:
        ref = self._refs.get(op.source_id)
        if ref is None:
            ref = self._refs[op.source_id] = Reference(op.source)
        return ref

    def check(self, op, text: str) -> list[str]:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        sub = op.argv[0]
        errors = sorted(e.message for e in self.validators[sub].iter_errors(obj))
        if errors:
            return [f"schema: {m}" for m in errors]
        ref = self.reference(op)
        if sub == "curve":
            return self.check_curve(op, ref, obj)
        if sub == "bounds":
            return self.check_region(op, ref, obj)
        return self.check_protocol(op, ref, obj)

    def check_curve(self, op, ref: Reference, rows: list) -> list[str]:
        errors = []
        r_max, step = op.extra["r_max"], op.extra["step"]
        grid = [step * k for k in range(int(r_max / step) + 1)]
        R = [Fraction(row["R"]) for row in rows]
        ub = [Fraction(row["upper_bound"]) for row in rows]
        if R != grid:
            return [f"R grid {R} != expected {grid}"]
        C_S, R_CO = ref.C_S, ref.R_CO
        if any(b < a for a, b in zip(ub, ub[1:])):
            errors.append(f"upper bound decreases: {ub}")
        # Equal spacing: concave iff second differences are <= 0.
        if any(c - 2 * b + a > 0 for a, b, c in zip(ub, ub[1:], ub[2:])):
            errors.append(f"upper bound not concave: {ub}")
        for r, u in zip(R, ub):
            if u > C_S:
                errors.append(f"upper bound {u} > C_S {C_S} at R={r}")
            if r >= R_CO:
                self.curve_reached_rco = True
                if u != C_S:
                    errors.append(f"upper bound {u} != C_S {C_S} at R={r} >= R_CO {R_CO}")
        expect_achievable = ref.is_pin() and ref.m >= 3
        has = ["achievable" in row for row in rows]
        if any(h != expect_achievable for h in has):
            errors.append(f"achievable column present={has}, expected {expect_achievable}")
        elif expect_achievable:
            for r, u, row in zip(R, ub, rows):
                exact = min(r / (ref.m - 2), C_S)
                a = Fraction(row["achievable"])
                if not a == u == exact:
                    errors.append(f"PIN at R={r}: achievable {a}, upper {u}, min(R/(m-2), C_S) {exact}")
        return errors

    def check_region(self, op, ref: Reference, obj: dict) -> list[str]:
        errors = []
        point = op.extra["point"]
        r_K = Fraction(point["r_K"])
        r = {v: Fraction(q) for v, q in point["r"].items()}
        echoed = obj["point"]
        if Fraction(echoed["r_K"]) != r_K or {v: Fraction(q) for v, q in echoed["r"].items()} != r:
            errors.append(f"echoed point {echoed} != input {point}")
        violations = obj["violations"]
        if (obj["verdict"] == VIOLATED) != bool(violations):
            errors.append(f"verdict {obj['verdict']} with {len(violations)} violations")
        seen = set()
        for cert in violations:
            err = self._check_violation(ref, cert, r_K, r, seen)
            if err:
                errors.append(err)
        if r_K > ref.C_S and obj["verdict"] != VIOLATED:
            errors.append(f"r_K {r_K} > C_S {ref.C_S} but verdict {obj['verdict']}")
        if op.kind == "tree":
            inside = ref.tree_pin_contains(r_K, r)
            if (obj["verdict"] == FEASIBLE) != inside:
                errors.append(f"tree PIN: verdict {obj['verdict']}, closed form inside={inside}")
        return errors

    def _check_violation(self, ref: Reference, cert: dict, r_K, r, seen) -> str | None:
        kind = cert["kind"]
        blocks = cert["partition"]
        if (kind == "thm1") != ("B" in cert):
            return f"{kind} certificate with B present={'B' in cert}"
        flat = [v for block in blocks for v in block]
        ground = set(cert["B"]) if kind == "thm1" else set(ref.vertices)
        if len(flat) != len(set(flat)) or set(flat) != ground or len(blocks) < 2:
            return f"partition {blocks} is not a partition of {sorted(ground)}"
        key = (kind, frozenset(ground), frozenset(frozenset(b) for b in blocks))
        if key in seen:
            return f"violation {key} reported twice"
        seen.add(key)
        want = ref.certificate(kind, ground, blocks)
        for name, value in want["data"].items():
            if Fraction(cert.get(name, "-1")) != value:
                return f"{kind} {blocks}: {name} {cert.get(name)} != {value}"
        ineq = cert["inequality"]
        row = {v: Fraction(q) for v, q in ineq["r"].items()}
        if Fraction(ineq["r_K"]) != want["r_K"] or row != want["r"] or Fraction(ineq["rhs"]) != want["rhs"]:
            return f"{kind} {blocks}: inequality {ineq} != rebuilt {want}"
        lhs = want["r_K"] * r_K + sum(c * r[v] for v, c in want["r"].items())
        if not lhs < want["rhs"]:
            return f"{kind} {blocks}: reported violated but {lhs} >= {want['rhs']}"
        return None

    def check_protocol(self, op, ref: Reference, obj: dict) -> list[str]:
        errors = []
        report, rates = obj["report"], obj["rates"]
        if report["verdict"] != "perfect":
            errors.append(f"verdict {report['verdict']}")
        if report.get("exhaustive_ran") is not True or report.get("exhaustive_uniform") is not True:
            errors.append(f"exhaustive ran={report.get('exhaustive_ran')} uniform={report.get('exhaustive_uniform')}")
        if report.get("key_equivocation_bits") != report["key_bits"]:
            errors.append(f"key equivocation {report.get('key_equivocation_bits')} != key bits {report['key_bits']}")
        C_S = ref.C_S
        r_K = Fraction(rates["r_K"])
        total = sum((Fraction(q) for q in rates["r"].values()), Fraction(0))
        if r_K != C_S:
            errors.append(f"r_K {r_K} != C_S {C_S}")
        if total != (ref.m - 2) * C_S:
            errors.append(f"r(V) {total} != (m-2) C_S {(ref.m - 2) * C_S}")
        if Fraction(report["key_bits"], obj["n"]) != r_K:
            errors.append(f"key bits {report['key_bits']} at n={obj['n']} disagree with r_K {r_K}")
        self.edge_bits.append(int(obj["n"] * sum(h for _, h in ref.edges)))
        return errors
