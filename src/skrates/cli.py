"""Command-line front end.

Every numeric output is an exact rational serialized as "p" or "p/q";
output is byte-identical across runs on the same input. Exit codes:
0 success, 1 domain error, 2 input parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from importlib import resources

from . import bounds as bnd
from . import greedy as grd
from . import packing as pck
from . import protocol as proto
from .capacity import CapacityReport, capacity
from .mmi import mmi
from .errors import DomainError, SkratesError, SourceFormatError
from .rationals import format_rational, parse_rational
from .source import HypergraphSource, RatePoint, load_source

BUNDLED = ("motivating", "triangle", "three_user_hyper", "six_user_hyper", "tree_pin_4")


def read_source(path: str) -> HypergraphSource:
    """Read a source file; bare bundled names resolve to shipped examples."""
    name = path[:-5] if path.endswith(".json") else path
    if not os.path.exists(path) and name in BUNDLED:
        text = resources.files("skrates.data").joinpath(f"{name}.json").read_text()
        return load_source(text)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_source(fh.read())
    except OSError as exc:
        raise SourceFormatError(f"cannot read {path}: {exc.strerror}") from None


def _parse_set(source: HypergraphSource, raw: str | None) -> frozenset[str]:
    if raw is None:
        return source.vertex_set
    items = [s for s in raw.split(",") if s]
    if not items:
        raise SourceFormatError("--set must list at least one vertex")
    return source.check_subset(items)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def cmd_entropy(args) -> int:
    source = read_source(args.source)
    from .entropy import EntropyOracle

    oracle = EntropyOracle(source)
    B = _parse_set(source, args.set)
    _emit(
        {
            "set": sorted(B),
            "entropy": format_rational(oracle.entropy(B)),
            "conditional_entropy": format_rational(oracle.cond_entropy(B)),
        }
    )
    return 0


def cmd_mmi(args) -> int:
    source = read_source(args.source)
    B = _parse_set(source, args.set)
    result = mmi(source, B)
    _emit(
        {
            "set": sorted(B),
            "value": format_rational(result.value),
            "fundamental": result.fundamental.to_lists(),
            "optimal_partitions": [P.to_lists() for P in result.optimal_partitions],
        }
    )
    return 0


def _capacity_dict(report: CapacityReport) -> dict:
    return {
        "H": format_rational(report.H_V),
        "R_CO": format_rational(report.R_CO),
        "R_CO_point": {v: format_rational(q) for v, q in sorted(report.R_CO_point.items())},
        "C_S": format_rational(report.C_S),
        "mmi_crosscheck": format_rational(report.mmi_crosscheck),
        "fundamental": report.fundamental.to_lists(),
    }


def cmd_capacity(args) -> int:
    _emit(_capacity_dict(capacity(read_source(args.source))))
    return 0


def cmd_bounds(args) -> int:
    source = read_source(args.source)
    try:
        point = RatePoint.from_json_dict(json.loads(args.point))
    except json.JSONDecodeError as exc:
        raise SourceFormatError(f"--point is not valid JSON: {exc}") from None
    query = bnd.outer_check(source, point)
    _emit(
        {
            "point": point.to_json_dict(),
            "verdict": query.verdict,
            "violations": [c.to_json_dict() for c in query.violations],
        }
    )
    return 0


def _curve_rows(source: HypergraphSource, r_max: Fraction, step: Fraction):
    if step <= 0 or r_max < 0:
        raise DomainError("need --step > 0 and --r-max >= 0")
    grid = []
    R = Fraction(0)
    while R <= r_max:
        grid.append(R)
        R += step
    columns = [grid, bnd.outer_curve_column(source, grid)]
    achievable = source.is_pin() and source.m >= 3
    if achievable:
        columns.append(bnd.pin_curve_column(source, grid))
    return achievable, list(zip(*columns))


def cmd_curve(args) -> int:
    source = read_source(args.source)
    achievable, rows = _curve_rows(source, parse_rational(args.r_max), parse_rational(args.step))
    if args.output == "json":
        _emit(
            [
                {
                    "R": format_rational(r[0]),
                    "upper_bound": format_rational(r[1]),
                    **({"achievable": format_rational(r[2])} if achievable else {}),
                }
                for r in rows
            ]
        )
        return 0
    header = "R,upper_bound" + (",achievable" if achievable else "")
    lines = [header] + [",".join(format_rational(q) for q in row) for row in rows]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _packing_dict(packing: pck.TreePacking, point: RatePoint) -> dict:
    return {
        "value": format_rational(packing.value),
        "trees": [
            {"edges": list(ids), "eta": format_rational(eta)} for ids, eta in packing.trees
        ],
        "rate_point": point.to_json_dict(),
    }


def cmd_pack(args) -> int:
    source = read_source(args.source)
    _, packing = pck.max_packing(source)
    _emit(_packing_dict(packing, pck.packing_to_rates(packing)))
    return 0


def _default_blocklength(source: HypergraphSource, packing: pck.TreePacking) -> int:
    denoms = [e.h.denominator for e in source.edges]
    denoms += [eta.denominator for _, eta in packing.trees]
    return math.lcm(*denoms) if denoms else 1


def _simulate(source: HypergraphSource, n: int | None, exhaustive: bool) -> dict:
    _, packing = pck.max_packing(source)
    n = n if n is not None else _default_blocklength(source, packing)
    protocol = proto.build_tree_protocol(source, packing, n)
    report = proto.verify_protocol(source, protocol, exhaustive=exhaustive)
    return {
        "n": n,
        "report": report.to_json_dict(),
        "rates": proto.measured_rates(protocol).to_json_dict(),
    }


def cmd_simulate(args) -> int:
    _emit(_simulate(read_source(args.source), args.n, args.exhaustive))
    return 0


def cmd_greedy(args) -> int:
    try:
        raw = json.loads(args.weights)
    except json.JSONDecodeError as exc:
        raise SourceFormatError(f"--weights is not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or not raw:
        raise SourceFormatError("--weights must be a nonempty JSON object")
    ground = tuple(sorted(raw))
    weights = {s: parse_rational(q) for s, q in raw.items()}
    mu = grd.greedy_mu(ground, weights)
    _emit(
        {
            "ground": list(ground),
            "mu": [
                {"set": sorted(B), "value": format_rational(mu.values[B])}
                for B in mu.support()
            ],
        }
    )
    return 0


def cmd_analyze(args) -> int:
    source = read_source(args.source)
    report = capacity(source)
    counts = {"thm1": 0, "thm3": 0, "vacuous": 0}
    for cert in bnd.generate_certificates(source):
        counts[cert.kind] += 1
        counts["vacuous"] += cert.vacuous
    out = {
        "vertices": list(source.vertices),
        "pin": source.is_pin(),
        "capacity": _capacity_dict(report),
        "tree_pin": None,
        "pin_curve": None,
        "packing": None,
        "simulation": None,
        "certificates": counts,
    }
    if source.is_pin():
        value, packing = pck.max_packing(source)
        point = pck.packing_to_rates(packing)
        if value != report.C_S:
            raise DomainError("packing value disagrees with capacity")
        out["packing"] = _packing_dict(packing, point)
        if source.m >= 3:
            out["pin_curve"] = {
                "C_S": format_rational(report.C_S),
                "R_S": format_rational(bnd.pin_communication_complexity(source)),
            }
        try:
            region = bnd.tree_pin_region(source)
        except DomainError:
            region = None
        if region is not None:
            out["tree_pin"] = {
                "C_S": format_rational(region.C_S),
                "degrees": {v: d for v, d in sorted(region.degrees.items())},
            }
        if args.simulate:
            out["simulation"] = _simulate(source, args.n, exhaustive=False)
    _emit(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skrates",
        description="Exact secret-key rate analysis for hypergraphical sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("entropy", cmd_entropy, help="joint and conditional entropy of a vertex set")
    p.add_argument("--source", required=True)
    p.add_argument("--set", help="comma-separated vertex ids (default: all)")

    p = add("mmi", cmd_mmi, help="multivariate mutual information and optimal partitions")
    p.add_argument("--source", required=True)
    p.add_argument("--set", help="comma-separated vertex ids (default: all)")

    p = add("capacity", cmd_capacity, help="omniscience rate and secrecy capacity")
    p.add_argument("--source", required=True)

    p = add("bounds", cmd_bounds, help="test a rate point against every certificate")
    p.add_argument("--source", required=True)
    p.add_argument("--point", required=True, help='JSON {"r_K": q, "r": {vertex: q}}')

    p = add("curve", cmd_curve, help="rate-constrained capacity upper bound as CSV")
    p.add_argument("--source", required=True)
    p.add_argument("--r-max", required=True)
    p.add_argument("--step", required=True)
    p.add_argument("--output", choices=("csv", "json"), default="csv")

    p = add("pack", cmd_pack, help="maximum fractional tree packing (PIN only)")
    p.add_argument("--source", required=True)

    p = add("simulate", cmd_simulate, help="build and verify the tree protocol")
    p.add_argument("--source", required=True)
    p.add_argument("--n", type=int, help="blocklength (default: smallest integral)")
    p.add_argument("--exhaustive", action="store_true")

    p = add("greedy", cmd_greedy, help="greedy chain measure for declared weights")
    p.add_argument("--weights", required=True, help='JSON {element: q}')

    p = add("analyze", cmd_analyze, help="consolidated report for one source")
    p.add_argument("--source", required=True)
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--n", type=int)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SourceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SkratesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
