"""The timed closed loop, the output checks and the result line.

Timings are scaled to a fixed machine speed. The shared host this benchmark
was built on changes speed by up to half for minutes at a time, and all
pure-Python code slows down together: over five minutes of such swings, a
fixed skrates operation varied by 20 % but its ratio to `speed_reference`,
the benchmark's own C_S computation on a fixed source (no skrates code),
varied by 3 to 4.5 %. So the loop times that reference after every
operation, outside the operation's timing, and scales each operation's
latency by REFERENCE_MS over the running median of the reference times
around it. A faster or slower program moves the scaled latencies exactly as
it moves the raw ones; the raw figures are kept in the result file.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import skrates.cli

from . import checks, gen
from .oracle import Reference
from .trace import Tracer

MAX_REPORTED_ERRORS = 5
# Time of speed_reference on an idle 2.1 GHz Xeon vCPU; scaled latencies are
# milliseconds at that speed.
REFERENCE_MS = 3.1
# A fixed six-user hypergraph whose C_S the reference recomputes each time.
REFERENCE_SOURCE = {
    "vertices": ["1", "2", "3", "4", "5", "6"],
    "edges": [
        {"id": "e0", "on": ["1", "5"], "h": "2"},
        {"id": "e1", "on": ["3", "4"], "h": "3/2"},
        {"id": "e2", "on": ["1", "5"], "h": "2"},
        {"id": "e3", "on": ["1", "2", "3", "5"], "h": "3"},
        {"id": "e4", "on": ["1", "2", "3", "5"], "h": "2"},
        {"id": "e5", "on": ["1", "3", "5", "6"], "h": "3/2"},
        {"id": "e6", "on": ["4", "5"], "h": "3/2"},
    ],
}
# Reference samples on each side of an operation in its running median.
REFERENCE_HALF_WINDOW = 10


@dataclass
class Record:
    index: int  # position in the run; the op is ops[index % len(ops)]
    start: float  # seconds from the start of the loop
    latency: float  # seconds inside skrates.cli.main
    rc: int
    stdout: str
    reference: float  # seconds of speed_reference right after the op
    scaled: float = 0.0  # latency at REFERENCE_MS speed


def speed_reference() -> float:
    """Time the benchmark's own C_S of REFERENCE_SOURCE, with no collection."""
    gc.disable()
    try:
        start = perf_counter()
        Reference(REFERENCE_SOURCE).C_S
        return perf_counter() - start
    finally:
        gc.enable()


def timed_loop(ops, seconds: float, tracer: Tracer | None):
    """Issue ops back to back until `seconds` have passed; return their records."""
    records: list[Record] = []
    begin = perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op_id = i
        buf = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(buf):
                rc = skrates.cli.main(op.argv)
        except (Exception, SystemExit):
            traceback.print_exc(file=sys.stderr)
            rc = -1
        end = perf_counter()
        records.append(Record(i, start - begin, end - start, rc, buf.getvalue(), speed_reference()))
        i += 1
        if perf_counter() - begin >= seconds:
            scale_latencies(records)
            return records, begin, perf_counter() - begin


def scale_latencies(records: list[Record]) -> None:
    refs = [r.reference for r in records]
    w = REFERENCE_HALF_WINDOW
    for i, r in enumerate(records):
        local = statistics.median(refs[max(0, i - w) : i + w + 1])
        r.scaled = r.latency * (REFERENCE_MS / 1e3) / local


def end_to_end(records: list[Record], setup_s: float, peak_rss_mb: float) -> dict:
    lat_ms = [r.scaled * 1e3 for r in records]
    done = sum(1 for r in records if r.rc == 0)
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (done / sum(r.scaled for r in records), "ops/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def raw_figures(records: list[Record], wall: float) -> dict:
    lat_ms = [r.latency * 1e3 for r in records]
    return {
        "ops_per_s_wall": len(records) / wall,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0],
        "reference_ms_median": statistics.median(r.reference for r in records) * 1e3,
    }


def check_all(checker: checks.Checker, ops, records: list[Record]) -> list[str]:
    errors = []
    for r in records:
        if r.rc != 0:
            continue
        op = ops[r.index % len(ops)]
        for err in checker.check(op, r.stdout):
            errors.append(f"op {r.index} ({' '.join(op.argv[:3])}): {err}")
    if ops[0].argv[0] == "curve" and not checker.curve_reached_rco:
        errors.append("no curve grid reached R_CO")
    return errors


def run_workload(args, setup_s: float, backend: str, root, out_dir) -> int:
    tag = f"{args.workload}-seed{args.seed}"
    run_dir = out_dir / f"{tag}-pid{os.getpid()}"
    try:
        ops = gen.build(args.workload, args.seed, run_dir / "sources")
        checker = checks.Checker(root / "docs" / "schemas")
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            records, begin, wall = timed_loop(ops, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        errors = check_all(checker, ops, records)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(records)
    failed = sum(1 for r in records if r.rc != 0)
    n_sources = len({ops[r.index % len(ops)].source_id for r in records})
    e2e = end_to_end(records, setup_s, peak_rss_mb)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": backend,
        "attempted": attempted,
        "failed": failed,
        "distinct_sources": n_sources,
        "pool_wrapped": attempted > len(ops),
        "end_to_end": e2e,
        "raw": raw_figures(records, wall),
        "errors": errors[:MAX_REPORTED_ERRORS],
        # [index, start s, latency ms, reference ms] per operation
        "ops": [[r.index, round(r.start, 6), round(r.latency * 1e3, 4), round(r.reference * 1e3, 4)] for r in records],
    }
    if args.workload == "region":
        cold = sum(1 for r in records if ops[r.index % len(ops)].extra["cold"])
        detail["cold_share"] = cold / attempted
    if checker.edge_bits:
        detail["edge_bits"] = {str(b): checker.edge_bits.count(b) for b in sorted(set(checker.edge_bits))}
    if tracer is not None:
        metrics = tracer.per_layer(attempted, n_sources)
        detail["per_layer"] = metrics
        op_time = sum(r.latency for r in records)
        detail["op_time_share"] = tracer.shares(op_time)
        detail["layer_self_s"] = dict(tracer.layer_self)
        tracer.write_spans(out_dir / f"spans-{tag}.jsonl", begin)
    else:
        metrics = e2e
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(detail, indent=2) + "\n")

    for err in errors[:MAX_REPORTED_ERRORS]:
        print(f"check failed: {err}", file=sys.stderr)
    summary = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in e2e.items())
    print(f"{args.workload} seed={args.seed} backend={backend} attempted={attempted} failed={failed} {summary}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0
