#!/usr/bin/env python3
"""End-to-end benchmark of the skrates CLI.

    python3 perfbench/run.py --workload {curve,region,protocol} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout. This process starts one measuring process
(the same file with --worker), which imports skrates from the checkout's
src/, generates the workload's source files from the seed, and calls
`skrates.cli.main(argv)` back to back in one thread (a closed loop with one
client) for S seconds. Outputs are captured and checked after the timed
loop. The last line of standard output is the JSON result; with --trace 0
it holds the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run. See perfbench/README.md.
"""

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER_TIMEOUT_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("curve", "region", "protocol"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def launch(args) -> int:
    """Check the checkout, start the measuring process and wait for it."""
    import subprocess

    missing = [
        p for p in (ROOT / "src" / "skrates" / "cli.py", ROOT / "docs" / "schemas")
        if not p.exists()
    ]
    if missing:
        print(f"error: not a skrates checkout, missing {[str(p) for p in missing]}", file=sys.stderr)
        return 2
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: measuring process exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return proc.returncode


def worker(args) -> int:
    # Set-up time: from the parent's spawn to skrates.cli imported with its
    # kernel backend selected, in this fresh interpreter.
    sys.path.insert(0, str(ROOT / "src"))
    import skrates
    import skrates.cli

    backend = skrates.BACKEND
    setup_s = time.monotonic() - args.t0
    if Path(skrates.__file__).resolve().parent != ROOT / "src" / "skrates":
        print(f"error: imported skrates from {skrates.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    from skbench.loop import run_workload

    return run_workload(args, setup_s, backend, ROOT, OUT)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.worker:
        return worker(args)
    return launch(args)


if __name__ == "__main__":
    sys.exit(main())
