"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload pointwise_sweep --seed 1 --seconds 20 --trace 0

Workloads: pointwise_sweep, integral_sphere, single_point (see README.md).
The workload runs in a fresh child process whose environment pins OpenBLAS
to one thread and puts the checkout's ``src`` on the import path; its last
stdout line is the JSON result. Exits non-zero, without a result, when the
checkout has no gqem sources or the run fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

# A run must end within 180 s; the worker stops starting passes after --seconds.
TIMEOUT_S = 175


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gqem benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "gqem", "__init__.py")):
        print(f"error: no gqem sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    cmd = [sys.executable, worker, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} did not finish in {TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
