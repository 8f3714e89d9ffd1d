"""Time one cold set-up of a workload in this fresh process (started by worker.py).

The clock starts before ``import gqem``: the set-up is the import, building
and validating every structure, sampling the points and building the grids.
Prints ``{"setup_s": seconds}``.
"""

import argparse
import json
import time


def main() -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    import workloads

    workloads.build(args.workload, args.seed, args.workdir)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
