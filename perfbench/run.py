"""dynaboost benchmark: suite workloads timed end to end, or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--parallel P]

Run from the repository root; the package is imported from ./src. With
--trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics from spans, and writes the spans to .bench_out/trace/.
Outputs of every pass go to .bench_out/NAME/. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; progress and failed checks go to standard error. See bench.py
for what a run does and README.md for the workloads and metrics.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# The keys of workloads.WORKLOADS, named here so that arguments are checked
# before ./src, which workloads.py imports, is on the path.
WORKLOADS = ("scalar_gpc", "wide_gpc", "pendulum_gpc", "walk_rnn")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--parallel", type=int, default=1, help="worker processes for run_experiment (untraced only)"
    )
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must lie in [0, 2**63)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.parallel < 1 or (args.trace and args.parallel > 1):
        p.error("--parallel must be >= 1, and 1 with --trace 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path("src").resolve()
    if not (src / "dynaboost" / "__init__.py").is_file():
        print("perfbench: ./src/dynaboost not found; run from the repository root", file=sys.stderr)
        return 2
    # One BLAS thread, pinned before numpy loads, so timings do not depend
    # on how many cores the host lends the process.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import bench

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), args.parallel)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
