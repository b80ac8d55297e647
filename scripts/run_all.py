"""Run the gradient checks and every prebuilt suite, one output dir per suite.

Reproduces all figure data in one shot:

    python3 scripts/run_all.py --out results --runs 20
"""

import sys
from pathlib import Path

from dynaboost.harness.cli import EXIT_OK, ArgumentParser, _workers, main as cli_main
from dynaboost.harness.experiments import SUITES


def main() -> int:
    ap = ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results", help="root output directory")
    ap.add_argument("--runs", type=int, default=None, help="override runs per experiment")
    ap.add_argument("--seed", type=int, default=None, help="override base seed")
    ap.add_argument("--parallel", type=_workers, default=1, help="worker processes per suite")
    args = ap.parse_args()

    code = cli_main(["gradcheck"])
    if code != EXIT_OK:
        print("gradient checks failed, not running experiments", file=sys.stderr)
        return code

    root = Path(args.out)
    worst = EXIT_OK
    for suite in SUITES:
        argv = [suite, "--out", str(root / suite), "--parallel", str(args.parallel)]
        if args.runs is not None:
            argv += ["--runs", str(args.runs)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        print(f"== {suite} ==", flush=True)
        worst = max(worst, cli_main(argv))
    return worst


if __name__ == "__main__":
    sys.exit(main())
