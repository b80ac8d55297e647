"""Sweep the weak-learner step size for one suite experiment.

The boosted stack is far more step-size sensitive than a single learner:
residual gradients arrive from a chain of levels that move together, so a
rate that is fine alone can destabilize the ensemble. This is the tool
that calibrated the frozen constants in dynaboost.harness.experiments.

    python3 scripts/lr_sweep.py --name walk_gpc --lrs 0.1 0.03 0.01 --runs 6
"""

import sys
from dataclasses import replace

import numpy as np

from dynaboost.harness.cli import ArgumentParser, _workers
from dynaboost.harness.experiments import SUITES
from dynaboost.harness.runner import run_experiment


def all_configs(runs: int):
    return {c.name: c for _, configs in SUITES.values() for c in configs(runs=runs)}


def main() -> int:
    ap = ArgumentParser(description=__doc__)
    ap.add_argument("--name", required=True, help="experiment name within the suites")
    ap.add_argument("--lrs", type=float, nargs="+", required=True)
    ap.add_argument("--runs", type=int, default=6)
    ap.add_argument("--schedule", choices=["sqrt", "constant"], default=None)
    ap.add_argument("--parallel", type=_workers, default=1)
    args = ap.parse_args()

    configs = all_configs(args.runs)
    if args.name not in configs:
        print(f"unknown experiment {args.name!r}; choices: {sorted(configs)}", file=sys.stderr)
        return 1
    base = configs[args.name]

    for lr in args.lrs:
        weak = replace(base.weak, lr=lr)
        if args.schedule is not None:
            weak = replace(weak, lr_schedule=args.schedule)
        res = run_experiment(replace(base, weak=weak), parallel=args.parallel)
        boosted = res.final_averages("boosted")
        line = f"lr={lr:g} sched={weak.lr_schedule}: boosted={boosted.mean():.4f}"
        for alg in ("single", "lqr", "zero"):
            if alg in res.trajectories:
                line += f" {alg}={res.final_averages(alg).mean():.4f}"
        if "single" in res.trajectories:
            wins = int(np.sum(res.final_averages("single") - boosted > 0))
            line += f" wins={wins}/{base.runs}"
        if res.boosted_diverged():
            line += f" DIVERGED({len(res.diverged['boosted'])})"
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
