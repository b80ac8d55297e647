"""Sweep the weak-learner step size for one suite experiment.

The boosted stack is far more step-size sensitive than a single learner:
residual gradients arrive from a chain of levels that move together, so a
rate that is fine alone can destabilize the ensemble. This is the tool
that calibrated the frozen constants in dynaboost.harness.experiments.

    python3 scripts/lr_sweep.py --name walk_gpc --lrs 0.1 0.03 0.01 --runs 6
"""

from dataclasses import replace

import numpy as np

from dynaboost.harness.cli import ArgumentParser, _workers
from dynaboost.harness.config import ConfigError
from dynaboost.harness.experiments import SUITES
from dynaboost.harness.runner import run_experiment


def main() -> None:
    ap = ArgumentParser(description=__doc__)
    ap.add_argument("--name", required=True, help="experiment name within the suites")
    ap.add_argument("--lrs", type=float, nargs="+", required=True)
    ap.add_argument("--runs", type=int, default=6)
    ap.add_argument("--schedule", choices=["sqrt", "constant"], default=None)
    ap.add_argument("--parallel", type=_workers, default=1)
    args = ap.parse_args()

    configs = {c.name: c for _, suite in SUITES.values() for c in suite(runs=args.runs)}
    if args.name not in configs:
        ap.error(f"--name: unknown experiment {args.name!r}; choices: {sorted(configs)}")
    base = configs[args.name]
    schedule = args.schedule or base.weak.lr_schedule
    # override range-checks each config, so a bad value stops the sweep before it prints.
    try:
        sweep = [
            base.override(weak=replace(base.weak, lr=lr, lr_schedule=schedule)) for lr in args.lrs
        ]
    except ConfigError as e:
        ap.error(str(e))

    for cfg in sweep:
        res = run_experiment(cfg, parallel=args.parallel)
        boosted = res.final_averages("boosted")
        line = f"lr={cfg.weak.lr:g} sched={schedule}: boosted={boosted.mean():.4f}"
        for alg in ("single", "lqr", "zero"):
            if alg in res.trajectories:
                line += f" {alg}={res.final_averages(alg).mean():.4f}"
        if "single" in res.trajectories:
            wins = int(np.sum(res.final_averages("single") - boosted > 0))
            line += f" wins={wins}/{cfg.runs}"
        if res.boosted_diverged():
            line += f" DIVERGED({len(res.diverged['boosted'])})"
        print(line, flush=True)


if __name__ == "__main__":
    main()
