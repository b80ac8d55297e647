"""Measure how the truncated-state cost error falls with the window length.

For each spectral radius, runs one online-GPC episode on a scalar LDS and
reports eps(H): the mean absolute gap between the cost at the true state
and at the state rebuilt from zero using only the last H-1 action and
disturbance pairs. Geometric decay in H is what licenses learning from a
fixed-size window.

    python3 scripts/memory_decay.py --rhos 0.5 0.7 0.9 --windows 2 5 10 15
"""

import argparse
from dataclasses import replace

import numpy as np

from dynaboost.dynamics import rollout
from dynaboost.harness.experiments import sanity_suite
from dynaboost.harness.runner import build_system, run_experiment


def window_error(traj, system, cost, H: int, burn: int) -> float:
    diffs = []
    for t in range(burn, len(traj.actions)):
        xhat = rollout(
            system,
            np.zeros(system.state_dim),
            traj.actions[t - H + 1 : t],
            traj.disturbances[t - H + 1 : t],
        )[-1]
        diffs.append(
            abs(cost.value(xhat, traj.actions[t]) - cost.value(traj.states[t], traj.actions[t]))
        )
    return float(np.mean(diffs))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rhos", type=float, nargs="+", default=[0.5, 0.7, 0.9])
    ap.add_argument("--windows", type=int, nargs="+", default=[2, 5, 10, 15])
    ap.add_argument("--t", type=int, default=2000)
    ap.add_argument("--burn", type=int, default=100, help="rounds dropped before measuring")
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()

    base = sanity_suite(runs=1)[0]
    header = "rho    " + "".join(f"eps(H={H})  " for H in args.windows) + "per-step ratio"
    print(header)
    for rho in args.rhos:
        cfg = replace(
            base,
            env=replace(base.env, rho=rho),
            T=args.t,
            runs=1,
            baselines=("single",),
        )
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        system, cost = build_system(cfg)
        traj = run_experiment(cfg).trajectories["single"][0]
        eps = [window_error(traj, system, cost, H, args.burn) for H in args.windows]
        # geometric fit: mean per-unit-H decay between consecutive windows
        steps = np.diff(args.windows)
        ratios = [
            (eps[i + 1] / eps[i]) ** (1.0 / steps[i]) for i in range(len(steps)) if eps[i] > 0
        ]
        cells = "".join(f"{e:10.3e} " for e in eps)
        print(f"{rho:4.2f}  {cells}  {np.mean(ratios):6.3f}")


if __name__ == "__main__":
    main()
