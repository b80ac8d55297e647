"""Measure how the truncated-state cost error falls with the window length.

For each spectral radius, runs one online-GPC episode on a scalar LDS and
reports eps(H): the mean absolute gap between the cost at the true state
and at the state rebuilt from zero using only the last H-1 action and
disturbance pairs, which is the learners' window loss, `losses.ProxyLoss`.
Geometric decay in H is what licenses learning from a fixed-size window.

    python3 scripts/memory_decay.py --rhos 0.5 0.7 0.9 --windows 2 5 10 15
"""

from dataclasses import replace

import numpy as np

from dynaboost.harness.cli import ArgumentParser
from dynaboost.harness.config import ConfigError
from dynaboost.harness.experiments import sanity_suite
from dynaboost.harness.runner import build_system, run_experiment
from dynaboost.losses import ProxyLoss


def window_error(traj, system, cost, H: int, burn: int) -> float:
    """Mean |window loss - stage cost at the true state| over rounds t >= burn >= H - 1."""
    gaps = []
    for t in range(burn, len(traj.actions)):
        proxy = ProxyLoss(system, cost, H, traj.disturbances[t - H + 1 : t])
        true = cost.value(traj.states[t], traj.actions[t])
        gaps.append(abs(proxy.value(traj.actions[t - H + 1 : t + 1]) - true))
    return float(np.mean(gaps))


def main() -> None:
    ap = ArgumentParser(description=__doc__)
    ap.add_argument("--rhos", type=float, nargs="+", default=[0.5, 0.7, 0.9])
    ap.add_argument("--windows", type=int, nargs="+", default=[2, 5, 10, 15])
    ap.add_argument("--t", type=int, default=2000)
    ap.add_argument("--burn", type=int, default=100, help="rounds dropped before measuring")
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()
    windows = args.windows
    if len(windows) < 2 or windows[0] < 1 or any(a >= b for a, b in zip(windows, windows[1:])):
        ap.error("--windows: need at least two strictly increasing lengths, each >= 1")
    if args.burn < windows[-1] - 1:
        ap.error(f"--burn: must be >= max(--windows) - 1 = {windows[-1] - 1}, got {args.burn}")
    if args.t <= args.burn:
        ap.error(f"--t: must exceed --burn ({args.burn}), got {args.t}")

    base = replace(sanity_suite(runs=1)[0], baselines=("single",))
    # override range-checks each config, so a bad value stops the script before it prints.
    try:
        configs = [
            base.override(env=replace(base.env, rho=rho), T=args.t, seed=args.seed)
            for rho in args.rhos
        ]
    except ConfigError as e:
        ap.error(str(e))

    print("rho    " + "".join(f"eps(H={H})  " for H in windows) + "per-step ratio")
    for cfg in configs:
        system, cost = build_system(cfg)
        traj = run_experiment(cfg).trajectories["single"][0]
        eps = [window_error(traj, system, cost, H, args.burn) for H in args.windows]
        # geometric fit: mean per-unit-H decay between consecutive windows
        steps = np.diff(args.windows)
        ratios = [
            (eps[i + 1] / eps[i]) ** (1.0 / steps[i]) for i in range(len(steps)) if eps[i] > 0
        ]
        cells = "".join(f"{e:10.3e} " for e in eps)
        print(f"{cfg.env.rho:4.2f}  {cells}  {np.mean(ratios):6.3f}")


if __name__ == "__main__":
    main()
