"""Average regret of the boosted controller against the best fixed policy.

Runs the scalar sinusoidal experiment at several horizons, solves for the
best fixed disturbance-feedback policy on each realized disturbance
sequence, and prints (boosted total - best fixed total) / T. A shrinking
rate is the finite-sample face of sublinear regret.

    python3 scripts/regret_horizon.py --horizons 250 500 1000 2000 4000
"""

from dataclasses import replace

from dynaboost.harness.cli import ArgumentParser
from dynaboost.harness.comparator import best_fixed_gpc
from dynaboost.harness.experiments import correlated_suite
from dynaboost.harness.runner import build_system, draw_disturbances, run_experiment


def totals(T: int, run_index: int = 0) -> tuple[float, float]:
    """(boosted total cost, best fixed total cost) of the sinusoidal run run_index at horizon T."""
    base = correlated_suite(runs=run_index + 1)[1]
    cfg = replace(base, name=f"{base.name}_T{T}", T=T, baselines=("lqr",))
    res = run_experiment(cfg)
    boosted_total = res.final_averages("boosted")[run_index] * T
    system, cost = build_system(cfg)
    w_seq = draw_disturbances(cfg, system.state_dim, run_index)
    _, best_total = best_fixed_gpc(w_seq, system, cost, cfg.H, R_M=cfg.weak.R_M)
    return boosted_total, best_total


def main() -> None:
    ap = ArgumentParser(description=__doc__)
    ap.add_argument("--horizons", type=int, nargs="+", default=[250, 500, 1000, 2000])
    ap.add_argument("--run-index", type=int, default=0, help="which seeded run to use")
    args = ap.parse_args()
    H = correlated_suite(runs=1)[1].H
    if min(args.horizons) < H:
        ap.error(f"--horizons: each must be >= the memory H = {H}, got {min(args.horizons)}")
    if args.run_index < 0:
        ap.error(f"--run-index: must be >= 0, got {args.run_index}")

    print("T      boosted_total  best_fixed_total  rate")
    for T in args.horizons:
        boosted_total, best_total = totals(T, args.run_index)
        rate = (boosted_total - best_total) / T
        print(f"{T:<6d} {boosted_total:13.4f}  {best_total:16.4f}  {rate:.3e}")


if __name__ == "__main__":
    main()
