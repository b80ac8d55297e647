"""One cold set-up of a workload, timed inside a fresh interpreter.

    python3 perfbench/setup_probe.py CONFIG.yaml [CONFIG.yaml ...]

Imports the package, loads each config, and for every run builds the
system (with the LQR Riccati solve), draws the disturbance stream and
constructs the policies: the work `run_experiment` does before its first
round. Prints the elapsed seconds and then the host's speed, read from
the calibration loop in the same process. Expects `src` on PYTHONPATH.
"""

import sys
import time


def main(paths: list[str]) -> tuple[float, int]:
    """(elapsed seconds, largest action dimension of the configs)."""
    start = time.perf_counter()
    from dynaboost.harness.config import load_config
    from dynaboost.harness.runner import build_policies, build_system, draw_disturbances

    d = 1
    for path in paths:
        cfg = load_config(path)
        for r in range(cfg.runs):
            system, cost = build_system(cfg)
            draw_disturbances(cfg, system.state_dim, r)
            build_policies(cfg, system, cost, r)
        d = max(d, system.action_dim)
    return time.perf_counter() - start, d


if __name__ == "__main__":
    elapsed, d = main(sys.argv[1:])
    import calibration

    print(repr(elapsed), repr(calibration.speed(calibration.width(d))))
