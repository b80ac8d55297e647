"""One SHA-256 per pinned config over everything a run of it emits.

Each digest covers, for every algorithm and run, the bytes of the recorded
actions, costs and states; the repr of every algorithm's final running
averages; and the bytes of the raw CSV, the aggregate CSV and the SVG. Two
checkouts that print the same line for a config produce the same outputs
on it, bit for bit, so a refactor that claims unchanged behaviour is
checked by running this script on both sides and diffing the output.
BLAS runs on one thread, as the dynaboost package pins it on import.

    python3 scripts/pinned_digest.py                 # every pinned config
    python3 scripts/pinned_digest.py repro walk_rnn  # some of them
"""

import hashlib
import sys
import tempfile
from dataclasses import replace

from dynaboost.harness.cli import ArgumentParser
from dynaboost.harness.config import BoosterConfig, parse_config
from dynaboost.harness.experiments import SUITES
from dynaboost.harness.outputs import write_outputs
from dynaboost.harness.runner import run_experiment

REPRO_YAML = """\
name: repro
env:
  kind: lds
  k: 1
  d: 1
  rho: 0.7
disturbance:
  kind: iid_gaussian
  std: 0.1
T: 300
H: 5
N: 3
runs: 2
seed: 424242
baselines: [single, lqr, zero]
"""


def pinned_configs() -> dict:
    """Config name -> ExperimentConfig, in the order the digests print."""
    configs = {"repro": parse_config(REPRO_YAML)}
    for _, suite in SUITES.values():
        for cfg in suite(runs=3, T=300):
            configs[cfg.name] = replace(cfg, runs=2, T=40) if cfg.name == "sanity_d100" else cfg

    def variant(name: str, base: str, booster: BoosterConfig, **weak) -> None:
        cfg = configs[base]
        configs[name] = replace(cfg, name=name, booster=booster, weak=replace(cfg.weak, **weak))

    derived = BoosterConfig("dynaboost2")  # alpha and beta derived from the system
    half = BoosterConfig("dynaboost2", alpha=0.5)
    variant("sanity_d10_dynaboost2", "sanity_d10", derived)
    variant("pendulum_dynaboost2", "pendulum", derived)
    variant("walk_rnn_dynaboost2", "walk_rnn", half)
    variant("walk_rnn_lstm", "walk_rnn", BoosterConfig(), cell="lstm")
    variant("walk_rnn_lstm_dynaboost2", "walk_rnn", half, cell="lstm")
    return configs


def digest(cfg) -> str:
    """SHA-256 over the config's trajectories, final averages and emitted CSV/SVG bytes."""
    result = run_experiment(cfg)
    h = hashlib.sha256()
    for alg in result.algorithms:
        for traj in result.trajectories[alg]:
            for array in (traj.actions, traj.costs, traj.states):
                h.update(array.tobytes())
        h.update(repr(result.final_averages(alg).tolist()).encode())
    with tempfile.TemporaryDirectory() as out:
        paths = write_outputs(
            out, cfg, result.trajectories, result.stats, result.w_hashes, result.diverged
        )
        for key in ("raw", "aggregate", "plot"):
            if key in paths:
                h.update(paths[key].read_bytes())
    return h.hexdigest()


def main() -> int:
    configs = pinned_configs()
    ap = ArgumentParser(description=__doc__)
    ap.add_argument("names", nargs="*", help=f"configs to digest (default all): {', '.join(configs)}")
    args = ap.parse_args()
    unknown = [n for n in args.names if n not in configs]
    if unknown:
        ap.error(f"unknown config(s): {', '.join(unknown)}")
    for name in args.names or configs:
        print(f"{name} {digest(configs[name])}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
