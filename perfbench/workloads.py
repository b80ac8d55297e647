"""The benchmark's workloads: shipped suite configs at benchmark size.

Each workload takes one shipped suite config, overrides only `runs`, `T`,
`seed` and `out`, and hands the program the result as YAML files. A pass
runs two experiments of it. The seeded one takes its config seed from the
benchmark's `--seed`. The reference one keeps the suite's own seed, so
its outputs, its boosted cost and the verdict of the suite claim checked
on it repeat exactly in every pass and every run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path

import yaml

from dynaboost.harness import experiments


@dataclass(frozen=True)
class Experiment:
    """One config of a pass: a shipped suite config at a reduced size."""

    suite: str  # name of the shipped config in SHIPPED
    runs: int
    T: int
    claim: str | None = None  # name of the claim checked on this experiment's outputs


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: Experiment
    reference: Experiment


def _shipped() -> dict:
    sanity = {c.name: c for c in experiments.sanity_suite()}
    correlated = {c.name: c for c in experiments.correlated_suite()}
    return {
        "sanity_d1": sanity["sanity_d1"],
        "sanity_d100": sanity["sanity_d100"],
        "pendulum": experiments.pendulum_config(),
        "walk_rnn": correlated["walk_rnn"],
    }


SHIPPED = _shipped()

# Sizes. A seeded pass is short (about 0.5 s on the README's machine), so the
# calibration loop timed around it follows the host's speed closely (see
# calibration.py), and stays above timer resolution after a 100x faster
# engine. A reference experiment has the smallest size at which the
# suite's claim is decided: the d=1 LQR-tracking claim needs T >= 1500 to
# clear its 15% margin (2 runs at the suite seed give boosted/LQR 1.10);
# the walk_rnn and d=100 claims fail at these sizes through the faults
# recorded in CHANGES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scalar_gpc",
            Experiment("sanity_d1", runs=20, T=10),
            Experiment("sanity_d1", runs=2, T=1500, claim="tracks_lqr_beats_zero"),
        ),
        Workload(
            "wide_gpc",
            Experiment("sanity_d100", runs=2, T=30),
            Experiment("sanity_d100", runs=2, T=100, claim="beats_zero"),
        ),
        Workload(
            "pendulum_gpc",
            Experiment("pendulum", runs=2, T=80),
            Experiment("pendulum", runs=2, T=250),
        ),
        Workload(
            "walk_rnn",
            Experiment("walk_rnn", runs=2, T=80),
            Experiment("walk_rnn", runs=2, T=500, claim="beats_single"),
        ),
    )
}


def make_config(exp: Experiment, seed: int | None, out_dir: Path):
    """The shipped config resized; seed None keeps the suite's own seed."""
    base = SHIPPED[exp.suite]
    name = base.name if seed is not None else f"{base.name}_reference"
    return replace(
        base,
        name=name,
        runs=exp.runs,
        T=exp.T,
        seed=base.seed if seed is None else seed,
        out=str(out_dir),
    )


def config_yaml(cfg) -> str:
    """YAML text that `load_config` parses back into cfg."""
    data = asdict(cfg)
    for key in ("raw_text", "source"):
        data.pop(key)
    data["baselines"] = list(data["baselines"])
    return yaml.safe_dump(data, sort_keys=False)


def seeded_config_seed(exp: Experiment, seed: int) -> int:
    """Config seed of the seeded experiment: never the suite's own seed."""
    return SHIPPED[exp.suite].seed + 1 + seed


def write_configs(workload: Workload, seed: int, out_dir: Path) -> list[Path]:
    """Writes the seeded and the reference config; returns their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for exp, cfg_seed in (
        (workload.seeded, seeded_config_seed(workload.seeded, seed)),
        (workload.reference, None),
    ):
        cfg = make_config(exp, cfg_seed, out_dir)
        path = out_dir / f"{cfg.name}.yaml"
        path.write_text(config_yaml(cfg))
        paths.append(path)
    return paths
