"""Config parsing, statistics, file emission, and the experiment runner."""

import csv
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from dynaboost.controllers import ZeroController, solve_dare
from dynaboost.core import BallSet
from dynaboost.dynamics import PendulumSystem, Trajectory, rollout
from dynaboost.harness.config import (
    BoosterConfig,
    ConfigError,
    DisturbanceConfig,
    EnvConfig,
    ExperimentConfig,
    WEAK_DEFAULTS,
    WeakConfig,
    load_config,
    parse_config,
)
from dynaboost.harness.experiments import (
    SUITES,
    correlated_suite,
    overparam_suite,
    pendulum_config,
    sanity_suite,
)
from dynaboost.harness import config, runner
from dynaboost.harness.outputs import (
    AGG_HEADER,
    RAW_HEADER,
    write_aggregate_csv,
    write_outputs,
    write_raw_csv,
    write_svg,
)
from dynaboost.harness.runner import (
    _run_one,
    build_experiment,
    build_policies,
    build_system,
    draw_disturbances,
    overparam_hidden,
    recurrent_parameter_count,
    run_episode,
    run_experiment,
)
from dynaboost.harness.stats import SeriesStats, aggregate
from dynaboost.losses import ProxyLoss, derive_curvature_bounds


MINIMAL_YAML = """\
name: demo
env:
  kind: lds
  k: 1
  d: 1
T: 30
runs: 2
seed: 7
"""


_RANGE_ERRORS = {
    "negative_std": ("disturbance:\n  std: -0.1\n", r"c\.yaml:2: std must be >= 0"),
    "overparam_beside_gpc": (
        "weak:\n  kind: gpc\nbaselines:\n  - single\n  - overparam\n",
        r"c\.yaml:5: baseline 'overparam' needs weak kind 'rnn', got 'gpc'",
    ),
    "infinite_std": (
        "disturbance:\n  std: .inf\n",
        r"c\.yaml:2: std must be >= 0 and finite, got inf$",
    ),
    "infinite_lr": ("weak:\n  lr: .inf\n", r"c\.yaml:2: lr must be positive and finite, got inf$"),
    "infinite_alpha": (
        "booster:\n  variant: dynaboost2\n  alpha: .inf\n",
        r"c\.yaml:3: alpha must be positive and finite, got inf$",
    ),
    "infinite_beta": (
        "booster:\n  variant: dynaboost2\n  beta: .inf\n",
        r"c\.yaml:3: beta must be positive and finite, got inf$",
    ),
    "name_with_slash": (
        "T: 10\nname: a/b\n",
        r"c\.yaml:2: name must be a file name without /, \\ or NUL, got 'a/b'$",
    ),
    "name_with_backslash": (
        "name: 'a\\b'\n",
        r"c\.yaml:1: name must be a file name .*, got 'a\\\\b'$",
    ),
    "empty_name": ("name: ''\n", r"c\.yaml:1: name must be a file name .*, got ''$"),
    "name_dot": ("name: .\n", r"c\.yaml:1: name must be a file name .*, got '\.'$"),
    "name_dot_dot": ("name: ..\n", r"c\.yaml:1: name must be a file name .*, got '\.\.'$"),
    "name_with_nul": ('name: "a\\0b"\n', r"c\.yaml:1: name must be a file name .*, got 'a\\x00b'$"),
    "unknown_variant": (
        "booster: {variant: dynaboost3}\n",
        r"c\.yaml:1: booster variant must be one of .*, got 'dynaboost3'$",
    ),
    "duplicate_key": ("T: 10\nT: 20\n", r"c\.yaml:2: duplicate key 'T'$"),
    "duplicate_key_in_a_flow_mapping": (
        "weak: {lr: 0.1, lr: 0.2}\n",
        r"c\.yaml:1: duplicate key 'weak\.lr'$",
    ),
    "duplicate_key_in_a_block_mapping": (
        "weak:\n  lr: 0.1\n  kind: gpc\n  lr: 0.2\n",
        r"c\.yaml:4: duplicate key 'weak\.lr'$",
    ),
    "duplicate_key_in_a_list_item": (
        "baselines:\n  - {a: 1, a: 2}\n",
        r"c\.yaml:2: duplicate key 'baselines\.0\.a'$",
    ),
    "recursive_alias_in_a_list": (
        "baselines: &x [single, *x]\n",
        r"c\.yaml:1: recursive alias at 'baselines\.1'$",
    ),
    "alias_to_its_own_list": ("T: 10\na: &x [*x]\n", r"c\.yaml:2: recursive alias at 'a\.0'$"),
    "recursive_alias_in_a_mapping": (
        "weak: &w\n  lr: 0.1\n  sub: *w\n",
        r"c\.yaml:3: recursive alias at 'weak\.sub'$",
    ),
    "name_of_242_bytes": (
        "name: " + "a" * 242 + "\n",
        r"c\.yaml:1: name must be at most 241 bytes in UTF-8, got 242$",
    ),
    "name_of_121_e_acutes": (
        "name: " + "é" * 121 + "\n",
        r"c\.yaml:1: name must be at most 241 bytes in UTF-8, got 242$",
    ),
    "name_with_a_lone_surrogate": (
        'name: "a\\ud800"\n',
        r"c\.yaml:1: name must be UTF-8 text, got 'a\\ud800'$",
    ),
    "key_from_a_merge": (
        "T: 10\nweak:\n  <<: {R_M: 1.0,\n    lr: -0.1}\n",
        r"c\.yaml:4: lr must be positive and finite, got -0\.1$",
    ),
}


_NAN_ERRORS = {
    "lr": ("weak:\n  lr: .nan\n", r":2: lr must be positive"),
    "R_M": ("weak:\n  R_M: .nan\n", r":2: R_M must be positive"),
    "clip_norm": ("weak:\n  kind: rnn\n  clip_norm: .nan\n", r":3: clip_norm must be positive"),
    "weight_radius": ("weak:\n  weight_radius: .nan\n", r":2: weight_radius must be positive"),
    "std": ("disturbance:\n  std: .nan\n", r":2: std must be >= 0"),
    "alpha": ("booster:\n  variant: dynaboost2\n  alpha: .nan\n", r":3: alpha must be positive"),
    "beta": ("booster:\n  variant: dynaboost2\n  beta: .nan\n", r":3: beta must be positive"),
    "action_radius": ("action_radius: .nan\n", r":1: action_radius must be positive"),
    "divergence_threshold": (
        "divergence_threshold: .nan\n",
        r":1: divergence_threshold must be positive, got nan$",
    ),
}


class TestConfigParsing:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL_YAML, source="demo.yaml")
        assert cfg.name == "demo"
        assert cfg.T == 30 and cfg.H == 5 and cfg.N == 5
        assert cfg.env.rho == pytest.approx(0.9)
        assert (cfg.weak.kind, cfg.weak.lr, cfg.weak.lr_schedule) == ("gpc", 0.3, "sqrt")
        assert cfg.baselines == ("single", "lqr", "zero")
        assert cfg.raw_text == MINIMAL_YAML
        assert cfg.source == "demo.yaml"

    def test_unknown_top_level_key_names_line(self):
        with pytest.raises(ConfigError, match=r"demo\.yaml:2: unknown key 'bogus'"):
            parse_config("name: x\nbogus: 1\n", source="demo.yaml")

    def test_bad_rho_names_line(self):
        text = "env:\n  kind: lds\n  rho: 1.5\n"
        with pytest.raises(ConfigError, match=r":3: rho must lie"):
            parse_config(text, source="c.yaml")

    def test_bad_type_names_line(self):
        with pytest.raises(ConfigError, match=r":1: 'T' must be an integer"):
            parse_config("T: soon\n", source="c.yaml")

    def test_empty_config_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            parse_config("", source="c.yaml")

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_config("- a\n- b\n", source="c.yaml")

    def test_invalid_yaml_rejected(self):
        with pytest.raises(ConfigError, match="invalid YAML"):
            parse_config("a: [unclosed\n", source="c.yaml")

    def test_a_lone_surrogate_character_is_invalid_yaml(self):
        # libyaml cannot even encode such a text; PyYAML names the character.
        with pytest.raises(ConfigError, match=r"^c\.yaml: invalid YAML: unacceptable character #xd800"):
            parse_config("name: a\ud800\n", source="c.yaml")

    def test_a_valid_config_is_composed_once(self, monkeypatch):
        loaders = []
        compose = config._compose
        monkeypatch.setattr(
            config, "_compose", lambda text, source, cls: loaders.append(cls) or compose(text, source, cls)
        )
        parse_config(MINIMAL_YAML, source="c.yaml")
        assert loaders == [config._FAST_LOADER]

    def test_t_below_h_rejected(self):
        with pytest.raises(ConfigError, match="T >= H"):
            parse_config("T: 3\nH: 5\n", source="c.yaml")

    def test_unknown_env_kind(self):
        with pytest.raises(ConfigError, match="env kind"):
            parse_config("env:\n  kind: markov\n", source="c.yaml")

    def test_unknown_baseline(self):
        with pytest.raises(ConfigError, match="baseline"):
            parse_config("baselines: [single, oracle]\n", source="c.yaml")

    def test_duplicate_baselines(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("baselines: [zero, zero]\n", source="c.yaml")

    def test_rnn_learning_rate_default(self):
        cfg = parse_config("weak:\n  kind: rnn\n", source="c.yaml")
        assert cfg.weak.lr == pytest.approx(0.05)
        assert cfg.weak.lr_schedule == "constant"

    def test_rnn_learning_rate_default_in_code(self):
        # A config built in code, not parsed, gets the same default and runs.
        cfg = ExperimentConfig(weak=WeakConfig(kind="rnn"), T=10, runs=1)
        assert (cfg.weak.lr, cfg.weak.lr_schedule) == (0.05, "constant")
        result = run_experiment(cfg)
        assert result.trajectories["boosted"][0].horizon == 10

    @pytest.mark.parametrize(
        "weak, lr, schedule",
        [
            ("{kind: gpc}", 0.3, "sqrt"),
            ("{kind: rnn, lr_schedule: sqrt}", 0.05, "sqrt"),
            ("{kind: rnn, lr: 0.2}", 0.2, "constant"),
            ("{kind: gpc, lr_schedule: constant}", 0.3, "constant"),
        ],
        ids=["gpc_unset", "rnn_schedule_given", "rnn_lr_given", "gpc_schedule_given"],
    )
    def test_unset_learning_settings_filled_per_kind(self, weak, lr, schedule):
        # Only what the config leaves unset comes from the kind's defaults.
        cfg = parse_config(f"weak: {weak}\n", source="c.yaml")
        assert (cfg.weak.lr, cfg.weak.lr_schedule) == (lr, schedule)

    def test_rnn_without_lr_still_rejects_unknown_schedule(self):
        with pytest.raises(ConfigError, match=r":3: lr_schedule must be one of .*, got 'cosine'"):
            parse_config("weak:\n  kind: rnn\n  lr_schedule: cosine\n", source="c.yaml")

    def test_booster_alpha_beta_ordering(self):
        with pytest.raises(ConfigError, match="alpha <= beta"):
            parse_config("booster:\n  variant: dynaboost2\n  alpha: 3\n  beta: 1\n", source="c.yaml")

    def test_negative_lr_rejected(self):
        with pytest.raises(ConfigError, match="lr must be positive"):
            parse_config("weak:\n  lr: -0.1\n", source="c.yaml")

    @pytest.mark.parametrize("text, match", _RANGE_ERRORS.values(), ids=_RANGE_ERRORS.keys())
    def test_range_error_names_line(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text, source="c.yaml")

    @pytest.mark.parametrize(
        "kw, match",
        [
            (dict(disturbance=DisturbanceConfig(std=-0.1)), r"override disturbance\.std: std must be >= 0"),
            (dict(baselines=("overparam", "zero")), r"override baselines\.0: baseline 'overparam' needs"),
            (
                dict(disturbance=DisturbanceConfig(std=math.inf)),
                r"override disturbance\.std: std must be >= 0 and finite, got inf",
            ),
            (dict(name="a/b"), r"override name: name must be a file name"),
        ],
        ids=["negative_std", "overparam_beside_gpc", "infinite_std", "name_with_slash"],
    )
    def test_override_error_names_field(self, kw, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig().override(**kw)

    @pytest.mark.parametrize("text, match", _NAN_ERRORS.values(), ids=_NAN_ERRORS.keys())
    def test_nan_fails_the_range_check(self, text, match):
        with pytest.raises(ConfigError, match=r"^c\.yaml" + match):
            parse_config(text, source="c.yaml")

    def test_merged_keys_are_not_duplicates(self):
        cfg = parse_config("weak:\n  <<: {lr: 0.1, R_M: 5.0}\n  lr: 0.2\n", source="c.yaml")
        assert (cfg.weak.lr, cfg.weak.R_M) == (0.2, 5.0)

    def test_an_alias_used_twice_is_not_recursive(self):
        cfg = parse_config("weak:\n  <<: [&base {lr: 0.1}, *base]\n  R_M: 5.0\n", source="c.yaml")
        assert (cfg.weak.lr, cfg.weak.R_M) == (0.1, 5.0)

    def test_nested_aliases_are_checked_once_per_node(self):
        # Eight lists that each alias the previous one ten times reach the
        # first list along 10^8 paths. Each node is checked once, and the
        # config stops at its first unknown key with no per-path map.
        text = "a0: &a0 [" + ", ".join(["0"] * 10) + "]\n"
        for i in range(1, 9):
            text += f"a{i}: &a{i} [" + ", ".join([f"*a{i - 1}"] * 10) + "]\n"
        assert len(text.encode()) < 600
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ConfigError, match=r"^c\.yaml:1: unknown key 'a0'$"):
                parse_config(text, source="c.yaml")
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1_000_000

    def test_name_of_241_bytes_parses(self):
        assert parse_config("name: " + "a" * 241 + "\n").name == "a" * 241

    def test_name_taken_from_the_file_is_checked(self):
        with pytest.raises(ConfigError, match=r"^\.\.yaml:1: name must be a file name .*, got '\.'$"):
            parse_config("T: 10\n", source="..yaml")

    def test_bad_lr_schedule_names_value(self):
        with pytest.raises(ConfigError, match=r":2: lr_schedule must be one of .*, got 'cosine'"):
            parse_config("weak:\n  lr_schedule: cosine\n", source="c.yaml")

    @pytest.mark.parametrize(
        "cfg",
        [*sanity_suite(), *correlated_suite(), pendulum_config(), *overparam_suite()],
        ids=lambda cfg: cfg.name,
    )
    def test_shipped_config_round_trips_through_yaml(self, cfg):
        data = asdict(cfg)
        for key in ("raw_text", "source"):
            data.pop(key)
        data["baselines"] = list(data["baselines"])
        parsed = parse_config(yaml.safe_dump(data, sort_keys=False))
        assert replace(parsed, raw_text=None, source=cfg.source) == cfg

    def test_override_skips_none(self):
        cfg = parse_config(MINIMAL_YAML, source="demo.yaml")
        assert cfg.override(seed=None, runs=None) == cfg
        assert cfg.override(seed=99).seed == 99

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config"):
            load_config(tmp_path / "absent.yaml")

    def test_load_config_round_trip(self, tmp_path):
        p = tmp_path / "exp.yaml"
        p.write_text(MINIMAL_YAML)
        cfg = load_config(p)
        assert cfg.name == "demo"
        assert cfg.source == str(p)


class TestConfigParsingWithoutLibyaml(TestConfigParsing):
    """Every config case again, on the path of a PyYAML built without libyaml."""

    @pytest.fixture(autouse=True)
    def _pure_python_loader(self, monkeypatch):
        monkeypatch.setattr(config, "_FAST_LOADER", yaml.SafeLoader)


def test_both_loaders_give_every_error_the_same_message(monkeypatch):
    texts = [text for text, _ in (*_RANGE_ERRORS.values(), *_NAN_ERRORS.values())]
    texts += ["a: [unclosed\n", "T: soon\n", "name: x\nbogus: 1\n", "name: a\ud800\n", "a:\n\tb: 1\n"]

    def messages() -> list[str]:
        found = []
        for text in texts:
            with pytest.raises(ConfigError) as e:
                parse_config(text, source="c.yaml")
            found.append(str(e.value))
        return found

    fast = messages()
    monkeypatch.setattr(config, "_FAST_LOADER", yaml.SafeLoader)
    assert messages() == fast


class TestAggregate:
    def test_three_runs_hand_stats(self):
        s = aggregate([np.array([1.0]), np.array([2.0]), np.array([3.0])])
        assert s.mean[0] == pytest.approx(2.0)
        half = 1.96 / np.sqrt(3.0)
        assert s.ci_hi[0] - s.mean[0] == pytest.approx(half, abs=1e-12)
        assert half == pytest.approx(1.1316, abs=1e-4)

    def test_single_run_no_ci(self):
        s = aggregate([np.array([1.0, 2.0])])
        assert not s.has_ci
        assert np.array_equal(s.mean, [1.0, 2.0])

    def test_identical_runs_zero_width(self):
        s = aggregate([np.ones(4), np.ones(4), np.ones(4)])
        assert np.array_equal(s.ci_lo, s.ci_hi)
        assert np.array_equal(s.ci_lo, s.mean)

    def test_band_brackets_mean(self):
        rng = np.random.default_rng(3)
        s = aggregate([rng.normal(size=10) ** 2 for _ in range(6)])
        assert np.all(s.ci_lo <= s.mean) and np.all(s.mean <= s.ci_hi)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            aggregate([np.ones(3), np.ones(4)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no runs"):
            aggregate([])


def _fake_traj(alg, seed, T=10, scale=1.0):
    rng = np.random.default_rng(1000 * seed + len(alg))
    costs = scale * (1.0 + rng.random(T))
    return Trajectory(
        states=np.zeros((T + 1, 1)),
        actions=np.zeros((T, 1)),
        disturbances=np.zeros((T, 1)),
        costs=costs,
        algorithm=alg,
        seed=seed,
    )


def _fake_payload(T=10, runs=2):
    trajectories = {
        alg: [_fake_traj(alg, s, T) for s in range(runs)] for alg in ("boosted", "zero")
    }
    stats = {alg: aggregate([t.running_average() for t in trajs]) for alg, trajs in trajectories.items()}
    cfg = parse_config(MINIMAL_YAML, source="demo.yaml").override(T=T, runs=runs)
    hashes = [f"hash{s}" for s in range(runs)]
    return cfg, trajectories, stats, hashes


def _reference_csvs(raw_path, agg_path, experiment, trajectories, stats_by_alg):
    """The csv.writer rows and format(x, ".10g") cells that the CSV writers must reproduce."""

    def fmt(x):
        return format(float(x), ".10g")

    with open(raw_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(RAW_HEADER)
        for alg in sorted(trajectories):
            for traj in sorted(trajectories[alg], key=lambda t: t.seed):
                avg = traj.running_average()
                for t in range(traj.horizon):
                    w.writerow([experiment, alg, traj.seed, t + 1, fmt(traj.costs[t]), fmt(avg[t])])
    with open(agg_path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(AGG_HEADER)
        for alg in sorted(stats_by_alg):
            s = stats_by_alg[alg]
            for t in range(s.mean.size):
                band = [fmt(s.ci_lo[t]), fmt(s.ci_hi[t])] if s.has_ci else ["", ""]
                w.writerow([alg, t + 1, fmt(s.mean[t]), *band])


def _reference_points(stats_by_alg) -> list[str]:
    """Each polygon's, then each polyline's, points, from the SVG's layout on Python floats."""
    T = max(s.mean.size for s in stats_by_alg.values())
    ymax = 0.0
    for s in stats_by_alg.values():
        ymax = max(ymax, float((s.ci_hi if s.has_ci else s.mean).max(initial=0.0)))
    ymax = 1.05 * ymax if ymax > 0 else 1.0

    def line(values, clamp):
        xs = [70.0 + 630.0 * t / max(T - 1, 1) for t in range(len(values))]
        ys = [430.0 - 390.0 * (clamp(float(v)) / ymax) for v in values]
        return [f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys)]

    algs = sorted(stats_by_alg)
    bands = [
        " ".join(line(s.ci_hi, lambda v: min(v, ymax)) + line(s.ci_lo, lambda v: max(v, 0.0))[::-1])
        for s in (stats_by_alg[a] for a in algs)
        if s.has_ci
    ]
    return bands + [" ".join(line(stats_by_alg[a].mean, lambda v: min(v, ymax))) for a in algs]


def _traj(costs, seed):
    T = len(costs)
    return Trajectory(np.zeros((T + 1, 1)), np.zeros((T, 1)), np.zeros((T, 1)), np.array(costs), seed=seed)


_ODD = [math.inf, -math.inf, math.nan, -0.0, 1e-300, 123456789012.5]
_EMISSION_CASES = {
    "quoted_name": (
        'a,"b"\nc',
        {alg: [_fake_traj(alg, s, T=6) for s in range(2)] for alg in ("boosted", "zero")},
        None,
    ),
    # a run cut short by divergence; costs and a band that run through inf and NaN
    "odd_costs": (
        "demo",
        {"boosted": [_traj([1e-300, math.inf, 2.0, math.nan], 1), _traj([-0.0, -math.inf, 123456789012.5], 0)]},
        {"boosted": SeriesStats(np.array(_ODD), np.array(_ODD) - 1.0, np.array([math.inf, *_ODD[3:], 1.0, 1.0]))},
    ),
    "one_run": ("demo", {"zero": [_fake_traj("zero", 0, T=5)]}, None),
}


class TestOutputs:
    @pytest.mark.parametrize("experiment, trajs, stats", _EMISSION_CASES.values(), ids=_EMISSION_CASES.keys())
    def test_emission_equals_the_csv_modules_bytes(self, tmp_path, experiment, trajs, stats):
        if stats is None:
            stats = {alg: aggregate([t.running_average() for t in ts]) for alg, ts in trajs.items()}
        write_raw_csv(tmp_path / "raw.csv", experiment, trajs)
        write_aggregate_csv(tmp_path / "agg.csv", stats)
        _reference_csvs(tmp_path / "raw_ref.csv", tmp_path / "agg_ref.csv", experiment, trajs, stats)
        assert (tmp_path / "raw.csv").read_bytes() == (tmp_path / "raw_ref.csv").read_bytes()
        assert (tmp_path / "agg.csv").read_bytes() == (tmp_path / "agg_ref.csv").read_bytes()
        write_svg(tmp_path / "plot.svg", experiment, stats)
        root = ET.parse(tmp_path / "plot.svg").getroot()
        shapes = [root.findall(f".//{{http://www.w3.org/2000/svg}}{tag}") for tag in ("polygon", "polyline")]
        assert len(shapes[0]) == sum(s.has_ci for s in stats.values())
        assert [e.get("points") for e in shapes[0] + shapes[1]] == _reference_points(stats)

    def test_raw_csv_row_count_and_header(self, tmp_path):
        cfg, trajs, stats, hashes = _fake_payload(T=10, runs=2)
        paths = write_outputs(tmp_path, cfg, trajs, stats, hashes, {})
        lines = paths["raw"].read_text().splitlines()
        assert lines[0] == "experiment,algorithm,seed,t,instant_cost,avg_cost"
        assert len(lines) == 1 + 2 * 2 * 10

    def test_aggregate_csv_shape(self, tmp_path):
        cfg, trajs, stats, hashes = _fake_payload(T=10, runs=2)
        paths = write_outputs(tmp_path, cfg, trajs, stats, hashes, {})
        lines = paths["aggregate"].read_text().splitlines()
        assert lines[0] == "algorithm,t,mean,ci_lo,ci_hi"
        assert len(lines) == 1 + 2 * 10

    def test_svg_well_formed_one_polyline_per_algorithm(self, tmp_path):
        cfg, trajs, stats, hashes = _fake_payload()
        paths = write_outputs(tmp_path, cfg, trajs, stats, hashes, {})
        root = ET.parse(paths["plot"]).getroot()
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 2

    def test_empty_algorithm_set_header_only(self, tmp_path):
        cfg, _, _, hashes = _fake_payload()
        paths = write_outputs(tmp_path, cfg, {}, {}, hashes, {})
        assert paths["raw"].read_text().splitlines() == [
            "experiment,algorithm,seed,t,instant_cost,avg_cost"
        ]
        assert "plot" not in paths
        assert not (tmp_path / "demo.svg").exists()

    def test_rerun_without_a_plot_removes_the_old_one(self, tmp_path):
        cfg, trajs, stats, hashes = _fake_payload()
        assert write_outputs(tmp_path, cfg, trajs, stats, hashes, {})["plot"].exists()
        diverged = {alg: {0, 1} for alg in trajs}
        paths = write_outputs(tmp_path, cfg, trajs, {}, hashes, diverged)
        assert "plot" not in paths
        assert not (tmp_path / "demo.svg").exists()
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["files"] == sorted(p.name for p in paths.values())
        assert sorted(p.name for p in tmp_path.iterdir()) == manifest["files"]

    def test_emission_is_deterministic(self, tmp_path):
        cfg, trajs, stats, hashes = _fake_payload()
        a = write_outputs(tmp_path / "a", cfg, trajs, stats, hashes, {})
        b = write_outputs(tmp_path / "b", cfg, trajs, stats, hashes, {})
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_run_order_does_not_change_data_files(self, tmp_path):
        cfg, trajs, stats, hashes = _fake_payload(T=8, runs=5)
        a = write_outputs(tmp_path / "a", cfg, trajs, stats, hashes, {})
        shuffled = {alg: list(ts) for alg, ts in trajs.items()}
        for ts in shuffled.values():
            random.Random(0).shuffle(ts)
        b = write_outputs(tmp_path / "b", cfg, shuffled, stats, hashes, {})
        for key in ("raw", "aggregate", "plot"):
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_manifest_records_config_and_hashes(self, tmp_path):
        cfg, trajs, stats, hashes = _fake_payload()
        paths = write_outputs(tmp_path, cfg, trajs, stats, hashes, {"boosted": {1}})
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["config_text"] == MINIMAL_YAML
        assert manifest["w_hash"] == {"0": "hash0", "1": "hash1"}
        assert manifest["diverged"] == {"boosted": [1]}
        assert manifest["config"]["env"]["rho"] == pytest.approx(0.9)
        assert sorted(manifest["files"]) == manifest["files"]

    def test_unwritable_directory_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(ConfigError, match="not writable"):
            write_outputs(blocker / "sub", *_fake_payload()[0:1], {}, {}, [], {})

    def test_probe_leaves_a_user_file_of_any_name_alone(self, tmp_path):
        # The writability probe is a uniquely named temporary file.
        mine = tmp_path / ".write_probe"
        mine.write_text("mine")
        paths = write_outputs(tmp_path, *_fake_payload(), {})
        assert mine.read_text() == "mine"
        assert sorted(tmp_path.iterdir()) == sorted([mine, *paths.values()])


def _tiny_cfg(**kw):
    cfg = ExperimentConfig(
        name="tiny",
        env=EnvConfig(kind="lds", k=1, d=1, rho=0.7),
        disturbance=DisturbanceConfig(kind="iid_gaussian", std=0.1),
        T=40,
        H=3,
        N=2,
        runs=2,
        seed=12345,
        baselines=("single", "lqr", "zero"),
    )
    return cfg.override(**kw)


class TestRunner:
    def test_build_system_deterministic(self):
        cfg = _tiny_cfg()
        s1, c1 = build_system(cfg)
        s2, _ = build_system(cfg)
        assert np.array_equal(s1.A, s2.A) and np.array_equal(s1.B, s2.B)
        s3, _ = build_system(cfg.override(seed=999))
        assert not np.array_equal(s1.B, s3.B)

    def test_curvature_derived_once_per_experiment(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return derive_curvature_bounds(*args)

        monkeypatch.setattr(runner, "derive_curvature_bounds", counted)
        cfg = _tiny_cfg(runs=3, T=10, booster=BoosterConfig(variant="dynaboost2"))
        run_experiment(cfg)
        assert len(calls) == 1

    def test_overparam_size_resolved_once_per_experiment(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return overparam_hidden(*args)

        monkeypatch.setattr(runner, "overparam_hidden", counted)
        weak = parse_config("weak:\n  kind: rnn\n", source="c.yaml").weak
        run_experiment(_tiny_cfg(runs=3, T=10, weak=weak, baselines=("overparam",)))
        assert len(calls) == 1

    def test_build_system_pendulum(self):
        cfg = _tiny_cfg(env=EnvConfig(kind="pendulum"))
        system, cost = build_system(cfg)
        assert isinstance(system, PendulumSystem)
        assert cost.Q.shape == (2, 2) and cost.R.shape == (1, 1)

    def test_disturbance_draw_deterministic_and_distinct(self):
        cfg = _tiny_cfg()
        w0 = draw_disturbances(cfg, 1, 0)
        assert np.array_equal(w0, draw_disturbances(cfg, 1, 0))
        assert not np.array_equal(w0, draw_disturbances(cfg, 1, 1))
        assert w0.shape == (cfg.T, 1)

    def test_zero_policy_zero_noise_zero_cost(self):
        cfg = _tiny_cfg(T=5)
        system, cost = build_system(cfg)
        policy = ZeroController(BallSet(cfg.action_radius, 1))
        [traj] = run_episode(system, cost, cfg, [policy], np.zeros((5, 1)), 0)
        assert traj.costs.sum() == 0.0
        assert np.array_equal(rollout(system, traj.states[0], traj.actions, traj.disturbances), traj.states)

    @pytest.mark.parametrize(
        "kw, match",
        [
            (
                dict(baselines=("overparam",), T=20, runs=1),
                r"^<builtin>: baselines\.0: baseline 'overparam' needs weak kind 'rnn', got 'gpc'$",
            ),
            (dict(T=20, runs=0), r"^<builtin>: runs: runs must be >= 1, got 0$"),
        ],
        ids=["overparam_needs_rnn", "zero_runs"],
    )
    def test_run_experiment_validates_config(self, kw, match):
        with pytest.raises(ConfigError, match=match):
            run_experiment(ExperimentConfig(**kw))

    def test_window_loss_built_only_for_policies_that_learn(self, monkeypatch):
        # One window loss per round while any policy of the run learns, shared
        # by all of them; none for a run of fixed policies.
        built = []

        class CountedProxyLoss(runner.ProxyLoss):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(runner, "ProxyLoss", CountedProxyLoss)
        cfg = _tiny_cfg()
        system, cost = build_system(cfg)
        w = draw_disturbances(cfg, 1, 0)
        policies = {p.name: p for p in build_policies(cfg, system, cost, 0)}
        for names, want in [
            (("boosted", "single", "lqr", "zero"), cfg.T),
            (("single",), cfg.T),
            (("zero", "lqr"), 0),
        ]:
            built.clear()
            trajs = run_episode(system, cost, cfg, [policies[n] for n in names], w, 0)
            assert not any(t.diverged for t in trajs)
            assert len(built) == want, names

    def test_lqr_steady_state_average(self):
        # long-run average cost of LQR under iid noise is sigma^2 * trace(P)
        cfg = _tiny_cfg(T=6000, env=EnvConfig(kind="lds", k=1, d=1, rho=0.9))
        system, cost = build_system(cfg)
        P, K = solve_dare(system.A, system.B, cost.Q, cost.R)
        policies = build_policies(cfg.override(baselines=("lqr",)), system, cost, 0)
        lqr = next(p for p in policies if p.name == "lqr")
        w = draw_disturbances(cfg, 1, 0)
        [traj] = run_episode(system, cost, cfg, [lqr], w, 0)
        expected = P.item() * 0.1**2
        assert traj.running_average()[-1] == pytest.approx(expected, rel=0.15)

    def test_experiment_reproducible(self):
        cfg = _tiny_cfg()
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1.algorithms == ["boosted", "lqr", "single", "zero"]
        for alg in r1.algorithms:
            assert np.array_equal(r1.final_averages(alg), r2.final_averages(alg))
            for t1, t2 in zip(r1.trajectories[alg], r2.trajectories[alg]):
                assert np.array_equal(t1.states, t2.states)
        assert r1.w_hashes == r2.w_hashes

    def test_paired_disturbances_across_algorithms(self):
        res = run_experiment(_tiny_cfg())
        for r in range(2):
            ref = res.trajectories["boosted"][r].disturbances
            for alg in res.algorithms:
                assert np.array_equal(res.trajectories[alg][r].disturbances, ref), (alg, r)

    def test_trajectories_replay_exactly(self):
        cfg = _tiny_cfg()
        system, _ = build_system(cfg)
        res = run_experiment(cfg)
        for alg in res.algorithms:
            for traj in res.trajectories[alg]:
                X = rollout(system, traj.states[0], traj.actions, traj.disturbances)
                assert np.array_equal(X, traj.states)

    def test_divergence_truncates_and_flags(self):
        cfg = _tiny_cfg(divergence_threshold=0.05, T=60)
        res = run_experiment(cfg)
        assert res.boosted_diverged()
        assert "boosted" not in res.stats
        traj = res.trajectories["boosted"][0]
        assert traj.diverged and traj.horizon < 60

    @pytest.mark.parametrize("runs, parallel, pools", [(2, 64, [2]), (1, 4, []), (3, 2, [2])])
    def test_pool_gets_at_most_one_worker_per_run(self, monkeypatch, runs, parallel, pools):
        # The pool starts every worker at once, so a pool larger than the
        # run count forks idle interpreters. The fake runs tasks inline.
        import concurrent.futures

        made = []

        class InlinePool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cfg = _tiny_cfg(runs=runs, T=10)
        result = run_experiment(cfg, parallel=parallel)
        assert made == pools
        serial = run_experiment(cfg)
        for alg in serial.algorithms:
            assert np.array_equal(serial.final_averages(alg), result.final_averages(alg))

    def test_parallel_matches_serial(self):
        cfg = _tiny_cfg()
        serial = run_experiment(cfg, parallel=1)
        para = run_experiment(cfg, parallel=2)
        for alg in serial.algorithms:
            assert np.array_equal(
                serial.final_averages(alg), para.final_averages(alg)
            )

    def test_parameter_count_formula_matches_controllers(self):
        from dynaboost.controllers import RecurrentController
        from dynaboost.core import random_stream

        for cell in ("elman", "lstm"):
            ctrl = RecurrentController(
                3, 2, BallSet(1.0, 2), random_stream(0), hidden_dim=4, cell=cell
            )
            assert ctrl.params.size == recurrent_parameter_count(3, 2, 4, cell)

    def test_overparam_hidden_reaches_target(self):
        h = overparam_hidden(1, 1, 5, "elman", 5)
        assert h == 13  # 13^2 + 3*13 + 1 = 209 >= 5 * 41
        assert recurrent_parameter_count(1, 1, h, "elman") >= 5 * 41
        assert recurrent_parameter_count(1, 1, h - 1, "elman") < 5 * 41

    def test_overparam_policy_parameter_budget(self):
        cfg = _tiny_cfg(
            baselines=("overparam",),
            weak=parse_config("weak:\n  kind: rnn\n", source="c.yaml").weak,
        )
        system, cost = build_system(cfg)
        policies = build_policies(cfg, system, cost, 0)
        over = next(p for p in policies if p.name == "overparam")
        small_total = cfg.N * recurrent_parameter_count(1, 1, cfg.weak.hidden, "elman")
        assert over.ctrl.params.size >= small_total


def _assert_same_trajectory(a, b, label=None):
    for name in ("states", "actions", "disturbances", "costs"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), (label, name)
    assert (a.algorithm, a.seed, a.diverged) == (b.algorithm, b.seed, b.diverged), label


_RNN = parse_config("weak:\n  kind: rnn\n", source="c.yaml").weak
_WALK = DisturbanceConfig(kind="random_walk", std=0.1)
_LOCKSTEP_CASES = {
    "lds_gpc": dict(env=EnvConfig(kind="lds", k=3, d=2, rho=0.8)),
    "pendulum_gpc": dict(env=EnvConfig(kind="pendulum")),
    "elman_overparam": dict(
        weak=_RNN, disturbance=_WALK, baselines=("single", "lqr", "zero", "overparam")
    ),
    "lstm_overparam": dict(
        weak=replace(_RNN, cell="lstm"),
        disturbance=_WALK,
        baselines=("single", "lqr", "zero", "overparam"),
    ),
}


class TestLockstep:
    """A run plays its policies round by round, with one shared learning step
    per round; no policy's trajectory may depend on the others beside it."""

    @pytest.mark.parametrize("overrides", _LOCKSTEP_CASES.values(), ids=_LOCKSTEP_CASES.keys())
    def test_trajectory_does_not_depend_on_the_other_policies(self, overrides):
        cfg = _tiny_cfg(runs=1, T=30, **overrides)
        built = build_experiment(cfg)
        _, full = _run_one(cfg, 0, built)
        fewer = cfg.override(baselines=("lqr",))
        _, beside_lqr = _run_one(fewer, 0, build_experiment(fewer))
        assert sorted(beside_lqr) == ["boosted", "lqr"]
        for name in beside_lqr:
            _assert_same_trajectory(beside_lqr[name], full[name], name)
        # Each policy that learns, alone in its run.
        system, cost, derived = built
        w = draw_disturbances(cfg, system.state_dim, 0)
        for policy in build_policies(cfg, system, cost, 0, derived):
            if hasattr(policy, "learners"):
                [alone] = run_episode(system, cost, cfg, [policy], w, 0)
                _assert_same_trajectory(alone, full[policy.name], policy.name)

    def test_policy_that_diverges_leaves_the_others_unchanged(self, monkeypatch):
        anchors = []

        class CountedProxyLoss(runner.ProxyLoss):
            def gradients(self, U):
                anchors.append(len(U))
                return super().gradients(U)

        monkeypatch.setattr(runner, "ProxyLoss", CountedProxyLoss)
        # (case, seed, threshold, the policies that cross it, in crossing order).
        # In the last two, single leaves while boosted, whose levels share its
        # stack, keeps acting, so the survivors are joined again mid-run.
        cases = [
            ("elman_overparam", 12345, 2.0, ["boosted"]),
            ("lds_gpc", 12346, 0.78, ["zero", "single"]),
            ("lstm_overparam", 12356, 0.415, ["lqr", "zero", "single"]),
        ]
        for case, seed, threshold, leavers in cases:
            overrides = _LOCKSTEP_CASES[case]
            cfg = _tiny_cfg(runs=1, T=60, seed=seed, divergence_threshold=math.inf, **overrides)
            _, unbounded = _run_one(cfg, 0, build_experiment(cfg))
            crossed = {}
            for name, traj in unbounded.items():
                over = np.flatnonzero(np.linalg.norm(traj.states, axis=1) > threshold)
                if over.size:
                    crossed[name] = over[0]
            assert sorted(crossed, key=crossed.get) == leavers, case
            assert all(0 < end < cfg.T - 1 for end in crossed.values()), case  # mid-run
            bounded = cfg.override(divergence_threshold=threshold)
            anchors.clear()
            _, out = _run_one(bounded, 0, build_experiment(bounded))
            # A learning policy's anchors leave the shared step in the round
            # it diverges: round end - 1 for a state that crosses at end.
            sizes = {"boosted": cfg.N, "single": 1, "overparam": 1}
            learning = {name: sizes[name] for name in unbounded if name in sizes}
            want = [
                sum(n for name, n in learning.items() if crossed.get(name, cfg.T + 1) - 1 > t)
                for t in range(cfg.T)
            ]
            assert anchors == want, case
            if "single" in crossed:
                end = crossed["single"]
                assert want[end - 2] - want[end - 1] == 1, case
            for name in unbounded.keys() - crossed.keys():
                _assert_same_trajectory(out[name], unbounded[name], (case, name))
            for name, end in crossed.items():
                mine, whole = out[name], unbounded[name]
                assert mine.diverged and mine.horizon == end, (case, name)
                assert np.array_equal(mine.states, whole.states[: end + 1]), (case, name)
                for field in ("actions", "disturbances", "costs"):
                    prefix = getattr(whole, field)[:end]
                    assert np.array_equal(getattr(mine, field), prefix), (case, name, field)

    def test_policies_that_leave_in_one_round_keep_their_own_last_rows(self):
        # In round 12, "far" steps to a finite state past the threshold and
        # "lost" to a NaN state. far keeps that state as its last row
        # (horizon 13); lost ends before it (horizon 12). "calm", which runs
        # beside them, plays as it does alone.
        class Fixed:
            def __init__(self, name, leave):
                self.name, self.leave, self.t = name, leave, 0

            def act(self, state):
                u = np.full(2, self.leave if self.t == 12 else 0.01 * self.t)
                self.t += 1
                return u

        cfg = _tiny_cfg(env=EnvConfig(kind="lds", k=3, d=2, rho=0.8), T=30, divergence_threshold=50.0)
        system, cost = build_system(cfg)
        w = draw_disturbances(cfg, system.state_dim, 0)
        [alone] = run_episode(system, cost, cfg, [Fixed("calm", 0.12)], w, 0)
        assert not alone.diverged and alone.horizon == cfg.T
        calm, far, lost = run_episode(
            system, cost, cfg, [Fixed("calm", 0.12), Fixed("far", 1e6), Fixed("lost", math.nan)], w, 0
        )
        _assert_same_trajectory(calm, alone, "calm")
        assert far.diverged and far.horizon == 13
        assert np.linalg.norm(far.states[13]) > 50.0 and np.isfinite(far.states).all()
        assert np.array_equal(far.states[:13], alone.states[:13])
        assert np.array_equal(far.actions[12], [1e6, 1e6]) and np.isfinite(far.costs).all()
        assert lost.diverged and lost.horizon == 12
        assert np.array_equal(lost.states, alone.states[:13])
        assert np.array_equal(lost.costs, alone.costs[:12])

    def test_booster_update_moves_what_its_act_reads_after_the_run_joins_it(self):
        cfg = _tiny_cfg(T=10)
        system, cost = build_system(cfg)
        policies = build_policies(cfg, system, cost, 0)
        booster, single = policies[0], policies[1]
        w = draw_disturbances(cfg, 1, 0)
        run_episode(system, cost, cfg, policies, w, 0)
        H = cfg.H
        hist = np.linspace(-0.5, 0.5, 2 * H - 1)[:, None]
        window = hist[H - 1 :]
        u = booster.act(window)
        before = single.ctrl.params.copy()
        booster.update(ProxyLoss(system, cost, hist[H:]), hist)
        assert not np.array_equal(booster.act(window), u)
        assert np.array_equal(single.ctrl.params, before)


class TestRunIndependence:
    """Run r of an experiment must not depend on the runs beside it: the
    system, cost and LQR gain built once per experiment, and the window
    operators cached on the system, carry no state from run to run."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(env=EnvConfig(kind="lds", k=3, d=2, rho=0.8)),
            dict(env=EnvConfig(kind="pendulum")),
            dict(
                weak=parse_config("weak:\n  kind: rnn\n", source="c.yaml").weak,
                baselines=("single", "lqr", "zero", "overparam"),
            ),
        ],
        ids=["lds_gpc", "pendulum_gpc", "lds_rnn"],
    )
    def test_fresh_run_matches_run_inside_experiment(self, overrides):
        cfg = _tiny_cfg(runs=3, T=25, **overrides)
        result = run_experiment(cfg)
        for r in reversed(range(cfg.runs)):
            w_hash, alone = _run_one(cfg, r, build_experiment(cfg))
            assert w_hash == result.w_hashes[r]
            assert sorted(alone) == result.algorithms
            for alg in result.algorithms:
                a, b = alone[alg], result.trajectories[alg][r]
                for name in ("states", "actions", "disturbances", "costs"):
                    assert np.array_equal(getattr(a, name), getattr(b, name)), (alg, r, name)
                assert (a.diverged, a.seed) == (b.diverged, b.seed)


# Digests every action and state of a tiny sanity_d100 experiment.
_BLAS_PROBE = """
import hashlib
from dataclasses import replace
from dynaboost.harness.experiments import sanity_suite
from dynaboost.harness.runner import run_experiment
result = run_experiment(replace(sanity_suite()[2], runs=1, T=5, N=2))
h = hashlib.sha256()
for trajectories in result.trajectories.values():
    for traj in trajectories:
        h.update(traj.actions.tobytes())
        h.update(traj.states.tobytes())
print(h.hexdigest())
"""


def test_results_do_not_depend_on_the_blas_thread_count():
    """The package pins BLAS to one thread, whatever thread count the environment sets."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path)
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
        out = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout)
    assert digests[0] == digests[1]


def test_importing_the_runner_leaves_the_process_pool_unloaded():
    """Only run_experiment(parallel > 1) imports the process pool."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys; import dynaboost.harness.runner; "
        "print('concurrent.futures.process' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


class TestSuiteDefinitions:
    def test_sanity_dimensions_and_rho(self):
        suite = sanity_suite(runs=3)
        assert [c.env.k for c in suite] == [1, 10, 100]
        assert all(c.env.rho == pytest.approx(0.7) for c in suite)
        assert suite[0].T == 2000 and suite[2].T == 1000
        assert all(c.weak.lr == WEAK_DEFAULTS["gpc"][0] for c in suite)

    def test_t_large_caps_the_d100_horizon(self):
        # `dynaboost sanity --t 300` must not run d=100 for the longer default cap.
        assert [c.T for c in sanity_suite(T=300)] == [300, 300, 300]
        assert sanity_suite(T=300, t_large=50)[2].T == 50

    def test_correlated_kinds(self):
        suite = correlated_suite(runs=3)
        assert [c.name for c in suite] == ["walk_gpc", "sine_gpc", "walk_rnn"]
        assert suite[0].disturbance.kind == "random_walk"
        assert suite[1].disturbance.kind == "sinusoidal"
        assert suite[2].weak.kind == "rnn"
        assert all(c.env.rho == pytest.approx(0.7) for c in suite)

    def test_pendulum_config(self):
        cfg = pendulum_config()
        assert cfg.env.kind == "pendulum"
        assert cfg.action_radius == pytest.approx(2.0)
        assert cfg.disturbance.clip_hi == pytest.approx(0.5)

    def test_overparam_baseline_present(self):
        for cfg in overparam_suite():
            assert "overparam" in cfg.baselines
            assert cfg.weak.kind == "rnn"

    def test_all_suite_seeds_distinct(self):
        seeds = [c.seed for _, configs in SUITES.values() for c in configs()]
        assert len(seeds) == len(set(seeds))
