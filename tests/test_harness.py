"""Config parsing, statistics, file emission, and the experiment runner."""

import json
import random
import xml.etree.ElementTree as ET
from dataclasses import asdict, replace

import numpy as np
import pytest
import yaml

from dynaboost.controllers import ZeroController, solve_dare
from dynaboost.core import BallSet
from dynaboost.dynamics import PendulumSystem, Trajectory, rollout
from dynaboost.harness.config import (
    ConfigError,
    DisturbanceConfig,
    EnvConfig,
    ExperimentConfig,
    WeakConfig,
    load_config,
    parse_config,
)
from dynaboost.harness.experiments import GPC_LR, correlated_suite, overparam_suite, pendulum_config, sanity_suite
from dynaboost.harness import runner
from dynaboost.harness.outputs import write_outputs
from dynaboost.harness.runner import (
    _run_one,
    build_policies,
    build_system,
    draw_disturbances,
    overparam_hidden,
    recurrent_parameter_count,
    run_episode,
    run_experiment,
)
from dynaboost.harness.stats import aggregate


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


class TestConfigParsing:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL_YAML, source="demo.yaml")
        assert cfg.name == "demo"
        assert cfg.T == 30 and cfg.H == 5 and cfg.N == 5
        assert cfg.env.rho == pytest.approx(0.9)
        assert cfg.weak.kind == "gpc" and cfg.weak.lr is None
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

    def test_rnn_without_lr_still_rejects_unknown_schedule(self):
        with pytest.raises(ConfigError, match=r":3: lr_schedule must be one of .*, got 'cosine'"):
            parse_config("weak:\n  kind: rnn\n  lr_schedule: cosine\n", source="c.yaml")

    def test_booster_alpha_beta_ordering(self):
        with pytest.raises(ConfigError, match="alpha <= beta"):
            parse_config("booster:\n  variant: dynaboost2\n  alpha: 3\n  beta: 1\n", source="c.yaml")

    def test_negative_lr_rejected(self):
        with pytest.raises(ConfigError, match="lr must be positive"):
            parse_config("weak:\n  lr: -0.1\n", source="c.yaml")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("disturbance:\n  std: -0.1\n", r"c\.yaml:2: std must be >= 0"),
            (
                "weak:\n  kind: gpc\nbaselines:\n  - single\n  - overparam\n",
                r"c\.yaml:5: baseline 'overparam' needs weak kind 'rnn', got 'gpc'",
            ),
        ],
        ids=["negative_std", "overparam_beside_gpc"],
    )
    def test_range_error_names_line(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text, source="c.yaml")

    @pytest.mark.parametrize(
        "kw, match",
        [
            (dict(disturbance=DisturbanceConfig(std=-0.1)), r"override disturbance\.std: std must be >= 0"),
            (dict(baselines=("overparam", "zero")), r"override baselines\.0: baseline 'overparam' needs"),
        ],
        ids=["negative_std", "overparam_beside_gpc"],
    )
    def test_override_error_names_field(self, kw, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig().override(**kw)

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


class TestAggregate:
    def test_three_runs_hand_stats(self):
        s = aggregate([np.array([1.0]), np.array([2.0]), np.array([3.0])])
        assert s.mean[0] == pytest.approx(2.0)
        assert s.std[0] == pytest.approx(1.0)
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
        w_hash=f"hash{seed}",
    )


def _fake_payload(T=10, runs=2):
    trajectories = {
        alg: [_fake_traj(alg, s, T) for s in range(runs)] for alg in ("boosted", "zero")
    }
    stats = {alg: aggregate([t.running_average() for t in trajs]) for alg, trajs in trajectories.items()}
    cfg = parse_config(MINIMAL_YAML, source="demo.yaml").override(T=T, runs=runs)
    hashes = [f"hash{s}" for s in range(runs)]
    return cfg, trajectories, stats, hashes


class TestOutputs:
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
        traj = run_episode(system, cost, cfg, policy, np.zeros((5, 1)), 0)
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
        for name, want in [("zero", 0), ("lqr", 0), ("single", cfg.T)]:
            built.clear()
            traj = run_episode(system, cost, cfg, policies[name], w, 0)
            assert not traj.diverged
            assert len(built) == want, name

    def test_lqr_steady_state_average(self):
        # long-run average cost of LQR under iid noise is sigma^2 * trace(P)
        cfg = _tiny_cfg(T=6000, env=EnvConfig(kind="lds", k=1, d=1, rho=0.9))
        system, cost = build_system(cfg)
        P, K = solve_dare(system.A, system.B, cost.Q, cost.R)
        policies = build_policies(cfg.override(baselines=("lqr",)), system, cost, 0)
        lqr = next(p for p in policies if p.name == "lqr")
        w = draw_disturbances(cfg, 1, 0)
        traj = run_episode(system, cost, cfg, lqr, w, 0)
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
                assert t1.w_hash == t2.w_hash

    def test_paired_disturbances_across_algorithms(self):
        res = run_experiment(_tiny_cfg())
        for r in range(2):
            hashes = {res.trajectories[alg][r].w_hash for alg in res.algorithms}
            assert len(hashes) == 1

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
        from dynaboost.core import RngStream

        for cell in ("elman", "lstm"):
            ctrl = RecurrentController(
                3, 2, BallSet(1.0, 2), RngStream(0), hidden_dim=4, cell=cell
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
            alone = _run_one(cfg, r)
            assert sorted(alone) == result.algorithms
            for alg in result.algorithms:
                a, b = alone[alg], result.trajectories[alg][r]
                for name in ("states", "actions", "disturbances", "costs"):
                    assert np.array_equal(getattr(a, name), getattr(b, name)), (alg, r, name)
                assert (a.w_hash, a.diverged, a.seed) == (b.w_hash, b.diverged, b.seed)


class TestSuiteDefinitions:
    def test_sanity_dimensions_and_rho(self):
        suite = sanity_suite(runs=3)
        assert [c.env.k for c in suite] == [1, 10, 100]
        assert all(c.env.rho == pytest.approx(0.7) for c in suite)
        assert suite[0].T == 2000 and suite[2].T == 1000
        assert all(c.weak.lr == pytest.approx(GPC_LR) for c in suite)

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
        seeds = [
            c.seed
            for c in (
                *sanity_suite(),
                *correlated_suite(),
                pendulum_config(),
                *overparam_suite(),
            )
        ]
        assert len(seeds) == len(set(seeds))
