"""Tests of the benchmark's own checks.

    python3 -m pytest perfbench/test_perfbench.py -q

Every workload runs one pass at a tiny size and must pass its integrity
checks; each check must reject an output tampered with in the way it
exists to catch.
"""

import contextlib
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import bench  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return replace(
        w,
        seeded=replace(w.seeded, runs=2, T=20),
        reference=replace(w.reference, runs=2, T=20),
    )


def one_pass(tmp_path, name: str, tracer=None):
    """The seeded and the reference experiment of a tiny workload, in that order."""
    w = tiny(name)
    paths = workloads.write_configs(w, seed=3, out_dir=tmp_path)
    with tracer.installed() if tracer else contextlib.nullcontext():
        return w, [bench.run_experiment_pass(p, e) for p, e in zip(paths, (w.seeded, w.reference))]


def integrity_problems(timed_list, combination=None) -> list[str]:
    tally = bench.Tally()
    checker = bench.Checker()
    for t in timed_list:
        checker.check(tally, t, combination)
    return [m for m in tally.messages if not m.startswith("claim")]


@pytest.fixture(scope="module")
def scalar(tmp_path_factory):
    return one_pass(tmp_path_factory.mktemp("scalar"), "scalar_gpc")[1][0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_passes_its_checks_at_tiny_size(tmp_path, name):
    _, timed = one_pass(tmp_path, name)
    assert [t.cfg.runs * t.cfg.T for t in timed] == [40, 40]
    assert integrity_problems(timed) == []


def test_command_lists_every_workload():
    import run

    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)


def test_seed_picks_the_seeded_config_only(tmp_path):
    w = tiny("scalar_gpc")
    a = [p.read_text() for p in workloads.write_configs(w, 1, tmp_path / "a")]
    b = [p.read_text() for p in workloads.write_configs(w, 2, tmp_path / "b")]
    assert a[0] != b[0]
    assert a[1].replace(str(tmp_path / "a"), "") == b[1].replace(str(tmp_path / "b"), "")


def test_traced_pass_checks_combination_and_nests_spans(tmp_path):
    tracer = Tracer()
    _, timed = one_pass(tmp_path, "scalar_gpc", tracer)
    combination = bench.combination_errors(tracer)
    assert sorted(combination) == [0, 1] and max(combination.values()) <= 1e-12
    assert integrity_problems(timed, combination) == []
    assert tracer.nesting_problems() == []
    inside, whole = tracer.accounted("runner.run_experiment")
    assert whole > 0 and inside == pytest.approx(whole, rel=1e-9)
    runs = {s[4] for s in tracer.spans if s[0] == "runner.run_episode"}
    assert len(runs) == 4  # two runs of each of the two experiments


def test_combination_error_sees_a_wrong_weight():
    A = np.array([[1.0], [2.0], [4.0]])
    u = (1 / 6) * A[0] + (2 / 6) * A[1] + (3 / 6) * A[2]
    assert checks.combination_error(A, u) <= 1e-15
    assert checks.combination_error(A, u + 1e-9) > 1e-12


def test_stage_cost_off_by_1e_6_is_rejected(scalar):
    traj = scalar.result.trajectories["boosted"][0]
    assert checks.check_costs(traj) == []
    bad = replace(traj, costs=traj.costs.copy())
    bad.costs[7] += 1e-6
    assert checks.check_costs(bad)


def test_raw_csv_stage_cost_off_by_1e_6_is_rejected(scalar):
    raw = checks.read_raw_csv(scalar.files["raw"])
    traj = scalar.result.trajectories["single"][1]
    assert checks.check_raw_rows(traj, raw) == []
    t, inst, avg = raw[("single", 1)]
    inst = inst.copy()
    inst[3] += 1e-6
    raw[("single", 1)] = (t, inst, avg)
    assert checks.check_raw_rows(traj, raw)


def test_action_outside_the_ball_is_rejected(scalar):
    traj = scalar.result.trajectories["boosted"][0]
    radius = scalar.cfg.action_radius
    assert checks.check_ball(traj, radius) == []
    bad = replace(traj, actions=traj.actions.copy())
    bad.actions[5] = radius * (1 + 1e-9)
    assert checks.check_ball(bad, radius)


def test_lqr_action_off_minus_kx_is_rejected(scalar):
    checker = bench.Checker()
    model, K = checker.model(scalar.cfg)
    traj = scalar.result.trajectories["lqr"][0]
    assert checks.check_lqr(traj, model, K) == []
    bad = replace(traj, actions=traj.actions.copy())
    bad.actions[4] *= 1.001
    assert checks.check_lqr(bad, model, K)


def test_replay_rejects_a_moved_state(tmp_path):
    _, timed = one_pass(tmp_path, "pendulum_gpc")
    checker = bench.Checker()
    model, _ = checker.model(timed[0].cfg)
    traj = timed[0].result.trajectories["zero"][1]
    assert checks.check_replay(traj, model) == []
    bad = replace(traj, states=traj.states.copy())
    bad.states[9, 1] += 1e-6
    assert checks.check_replay(bad, model)


def test_aggregate_mean_not_the_mean_of_raw_rows_is_rejected(scalar, tmp_path):
    raw = checks.read_raw_csv(scalar.files["raw"])
    algorithms = sorted(scalar.result.trajectories)
    assert checks.check_aggregate(scalar.files["aggregate"], raw, algorithms) == []
    with open(scalar.files["aggregate"], newline="") as fh:
        rows = list(csv.reader(fh))
    rows[12][2] = format(float(rows[12][2]) * (1 + 1e-6), ".10g")
    tampered = tmp_path / "aggregate.csv"
    with open(tampered, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert checks.check_aggregate(tampered, raw, algorithms)
