"""End-to-end acceptance checks, one test per headline claim.

Each test prints a single PASS/FAIL line with its measured numbers and
then asserts. The experiment-driven checks run the same frozen suite
definitions the CLI uses; expect a few minutes of wall clock on a
single core for the 20-run suites.
"""

import importlib.util
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dynaboost.boosting import DynaBoost, combination_weights
from dynaboost.controllers import solve_dare
from dynaboost.core import BallSet, random_stream
from dynaboost.dynamics import random_lds
from dynaboost.harness import gradcheck
from dynaboost.harness.cli import EXIT_OK, main
from dynaboost.harness.experiments import correlated_suite, sanity_suite
from dynaboost.harness.runner import build_system, run_experiment
from dynaboost.losses import CurvatureBounds


ROOT = Path(__file__).resolve().parents[1]


def _load_script(name: str):
    """scripts/{name}.py as a module, so a test measures with the script's own code."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


# ---------------------------------------------------------------------------
# learner stubs used by the frozen-target checks, each of memory H = 1


class FixedLearner:
    """Always plays one fixed action."""

    H = 1

    def __init__(self, action):
        self._action = np.asarray(action, dtype=np.float64)
        self.action_ball = BallSet(radius=1e6, dim=self._action.size)

    def act(self, window):
        return self._action.copy()

    def receive_loss(self, loss, w_history):
        pass


class QuadOracleLearner:
    """Plays the exact ball-constrained minimizer of its last quadratic residual."""

    H = 1

    def __init__(self, dim, radius):
        self.action_ball = BallSet(radius=radius, dim=dim)
        self._best = np.zeros(dim)

    def act(self, window):
        return self._best.copy()

    def receive_loss(self, loss, w_history):
        u = loss.anchors[-1] - loss.gradients[-1] / (2.0 * loss.coefficient)
        n = np.linalg.norm(u)
        if n > self.action_ball.radius:
            u = u * (self.action_ball.radius / n)
        self._best = u


class LinOracleLearner:
    """Plays the ball minimizer of its last linear residual (its extreme point)."""

    H = 1

    def __init__(self, dim, radius):
        self.action_ball = BallSet(radius=radius, dim=dim)
        self._best = np.zeros(dim)

    def act(self, window):
        return self._best.copy()

    def receive_loss(self, loss, w_history):
        g = loss.gradients[-1]
        n = np.linalg.norm(g)
        if n > 0:
            self._best = -self.action_ball.radius * g / n


class WeightedQuadTarget:
    """Stationary window objective sum_j (u_j - u*)' diag(lam) (u_j - u*)."""

    def __init__(self, u_star, lam):
        self.u_star = np.asarray(u_star, dtype=np.float64)
        self.lam = np.asarray(lam, dtype=np.float64)

    def gradients(self, actions):
        return 2.0 * self.lam * (np.atleast_2d(actions) - self.u_star)

    def excess(self, u):
        return float(np.sum(self.lam * (u - self.u_star) ** 2))


# ---------------------------------------------------------------------------
# algebraic checks


def test_combination_weight_identity():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for N in range(1, 21):
        gammas = combination_weights(N)
        for _ in range(100):
            actions = rng.normal(size=(N, 3))
            booster = DynaBoost([FixedLearner(a) for a in actions])
            out = booster.act(np.zeros((1, 1)))
            worst = max(worst, float(np.abs(out - gammas @ actions).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(
        "combination weight identity",
        ok,
        f"max |output - weighted sum| {worst:.2e} over N=1..20 x 100 sets, {elapsed:.2f}s",
    )
    assert ok, f"worst deviation {worst}, elapsed {elapsed}"


def test_gradient_oracles_match_finite_differences():
    start = time.perf_counter()
    results = gradcheck.run_all()
    elapsed = time.perf_counter() - start
    ok = all(r.ok for r in results) and elapsed < 30.0
    worst = max(r.max_rel_err for r in results)
    _report(
        "analytic gradients vs central differences",
        ok,
        f"{len(results)} oracles, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )
    assert ok, "\n".join(r.line() for r in results)


def test_riccati_solution_golden_ratio_and_residuals():
    P, _ = solve_dare(np.eye(1), np.eye(1), np.eye(1), np.eye(1))
    golden_err = abs(P.item() - (1.0 + math.sqrt(5.0)) / 2.0)
    worst_res = 0.0
    for i in range(50):
        k = 1 + i % 5
        d = 1 + (i * 7) % 3
        rho = 0.25 + 0.5 * ((i * 13) % 10) / 9.0
        system = random_lds(random_stream(909, i), k, d, rho)
        A, B = system.A, system.B
        P_i, _ = solve_dare(A, B, np.eye(k), np.eye(d))
        gain = np.linalg.solve(np.eye(d) + B.T @ P_i @ B, B.T @ P_i @ A)
        resid = np.linalg.norm(P_i - (np.eye(k) + A.T @ P_i @ A - A.T @ P_i @ B @ gain))
        worst_res = max(worst_res, float(resid))
    ok = golden_err <= 1e-9 and worst_res <= 1e-9
    _report(
        "Riccati fixed point",
        ok,
        f"scalar solution off golden ratio by {golden_err:.1e}, "
        f"worst residual {worst_res:.1e} over 50 random systems",
    )
    assert ok


# ---------------------------------------------------------------------------
# frozen-target oracle checks


def test_perfect_oracle_excess_contracts_per_level():
    target = WeightedQuadTarget([0.6, -0.3], [1.0, 1.0])
    curv = CurvatureBounds(alpha=2.0, beta=8.0)
    N = 10
    start = time.perf_counter()
    learners = [QuadOracleLearner(dim=2, radius=1.0) for _ in range(N)]
    booster = DynaBoost(learners, curv)
    for _ in range(2):
        booster.act(np.zeros((1, 1)))
        booster.update(target, np.zeros((1, 1)))
    levels = [*booster.anchors[:, -1], booster.act(np.zeros((1, 1)))]
    elapsed = time.perf_counter() - start
    initial = target.excess(levels[0])
    worst_margin = -np.inf
    ok = elapsed < 1.0
    for i in range(1, N + 1):
        excess = target.excess(levels[i])
        bound = (0.75**i) * initial + 1e-9
        worst_margin = max(worst_margin, excess - bound)
        ok = ok and excess <= bound
    _report(
        "perfect-oracle per-level contraction",
        ok,
        f"excess - 0.75^i bound <= {worst_margin:.2e} for levels 1..{N}, {elapsed:.2f}s",
    )
    assert ok


def test_linear_oracle_excess_scales_inversely_with_levels():
    # N * excess(N) staying under twice its N=2 value is the 1/N shape;
    # ball extreme points overshoot less than the rate promises, so the
    # products may also drop well below that reference.
    target = WeightedQuadTarget([0.5, 0.2], [1.0, 9.0])
    products = {}
    for N in (2, 4, 8, 16):
        learners = [LinOracleLearner(dim=2, radius=1.0) for _ in range(N)]
        booster = DynaBoost(learners)
        for _ in range(50):
            booster.act(np.zeros((1, 1)))
            booster.update(target, np.zeros((1, 1)))
        products[N] = N * target.excess(booster.act(np.zeros((1, 1))))
    reference = products[2]
    ok = reference > 0 and all(products[N] <= 2.0 * reference for N in (4, 8, 16))
    _report(
        "linear-oracle excess scaling",
        ok,
        "N*excess = "
        + ", ".join(f"{v:.3f} (N={N})" for N, v in products.items())
        + f"; all within 2x of {reference:.3f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# experiment-driven checks (frozen suites, minutes of wall clock)


@pytest.mark.slow
def test_iid_suite_boosted_tracks_lqr_and_beats_zero():
    details = []
    ok = True
    for cfg in sanity_suite(runs=20)[:2]:
        res = run_experiment(cfg)
        assert not res.boosted_diverged()
        boosted, lqr, zero = res.stats["boosted"], res.stats["lqr"], res.stats["zero"]
        ratio = boosted.mean[-1] / lqr.mean[-1]
        separated = boosted.ci_hi[-1] < zero.ci_lo[-1]
        ok = ok and abs(ratio - 1.0) <= 0.15 and separated
        details.append(
            f"{cfg.name} boosted/lqr {ratio:.3f} zero-gap "
            f"{zero.ci_lo[-1] - boosted.ci_hi[-1]:+.4f}"
        )
    _report("i.i.d. suite vs LQR and zero", ok, "; ".join(details))
    assert ok, details


@pytest.mark.slow
def test_boosting_improves_single_weak_controllers():
    details = []
    ok = True
    for cfg in correlated_suite(runs=20):
        res = run_experiment(cfg)
        assert not res.boosted_diverged()
        boosted = res.final_averages("boosted")
        single = res.final_averages("single")
        wins = int(np.sum(single - boosted > 0))
        this_ok = boosted.mean() <= single.mean() and wins >= 16
        ok = ok and this_ok
        details.append(
            f"{cfg.name} boosted {boosted.mean():.4f} vs single {single.mean():.4f}, "
            f"wins {wins}/20"
        )
    _report("boosted beats its single weak controller", ok, "; ".join(details))
    assert ok, details


def test_cost_memory_error_decays_with_window_length():
    base = sanity_suite(runs=1)[0]
    cfg = replace(
        base, env=replace(base.env, rho=0.9), runs=1, baselines=("single",)
    )
    system, cost = build_system(cfg)
    traj = run_experiment(cfg).trajectories["single"][0]
    window_error = _load_script("memory_decay").window_error
    e5, e10, e15 = (window_error(traj, system, cost, H, burn=100) for H in (5, 10, 15))
    r1, r2 = e10 / e5, e15 / e10
    ok = r1 <= 0.65 and r2 <= 0.65
    _report(
        "window-length error decay",
        ok,
        f"eps(5)={e5:.2e} eps(10)={e10:.2e} eps(15)={e15:.2e}, ratios {r1:.3f}, {r2:.3f}",
    )
    assert ok


def test_average_regret_decreases_with_horizon():
    totals = _load_script("regret_horizon").totals
    rates = []
    for T in (500, 1000, 2000):
        boosted_total, best_total = totals(T)
        rates.append((boosted_total - best_total) / T)
    ok = all(rates[i + 1] < rates[i] for i in range(len(rates) - 1))
    _report(
        "average regret shrinks with horizon",
        ok,
        "rate(T) = " + ", ".join(f"{r:.2e}" for r in rates) + " at T=500,1000,2000",
    )
    assert ok, rates


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


def test_cli_run_twice_is_byte_identical(tmp_path):
    cfg_path = tmp_path / "repro.yaml"
    cfg_path.write_text(REPRO_YAML)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == EXIT_OK
    assert main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == EXIT_OK
    files = ["repro_raw.csv", "repro_aggregate.csv"]
    same = {f: (out_a / f).read_bytes() == (out_b / f).read_bytes() for f in files}
    ok = all(same.values())
    _report(
        "repeated run emits identical CSV bytes",
        ok,
        ", ".join(f"{f}: {'same' if v else 'DIFFERENT'}" for f, v in same.items()),
    )
    assert ok
