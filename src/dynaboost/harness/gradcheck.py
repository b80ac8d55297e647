"""Finite-difference verification of every analytic gradient in the package.

Central differences with h = 1e-5 against: window-loss slot gradients
(linear and pendulum rollouts), the GPC parameter gradient of the loss of
its own act, recurrent backpropagation through time (both cells), and the
gradient 2(Pm + q) of the comparator's exact quadratic. Used by the CLI
and by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dynaboost.controllers import GpcController, RecurrentController, _raw_outputs, _slot_windows
from dynaboost.core import BallSet, project_to_ball, random_stream
from dynaboost.dynamics import LinearSystem, PendulumSystem
from dynaboost.harness.comparator import evaluate_fixed_gpc, fixed_gpc_quadratic
from dynaboost.losses import ProxyLoss, QuadraticCost, ResidualLoss

FD_STEP = 1e-5
TOL_DEFAULT = 1e-5
TOL_RNN = 1e-4
POINTS = 100  # random points per check; the comparator check takes 20
WINDOW_SCALE = 0.5  # std of the window-loss check's disturbances and actions


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_rel_err <= self.tol

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return f"{status:4s} {self.name:32s} max rel err {self.max_rel_err:.3e} (tol {self.tol:.0e})"


def _central_fd(f, x0: np.ndarray) -> np.ndarray:
    g = np.zeros_like(x0)
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = FD_STEP
        g[i] = (f(x0 + e) - f(x0 - e)) / (2.0 * FD_STEP)
    return g


def _rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    return float(np.abs(analytic - fd).max() / max(1.0, np.abs(fd).max()))


def _random_residual(rng, H, d, kind: str):
    grads = rng.normal(size=(H, d))
    if kind == "linear":
        return ResidualLoss(grads, np.zeros((H, d)))
    return ResidualLoss(grads, 0.5 * rng.normal(size=(H, d)), 0.5 + rng.uniform())


def check_window_loss(system, name: str) -> CheckResult:
    rng = np.random.default_rng(101)
    cost = QuadraticCost.identity(system.state_dim, system.action_dim)
    worst = 0.0
    for _ in range(POINTS):
        H = int(rng.integers(1, 6))
        w = WINDOW_SCALE * rng.normal(size=(H - 1, system.state_dim))
        ctx = ProxyLoss(system, cost, w)
        U0 = WINDOW_SCALE * rng.normal(size=(H, system.action_dim))
        analytic = ctx.gradients(U0).ravel()
        fd = _central_fd(lambda v: ctx.value(v.reshape(U0.shape)), U0.ravel().copy())
        worst = max(worst, _rel_err(analytic, fd))
    return CheckResult(name, worst, TOL_DEFAULT)


def check_gpc_gradient() -> CheckResult:
    rng = np.random.default_rng(202)
    worst = 0.0
    for p in range(POINTS):
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        H = int(rng.integers(1, 5))
        radius = 0.6 if p % 2 else 50.0  # exercise both projection regimes
        ball = BallSet(radius, d)
        gpc = GpcController(k, H, ball, lr=0.0, lr_schedule="constant")
        gpc.M[...] = rng.normal(size=(H, d, k))
        wh = rng.normal(size=(2 * H - 1, k))
        loss = _random_residual(rng, H, d, "linear" if p % 3 else "quadratic")
        G = gpc.loss_gradients(loss, wh).ravel()
        windows = _slot_windows(wh, H)

        # Each slot's action is the one act plays on that slot's window.
        def composed(vec):
            gpc.M[...] = vec.reshape(H, d, k)
            return loss.value(np.stack([gpc.act(window) for window in windows]))

        fd = _central_fd(composed, gpc.M.ravel().copy())
        worst = max(worst, _rel_err(G, fd))
    return CheckResult("gpc parameter gradient", worst, TOL_DEFAULT)


def check_rnn_gradient(cell: str) -> CheckResult:
    rng = np.random.default_rng(303)
    worst = 0.0
    for p in range(POINTS):
        k = int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        H = int(rng.integers(1, 5))
        radius = 0.5 if p % 2 else 50.0
        ball = BallSet(radius, d)
        ctrl = RecurrentController(k, H, ball, random_stream(404, p), hidden_dim=3, cell=cell)
        # The output head initializes to zero; check at a random small theta
        # so every parameter block sees a nontrivial gradient.
        ctrl.params[...] = 0.4 * rng.normal(size=ctrl.params.size)
        wh = rng.normal(size=(2 * H - 1, k))
        loss = _random_residual(rng, H, d, "linear" if p % 3 else "quadratic")
        analytic = ctrl.loss_gradients(loss, wh)
        theta0 = ctrl.params.copy()
        windows = _slot_windows(wh, H)
        # The update trains the raw outputs against the loss gradients
        # frozen at the played actions, so that is the objective to
        # differentiate here.
        raw0, _, _ = _raw_outputs(ctrl.cell, ctrl.weights, windows)
        g0 = loss.slot_gradients(np.stack([project_to_ball(r, ball) for r in raw0]))

        def composed(theta):
            ctrl.params[...] = theta
            raw, _, _ = _raw_outputs(ctrl.cell, ctrl.weights, windows)
            return float(np.sum(g0 * raw))

        fd = _central_fd(composed, theta0.copy())
        ctrl.params[...] = theta0
        worst = max(worst, _rel_err(analytic, fd))
    return CheckResult(f"{cell} backprop through time", worst, TOL_RNN)


def check_comparator_gradient() -> CheckResult:
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        H = int(rng.integers(1, 4))
        T = int(rng.integers(5, 30))
        A = rng.normal(size=(k, k))
        A *= 0.8 / max(1e-9, np.abs(np.linalg.eigvals(A)).max())
        system = LinearSystem(A, rng.normal(size=(k, d)))
        cost = QuadraticCost.identity(k, d)
        W = rng.normal(size=(T, k))
        M0 = rng.normal(size=(H, d, k))
        P, q, _ = fixed_gpc_quadratic(W, system, cost, H)
        analytic = 2.0 * (P @ M0.ravel() + q)
        fd = _central_fd(
            lambda v: evaluate_fixed_gpc(W, v.reshape(H, d, k), system, cost, H),
            M0.ravel().copy(),
        )
        worst = max(worst, _rel_err(analytic, fd))
    return CheckResult("comparator quadratic gradient", worst, TOL_DEFAULT)


def run_all() -> list[CheckResult]:
    lds = LinearSystem([[0.6, 0.2], [0.0, 0.5]], [[1.0, 0.0], [0.3, 1.0]])
    return [
        check_window_loss(lds, "window loss gradients (linear)"),
        check_window_loss(PendulumSystem(), "window loss gradients (pendulum)"),
        check_gpc_gradient(),
        check_rnn_gradient("elman"),
        check_rnn_gradient("lstm"),
        check_comparator_gradient(),
    ]
