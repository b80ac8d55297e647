"""Stage costs, the truncated-memory window loss, and residual losses.

The window loss evaluates the stage cost at the counterfactual state
reached from zero by replaying the last H-1 actions and disturbances,
so it depends on only the last H actions. Its per-slot gradients are
what the booster hands to weak learners, either raw (linear residual)
or wrapped in a proximal quadratic (quadratic residual).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# as_vector stays importable from this module: perfbench/spans.py counts
# its calls per importing module.
from dynaboost.core import Array, as_matrix, as_vector  # noqa: F401
from dynaboost.dynamics import LinearSystem, rollout


def _check_psd(M: Array, name: str) -> None:
    # Cholesky with a tiny diagonal lift accepts PSD-with-nullspace matrices
    # while still rejecting indefinite ones.
    if not np.allclose(M, M.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    scale = max(1.0, float(np.abs(M).max()))
    try:
        np.linalg.cholesky(M + 1e-10 * scale * np.eye(M.shape[0]))
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive semidefinite") from None


class QuadraticCost:
    """c(x, u) = x'Qx + u'Ru with Q, R symmetric PSD.

    Q and R are validated here; value and the gradients run inside the
    round loop and take length-k and length-d vectors as given.
    """

    def __init__(self, Q, R):
        self.Q = as_matrix(Q)
        self.R = as_matrix(R)
        if self.Q.shape[0] != self.Q.shape[1] or self.R.shape[0] != self.R.shape[1]:
            raise ValueError("Q and R must be square")
        _check_psd(self.Q, "Q")
        _check_psd(self.R, "R")
        self.state_dim = self.Q.shape[0]
        self.action_dim = self.R.shape[0]

    @classmethod
    def identity(cls, state_dim: int, action_dim: int) -> "QuadraticCost":
        return cls(np.eye(state_dim), np.eye(action_dim))

    def value(self, x, u) -> float:
        x = np.asarray(x, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        return float(x @ self.Q @ x + u @ self.R @ u)

    def grad_x(self, x) -> Array:
        return 2.0 * (self.Q @ x)

    def grad_u(self, u) -> Array:
        return 2.0 * (self.R @ u)


@dataclass
class ProxyLoss:
    """Window loss of the last H actions at one round.

    Holds the system, the stage cost, and the H-1 disturbances that pair
    with the first H-1 window actions. value() replays those pairs from
    the zero state and charges the stage cost at the resulting state with
    the final window action as the control.

    On a LinearSystem the replay is affine in the actions: the state is
    c + Phi u with the system's cached window operators and c = Psi w
    computed once here, so every gradients() call is two products.
    Other systems replay the window with dynamics.rollout.
    """

    system: object
    cost: QuadraticCost
    horizon: int
    disturbances: Array  # (H-1, k), oldest first

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("memory length must be >= 1")
        w = np.asarray(self.disturbances, dtype=np.float64)
        if self.horizon == 1:
            w = w.reshape(0, self.system.state_dim)
        w = np.atleast_2d(w)
        if w.shape != (self.horizon - 1, self.system.state_dim):
            raise ValueError(
                f"need {self.horizon - 1} disturbances of dim {self.system.state_dim}, "
                f"got shape {w.shape}"
            )
        self.disturbances = w
        self._markov = None
        if isinstance(self.system, LinearSystem):
            self._markov, psi = self.system.window_operators(self.horizon)
            self._free = psi @ w.ravel()

    def _window(self, actions) -> Array:
        U = np.asarray(actions, dtype=np.float64)
        if U.ndim != 2:
            U = np.atleast_2d(U)
        if U.shape != (self.horizon, self.system.action_dim):
            raise ValueError(
                f"need {self.horizon} actions of dim {self.system.action_dim}, got {U.shape}"
            )
        return U

    def truncated_state(self, actions) -> Array:
        U = self._window(actions)
        if self._markov is not None:
            return self._free + self._markov @ U[:-1].ravel()
        return rollout(self.system, 0.0, U[:-1], self.disturbances)[-1]

    def value(self, actions) -> float:
        U = self._window(actions)
        return self.cost.value(self.truncated_state(U), U[-1])

    def gradients(self, actions) -> Array:
        """(H, d) array of per-slot gradients.

        Slot j < H-1 only influences the replayed state; the final slot
        only enters the control cost. On a LinearSystem slot j's gradient
        is Phi_j' grad_x; otherwise the states of one rollout are chained
        back through the Jacobians at each step.
        """
        U = self._window(actions)
        H = self.horizon
        grads = np.empty((H, self.system.action_dim))
        grads[H - 1] = self.cost.grad_u(U[-1])
        if self._markov is not None:
            v = self.cost.grad_x(self._free + self._markov @ U[:-1].ravel())
            grads[: H - 1] = (v @ self._markov).reshape(H - 1, self.system.action_dim)
            return grads
        X = rollout(self.system, 0.0, U[:-1], self.disturbances)
        v = self.cost.grad_x(X[-1])
        for j in range(H - 2, -1, -1):
            Jx, Ju = self.system.jacobians(X[j], U[j])
            grads[j] = Ju.T @ v
            v = Jx.T @ v
        return grads


@dataclass
class LinearResidualLoss:
    """l(u_1..u_H) = sum_j g_j'u_j with g_j the window-loss gradients."""

    gradients: Array  # (H, d)

    def __post_init__(self):
        g = np.atleast_2d(np.asarray(self.gradients, dtype=np.float64))
        if not np.all(np.isfinite(g)):
            raise ValueError("residual gradients must be finite")
        self.gradients = g

    def _check(self, actions) -> Array:
        U = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        if U.shape != self.gradients.shape:
            raise ValueError(f"expected action window {self.gradients.shape}, got {U.shape}")
        return U

    def value(self, actions) -> float:
        return float(np.sum(self.gradients * self._check(actions)))

    def slot_gradients(self, actions) -> Array:
        self._check(actions)
        return self.gradients.copy()


@dataclass
class QuadraticResidualLoss:
    """Proximal residual: sum_j c||u_j - a_j||^2 + g_j'(u_j - a_j).

    Anchors a_j are the previous boosting level's window; the coefficient
    c is half the step-length-scaled smoothness constant, so the loss is
    2c-strongly convex in the whole window.
    """

    gradients: Array  # (H, d)
    anchors: Array  # (H, d)
    coefficient: float

    def __post_init__(self):
        g = np.atleast_2d(np.asarray(self.gradients, dtype=np.float64))
        a = np.atleast_2d(np.asarray(self.anchors, dtype=np.float64))
        if g.shape != a.shape:
            raise ValueError(f"gradient/anchor shape mismatch: {g.shape} vs {a.shape}")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(a))):
            raise ValueError("residual gradients and anchors must be finite")
        if not self.coefficient > 0:
            raise ValueError(f"curvature coefficient must be positive, got {self.coefficient}")
        self.gradients = g
        self.anchors = a

    def _check(self, actions) -> Array:
        U = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        if U.shape != self.gradients.shape:
            raise ValueError(f"expected action window {self.gradients.shape}, got {U.shape}")
        return U

    def value(self, actions) -> float:
        D = self._check(actions) - self.anchors
        return float(self.coefficient * np.sum(D * D) + np.sum(self.gradients * D))

    def slot_gradients(self, actions) -> Array:
        D = self._check(actions) - self.anchors
        return 2.0 * self.coefficient * D + self.gradients


@dataclass(frozen=True)
class CurvatureBounds:
    """Loss-class constants used by the booster and its analysis.

    alpha lower-bounds the curvature of the window loss along the current
    action (through R); beta upper-bounds the largest Hessian eigenvalue
    over the whole window.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not 0 < self.alpha <= self.beta:
            raise ValueError(f"need 0 < alpha <= beta, got {self.alpha}, {self.beta}")


def derive_curvature_bounds(A: Array, B: Array, cost: QuadraticCost, H: int) -> CurvatureBounds:
    """Conservative (alpha, beta) for x' = Ax + Bu + w and a quadratic cost.

    With S = sum_{j<H} ||A^j B||_2, the window Hessian splits into 2R on
    the final slot plus 2 J'QJ with ||J||_2 <= S, giving
    beta = 2 (lmax(R) + lmax(Q) S^2).
    """
    if H < 1:
        raise ValueError("memory length must be >= 1")
    q_eigs = np.linalg.eigvalsh(cost.Q)
    r_eigs = np.linalg.eigvalsh(cost.R)
    alpha = float(r_eigs[0])
    if alpha <= 0:
        raise ValueError("R must be positive definite to certify strong convexity")
    S = 0.0
    P = np.eye(A.shape[0])
    for _ in range(H):
        S += float(np.linalg.norm(P @ B, 2))
        P = A @ P
    beta = 2.0 * (float(r_eigs[-1]) + float(q_eigs[-1]) * S**2)
    return CurvatureBounds(alpha=alpha, beta=beta)
