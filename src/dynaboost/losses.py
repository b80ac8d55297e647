"""Stage costs, the truncated-memory window loss, and residual losses.

The window loss evaluates the stage cost at the counterfactual state
reached from zero by replaying the last H-1 actions and disturbances,
so it depends on only the last H actions. Its per-slot gradients are
what the booster hands to weak learners inside one ResidualLoss: linear
in the window (coefficient 0, dynaboost1) or a proximal quadratic around
the previous level's window (dynaboost2).
"""

from __future__ import annotations

import math
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
    round loop and take length-k and length-d vectors (a lone value is a
    float) or (..., k) and (..., d) stacks, as given: each row takes the
    products of a lone call, with its bits.
    """

    def __init__(self, Q, R):
        self.Q = as_matrix(Q)
        self.R = as_matrix(R)
        if self.Q.shape[0] != self.Q.shape[1] or self.R.shape[0] != self.R.shape[1]:
            raise ValueError("Q and R must be square")
        _check_psd(self.Q, "Q")
        _check_psd(self.R, "R")

    @classmethod
    def identity(cls, state_dim: int, action_dim: int) -> "QuadraticCost":
        return cls(np.eye(state_dim), np.eye(action_dim))

    def value(self, x, u) -> float | Array:
        x, u = np.asarray(x)[..., None, :], np.asarray(u)[..., None, :]
        c = ((x @ self.Q) @ x.swapaxes(-1, -2) + (u @ self.R) @ u.swapaxes(-1, -2))[..., 0, 0]
        return c if c.ndim else float(c)

    def grad_x(self, x) -> Array:
        return 2.0 * (self.Q @ np.asarray(x)[..., None])[..., 0]

    def grad_u(self, u) -> Array:
        return 2.0 * (self.R @ np.asarray(u)[..., None])[..., 0]


@dataclass
class ProxyLoss:
    """Window loss of the last H actions at one round.

    Holds the system, the stage cost, and the H-1 disturbances that pair
    with the first H-1 window actions. value() replays those pairs from
    the zero state with dynamics.rollout and charges the stage cost at the
    resulting state with the final window action as the control. It never
    runs in the round loop, so it stays the plain replay that the gradient
    check holds gradients() against.

    On a LinearSystem the replay is affine in the actions: gradients() uses
    the state c + Phi u with the system's cached window operators and
    c = Psi w computed once here, two products for any number of windows.
    On the pendulum, gradients() takes the end states and step Jacobians
    of every window from one PendulumSystem.window_jacobians call. A
    ProxyLoss is built once per round, so it takes the (H-1, k) float64
    disturbances, whose row count fixes H, and the (H, d) action window,
    or (..., H, d) stack of windows, as given.
    """

    system: object
    cost: QuadraticCost
    disturbances: Array  # (H-1, k), oldest first

    def __post_init__(self):
        self._markov = None
        if isinstance(self.system, LinearSystem):
            self._markov, psi = self.system.window_operators(len(self.disturbances) + 1)
            self._free = psi @ self.disturbances.ravel()

    def value(self, U: Array) -> float:
        x = rollout(self.system, 0.0, U[:-1], self.disturbances)[-1]
        return self.cost.value(x, U[-1])

    def gradients(self, U: Array) -> Array:
        """(..., H, d) per-slot gradients of an (..., H, d) stack of windows.

        Slot j < H-1 only influences the replayed state; the final slot
        only enters the control cost. On a LinearSystem slot j's gradient
        is Phi_j' grad_x. On the pendulum grad_x is chained back through
        the step Jacobians of all windows at once, one stacked product per
        step. Either way every window of the stack goes through the same
        stacked matrix-vector products, so each row has the bits of a lone
        (H, d) call.
        """
        H, d = U.shape[-2:]
        grads = np.empty(U.shape)
        grads[..., H - 1, :] = self.cost.grad_u(U[..., H - 1, :])
        if self._markov is None:
            ends, J = self.system.window_jacobians(U.reshape(-1, H, d)[:, :-1], self.disturbances)
            rows = grads.reshape(-1, H, d)
            # Jx' and Ju' as transposed views: each product then has the
            # bits of a lone Jx.T @ v.
            Jt = J.swapaxes(-1, -2)
            v = self.cost.grad_x(ends)[..., None]
            for j in range(H - 2, -1, -1):
                rows[:, j] = (Jt[:, j, 2:] @ v)[..., 0]
                v = Jt[:, j, :2] @ v
            return grads
        lead = U.shape[:-2]
        # Explicit sizes: at H = 1 the past and Phi have zero columns.
        past = U[..., : H - 1, :].reshape(*lead, (H - 1) * d)
        v = self.cost.grad_x(self._free + (self._markov @ past[..., None])[..., 0])
        rows = (v[..., None, :] @ self._markov)[..., 0, :]
        grads[..., : H - 1, :] = rows.reshape(*lead, H - 1, d)
        return grads


@dataclass
class ResidualLoss:
    """Residual sum_j c||u_j - a_j||^2 + g_j'(u_j - a_j) over an (H, d) window.

    The g_j are the window-loss gradients at the anchors a_j, the previous
    boosting level's window. With c = 0 (dynaboost1) this is the linear
    residual sum_j g_j'u_j up to a constant; with c > 0 (dynaboost2, c half
    the step-length-scaled smoothness constant) it is the proximal residual,
    2c-strongly convex in the whole window. The booster stacks its N
    levels' residuals along a leading axis: (N, H, d) gradients and
    anchors, and an (N, 1, 1) coefficient array. Built once per round, so
    nothing is checked or coerced.
    """

    gradients: Array  # (H, d), or (N, H, d) for a level stack
    anchors: Array  # like gradients
    coefficient: float | Array = 0.0

    def value(self, actions: Array) -> float:
        """The residual of one level: (H, d) fields and a float coefficient."""
        D = actions - self.anchors
        return float(self.coefficient * np.sum(D * D) + np.sum(self.gradients * D))

    def slot_gradients(self, actions: Array) -> Array:
        return 2.0 * self.coefficient * (actions - self.anchors) + self.gradients


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
        # A NaN fails this as well.
        if not 0 < self.alpha <= self.beta < math.inf:
            raise ValueError(f"need 0 < alpha <= beta < inf, got {self.alpha}, {self.beta}")


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
