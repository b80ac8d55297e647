"""Counterfactual comparator: replay and optimize fixed disturbance-feedback policies.

A fixed policy u_t = sum_i M^i w_{t-i} replayed on a recorded disturbance
sequence gives the hindsight cost the online algorithms are measured
against. The total cost is a convex quadratic in M, minimized in closed
form when the unconstrained optimum fits in the Frobenius ball and by
projected gradient descent otherwise.
"""

from __future__ import annotations

import numpy as np

from dynaboost.core import Array
from dynaboost.dynamics import rollout


def _as_w_seq(w_seq, k: int) -> Array:
    W = np.atleast_2d(np.asarray(w_seq, dtype=np.float64))
    if W.shape[1] != k:
        raise ValueError(f"disturbance rows must have dim {k}, got {W.shape[1]}")
    return W


def _fixed_actions(W: Array, M: Array) -> Array:
    """Actions of the fixed policy: u_t = sum_{i=1..H} M^i w_{t-i}, w_{<0} = 0."""
    T, k = W.shape
    H, d = M.shape[0], M.shape[1]
    U = np.zeros((T, d))
    for i in range(1, H + 1):
        # M[i-1] multiplies w_{t-i}: rows i..T-1 see W[0..T-1-i]
        if T > i:
            U[i:] += W[: T - i] @ M[i - 1].T
    return U


def replay_fixed_gpc(w_seq, M, system, cost, H: int) -> tuple[Array, Array, Array]:
    """Replay the fixed policy from x_0 = 0; returns (states, actions, costs)."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 3 or M.shape[0] != H:
        raise ValueError(f"M must have shape (H={H}, d, k), got {M.shape}")
    W = _as_w_seq(w_seq, system.state_dim)
    U = _fixed_actions(W, M)
    X = rollout(system, 0.0, U, W)
    costs = np.array([cost.value(x, u) for x, u in zip(X, U)])
    return X, U, costs


def evaluate_fixed_gpc(w_seq, M, system, cost, H: int) -> float:
    """Total replay cost sum_t c(x_t, u_t) of the fixed policy."""
    return float(np.sum(replay_fixed_gpc(w_seq, M, system, cost, H)[2]))


def fixed_gpc_gradient(w_seq, M, system, cost, H: int) -> Array:
    """Exact gradient of the total replay cost in M, by the adjoint recursion."""
    M = np.asarray(M, dtype=np.float64)
    W = _as_w_seq(w_seq, system.state_dim)
    T = W.shape[0]
    X, U, _ = replay_fixed_gpc(W, M, system, cost, H)
    A, B = system.A, system.B
    G = np.zeros_like(M)
    lam = np.zeros(system.state_dim)  # dJ/dx_{t+1}, zero beyond the horizon
    for t in range(T - 1, -1, -1):
        du = cost.grad_u(U[t]) + B.T @ lam
        for i in range(1, H + 1):
            if t - i >= 0:
                G[i - 1] += np.outer(du, W[t - i])
        lam = cost.grad_x(X[t]) + A.T @ lam
    return G


def best_fixed_gpc(
    w_seq,
    system,
    cost,
    H: int,
    R_M: float = 10.0,
    method: str = "auto",
    tol: float = 1e-8,
    max_iter: int = 20_000,
) -> tuple[Array, float]:
    """Minimize the replay cost over ||M||_F <= R_M; returns (M*, cost*).

    method 'auto' solves the normal equations and falls back to projected
    gradient descent only when the unconstrained optimum leaves the ball;
    'pgd' forces the iterative path. Intended for small instances.
    """
    if method not in ("auto", "pgd"):
        raise ValueError(f"unknown method {method!r}")
    W = _as_w_seq(w_seq, system.state_dim)
    k = system.state_dim
    d = system.action_dim
    shape = (H, d, k)
    p = H * d * k

    def grad(vec: Array) -> Array:
        return fixed_gpc_gradient(W, vec.reshape(shape), system, cost, H).ravel()

    g0 = grad(np.zeros(p))
    # The cost is quadratic in M, so Hessian columns come from gradient differences.
    Hess = np.empty((p, p))
    for i in range(p):
        e = np.zeros(p)
        e[i] = 1.0
        Hess[:, i] = grad(e) - g0
    Hess = 0.5 * (Hess + Hess.T)

    if method == "auto":
        m_star, *_ = np.linalg.lstsq(Hess, -g0, rcond=None)
        if float(np.linalg.norm(m_star)) <= R_M:
            M_star = m_star.reshape(shape)
            return M_star, evaluate_fixed_gpc(W, M_star, system, cost, H)

    L = float(np.linalg.eigvalsh(Hess)[-1])
    if L <= 0:
        # Degenerate stream (e.g. all-zero w): any feasible point is optimal.
        M_star = np.zeros(shape)
        return M_star, evaluate_fixed_gpc(W, M_star, system, cost, H)
    step = 1.0 / L

    def project(vec: Array) -> Array:
        n = float(np.linalg.norm(vec))
        return vec if n <= R_M else vec * (R_M / n)

    m = project(-g0 * step)
    for _ in range(max_iter):
        m_next = project(m - step * grad(m))
        if float(np.linalg.norm(m_next - m)) <= tol * step:
            M_star = m_next.reshape(shape)
            return M_star, evaluate_fixed_gpc(W, M_star, system, cost, H)
        m = m_next
    raise RuntimeError(
        f"projected gradient descent did not reach tolerance {tol} within {max_iter} iterations"
    )
