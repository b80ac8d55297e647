"""Counterfactual comparator: replay and optimize fixed disturbance-feedback policies.

A fixed policy u_t = sum_i M^i w_{t-i} replayed on a recorded disturbance
sequence gives the hindsight cost the online algorithms are measured
against. On a LinearSystem that total cost is a convex quadratic in M;
fixed_gpc_quadratic builds it exactly in one forward pass, and
best_fixed_gpc minimizes it in closed form when the unconstrained optimum
fits in the Frobenius ball and by projected gradient descent otherwise.
The replay functions are the independent reference the quadratic is
checked against.
"""

from __future__ import annotations

import numpy as np

from dynaboost.core import Array, BallSet, project_to_ball
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


def fixed_gpc_quadratic(w_seq, system, cost, H: int) -> tuple[Array, Array, float]:
    """(P, q, c0) with total replay cost m'Pm + 2q'm + c0 at m = M.ravel().

    On a LinearSystem from x_0 = 0 the actions are linear in m (u_t = Z_t m)
    and the states affine (x_t = F_t m + c_t), so one forward pass over
    F_t and c_t gives the stage costs x'Qx + u'Ru summed exactly.
    """
    W = _as_w_seq(w_seq, system.state_dim)
    T, k = W.shape
    d = system.action_dim
    p = H * d * k
    lagged = np.zeros((T, H, k))  # lagged[t, i] = w_{t-1-i}, zero before w_0
    for i in range(min(H, T - 1)):
        lagged[i + 1 :, i] = W[: T - 1 - i]
    # Row a of Z_t reads block M[i, a] against w_{t-1-i}.
    Z = np.einsum("ac,tib->taicb", np.eye(d), lagged).reshape(T, d, p)
    F = np.zeros((T, k, p))
    c = np.zeros((T, k))
    for t in range(T - 1):
        F[t + 1] = system.A @ F[t] + system.B @ Z[t]
        c[t + 1] = system.A @ c[t] + W[t]
    QF = cost.Q @ F
    P = np.einsum("tkp,tkq->pq", F, QF) + np.einsum("tdp,tdq->pq", Z, cost.R @ Z)
    q = np.einsum("tkp,tk->p", QF, c)
    return P, q, float(np.einsum("tk,tk->", c, c @ cost.Q))


# Projected descent stops once a step moves m by at most PGD_TOL step lengths.
PGD_TOL = 1e-8
PGD_MAX_ITER = 20_000


def best_fixed_gpc(w_seq, system, cost, H: int, R_M: float = 10.0) -> tuple[Array, float]:
    """Minimize the replay cost over ||M||_F <= R_M; returns (M*, cost*).

    Solves the normal equations of the exact quadratic, and runs projected
    gradient descent on it only when that optimum leaves the ball.
    Intended for small instances.
    """
    W = _as_w_seq(w_seq, system.state_dim)
    P, q, _ = fixed_gpc_quadratic(W, system, cost, H)
    m, *_ = np.linalg.lstsq(P, -q, rcond=None)
    if float(np.linalg.norm(m)) > R_M:
        ball = BallSet(R_M, q.size)
        step = 0.5 / float(np.linalg.eigvalsh(P)[-1])
        m = np.zeros_like(q)
        for _ in range(PGD_MAX_ITER):
            m, prev = project_to_ball(m - step * 2.0 * (P @ m + q), ball), m
            if float(np.linalg.norm(m - prev)) <= PGD_TOL * step:
                break
        else:
            raise RuntimeError(
                f"projected gradient descent did not reach tolerance {PGD_TOL} "
                f"within {PGD_MAX_ITER} iterations"
            )
    M_star = m.reshape(H, system.action_dim, system.state_dim)
    return M_star, evaluate_fixed_gpc(W, M_star, system, cost, H)
