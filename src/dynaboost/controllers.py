"""Weak learners, plus the zero and LQR baselines.

Every controller maps an observation (state + recent disturbance window)
to an action inside its action_ball. The learners (GPC and the recurrent
family) then take receive_loss(loss, w_history): a losses.ResidualLoss
over the window of their last H actions (coefficient 0 under dynaboost1),
plus the (2H-1, k) disturbance history w_{t-2H+1}..w_{t-1}, which
contains the window that generated each of those actions. They
differentiate the loss's slot_gradients through their own action map,
treating all H window actions as produced by the current parameters.

ZeroController and LqrController are fixed policies that the runner plays
directly: each has a name and a no-op update(window_loss, w_history).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from dynaboost.core import (
    Array,
    BallSet,
    RngStream,
    as_matrix,
    as_vector,
    project_slots,
    project_slots_vjp,
    project_to_ball,
)


@dataclass
class Observation:
    """What a controller sees at round t.

    state is the (k,) float64 state; disturbances is the (H, k) float64
    window w_{t-H}..w_{t-1}, oldest first and zero-padded at the start of a
    run. Both are taken as given: the runner builds them from validated
    arrays, so nothing is coerced or checked per round.
    """

    state: Array
    disturbances: Array


class ZeroController:
    """Always outputs the zero action; ignores losses."""

    name = "zero"

    def __init__(self, action_ball: BallSet):
        self.action_ball = action_ball

    def act(self, obs: Observation) -> Array:
        return np.zeros(self.action_ball.dim)

    def update(self, window_loss, w_history) -> None:
        pass


def _slot_windows(w_history: Array, H: int) -> Array:
    """(H, H, k) stack where entry j is the window behind action slot j.

    w_history, the runner's (2H-1, k) array, holds w_{t-2H+1}..w_{t-1}
    oldest first; slot j's action at time t-H+1+j was driven by rows
    j..j+H-1.
    """
    return w_history[_slot_rows(H)]


@functools.lru_cache(maxsize=None)
def _slot_rows(H: int) -> Array:
    """(H, H) row indices into the disturbance history: entry (j, i) is j + i."""
    rows = np.arange(H)[:, None] + np.arange(H)[None, :]
    rows.flags.writeable = False
    return rows


class GpcController:
    """Action = sum_i M^i w_{t-i}, with M learned by projected OGD.

    The GPC policy class of Agarwal et al. (ICML 2019) without state
    feedback, which needs a stable system. The stacked M parameter lives in
    a Frobenius ball of radius R_M. The step is base/sqrt(t) (or a constant
    base); lr=None selects the default base. Boosted ensembles need one
    shared deterministic schedule across their learners: per-learner
    adaptive scaling feeds the late levels' small residual gradients back
    as outsized steps and destabilizes the whole stack.
    """

    default_lr = 0.3

    def __init__(
        self,
        state_dim: int,
        H: int,
        action_ball: BallSet,
        R_M: float = 10.0,
        lr: float | None = None,
        lr_schedule: str = "sqrt",
    ):
        if H < 1:
            raise ValueError("memory length must be >= 1")
        if R_M <= 0:
            raise ValueError("R_M must be positive")
        if lr_schedule not in ("sqrt", "constant"):
            raise ValueError(f"unknown lr_schedule {lr_schedule!r}")
        self.k = state_dim
        self.H = H
        self.action_ball = action_ball
        self.d = action_ball.dim
        # M[m] multiplies w_{t-1-m}: index 0 is the most recent disturbance.
        self.M = np.zeros((H, self.d, self.k))
        self.R_M = R_M
        self.lr = lr
        self.lr_schedule = lr_schedule
        self._t = 0

    def act(self, obs: Observation) -> Array:
        # M[m] pairs with the (m+1)-th most recent disturbance.
        raw = np.einsum("mdk,mk->d", self.M, obs.disturbances[::-1])
        return project_to_ball(raw, self.action_ball)

    def loss_gradients(self, loss, w_history) -> Array:
        """(H, d, k) gradient of the residual loss in M at the current parameters.

        All H window slots are replayed at once with the current M; the loss
        gradients at the played (projected) actions are chained back through
        the ball projection, so the parameter gradient is exact for the
        actions the window loss sees.
        """
        rev = _slot_windows(w_history, self.H)[:, ::-1, :]
        # rev[j, m] = disturbance m+1 steps before slot j's action
        # raws[j] = sum_m M[m] rev[j, m], as batched matmuls over m.
        raws = (self.M @ rev.transpose(1, 2, 0)).sum(axis=0).T
        actions, norms = project_slots(raws, self.action_ball)
        g = project_slots_vjp(raws, norms, loss.slot_gradients(actions), self.action_ball)
        # G[m] = sum_j g_j rev[j, m]': one batched matmul over m.
        return g.T @ rev.transpose(1, 0, 2)

    def receive_loss(self, loss, w_history) -> None:
        G = self.loss_gradients(loss, w_history)
        self._t += 1
        base = self.default_lr if self.lr is None else self.lr
        step = base if self.lr_schedule == "constant" else base / math.sqrt(self._t)
        # M - step * G, written into G's buffer: at d = k = 100 fresh
        # (H, d, k) temporaries cost more than the arithmetic.
        G *= step
        self.M = self._project_frobenius(np.subtract(self.M, G, out=G))

    def _project_frobenius(self, M: Array) -> Array:
        flat = M.ravel()
        n = math.sqrt(flat.dot(flat))
        return M if n <= self.R_M else M * (self.R_M / n)


class ElmanCell:
    """h_s = tanh(W_h h_{s-1} + W_x w_s + b_h), h_0 = 0."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: RngStream):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weights = {
            "W_x": rng.standard_normal((hidden_dim, input_dim)) / math.sqrt(input_dim),
            "W_h": rng.standard_normal((hidden_dim, hidden_dim)) / math.sqrt(hidden_dim),
            "b_h": np.zeros(hidden_dim),
        }

    def forward(self, windows: Array) -> tuple[Array, list]:
        """windows: (S, L, k) batch of sequences -> final hidden (S, h) + cache."""
        S = windows.shape[0]
        W_x, W_h, b_h = self.weights["W_x"], self.weights["W_h"], self.weights["b_h"]
        h = np.zeros((S, self.hidden_dim))
        cache = [h]
        for s in range(windows.shape[1]):
            h = np.tanh(h @ W_h.T + windows[:, s, :] @ W_x.T + b_h)
            cache.append(h)
        return h, [windows, cache]

    def backward(self, cache, dh: Array) -> dict[str, Array]:
        windows, hs = cache
        W_h = self.weights["W_h"]
        grads = {k: np.zeros_like(v) for k, v in self.weights.items()}
        for s in range(windows.shape[1], 0, -1):
            da = dh * (1.0 - hs[s] ** 2)
            grads["W_h"] += da.T @ hs[s - 1]
            grads["W_x"] += da.T @ windows[:, s - 1, :]
            grads["b_h"] += da.sum(axis=0)
            dh = da @ W_h
        return grads


def _sigmoid(z: Array) -> Array:
    return 1.0 / (1.0 + np.exp(-z))


class LstmCell:
    """Standard LSTM with forget-gate bias 1; gate order (input, forget, cell, output)."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: RngStream):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        b = np.zeros(4 * hidden_dim)
        b[hidden_dim : 2 * hidden_dim] = 1.0
        self.weights = {
            "W": rng.standard_normal((4 * hidden_dim, input_dim)) / math.sqrt(input_dim),
            "U": rng.standard_normal((4 * hidden_dim, hidden_dim)) / math.sqrt(hidden_dim),
            "b": b,
        }

    def forward(self, windows: Array) -> tuple[Array, list]:
        S = windows.shape[0]
        hd = self.hidden_dim
        W, U, b = self.weights["W"], self.weights["U"], self.weights["b"]
        h = np.zeros((S, hd))
        c = np.zeros((S, hd))
        steps = []
        for s in range(windows.shape[1]):
            z = windows[:, s, :] @ W.T + h @ U.T + b
            i = _sigmoid(z[:, :hd])
            f = _sigmoid(z[:, hd : 2 * hd])
            g = np.tanh(z[:, 2 * hd : 3 * hd])
            o = _sigmoid(z[:, 3 * hd :])
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            steps.append((h, c, i, f, g, o, tc))
            h = o * tc
            c = c_new
        return h, [windows, steps]

    def backward(self, cache, dh: Array) -> dict[str, Array]:
        windows, steps = cache
        hd = self.hidden_dim
        U = self.weights["U"]
        grads = {k: np.zeros_like(v) for k, v in self.weights.items()}
        dc = np.zeros_like(dh)
        for s in range(windows.shape[1] - 1, -1, -1):
            h_prev, c_prev, i, f, g, o, tc = steps[s]
            dc = dc + dh * o * (1.0 - tc**2)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            do = dh * tc
            dz = np.concatenate(
                [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g**2), do * o * (1.0 - o)],
                axis=1,
            )
            grads["W"] += dz.T @ windows[:, s, :]
            grads["U"] += dz.T @ h_prev
            grads["b"] += dz.sum(axis=0)
            dh = dz @ U
            dc = dc * f
        return grads


class RecurrentController:
    """Maps the disturbance window through a small recurrent net to an action.

    The state input is ignored: the policy class is purely
    perturbation-based. Updates backpropagate the residual loss through
    time for each of the H window slots, clip the global gradient norm,
    take a plain SGD step, and project the joint parameter vector back
    onto a norm ball. The ball keeps the policy class compact: linear
    residual losses reward ever-larger actions, and without it a learner
    fed such losses for long stretches drifts to parameter norms it takes
    thousands of opposite-signed steps to walk back.
    """

    def __init__(
        self,
        input_dim: int,
        H: int,
        action_ball: BallSet,
        rng: RngStream,
        hidden_dim: int = 5,
        lr: float = 0.05,
        cell: str = "elman",
        clip_norm: float = 5.0,
        lr_schedule: str = "constant",
        weight_radius: float = 10.0,
    ):
        if H < 1:
            raise ValueError("memory length must be >= 1")
        if lr <= 0 or clip_norm <= 0:
            raise ValueError("lr and clip_norm must be positive")
        if weight_radius <= 0:
            raise ValueError("weight_radius must be positive")
        if lr_schedule not in ("sqrt", "constant"):
            raise ValueError(f"unknown lr_schedule {lr_schedule!r}")
        self.H = H
        self.action_ball = action_ball
        self.d = action_ball.dim
        self.hidden_dim = hidden_dim
        if cell == "elman":
            self.cell = ElmanCell(input_dim, hidden_dim, rng)
        elif cell == "lstm":
            self.cell = LstmCell(input_dim, hidden_dim, rng)
        else:
            raise ValueError(f"unknown cell {cell!r}")
        # Zero output head: the net starts as the zero policy, so a freshly
        # built stack of these adds no action noise before training starts.
        # Head gradients are nonzero from the first update, and the cell
        # starts learning once the head moves off zero.
        self.out = {
            "W_o": np.zeros((self.d, hidden_dim)),
            "b_o": np.zeros(self.d),
        }
        self.lr = lr
        self.lr_schedule = lr_schedule
        self.clip_norm = clip_norm
        self.weight_radius = weight_radius
        self._t = 0

    def parameter_count(self) -> int:
        return sum(v.size for v in self.cell.weights.values()) + sum(
            v.size for v in self.out.values()
        )

    def _raw_batch(self, windows: Array) -> tuple[Array, Array, list]:
        h, cache = self.cell.forward(windows)
        return h @ self.out["W_o"].T + self.out["b_o"], h, cache

    def act(self, obs: Observation) -> Array:
        raw, _, _ = self._raw_batch(obs.disturbances[None])
        return project_to_ball(raw[0], self.action_ball)

    def loss_gradients(self, loss, w_history) -> tuple[dict[str, Array], dict[str, Array]]:
        """Unclipped parameter gradients of the residual loss at current weights.

        The per-slot loss gradients are taken at the played (projected)
        actions and backpropagated through the raw forward pass. Chaining
        through the ball projection instead would zero the gradient of any
        saturated slot when the action is scalar (the projection has no
        tangent directions in 1-d), permanently freezing a learner that a
        persistent disturbance once pushed past the rim; training on the raw
        outputs keeps such a learner recoverable when the residual flips.
        """
        windows = _slot_windows(w_history, self.H)
        raws, h, cache = self._raw_batch(windows)
        actions, _ = project_slots(raws, self.action_ball)
        g = loss.slot_gradients(actions)
        out_grads = {"W_o": g.T @ h, "b_o": g.sum(axis=0)}
        cell_grads = self.cell.backward(cache, g @ self.out["W_o"])
        return cell_grads, out_grads

    def receive_loss(self, loss, w_history) -> None:
        cell_grads, out_grads = self.loss_gradients(loss, w_history)
        flat = np.concatenate(
            [v.ravel() for v in cell_grads.values()] + [v.ravel() for v in out_grads.values()]
        )
        if not np.all(np.isfinite(flat)):
            warnings.warn("skipping recurrent update: non-finite gradient", stacklevel=2)
            return
        self._t += 1
        norm = float(np.linalg.norm(flat))
        scale = 1.0 if norm <= self.clip_norm else self.clip_norm / norm
        step = self.lr if self.lr_schedule == "constant" else self.lr / math.sqrt(self._t)
        for k in self.cell.weights:
            self.cell.weights[k] -= step * scale * cell_grads[k]
        for k in self.out:
            self.out[k] -= step * scale * out_grads[k]
        norm = float(np.linalg.norm(self.parameter_vector()))
        if norm > self.weight_radius:
            shrink = self.weight_radius / norm
            for store in (self.cell.weights, self.out):
                for k in store:
                    store[k] *= shrink

    # Flat views used by finite-difference verification.

    def parameter_vector(self) -> Array:
        return np.concatenate(
            [v.ravel() for v in self.cell.weights.values()]
            + [v.ravel() for v in self.out.values()]
        )

    def set_parameter_vector(self, vec: Array) -> None:
        vec = as_vector(vec)
        pos = 0
        for store in (self.cell.weights, self.out):
            for k, v in store.items():
                store[k] = vec[pos : pos + v.size].reshape(v.shape).copy()
                pos += v.size
        if pos != vec.size:
            raise ValueError(f"parameter vector has {vec.size} entries, expected {pos}")


def solve_dare(
    A, B, Q, R, tol: float = 1e-12, max_iter: int = 100_000
) -> tuple[Array, Array]:
    """Riccati fixed point P = Q + A'PA - A'PB (R + B'PB)^-1 B'PA from P_0 = Q.

    Returns (P, K) with K the optimal feedback gain. Raises if B has no
    control authority or the iteration fails to settle, which for a
    well-posed call indicates a non-stabilizable pair.
    """
    A = as_matrix(A)
    k = A.shape[0]
    B = as_matrix(B, rows=k)
    Q = as_matrix(Q, k, k)
    R = as_matrix(R, B.shape[1], B.shape[1])
    if float(np.linalg.norm(B)) == 0.0:
        raise ValueError("B is zero: no control authority, refusing to solve")
    P = Q.copy()
    for _ in range(max_iter):
        BtP = B.T @ P
        gain = np.linalg.solve(R + BtP @ B, BtP @ A)
        P_next = Q + A.T @ P @ A - A.T @ P @ B @ gain
        P_next = 0.5 * (P_next + P_next.T)
        if float(np.max(np.abs(P_next - P))) <= tol:
            P = P_next
            break
        P = P_next
    else:
        raise RuntimeError(
            "Riccati iteration did not converge; the pair (A, B) is likely not stabilizable"
        )
    BtP = B.T @ P
    K = np.linalg.solve(R + BtP @ B, BtP @ A)
    residual = float(np.max(np.abs(Q + A.T @ P @ A - A.T @ P @ B @ K - P)))
    if residual > 10.0 * tol:
        raise RuntimeError(f"Riccati solution residual {residual:.3e} exceeds {10 * tol:.3e}")
    return P, K


class LqrController:
    """Fixed linear state feedback u = -K x from the Riccati solution."""

    name = "lqr"

    def __init__(self, K: Array, action_ball: BallSet):
        self.action_ball = action_ball
        self.K = as_matrix(K, rows=action_ball.dim)

    def act(self, obs: Observation) -> Array:
        return project_to_ball(-self.K @ obs.state, self.action_ball)

    def update(self, window_loss, w_history) -> None:
        pass
