"""Weak learners, plus the zero and LQR baselines.

Every controller maps an observation (state + recent disturbance window)
to an action inside its action_ball. The learners (GPC and the recurrent
family) then take receive_loss(loss, w_history): a losses.ResidualLoss
over the window of their last H actions (coefficient 0 under dynaboost1),
plus the (2H-1, k) disturbance history w_{t-2H+1}..w_{t-1}, which
contains the window that generated each of those actions. They
differentiate the loss's slot_gradients through their own action map,
treating all H window actions as produced by the current parameters.

Each family's gradient and step are written once, over a leading level
axis: GpcLevels and RecurrentLevels hold L learners' parameters in one
array and step all L levels at once. The boosted stack joins its N
learners into one (join_levels); a lone learner's receive_loss is the
same step at L = 1.

ZeroController and LqrController are fixed policies that the runner plays
directly: each has a name and a no-op update(window_loss, w_history).
"""

from __future__ import annotations

import copy
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
        """(H, d, k) gradient of the residual loss in M: GpcLevels at L = 1."""
        return next(GpcLevels([self], self.M[None]).level_gradients(loss, w_history))

    def receive_loss(self, loss, w_history) -> None:
        GpcLevels([self], self.M[None]).step(loss, w_history)


class GpcLevels:
    """L GPC learners' M as one (L, H, d, k) stack, and their one gradient and step.

    The replay, projection and chain rule of all L levels run batched; each
    level's (H, d, k) gradient then steps its row of M in place. The
    boosted stack joins its levels once: each learner's M becomes a view
    of its row, so its act sees every step. A lone learner steps as
    the stack of its own M at L = 1. The loss holds one residual per level
    along a leading axis; a lone (H, d) residual broadcasts to L = 1. The
    learners share H and the action ball; each keeps its own step
    schedule, R_M and update count.
    """

    def __init__(self, learners: list, M: Array):
        self.learners = learners
        self.M = M
        # One level's gradient at a time: at d = k = 100 a whole
        # (L, H, d, k) gradient would add L - 1 levels' worth of memory.
        self._gradient = np.empty(M.shape[1:])

    @classmethod
    def join(cls, learners: list) -> "GpcLevels":
        _check_shared(learners)
        M = np.zeros((len(learners), *learners[0].M.shape))
        for c, row in zip(learners, M):
            # A fresh learner's M is zero pages never touched; copying them
            # would fault the whole stack in before the first step.
            if c.M.any():
                row[...] = c.M
            c.M = row
        return cls(learners, M)

    def level_gradients(self, loss, w_history, out: Array | None = None):
        """Yields each level's (H, d, k) gradient of its residual in its M, in level order.

        All H window slots of all L levels are replayed at once with the
        current M, before the first level is yielded; the loss gradients at
        the played (projected) actions are chained back through the ball
        projection, so the parameter gradient is exact for the actions the
        window loss sees. With out, every level's gradient is written into
        that one buffer.
        """
        first = self.learners[0]
        rev = _slot_windows(w_history, first.H)[:, ::-1, :]
        # rev[j, m] = disturbance m+1 steps before slot j's action
        # raws[l, j] = sum_m M[l, m] rev[j, m], as batched matmuls over m.
        raws = (self.M @ rev.transpose(1, 2, 0)).sum(axis=1).swapaxes(-1, -2)
        actions, norms = project_slots(raws, first.action_ball)
        g = project_slots_vjp(raws, norms, loss.slot_gradients(actions), first.action_ball)
        rev_t = rev.transpose(1, 0, 2)
        for g_level in g:
            # G[m] = sum_j g_j rev[j, m]': one batched matmul over m.
            yield np.matmul(g_level.T, rev_t, out=out)

    def step(self, loss, w_history) -> None:
        gradients = self.level_gradients(loss, w_history, out=self._gradient)
        for c, M, G in zip(self.learners, self.M, gradients):
            c._t += 1
            base = c.default_lr if c.lr is None else c.lr
            G *= base if c.lr_schedule == "constant" else base / math.sqrt(c._t)
            M -= G
            flat = M.ravel()
            n = math.sqrt(flat.dot(flat))
            if n > c.R_M:
                M *= c.R_M / n


def _check_shared(learners: list) -> None:
    if len({(c.H, c.action_ball) for c in learners}) != 1:
        raise ValueError("stacked levels must share the memory length and the action ball")


class ElmanCell:
    """h_s = tanh(W_h h_{s-1} + W_x w_s + b_h), h_0 = 0.

    forward and backward (LstmCell's too) read the weights as
    (..., rows, cols) stacks: the same code runs one learner's weights and
    a level stack's (L, ...) views.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: RngStream):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weights = {
            "W_x": rng.standard_normal((hidden_dim, input_dim)) / math.sqrt(input_dim),
            "W_h": rng.standard_normal((hidden_dim, hidden_dim)) / math.sqrt(hidden_dim),
            "b_h": np.zeros(hidden_dim),
        }

    def forward(self, windows: Array) -> tuple[Array, list]:
        """windows: (S, n, k) batch of sequences -> final hidden (..., S, h) + cache."""
        W_h = self.weights["W_h"]
        W_hT, W_xT = W_h.swapaxes(-1, -2), self.weights["W_x"].swapaxes(-1, -2)
        b_h = self.weights["b_h"][..., None, :]
        h = np.zeros((*W_h.shape[:-2], windows.shape[0], self.hidden_dim))
        cache = [h]
        for s in range(windows.shape[1]):
            h = np.tanh(h @ W_hT + windows[:, s, :] @ W_xT + b_h)
            cache.append(h)
        return h, [windows, cache]

    def backward(self, cache, dh: Array, grads: dict[str, Array]) -> None:
        """Adds the gradients into grads, zeroed arrays shaped like the weights."""
        windows, hs = cache
        W_h = self.weights["W_h"]
        for s in range(windows.shape[1], 0, -1):
            da = dh * (1.0 - hs[s] ** 2)
            grads["W_h"] += da.swapaxes(-1, -2) @ hs[s - 1]
            grads["W_x"] += da.swapaxes(-1, -2) @ windows[:, s - 1, :]
            grads["b_h"] += da.sum(axis=-2)
            dh = da @ W_h


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
        hd = self.hidden_dim
        U = self.weights["U"]
        WT, UT = self.weights["W"].swapaxes(-1, -2), U.swapaxes(-1, -2)
        b = self.weights["b"][..., None, :]
        h = np.zeros((*U.shape[:-2], windows.shape[0], hd))
        c = np.zeros_like(h)
        steps = []
        for s in range(windows.shape[1]):
            z = windows[:, s, :] @ WT + h @ UT + b
            i = _sigmoid(z[..., :hd])
            f = _sigmoid(z[..., hd : 2 * hd])
            g = np.tanh(z[..., 2 * hd : 3 * hd])
            o = _sigmoid(z[..., 3 * hd :])
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            steps.append((h, c, i, f, g, o, tc))
            h = o * tc
            c = c_new
        return h, [windows, steps]

    def backward(self, cache, dh: Array, grads: dict[str, Array]) -> None:
        windows, steps = cache
        U = self.weights["U"]
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
                axis=-1,
            )
            grads["W"] += dz.swapaxes(-1, -2) @ windows[:, s, :]
            grads["U"] += dz.swapaxes(-1, -2) @ h_prev
            grads["b"] += dz.sum(axis=-2)
            dh = dz @ U
            dc = dc * f


def _raw_outputs(cell, out: dict[str, Array], windows: Array) -> tuple[Array, Array, list]:
    """(..., S, d) raw head outputs of an (S, n, k) window batch, the final hidden, the cache."""
    h, cache = cell.forward(windows)
    return h @ out["W_o"].swapaxes(-1, -2) + out["b_o"][..., None, :], h, cache


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

    All parameters live in one flat vector theta, in parameter_vector
    order (the cell's weights, then W_o and b_o); cell.weights and out
    are reshaped views into it, so write them in place. An update with a
    non-finite gradient is skipped with a warning and counted in
    skipped_updates.
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
        head = {"W_o": np.zeros((self.d, hidden_dim)), "b_o": np.zeros(self.d)}
        blocks = {**self.cell.weights, **head}
        self._shapes = {k: v.shape for k, v in blocks.items()}
        self.lr = lr
        self.lr_schedule = lr_schedule
        self.clip_norm = clip_norm
        self.weight_radius = weight_radius
        self._t = 0
        self.skipped_updates = 0
        self._bind(np.concatenate([v.ravel() for v in blocks.values()]))

    def _views(self, theta: Array) -> dict[str, Array]:
        """Named weight views into (..., P) parameters, shaped (..., *block shape)."""
        views, pos = {}, 0
        for name, shape in self._shapes.items():
            size = math.prod(shape)
            views[name] = theta[..., pos : pos + size].reshape(*theta.shape[:-1], *shape)
            pos += size
        return views

    def _bind(self, theta: Array) -> None:
        """Make theta this learner's parameters; its named weights become views into it."""
        self.theta = theta
        views = self._views(theta)
        self.cell.weights = {k: views[k] for k in self.cell.weights}
        self.out = {"W_o": views["W_o"], "b_o": views["b_o"]}
        self._own = RecurrentLevels([self], theta[None])

    def parameter_count(self) -> int:
        return self.theta.size

    def _raw_batch(self, windows: Array) -> tuple[Array, Array, list]:
        return _raw_outputs(self.cell, self.out, windows)

    def act(self, obs: Observation) -> Array:
        raw, _, _ = self._raw_batch(obs.disturbances[None])
        return project_to_ball(raw[0], self.action_ball)

    def loss_gradients(self, loss, w_history) -> Array:
        """Unclipped flat gradient of the residual loss at the current weights.

        In parameter_vector order; RecurrentLevels.gradients at L = 1.
        """
        return self._own.gradients(loss, w_history)[0]

    def receive_loss(self, loss, w_history) -> None:
        self._own.step(loss, w_history)

    # Flat views used by finite-difference verification.

    def parameter_vector(self) -> Array:
        return self.theta.copy()

    def set_parameter_vector(self, vec: Array) -> None:
        self.theta[...] = as_vector(vec, self.theta.size)


class RecurrentLevels:
    """L recurrent learners' parameters as one (L, P) stack theta, and their one step.

    Joined as GpcLevels is: each learner's theta becomes a view of its row,
    and a lone learner steps as the stack of its own theta at L = 1. The
    learners share H, the action ball and the net's shape; each keeps its
    own lr, schedule, clip norm, weight radius and counts.
    """

    def __init__(self, learners: list, theta: Array):
        first = learners[0]
        self.learners = learners
        self.theta = theta
        views = first._views(theta)
        self.cell = copy.copy(first.cell)  # the same cell math over the stack's views
        self.cell.weights = {k: views[k] for k in first.cell.weights}
        self.out = {"W_o": views["W_o"], "b_o": views["b_o"]}

    @classmethod
    def join(cls, learners: list) -> "RecurrentLevels":
        _check_shared(learners)
        theta = np.stack([c.theta for c in learners])
        for c, row in zip(learners, theta):
            c._bind(row)
        return cls(learners, theta)

    def gradients(self, loss, w_history) -> Array:
        """(L, P) unclipped gradients of each level's residual, rows in parameter_vector order.

        The per-slot loss gradients are taken at the played (projected)
        actions and backpropagated through the raw forward pass. Chaining
        through the ball projection instead would zero the gradient of any
        saturated slot when the action is scalar (the projection has no
        tangent directions in 1-d), permanently freezing a learner that a
        persistent disturbance once pushed past the rim; training on the raw
        outputs keeps such a learner recoverable when the residual flips.
        """
        first = self.learners[0]
        windows = _slot_windows(w_history, first.H)
        raws, h, cache = _raw_outputs(self.cell, self.out, windows)
        actions, _ = project_slots(raws, first.action_ball)
        g = loss.slot_gradients(actions)
        G = np.zeros_like(self.theta)
        grads = first._views(G)
        grads["W_o"][...] = g.swapaxes(-1, -2) @ h
        grads["b_o"][...] = g.sum(axis=-2)
        self.cell.backward(cache, g @ self.out["W_o"], grads)
        return G

    def step(self, loss, w_history) -> None:
        """Clipped SGD on every level with a finite gradient, then the weight-ball projection.

        A level whose gradient has a non-finite entry keeps its parameters
        and update count; the others step.
        """
        G = self.gradients(loss, w_history)
        finite = np.isfinite(G).all(axis=1)
        steps = np.zeros(len(G))
        for i, (c, g) in enumerate(zip(self.learners, G)):
            if not finite[i]:
                warnings.warn("skipping recurrent update: non-finite gradient", stacklevel=3)
                c.skipped_updates += 1
                g[...] = 0.0  # a zero step leaves the row bit for bit
                continue
            c._t += 1
            norm = math.sqrt(g.dot(g))
            scale = 1.0 if norm <= c.clip_norm else c.clip_norm / norm
            step = c.lr if c.lr_schedule == "constant" else c.lr / math.sqrt(c._t)
            steps[i] = step * scale
        G *= steps[:, None]
        self.theta -= G
        for c, theta, stepped in zip(self.learners, self.theta, finite):
            if not stepped:
                continue
            norm = math.sqrt(theta.dot(theta))
            if norm > c.weight_radius:
                theta *= c.weight_radius / norm


def join_levels(learners: list):
    """GpcLevels or RecurrentLevels joining learners of one family; None for other learners."""
    families = {type(c) for c in learners}
    if families == {GpcController}:
        return GpcLevels.join(learners)
    if families == {RecurrentController}:
        return RecurrentLevels.join(learners)
    return None


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
