"""Weak learners, plus the zero and LQR baselines.

Every controller maps an observation (state + recent disturbance window)
to an action inside its action_ball. The learners (GPC and the recurrent
family) then take receive_loss(loss, w_history): a losses.ResidualLoss
over the window of their last H actions (coefficient 0 under dynaboost1),
plus the (2H-1, k) disturbance history w_{t-2H+1}..w_{t-1}, which
contains the window that generated each of those actions. They
differentiate the loss's slot_gradients through their own action map,
treating all H window actions as produced by the current parameters.

Both families keep their parameters in one array and share one projected
online step, written once in LevelStack, over a leading level axis: L
learners of one family with their parameters as the rows of one array. The
boosted stack joins its N learners into one (LevelStack.join); a lone
learner's receive_loss is the same step at L = 1.

ZeroController and LqrController are fixed policies: each has a name and
an act, and no update, so the runner builds no window loss for them.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

# as_vector stays importable from this module: perfbench/spans.py counts
# its calls per importing module.
from dynaboost.core import (  # noqa: F401
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


class _Learner:
    """What the GPC and recurrent learners share: step settings, counts, the lone-learner path.

    A family supplies its parameters as one array (params, which _bind
    sets with their named views, weights), their named block shapes
    (_shapes), the radius of their ball, _views and _level_gradients, which
    writes every level's gradient into the stack's buffer and returns it
    with the (L,) mask of the levels whose gradient is finite; LevelStack
    runs the one step over them. A family without clip_norm is not clipped,
    so its gradient norm is never taken.
    """

    clip_norm = math.inf

    def __init__(self, H: int, action_ball: BallSet, lr: float, lr_schedule: str):
        if H < 1:
            raise ValueError("memory length must be >= 1")
        if lr_schedule not in ("sqrt", "constant"):
            raise ValueError(f"unknown lr_schedule {lr_schedule!r}")
        self.H = H
        self.action_ball = action_ball
        self.d = action_ball.dim
        self.lr = lr
        self.lr_schedule = lr_schedule
        self._t = 0
        self.skipped_updates = 0

    def _bind(self, params: Array) -> None:
        """Make params this learner's parameters; its named weights become views into it."""
        self.params = params
        self.weights = self._views(params)

    def loss_gradients(self, loss, w_history) -> Array:
        """Unclipped gradient of the residual loss, shaped like params: LevelStack at L = 1.

        None if the gradient has a non-finite entry.
        """
        G, finite = LevelStack([self], self.params[None]).gradients(loss, w_history)
        return G[0] if finite[0] else None

    def receive_loss(self, loss, w_history) -> None:
        LevelStack([self], self.params[None]).step(loss, w_history)


class GpcController(_Learner):
    """Action = sum_i M^i w_{t-i}, with M learned by projected OGD.

    The GPC policy class of Agarwal et al. (ICML 2019) without state
    feedback, which needs a stable system. The stacked M parameter lives in
    a Frobenius ball of radius R_M. The step is base/sqrt(t) (or a constant
    base). Boosted ensembles need one shared deterministic schedule across
    their learners: per-learner adaptive scaling feeds the late levels'
    small residual gradients back as outsized steps and destabilizes the
    whole stack.
    """

    def __init__(
        self,
        state_dim: int,
        H: int,
        action_ball: BallSet,
        R_M: float = 10.0,
        lr: float = 0.3,
        lr_schedule: str = "sqrt",
    ):
        super().__init__(H, action_ball, lr, lr_schedule)
        if R_M <= 0:
            raise ValueError("R_M must be positive")
        self.k = state_dim
        self.R_M = R_M
        self._bind(np.zeros((H, self.d, self.k)))

    # M[m] multiplies w_{t-1-m}: index 0 is the most recent disturbance. M is
    # a read-only name for params; write it in place, since a joined level's
    # params is its row of the stack.
    M = property(lambda self: self.params)
    radius = property(lambda self: self.R_M)
    _shapes = property(lambda self: {"M": self.params.shape})

    @staticmethod
    def _views(M: Array) -> Array:
        return M

    def act(self, obs: Observation) -> Array:
        # M[m] pairs with the (m+1)-th most recent disturbance.
        raw = np.einsum("mdk,mk->d", self.params, obs.disturbances[::-1])
        return project_to_ball(raw, self.action_ball)

    def _level_gradients(self, M: Array, loss, w_history, out: Array) -> tuple[Array, Array]:
        """(out, finite): every level's gradient of its residual in its M, and the finite levels.

        All H window slots of all L levels of the (L, H, d, k) M are
        replayed at once; the loss gradients at the played (projected)
        actions are chained back through the ball projection, so the
        parameter gradient is exact for the actions the window loss sees.
        out, shaped like M, receives the gradients.
        """
        rev = _slot_windows(w_history, self.H)[:, ::-1, :]
        # rev[j, m] = disturbance m+1 steps before slot j's action
        # raws[l, j] = sum_m M[l, m] rev[j, m], as batched matmuls over m.
        raws = (M @ rev.transpose(1, 2, 0)).sum(axis=1).swapaxes(-1, -2)
        actions, norms = project_slots(raws, self.action_ball)
        g = project_slots_vjp(raws, norms, loss.slot_gradients(actions), self.action_ball)
        # out[l, m] = sum_j g[l, j] rev[j, m]': one batched matmul over levels and lags.
        np.matmul(g.swapaxes(-1, -2)[:, None], rev.transpose(1, 0, 2), out=out)
        # Each entry of out sums H products of a slot-gradient entry and a
        # disturbance entry, so it is at most H |g| |w| (norms of the whole
        # arrays). While that is far below the float64 limit no entry can
        # overflow; only past it, or on a non-finite input, is the gradient
        # checked.
        g_flat, w_flat = g.ravel(), w_history.ravel()
        bound = self.H * math.sqrt(g_flat.dot(g_flat)) * math.sqrt(w_flat.dot(w_flat))
        if bound < 1e300:
            return out, np.ones(len(out), dtype=bool)
        return out, np.isfinite(out).all(axis=(1, 2, 3))


class _Cell:
    """A recurrent cell's sizes; its weights are a dict passed to every call.

    forward and backward read the weights as (..., rows, cols) stacks: the
    same code runs one learner's weights and a level stack's (L, ...) views.
    """

    def __init__(self, input_dim: int, hidden_dim: int):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim


class ElmanCell(_Cell):
    """h_s = tanh(W_h h_{s-1} + W_x w_s + b_h), h_0 = 0."""

    def initial_weights(self, rng: RngStream) -> dict[str, Array]:
        n, hd = self.input_dim, self.hidden_dim
        return {
            "W_x": rng.standard_normal((hd, n)) / math.sqrt(n),
            "W_h": rng.standard_normal((hd, hd)) / math.sqrt(hd),
            "b_h": np.zeros(hd),
        }

    def forward(self, weights: dict[str, Array], windows: Array) -> tuple[Array, list]:
        """windows: (S, n, k) batch of sequences -> final hidden (..., S, h) + cache."""
        W_h = weights["W_h"]
        W_hT, W_xT = W_h.swapaxes(-1, -2), weights["W_x"].swapaxes(-1, -2)
        b_h = weights["b_h"][..., None, :]
        h = np.zeros((*W_h.shape[:-2], windows.shape[0], self.hidden_dim))
        cache = [h]
        for s in range(windows.shape[1]):
            h = np.tanh(h @ W_hT + windows[:, s, :] @ W_xT + b_h)
            cache.append(h)
        return h, [windows, cache]

    def backward(self, weights: dict[str, Array], cache, dh: Array, grads: dict[str, Array]) -> None:
        """Adds the gradients into grads, zeroed arrays shaped like the weights."""
        windows, hs = cache
        W_h = weights["W_h"]
        for s in range(windows.shape[1], 0, -1):
            da = dh * (1.0 - hs[s] ** 2)
            grads["W_h"] += da.swapaxes(-1, -2) @ hs[s - 1]
            grads["W_x"] += da.swapaxes(-1, -2) @ windows[:, s - 1, :]
            grads["b_h"] += da.sum(axis=-2)
            dh = da @ W_h


def _sigmoid(z: Array) -> Array:
    return 1.0 / (1.0 + np.exp(-z))


class LstmCell(_Cell):
    """Standard LSTM with forget-gate bias 1; gate order (input, forget, cell, output)."""

    def initial_weights(self, rng: RngStream) -> dict[str, Array]:
        n, hd = self.input_dim, self.hidden_dim
        b = np.zeros(4 * hd)
        b[hd : 2 * hd] = 1.0
        return {
            "W": rng.standard_normal((4 * hd, n)) / math.sqrt(n),
            "U": rng.standard_normal((4 * hd, hd)) / math.sqrt(hd),
            "b": b,
        }

    def forward(self, weights: dict[str, Array], windows: Array) -> tuple[Array, list]:
        hd = self.hidden_dim
        U = weights["U"]
        WT, UT = weights["W"].swapaxes(-1, -2), U.swapaxes(-1, -2)
        b = weights["b"][..., None, :]
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

    def backward(self, weights: dict[str, Array], cache, dh: Array, grads: dict[str, Array]) -> None:
        windows, steps = cache
        U = weights["U"]
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


def _raw_outputs(cell, weights: dict[str, Array], windows: Array) -> tuple[Array, Array, list]:
    """(..., S, d) raw head outputs of an (S, n, k) window batch, the final hidden, the cache."""
    h, cache = cell.forward(weights, windows)
    return h @ weights["W_o"].swapaxes(-1, -2) + weights["b_o"][..., None, :], h, cache


class RecurrentController(_Learner):
    """Maps the disturbance window through a small recurrent net to an action.

    The state input is ignored: the policy class is purely
    perturbation-based. Updates backpropagate the residual loss through
    time for each of the H window slots, clip the global gradient norm,
    take a plain SGD step, and project the joint parameter vector back
    onto a norm ball. The ball keeps the policy class compact: linear
    residual losses reward ever-larger actions, and without it a learner
    fed such losses for long stretches drifts to parameter norms it takes
    thousands of opposite-signed steps to walk back.

    All parameters live in one flat vector theta (params): the cell's
    weights, then the head's W_o and b_o; weights holds reshaped views into
    it by name, so write them in place.
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
        super().__init__(H, action_ball, lr, lr_schedule)
        if lr <= 0 or clip_norm <= 0:
            raise ValueError("lr and clip_norm must be positive")
        if weight_radius <= 0:
            raise ValueError("weight_radius must be positive")
        cells = {"elman": ElmanCell, "lstm": LstmCell}
        if cell not in cells:
            raise ValueError(f"unknown cell {cell!r}")
        self.hidden_dim = hidden_dim
        self.cell = cells[cell](input_dim, hidden_dim)
        # Zero output head: the net starts as the zero policy, so a freshly
        # built stack of these adds no action noise before training starts.
        # Head gradients are nonzero from the first update, and the cell
        # starts learning once the head moves off zero.
        head = {"W_o": np.zeros((self.d, hidden_dim)), "b_o": np.zeros(self.d)}
        blocks = {**self.cell.initial_weights(rng), **head}
        self._shapes = {k: v.shape for k, v in blocks.items()}
        self.clip_norm = clip_norm
        self.weight_radius = weight_radius
        self._bind(np.concatenate([v.ravel() for v in blocks.values()]))

    radius = property(lambda self: self.weight_radius)

    def _views(self, params: Array) -> dict[str, Array]:
        """Named weight views into (..., P) parameters, shaped (..., *block shape)."""
        views, pos = {}, 0
        for name, shape in self._shapes.items():
            size = math.prod(shape)
            views[name] = params[..., pos : pos + size].reshape(*params.shape[:-1], *shape)
            pos += size
        return views

    def act(self, obs: Observation) -> Array:
        raw, _, _ = _raw_outputs(self.cell, self.weights, obs.disturbances[None])
        return project_to_ball(raw[0], self.action_ball)

    def _level_gradients(
        self, weights: dict[str, Array], loss, w_history, out: Array
    ) -> tuple[Array, Array]:
        """(out, finite): every level's (P,) gradient of its residual, and the finite levels.

        One forward and one backward pass run over all L levels of the
        stack's weights, into the (L, P) out. The per-slot loss gradients are
        taken at the played (projected) actions and backpropagated through
        the raw forward pass. Chaining through the ball projection instead
        would zero the gradient of any saturated slot when the action is
        scalar (the projection has no tangent directions in 1-d),
        permanently freezing a learner that a persistent disturbance once
        pushed past the rim; training on the raw outputs keeps such a
        learner recoverable when the residual flips.
        """
        windows = _slot_windows(w_history, self.H)
        raws, h, cache = _raw_outputs(self.cell, weights, windows)
        actions, _ = project_slots(raws, self.action_ball)
        g = loss.slot_gradients(actions)
        out.fill(0.0)
        grads = self._views(out)
        grads["W_o"][...] = g.swapaxes(-1, -2) @ h
        grads["b_o"][...] = g.sum(axis=-2)
        self.cell.backward(weights, cache, g @ weights["W_o"], grads)
        return out, np.isfinite(out).all(axis=-1)


class LevelStack:
    """L learners of one family, their parameters as the rows of one array, and the one step.

    params is (L, H, d, k) for GPC and (L, P) for the recurrent nets;
    weights is the family's view of it (GPC reads M as is, a recurrent net
    reads its named blocks). The boosted stack joins its learners once, and
    each learner's params is a view of its row, so its act sees every step;
    a lone learner steps as the stack of its own params at L = 1. The loss
    holds one residual per level along a leading axis; a lone (H, d)
    residual broadcasts to L = 1. The learners share H, the action ball and
    the parameter layout; each keeps its own step settings, radius and
    counts.
    """

    def __init__(self, learners: list, params: Array):
        self.learners = learners
        self.params = params
        self.weights = learners[0]._views(params)
        # Every level's gradient lands in this one buffer, shaped like params.
        self._gradient = np.empty(params.shape)

    @classmethod
    def join(cls, learners: list) -> "LevelStack | None":
        """The stack of learners of one family, rebound to views of its rows; None for others."""
        first = learners[0]
        if not isinstance(first, _Learner) or {type(c) for c in learners} != {type(first)}:
            return None
        if len({(c.H, c.action_ball) for c in learners}) != 1:
            raise ValueError("stacked levels must share the memory length and the action ball")
        layouts = {", ".join(f"{k} {s}" for k, s in c._shapes.items()) for c in learners}
        if len(layouts) != 1:
            got = "; ".join(sorted(layouts))
            raise ValueError(f"stacked levels must share one parameter layout, got {got}")
        params = np.stack([c.params for c in learners])
        for c, row in zip(learners, params):
            c._bind(row)
        return cls(learners, params)

    def gradients(self, loss, w_history) -> tuple[Array, Array]:
        """(G, finite): every level's unclipped gradient of its residual, and the finite levels.

        G is shaped like params, row i holding level i's gradient; it is the
        stack's one buffer, so the next call overwrites it. finite is the
        (L,) mask of the levels whose gradient has no non-finite entry.
        """
        return self.learners[0]._level_gradients(self.weights, loss, w_history, self._gradient)

    def step(self, loss, w_history) -> None:
        """One projected OGD step per level: lr or lr/sqrt(t), clipped, then onto the radius.

        A level whose gradient has a non-finite entry keeps its parameters
        and update count, warns and counts a skipped update; the others
        step. Only a clipped family pays for the gradient norm.
        """
        G, finite = self.gradients(loss, w_history)
        for c, row, g, ok in zip(self.learners, self.params, G, finite):
            if not ok:
                warnings.warn("skipping update: non-finite gradient", stacklevel=3)
                c.skipped_updates += 1
                continue
            c._t += 1
            lr = c.lr if c.lr_schedule == "constant" else c.lr / math.sqrt(c._t)
            if c.clip_norm < math.inf:
                flat = g.ravel()
                norm = math.sqrt(flat.dot(flat))
                # A norm that overflows on a finite gradient clips the step to zero.
                if norm > c.clip_norm:
                    lr *= c.clip_norm / norm
            g *= lr
            row -= g
            flat = row.ravel()
            norm = math.sqrt(flat.dot(flat))
            if norm > c.radius:
                row *= c.radius / norm


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
