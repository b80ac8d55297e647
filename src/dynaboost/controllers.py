"""Weak learners, plus the zero and LQR baselines.

Every controller returns an action inside its action_ball. The learners
(GPC and the recurrent family) act on the (H, k) window of recent
disturbances, then take receive_loss(loss, w_history): a
losses.ResidualLoss over the window of their last H actions (coefficient
0 under dynaboost1), plus the (2H-1, k) disturbance history
w_{t-2H+1}..w_{t-1}, which contains the window that generated each of
those actions. They differentiate the loss's slot_gradients through their
own action map, treating all H window actions as produced by the current
parameters.

Both families keep their parameters in one array and share one projected
online step, written once in LevelStack, over a leading level axis: L
learners of one layout with their parameters as the rows of one array
(LevelStack.join says what a join does to its learners). A lone learner's
receive_loss, DynaBoost.update's per-level call, is the same step at L = 1.

ZeroController and LqrController are fixed policies: each has a name and
an act on an Observation, and no learners, so they take no part in a
round's shared step; a run of fixed policies builds no window loss.
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
    (_shapes), the radius of their parameter ball (radius), _views and
    _level_gradients, which writes every level's gradient into the stack's
    buffer and returns it with the (L,) mask of the levels whose gradient
    is finite; LevelStack runs the one step over them. A family without
    clip_norm is not clipped, so its gradient norm is never taken.
    """

    clip_norm = math.inf

    def __init__(self, H: int, action_ball: BallSet, lr: float, lr_schedule: str):
        if H < 1:
            raise ValueError("memory length must be >= 1")
        if lr_schedule not in ("sqrt", "constant"):
            raise ValueError(f"unknown lr_schedule {lr_schedule!r}")
        self.H = H
        self.action_ball = action_ball
        self.lr = lr
        self.lr_schedule = lr_schedule
        self._t = 0
        self.skipped_updates = 0

    @property
    def layout(self) -> tuple:
        """What learners must share to be rows of one LevelStack: family, H, ball, block shapes."""
        return type(self), self.H, self.action_ball, tuple(self._shapes.items())

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
        self.radius = R_M
        self._bind(np.zeros((H, action_ball.dim, state_dim)))

    # M[m] multiplies w_{t-1-m}: index 0 is the most recent disturbance. M is
    # a read-only name for params; write it in place, since a joined level's
    # params is its row of the stack.
    M = property(lambda self: self.params)
    _shapes = property(lambda self: {"M": self.params.shape})

    @staticmethod
    def _views(M: Array) -> Array:
        return M

    def act(self, window: Array) -> Array:
        # M[m] pairs with the (m+1)-th most recent disturbance.
        raw = np.einsum("mdk,mk->d", self.params, window[::-1])
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
    forward takes every step's input term from one product before its time
    loop, and backward takes every weight block's gradient from one batched
    product after its loop, so each loop carries only the recurrence. Both
    keep the per-step loop's bits (see _descending_sum).
    """

    def __init__(self, input_dim: int, hidden_dim: int):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim


def _step_inputs(windows: Array, lead: int) -> Array:
    """(n, 1 x lead, S, k) view of an (S, n, k) window batch: step s's (S, k) inputs at [s].

    The singleton axes broadcast against weights with lead leading axes,
    so a product with them is (n, ..., S, cols), one (S, k) slice per step.
    """
    xs = windows.swapaxes(0, 1)
    return xs.reshape(xs.shape[0], *(1,) * lead, *xs.shape[1:])


def _descending_sum(per_step: Array) -> Array:
    """Sum over the leading step axis, last step first, in the order a per-step loop adds.

    An accumulate adds row by row; a plain sum may add a long run of rows
    pairwise when the other axes are all of size 1.
    """
    return np.add.accumulate(per_step[::-1], axis=0)[-1]


class ElmanCell(_Cell):
    """h_s = tanh(W_h h_{s-1} + W_x w_s + b_h), h_0 = 0.

    forward's cache is (xs, hs): the step-first inputs (_step_inputs) and
    the (n + 1, ..., S, h) hidden states h_0..h_n.
    """

    def initial_weights(self, rng: np.random.Generator) -> dict[str, Array]:
        n, hd = self.input_dim, self.hidden_dim
        return {
            "W_x": rng.standard_normal((hd, n)) / math.sqrt(n),
            "W_h": rng.standard_normal((hd, hd)) / math.sqrt(hd),
            "b_h": np.zeros(hd),
        }

    def forward(self, weights: dict[str, Array], windows: Array) -> tuple[Array, tuple]:
        """windows: (S, n, k) batch of sequences -> final hidden (..., S, h) + cache."""
        W_h = weights["W_h"]
        W_hT, b_h = W_h.swapaxes(-1, -2), weights["b_h"][..., None, :]
        xs = _step_inputs(windows, W_h.ndim - 2)
        xw = xs @ weights["W_x"].swapaxes(-1, -2)
        hs = np.zeros((len(xw) + 1, *xw.shape[1:]))
        # h_0 = 0, so the first step has no recurrent term.
        np.tanh(xw[0] + b_h, out=hs[1])
        for s in range(1, len(xw)):
            np.tanh(hs[s] @ W_hT + xw[s] + b_h, out=hs[s + 1])
        return hs[-1], (xs, hs)

    def backward(self, weights: dict[str, Array], cache, dh: Array, grads: dict[str, Array]) -> None:
        """Adds the gradients into grads, zeroed arrays shaped like the weights."""
        xs, hs = cache
        W_h = weights["W_h"]
        # das[s] holds 1 - h_{s+1}^2 until the loop turns it into step s+1's da.
        das = 1.0 - hs[1:] ** 2
        np.multiply(dh, das[-1], out=das[-1])
        for s in range(len(das) - 2, -1, -1):
            np.multiply(das[s + 1] @ W_h, das[s], out=das[s])
        daT = das.swapaxes(-1, -2)
        grads["W_h"] += _descending_sum(daT @ hs[:-1])
        grads["W_x"] += _descending_sum(daT @ xs)
        grads["b_h"] += _descending_sum(das.sum(axis=-2))


class LstmCell(_Cell):
    """Standard LSTM with forget-gate bias 1; gate order (input, forget, cell, output).

    forward's cache is (xs, hs, cs, gates, tcs): the step-first inputs
    (_step_inputs), the (n + 1, ..., S, h) hidden and cell states from
    h_0 = c_0 = 0, each step's (..., S, 4h) gate activations and the tanh
    of its new cell state.
    """

    def initial_weights(self, rng: np.random.Generator) -> dict[str, Array]:
        n, hd = self.input_dim, self.hidden_dim
        b = np.zeros(4 * hd)
        b[hd : 2 * hd] = 1.0
        return {
            "W": rng.standard_normal((4 * hd, n)) / math.sqrt(n),
            "U": rng.standard_normal((4 * hd, hd)) / math.sqrt(hd),
            "b": b,
        }

    def _blocks(self, a: Array) -> tuple[Array, ...]:
        """Views of the (input, forget, cell, output) blocks of a (..., 4h) array."""
        hd = self.hidden_dim
        return tuple(a[..., j * hd : (j + 1) * hd] for j in range(4))

    def forward(self, weights: dict[str, Array], windows: Array) -> tuple[Array, tuple]:
        hd = self.hidden_dim
        U = weights["U"]
        UT, b = U.swapaxes(-1, -2), weights["b"][..., None, :]
        xs = _step_inputs(windows, U.ndim - 2)
        xw = xs @ weights["W"].swapaxes(-1, -2)
        gates = np.empty(xw.shape)
        i, f, g, o = self._blocks(gates)
        hs = np.zeros((len(xw) + 1, *i.shape[1:]))
        cs = np.zeros_like(hs)
        tcs = np.empty_like(hs[1:])
        for s in range(len(xw)):
            # h_0 = 0, so the first step has no recurrent term.
            z = xw[s] + hs[s] @ UT + b if s else xw[s] + b
            # The sigmoid of every block, then the tanh of the cell block.
            np.divide(1.0, 1.0 + np.exp(-z), out=gates[s])
            np.tanh(z[..., 2 * hd : 3 * hd], out=g[s])
            np.add(f[s] * cs[s], i[s] * g[s], out=cs[s + 1])
            np.tanh(cs[s + 1], out=tcs[s])
            np.multiply(o[s], tcs[s], out=hs[s + 1])
        return hs[-1], (xs, hs, cs, gates, tcs)

    def backward(self, weights: dict[str, Array], cache, dh: Array, grads: dict[str, Array]) -> None:
        xs, hs, cs, gates, tcs = cache
        U = weights["U"]
        i, f, g, o = self._blocks(gates)
        # Step s's gate gradients are dz = ((dcat e) a) r with dcat = (dc, dc,
        # dc, dh) and, block by block, e = (g, c_{s-1}, i, tanh c_s),
        # a = (i, f, 1, o) and r = (1 - i, 1 - f, 1 - g^2, 1 - o): each block's
        # chain rule in its per-step order, with every factor that does not
        # depend on dh or dc taken before the loop.
        e = np.concatenate([g, cs[:-1], i, tcs], axis=-1)
        a = gates.copy()
        self._blocks(a)[2][...] = 1.0
        r = 1.0 - gates
        self._blocks(r)[2][...] = 1.0 - g**2
        dtc = 1.0 - tcs**2
        dzs = np.empty(gates.shape)
        dc = np.zeros_like(dh)
        for s in range(len(dzs) - 1, -1, -1):
            dc = dc + dh * o[s] * dtc[s]
            dz = np.concatenate([dc, dc, dc, dh], axis=-1, out=dzs[s])
            dz *= e[s]
            dz *= a[s]
            dz *= r[s]
            if s:
                dh = dz @ U
                dc = dc * f[s]
        dzT = dzs.swapaxes(-1, -2)
        grads["W"] += _descending_sum(dzT @ xs)
        grads["U"] += _descending_sum(dzT @ hs[:-1])
        grads["b"] += _descending_sum(dzs.sum(axis=-2))


def _raw_outputs(cell, weights: dict[str, Array], windows: Array) -> tuple[Array, Array, tuple]:
    """(..., S, d) raw head outputs of an (S, n, k) window batch, the final hidden, the cache."""
    h, cache = cell.forward(weights, windows)
    return h @ weights["W_o"].swapaxes(-1, -2) + weights["b_o"][..., None, :], h, cache


class RecurrentController(_Learner):
    """Maps the disturbance window through a small recurrent net to an action.

    Updates backpropagate the residual loss through time for each of the H
    window slots, clip the global gradient norm, take a plain SGD step, and
    project the joint parameter vector back onto the ball of radius
    weight_radius. The ball keeps the policy class compact: linear residual
    losses reward ever-larger actions, and without it a learner fed such
    losses for long stretches drifts to parameter norms it takes thousands of
    opposite-signed steps to walk back.

    All parameters live in one flat vector theta (params): the cell's
    weights, then the head's W_o and b_o; weights holds reshaped views into
    it by name, so write them in place.
    """

    def __init__(
        self,
        input_dim: int,
        H: int,
        action_ball: BallSet,
        rng: np.random.Generator,
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
        self.cell = cells[cell](input_dim, hidden_dim)
        # Zero output head: the net starts as the zero policy, so a freshly
        # built stack of these adds no action noise before training starts.
        # Head gradients are nonzero from the first update, and the cell
        # starts learning once the head moves off zero.
        d = action_ball.dim
        head = {"W_o": np.zeros((d, hidden_dim)), "b_o": np.zeros(d)}
        blocks = {**self.cell.initial_weights(rng), **head}
        self._shapes = {k: v.shape for k, v in blocks.items()}
        self.clip_norm = clip_norm
        self.radius = weight_radius
        self._bind(np.concatenate([v.ravel() for v in blocks.values()]))

    def _views(self, params: Array) -> dict[str, Array]:
        """Named weight views into (..., P) parameters, shaped (..., *block shape)."""
        views, pos = {}, 0
        for name, shape in self._shapes.items():
            size = math.prod(shape)
            views[name] = params[..., pos : pos + size].reshape(*params.shape[:-1], *shape)
            pos += size
        return views

    def act(self, window: Array) -> Array:
        raw, _, _ = _raw_outputs(self.cell, self.weights, window[None])
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
    reads its named blocks). join makes a stack over learners; a lone
    learner steps as the stack of its own params at L = 1. The loss
    holds one residual per level along a leading axis; a lone (H, d)
    residual broadcasts to L = 1. The learners share one layout
    (_Learner.layout); each keeps its own step settings, radius and counts.
    """

    def __init__(self, learners: list, params: Array):
        self.learners = learners
        self.params = params
        self.weights = learners[0]._views(params)
        # Every level's gradient lands in this one buffer, shaped like params.
        self._gradient = np.empty(params.shape)

    @classmethod
    def join(cls, learners: list) -> "LevelStack":
        """The stack of learners of one layout (check_layouts), their params copied into its rows.

        A join rebinds its learners' params to views of the new array's
        rows, so their act sees every step of this stack, and any stack
        made earlier over them no longer backs their act.
        """
        cls.check_layouts(learners)
        params = np.stack([c.params for c in learners])
        for c, row in zip(learners, params):
            c._bind(row)
        return cls(learners, params)

    @staticmethod
    def check_layouts(learners: list) -> None:
        """Raise a ValueError naming their block shapes unless the learners share one layout."""
        layouts = {getattr(c, "layout", None) for c in learners}
        if len(layouts) != 1 or None in layouts:
            shapes = {
                ", ".join(f"{k} {s}" for k, s in layout[-1]) if layout else "no parameters"
                for layout in layouts
            }
            raise ValueError(
                "stacked levels must share the memory length, the action ball and one "
                f"parameter layout, got {'; '.join(sorted(shapes))}"
            )

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
