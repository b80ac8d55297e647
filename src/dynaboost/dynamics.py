"""Dynamical systems, the two window folds, and per-episode records.

Systems expose their step x' = f(x, u) + w and its linearization
(A, B); the pendulum also gives its step Jacobians. Two folds replay an
action window. `rollout` folds step and gives the states:
the window loss's value, the regret comparator and replays of recorded
runs read it. The window loss's gradients come from each system's
`window_vjp`, which carries the gradient at a window's end state back to
its past actions: a LinearSystem through its cached window operators, the
pendulum in one float pass per window. Disturbance streams are drawn whole
before round 1, in `harness.runner.draw_disturbances`.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# as_vector stays importable from this module: perfbench/spans.py counts
# its calls per importing module.
from dynaboost.core import Array, as_matrix, as_vector  # noqa: F401


# spectral_radius_estimate's relative stopping tolerance and its squaring budget.
RHO_TOL = 1e-9
RHO_SQUARINGS = 200


def spectral_radius_estimate(A) -> float:
    """Estimate the spectral radius via matrix powers.

    Uses rho(A) = lim ||A^m||^(1/m) with repeated squaring and per-step
    normalisation, which is robust to complex dominant eigenvalue pairs
    where plain vector power iteration oscillates.
    """
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"spectral radius needs a square matrix, got {M.shape}")
    log_scale = 0.0  # log ||A^(2^j)||_F accumulated across squarings
    power = 1.0
    prev = None
    for _ in range(RHO_SQUARINGS):
        n = float(np.linalg.norm(M))
        if n == 0.0 or not math.isfinite(n):
            return 0.0 if n == 0.0 else float("nan")
        log_scale += math.log(n)
        est = math.exp(log_scale / power)
        if prev is not None and abs(est - prev) <= RHO_TOL * max(1.0, est):
            return est
        prev = est
        M = (M / n) @ (M / n)
        log_scale *= 2.0
        power *= 2.0
    raise RuntimeError(f"spectral radius estimate did not converge within {RHO_SQUARINGS} squarings")


class LinearSystem:
    """x' = A x + B u (+ w).

    A and B are validated here and fixed afterwards: step takes length-k
    and length-d vectors, or (..., k) and (..., d) blocks with a lone call's
    bits row by row, as given, since it runs inside the round loop. The
    window operators are cached from A and B.
    """

    def __init__(self, A, B):
        self.A = as_matrix(A)
        if self.A.shape[0] != self.A.shape[1]:
            raise ValueError(f"A must be square, got {self.A.shape}")
        self.state_dim = self.A.shape[0]
        self.B = as_matrix(B, rows=self.state_dim)
        self.action_dim = self.B.shape[1]
        self._window_ops: dict[int, tuple[Array, Array]] = {}
        rho = spectral_radius_estimate(self.A)
        if not rho < 1.0:
            warnings.warn(
                f"open-loop spectral radius {rho:.4f} >= 1; disturbance-feedback "
                "control without state feedback needs a stable A for bounded memory",
                stacklevel=2,
            )

    def step(self, x, u, w) -> Array:
        return (self.A @ np.asarray(x)[..., None])[..., 0] + (self.B @ np.asarray(u)[..., None])[..., 0] + w

    def linearization(self) -> tuple[Array, Array]:
        """(A, B): the system is its own linearization."""
        return self.A, self.B

    def window_operators(self, H: int) -> tuple[Array, Array]:
        """Block rows (Phi, Psi) of the memory-H window replay, cached per H.

        Phi = [Phi_0 ... Phi_{H-2}] with Phi_j = A^{H-2-j} B, shape
        (k, (H-1) d), and Psi = [Psi_0 ... Psi_{H-2}] with Psi_j = A^{H-2-j},
        shape (k, (H-1) k). The state reached from zero by the pairs
        (u_j, w_j), j = 0..H-2, is Phi u + Psi w, with u and w the pairs'
        actions and disturbances stacked oldest first.
        """
        ops = self._window_ops.get(H)
        if ops is None:
            powers = []
            P = np.eye(self.state_dim)
            for _ in range(H - 1):
                powers.append(P)
                P = self.A @ P
            powers.reverse()
            Psi = np.hstack(powers) if powers else np.zeros((self.state_dim, 0))
            Phi = np.hstack([P @ self.B for P in powers]) if powers else np.zeros((self.state_dim, 0))
            Phi.flags.writeable = False
            Psi.flags.writeable = False
            ops = self._window_ops[H] = (Phi, Psi)
        return ops

    def window_vjp(self, past_actions: Array, disturbances: Array, grad_x) -> Array:
        """Past-action gradients of grad_x's function of each window's end state.

        past_actions is an (..., n, d) stack of windows that share the (n, k)
        disturbances w. The end state is Psi w + Phi u, so slot j's gradient
        is Phi_j' grad_x, in stacked products with a lone call's bits.
        """
        *lead, n, d = past_actions.shape
        Phi, Psi = self.window_operators(n + 1)
        # Explicit sizes: at n = 0 the past and Phi have zero columns.
        past = past_actions.reshape(*lead, n * d)
        v = grad_x(Psi @ disturbances.ravel() + (Phi @ past[..., None])[..., 0])
        return (v[..., None, :] @ Phi)[..., 0, :].reshape(*lead, n, d)


def wrap_angle(theta: float) -> float:
    """Wrap to (-pi, pi]."""
    return math.pi - (math.pi - theta) % (2.0 * math.pi)


# Module names for the step physics: CPython 3.11 specializes global reads, not class reads.
_G, _M, _L, _DT, _MAX_TORQUE, _MAX_SPEED = 10.0, 1.0, 1.0, 0.05, 2.0, 8.0
# The coefficients of sin(theta) and of the torque in the angular acceleration.
_GRAVITY, _INERTIA = 3.0 * _G / (2.0 * _L), 3.0 / (_M * _L**2)


class PendulumSystem:
    """Torque-controlled inverted pendulum, fixed-step discrete dynamics.

    State is (theta, theta_dot) with theta measured from upright and wrapped
    to (-pi, pi]; the action is a scalar torque clipped to +-max_torque, and
    the angular velocity is clipped to +-max_speed. The additive disturbance
    w lands on both state coordinates after the deterministic step. Like
    LinearSystem's, step reads x and u, or (..., 2) and (..., 1) blocks, as given.
    """

    g, m, l, dt, max_torque, max_speed = _G, _M, _L, _DT, _MAX_TORQUE, _MAX_SPEED
    state_dim, action_dim = 2, 1

    def _transition(self, theta: float, theta_dot: float, u: float) -> tuple[float, float, float]:
        """(theta', angular velocity', angular velocity before its clip) of one step.

        The one statement of the step physics, on floats: step, jacobians
        and window_vjp all call it, and it computes no sensitivity.
        """
        torque = min(max(u, -_MAX_TORQUE), _MAX_TORQUE)
        accel = _GRAVITY * math.sin(theta) + _INERTIA * torque
        pre_dot = theta_dot + accel * _DT
        new_dot = min(max(pre_dot, -_MAX_SPEED), _MAX_SPEED)
        return wrap_angle(theta + new_dot * _DT), new_dot, pre_dot

    def _sensitivities(self, theta: float, u: float, pre_dot: float) -> tuple[float, ...]:
        """The six entries of [Jx | Ju], row by row, of the step from angle
        theta under action u whose speed before its clip is pre_dot.

        Clip saturation zeroes the corresponding sensitivity; the angle
        wrap has unit derivative almost everywhere.
        """
        if not abs(pre_dot) <= _MAX_SPEED:
            return 1.0, 0.0, 0.0, 0.0, 0.0, 0.0
        d_dot_d_theta = _GRAVITY * math.cos(theta) * _DT
        d_dot_d_u = _INERTIA * _DT if abs(u) <= _MAX_TORQUE else 0.0
        return 1.0 + _DT * d_dot_d_theta, _DT, _DT * d_dot_d_u, d_dot_d_theta, 1.0, d_dot_d_u

    def jacobians(self, x, u) -> tuple[Array, Array]:
        theta, u0 = float(x[0]), float(u[0])
        J = self._sensitivities(theta, u0, self._transition(theta, float(x[1]), u0)[2])
        return np.array([J[0:2], J[3:5]]), np.array([J[2:3], J[5:6]])

    def window_vjp(self, past_actions: Array, disturbances: Array, grad_x) -> Array:
        """Past-action gradients of grad_x's function of each window's end state.

        past_actions is an (..., n, 1) stack of windows that share the (n, 2)
        disturbances. One float pass per window replays it as rollout does
        and records each step's _sensitivities; one grad_x call takes the
        end states, with rollout's bits; the chain back, Ju' v and Jx' v, is
        float products, each rounded on its own, with a lone call's bits.
        """
        W = disturbances.tolist()
        windows = past_actions.reshape(math.prod(past_actions.shape[:-2]), len(W)).tolist()
        ends, records = [], []
        for window in windows:
            theta = theta_dot = 0.0
            steps = []
            for u, (w_theta, w_dot) in zip(window, W, strict=True):
                new_theta, new_dot, pre_dot = self._transition(theta, theta_dot, u)
                steps.append(self._sensitivities(theta, u, pre_dot))
                theta, theta_dot = new_theta + w_theta, new_dot + w_dot
            ends.append((theta, theta_dot))
            records.append(steps)
        slots = []
        for steps, (v_theta, v_dot) in zip(records, grad_x(np.array(ends)).tolist()):
            back = []
            for a, b, c, d, e, f in reversed(steps):
                back.append(c * v_theta + f * v_dot)
                v_theta, v_dot = a * v_theta + d * v_dot, b * v_theta + e * v_dot
            slots += reversed(back)
        return np.array(slots).reshape(past_actions.shape)

    def step(self, x, u, w) -> Array:
        # Row by row on floats: np.sin does not promise math.sin's bits.
        x = np.asarray(x)
        rows = zip(x.reshape(-1, 2).tolist(), np.asarray(u).reshape(-1).tolist())
        return np.array([self._transition(theta, dot, v)[:2] for (theta, dot), v in rows]).reshape(x.shape) + w

    def linearization(self) -> tuple[Array, Array]:
        """(A, B) of the discrete map at the upright equilibrium."""
        return self.jacobians(np.zeros(2), np.zeros(1))


def random_lds(rng: np.random.Generator, k: int, d: int, rho_target: float) -> LinearSystem:
    """Random system with i.i.d. normal entries, A rescaled to the target spectral radius."""
    if not 0.0 < rho_target < 1.0:
        raise ValueError(f"rho_target must lie in (0, 1), got {rho_target}")
    A = rng.standard_normal((k, k))
    rho = spectral_radius_estimate(A)
    if rho == 0.0:
        raise RuntimeError("drew a nilpotent A; cannot rescale to a positive spectral radius")
    A = A * (rho_target / rho)
    B = rng.standard_normal((k, d)) / math.sqrt(d)
    return LinearSystem(A, B)


def rollout(system, x_start, actions, disturbances) -> Array:
    """(n+1, k) states of the fold x_{j+1} = step(x_j, u_j, w_j) from x_0 = x_start.

    The state fold of an action window, which the window loss's value
    replays; its gradients come from the system's window_vjp. Actions
    (n, d) and disturbances (n, k) are taken as given; only unequal
    lengths raise a ValueError.
    """
    X = np.empty((len(actions) + 1, system.state_dim))
    X[0] = x_start
    for j, (u, w) in enumerate(zip(actions, disturbances, strict=True)):
        X[j + 1] = system.step(X[j], u, w)
    return X


def disturbance_hash(w_sequence: Array) -> str:
    """Stable digest of a disturbance stream, for paired-comparison checks."""
    w = np.ascontiguousarray(np.asarray(w_sequence, dtype=np.float64))
    return hashlib.sha256(w.tobytes()).hexdigest()


@dataclass
class Trajectory:
    """Per-step record of one episode.

    rollout(system, states[0], actions, disturbances) reproduces the
    recorded states.
    """

    states: Array  # (T+1, k)
    actions: Array  # (T, d)
    disturbances: Array  # (T, k)
    costs: Array  # (T,)
    algorithm: str = ""
    seed: int = 0
    diverged: bool = False
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        T = self.actions.shape[0]
        if self.states.shape[0] != T + 1 or self.disturbances.shape[0] != T or self.costs.shape[0] != T:
            raise ValueError("trajectory arrays have inconsistent lengths")

    @property
    def horizon(self) -> int:
        return self.actions.shape[0]

    def running_average(self) -> Array:
        return np.cumsum(self.costs) / np.arange(1, self.horizon + 1)
