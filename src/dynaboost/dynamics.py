"""Dynamical systems, the window replay, and per-episode records.

Systems expose the deterministic part f of x' = f(x, u) + w together with
its Jacobians, so the loss module can propagate forward sensitivities
through short rollouts without knowing the system family. `rollout` is the
one place that folds f over a window. Disturbance streams are drawn whole
before round 1, in `harness.runner.draw_disturbances`.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

# as_vector stays importable from this module: perfbench/spans.py counts
# its calls per importing module.
from dynaboost.core import Array, RngStream, as_matrix, as_vector  # noqa: F401


def spectral_radius_estimate(A, tol: float = 1e-9, max_iter: int = 200) -> float:
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
    for _ in range(max_iter):
        n = float(np.linalg.norm(M))
        if n == 0.0 or not math.isfinite(n):
            return 0.0 if n == 0.0 else float("nan")
        log_scale += math.log(n)
        est = math.exp(log_scale / power)
        if prev is not None and abs(est - prev) <= tol * max(1.0, est):
            return est
        prev = est
        M = (M / n) @ (M / n)
        log_scale *= 2.0
        power *= 2.0
    raise RuntimeError(f"spectral radius estimate did not converge within {max_iter} squarings")


class LinearSystem:
    """x' = A x + B u (+ w).

    A and B are validated here and fixed afterwards: f and step take
    length-k and length-d vectors as given, since they run inside the
    round loop, and the window operators are cached from A and B.
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

    def f(self, x, u) -> Array:
        return self.A @ x + self.B @ u

    def jacobians(self, x, u) -> tuple[Array, Array]:
        return self.A, self.B

    def step(self, x, u, w) -> Array:
        return self.A @ x + self.B @ u + w

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


def wrap_angle(theta: float) -> float:
    """Wrap to (-pi, pi]."""
    return math.pi - (math.pi - theta) % (2.0 * math.pi)


@dataclass
class PendulumSystem:
    """Torque-controlled inverted pendulum, fixed-step discrete dynamics.

    State is (theta, theta_dot) with theta measured from upright and wrapped
    to (-pi, pi]; the action is a scalar torque clipped to +-max_torque, and
    the angular velocity is clipped to +-max_speed. The additive disturbance
    w lands on both state coordinates after the deterministic step. Like
    LinearSystem's, the per-round methods read x and u as given.
    """

    g: float = 10.0
    m: float = 1.0
    l: float = 1.0
    dt: float = 0.05
    max_torque: float = 2.0
    max_speed: float = 8.0
    state_dim: ClassVar[int] = 2
    action_dim: ClassVar[int] = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.max_torque <= 0 or self.max_speed <= 0:
            raise ValueError("torque and speed caps must be positive")

    def _pre_clip(self, x, u) -> tuple[float, float]:
        """(theta, angular velocity before the speed clip) after one step from (x, u)."""
        theta, theta_dot = float(x[0]), float(x[1])
        torque = min(max(float(u[0]), -self.max_torque), self.max_torque)
        accel = 3.0 * self.g / (2.0 * self.l) * math.sin(theta) + 3.0 / (self.m * self.l**2) * torque
        return theta, theta_dot + accel * self.dt

    def f(self, x, u) -> Array:
        theta, pre_dot = self._pre_clip(x, u)
        new_dot = min(max(pre_dot, -self.max_speed), self.max_speed)
        new_theta = wrap_angle(theta + new_dot * self.dt)
        return np.array([new_theta, new_dot])

    def jacobians(self, x, u) -> tuple[Array, Array]:
        # Clip saturation zeroes the corresponding sensitivity; the angle
        # wrap has unit derivative almost everywhere.
        theta, pre_dot = self._pre_clip(x, u)
        torque_active = abs(float(u[0])) <= self.max_torque
        speed_active = abs(pre_dot) <= self.max_speed
        d_dot_d_theta = 3.0 * self.g / (2.0 * self.l) * math.cos(theta) * self.dt if speed_active else 0.0
        d_dot_d_dot = 1.0 if speed_active else 0.0
        d_dot_d_u = (
            3.0 / (self.m * self.l**2) * self.dt if (speed_active and torque_active) else 0.0
        )
        Jx = np.array(
            [
                [1.0 + self.dt * d_dot_d_theta, self.dt * d_dot_d_dot],
                [d_dot_d_theta, d_dot_d_dot],
            ]
        )
        Ju = np.array([[self.dt * d_dot_d_u], [d_dot_d_u]])
        return Jx, Ju

    def step(self, x, u, w) -> Array:
        return self.f(x, u) + w

    def linearization(self) -> tuple[Array, Array]:
        """(A, B) of the discrete map at the upright equilibrium."""
        return self.jacobians(np.zeros(2), np.zeros(1))


def random_lds(rng: RngStream, k: int, d: int, rho_target: float) -> LinearSystem:
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
    """(n+1, k) states of the fold x_{j+1} = f(x_j, u_j) + w_j from x_0 = x_start.

    The one replay of an action window: actions (n, d) and disturbances
    (n, k) are taken as given, since the window loss calls this inside the
    round loop; only unequal lengths raise a ValueError.
    """
    X = np.empty((len(actions) + 1, system.state_dim))
    X[0] = x_start
    for j, (u, w) in enumerate(zip(actions, disturbances, strict=True)):
        X[j + 1] = system.f(X[j], u) + w
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
    w_hash: str = ""
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
