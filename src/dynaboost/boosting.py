"""Boosting meta-controllers over N weak learners.

Per round: act combines the learners' actions by the step-length
recursion u^i = (1 - eta_i) u^{i-1} + eta_i A_i, starting from u^0 = 0;
update hands each learner i a residual loss built from the window-loss
gradients at the previous level's action window. Two variants: linear
residuals with eta_i = 2/(i+1), and proximal quadratic residuals with
the constant step eta = alpha/beta.
"""

from __future__ import annotations

import numpy as np

# as_vector stays importable from this module: perfbench/spans.py counts
# its calls per importing module.
from dynaboost.core import Array, Window, as_vector  # noqa: F401
from dynaboost.losses import CurvatureBounds, LinearResidualLoss, QuadraticResidualLoss

VARIANTS = ("dynaboost1", "dynaboost2")


def step_lengths(variant: str, N: int, curvature: CurvatureBounds | None = None) -> Array:
    """Per-level steps: 2/(i+1) for the linear variant, alpha/beta for the quadratic."""
    if N < 1:
        raise ValueError("need at least one weak learner")
    if variant == "dynaboost1":
        return np.array([2.0 / (i + 1.0) for i in range(1, N + 1)])
    if variant == "dynaboost2":
        if curvature is None:
            raise ValueError("dynaboost2 needs curvature bounds (alpha, beta)")
        return np.full(N, curvature.alpha / curvature.beta)
    raise ValueError(f"unknown variant {variant!r}")


def combination_weights(N: int) -> Array:
    """Closed form of the linear-variant recursion: level i's action gets 2i/(N(N+1))."""
    if N < 1:
        raise ValueError("need at least one weak learner")
    i = np.arange(1, N + 1, dtype=np.float64)
    return 2.0 * i / (N * (N + 1.0))


class DynaBoost:
    """Convex-combination booster with per-level action windows.

    Level windows hold the last H partial actions u^0..u^N; level 0 is
    identically zero and anchors the recursion. act must precede update
    within each round.
    """

    def __init__(
        self,
        learners: list,
        H: int,
        variant: str = "dynaboost1",
        curvature: CurvatureBounds | None = None,
    ):
        if not learners:
            raise ValueError("need at least one weak learner")
        if H < 1:
            raise ValueError("memory length must be >= 1")
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.learners = list(learners)
        self.N = len(self.learners)
        self.H = H
        self.variant = variant
        self.curvature = curvature
        self.etas = step_lengths(variant, self.N, curvature)
        self.action_dim = self.learners[0].action_ball.dim
        self.level_windows = [Window(H, self.action_dim) for _ in range(self.N + 1)]
        self.last_partials: Array | None = None
        self._acts = 0
        self._updates = 0

    def act(self, obs) -> Array:
        partials = np.zeros((self.N + 1, self.action_dim))
        u = np.zeros(self.action_dim)
        for i, (eta, learner) in enumerate(zip(self.etas, self.learners), start=1):
            u = (1.0 - eta) * u + eta * learner.act(obs)
            partials[i] = u
        for window, u_i in zip(self.level_windows, partials):
            window.push(u_i)
        self.last_partials = partials
        self._acts += 1
        return partials[self.N].copy()

    def update(self, window_loss, w_history) -> None:
        """Build per-level residual losses from window_loss and dispatch them.

        window_loss must expose gradients(actions) over an (H, d) window;
        w_history is the (2H-1, k) disturbance history forwarded to each
        learner.
        """
        if self._updates >= self._acts:
            raise RuntimeError("update called before act in this round")
        self._updates += 1
        for i in range(1, self.N + 1):
            anchor = self.level_windows[i - 1].view()
            grads = window_loss.gradients(anchor)
            if self.variant == "dynaboost1":
                loss = LinearResidualLoss(grads)
            else:
                coeff = 0.5 * self.etas[i - 1] * self.curvature.beta
                loss = QuadraticResidualLoss(grads, anchors=anchor, coefficient=coeff)
            self.learners[i - 1].receive_loss(loss, w_history)
