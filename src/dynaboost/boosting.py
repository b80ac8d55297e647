"""Boosting meta-controllers over N weak learners.

Per round: act combines the learners' actions by the step-length
recursion u^i = (1 - eta_i) u^{i-1} + eta_i A_i, starting from u^0 = 0;
update takes the window-loss gradients at all N previous-level action
windows in one call, builds the levels' ResidualLoss stacked along a
leading level axis, and takes one step over all N levels at once. Two
variants: linear residuals (coefficient 0) with eta_i = 2/(i+1), and
proximal quadratic residuals (coefficient eta*beta/2) with the constant
step eta = alpha/beta.
"""

from __future__ import annotations

import numpy as np

# as_vector stays importable from this module: perfbench/spans.py counts
# its calls per importing module.
from dynaboost.controllers import LevelStack
from dynaboost.core import Array, as_vector, push_window, zero_window  # noqa: F401
from dynaboost.losses import CurvatureBounds, ResidualLoss


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

    level_windows is one (N+1, H, d) array: row i holds the last H partial
    actions u^i, oldest first and zero-padded at the start. Level 0 is
    identically zero and anchors the recursion. act must precede update
    within each round; the runner keeps that order, so it is not checked.
    coefficients holds each level's residual curvature: 0 under dynaboost1,
    eta_i*beta/2 under dynaboost2. GPC and recurrent learners of one family
    are joined into one controllers.LevelStack, whose step updates every
    level at once; other learners take their residuals one by one through
    receive_loss.
    """

    name = "boosted"

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
        self.learners = list(learners)
        self.N = len(self.learners)
        self.H = H
        self.variant = variant
        self.etas = step_lengths(variant, self.N, curvature)
        self.coefficients = (
            0.5 * self.etas * curvature.beta if variant == "dynaboost2" else np.zeros(self.N)
        )
        self.action_dim = self.learners[0].action_ball.dim
        self.level_windows = zero_window(H, self.action_dim, self.N + 1)
        self.levels = LevelStack.join(self.learners) or _EachLevel(self.learners)

    def act(self, obs) -> Array:
        partials = np.zeros((self.N + 1, self.action_dim))
        u = np.zeros(self.action_dim)
        for i, (eta, learner) in enumerate(zip(self.etas, self.learners), start=1):
            u = (1.0 - eta) * u + eta * learner.act(obs)
            partials[i] = u
        push_window(self.level_windows, partials)
        return partials[self.N].copy()

    def update(self, window_loss, w_history) -> None:
        """Build the levels' residual losses from window_loss and step the levels.

        window_loss must expose gradients(actions) over an (N, H, d) stack
        of windows, called once per round on all N level anchors;
        w_history is the (2H-1, k) disturbance history forwarded to the
        levels' step.
        """
        anchors = self.level_windows[: self.N].copy()
        grads = window_loss.gradients(anchors)
        coefficients = self.coefficients[:, None, None]
        self.levels.step(ResidualLoss(grads, anchors, coefficients), w_history)


class _EachLevel:
    """Learners with no level stack: each receives its own row of the stacked residual."""

    def __init__(self, learners: list):
        self.learners = learners

    def step(self, loss: ResidualLoss, w_history) -> None:
        rows = zip(self.learners, loss.gradients, loss.anchors, loss.coefficient.ravel())
        for learner, grads, anchors, coefficient in rows:
            learner.receive_loss(ResidualLoss(grads, anchors, coefficient), w_history)
