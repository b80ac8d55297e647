"""Boosting meta-controllers over N weak learners.

Per round: act combines the learners' actions by the step-length
recursion u^i = (1 - eta_i) u^{i-1} + eta_i A_i, starting from u^0 = 0;
update is the paper's per-level loop: one window-loss gradients call at
the N level anchors u^0..u^{N-1}, then each level receives its own
ResidualLoss and steps. Two variants: linear residuals (coefficient 0)
with eta_i = 2/(i+1), and proximal quadratic residuals (coefficient
eta*beta/2) with the constant step eta = alpha/beta.

SharedStep is the run's batched form of that loop, bit for bit: the
runner takes one per round for every policy of a run that learns, one
level-stack step per parameter layout.
"""

from __future__ import annotations

import numpy as np

# as_vector stays importable from this module: perfbench/spans.py counts
# its calls per importing module.
from dynaboost.controllers import LevelStack
from dynaboost.core import Array, as_vector, push_window  # noqa: F401
from dynaboost.losses import CurvatureBounds, ResidualLoss


def step_lengths(N: int, curvature: CurvatureBounds | None = None) -> Array:
    """Per-level steps: 2/(i+1) without curvature bounds (dynaboost1), alpha/beta with them."""
    if N < 1:
        raise ValueError("need at least one weak learner")
    if curvature is None:
        return np.array([2.0 / (i + 1.0) for i in range(1, N + 1)])
    return np.full(N, curvature.alpha / curvature.beta)


def combination_weights(N: int) -> Array:
    """Closed form of the linear-variant recursion: level i's action gets 2i/(N(N+1))."""
    if N < 1:
        raise ValueError("need at least one weak learner")
    i = np.arange(1, N + 1, dtype=np.float64)
    return 2.0 * i / (N * (N + 1.0))


class DynaBoost:
    """Convex-combination booster with per-level action windows.

    H is the learners' memory and the step lengths come from the curvature
    bounds: variant reads dynaboost2 when they are given, else dynaboost1.
    anchors is one (N, H, d) array: row i holds the last H partial actions
    u^i, oldest first and zero-padded at the start, and anchors level
    i + 1's residual. Row 0 is identically zero; act returns u^N, the
    played action, which no level anchors on. act must precede update
    within each round; the runner keeps that order, so it is not checked.
    coefficients holds each level's residual curvature: 0 under dynaboost1,
    eta_i*beta/2 under dynaboost2. Learners with a parameter layout must
    share one (controllers.LevelStack.check_layouts), so that a run can
    step them as one stack; the acceptance oracles have none and take
    their residuals only through update.
    """

    name = "boosted"

    def __init__(self, learners: list, curvature: CurvatureBounds | None = None):
        self.learners = list(learners)
        self.N = len(self.learners)
        self.etas = step_lengths(self.N, curvature)  # rejects an empty list
        self.variant = "dynaboost1" if curvature is None else "dynaboost2"
        self.coefficients = np.zeros(self.N) if curvature is None else 0.5 * self.etas * curvature.beta
        self.action_dim = self.learners[0].action_ball.dim
        self.anchors = np.zeros((self.N, self.learners[0].H, self.action_dim))
        # Learners that cannot share one stack fail here, not at a run's first step.
        if any(hasattr(c, "layout") for c in self.learners):
            LevelStack.check_layouts(self.learners)

    def act(self, obs) -> Array:
        partials = np.zeros((self.N, self.action_dim))
        u = np.zeros(self.action_dim)
        for i, (eta, learner) in enumerate(zip(self.etas, self.learners)):
            partials[i] = u
            u = (1.0 - eta) * u + eta * learner.act(obs.disturbances)
        push_window(self.anchors, partials)
        return u

    def update(self, window_loss, w_history) -> None:
        """Each level receives its residual loss and steps, as in the paper's Algorithm 1.

        window_loss must expose gradients(actions) over an (N, H, d) stack
        of windows; it is called once, at a copy of the N level anchors,
        which the levels keep as their residuals' anchors. w_history is the
        (2H-1, k) disturbance history forwarded to every level.
        """
        anchors = self.anchors.copy()
        grads = window_loss.gradients(anchors)
        for learner, g, a, c in zip(self.learners, grads, anchors, self.coefficients):
            learner.receive_loss(ResidualLoss(g, a, c), w_history)


class SharedStep:
    """DynaBoost.update's batched form, bit for bit, for several learning policies at once.

    A learning policy exposes learners, anchors (an (L, H, d) array whose
    row i anchors learner i's residual) and coefficients ((L,) residual
    curvatures). The policies' learners are grouped by parameter layout, in
    policy order, and each group is joined into one controllers.LevelStack
    (see LevelStack.join). step asks the window loss for gradients once, at
    every policy's anchors concatenated, and takes one LevelStack.step per
    layout. Each row's arithmetic is that of its level stepping alone.
    """

    def __init__(self, policies: list):
        groups: dict = {}
        for p in policies:
            groups.setdefault(p.learners[0].layout, []).append(p)
        self.policies = [p for group in groups.values() for p in group]
        self.coefficients = np.concatenate([p.coefficients for p in self.policies])[:, None, None]
        self.stacks = []
        start = 0
        for group in groups.values():
            learners = [c for p in group for c in p.learners]
            self.stacks.append((LevelStack.join(learners), slice(start, start + len(learners))))
            start += len(learners)

    def step(self, window_loss, w_history) -> None:
        """window_loss.gradients takes an (L, H, d) stack; w_history as in DynaBoost.update."""
        anchors = np.concatenate([p.anchors for p in self.policies])
        grads = window_loss.gradients(anchors)
        for levels, rows in self.stacks:
            loss = ResidualLoss(grads[rows], anchors[rows], self.coefficients[rows])
            levels.step(loss, w_history)
