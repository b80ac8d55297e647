"""Boosting meta-controllers over N weak learners.

Per round: act combines the learners' actions by the step-length
recursion u^i = (1 - eta_i) u^{i-1} + eta_i A_i, starting from u^0 = 0;
update takes the window-loss gradients at all N previous-level action
windows in one call, builds the levels' ResidualLoss stacked along a
leading level axis, and takes one step over all N levels at once. Two
variants: linear residuals (coefficient 0) with eta_i = 2/(i+1), and
proximal quadratic residuals (coefficient eta*beta/2) with the constant
step eta = alpha/beta.

SharedStep is that update for several learning policies at once: the
runner takes one per round for every policy of a run that learns.
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
    identically zero and anchors the recursion; anchors is the (N, H, d)
    view of rows 0..N-1, level i's residual anchor. act must precede update
    within each round; the runner keeps that order, so it is not checked.
    coefficients holds each level's residual curvature: 0 under dynaboost1,
    eta_i*beta/2 under dynaboost2. update is SharedStep of this booster
    alone, joined at each call (see controllers.LevelStack.join): GPC and
    recurrent learners of one family step as one LevelStack; other learners
    take their residuals one by one through receive_loss.
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
        self.anchors = self.level_windows[: self.N]
        # Learners that cannot share one stack fail here, not at the first update.
        LevelStack.joinable(self.learners)

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
        SharedStep([self]).step(window_loss, w_history)


class SharedStep:
    """One round's learning step for several learning policies, taken together.

    A learning policy exposes learners, anchors (an (L, H, d) view whose
    row i anchors learner i's residual) and coefficients ((L,) residual
    curvatures). The policies' learners are grouped by parameter layout, in
    policy order, and each group is joined into one controllers.LevelStack
    (see LevelStack.join). step asks the window loss for gradients once, at
    every policy's anchors concatenated, and takes one LevelStack.step per
    layout. Each row's arithmetic is that of its policy stepping alone.
    """

    def __init__(self, policies: list):
        groups: dict = {}
        for p in policies:
            # Learners outside the level stacks stay with their own policy.
            groups.setdefault(getattr(p.learners[0], "layout", p), []).append(p)
        self.policies = [p for group in groups.values() for p in group]
        self.coefficients = np.concatenate([p.coefficients for p in self.policies])[:, None, None]
        self.stacks = []
        start = 0
        for group in groups.values():
            learners = [c for p in group for c in p.learners]
            levels = LevelStack.join(learners) or _EachLevel(learners)
            self.stacks.append((levels, slice(start, start + len(learners))))
            start += len(learners)

    def step(self, window_loss, w_history) -> None:
        """window_loss.gradients takes an (L, H, d) stack; w_history as in DynaBoost.update."""
        anchors = np.concatenate([p.anchors for p in self.policies])
        grads = window_loss.gradients(anchors)
        for levels, rows in self.stacks:
            loss = ResidualLoss(grads[rows], anchors[rows], self.coefficients[rows])
            levels.step(loss, w_history)


class _EachLevel:
    """Learners with no level stack: each receives its own row of the stacked residual."""

    def __init__(self, learners: list):
        self.learners = learners

    def step(self, loss: ResidualLoss, w_history) -> None:
        rows = zip(self.learners, loss.gradients, loss.anchors, loss.coefficient.ravel())
        for learner, grads, anchors, coefficient in rows:
            learner.receive_loss(ResidualLoss(grads, anchors, coefficient), w_history)
