"""Booster recursion, combination weights, and residual-loss dispatch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynaboost.boosting import DynaBoost, SharedStep, combination_weights, step_lengths
from dynaboost.controllers import GpcController, Observation
from dynaboost.core import BallSet
from dynaboost.dynamics import LinearSystem
from dynaboost.harness.experiments import correlated_suite, sanity_suite
from dynaboost.harness.runner import build_experiment, build_policies, draw_disturbances
from dynaboost.losses import (
    CurvatureBounds,
    ProxyLoss,
    QuadraticCost,
    ResidualLoss,
)


class FixedLearner:
    """Always plays a constant action; records every residual loss it receives."""

    def __init__(self, action, radius=10.0, H=2):
        self.action = np.atleast_1d(np.asarray(action, dtype=np.float64))
        self.action_ball = BallSet(radius=radius, dim=self.action.size)
        self.H = H
        self.received = []

    def act(self, window):
        return self.action

    def receive_loss(self, loss, w_history):
        self.received.append((loss, np.asarray(w_history)))


def scalar_obs(H=2):
    return Observation(state=np.zeros(1), disturbances=np.zeros((H, 1)))


class TestStepLengths:
    def test_linear_variant_harmonic(self):
        assert np.allclose(step_lengths(3), [1.0, 2.0 / 3.0, 0.5])

    def test_single_learner_step_is_one(self):
        assert np.array_equal(step_lengths(1), [1.0])

    def test_quadratic_variant_constant(self):
        curv = CurvatureBounds(alpha=1.0, beta=4.0)
        assert np.allclose(step_lengths(4, curv), [0.25] * 4)

    def test_alpha_above_beta_rejected_upstream(self):
        # eta = alpha/beta > 1 is impossible because the bounds type refuses it
        with pytest.raises(ValueError):
            CurvatureBounds(alpha=2.0, beta=1.0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            step_lengths(0)


class TestCombinationWeights:
    def test_single(self):
        assert np.array_equal(combination_weights(1), [1.0])

    def test_three(self):
        assert np.allclose(combination_weights(3), [1.0 / 6.0, 1.0 / 3.0, 0.5])

    def test_five(self):
        assert np.allclose(combination_weights(5), np.arange(1, 6) / 15.0)

    @given(st.integers(1, 40))
    def test_sums_to_one(self, N):
        w = combination_weights(N)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w > 0.0)
        assert np.all(np.diff(w) > 0.0)  # later levels weigh more


class TestBoostAct:
    def test_hand_recursion(self):
        booster = DynaBoost([FixedLearner(a) for a in (3.0, 0.0, 6.0)])
        out = booster.act(scalar_obs())
        assert booster.anchors[:, -1, 0] == pytest.approx([0.0, 3.0, 1.0])
        assert out[0] == pytest.approx(3.5)

    def test_hand_recursion_matches_closed_form(self):
        actions = np.array([3.0, 0.0, 6.0])
        booster = DynaBoost([FixedLearner(a) for a in actions])
        out = booster.act(scalar_obs())
        assert out[0] == pytest.approx(float(combination_weights(3) @ actions), abs=1e-12)

    def test_identical_actions_pass_through(self):
        # holds for the harmonic steps (weights sum to 1) and for constant
        # steps with alpha = beta; smaller eta leaves (1-eta)^N on the anchor
        for curv in (None, CurvatureBounds(alpha=2.0, beta=2.0)):
            booster = DynaBoost([FixedLearner([0.7, -0.2], H=3) for _ in range(4)], curv)
            out = booster.act(Observation(state=np.zeros(1), disturbances=np.zeros((3, 1))))
            assert np.allclose(out, [0.7, -0.2], atol=1e-12)

    def test_constant_step_anchor_retention(self):
        eta = 0.5
        curv = CurvatureBounds(alpha=1.0, beta=2.0)
        booster = DynaBoost([FixedLearner(0.7) for _ in range(4)], curv)
        out = booster.act(scalar_obs())
        assert out[0] == pytest.approx((1.0 - (1.0 - eta) ** 4) * 0.7, abs=1e-12)

    def test_single_learner_collapses(self):
        booster = DynaBoost([FixedLearner(-1.25)])
        assert booster.act(scalar_obs())[0] == pytest.approx(-1.25)

    def test_output_bounded_by_largest_action(self):
        booster = DynaBoost([FixedLearner(a) for a in (-2.0, 5.0, 1.0, -3.0)])
        out = booster.act(scalar_obs())
        assert abs(out[0]) <= 5.0

    def test_level_zero_window_stays_zero(self):
        booster = DynaBoost([FixedLearner(2.0, H=3)])
        for _ in range(5):
            booster.act(scalar_obs())
        assert np.array_equal(booster.anchors[0], np.zeros((3, 1)))

    def test_level_windows_record_partials(self):
        booster = DynaBoost([FixedLearner(a) for a in (3.0, 0.0, 6.0)])
        first = booster.act(scalar_obs())
        partials = booster.anchors[:, -1].copy()
        second = booster.act(scalar_obs())
        for level in range(3):
            window = booster.anchors[level]
            assert window[-1, 0] == pytest.approx(partials[level, 0])
            assert window[-2, 0] == pytest.approx(partials[level, 0])
        assert np.array_equal(first, second)

    def test_returned_action_is_a_copy(self):
        learners = [FixedLearner(1.0) for _ in range(2)]
        booster = DynaBoost(learners)
        out = booster.act(scalar_obs())
        out[0] = 99.0
        assert booster.anchors[1, -1, 0] == pytest.approx(1.0)
        assert [c.action[0] for c in learners] == [1.0, 1.0]
        assert booster.act(scalar_obs())[0] == pytest.approx(1.0)

    @given(st.integers(1, 20), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_weight_identity(self, N, seed):
        rng = np.random.default_rng(seed)
        actions = rng.standard_normal((N, 3))
        booster = DynaBoost([FixedLearner(a) for a in actions])
        out = booster.act(Observation(state=np.zeros(1), disturbances=np.zeros((2, 1))))
        expected = combination_weights(N) @ actions
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_constant_step_recursion(self):
        curv = CurvatureBounds(alpha=1.0, beta=4.0)
        booster = DynaBoost([FixedLearner(a) for a in (4.0, -4.0)], curv)
        out = booster.act(scalar_obs())
        # u^1 = 0.25*4 = 1, u^2 = 0.75*1 + 0.25*(-4) = -0.25
        assert booster.anchors[:, -1, 0] == pytest.approx([0.0, 1.0])
        assert out[0] == pytest.approx(-0.25)


class NoisyLearner(FixedLearner):
    """Plays a fresh standard normal draw every round."""

    def __init__(self, rng, dim=2, H=2):
        super().__init__(np.zeros(dim), H=H)
        self.rng = rng

    def act(self, window):
        self.action = self.rng.standard_normal(self.action.size)
        return self.action


class TestLevelWindows:
    @pytest.mark.parametrize("rounds", [0, 2, 7])
    def test_holds_last_H_partials(self, rounds):
        # Row i holds u^i of the last H acts, oldest first, zero-padded
        # before H acts: empty, partly filled, and after evictions. The
        # played action u^N is act's return value, one recursion step on.
        rng = np.random.default_rng(rounds)
        learners = [NoisyLearner(rng, H=3) for _ in range(3)]
        booster = DynaBoost(learners)
        history = [np.zeros((3, 2))] * 3
        for _ in range(rounds):
            played = booster.act(scalar_obs(3))
            history.append(booster.anchors[:, -1].copy())
            eta = booster.etas[-1]
            want = (1.0 - eta) * booster.anchors[-1, -1] + eta * learners[-1].action
            assert np.array_equal(played, want)
        for i in range(3):
            assert np.array_equal(booster.anchors[i], np.array(history[-3:])[:, i])
        assert not booster.anchors[0].any()

    def test_update_anchor_is_a_copy(self):
        curv = CurvatureBounds(alpha=1.0, beta=4.0)
        rng = np.random.default_rng(1)
        learners = [NoisyLearner(rng, dim=1) for _ in range(2)]
        booster = DynaBoost(learners, curv)
        booster.act(scalar_obs())
        before = booster.anchors.copy()
        booster.update(RecordingWindowLoss(), np.zeros((3, 1)))
        booster.act(scalar_obs())
        for i, learner in enumerate(learners, start=1):
            loss, _ = learner.received[-1]
            assert np.array_equal(loss.anchors, before[i - 1])


class RecordingWindowLoss:
    """gradients(window) = window + 1, so each level's residual is identifiable."""

    def gradients(self, actions):
        return np.asarray(actions, dtype=np.float64) + 1.0


class TestBoostUpdate:
    def test_linear_dispatch_uses_previous_level_window(self):
        learners = [FixedLearner(a) for a in (2.0, -1.0, 0.5)]
        booster = DynaBoost(learners)
        booster.act(scalar_obs())
        booster.act(scalar_obs())
        hist = np.arange(3.0).reshape(3, 1)
        booster.update(RecordingWindowLoss(), hist)
        assert booster.variant == "dynaboost1"
        for i, learner in enumerate(learners, start=1):
            loss, seen_hist = learner.received[-1]
            assert isinstance(loss, ResidualLoss) and loss.coefficient == 0.0
            anchor = booster.anchors[i - 1]
            assert np.allclose(loss.gradients, anchor + 1.0)
            assert np.array_equal(seen_hist, hist)

    def test_quadratic_dispatch_coefficient_and_anchor(self):
        curv = CurvatureBounds(alpha=1.0, beta=4.0)
        learners = [FixedLearner(a) for a in (2.0, -1.0)]
        booster = DynaBoost(learners, curv)
        booster.act(scalar_obs())
        booster.update(RecordingWindowLoss(), np.zeros((3, 1)))
        assert booster.variant == "dynaboost2"
        for i, learner in enumerate(learners, start=1):
            loss, _ = learner.received[-1]
            assert isinstance(loss, ResidualLoss)
            assert loss.coefficient == pytest.approx(0.5 * 0.25 * 4.0)
            assert np.allclose(loss.anchors, booster.anchors[i - 1])

    def test_scalar_lds_gradient_dispatch(self):
        # replayed window (1, 2) with w=0 on x' = 0.5x + u gives truncated
        # state 1, so the slot gradients are (2*1*1, 2*2) = (2, 4)
        system = LinearSystem([[0.5]], [[1.0]])
        cost = QuadraticCost.identity(1, 1)
        proxy = ProxyLoss(system, cost, disturbances=np.zeros((1, 1)))
        learner = FixedLearner(0.0)
        booster = DynaBoost([learner])
        booster.act(scalar_obs())
        booster.anchors[0] = [[1.0], [2.0]]
        booster.update(proxy, np.zeros((3, 1)))
        loss, _ = learner.received[-1]
        assert np.allclose(loss.gradients, [[2.0], [4.0]])

    def test_zero_partials_zero_disturbance_zero_gradients(self):
        system = LinearSystem([[0.5]], [[1.0]])
        cost = QuadraticCost.identity(1, 1)
        proxy = ProxyLoss(system, cost, disturbances=np.zeros((1, 1)))
        learners = [FixedLearner(0.0) for _ in range(3)]
        booster = DynaBoost(learners)
        booster.act(scalar_obs())
        booster.update(proxy, np.zeros((3, 1)))
        for learner in learners:
            loss, _ = learner.received[-1]
            assert np.array_equal(loss.gradients, np.zeros((2, 1)))

    def test_quadratic_loss_zero_at_own_anchor(self):
        curv = CurvatureBounds(alpha=1.0, beta=2.0)
        learner = FixedLearner(1.5)
        booster = DynaBoost([learner], curv)
        booster.act(scalar_obs())
        booster.update(RecordingWindowLoss(), np.zeros((3, 1)))
        loss, _ = learner.received[-1]
        assert loss.value(loss.anchors) == pytest.approx(0.0, abs=1e-15)


class TestHeldSharedStep:
    @pytest.mark.parametrize("name", ["sanity_d1", "walk_rnn"])
    def test_update_leaves_a_held_shared_step_training_the_booster(self, name):
        # update steps the learners where they are, so a run's shared step
        # made before it still backs the booster's act after it.
        cfg = next(c for c in (*sanity_suite(runs=1), *correlated_suite(runs=1)) if c.name == name)
        system, cost, derived = build_experiment(cfg)
        booster, single = build_policies(cfg, system, cost, 0, derived)[:2]
        shared = SharedStep([booster, single])
        H, k = cfg.H, system.state_dim
        w = draw_disturbances(cfg, k, 0)
        for t in range(2 * H - 1, 2 * H + 2):
            hist = w[t - 2 * H + 1 : t]
            ob = Observation(np.zeros(k), hist[H - 1 :])
            booster.act(ob)
            single.act(ob)
            window_loss = ProxyLoss(system, cost, hist[H:])
            booster.update(window_loss, hist)
            before = booster.act(ob)
            shared.step(window_loss, hist)
            assert not np.array_equal(booster.act(ob), before)


class TestConstruction:
    def test_empty_learner_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            DynaBoost([])

    def test_learners_that_cannot_share_a_stack_rejected(self):
        ball = BallSet(1.0, 1)
        with pytest.raises(ValueError, match="share"):
            DynaBoost([GpcController(1, 2, ball), GpcController(1, 3, ball)])


class FrozenQuadTarget:
    """Window loss for the stationary objective |u - u_star|^2 per slot."""

    def __init__(self, u_star):
        self.u_star = np.atleast_1d(np.asarray(u_star, dtype=np.float64))

    def gradients(self, actions):
        return 2.0 * (np.atleast_2d(actions) - self.u_star)

    def excess(self, u):
        return float(np.sum((u - self.u_star) ** 2))


class QuadOracleLearner:
    """Plays the exact minimizer of the last quadratic residual it received."""

    def __init__(self, dim, radius, H=1):
        self.action_ball = BallSet(radius=radius, dim=dim)
        self.H = H
        self._best = np.zeros(dim)

    def act(self, window):
        return self._best.copy()

    def receive_loss(self, loss, w_history):
        u = loss.anchors[-1] - loss.gradients[-1] / (2.0 * loss.coefficient)
        n = np.linalg.norm(u)
        if n > self.action_ball.radius:
            u = u * (self.action_ball.radius / n)
        self._best = u


class TestOracleContraction:
    def test_per_level_geometric_decay(self):
        # eta = alpha/beta = 0.25; oracle learners recover the target exactly,
        # so level i's excess is (1 - eta)^(2i) of the initial one
        target = FrozenQuadTarget([0.6, -0.3])
        curv = CurvatureBounds(alpha=2.0, beta=8.0)
        N = 10
        learners = [QuadOracleLearner(dim=2, radius=1.0) for _ in range(N)]
        booster = DynaBoost(learners, curv)
        obs = Observation(state=np.zeros(1), disturbances=np.zeros((1, 1)))
        for _ in range(2):
            booster.act(obs)
            booster.update(target, np.zeros((1, 1)))
        levels = [*booster.anchors[:, -1], booster.act(obs)]
        initial = target.excess(levels[0])
        for i in range(1, N + 1):
            excess = target.excess(levels[i])
            assert excess <= (0.75**i) * initial + 1e-9
