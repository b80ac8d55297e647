"""Weak controllers: GPC, recurrent nets, LQR, and the Riccati solver."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynaboost.boosting import DynaBoost, SharedStep
from dynaboost.controllers import (
    ElmanCell,
    GpcController,
    LqrController,
    LstmCell,
    Observation,
    RecurrentController,
    LevelStack,
    ZeroController,
    _raw_outputs,
    solve_dare,
)
from dynaboost.core import BallSet, project_slots, random_stream
from dynaboost.dynamics import LinearSystem, PendulumSystem
from dynaboost.losses import CurvatureBounds, ProxyLoss, QuadraticCost, ResidualLoss


def linear_loss(g):
    """The dynaboost1 residual sum_j g_j'u_j: coefficient 0, zero anchors."""
    return ResidualLoss(g, np.zeros_like(g))


def obs(state, window):
    return Observation(state=np.atleast_1d(state), disturbances=window)


class TestZeroController:
    def test_always_zero(self):
        ctrl = ZeroController(BallSet(radius=1.0, dim=3))
        out = ctrl.act(obs(np.ones(2), np.ones((4, 2))))
        assert np.array_equal(out, np.zeros(3))


class TestGpcAct:
    def test_zero_parameters_zero_action(self):
        ctrl = GpcController(state_dim=2, H=3, action_ball=BallSet(radius=5.0, dim=2))
        out = ctrl.act(np.ones((3, 2)))
        assert np.array_equal(out, np.zeros(2))

    def test_scalar_two_tap_evaluation(self):
        # M^1 pairs with the most recent disturbance, M^2 with the one before.
        ctrl = GpcController(state_dim=1, H=2, action_ball=BallSet(radius=5.0, dim=1))
        ctrl.M[...] = np.array([0.5, 0.25]).reshape(2, 1, 1)
        window = np.array([[-2.0], [1.0]])  # oldest first: w_{t-2}, w_{t-1}
        out = ctrl.act(window)
        assert out == pytest.approx(0.5 * 1.0 + 0.25 * (-2.0), abs=1e-15)

    def test_window_shape_mismatch_rejected(self):
        ctrl = GpcController(state_dim=1, H=2, action_ball=BallSet(radius=1.0, dim=1))
        with pytest.raises(ValueError):
            ctrl.act(np.zeros((3, 1)))

    def test_output_projected_into_ball(self):
        ctrl = GpcController(state_dim=1, H=1, action_ball=BallSet(radius=0.5, dim=1))
        ctrl.M[...] = np.full((1, 1, 1), 10.0)
        out = ctrl.act(np.array([[1.0]]))
        assert abs(float(out[0])) == pytest.approx(0.5)


class TestGpcUpdate:
    def _scalar(self, lr, schedule="constant", radius=10.0, R_M=10.0):
        return GpcController(
            state_dim=1,
            H=1,
            action_ball=BallSet(radius=radius, dim=1),
            lr=lr,
            lr_schedule=schedule,
            R_M=R_M,
        )

    def test_zero_gradient_leaves_m(self):
        ctrl = GpcController(state_dim=1, H=3, action_ball=BallSet(radius=1.0, dim=1))
        ctrl.M[...] = np.arange(3.0).reshape(3, 1, 1)
        before = ctrl.M.copy()
        ctrl.receive_loss(linear_loss(np.zeros((3, 1))), np.zeros((5, 1)))
        assert np.array_equal(ctrl.M, before)

    def test_hand_update_single_tap(self):
        # grad 2, disturbance 3, step 0.1: M goes from 1 to 1 - 0.1*6 = 0.4.
        ctrl = self._scalar(lr=0.1)
        ctrl.M[...] = np.ones((1, 1, 1))
        ctrl.receive_loss(linear_loss(np.array([[2.0]])), np.array([[3.0]]))
        assert ctrl.M.item() == pytest.approx(0.4, abs=1e-14)

    def test_default_lr_used_when_unset(self):
        ctrl = GpcController(
            state_dim=1, H=1, action_ball=BallSet(radius=10.0, dim=1), lr_schedule="constant"
        )
        ctrl.M[...] = np.ones((1, 1, 1))
        ctrl.receive_loss(linear_loss(np.array([[2.0]])), np.array([[3.0]]))
        assert ctrl.M.item() == pytest.approx(1.0 - 0.3 * 6.0, abs=1e-14)

    def test_sqrt_schedule_decays(self):
        ctrl = self._scalar(lr=0.1, schedule="sqrt")
        ctrl.M[...] = np.ones((1, 1, 1))
        loss = linear_loss(np.array([[2.0]]))
        hist = np.array([[3.0]])
        ctrl.receive_loss(loss, hist)  # step 0.1
        ctrl.receive_loss(loss, hist)  # step 0.1/sqrt(2), same gradient
        expected = 1.0 - 0.6 - 0.6 / math.sqrt(2.0)
        assert ctrl.M.item() == pytest.approx(expected, abs=1e-12)

    def test_frobenius_projection_tight(self):
        ctrl = self._scalar(lr=1.0, R_M=0.1)
        ctrl.receive_loss(linear_loss(np.array([[5.0]])), np.array([[3.0]]))
        assert float(np.linalg.norm(ctrl.M)) == pytest.approx(0.1, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        # FD of the residual loss composed with the projected action map,
        # including slots where the raw action saturates the ball.
        H, k, d = 3, 2, 2
        ball = BallSet(radius=1.0, dim=d)
        ctrl = GpcController(state_dim=k, H=H, action_ball=ball, lr=1.0, R_M=1e6)
        ctrl.lr_schedule = "constant"
        ctrl.M[...] = 0.8 * random_stream(7, 0).standard_normal((H, d, k))
        hist = random_stream(7, 1).standard_normal((2 * H - 1, k))
        grads = random_stream(7, 2).standard_normal((H, d))
        loss = linear_loss(grads)

        def composed(M_flat):
            M = M_flat.reshape(H, d, k)
            total = 0.0
            for j in range(H):
                win = hist[j : j + H]
                raw = np.einsum("mdk,mk->d", M, win[::-1])
                total += float(grads[j] @ (raw * min(1.0, ball.radius / np.linalg.norm(raw))))
            return total

        base = ctrl.M.copy()
        # raw actions must sit away from the projection kink for central FD
        for j in range(H):
            raw = np.einsum("mdk,mk->d", base, hist[j : j + H][::-1])
            assert abs(np.linalg.norm(raw) - ball.radius) > 1e-3
        ctrl.receive_loss(loss, hist)
        applied = (base - ctrl.M).ravel()  # step is 1.0, no Frobenius hit
        h = 1e-6
        fd = np.zeros(base.size)
        flat = base.ravel()
        for i in range(base.size):
            up, dn = flat.copy(), flat.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (composed(up) - composed(dn)) / (2 * h)
        assert np.linalg.norm(applied - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_frobenius_ball_invariant(self, seed):
        ctrl = GpcController(
            state_dim=2, H=2, action_ball=BallSet(radius=1.0, dim=2), lr=5.0, R_M=0.7
        )
        ctrl.lr_schedule = "constant"
        for child in range(3):
            g = random_stream(seed, child).standard_normal((2, 2))
            hist = random_stream(seed, 10 + child).standard_normal((3, 2))
            ctrl.receive_loss(linear_loss(g), hist)
            assert np.linalg.norm(ctrl.M) <= ctrl.radius + 1e-12

    def test_nonfinite_gradient_skipped_and_counted(self):
        ctrl = GpcController(state_dim=2, H=3, action_ball=BallSet(radius=1.0, dim=2), lr=0.5)
        ctrl.M[...] = random_stream(3).standard_normal((3, 2, 2))
        before = ctrl.M.copy()
        with pytest.warns(UserWarning, match="non-finite gradient"):
            ctrl.receive_loss(_NanLoss(), np.ones((5, 2)))
        assert np.array_equal(ctrl.M, before)
        assert ctrl.skipped_updates == 1


class TestRecurrentForward:
    def _ctrl(self, **kw):
        defaults = dict(
            input_dim=1,
            H=3,
            action_ball=BallSet(radius=10.0, dim=1),
            rng=random_stream(3),
            hidden_dim=1,
        )
        defaults.update(kw)
        return RecurrentController(**defaults)

    def test_zero_weights_zero_action(self):
        ctrl = self._ctrl()
        ctrl.params[...] = 0.0
        out = ctrl.act(np.array([[1.0], [2.0], [3.0]]))
        assert np.array_equal(out, np.zeros(1))

    def test_tanh_pass_through(self):
        # identity input weight, no recurrence: action = tanh(last disturbance)
        ctrl = self._ctrl()
        # weights are views into the parameter vector: write them in place
        ctrl.weights["W_x"][...] = 1.0
        ctrl.weights["W_h"][...] = 0.0
        ctrl.weights["b_h"][...] = 0.0
        ctrl.weights["W_o"][...] = 1.0
        ctrl.weights["b_o"][...] = 0.0
        out = ctrl.act(np.array([[0.0], [0.0], [0.5]]))
        assert float(out[0]) == pytest.approx(math.tanh(0.5), abs=1e-12)

    def test_fresh_controller_starts_at_zero_action(self):
        # zero output head: an untrained net is exactly the zero policy
        ctrl = self._ctrl(hidden_dim=4)
        out = ctrl.act(np.array([[0.3], [-0.2], [0.9]]))
        assert np.array_equal(out, np.zeros(1))

    def test_deterministic_forward(self):
        ctrl = self._ctrl(hidden_dim=4)
        ctrl.params[...] = 0.3 * random_stream(7).standard_normal(ctrl.params.size)
        window = np.array([[0.3], [-0.2], [0.9]])
        a = ctrl.act(window)
        b = ctrl.act(window)
        assert not np.array_equal(a, np.zeros(1))
        assert np.array_equal(a, b)

    def test_state_input_ignored(self):
        # A learner acts on the disturbance window alone, so a policy of
        # learners plays the same action whatever the observed state.
        ctrl = self._ctrl(hidden_dim=4)
        ctrl.params[...] = 0.3 * random_stream(7).standard_normal(ctrl.params.size)
        window = np.array([[0.3], [-0.2], [0.9]])
        a = DynaBoost([ctrl]).act(obs(0.0, window))
        b = DynaBoost([ctrl]).act(obs(123.0, window))
        assert np.array_equal(a, ctrl.act(window))
        assert np.array_equal(a, b)

    def test_parameter_counts(self):
        elman = self._ctrl(hidden_dim=5)
        # W_x 5 + W_h 25 + b_h 5 + W_o 5 + b_o 1
        assert elman.params.size == 41
        lstm = self._ctrl(hidden_dim=5, cell="lstm")
        # W 20 + U 100 + b 20 + W_o 5 + b_o 1
        assert lstm.params.size == 146

    def test_output_projected_into_ball(self):
        ctrl = self._ctrl(action_ball=BallSet(radius=0.25, dim=1))
        ctrl.weights["b_o"][...] = 50.0
        out = ctrl.act(np.zeros((3, 1)))
        assert abs(float(out[0])) <= 0.25 + 1e-12


class _NanLoss:
    def slot_gradients(self, actions):
        g = np.zeros_like(actions)
        g[0, 0] = np.nan
        return g


class TestRecurrentUpdate:
    def _ctrl(self, **kw):
        defaults = dict(
            input_dim=2,
            H=3,
            action_ball=BallSet(radius=10.0, dim=2),
            rng=random_stream(11),
            hidden_dim=3,
            lr=0.05,
        )
        defaults.update(kw)
        return RecurrentController(**defaults)

    def test_zero_gradients_leave_weights(self):
        ctrl = self._ctrl()
        before = ctrl.params.copy()
        ctrl.receive_loss(linear_loss(np.zeros((3, 2))), np.zeros((5, 2)))
        assert np.array_equal(ctrl.params, before)

    def test_nonfinite_gradient_skipped_with_warning(self):
        ctrl = self._ctrl()
        before = ctrl.params.copy()
        with pytest.warns(UserWarning, match="non-finite"):
            ctrl.receive_loss(_NanLoss(), np.zeros((5, 2)))
        assert np.array_equal(ctrl.params, before)

    def _fd_check(self, cell, tol):
        ctrl = self._ctrl(cell=cell, rng=random_stream(5))
        # small weights keep every slot action strictly inside the ball
        theta = 0.3 * random_stream(29, 0).standard_normal(ctrl.params.size)
        ctrl.params[...] = theta
        hist = random_stream(29, 1).standard_normal((5, 2))
        grads = random_stream(29, 2).standard_normal((3, 2))
        loss = linear_loss(grads)
        analytic = ctrl.loss_gradients(loss, hist)

        def objective(vec):
            ctrl.params[...] = vec
            windows = np.stack([hist[j : j + 3] for j in range(3)])
            raws, _, _ = _raw_outputs(ctrl.cell, ctrl.weights, windows)
            return float(np.sum(grads * raws))

        h = 1e-5
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (objective(up) - objective(dn)) / (2 * h)
        ctrl.params[...] = theta
        assert np.linalg.norm(analytic - fd) <= tol * max(1.0, np.linalg.norm(fd))

    def test_elman_bptt_matches_finite_differences(self):
        self._fd_check("elman", 1e-4)

    def test_lstm_bptt_matches_finite_differences(self):
        self._fd_check("lstm", 1e-4)

    def test_gradient_clip_bounds_step(self):
        ctrl = self._ctrl(clip_norm=1e-3, lr=1.0)
        before = ctrl.params.copy()
        big = linear_loss(1e4 * np.ones((3, 2)))
        ctrl.receive_loss(big, np.ones((5, 2)))
        moved = np.linalg.norm(ctrl.params - before)
        assert moved <= 1e-3 + 1e-12

    def test_update_moves_against_gradient(self):
        ctrl = self._ctrl()
        hist = random_stream(41, 0).standard_normal((5, 2))
        grads = np.ones((3, 2))
        loss = linear_loss(grads)
        direction = ctrl.loss_gradients(loss, hist)
        before = ctrl.params.copy()
        ctrl.receive_loss(loss, hist)
        delta = ctrl.params - before
        assert float(delta @ direction) < 0.0

    def test_weight_ball_caps_parameter_norm(self):
        # a persistent one-signed residual would otherwise grow weights forever
        ctrl = self._ctrl(weight_radius=4.0, lr=0.5)
        hist = np.ones((5, 2))
        loss = linear_loss(-np.ones((3, 2)))
        for _ in range(200):
            ctrl.receive_loss(loss, hist)
            assert np.linalg.norm(ctrl.params) <= 4.0 + 1e-9
        assert np.linalg.norm(ctrl.params) == pytest.approx(4.0)


def test_learners_reject_zero_memory():
    # A booster reads its memory H off its learners, so they check H >= 1.
    ball = BallSet(1.0, 1)
    with pytest.raises(ValueError, match="memory length"):
        GpcController(1, 0, ball)
    with pytest.raises(ValueError, match="memory length"):
        RecurrentController(1, 0, ball, random_stream(0))


def _level(family, i, ball, H=3, k=2):
    """Level i of a three-level stack: 0 inside the ball, 1 on its rim, 2 projected back.

    Level 1's raw actions sit far outside the action ball; level 2 starts
    outside its parameter ball (R_M or weight_radius), so its first step
    ends in the projection.
    """
    rng = random_stream(60 + i)
    if family == "gpc":
        ctrl = GpcController(k, H, ball, R_M=10.0, lr=0.5, lr_schedule="sqrt")
        ctrl.M[...] = (0.2, 4.0, 1.0)[i] * rng.standard_normal((H, ball.dim, k))
        if i == 2:
            ctrl.radius = 0.5 * float(np.linalg.norm(ctrl.M))
        return ctrl
    ctrl = RecurrentController(
        k, H, ball, random_stream(60 + i, 0), hidden_dim=3, cell=family, lr=0.2, lr_schedule="sqrt"
    )
    ctrl.params[...] = 0.3 * random_stream(60 + i, 1).standard_normal(ctrl.params.size)
    if i == 1:
        ctrl.weights["b_o"][...] = 5.0
    if i == 2:
        ctrl.radius = 0.5 * float(np.linalg.norm(ctrl.params))
    return ctrl


def _parameters(ctrl):
    return ctrl.params.copy()


def _raw_action(ctrl, window):
    if isinstance(ctrl, GpcController):
        return np.einsum("mdk,mk->d", ctrl.M, window[::-1])
    return _raw_outputs(ctrl.cell, ctrl.weights, window[None])[0][0]


class TestLevelStacks:
    @pytest.mark.parametrize("variant", ["dynaboost1", "dynaboost2"])
    @pytest.mark.parametrize("family", ["gpc", "elman", "lstm"])
    def test_stack_equals_lone_learners(self, family, variant):
        # The run's batched step (SharedStep) and the booster's per-level
        # update both give each level the bits of a lone learner.
        H, k = 3, 2
        ball = BallSet(radius=1.0, dim=2)
        curvature = CurvatureBounds(alpha=1.0, beta=4.0) if variant == "dynaboost2" else None
        stacked = [_level(family, i, ball) for i in range(3)]
        looped = [_level(family, i, ball) for i in range(3)]
        lone = [_level(family, i, ball) for i in range(3)]
        boosters = [DynaBoost(c, curvature) for c in (stacked, looped)]
        shared = SharedStep([boosters[0]])
        system = LinearSystem([[0.6, 0.2], [0.0, 0.5]], [[1.0, 0.0], [0.3, 1.0]])
        cost = QuadraticCost.identity(k, 2)
        for t in range(3):
            hist = random_stream(77, t).standard_normal((2 * H - 1, k))
            ob = obs(np.zeros(k), hist[H - 1 :])
            if t == 0:
                assert np.linalg.norm(_raw_action(stacked[1], ob.disturbances)) > 2 * ball.radius
            for booster in boosters:
                booster.act(ob)
            window_loss = ProxyLoss(system, cost, hist[H:])
            for i, ctrl in enumerate(lone):
                anchor = boosters[1].anchors[i].copy()
                residual = ResidualLoss(
                    window_loss.gradients(anchor), anchor, boosters[1].coefficients[i]
                )
                ctrl.receive_loss(residual, hist)
            shared.step(window_loss, hist)
            boosters[1].update(window_loss, hist)
            for levels in (stacked, looped):
                if t == 0:
                    norm = np.linalg.norm(_parameters(levels[2]))
                    assert norm == pytest.approx(levels[2].radius, rel=1e-12)
                for mine, theirs in zip(levels, lone):
                    assert np.array_equal(_parameters(mine), _parameters(theirs))
                    # act reads the learner's own attributes: they must
                    # still be views of the parameters the step wrote
                    assert np.array_equal(mine.act(ob.disturbances), theirs.act(ob.disturbances))

    @pytest.mark.parametrize("family", ["gpc", "elman", "lstm"])
    def test_gradient_rows_equal_lone_learners(self, family):
        H = 3
        ball = BallSet(radius=1.0, dim=2)
        levels = LevelStack.join([_level(family, i, ball) for i in range(3)])
        hist = random_stream(13, 0).standard_normal((2 * H - 1, 2))
        grads = random_stream(13, 1).standard_normal((3, H, 2))
        anchors = random_stream(13, 2).standard_normal((3, H, 2))
        G, finite = levels.gradients(ResidualLoss(grads, anchors, 0.5), hist)
        assert G.shape == levels.params.shape
        assert finite.tolist() == [True, True, True]
        for i, row in enumerate(G):
            lone = _level(family, i, ball)
            want = lone.loss_gradients(ResidualLoss(grads[i], anchors[i], 0.5), hist)
            assert np.array_equal(row, want)

    @pytest.mark.parametrize("family", ["gpc", "elman", "lstm"])
    def test_one_nonfinite_level_is_skipped_alone(self, family):
        H = 3
        ball = BallSet(radius=1.0, dim=2)
        stacked = [_level(family, i, ball) for i in range(3)]
        lone = [_level(family, i, ball) for i in range(3)]
        levels = LevelStack.join(stacked)
        hist = random_stream(5, 0).standard_normal((2 * H - 1, 2))
        grads = random_stream(5, 1).standard_normal((3, H, 2))
        grads[1, 0, 0] = np.nan
        anchors = np.zeros((3, H, 2))
        _, finite = levels.gradients(ResidualLoss(grads, anchors), hist)
        assert finite.tolist() == [True, False, True]
        before = _parameters(stacked[1])
        with pytest.warns(UserWarning, match="non-finite gradient") as caught:
            levels.step(ResidualLoss(grads, anchors), hist)
        assert len(caught) == 1
        assert [c.skipped_updates for c in stacked] == [0, 1, 0]
        assert np.array_equal(_parameters(stacked[1]), before)
        for i in (0, 2):
            lone[i].receive_loss(ResidualLoss(grads[i], anchors[i]), hist)
            assert np.array_equal(_parameters(stacked[i]), _parameters(lone[i]))
            fresh = _parameters(_level(family, i, ball))
            assert not np.array_equal(_parameters(stacked[i]), fresh)

    def test_gpc_gradient_overflow_is_skipped(self):
        # Finite slot gradients and disturbances whose products overflow:
        # level 2's (H, d, k) gradient is inf though no input to it is.
        H = 3
        ball = BallSet(radius=1.0, dim=2)
        stacked = [GpcController(2, H, ball, lr=0.5) for _ in range(3)]
        lone = [GpcController(2, H, ball, lr=0.5) for _ in range(3)]
        for i, (mine, theirs) in enumerate(zip(stacked, lone)):
            mine.M[...] = 1e-200 * random_stream(9, i).standard_normal((H, 2, 2))
            theirs.M[...] = mine.M
        levels = LevelStack.join(stacked)
        hist = 1e160 * (1.0 + np.abs(random_stream(9, 3).standard_normal((2 * H - 1, 2))))
        grads = 1e-150 * random_stream(9, 4).standard_normal((3, H, 2))
        grads[1] = 1e160 * (1.0 + np.abs(grads[1]))
        anchors = np.zeros((3, H, 2))
        assert np.isfinite(hist).all() and np.isfinite(grads).all()
        before = _parameters(stacked[1])
        with np.errstate(over="ignore"):
            with pytest.warns(UserWarning, match="non-finite gradient") as caught:
                levels.step(ResidualLoss(grads, anchors), hist)
            for i in (0, 2):
                lone[i].receive_loss(ResidualLoss(grads[i], anchors[i]), hist)
        assert len(caught) == 1
        assert [c.skipped_updates for c in stacked] == [0, 1, 0]
        assert np.array_equal(_parameters(stacked[1]), before)
        for i in (0, 2):
            assert lone[i].skipped_updates == 0
            assert np.array_equal(_parameters(stacked[i]), _parameters(lone[i]))
            assert np.linalg.norm(_parameters(stacked[i])) == pytest.approx(stacked[i].radius)

    def test_levels_must_share_memory_and_ball(self):
        a = GpcController(1, 2, BallSet(1.0, 1))
        with pytest.raises(ValueError, match="share"):
            LevelStack.join([a, GpcController(1, 3, BallSet(1.0, 1))])
        with pytest.raises(ValueError, match="share"):
            LevelStack.join([a, GpcController(1, 2, BallSet(2.0, 1))])

    def test_gpc_levels_must_share_state_dim(self):
        ball = BallSet(1.0, 1)
        wide, narrow = GpcController(3, 2, ball), GpcController(1, 2, ball)
        with pytest.raises(ValueError, match=r"M \(2, 1, 1\); M \(2, 1, 3\)"):
            LevelStack.join([wide, narrow])
        assert wide.M.shape == (2, 1, 3) and narrow.M.shape == (2, 1, 1)

    def test_recurrent_levels_must_share_net_shape(self):
        ball = BallSet(1.0, 1)
        small, big = (RecurrentController(1, 2, ball, random_stream(1), hidden_dim=h) for h in (3, 4))
        with pytest.raises(ValueError, match=r"W_h \(3, 3\).*; .*W_h \(4, 4\)"):
            LevelStack.join([small, big])
        elman = RecurrentController(1, 2, ball, random_stream(1), cell="elman")
        lstm = RecurrentController(1, 2, ball, random_stream(1), cell="lstm")
        with pytest.raises(ValueError, match=r"W \(20, 1\).*; W_x \(5, 1\)"):
            LevelStack.join([elman, lstm])

    def test_joined_gpc_level_m_is_its_stack_row(self):
        # Rebinding M would detach the learner: the stack would step its row
        # while act read the new array. So M is read-only, written in place.
        ball = BallSet(5.0, 1)
        levels = [GpcController(1, 2, ball) for _ in range(2)]
        stack = LevelStack.join(levels)
        with pytest.raises(AttributeError):
            levels[0].M = np.ones((2, 1, 1))
        levels[0].M[...] = [[[1.0]], [[0.5]]]
        assert stack.params[0].tolist() == [[[1.0]], [[0.5]]]
        assert not stack.params[1].any()
        stack.params[0] *= 2.0
        assert levels[0].act(np.array([[1.0], [1.0]])).item() == 3.0

    @pytest.mark.parametrize("family", ["gpc", "elman"])
    def test_later_join_of_a_subset_rebinds_those_learners(self, family):
        H = 3
        ball = BallSet(1.0, 2)
        levels = [_level(family, i, ball) for i in range(3)]
        whole = LevelStack.join(levels)
        ends = LevelStack.join([levels[0], levels[2]])
        hist = random_stream(21, 0).standard_normal((2 * H - 1, 2))
        grads = random_stream(21, 1).standard_normal((2, H, 2))
        window = hist[H - 1 :]
        acts = [c.act(window) for c in levels]
        left_out = _parameters(levels[1])
        ends.step(ResidualLoss(grads, np.zeros((2, H, 2))), hist)
        # Stepping the new stack moves the act of the learners it joined.
        for i in (0, 2):
            assert np.array_equal(levels[i].params, ends.params[i // 2])
            assert not np.array_equal(levels[i].act(window), acts[i])
        assert np.array_equal(_parameters(levels[1]), left_out)
        # The earlier stack no longer backs their act.
        moved = [c.act(window) for c in levels]
        grads = random_stream(21, 2).standard_normal((3, H, 2))
        whole.step(ResidualLoss(grads, np.zeros((3, H, 2))), hist)
        for i in (0, 2):
            assert np.array_equal(levels[i].act(window), moved[i])
        assert not np.array_equal(levels[1].act(window), moved[1])

    def test_other_learners_are_not_joined(self):
        ball = BallSet(1.0, 1)
        rnn = RecurrentController(1, 2, ball, random_stream(1))
        with pytest.raises(ValueError, match=r"share .*got M \(2, 1, 1\); W_x"):
            LevelStack.join([GpcController(1, 2, ball), rnn])
        with pytest.raises(ValueError, match="share .*got no parameters"):
            LevelStack.join([ZeroController(ball)])


class TestElmanCellShapes:
    def test_forward_batch_shapes(self):
        cell = ElmanCell(input_dim=2, hidden_dim=4)
        h, cache = cell.forward(cell.initial_weights(random_stream(1)), np.zeros((6, 3, 2)))
        assert h.shape == (6, 4)

    def test_lstm_forward_batch_shapes(self):
        cell = LstmCell(input_dim=2, hidden_dim=4)
        h, cache = cell.forward(cell.initial_weights(random_stream(1)), np.zeros((6, 3, 2)))
        assert h.shape == (6, 4)

    def test_lstm_forget_bias_initialized(self):
        cell = LstmCell(input_dim=1, hidden_dim=3)
        b = cell.initial_weights(random_stream(1))["b"]
        assert np.allclose(b[3:6], 1.0)  # forget-gate slice starts open


class _PerStepElman:
    """The Elman cell as a literal per-step loop: the reference for ElmanCell's bits.

    Each step takes its input product and its recurrent product inside the
    loop; BPTT adds each step's three weight-gradient products and its
    bias sum into zeroed gradients, from the last step to the first.
    """

    @staticmethod
    def forward(weights, windows):
        W_hT, W_xT = weights["W_h"].swapaxes(-1, -2), weights["W_x"].swapaxes(-1, -2)
        b_h = weights["b_h"][..., None, :]
        h = np.zeros((*W_hT.shape[:-2], windows.shape[0], W_hT.shape[-1]))
        hs = [h]
        for s in range(windows.shape[1]):
            h = np.tanh(h @ W_hT + windows[:, s, :] @ W_xT + b_h)
            hs.append(h)
        return h, (windows, hs)

    @staticmethod
    def backward(weights, cache, dh, grads):
        windows, hs = cache
        for s in range(windows.shape[1], 0, -1):
            da = dh * (1.0 - hs[s] ** 2)
            grads["W_h"] += da.swapaxes(-1, -2) @ hs[s - 1]
            grads["W_x"] += da.swapaxes(-1, -2) @ windows[:, s - 1, :]
            grads["b_h"] += da.sum(axis=-2)
            dh = da @ weights["W_h"]


class _PerStepLstm:
    """The LSTM cell as a literal per-step loop: the reference for LstmCell's bits."""

    @staticmethod
    def forward(weights, windows):
        U = weights["U"]
        hd = U.shape[-1]
        WT, UT = weights["W"].swapaxes(-1, -2), U.swapaxes(-1, -2)
        b = weights["b"][..., None, :]
        h = np.zeros((*U.shape[:-2], windows.shape[0], hd))
        c = np.zeros_like(h)
        steps = []
        for s in range(windows.shape[1]):
            z = windows[:, s, :] @ WT + h @ UT + b
            i = 1.0 / (1.0 + np.exp(-z[..., :hd]))
            f = 1.0 / (1.0 + np.exp(-z[..., hd : 2 * hd]))
            g = np.tanh(z[..., 2 * hd : 3 * hd])
            o = 1.0 / (1.0 + np.exp(-z[..., 3 * hd :]))
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            steps.append((h, c, i, f, g, o, tc))
            h = o * tc
            c = c_new
        return h, (windows, steps)

    @staticmethod
    def backward(weights, cache, dh, grads):
        windows, steps = cache
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
            dh = dz @ weights["U"]
            dc = dc * f


_PER_STEP = {"elman": _PerStepElman, "lstm": _PerStepLstm}


def _per_step_gradients(family, learner, params, loss, w_history):
    """The (L, P) level gradients of a recurrent stack, through the per-step reference cell."""
    cell = _PER_STEP[family]
    weights = learner._views(params)
    windows = w_history[np.arange(learner.H)[:, None] + np.arange(learner.H)]
    h, cache = cell.forward(weights, windows)
    raws = h @ weights["W_o"].swapaxes(-1, -2) + weights["b_o"][..., None, :]
    actions, _ = project_slots(raws, learner.action_ball)
    g = loss.slot_gradients(actions)
    out = np.zeros(params.shape)
    grads = learner._views(out)
    grads["W_o"][...] = g.swapaxes(-1, -2) @ h
    grads["b_o"][...] = g.sum(axis=-2)
    cell.backward(weights, cache, g @ weights["W_o"], grads)
    return out


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCellsMatchPerStepLoops:
    """The cells' batched products give the per-step loops' bits.

    The same bits, not a tolerance, at every k: each step's slice of a
    batched product is the BLAS call the loop makes, on the same shapes and
    strides, and the step sums add in the loop's order. H = 1 is the
    one-step path; at H = 9 a plain sum over the steps would add pairwise.
    """

    GRID = [(L, H, hd) for L in (1, 3, 6) for H in (1, 2, 5, 9) for hd in (1, 5)]

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("family", ["elman", "lstm"])
    def test_forward_and_backward(self, family, k):
        cell_type = {"elman": ElmanCell, "lstm": LstmCell}[family]
        for L, H, hd in self.GRID:
            rng = np.random.default_rng([k, L, H, hd])
            cell = cell_type(k, hd)
            for lead in ((), (L,)):
                shapes = cell.initial_weights(random_stream(0))
                weights = {n: rng.standard_normal(lead + w.shape) for n, w in shapes.items()}
                for S in (1, H):
                    windows = rng.standard_normal((S, H, k))
                    h, cache = cell.forward(weights, windows)
                    want, want_cache = _PER_STEP[family].forward(weights, windows)
                    assert _same_bits(h, want), (L, H, hd, lead, S)
                    dh = rng.standard_normal(h.shape)
                    grads = {n: np.zeros_like(w) for n, w in weights.items()}
                    want_grads = {n: np.zeros_like(w) for n, w in weights.items()}
                    cell.backward(weights, cache, dh, grads)
                    _PER_STEP[family].backward(weights, want_cache, dh, want_grads)
                    for n in grads:
                        assert _same_bits(grads[n], want_grads[n]), (n, L, H, hd, lead, S)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("family", ["elman", "lstm"])
    def test_level_stack_gradients(self, family, k):
        for L, H, hd in self.GRID:
            rng = np.random.default_rng([7, k, L, H, hd])
            ball = BallSet(radius=1.0, dim=2)
            levels = [
                RecurrentController(k, H, ball, random_stream(i), hidden_dim=hd, cell=family)
                for i in range(L)
            ]
            stack = LevelStack.join(levels)
            # A nonzero head, and raw actions on both sides of the ball's rim.
            stack.params[...] = 0.7 * rng.standard_normal(stack.params.shape)
            hist = rng.standard_normal((2 * H - 1, k))
            loss = ResidualLoss(
                rng.standard_normal((L, H, 2)), rng.standard_normal((L, H, 2)), 0.5
            )
            want = _per_step_gradients(family, levels[0], stack.params, loss, hist)
            G, finite = stack.gradients(loss, hist)
            assert finite.all()
            assert _same_bits(G, want), (L, H, hd)


class TestSolveDare:
    def test_memoryless_scalar(self):
        P, K = solve_dare([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        assert P.item() == pytest.approx(1.0, abs=1e-12)
        assert K.item() == pytest.approx(0.0, abs=1e-12)

    def test_golden_ratio_fixed_point(self):
        P, K = solve_dare([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        assert P.item() == pytest.approx(phi, abs=1e-9)
        assert K.item() == pytest.approx(phi - 1.0, abs=1e-9)

    def test_zero_b_rejected(self):
        with pytest.raises(ValueError, match="control authority"):
            solve_dare([[0.5]], [[0.0]], [[1.0]], [[1.0]])

    def test_vanishing_b_limit(self):
        # as control authority vanishes, P approaches the uncontrolled
        # geometric series Q/(1 - A^2) and the gain collapses to zero
        P, K = solve_dare([[0.5]], [[1e-6]], [[1.0]], [[1.0]], tol=1e-14)
        assert P.item() == pytest.approx(4.0 / 3.0, abs=1e-6)
        assert abs(K.item()) < 1e-3

    def test_non_stabilizable_pair_raises(self):
        A = np.diag([2.0, 2.0])
        B = np.array([[1.0], [0.0]])  # second unstable mode uncontrollable
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match="stabilizable"):
                solve_dare(A, B, np.eye(2), [[1.0]], max_iter=2000)

    def test_random_stabilizable_residuals(self):
        for trial in range(10):
            k = 2 + trial % 4
            A = random_stream(2024, trial).standard_normal((k, k))
            radius = max(abs(np.linalg.eigvals(A)))
            A *= 0.95 / max(radius, 1e-9)
            B = random_stream(2024, 100 + trial).standard_normal((k, 1 + trial % 2))
            Q, R = np.eye(k), np.eye(B.shape[1])
            P, K = solve_dare(A, B, Q, R, tol=1e-12)
            BtP = B.T @ P
            recomputed = Q + A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(
                R + BtP @ B, BtP @ A
            )
            assert np.max(np.abs(recomputed - P)) <= 1e-11
            assert np.allclose(P, P.T)
            assert np.min(np.linalg.eigvalsh(P)) >= -1e-10

    def test_closed_loop_stable(self):
        A = random_stream(77, 0).standard_normal((3, 3))
        A *= 0.9 / max(abs(np.linalg.eigvals(A)))
        B = random_stream(77, 1).standard_normal((3, 2))
        _, K = solve_dare(A, B, np.eye(3), np.eye(2))
        assert max(abs(np.linalg.eigvals(A - B @ K))) < 1.0


class TestLqrController:
    def test_zero_state_zero_action(self):
        ctrl = LqrController(K=np.eye(2), action_ball=BallSet(radius=1.0, dim=2))
        assert np.array_equal(ctrl.act(obs(np.zeros(2), np.zeros((1, 2)))), np.zeros(2))

    def test_scalar_golden_gain(self):
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        ctrl = LqrController(K=[[phi - 1.0]], action_ball=BallSet(radius=5.0, dim=1))
        out = ctrl.act(obs(2.0, np.zeros((1, 1))))
        assert float(out[0]) == pytest.approx(-1.236068, abs=1e-6)

    def test_action_ball_caps_feedback(self):
        ctrl = LqrController(K=[[10.0]], action_ball=BallSet(radius=0.5, dim=1))
        out = ctrl.act(obs(3.0, np.zeros((1, 1))))
        assert float(out[0]) == pytest.approx(-0.5)

    def test_pendulum_linearization_closed_loop(self):
        pend = PendulumSystem()
        A, B = pend.linearization()
        P, K = solve_dare(A, B, np.eye(2), np.eye(1))
        assert max(abs(np.linalg.eigvals(A - B @ K))) < 1.0
        assert np.min(np.linalg.eigvalsh(P)) > 0.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_all_controllers_respect_action_ball(seed):
    ball = BallSet(radius=0.8, dim=2)
    window = 3.0 * random_stream(seed, 0).standard_normal((3, 2))
    state = 3.0 * random_stream(seed, 1).standard_normal(2)
    gpc = GpcController(state_dim=2, H=3, action_ball=ball)
    gpc.M[...] = random_stream(seed, 2).standard_normal((3, 2, 2))
    rnn = RecurrentController(
        input_dim=2, H=3, action_ball=ball, rng=random_stream(seed, 3), hidden_dim=3
    )
    ob = obs(state, window)
    fixed = [ZeroController(ball).act(ob), LqrController(np.eye(2), ball).act(ob)]
    for out in (gpc.act(window), rnn.act(window), *fixed):
        assert np.linalg.norm(out) <= ball.radius + 1e-9
