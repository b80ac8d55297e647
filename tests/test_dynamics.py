import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynaboost.core import random_stream
from dynaboost.dynamics import (
    LinearSystem,
    PendulumSystem,
    Trajectory,
    disturbance_hash,
    random_lds,
    rollout,
    spectral_radius_estimate,
    wrap_angle,
)
from dynaboost.harness.config import DisturbanceConfig, EnvConfig, ExperimentConfig
from dynaboost.harness import runner
from dynaboost.harness.runner import build_system, draw_disturbances, run_experiment


class TestSpectralRadius:
    def test_nilpotent_is_zero(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert spectral_radius_estimate(A) == 0.0

    def test_diagonal(self):
        A = np.diag([0.3, -0.8, 0.1])
        assert abs(spectral_radius_estimate(A) - 0.8) < 1e-8

    def test_rotation_pair(self):
        # Complex eigenvalue pair of modulus 0.9; vector power iteration
        # would oscillate here.
        c, s = 0.9 * math.cos(0.7), 0.9 * math.sin(0.7)
        A = np.array([[c, -s], [s, c]])
        assert abs(spectral_radius_estimate(A) - 0.9) < 1e-8

    def test_matches_eig_on_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = rng.standard_normal((6, 6))
            truth = max(abs(np.linalg.eigvals(A)))
            assert abs(spectral_radius_estimate(A) - truth) < 1e-6 * max(1.0, truth)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            spectral_radius_estimate(np.zeros((2, 3)))


class TestLinearSystem:
    def test_step_pure_disturbance(self):
        sys = LinearSystem(np.zeros((2, 2)), np.zeros((2, 1)))
        assert np.allclose(sys.step([3.0, -1.0], [0.0], [1.0, 2.0]), [1.0, 2.0])

    def test_step_scalar(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        assert np.allclose(sys.step([2.0], [1.0], [0.5]), [2.5])

    def test_step_identity(self):
        # A = I is marginally stable, so it warns.
        with pytest.warns(UserWarning, match="spectral radius"):
            sys = LinearSystem(np.eye(2), np.eye(2))
        assert np.allclose(sys.step([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]), [2.0, 2.0])

    def test_unstable_a_warns(self):
        with pytest.warns(UserWarning, match="spectral radius"):
            LinearSystem([[1.5]], [[1.0]])

    def test_dimension_mismatch(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        with pytest.raises(ValueError):
            sys.step([1.0, 2.0], [0.0], [0.0])

    @pytest.mark.parametrize("k", [1, 2, 10, 100])
    @pytest.mark.parametrize("n", [1, 4])
    def test_block_step_has_the_bits_of_lone_steps(self, k, n):
        # The runner steps its running policies as one (n, k) block; each
        # row must be the matrix-vector product A x + B u + w.
        rng = random_stream(7, k, n)
        sys = random_lds(rng, k, max(1, k // 2), 0.9)
        for _ in range(20):
            X = rng.standard_normal((n, k))
            U = rng.standard_normal((n, sys.action_dim))
            w = rng.standard_normal(k)
            block = sys.step(X, U, w)
            assert block.shape == (n, k)
            for x, u, row in zip(X, U, block):
                assert np.array_equal(sys.step(x, u, w), sys.A @ x + sys.B @ u + w)
                assert np.array_equal(row, sys.A @ x + sys.B @ u + w)


def test_wrap_angle_branch_points():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
    assert wrap_angle(0.3) == pytest.approx(0.3)
    assert wrap_angle(2 * math.pi) == pytest.approx(0.0)


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_wrap_angle_range_and_congruence(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi + 1e-12
    assert abs(math.sin(w) - math.sin(theta)) < 1e-9
    assert abs(math.cos(w) - math.cos(theta)) < 1e-9


class TestPendulum:
    def test_upright_fixed_point(self):
        p = PendulumSystem()
        assert np.allclose(p.step([0.0, 0.0], [0.0], [0.0, 0.0]), [0.0, 0.0])

    def test_free_fall_from_horizontal(self):
        p = PendulumSystem()
        x = p.step([math.pi / 2, 0.0], [0.0], np.zeros(2))
        assert x[1] == pytest.approx(0.75)
        assert x[0] == pytest.approx(math.pi / 2 + 0.0375)

    def test_torque_clipping(self):
        p = PendulumSystem()
        x = p.step([0.0, 0.0], [5.0], np.zeros(2))
        assert x[1] == pytest.approx(0.3)  # torque capped at 2
        assert x[0] == pytest.approx(0.015)

    def test_speed_cap(self):
        p = PendulumSystem()
        x = np.array([math.pi / 2, 7.9])
        for _ in range(50):
            x = p.step(x, [2.0], np.zeros(2))
            assert abs(x[1]) <= p.max_speed + 1e-12

    @pytest.mark.parametrize("n", [1, 4])
    def test_block_step_has_the_bits_of_lone_steps(self, n):
        # Each row of a block is the float transition of a lone step.
        p = PendulumSystem()
        rng = random_stream(8, n)
        for _ in range(50):
            X = rng.uniform(-4.0, 4.0, (n, 2)) * [1.0, 3.0]
            U = rng.uniform(-3.0, 3.0, (n, 1))
            w = rng.uniform(-0.5, 0.5, 2)
            block = p.step(X, U, w)
            assert block.shape == (n, 2)
            for x, u, row in zip(X, U, block):
                theta, theta_dot, _ = p._transition(float(x[0]), float(x[1]), float(u[0]))
                lone = p.step(x, u, w)
                assert lone.shape == (2,)
                assert np.array_equal(lone, np.array([theta, theta_dot]) + w)
                assert np.array_equal(row, lone)

    def test_linearization_values(self):
        A, B = PendulumSystem().linearization()
        assert np.allclose(A, [[1.0375, 0.05], [0.75, 1.0]])
        assert np.allclose(B, [[0.0075], [0.15]])

    def test_jacobians_match_fd_interior(self):
        p = PendulumSystem()
        x0 = np.array([0.3, 1.2])
        u0 = np.array([0.5])
        no_w = np.zeros(2)
        Jx, Ju = p.jacobians(x0, u0)
        h = 1e-7
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (p.step(x0 + e, u0, no_w) - p.step(x0 - e, u0, no_w)) / (2 * h)
            assert np.allclose(Jx[:, i], fd, atol=1e-5)
        fd = (p.step(x0, u0 + h, no_w) - p.step(x0, u0 - h, no_w)) / (2 * h)
        assert np.allclose(Ju[:, 0], fd, atol=1e-5)

    def test_jacobian_zero_under_saturation(self):
        p = PendulumSystem()
        _, Ju = p.jacobians([0.0, 0.0], [5.0])
        assert np.allclose(Ju, 0.0)

    def test_window_vjp_hands_grad_x_rollouts_end_states(self):
        # One grad_x call gets every window's end state, with the bits of
        # rollout's last row.
        p = PendulumSystem()
        w = np.array([[3.0, 8.5], [0.2, -0.5], [-0.1, 0.3]])
        U = 3.0 * random_stream(5).standard_normal((4, 3, 1))
        seen = []

        def grad_x(ends):
            seen.append(ends.copy())
            return 2.0 * ends

        assert p.window_vjp(U, w, grad_x).shape == U.shape
        assert len(seen) == 1 and seen[0].shape == (4, 2)
        for end, window in zip(seen[0], U):
            assert np.array_equal(end, rollout(p, 0.0, window, w)[-1])


class TestRandomLds:
    def test_scalar_rescale_forced(self):
        sys = random_lds(random_stream(4), 1, 1, 0.9)
        assert abs(abs(sys.A.item()) - 0.9) < 1e-9

    def test_multidim_radius_hits_target(self):
        sys = random_lds(random_stream(8), 10, 10, 0.9)
        rho = max(abs(np.linalg.eigvals(sys.A)))
        assert 0.895 <= rho <= 0.905

    def test_deterministic_in_seed(self):
        a = random_lds(random_stream(3), 4, 2, 0.5)
        b = random_lds(random_stream(3), 4, 2, 0.5)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.B, b.B)

    def test_bad_rho_rejected(self):
        with pytest.raises(ValueError):
            random_lds(random_stream(0), 2, 2, 1.0)
        with pytest.raises(ValueError):
            random_lds(random_stream(0), 2, 2, 0.0)


def _stream(kind: str, T: int, dim: int = 1, seed: int = 0, run_index: int = 0, **kw):
    cfg = ExperimentConfig(seed=seed, T=T, disturbance=DisturbanceConfig(kind=kind, **kw))
    return draw_disturbances(cfg, dim, run_index)


class TestDisturbances:
    # First rows at seed 7, run 1, dim 2, std 0.3, clip [-0.5, 0.5]: a change
    # of draw order or of the substream layout changes them.
    PINNED = {
        "iid_gaussian": [
            [-0.36845171242173047, -0.35382487823780756],
            [-0.058961307700697525, 0.8503350078651992],
            [-0.40637024356642687, 0.05248104689584535],
        ],
        "random_walk": [
            [-0.36845171242173047, -0.35382487823780756],
            [-0.427413020122428, 0.49651012962739166],
            [-0.5, 0.5],
        ],
        "sinusoidal": [
            [0.0, 0.0],
            [0.13392426670058188, 0.13392426670058188],
            [0.14471918022004823, 0.14471918022004823],
        ],
    }

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_pinned_first_rows(self, kind):
        w = _stream(kind, 3, dim=2, seed=7, run_index=1, std=0.3, clip_lo=-0.5, clip_hi=0.5)
        assert w.tolist() == self.PINNED[kind]

    @pytest.mark.parametrize("kind", ["iid_gaussian", "random_walk"])
    def test_zero_std_is_exact(self, kind):
        w = _stream(kind, 50, dim=3, std=0.0)
        assert np.array_equal(w, np.zeros((50, 3)))
        assert not np.signbit(w).any()

    def test_sinusoidal_values(self):
        w = _stream("sinusoidal", 2, dim=3)
        assert np.array_equal(w[0], np.zeros(3))
        assert np.allclose(w[1], math.sin(1) / (2 * math.pi))
        assert w[1, 0] == pytest.approx(0.1339, abs=1e-4)

    def test_walk_respects_clip(self):
        w = _stream("random_walk", 500, dim=2, seed=2, std=0.3)
        assert np.all(w >= -1.0) and np.all(w <= 1.0)

    def test_walk_clip_active(self):
        # The walk folds the same std z_t rows as the iid stream of its seed.
        steps = _stream("iid_gaussian", 500, seed=5, std=0.3)
        walk = _stream("random_walk", 500, seed=5, std=0.3)
        w = np.zeros(1)
        for t in range(500):
            w = np.clip(w + steps[t], -1.0, 1.0)
            assert np.array_equal(walk[t], w)
        assert np.any(np.abs(walk) == 1.0)

    def test_iid_std_matches(self):
        w = _stream("iid_gaussian", 100000, seed=6, std=0.1)
        assert abs(w.std() - 0.1) < 0.002  # within 2%

    def test_iid_bound_holds(self, monkeypatch):
        # No shipped std reaches the 10 std sqrt(dim) cap, so force one long row.
        z = np.array([[20.0, 20.0, 20.0, 20.0], [1.0, -1.0, 1.0, -1.0]])
        fake = SimpleNamespace(standard_normal=lambda shape: z.copy())
        monkeypatch.setattr(runner, "random_stream", lambda *key: fake)
        w = _stream("iid_gaussian", 2, dim=4, std=0.5)
        assert np.linalg.norm(w[0]) == 10.0 * 0.5 * math.sqrt(4)
        assert w.tolist() == [[5.0, 5.0, 5.0, 5.0], [0.5, -0.5, 0.5, -0.5]]


class TestInferDisturbance:
    """A transition's disturbance is x_next - step(x, u, 0), as the window replay assumes."""

    def test_zero_noise(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        assert np.allclose(sys.step([2.0], [1.0], [0.0]), [2.0])

    def test_known_example(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        assert np.allclose(np.array([2.5]) - sys.step([2.0], [1.0], [0.0]), [0.5])

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, seed):
        sys = random_lds(random_stream(seed, 0), 3, 2, 0.8)
        x = random_stream(seed, 1).standard_normal(3)
        u = random_stream(seed, 2).standard_normal(2)
        w = random_stream(seed, 3).standard_normal(3)
        x_next = sys.step(x, u, w)
        assert np.max(np.abs(x_next - sys.step(x, u, np.zeros(3)) - w)) < 1e-12


@pytest.mark.parametrize(
    "env",
    [EnvConfig(kind="lds", k=3, d=2, rho=0.8), EnvConfig(kind="pendulum")],
    ids=["lds", "pendulum"],
)
def test_rollout_reproduces_recorded_run(env):
    cfg = ExperimentConfig(env=env, T=60, N=2, runs=1)
    system, _ = build_system(cfg)
    for (traj,) in run_experiment(cfg).trajectories.values():
        X = rollout(system, traj.states[0], traj.actions, traj.disturbances)
        assert np.array_equal(X, traj.states)


class TestCounterfactualState:
    """The state a window replay reaches: the last row of rollout."""

    def test_empty_windows_return_start(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        x = rollout(sys, np.array([3.0]), np.zeros((0, 1)), np.zeros((0, 1)))[-1]
        assert np.allclose(x, [3.0])

    def test_single_pair(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        x = rollout(sys, np.array([0.0]), np.array([[1.0]]), np.array([[0.5]]))[-1]
        assert np.allclose(x, [1.5])

    def test_two_step_fold(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        acts = np.array([[1.0], [0.0]])
        dists = np.array([[0.0], [1.0]])
        assert np.allclose(rollout(sys, np.array([0.0]), acts, dists)[-1], [1.5])


def test_disturbance_hash_distinguishes():
    w1 = np.zeros((5, 2))
    w2 = np.zeros((5, 2))
    w2[3, 1] = 1e-15
    assert disturbance_hash(w1) == disturbance_hash(w1.copy())
    assert disturbance_hash(w1) != disturbance_hash(w2)


class TestTrajectory:
    def _make(self, T=4):
        sys = LinearSystem([[0.5]], [[1.0]])
        rng = random_stream(0)
        states = np.zeros((T + 1, 1))
        actions = rng.standard_normal((T, 1))
        dists = rng.standard_normal((T, 1))
        costs = np.zeros(T)
        for t in range(T):
            states[t + 1] = sys.step(states[t], actions[t], dists[t])
            costs[t] = states[t + 1, 0] ** 2
        return sys, Trajectory(states, actions, dists, costs)

    def test_replay_is_exact_for_lds(self):
        sys, tr = self._make()
        assert np.array_equal(rollout(sys, tr.states[0], tr.actions, tr.disturbances), tr.states)

    def test_replay_detects_tampering(self):
        sys, tr = self._make()
        tr.states[2] += 0.1
        assert not np.array_equal(rollout(sys, tr.states[0], tr.actions, tr.disturbances), tr.states)

    def test_running_average(self):
        _, tr = self._make()
        ra = tr.running_average()
        assert ra[0] == pytest.approx(tr.costs[0])
        assert ra[-1] == pytest.approx(tr.costs.mean())

    def test_length_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 1)), np.zeros(3))
