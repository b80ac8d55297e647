"""Fixed-policy replay and the hindsight-optimal comparator."""

import numpy as np
import pytest

from dynaboost.dynamics import LinearSystem
from dynaboost.harness.comparator import (
    _fixed_actions,
    best_fixed_gpc,
    evaluate_fixed_gpc,
    fixed_gpc_quadratic,
    replay_fixed_gpc,
)
from dynaboost.losses import QuadraticCost


def scalar_system(a=0.5, b=1.0):
    return LinearSystem([[a]], [[b]])


COST_1D = QuadraticCost.identity(1, 1)


def fd_gradient(W, M0, system, cost, H, h=1e-6):
    """Central differences of the replay cost in M, flattened."""
    flat = M0.ravel()
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (
            evaluate_fixed_gpc(W, up.reshape(M0.shape), system, cost, H)
            - evaluate_fixed_gpc(W, dn.reshape(M0.shape), system, cost, H)
        ) / (2 * h)
    return fd


def two_state_system():
    return LinearSystem([[0.6, 0.1], [0.0, 0.5]], [[1.0], [0.4]])


def pinned_multidim():
    """(W, system, cost) of a seeded 2-state, 2-action instance."""
    rng = np.random.default_rng(41)
    A = rng.normal(size=(2, 2))
    A *= 0.7 / max(abs(np.linalg.eigvals(A)))
    system = LinearSystem(A, rng.normal(size=(2, 2)))
    return rng.normal(size=(60, 2)), system, QuadraticCost.identity(2, 2)


class TestFixedActions:
    def test_alignment_hand_check(self):
        # u_0 has no history; u_1 = M1 w_0; u_2 = M1 w_1 + M2 w_0
        W = np.array([[1.0], [10.0], [100.0]])
        M = np.array([2.0, 3.0]).reshape(2, 1, 1)
        U = _fixed_actions(W, M)
        assert U[:, 0] == pytest.approx([0.0, 2.0, 23.0])

    def test_zero_parameters(self):
        U = _fixed_actions(np.ones((5, 2)), np.zeros((3, 1, 2)))
        assert np.array_equal(U, np.zeros((5, 1)))


class TestReplay:
    def test_zero_policy_uncontrolled_trajectory(self):
        system = scalar_system(a=0.5)
        W = np.array([[1.0], [0.0], [0.0]])
        X, U, costs = replay_fixed_gpc(W, np.zeros((1, 1, 1)), system, COST_1D, 1)
        # x: 0, 1, 0.5, (0.25 beyond horizon); costs are squared states
        assert X[:, 0] == pytest.approx([0.0, 1.0, 0.5, 0.25])
        assert np.array_equal(U, np.zeros((3, 1)))
        assert costs == pytest.approx([0.0, 1.0, 0.25])

    def test_zero_disturbances_zero_cost(self):
        total = evaluate_fixed_gpc(
            np.zeros((10, 1)), 0.3 * np.ones((2, 1, 1)), scalar_system(), COST_1D, 2
        )
        assert total == 0.0

    def test_total_matches_cost_sum(self):
        rng = np.random.default_rng(5)
        W = rng.normal(size=(20, 1))
        M = rng.normal(size=(3, 1, 1))
        system = scalar_system(0.7, 0.9)
        _, _, costs = replay_fixed_gpc(W, M, system, COST_1D, 3)
        assert evaluate_fixed_gpc(W, M, system, COST_1D, 3) == pytest.approx(costs.sum())

    def test_bad_m_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            replay_fixed_gpc(np.zeros((4, 1)), np.zeros((2, 1)), scalar_system(), COST_1D, 2)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            replay_fixed_gpc(
                np.zeros((4, 2)), np.zeros((2, 1, 1)), scalar_system(), COST_1D, 2
            )


class TestQuadratic:
    def test_matches_replay_cost(self):
        rng = np.random.default_rng(11)
        system = two_state_system()
        cost = QuadraticCost.identity(2, 1)
        W = rng.normal(size=(15, 2))
        P, q, c0 = fixed_gpc_quadratic(W, system, cost, 2)
        for _ in range(5):
            M = rng.normal(size=(2, 1, 2))
            m = M.ravel()
            replayed = evaluate_fixed_gpc(W, M, system, cost, 2)
            assert m @ P @ m + 2.0 * q @ m + c0 == pytest.approx(replayed, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        system = two_state_system()
        cost = QuadraticCost.identity(2, 1)
        W = rng.normal(size=(15, 2))
        M0 = rng.normal(size=(2, 1, 2))
        P, q, _ = fixed_gpc_quadratic(W, system, cost, 2)
        analytic = 2.0 * (P @ M0.ravel() + q)
        fd = fd_gradient(W, M0, system, cost, 2)
        assert np.abs(analytic - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())

    def test_zero_stream_is_zero(self):
        P, q, c0 = fixed_gpc_quadratic(np.zeros((10, 1)), scalar_system(), COST_1D, 2)
        assert np.array_equal(P, np.zeros((2, 2)))
        assert np.array_equal(q, np.zeros(2))
        assert c0 == 0.0


class TestBestFixed:
    def test_zero_stream_zero_optimum(self):
        M_star, c_star = best_fixed_gpc(np.zeros((20, 1)), scalar_system(), COST_1D, 2)
        assert np.array_equal(M_star, np.zeros((2, 1, 1)))
        assert c_star == 0.0

    def test_impulse_response_grid_search(self):
        # single unit impulse at t=0 on x' = 0.5x + u: the optimum trades the
        # echo (0.5 + M)^2/(1 - 0.25) against the action cost M^2, so M* = -2/7
        system = scalar_system(0.5, 1.0)
        W = np.zeros((40, 1))
        W[0, 0] = 1.0
        M_star, c_star = best_fixed_gpc(W, system, COST_1D, 1)
        grid = np.arange(-2.0, 2.0 + 1e-9, 1e-3)
        costs = [
            evaluate_fixed_gpc(W, np.array([[[m]]]), system, COST_1D, 1) for m in grid
        ]
        m_grid = grid[int(np.argmin(costs))]
        assert M_star.item() == pytest.approx(m_grid, abs=1e-3)
        assert M_star.item() == pytest.approx(-2.0 / 7.0, abs=1e-3)
        assert c_star <= min(costs) + 1e-9

    def test_iid_scalar_closed_form(self):
        # memoryless system A=0, B=1, H=1: quadratic in M with closed form
        # M* = -sum w_s w_{s-1} / (sum w_{s-1}^2 + sum_{s<=T-2} w_s^2)
        rng = np.random.default_rng(23)
        W = rng.normal(size=(200, 1))
        system = scalar_system(0.0, 1.0)
        M_star, _ = best_fixed_gpc(W, system, COST_1D, 1)
        w = W[:, 0]
        num = np.sum(w[1:-1] * w[:-2])
        den = np.sum(w[:-2] ** 2) + np.sum(w[:-1] ** 2)
        assert M_star.item() == pytest.approx(-num / den, abs=1e-8)

    def test_sinusoidal_strictly_improves_on_zero(self):
        t = np.arange(300)
        W = (np.sin(t) / (2 * np.pi)).reshape(-1, 1)
        system = scalar_system(0.9, 1.0)
        M_star, c_star = best_fixed_gpc(W, system, COST_1D, 5)
        assert c_star < evaluate_fixed_gpc(W, np.zeros((5, 1, 1)), system, COST_1D, 5)

    def test_tight_ball_binds_on_boundary(self):
        rng = np.random.default_rng(37)
        W = rng.normal(size=(80, 1))
        system = scalar_system(0.6, 1.0)
        M_free, _ = best_fixed_gpc(W, system, COST_1D, 2)
        radius = 0.25 * float(np.linalg.norm(M_free))
        M_tight, c_tight = best_fixed_gpc(W, system, COST_1D, 2, R_M=radius)
        assert float(np.linalg.norm(M_tight)) == pytest.approx(radius, rel=1e-5)
        # still beats the naive rescale of the unconstrained optimum or ties it
        clipped = M_free * (radius / np.linalg.norm(M_free))
        assert c_tight <= evaluate_fixed_gpc(W, clipped, system, COST_1D, 2) + 1e-9
        # KKT on the rim: the gradient P m + q points straight back inside
        P, q, _ = fixed_gpc_quadratic(W, system, COST_1D, 2)
        m = M_tight.ravel()
        g = P @ m + q
        cosine = g @ m / (np.linalg.norm(g) * np.linalg.norm(m))
        assert cosine == pytest.approx(-1.0, abs=1e-6)

    def test_multidim_stationarity(self):
        W, system, cost = pinned_multidim()
        M_star, _ = best_fixed_gpc(W, system, cost, 2)
        assert np.abs(fd_gradient(W, M_star, system, cost, 2)).max() <= 1e-5

    @pytest.mark.parametrize(
        "R_M, expected",
        [(10.0, 101.55745304437902), (0.1, 114.46815210959532)],
        ids=["free", "rim"],
    )
    def test_pinned_optimal_cost(self, R_M, expected):
        # Costs an independent solver (adjoint gradients, Hessian from their
        # differences) reached on this stream: free optimum and a binding rim.
        W, system, cost = pinned_multidim()
        _, c_star = best_fixed_gpc(W, system, cost, 2, R_M=R_M)
        assert c_star == pytest.approx(expected, rel=1e-12)
