import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynaboost.core import RngStream, Window
from dynaboost.dynamics import LinearSystem, PendulumSystem, random_lds
from dynaboost.losses import (
    CurvatureBounds,
    LinearResidualLoss,
    ProxyLoss,
    QuadraticCost,
    QuadraticResidualLoss,
    derive_curvature_bounds,
)


class TestQuadraticCost:
    def test_identity_value_and_grads(self):
        c = QuadraticCost.identity(2, 1)
        assert c.value([1.0, 2.0], [3.0]) == pytest.approx(14.0)
        assert np.allclose(c.grad_x([1.0, 2.0]), [2.0, 4.0])
        assert np.allclose(c.grad_u([3.0]), [6.0])

    def test_weighted(self):
        c = QuadraticCost([[2.0]], [[0.5]])
        assert c.value([3.0], [2.0]) == pytest.approx(2 * 9 + 0.5 * 4)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticCost([[1.0, 1.0], [0.0, 1.0]], [[1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            QuadraticCost([[-1.0]], [[1.0]])

    def test_accepts_psd_with_nullspace(self):
        QuadraticCost(np.diag([1.0, 0.0]), [[1.0]])


def scalar_loss(H=2, disturbances=None):
    sys = LinearSystem([[0.5]], [[1.0]])
    cost = QuadraticCost.identity(1, 1)
    if disturbances is None:
        disturbances = np.zeros((H - 1, 1))
    return ProxyLoss(sys, cost, H, disturbances)


class TestProxyLoss:
    def test_hand_example(self):
        # One replay step from zero: xhat = 0.5*0 + 1*1 + 0.5 = 1.5,
        # value = 1.5^2 + 2^2 = 6.25, grads (2*1.5*1, 2*2) = (3, 4)... the
        # action slot feeds through B=1 so slot0 grad is 2*1.5*1 = 3.
        loss = scalar_loss(H=2, disturbances=[[0.5]])
        U = np.array([[1.0], [2.0]])
        assert loss.truncated_state(U) == pytest.approx(1.5)
        assert loss.value(U) == pytest.approx(6.25)
        g = loss.gradients(U)
        assert np.allclose(g, [[3.0], [4.0]])

    def test_h1_reduces_to_control_cost(self):
        loss = scalar_loss(H=1)
        U = np.array([[2.0]])
        assert loss.value(U) == pytest.approx(4.0)
        assert np.allclose(loss.gradients(U), [[4.0]])

    def test_final_slot_gradient_is_2Ru(self):
        loss = scalar_loss(H=3)
        U = np.array([[0.3], [-0.2], [0.7]])
        assert loss.gradients(U)[-1, 0] == pytest.approx(2 * 0.7)

    def test_accepts_window_objects(self):
        loss = scalar_loss(H=2, disturbances=[[0.5]])
        w = Window(2, 1)
        w.push(1.0)
        w.push(2.0)
        assert loss.value(w) == pytest.approx(6.25)

    def test_shape_validation(self):
        loss = scalar_loss(H=2)
        with pytest.raises(ValueError):
            loss.value(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            ProxyLoss(LinearSystem([[0.5]], [[1.0]]), QuadraticCost.identity(1, 1), 3, [[0.1]])

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_gradients_match_fd(self, seed):
        rng = RngStream(seed)
        H = 1 + seed % 5
        sys = random_lds(rng.child(0), 2, 2, 0.8)
        cost = QuadraticCost.identity(2, 2)
        w = 0.3 * rng.child(1).standard_normal((H - 1, 2))
        loss = ProxyLoss(sys, cost, H, w)
        U = 0.5 * rng.child(2).standard_normal((H, 2))
        g = loss.gradients(U)
        h = 1e-6
        for j in range(H):
            for i in range(2):
                E = np.zeros((H, 2))
                E[j, i] = h
                fd = (loss.value(U + E) - loss.value(U - E)) / (2 * h)
                assert g[j, i] == pytest.approx(fd, abs=1e-6, rel=1e-6)

    def test_pendulum_gradients_match_fd(self):
        sys = PendulumSystem()
        cost = QuadraticCost.identity(2, 1)
        rng = RngStream(77)
        loss = ProxyLoss(sys, cost, 4, 0.05 * rng.child(0).standard_normal((3, 2)))
        U = 0.5 * rng.child(1).standard_normal((4, 1))
        g = loss.gradients(U)
        h = 1e-6
        for j in range(4):
            E = np.zeros((4, 1))
            E[j, 0] = h
            fd = (loss.value(U + E) - loss.value(U - E)) / (2 * h)
            assert g[j, 0] == pytest.approx(fd, abs=1e-5)


def _replay_window_loss(A, B, Q, R, w, U):
    """Window-loss value and slot gradients by stepping x' = Ax + Bu + w from
    zero and carrying the sensitivities dx/du_j forward alongside the state."""
    k, d = B.shape
    H = U.shape[0]
    x = np.zeros(k)
    sens = np.zeros((H, k, d))  # sens[j] = dx/du_j
    for j in range(H - 1):
        sens = np.einsum("ab,jbd->jad", A, sens)
        sens[j] += B
        x = A @ x + B @ U[j] + w[j]
    value = x @ Q @ x + U[-1] @ R @ U[-1]
    grads = np.einsum("jkd,k->jd", sens, 2.0 * Q @ x)
    grads[-1] = 2.0 * R @ U[-1]
    return value, grads


class TestLinearWindowOperators:
    """ProxyLoss on a LinearSystem uses the cached Markov operators; it must
    agree with a step-by-step sensitivity replay."""

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("H", [1, 2, 5])
    def test_matches_sensitivity_replay(self, k, d, H):
        rng = np.random.default_rng(100 * k + 10 * d + H)
        for trial in range(5):
            system = random_lds(RngStream(trial).child(k).child(d), k, d, 0.9)
            L = rng.normal(size=(k, k))
            M = rng.normal(size=(d, d))
            cost = QuadraticCost(L @ L.T, M @ M.T + 0.1 * np.eye(d))
            w = rng.normal(size=(H - 1, k))
            loss = ProxyLoss(system, cost, H, w)
            for _ in range(3):
                U = rng.normal(size=(H, d))
                want_value, want_grads = _replay_window_loss(
                    system.A, system.B, cost.Q, cost.R, w, U
                )
                scale = max(1.0, float(np.abs(want_grads).max()))
                assert np.abs(loss.gradients(U) - want_grads).max() <= 1e-12 * scale
                assert loss.value(U) == pytest.approx(want_value, rel=1e-12, abs=1e-300)

    def test_operators_are_markov_blocks_cached_per_memory(self):
        system = LinearSystem([[0.5, 0.1], [0.0, 0.3]], [[1.0], [0.5]])
        Phi, Psi = system.window_operators(4)
        A, B = system.A, system.B
        assert Phi.shape == (2, 3) and Psi.shape == (2, 6)
        for j, power in enumerate((A @ A, A, np.eye(2))):
            assert np.allclose(Phi[:, j : j + 1], power @ B, rtol=0, atol=1e-15)
            assert np.allclose(Psi[:, 2 * j : 2 * j + 2], power, rtol=0, atol=1e-15)
        assert system.window_operators(4)[0] is Phi
        assert not Phi.flags.writeable and not Psi.flags.writeable
        assert system.window_operators(1)[0].shape == (2, 0)


class TestLinearResidualLoss:
    def test_value_is_inner_product(self):
        g = np.array([[1.0], [2.0]])
        loss = LinearResidualLoss(g)
        assert loss.value([[3.0], [4.0]]) == pytest.approx(11.0)

    def test_slot_gradients_constant(self):
        g = np.array([[1.0, -1.0]])
        loss = LinearResidualLoss(g)
        assert np.allclose(loss.slot_gradients([[9.0, 9.0]]), g)

    @given(st.integers(0, 1000))
    @settings(max_examples=40)
    def test_linearity(self, seed):
        rng = RngStream(seed)
        g = rng.child(0).standard_normal((3, 2))
        u = rng.child(1).standard_normal((3, 2))
        v = rng.child(2).standard_normal((3, 2))
        loss = LinearResidualLoss(g)
        assert loss.value(u + v) == pytest.approx(loss.value(u) + loss.value(v), abs=1e-9)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LinearResidualLoss(np.array([[np.nan]]))


class TestQuadraticResidualLoss:
    def test_zero_at_anchor(self):
        loss = QuadraticResidualLoss(np.ones((2, 1)), np.zeros((2, 1)), 0.5)
        assert loss.value(np.zeros((2, 1))) == 0.0

    def test_value_and_gradient(self):
        g = np.array([[1.0]])
        a = np.array([[2.0]])
        loss = QuadraticResidualLoss(g, a, 0.5)
        u = np.array([[4.0]])
        assert loss.value(u) == pytest.approx(0.5 * 4 + 1 * 2)
        assert np.allclose(loss.slot_gradients(u), [[2 * 0.5 * 2 + 1]])

    def test_strong_convexity(self):
        # Hessian is 2c I, so the Jensen midpoint gap equals (c/4)||u-v||^2
        # exactly; checks the certified 2c-strong-convexity modulus.
        rng = RngStream(5)
        g = rng.child(0).standard_normal((3, 2))
        a = rng.child(1).standard_normal((3, 2))
        c = 0.7
        loss = QuadraticResidualLoss(g, a, c)
        u = rng.child(2).standard_normal((3, 2))
        v = rng.child(3).standard_normal((3, 2))
        mid = 0.5 * (u + v)
        gap = 0.5 * loss.value(u) + 0.5 * loss.value(v) - loss.value(mid)
        assert gap == pytest.approx(0.25 * c * float(np.sum((u - v) ** 2)), rel=1e-9)

    def test_gradient_matches_fd(self):
        rng = RngStream(9)
        loss = QuadraticResidualLoss(
            rng.child(0).standard_normal((2, 2)),
            rng.child(1).standard_normal((2, 2)),
            1.3,
        )
        U = rng.child(2).standard_normal((2, 2))
        g = loss.slot_gradients(U)
        h = 1e-6
        for j in range(2):
            for i in range(2):
                E = np.zeros((2, 2))
                E[j, i] = h
                fd = (loss.value(U + E) - loss.value(U - E)) / (2 * h)
                assert g[j, i] == pytest.approx(fd, abs=1e-7)

    def test_rejects_bad_coefficient(self):
        with pytest.raises(ValueError):
            QuadraticResidualLoss(np.zeros((1, 1)), np.zeros((1, 1)), 0.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            QuadraticResidualLoss(np.zeros((2, 1)), np.zeros((3, 1)), 1.0)


class TestCurvatureBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            CurvatureBounds(alpha=0.0, beta=1.0, bound=1.0)
        with pytest.raises(ValueError):
            CurvatureBounds(alpha=2.0, beta=1.0, bound=1.0)
        with pytest.raises(ValueError):
            CurvatureBounds(alpha=1.0, beta=2.0, bound=0.0)

    def test_memoryless_case(self):
        # H=1 has no state path: alpha = lmin(R) = 2... no, alpha = lmin(R),
        # beta = 2(lmax(R) + lmax(Q) ||B||^2).
        sys = LinearSystem([[0.5]], [[1.0]])
        cb = derive_curvature_bounds(sys, QuadraticCost.identity(1, 1), 1, W=1.0, R_u=1.0)
        assert cb.alpha == pytest.approx(1.0)
        assert cb.beta == pytest.approx(2.0 * (1.0 + 1.0))

    def test_scalar_geometric_sum(self):
        # A=0.5, B=1, H=3: S = 1 + 0.5 + 0.25 = 1.75.
        sys = LinearSystem([[0.5]], [[1.0]])
        cb = derive_curvature_bounds(sys, QuadraticCost.identity(1, 1), 3, W=1.0, R_u=1.0)
        assert cb.beta == pytest.approx(2.0 * (1.0 + 1.75**2))

    def test_beta_dominates_window_hessian(self):
        # The certified beta must upper-bound the largest eigenvalue of the
        # actual window-loss Hessian, here computed by finite differences.
        rng = RngStream(21)
        sys = random_lds(rng.child(0), 2, 2, 0.7)
        cost = QuadraticCost.identity(2, 2)
        H = 3
        cb = derive_curvature_bounds(sys, cost, H, W=1.0, R_u=1.0)
        loss = ProxyLoss(sys, cost, H, 0.2 * rng.child(1).standard_normal((H - 1, 2)))
        n = H * 2
        U0 = 0.3 * rng.child(2).standard_normal((H, 2))
        h = 1e-5
        Hess = np.zeros((n, n))
        for p in range(n):
            E = np.zeros(n)
            E[p] = h
            gp = loss.gradients(U0 + E.reshape(H, 2)).ravel()
            gm = loss.gradients(U0 - E.reshape(H, 2)).ravel()
            Hess[:, p] = (gp - gm) / (2 * h)
        lam_max = float(np.linalg.eigvalsh(0.5 * (Hess + Hess.T))[-1])
        assert cb.beta >= lam_max - 1e-6

    def test_alpha_requires_positive_definite_R(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        with pytest.raises(ValueError, match="strong convexity"):
            derive_curvature_bounds(sys, QuadraticCost([[1.0]], [[0.0]]), 2, W=1.0, R_u=1.0)
