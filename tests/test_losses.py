import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynaboost.core import random_stream
from dynaboost.dynamics import LinearSystem, PendulumSystem, random_lds, rollout
from dynaboost.losses import (
    CurvatureBounds,
    ProxyLoss,
    QuadraticCost,
    ResidualLoss,
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

    @pytest.mark.parametrize("k", [1, 2, 10, 100])
    @pytest.mark.parametrize("n", [1, 4])
    def test_block_value_has_the_bits_of_lone_values(self, k, n):
        # The runner charges its running policies as one (n, k) block; each
        # entry must be the lone call's x'Qx + u'Ru, and a lone call a float.
        rng = random_stream(9, k, n)
        d = max(1, k // 2)
        G, F = rng.standard_normal((k, k)), rng.standard_normal((d, d))
        c = QuadraticCost(G @ G.T, F @ F.T)
        for _ in range(20):
            X, U = rng.standard_normal((n, k)), rng.standard_normal((n, d))
            block = c.value(X, U)
            assert block.shape == (n,)
            for x, u, entry in zip(X, U, block):
                lone = c.value(x, u)
                assert type(lone) is float
                assert lone == float(x @ c.Q @ x + u @ c.R @ u)
                assert entry == lone

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
    return ProxyLoss(sys, cost, np.asarray(disturbances, dtype=np.float64))


class TestProxyLoss:
    def test_hand_example(self):
        # One replay step from zero: xhat = 0.5*0 + 1*1 + 0.5 = 1.5,
        # value = 1.5^2 + 2^2 = 6.25, grads (2*1.5*1, 2*2) = (3, 4)... the
        # action slot feeds through B=1 so slot0 grad is 2*1.5*1 = 3.
        loss = scalar_loss(H=2, disturbances=[[0.5]])
        U = np.array([[1.0], [2.0]])
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

    def test_shape_validation(self):
        loss = scalar_loss(H=2)
        with pytest.raises(ValueError):
            loss.value(np.zeros((3, 1)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_gradients_match_fd(self, seed):
        H = 1 + seed % 5
        sys = random_lds(random_stream(seed, 0), 2, 2, 0.8)
        cost = QuadraticCost.identity(2, 2)
        w = 0.3 * random_stream(seed, 1).standard_normal((H - 1, 2))
        loss = ProxyLoss(sys, cost, w)
        U = 0.5 * random_stream(seed, 2).standard_normal((H, 2))
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
        loss = ProxyLoss(sys, cost, 0.05 * random_stream(77, 0).standard_normal((3, 2)))
        U = 0.5 * random_stream(77, 1).standard_normal((4, 1))
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
    """ProxyLoss's gradients on a LinearSystem use the cached Markov operators
    and its value the rollout; both must agree with a step-by-step
    sensitivity replay."""

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("H", [1, 2, 5])
    def test_matches_sensitivity_replay(self, k, d, H):
        rng = np.random.default_rng(100 * k + 10 * d + H)
        for trial in range(5):
            system = random_lds(random_stream(trial, k, d), k, d, 0.9)
            L = rng.normal(size=(k, k))
            M = rng.normal(size=(d, d))
            cost = QuadraticCost(L @ L.T, M @ M.T + 0.1 * np.eye(d))
            w = rng.normal(size=(H - 1, k))
            loss = ProxyLoss(system, cost, w)
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


def _pendulum_chain(system, cost, w, U, regimes):
    """Slot gradients of one (H, 1) pendulum window: rollout's states, then
    grad_x chained back through jacobians twice. The first chain takes
    Ju' v and Jx' v as float products of the Jacobians' entries, each
    rounded on its own; the second as numpy's Ju.T @ v and Jx.T @ v.
    Adds to regimes the clips and wraps that the window's steps hit."""
    H = U.shape[0]
    X = rollout(system, 0.0, U[:-1], w)
    floats, products = np.empty(U.shape), np.empty(U.shape)
    floats[-1] = products[-1] = cost.grad_u(U[-1])
    v = cost.grad_x(X[-1])
    v_theta, v_dot = v.tolist()
    for j in range(H - 2, -1, -1):
        Jx, Ju = system.jacobians(X[j], U[j])
        (a, b), (d, e) = Jx.tolist()
        (c,), (f,) = Ju.tolist()
        floats[j] = c * v_theta + f * v_dot
        v_theta, v_dot = a * v_theta + d * v_dot, b * v_theta + e * v_dot
        products[j] = Ju.T @ v
        v = Jx.T @ v
        if abs(U[j, 0]) > system.max_torque:
            regimes.add("torque clip")
        if Jx[1, 1] == 0.0:
            regimes.add("speed clip")
        if abs(X[j + 1, 0] - w[j, 0] - X[j, 0]) > np.pi:
            regimes.add("angle wrap")
    return floats, products


class TestStackedWindows:
    """gradients() on an (N, H, d) stack: each row has the bits of a lone (H, d) call."""

    @pytest.mark.parametrize("d", [1, 10, 100])
    @pytest.mark.parametrize("H", [1, 2, 5])
    def test_lds_rows_equal_lone_calls(self, d, H):
        system = random_lds(random_stream(10 * d + H, 0), d, d, 0.9)
        cost = QuadraticCost(np.diag(1.0 + np.arange(d)), 0.5 * np.eye(d))
        w = random_stream(10 * d + H, 1).standard_normal((H - 1, d))
        loss = ProxyLoss(system, cost, w)
        U = random_stream(10 * d + H, 2).standard_normal((4, H, d))
        stacked = loss.gradients(U)
        assert stacked.shape == U.shape
        Phi, Psi = system.window_operators(H)
        for row, window in zip(stacked, U):
            assert np.array_equal(row, loss.gradients(window))
            # ... and of the plain matrix-vector products.
            v = 2.0 * (cost.Q @ (Psi @ w.ravel() + Phi @ window[:-1].ravel()))
            want = np.vstack([(v @ Phi).reshape(H - 1, d), 2.0 * (cost.R @ window[-1])])
            assert np.array_equal(row, want)
        two_axes = loss.gradients(U.reshape(2, 2, H, d))
        assert np.array_equal(two_axes, stacked.reshape(2, 2, H, d))

    def test_pendulum_rows_equal_an_independent_chain(self):
        # The windows clip the torque, reach a pre-clip speed above 8 and
        # wrap the angle past pi; rows must match the float chain bit for
        # bit, and numpy's matrix-vector chain to 1e-12 of the window's
        # largest gradient.
        system = PendulumSystem()
        cost = QuadraticCost([[2.0, 0.3], [0.3, 0.5]], [[0.7]])
        big_w = np.array([[3.0, 8.5], [0.2, -0.5], [-0.1, 0.3], [0.05, -0.2]])
        regimes = set()
        for H in (1, 2, 5):
            w = big_w[: H - 1]
            loss = ProxyLoss(system, cost, w)
            U = 3.0 * random_stream(H).standard_normal((4, H, 1))
            stacked = loss.gradients(U)
            assert stacked.shape == U.shape
            for row, window in zip(stacked, U):
                want, products = _pendulum_chain(system, cost, w, window, regimes)
                assert np.array_equal(row, want)
                assert np.array_equal(loss.gradients(window), want)
                assert np.abs(row - products).max() <= 1e-12 * np.abs(products).max()
            two_axes = loss.gradients(U.reshape(2, 2, H, 1))
            assert np.array_equal(two_axes, stacked.reshape(2, 2, H, 1))
        assert regimes == {"torque clip", "speed clip", "angle wrap"}


class TestLinearResidualLoss:
    """ResidualLoss with coefficient 0, the dynaboost1 residual."""

    def test_value_is_inner_product(self):
        g = np.array([[1.0], [2.0]])
        loss = ResidualLoss(g, np.zeros_like(g))
        assert loss.value(np.array([[3.0], [4.0]])) == pytest.approx(11.0)

    def test_slot_gradients_constant(self):
        g = np.array([[1.0, -1.0]])
        loss = ResidualLoss(g, np.array([[0.5, -2.0]]))
        assert np.array_equal(loss.slot_gradients(np.array([[9.0, 9.0]])), g)

    def test_anchors_shift_value_by_a_constant(self):
        g, a, u = (random_stream(3, i).standard_normal((3, 2)) for i in range(3))
        plain = ResidualLoss(g, np.zeros_like(g)).value(u)
        assert ResidualLoss(g, a).value(u) == pytest.approx(plain - np.sum(g * a))

    @given(st.integers(0, 1000))
    @settings(max_examples=40)
    def test_linearity(self, seed):
        g = random_stream(seed, 0).standard_normal((3, 2))
        u = random_stream(seed, 1).standard_normal((3, 2))
        v = random_stream(seed, 2).standard_normal((3, 2))
        loss = ResidualLoss(g, np.zeros_like(g))
        assert loss.value(u + v) == pytest.approx(loss.value(u) + loss.value(v), abs=1e-9)


class TestQuadraticResidualLoss:
    """ResidualLoss with a positive coefficient, the dynaboost2 residual."""

    def test_zero_at_anchor(self):
        loss = ResidualLoss(np.ones((2, 1)), np.zeros((2, 1)), 0.5)
        assert loss.value(np.zeros((2, 1))) == 0.0

    def test_value_and_gradient(self):
        g = np.array([[1.0]])
        a = np.array([[2.0]])
        loss = ResidualLoss(g, a, 0.5)
        u = np.array([[4.0]])
        assert loss.value(u) == pytest.approx(0.5 * 4 + 1 * 2)
        assert np.allclose(loss.slot_gradients(u), [[2 * 0.5 * 2 + 1]])

    def test_strong_convexity(self):
        # Hessian is 2c I, so the Jensen midpoint gap equals (c/4)||u-v||^2
        # exactly; checks the certified 2c-strong-convexity modulus.
        g = random_stream(5, 0).standard_normal((3, 2))
        a = random_stream(5, 1).standard_normal((3, 2))
        c = 0.7
        loss = ResidualLoss(g, a, c)
        u = random_stream(5, 2).standard_normal((3, 2))
        v = random_stream(5, 3).standard_normal((3, 2))
        mid = 0.5 * (u + v)
        gap = 0.5 * loss.value(u) + 0.5 * loss.value(v) - loss.value(mid)
        assert gap == pytest.approx(0.25 * c * float(np.sum((u - v) ** 2)), rel=1e-9)

    def test_gradient_matches_fd(self):
        loss = ResidualLoss(
            random_stream(9, 0).standard_normal((2, 2)),
            random_stream(9, 1).standard_normal((2, 2)),
            1.3,
        )
        U = random_stream(9, 2).standard_normal((2, 2))
        g = loss.slot_gradients(U)
        h = 1e-6
        for j in range(2):
            for i in range(2):
                E = np.zeros((2, 2))
                E[j, i] = h
                fd = (loss.value(U + E) - loss.value(U - E)) / (2 * h)
                assert g[j, i] == pytest.approx(fd, abs=1e-7)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ResidualLoss(np.zeros((2, 1)), np.zeros((3, 1)), 1.0).value(np.zeros((2, 1)))


class TestCurvatureBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            CurvatureBounds(alpha=0.0, beta=1.0)
        with pytest.raises(ValueError):
            CurvatureBounds(alpha=2.0, beta=1.0)
        for alpha, beta in [(1.0, math.inf), (math.inf, math.inf)]:
            with pytest.raises(ValueError, match=r"need 0 < alpha <= beta < inf, got .*inf$"):
                CurvatureBounds(alpha=alpha, beta=beta)

    def test_memoryless_case(self):
        # H=1 has no state path: alpha = lmin(R) = 2... no, alpha = lmin(R),
        # beta = 2(lmax(R) + lmax(Q) ||B||^2).
        sys = LinearSystem([[0.5]], [[1.0]])
        cb = derive_curvature_bounds(sys.A, sys.B, QuadraticCost.identity(1, 1), 1)
        assert cb.alpha == pytest.approx(1.0)
        assert cb.beta == pytest.approx(2.0 * (1.0 + 1.0))

    def test_scalar_geometric_sum(self):
        # A=0.5, B=1, H=3: S = 1 + 0.5 + 0.25 = 1.75.
        sys = LinearSystem([[0.5]], [[1.0]])
        cb = derive_curvature_bounds(sys.A, sys.B, QuadraticCost.identity(1, 1), 3)
        assert cb.beta == pytest.approx(2.0 * (1.0 + 1.75**2))

    def test_beta_dominates_window_hessian(self):
        # The certified beta must upper-bound the largest eigenvalue of the
        # actual window-loss Hessian, here computed by finite differences.
        sys = random_lds(random_stream(21, 0), 2, 2, 0.7)
        cost = QuadraticCost.identity(2, 2)
        H = 3
        cb = derive_curvature_bounds(sys.A, sys.B, cost, H)
        loss = ProxyLoss(sys, cost, 0.2 * random_stream(21, 1).standard_normal((H - 1, 2)))
        n = H * 2
        U0 = 0.3 * random_stream(21, 2).standard_normal((H, 2))
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
            derive_curvature_bounds(sys.A, sys.B, QuadraticCost([[1.0]], [[0.0]]), 2)
