import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynaboost.core import (
    BallSet,
    as_matrix,
    as_vector,
    project_slots,
    project_slots_vjp,
    project_to_ball,
    push_window,
    random_stream,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def vectors(dim):
    return st.lists(finite_floats, min_size=dim, max_size=dim).map(np.array)


def test_as_vector_scalar_promotes():
    v = as_vector(3.0)
    assert v.shape == (1,)
    assert v.dtype == np.float64


def test_as_vector_rejects_nan_and_bad_dim():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], dim=3)
    with pytest.raises(ValueError):
        as_vector(np.zeros((2, 2)))


def test_as_matrix_scalar_and_shape_checks():
    assert as_matrix(2.0).shape == (1, 1)
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)), rows=3)
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_ball_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        BallSet(0.0, 2)
    with pytest.raises(ValueError):
        BallSet(-1.0, 2)


def test_projection_inside_is_identity():
    ball = BallSet(5.0, 3)
    v = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(project_to_ball(v, ball), v)


def test_projection_outside_rescales():
    ball = BallSet(1.0, 2)
    p = project_to_ball([3.0, 4.0], ball)
    assert np.allclose(p, [0.6, 0.8])
    assert np.isclose(np.linalg.norm(p), 1.0)


@given(vectors(3), st.floats(min_value=0.1, max_value=10.0))
def test_projection_lands_in_ball(v, radius):
    ball = BallSet(radius, 3)
    assert np.linalg.norm(project_to_ball(v, ball)) <= radius * (1 + 1e-12)


@given(vectors(4), vectors(4), st.floats(min_value=0.1, max_value=5.0))
def test_projection_is_contraction(u, v, radius):
    # Euclidean projection onto a convex set never expands distances.
    ball = BallSet(radius, 4)
    du = project_to_ball(u, ball) - project_to_ball(v, ball)
    assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-9


def projection_jacobian(v, ball: BallSet) -> np.ndarray:
    """Jacobian of project_to_ball at v (identity on and inside the boundary)."""
    a = as_vector(v, ball.dim)
    n = float(np.linalg.norm(a))
    if n <= ball.radius:
        return np.eye(ball.dim)
    unit = a / n
    return (ball.radius / n) * (np.eye(ball.dim) - np.outer(unit, unit))


def test_projection_jacobian_matches_fd():
    ball = BallSet(1.0, 3)
    h = 1e-7
    for v in (np.array([0.2, -0.1, 0.05]), np.array([2.0, -1.0, 0.5])):
        J = projection_jacobian(v, ball)
        fd = np.zeros((3, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd[:, i] = (project_to_ball(v + e, ball) - project_to_ball(v - e, ball)) / (2 * h)
        assert np.allclose(J, fd, atol=1e-6)


def _slot_stack(rng, d, radius, scales):
    """Rows of random direction whose norms are radius * scales."""
    raws = rng.normal(size=(len(scales), d))
    return raws * (radius * np.asarray(scales) / np.linalg.norm(raws, axis=1))[:, None]


@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize(
    "scales",
    [
        [0.2, 3.0, 0.9, 1.5, 1.0],  # interior, saturated and on-the-rim slots mixed
        [0.1, 0.5, 0.7],  # all interior
        [2.0, 4.0, 1.01],  # all saturated
    ],
)
def test_batched_slot_projection_matches_per_slot(d, scales):
    rng = np.random.default_rng(7 * d + len(scales))
    ball = BallSet(1.5, d)
    raws = _slot_stack(rng, d, ball.radius, scales)
    g = rng.normal(size=raws.shape)
    actions, norms = project_slots(raws, ball)
    want = np.stack([project_to_ball(r, ball) for r in raws])
    assert np.allclose(actions, want, rtol=1e-12, atol=1e-15)
    assert np.allclose(norms, np.linalg.norm(raws, axis=1), rtol=1e-12, atol=0)
    vjp = project_slots_vjp(raws, norms, g, ball)
    want_vjp = np.stack([projection_jacobian(r, ball).T @ gj for r, gj in zip(raws, g)])
    assert np.allclose(vjp, want_vjp, rtol=1e-12, atol=1e-15)


class TestWindow:
    def test_push_evicts_oldest(self):
        w = np.zeros((2, 1))
        push_window(w, 1.0)
        push_window(w, 2.0)
        push_window(w, 3.0)
        assert np.array_equal(w, [[2.0], [3.0]])

    @given(st.lists(finite_floats, min_size=0, max_size=12), st.integers(1, 5))
    @settings(max_examples=50)
    def test_view_equals_padded_tail(self, xs, cap):
        w = np.zeros((cap, 1))
        for x in xs:
            push_window(w, x)
        tail = xs[-cap:]
        expect = [0.0] * (cap - len(tail)) + tail
        assert np.allclose(w.ravel(), expect)


class TestRngStream:
    """Random streams: numpy generators keyed by (seed, *path)."""

    def test_same_seed_same_draws(self):
        assert isinstance(random_stream(7).bit_generator, np.random.PCG64)
        a = random_stream(7).standard_normal(5)
        b = random_stream(7).standard_normal(5)
        assert np.array_equal(a, b)

    def test_children_are_independent_of_parent_consumption(self):
        # A path's stream must not depend on how much its prefix has drawn.
        random_stream(3).standard_normal(100)
        c1 = random_stream(3, 4).standard_normal(3)
        c2 = random_stream(3, 4).standard_normal(3)
        assert np.array_equal(c1, c2)

    def test_distinct_children_differ(self):
        keys = [(0,), (1,), (0, 0), (0, 1), (0, 0, 1), (0, 1, 0)]
        draws = [random_stream(*key).standard_normal(4) for key in keys]
        for i, a in enumerate(draws):
            for b in draws[i + 1 :]:
                assert not np.array_equal(a, b)

    def test_nested_paths(self):
        a = random_stream(5, 1, 2).standard_normal(2)
        b = random_stream(5, 1, 2).standard_normal(2)
        assert np.array_equal(a, b)

    def test_draws_do_not_depend_on_ancestors_or_siblings_drawing_first(self):
        alone = random_stream(11, 2, 3).standard_normal(4)
        # The streams of its prefixes and of a sibling draw first.
        for path in [(), (2,), (2, 4)]:
            random_stream(11, *path).standard_normal(7)
        stream = random_stream(11, 2, 3)
        drawn = np.concatenate([stream.standard_normal(1), stream.standard_normal(3)])
        assert np.array_equal(drawn, alone)


def test_gaussian_moments():
    draws = 0.5 + 2.0 * random_stream(123).standard_normal(20000)
    assert abs(draws.mean() - 0.5) < 0.05
    assert abs(draws.std() - 2.0) < 0.05
