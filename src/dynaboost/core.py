"""Shared numeric primitives.

Finite-checked vectors and matrices, the Euclidean action set with its
projection, zero-padded action windows kept as plain arrays, and
deterministic seeded random streams whose callers draw whole arrays at
once. All numerics are float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Array = np.ndarray


def as_vector(v, dim: int | None = None) -> Array:
    """Coerce to a finite float64 vector, optionally checking its length.

    Scalars become length-1 vectors. Non-finite entries or a length
    mismatch raise ValueError.
    """
    a = np.asarray(v, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1)
    if a.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector has non-finite entries")
    if dim is not None and a.shape[0] != dim:
        raise ValueError(f"expected vector of dim {dim}, got {a.shape[0]}")
    return a


def as_matrix(m, rows: int | None = None, cols: int | None = None) -> Array:
    """Coerce to a finite float64 matrix, optionally checking its shape."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if rows is not None and a.shape[0] != rows:
        raise ValueError(f"expected {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise ValueError(f"expected {cols} cols, got {a.shape[1]}")
    return a


@dataclass(frozen=True)
class BallSet:
    """Euclidean ball of the given radius: the action set."""

    radius: float
    dim: int

    def __post_init__(self):
        if not (self.radius > 0):
            raise ValueError(f"ball radius must be positive, got {self.radius}")
        if self.dim < 1:
            raise ValueError(f"ball dim must be positive, got {self.dim}")


def project_to_ball(v, ball: BallSet) -> Array:
    """Euclidean projection onto the ball: identity inside, radial rescale outside.

    Runs once per action inside the round loop, so v (a length-d vector) is
    not validated here.
    """
    a = np.asarray(v, dtype=np.float64)
    n = math.sqrt(a.dot(a))
    if n <= ball.radius:
        return a
    return a * (ball.radius / n)


def project_slots(raws: Array, ball: BallSet) -> tuple[Array, Array]:
    """Row-wise project_to_ball of an (..., H, d) stack, with each row's norm.

    The norms feed project_slots_vjp, which needs them to chain a gradient
    back through the same projection. Leading axes (a level axis, say) are
    batched; every row's arithmetic is the same as for a lone (H, d) stack.
    """
    norms = np.sqrt(np.einsum("...d,...d->...", raws, raws))
    outside = norms > ball.radius
    if not outside.any():
        return raws, norms
    scale = np.where(outside, ball.radius / np.where(outside, norms, 1.0), 1.0)
    return raws * scale[..., None], norms


def project_slots_vjp(raws: Array, norms: Array, g: Array, ball: BallSet) -> Array:
    """Row-wise J_j' g[j] in closed form, J_j the Jacobian of project_to_ball at raws[j].

    Inside the ball J_j is the identity; outside it is
    (R/n)(I - u u') with u = raw/n, which is symmetric. Leading axes are
    batched as in project_slots.
    """
    outside = norms > ball.radius
    if not outside.any():
        return g
    n = np.where(outside, norms, 1.0)[..., None]
    unit = raws / n
    tangent = g - unit * np.einsum("...d,...d->...", unit, g)[..., None]
    return np.where(outside[..., None], (ball.radius / n) * tangent, g)


def push_window(window: Array, x) -> None:
    """Shift every window of the stack one row older, in place, and write x as the newest row."""
    window[..., :-1, :] = window[..., 1:, :]
    window[..., -1, :] = x


def random_stream(seed: int, *path: int) -> np.random.Generator:
    """numpy's PCG64 generator keyed by (seed, path).

    The same key replays the same draws across runs and platforms, and
    distinct paths never share state, so a stream's draws do not depend on
    what other streams drew. PCG64 is named, not taken from default_rng,
    so that seeds reproduce if numpy changes its default.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path)))
