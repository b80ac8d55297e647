"""Boosting weak controllers for online control of dynamical systems."""

from dynaboost.boosting import DynaBoost, combination_weights, step_lengths
from dynaboost.controllers import (
    GpcController,
    LqrController,
    Observation,
    RecurrentController,
    ZeroController,
    solve_dare,
)
from dynaboost.core import BallSet, RngStream, project_to_ball
from dynaboost.dynamics import LinearSystem, PendulumSystem, Trajectory, random_lds
from dynaboost.losses import (
    CurvatureBounds,
    LinearResidualLoss,
    ProxyLoss,
    QuadraticCost,
    QuadraticResidualLoss,
    derive_curvature_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "BallSet",
    "CurvatureBounds",
    "DynaBoost",
    "GpcController",
    "LinearResidualLoss",
    "LinearSystem",
    "LqrController",
    "Observation",
    "PendulumSystem",
    "ProxyLoss",
    "QuadraticCost",
    "QuadraticResidualLoss",
    "RecurrentController",
    "RngStream",
    "Trajectory",
    "ZeroController",
    "combination_weights",
    "derive_curvature_bounds",
    "project_to_ball",
    "random_lds",
    "solve_dare",
    "step_lengths",
]
