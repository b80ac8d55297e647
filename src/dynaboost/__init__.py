"""Boosting weak controllers for online control of dynamical systems."""

from dynaboost.boosting import DynaBoost, combination_weights, step_lengths
from dynaboost.controllers import (
    GpcController,
    LqrController,
    Observation,
    RecurrentController,
    WeakController,
    ZeroController,
    solve_dare,
)
from dynaboost.core import BallSet, RngStream, project_to_ball
from dynaboost.dynamics import (
    IidGaussianDisturbance,
    LinearSystem,
    PendulumSystem,
    RandomWalkDisturbance,
    SinusoidalDisturbance,
    Trajectory,
    counterfactual_state,
    random_lds,
)
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
    "IidGaussianDisturbance",
    "LinearResidualLoss",
    "LinearSystem",
    "LqrController",
    "Observation",
    "PendulumSystem",
    "ProxyLoss",
    "QuadraticCost",
    "QuadraticResidualLoss",
    "RandomWalkDisturbance",
    "RecurrentController",
    "RngStream",
    "SinusoidalDisturbance",
    "Trajectory",
    "WeakController",
    "ZeroController",
    "combination_weights",
    "counterfactual_state",
    "derive_curvature_bounds",
    "project_to_ball",
    "random_lds",
    "solve_dare",
    "step_lengths",
]
