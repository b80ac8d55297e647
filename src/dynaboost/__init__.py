"""Boosting weak controllers for online control of dynamical systems."""

__version__ = "0.1.0"
