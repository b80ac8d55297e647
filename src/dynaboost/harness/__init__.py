"""Experiment orchestration: configs, runs, statistics, outputs, CLI."""
