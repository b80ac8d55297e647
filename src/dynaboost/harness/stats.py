"""Cross-run statistics of running-average cost curves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dynaboost.core import Array

CI_Z = 1.96  # two-sided 0.95 normal quantile


@dataclass(frozen=True)
class SeriesStats:
    """Per-round mean and 0.95 confidence band across runs.

    The band is absent when built from a single run.
    """

    mean: Array
    ci_lo: Array | None
    ci_hi: Array | None

    @property
    def has_ci(self) -> bool:
        return self.ci_lo is not None


def aggregate(series: list[Array] | Array) -> SeriesStats:
    """Stack per-run series (equal length required) into mean and CI band."""
    rows = [np.asarray(s, dtype=np.float64).ravel() for s in series]
    if not rows:
        raise ValueError("no runs to aggregate")
    T = rows[0].size
    for i, r in enumerate(rows):
        if r.size != T:
            raise ValueError(f"run {i} has length {r.size}, expected {T}")
    M = np.vstack(rows)
    mean = M.mean(axis=0)
    if len(rows) < 2:
        return SeriesStats(mean=mean, ci_lo=None, ci_hi=None)
    half = CI_Z * M.std(axis=0, ddof=1) / np.sqrt(len(rows))
    return SeriesStats(mean=mean, ci_lo=mean - half, ci_hi=mean + half)
