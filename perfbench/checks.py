"""Checks of an experiment's outputs, computed apart from the program.

Every check returns a list of problems; an empty list means it passed.
Stage costs, state transitions, the LQR gain and the aggregate statistics
are recomputed here from their definitions (identity-weight quadratic
cost, x' = Ax + Bu + w or the documented pendulum map, scipy's Riccati
solver, mean +- 1.96 sd / sqrt(R)), not read back from the program.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

CI_Z = 1.96
# Output CSVs carry 10 significant digits, so a re-parsed value is within
# 5e-10 of the exact one, relative; 1e-9 still rejects an error of 1e-6
# on any cost below 1000.
CSV_RTOL = 1e-9
EXACT_RTOL = 1e-12
# Statistics recomputed from re-parsed values: the mean inherits up to
# 5e-10 of the largest value, the CSV's own rounding adds 5e-10 more, and
# the half-width's error is at most 1.96 * 5e-10 / sqrt(R - 1) of it.
AGG_RTOL = 2e-9


def _close(a, b, rtol: float, scale=None) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ref = np.abs(b) if scale is None else scale
    return bool(np.all(np.abs(a - b) <= rtol * ref + 1e-300))


# ---------------------------------------------------------------------------
# the system, re-derived


def stage_costs(states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """x_t'Qx_t + u_t'Ru_t with Q = I, R = I, as the suites define the cost."""
    X = states[: actions.shape[0]]
    return np.einsum("tk,tk->t", X, X) + np.einsum("td,td->t", actions, actions)


def wrap_angle(theta):
    return np.mod(theta + math.pi, 2.0 * math.pi) - math.pi


def pendulum_next(p, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The pendulum's documented map, vectorised over rounds, before the disturbance.

    omega' = clip(omega + (3g/(2l) sin theta + 3/(m l^2) clip(u)) dt, +-max_speed),
    theta' = wrap(theta + omega' dt).
    """
    torque = np.clip(U[:, 0], -p.max_torque, p.max_torque)
    accel = 1.5 * p.g / p.l * np.sin(X[:, 0]) + 3.0 / (p.m * p.l**2) * torque
    omega = np.clip(X[:, 1] + accel * p.dt, -p.max_speed, p.max_speed)
    return np.stack([wrap_angle(X[:, 0] + omega * p.dt), omega], axis=1)


def pendulum_linearization(p) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of the pendulum map at the upright equilibrium, by hand."""
    a = 1.5 * p.g / p.l * p.dt
    b = 3.0 / (p.m * p.l**2) * p.dt
    A = np.array([[1.0 + p.dt * a, p.dt], [a, 1.0]])
    B = np.array([[p.dt * b], [b]])
    return A, B


@dataclass
class SystemModel:
    """What the checks know about one experiment's system."""

    system: object
    pendulum: bool
    A: np.ndarray
    B: np.ndarray
    radius: float

    @classmethod
    def of(cls, system, radius: float) -> "SystemModel":
        pendulum = type(system).__name__ == "PendulumSystem"
        if pendulum:
            A, B = pendulum_linearization(system)
        else:
            A, B = np.asarray(system.A), np.asarray(system.B)
        return cls(system, pendulum, A, B, radius)

    def next_states(self, X: np.ndarray, U: np.ndarray, W: np.ndarray) -> np.ndarray:
        if self.pendulum:
            return pendulum_next(self.system, X, U) + W
        return X @ self.A.T + U @ self.B.T + W

    def lqr_gain(self) -> np.ndarray:
        k, d = self.B.shape
        P = scipy.linalg.solve_discrete_are(self.A, self.B, np.eye(k), np.eye(d))
        BtP = self.B.T @ P
        return np.linalg.solve(np.eye(d) + BtP @ self.B, BtP @ self.A)


def project(U: np.ndarray, radius: float) -> np.ndarray:
    n = np.linalg.norm(U, axis=1, keepdims=True)
    return np.where(n > radius, U * (radius / np.maximum(n, 1e-300)), U)


# ---------------------------------------------------------------------------
# per-trajectory checks


def check_costs(traj) -> list[str]:
    want = stage_costs(traj.states, traj.actions)
    if not _close(traj.costs, want, EXACT_RTOL, scale=np.maximum(np.abs(want), 1e-12)):
        i = int(np.argmax(np.abs(traj.costs - want)))
        return [f"stage cost at t={i + 1}: {traj.costs[i]!r} != x'Qx + u'Ru = {want[i]!r}"]
    return []


def check_replay(traj, model: SystemModel) -> list[str]:
    """One-step replay: each recorded state from its predecessor, action and disturbance."""
    S = traj.states
    if not np.all(S[0] == 0.0):
        return ["run does not start from the zero state"]
    T = traj.horizon
    nxt = model.next_states(S[:T], traj.actions, traj.disturbances)
    err = nxt - S[1 : T + 1]
    if model.pendulum:
        err[:, 0] = wrap_angle(err[:, 0])
    scale = 1.0 + np.abs(S[1 : T + 1])
    if not np.all(np.abs(err) <= 1e-9 * scale):
        t = int(np.argmax(np.max(np.abs(err) / scale, axis=1)))
        return [f"replayed state at t={t + 1} is off by {float(np.abs(err[t]).max()):.3e}"]
    return []


def check_ball(traj, radius: float) -> list[str]:
    n = np.linalg.norm(traj.actions, axis=1)
    bad = np.flatnonzero(n > radius * (1.0 + 1e-12))
    if bad.size:
        t = int(bad[0])
        return [f"{traj.algorithm} action at t={t + 1} has norm {n[t]:.6g} > radius {radius:g}"]
    return []


def check_lqr(traj, model: SystemModel, K: np.ndarray) -> list[str]:
    want = project(-traj.states[: traj.horizon] @ K.T, model.radius)
    if not _close(traj.actions, want, 1e-8, scale=1.0 + np.abs(want)):
        t = int(np.argmax(np.abs(traj.actions - want).max(axis=1)))
        return [f"lqr action at t={t + 1} is {traj.actions[t]} but -Kx gives {want[t]}"]
    return []


# ---------------------------------------------------------------------------
# output files


def read_raw_csv(path) -> dict:
    """{(algorithm, run): (instant costs, running averages)} from the raw CSV."""
    rows: dict = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["experiment", "algorithm", "seed", "t", "instant_cost", "avg_cost"]:
            raise ValueError(f"unexpected raw CSV header {header}")
        for _exp, alg, run, t, inst, avg in reader:
            rows.setdefault((alg, int(run)), []).append((int(t), float(inst), float(avg)))
    out = {}
    for key, vals in rows.items():
        arr = np.array(vals)
        out[key] = (arr[:, 0].astype(int), arr[:, 1], arr[:, 2])
    return out


def check_raw_rows(traj, raw: dict) -> list[str]:
    key = (traj.algorithm, traj.seed)
    if key not in raw:
        return [f"raw CSV has no rows for {key}"]
    ts, inst, avg = raw[key]
    if not np.array_equal(ts, np.arange(1, traj.horizon + 1)):
        return [f"raw CSV rounds for {key} are not 1..{traj.horizon}"]
    want = stage_costs(traj.states, traj.actions)
    if not _close(inst, want, CSV_RTOL, scale=np.maximum(np.abs(want), 1e-12)):
        t = int(np.argmax(np.abs(inst - want)))
        return [f"raw CSV {key} instant cost at t={t + 1}: {inst[t]!r} != {want[t]!r}"]
    running = np.cumsum(want) / np.arange(1, want.size + 1)
    if not _close(avg, running, CSV_RTOL, scale=np.maximum(np.abs(running), 1e-12)):
        t = int(np.argmax(np.abs(avg - running)))
        return [f"raw CSV {key} running average at t={t + 1}: {avg[t]!r} != {running[t]!r}"]
    return []


def recomputed_stats(raw: dict, algorithm: str) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """(mean, half-width or None, largest |value|) per round of the raw CSV's running averages."""
    runs = sorted(r for a, r in raw if a == algorithm)
    M = np.vstack([raw[(algorithm, r)][2] for r in runs])
    mean = M.mean(axis=0)
    scale = np.maximum(np.abs(M).max(axis=0), 1e-12)
    if len(runs) < 2:
        return mean, None, scale
    return mean, CI_Z * M.std(axis=0, ddof=1) / math.sqrt(len(runs)), scale


def check_aggregate(path, raw: dict, algorithms) -> list[str]:
    """The aggregate CSV is mean +- 1.96 sd / sqrt(R) of the raw CSV's running averages."""
    agg: dict = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["algorithm", "t", "mean", "ci_lo", "ci_hi"]:
            return ["unexpected aggregate CSV header"]
        for alg, t, mean, lo, hi in reader:
            agg.setdefault(alg, []).append(
                (int(t), float(mean), float(lo) if lo else math.nan, float(hi) if hi else math.nan)
            )
    if sorted(agg) != sorted(algorithms):
        return [f"aggregate CSV algorithms {sorted(agg)} != {sorted(algorithms)}"]
    problems = []
    for alg in sorted(agg):
        arr = np.array(agg[alg])
        mean, half, scale = recomputed_stats(raw, alg)
        if not np.array_equal(arr[:, 0], np.arange(1, mean.size + 1)):
            problems.append(f"aggregate CSV rounds of {alg} are not 1..{mean.size}")
            continue
        if not _close(arr[:, 1], mean, AGG_RTOL, scale=scale):
            t = int(np.argmax(np.abs(arr[:, 1] - mean)))
            problems.append(f"aggregate mean of {alg} at t={t + 1}: {arr[t, 1]!r} != {mean[t]!r}")
        if half is None:
            if not np.all(np.isnan(arr[:, 2:])):
                problems.append(f"aggregate CSV gives {alg} a band from a single run")
        elif not (
            _close(arr[:, 2], mean - half, 2 * AGG_RTOL, scale=scale)
            and _close(arr[:, 3], mean + half, 2 * AGG_RTOL, scale=scale)
        ):
            problems.append(f"aggregate band of {alg} is not mean +- 1.96 sd/sqrt(R)")
    return problems


def check_manifest(manifest: dict, cfg, trajectories) -> list[str]:
    problems = []
    if manifest.get("runs") != cfg.runs or manifest.get("base_seed") != cfg.seed:
        problems.append("manifest runs/seed differ from the config")
    first = trajectories[sorted(trajectories)[0]]
    for traj in first:
        if traj.diverged:
            continue
        digest = hashlib.sha256(np.ascontiguousarray(traj.disturbances).tobytes()).hexdigest()
        if manifest.get("w_hash", {}).get(str(traj.seed)) != digest:
            problems.append(f"manifest w_hash of run {traj.seed} is not the stream's sha256")
    return problems


def check_paired(run_trajs: list) -> list[str]:
    """Every algorithm of one run saw the same disturbance stream."""
    ref = run_trajs[0]
    for traj in run_trajs[1:]:
        n = min(ref.horizon, traj.horizon)
        if not np.array_equal(ref.disturbances[:n], traj.disturbances[:n]):
            return [f"{traj.algorithm} and {ref.algorithm} saw different disturbances"]
    return []


def check_run(run_trajs: list, model: SystemModel, K: np.ndarray, raw: dict) -> list[str]:
    """All integrity checks of one seeded run, over every algorithm."""
    problems = check_paired(run_trajs)
    for traj in run_trajs:
        problems += check_costs(traj)
        problems += check_replay(traj, model)
        problems += check_ball(traj, model.radius)
        problems += check_raw_rows(traj, raw)
        if traj.algorithm == "lqr":
            problems += check_lqr(traj, model, K)
    return problems


# ---------------------------------------------------------------------------
# combination identity (traced runs) and the suites' claims


def combination_error(learner_actions: np.ndarray, boosted: np.ndarray) -> float:
    """|u - sum_i 2i/(N(N+1)) A_i|, the closed form of the dynaboost1 recursion."""
    N = learner_actions.shape[0]
    w = 2.0 * np.arange(1, N + 1) / (N * (N + 1.0))
    return float(np.max(np.abs(boosted - w @ learner_actions)))


def final_averages(raw: dict, algorithm: str) -> np.ndarray:
    runs = sorted(r for a, r in raw if a == algorithm)
    return np.array([raw[(algorithm, r)][2][-1] for r in runs])


def _band(raw: dict, algorithm: str) -> tuple[float, float, float]:
    mean, half, _ = recomputed_stats(raw, algorithm)
    h = 0.0 if half is None else float(half[-1])
    return float(mean[-1]) - h, float(mean[-1]), float(mean[-1]) + h


def claim_tracks_lqr_beats_zero(raw: dict) -> tuple[bool, str]:
    """The iid suite's claim: boosted within 15% of LQR, its band below zero's."""
    _, b, b_hi = _band(raw, "boosted")
    _, lqr, _ = _band(raw, "lqr")
    z_lo, _, _ = _band(raw, "zero")
    ok = abs(b / lqr - 1.0) <= 0.15 and b_hi < z_lo
    return ok, f"boosted/lqr {b / lqr:.4f}, boosted hi {b_hi:.5f} vs zero lo {z_lo:.5f}"


def claim_beats_zero(raw: dict) -> tuple[bool, str]:
    """Boosted's 95% band lies below the zero controller's."""
    _, b, b_hi = _band(raw, "boosted")
    z_lo, z, _ = _band(raw, "zero")
    return b_hi < z_lo, f"boosted {b:.4f} (hi {b_hi:.4f}) vs zero {z:.4f} (lo {z_lo:.4f})"


def claim_beats_single(raw: dict) -> tuple[bool, str]:
    """The correlated suite's claim: boosted mean <= single's, winning >= 80% of runs."""
    b = final_averages(raw, "boosted")
    s = final_averages(raw, "single")
    wins = int(np.sum(s - b > 0))
    ok = b.mean() <= s.mean() and wins >= 0.8 * b.size
    return ok, f"boosted {b.mean():.4f} vs single {s.mean():.4f}, wins {wins}/{b.size}"


CLAIMS = {
    "tracks_lqr_beats_zero": claim_tracks_lqr_beats_zero,
    "beats_zero": claim_beats_zero,
    "beats_single": claim_beats_single,
}
