"""Seeded multi-run experiment execution.

One experiment = one system (drawn once from the base seed), `runs`
disturbance realizations, and a fixed set of algorithms that all consume
the identical per-run disturbance stream, so cross-algorithm comparisons
are paired. Within a round the order is: observe state, act, suffer the
stage cost, transition, then learn from information available through
the previous round.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from dynaboost.boosting import DynaBoost
from dynaboost.controllers import (
    GpcController,
    LqrController,
    Observation,
    RecurrentController,
    ZeroController,
    solve_dare,
)
from dynaboost.core import BallSet, RngStream, push_window, zero_window
from dynaboost.dynamics import PendulumSystem, Trajectory, disturbance_hash, random_lds
from dynaboost.harness.config import ConfigError, ExperimentConfig, validate
from dynaboost.harness.stats import SeriesStats, aggregate
from dynaboost.losses import (
    CurvatureBounds,
    ProxyLoss,
    QuadraticCost,
    ResidualLoss,
    derive_curvature_bounds,
)

# Fixed substream layout under the base seed: child 0 draws the system,
# child 1 the per-run disturbances, child 2 the per-run controller inits.
_SYSTEM_STREAM = 0
_DISTURBANCE_STREAM = 1
_CONTROLLER_STREAM = 2


def build_system(cfg: ExperimentConfig):
    """Returns (system, cost); the system depends only on env config and seed."""
    if cfg.env.kind == "pendulum":
        system = PendulumSystem()
        return system, QuadraticCost.identity(2, 1)
    rng = RngStream(cfg.seed).child(_SYSTEM_STREAM)
    system = random_lds(rng, cfg.env.k, cfg.env.d, cfg.env.rho)
    return system, QuadraticCost.identity(cfg.env.k, cfg.env.d)


def draw_disturbances(cfg: ExperimentConfig, dim: int, run_index: int) -> np.ndarray:
    """The (T, dim) disturbance stream of run run_index, drawn whole before round 1.

    iid_gaussian: std z_t, a row longer than 10 std sqrt(dim) scaled back to
    that norm. random_walk: w_t = clip(w_{t-1} + std z_t) componentwise, from
    w_{-1} = 0. sinusoidal: every coordinate sin(t) / (2 pi). The z_t are the
    rows of one standard-normal (T, dim) draw from the run's substream.
    """
    d, T = cfg.disturbance, cfg.T
    if d.kind == "sinusoidal":
        # math.sin, not np.sin: numpy does not promise the same bits.
        wave = np.array([math.sin(t) / (2.0 * math.pi) for t in range(T)])
        return np.repeat(wave[:, None], dim, axis=1)
    rng = RngStream(cfg.seed).child(_DISTURBANCE_STREAM).child(run_index)
    # The zero mean is added, so std = 0 gives +0.0, never -0.0.
    W = 0.0 + d.std * rng.standard_normal((T, dim))
    if d.kind == "random_walk":
        w = np.zeros(dim)
        for t in range(T):
            W[t] = w = np.clip(w + W[t], d.clip_lo, d.clip_hi)
        return W
    cap = 10.0 * d.std * math.sqrt(dim)
    norms = np.linalg.norm(W, axis=1)
    capped = norms > cap
    W[capped] *= (cap / norms[capped])[:, None]
    return W


def make_weak_controller(
    cfg: ExperimentConfig, state_dim: int, ball: BallSet, rng: RngStream
) -> GpcController | RecurrentController:
    w = cfg.weak
    if w.kind == "gpc":
        return GpcController(
            state_dim, cfg.H, ball, R_M=w.R_M, lr=w.lr, lr_schedule=w.lr_schedule
        )
    return RecurrentController(
        state_dim,
        cfg.H,
        ball,
        rng,
        hidden_dim=w.hidden,
        lr=w.lr,
        cell=w.cell,
        clip_norm=w.clip_norm,
        lr_schedule=w.lr_schedule,
        weight_radius=w.weight_radius,
    )


def recurrent_parameter_count(k: int, d: int, hidden: int, cell: str) -> int:
    """Parameter count of a recurrent learner of these sizes, read off a built one."""
    net = RecurrentController(k, 1, BallSet(1.0, d), RngStream(0), hidden_dim=hidden, cell=cell)
    return net.params.size


def overparam_hidden(k: int, d: int, hidden: int, cell: str, N: int) -> int:
    """Smallest hidden size whose parameter count reaches N small nets."""
    target = N * recurrent_parameter_count(k, d, hidden, cell)
    h = hidden
    while recurrent_parameter_count(k, d, h, cell) < target:
        h += 1
    return h


class _SelfTaughtPolicy:
    """One weak controller doing plain gradient steps on its own window."""

    def __init__(self, name: str, ctrl: GpcController | RecurrentController, H: int):
        self.name = name
        self.ctrl = ctrl
        self.window = zero_window(H, ctrl.action_ball.dim)  # last H actions, oldest first

    def act(self, obs: Observation):
        u = self.ctrl.act(obs)
        push_window(self.window, u)
        return u

    def update(self, window_loss, w_history):
        grads = window_loss.gradients(self.window)
        self.ctrl.receive_loss(ResidualLoss(grads, self.window), w_history)


def derive_settings(cfg: ExperimentConfig, system, cost) -> tuple:
    """(LQR gain or None, dynaboost2's curvature or None), from the system's linearization.

    A given alpha or beta is kept and the other one is derived; a given
    value on the wrong side of the derived one is a ConfigError.
    """
    A, B = system.linearization()
    lqr = solve_dare(A, B, cost.Q, cost.R)[1] if "lqr" in cfg.baselines else None
    if cfg.booster.variant != "dynaboost2":
        return lqr, None
    given, derived = cfg.booster, derive_curvature_bounds(A, B, cost, cfg.H)
    alpha = derived.alpha if given.alpha is None else given.alpha
    beta = derived.beta if given.beta is None else given.beta
    if alpha > beta:  # validate orders two given values, so one of these is derived
        name, other = ("alpha", "beta") if given.alpha is not None else ("beta", "alpha")
        raise ConfigError(
            f"{cfg.source}: booster.{name}: need alpha <= beta, got {name} "
            f"{getattr(given, name)} and the derived {other} {getattr(derived, other)}"
        )
    return lqr, CurvatureBounds(alpha=alpha, beta=beta)


def build_policies(
    cfg: ExperimentConfig, system, cost, run_index: int, derived: tuple | None = None
) -> list:
    """Fresh policies for one run; derived is derive_settings(cfg, system, cost), made here if None."""
    lqr, curvature = derive_settings(cfg, system, cost) if derived is None else derived
    ball = BallSet(cfg.action_radius, system.action_dim)
    base = RngStream(cfg.seed).child(_CONTROLLER_STREAM).child(run_index)
    learners = [
        make_weak_controller(cfg, system.state_dim, ball, base.child(0).child(i))
        for i in range(cfg.N)
    ]
    policies = [DynaBoost(learners, cfg.H, variant=cfg.booster.variant, curvature=curvature)]
    for name in cfg.baselines:
        if name == "single":
            ctrl = make_weak_controller(cfg, system.state_dim, ball, base.child(1))
            policies.append(_SelfTaughtPolicy("single", ctrl, cfg.H))
        elif name == "zero":
            policies.append(ZeroController(ball))
        elif name == "lqr":
            policies.append(LqrController(lqr, ball))
        elif name == "overparam":
            hidden = overparam_hidden(
                system.state_dim, system.action_dim, cfg.weak.hidden, cfg.weak.cell, cfg.N
            )
            net = replace(cfg, weak=replace(cfg.weak, kind="rnn", hidden=hidden))
            ctrl = make_weak_controller(net, system.state_dim, ball, base.child(2))
            policies.append(_SelfTaughtPolicy("overparam", ctrl, cfg.H))
        else:
            raise ValueError(f"unknown baseline {name!r}")
    return policies


def run_episode(
    system,
    cost,
    cfg: ExperimentConfig,
    policy,
    w_seq: np.ndarray,
    run_index: int,
) -> Trajectory:
    """One policy over one disturbance stream.

    A policy without an update (zero, LQR) gets no window loss.
    """
    T = w_seq.shape[0]
    k = system.state_dim
    d = system.action_dim
    H = cfg.H
    states = np.zeros((T + 1, k))
    actions = np.zeros((T, d))
    costs = np.zeros(T)
    # Row t + i of the zero-padded stream is w_{t-2H+1+i}, so the
    # disturbance history of round t is the read-only view padded[t : t+2H-1].
    padded = np.vstack([np.zeros((2 * H - 1, k)), w_seq])
    padded.flags.writeable = False
    # The trajectory records a read-only view of the stream, not a copy.
    w_seq = w_seq.view()
    w_seq.flags.writeable = False
    update = getattr(policy, "update", None)
    x = np.zeros(k)
    diverged = False
    t_end = T
    for t in range(T):
        hist = padded[t : t + 2 * H - 1]
        obs = Observation(x, hist[H - 1 :])
        u = policy.act(obs)
        c = cost.value(x, u)
        x_next = system.step(x, u, w_seq[t])
        actions[t] = u
        costs[t] = c
        # A non-finite state has a NaN or infinite norm, so one dot product
        # covers both the finiteness and the divergence check.
        if not (math.sqrt(x_next.dot(x_next)) <= cfg.divergence_threshold and math.isfinite(c)):
            diverged = True
            if bool(np.all(np.isfinite(x_next))) and math.isfinite(c):
                states[t + 1] = x_next
                t_end = t + 1
            else:
                t_end = t
            break
        states[t + 1] = x_next
        if update is not None:
            update(ProxyLoss(system, cost, H, hist[H:]), hist)
        x = x_next
    return Trajectory(
        states=states[: t_end + 1],
        actions=actions[:t_end],
        disturbances=w_seq[:t_end],
        costs=costs[:t_end],
        algorithm=policy.name,
        seed=run_index,
        diverged=diverged,
    )


def build_experiment(cfg: ExperimentConfig) -> tuple:
    """(system, cost, derive_settings of them): what every run of the experiment shares."""
    system, cost = build_system(cfg)
    return system, cost, derive_settings(cfg, system, cost)


def _run_one(cfg: ExperimentConfig, run_index: int, built: tuple) -> tuple[str, dict]:
    """(stream hash, policy name -> trajectory) of run run_index; built is build_experiment(cfg)."""
    system, cost, derived = built
    w_seq = draw_disturbances(cfg, system.state_dim, run_index)
    out = {}
    for policy in build_policies(cfg, system, cost, run_index, derived):
        out[policy.name] = run_episode(system, cost, cfg, policy, w_seq, run_index)
    return disturbance_hash(w_seq), out


@dataclass
class ExperimentResult:
    trajectories: dict[str, list[Trajectory]]
    stats: dict[str, SeriesStats]
    w_hashes: list[str]
    diverged: dict[str, set] = field(default_factory=dict)

    @property
    def algorithms(self) -> list[str]:
        return sorted(self.trajectories)

    def boosted_diverged(self) -> bool:
        return bool(self.diverged.get("boosted"))

    def final_averages(self, algorithm: str) -> np.ndarray:
        """Final running-average cost of each run, in run order."""
        return np.array(
            [t.running_average()[-1] for t in self.trajectories[algorithm]]
        )


def run_experiment(
    cfg: ExperimentConfig, parallel: int = 1, built: tuple | None = None
) -> ExperimentResult:
    """Every run of cfg; built is build_experiment(cfg), made here if None."""
    # A config built in code has passed no loader, so check it here, once.
    def fail(path: tuple, msg: str):
        raise ConfigError(f"{cfg.source}: {'.'.join(map(str, path))}: {msg}")

    validate(cfg, fail)
    if built is None:
        built = build_experiment(cfg)
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as ex:
            futures = [ex.submit(_run_one, cfg, r, built) for r in range(cfg.runs)]
            per_run = [f.result() for f in futures]
    else:
        per_run = [_run_one(cfg, r, built) for r in range(cfg.runs)]

    w_hashes = [w_hash for w_hash, _ in per_run]
    algorithms = list(per_run[0][1])
    trajectories = {alg: [run[alg] for _, run in per_run] for alg in algorithms}
    diverged = {
        alg: {t.seed for t in trajs if t.diverged} for alg, trajs in trajectories.items()
    }
    stats = {}
    for alg in algorithms:
        if diverged[alg]:
            continue
        stats[alg] = aggregate([t.running_average() for t in trajectories[alg]])
    return ExperimentResult(
        trajectories=trajectories,
        stats=stats,
        w_hashes=w_hashes,
        diverged=diverged,
    )
