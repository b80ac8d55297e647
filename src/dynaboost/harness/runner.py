"""Seeded multi-run experiment execution.

One experiment = one system (drawn once from the base seed), `runs`
disturbance realizations, and a fixed set of algorithms that all consume
the identical per-run disturbance stream, so cross-algorithm comparisons
are paired. A run plays all its policies in lockstep, round by round,
each with its own state, cost and divergence truncation. Within a round
each running policy observes its state, acts, suffers the stage cost and
transitions; then every policy that learns takes one shared step from
information available through the previous round: one window loss, one
gradients call over all their anchors, and one level-stack step per
parameter layout (boosting.SharedStep), whose learners the run joins once
(see controllers.LevelStack.join).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from dynaboost.boosting import DynaBoost, SharedStep
from dynaboost.controllers import (
    GpcController,
    LqrController,
    Observation,
    RecurrentController,
    ZeroController,
    solve_dare,
)
from dynaboost.core import BallSet, RngStream, push_window
from dynaboost.dynamics import PendulumSystem, Trajectory, disturbance_hash, random_lds
from dynaboost.harness.config import ConfigError, ExperimentConfig, validate
from dynaboost.harness.stats import SeriesStats, aggregate
from dynaboost.losses import (
    CurvatureBounds,
    ProxyLoss,
    QuadraticCost,
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
    """One weak controller doing plain gradient steps on its own window.

    A learning policy of one learner (see boosting.SharedStep): its anchor
    is the (1, H, d) window of its last H actions, oldest first, and its
    residual is linear (coefficient 0).
    """

    coefficients = np.zeros(1)

    def __init__(self, name: str, ctrl: GpcController | RecurrentController):
        self.name = name
        self.ctrl = ctrl
        self.learners = [ctrl]
        self.anchors = np.zeros((1, ctrl.H, ctrl.action_ball.dim))

    def act(self, obs: Observation):
        u = self.ctrl.act(obs.disturbances)
        push_window(self.anchors, u)
        return u


def derive_settings(cfg: ExperimentConfig, system, cost) -> tuple:
    """(LQR gain, dynaboost2's curvature, the overparam net's hidden size), each None if unused.

    A given alpha or beta is kept and the other one is derived from the
    system's linearization; a given value on the wrong side of the derived
    one is a ConfigError.
    """
    A, B = system.linearization()
    lqr = solve_dare(A, B, cost.Q, cost.R)[1] if "lqr" in cfg.baselines else None
    hidden = None
    if "overparam" in cfg.baselines:
        w = cfg.weak
        hidden = overparam_hidden(system.state_dim, system.action_dim, w.hidden, w.cell, cfg.N)
    if cfg.booster.variant != "dynaboost2":
        return lqr, None, hidden
    given, derived = cfg.booster, derive_curvature_bounds(A, B, cost, cfg.H)
    alpha = derived.alpha if given.alpha is None else given.alpha
    beta = derived.beta if given.beta is None else given.beta
    if alpha > beta:  # validate orders two given values, so one of these is derived
        name, other = ("alpha", "beta") if given.alpha is not None else ("beta", "alpha")
        raise ConfigError(
            f"{cfg.source}: booster.{name}: need alpha <= beta, got {name} "
            f"{getattr(given, name)} and the derived {other} {getattr(derived, other)}"
        )
    return lqr, CurvatureBounds(alpha=alpha, beta=beta), hidden


def build_policies(
    cfg: ExperimentConfig, system, cost, run_index: int, derived: tuple | None = None
) -> list:
    """Fresh policies for one run; derived is derive_settings(cfg, system, cost), made here if None."""
    lqr, curvature, hidden = derive_settings(cfg, system, cost) if derived is None else derived
    ball = BallSet(cfg.action_radius, system.action_dim)
    base = RngStream(cfg.seed).child(_CONTROLLER_STREAM).child(run_index)
    learners = [
        make_weak_controller(cfg, system.state_dim, ball, base.child(0).child(i))
        for i in range(cfg.N)
    ]
    policies = [DynaBoost(learners, curvature)]
    for name in cfg.baselines:
        if name == "single":
            ctrl = make_weak_controller(cfg, system.state_dim, ball, base.child(1))
            policies.append(_SelfTaughtPolicy("single", ctrl))
        elif name == "zero":
            policies.append(ZeroController(ball))
        elif name == "lqr":
            policies.append(LqrController(lqr, ball))
        elif name == "overparam":
            net = replace(cfg, weak=replace(cfg.weak, kind="rnn", hidden=hidden))
            ctrl = make_weak_controller(net, system.state_dim, ball, base.child(2))
            policies.append(_SelfTaughtPolicy("overparam", ctrl))
        else:
            raise ValueError(f"unknown baseline {name!r}")
    return policies


def _shared_step(policies: list) -> SharedStep | None:
    """The shared step of the policies that learn (those with learners); None if none does."""
    learning = [p for p in policies if hasattr(p, "learners")]
    return SharedStep(learning) if learning else None


def run_episode(
    system,
    cost,
    cfg: ExperimentConfig,
    policies: list,
    w_seq: np.ndarray,
    run_index: int,
) -> list[Trajectory]:
    """Every policy of one run over one disturbance stream, in lockstep; one trajectory each.

    The run joins its learners here (see controllers.LevelStack.join). A
    policy whose state diverges in round t leaves at round t, before that
    round's shared step, and the learners still running are joined again.
    A round in which no running policy learns builds no window loss.
    """
    shared = _shared_step(policies)
    T = w_seq.shape[0]
    k = system.state_dim
    d = system.action_dim
    H = cfg.H
    n = len(policies)
    states = np.zeros((n, T + 1, k))
    actions = np.zeros((n, T, d))
    costs = np.zeros((n, T))
    # Row t + i of the zero-padded stream is w_{t-2H+1+i}, so the
    # disturbance history of round t is the read-only view padded[t : t+2H-1].
    padded = np.vstack([np.zeros((2 * H - 1, k)), w_seq])
    padded.flags.writeable = False
    # The trajectories record read-only views of the stream, not copies.
    w_seq = w_seq.view()
    w_seq.flags.writeable = False
    xs = [np.zeros(k) for _ in policies]
    ends = [T] * n
    diverged = [False] * n
    running = list(range(n))
    for t in range(T):
        hist = padded[t : t + 2 * H - 1]
        recent, w = hist[H - 1 :], w_seq[t]
        left = False
        for i in running:
            x = xs[i]
            u = policies[i].act(Observation(x, recent))
            c = cost.value(x, u)
            x_next = system.step(x, u, w)
            actions[i, t] = u
            costs[i, t] = c
            # A non-finite state has a NaN or infinite norm, so one dot product
            # covers both the finiteness and the divergence check.
            if not (math.sqrt(x_next.dot(x_next)) <= cfg.divergence_threshold and math.isfinite(c)):
                diverged[i] = left = True
                if bool(np.all(np.isfinite(x_next))) and math.isfinite(c):
                    states[i, t + 1] = x_next
                    ends[i] = t + 1
                else:
                    ends[i] = t
                continue
            states[i, t + 1] = x_next
            xs[i] = x_next
        if left:
            running = [i for i in running if not diverged[i]]
            shared = _shared_step([policies[i] for i in running])
        if shared is not None:
            shared.step(ProxyLoss(system, cost, hist[H:]), hist)
        if not running:
            break
    return [
        Trajectory(
            states=states[i, : ends[i] + 1],
            actions=actions[i, : ends[i]],
            disturbances=w_seq[: ends[i]],
            costs=costs[i, : ends[i]],
            algorithm=policy.name,
            seed=run_index,
            diverged=diverged[i],
        )
        for i, policy in enumerate(policies)
    ]


def build_experiment(cfg: ExperimentConfig) -> tuple:
    """(system, cost, derive_settings of them): what every run of the experiment shares."""
    system, cost = build_system(cfg)
    return system, cost, derive_settings(cfg, system, cost)


def _run_one(cfg: ExperimentConfig, run_index: int, built: tuple) -> tuple[str, dict]:
    """(stream hash, policy name -> trajectory) of run run_index; built is build_experiment(cfg)."""
    system, cost, derived = built
    w_seq = draw_disturbances(cfg, system.state_dim, run_index)
    policies = build_policies(cfg, system, cost, run_index, derived)
    trajectories = run_episode(system, cost, cfg, policies, w_seq, run_index)
    return disturbance_hash(w_seq), {t.algorithm: t for t in trajectories}


@dataclass
class ExperimentResult:
    trajectories: dict[str, list[Trajectory]]
    stats: dict[str, SeriesStats]
    w_hashes: list[str]
    diverged: dict[str, set]

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
        # Imported here: the process pool's import costs every other caller
        # of this module about 20 ms.
        from concurrent.futures import ProcessPoolExecutor

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
