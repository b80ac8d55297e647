"""Experiment configuration: schema, defaults, YAML loading.

Config files are YAML. The dataclasses below are the schema: the reader
takes every key, type and default from their fields. `validate` holds every
range check, for config files (errors name the file and line of the
offending key) and for `ExperimentConfig.override` (errors name the field).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import yaml

ENV_KINDS = ("lds", "pendulum")
DISTURBANCE_KINDS = ("iid_gaussian", "random_walk", "sinusoidal")
BOOSTER_VARIANTS = ("dynaboost1", "dynaboost2")
# Each weak-learner kind with the lr and lr_schedule that fill what its config leaves unset.
# gpc's 0.3 is the calibrated shared base step for every linear learner in a
# boosted stack. Sweep over {0.2, 0.3, 0.5, 0.7}/sqrt(t) on the suite systems:
# 0.5 and up destabilize the d=10 ensemble (late levels see tiny residual
# gradients, so any base large enough to move level 1 overdrives them), 0.2
# parks all ratios at 1.13-1.15x LQR. 0.3 gives 1.09-1.11x everywhere.
WEAK_DEFAULTS = {"gpc": (0.3, "sqrt"), "rnn": (0.05, "constant")}
BASELINES = ("single", "lqr", "zero", "overparam")
CELLS = ("elman", "lstm")
LR_SCHEDULES = ("sqrt", "constant")


class ConfigError(Exception):
    """Invalid configuration; the message names the file and line, or the overridden field."""


@dataclass(frozen=True)
class EnvConfig:
    kind: str = "lds"
    k: int = 1
    d: int = 1
    rho: float = 0.9


@dataclass(frozen=True)
class DisturbanceConfig:
    kind: str = "iid_gaussian"
    std: float = 0.1
    clip_lo: float = -1.0
    clip_hi: float = 1.0


@dataclass(frozen=True)
class BoosterConfig:
    variant: str = "dynaboost1"
    alpha: float | None = None
    beta: float | None = None


@dataclass(frozen=True)
class WeakConfig:
    kind: str = "gpc"
    lr: float | None = None
    lr_schedule: str | None = None
    R_M: float = 10.0
    hidden: int = 5
    cell: str = "elman"
    clip_norm: float = 5.0
    weight_radius: float = 10.0

    def __post_init__(self):
        # Only what the config left unset is filled; an unknown kind stays
        # unset for validate to report.
        lr, lr_schedule = WEAK_DEFAULTS.get(self.kind, (None, None))
        if self.lr is None:
            object.__setattr__(self, "lr", lr)
        if self.lr_schedule is None:
            object.__setattr__(self, "lr_schedule", lr_schedule)


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "experiment"
    env: EnvConfig = field(default_factory=EnvConfig)
    disturbance: DisturbanceConfig = field(default_factory=DisturbanceConfig)
    T: int = 2000
    H: int = 5
    N: int = 5
    booster: BoosterConfig = field(default_factory=BoosterConfig)
    weak: WeakConfig = field(default_factory=WeakConfig)
    baselines: tuple[str, ...] = ("single", "lqr", "zero")
    runs: int = 20
    seed: int = 0
    action_radius: float = 5.0
    divergence_threshold: float = 1e6
    out: str = "results"
    raw_text: str | None = None
    source: str = "<builtin>"

    def override(self, **kw) -> "ExperimentConfig":
        """A copy with every non-None keyword replaced, range-checked like a file."""
        cfg = replace(self, **{k: v for k, v in kw.items() if v is not None})

        def fail(path: tuple, msg: str):
            name = ".".join(str(p) for p in path)
            raise ConfigError(f"{cfg.source}: override {name}: {msg}")

        validate(cfg, fail)
        return cfg


# Bookkeeping fields of ExperimentConfig that a config file may not set.
_NOT_KEYS = ("raw_text", "source")
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}
# Resolving the string annotations took a tenth of a parse; once per class is enough.
_field_types = functools.cache(get_type_hints)
# libyaml's parser where PyYAML was built with it: it composes a config about
# four times faster than PyYAML's own reader, with the same resolver and marks.
_FAST_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _read(cls, table: dict, path: tuple, fail):
    """The config dataclass cls from one YAML mapping, keyed and typed by cls's fields.

    An absent key keeps the field's default; fail(path, message) raises.
    """
    if not isinstance(table, dict):
        fail(path, f"'{path[-1]}' must be a mapping")
    hints = _field_types(cls)
    names = [f.name for f in fields(cls) if f.name not in _NOT_KEYS]
    for key in table:
        if key not in names:
            fail(path + (key,), f"unknown key '{key}'")
    given = [name for name in names if name in table]
    return cls(**{name: _value(hints[name], table[name], path + (name,), fail) for name in given})


def _value(kind, v, path: tuple, fail):
    if is_dataclass(kind):
        return _read(kind, {} if v is None else v, path, fail)
    if kind == tuple[str, ...]:
        if not isinstance(v, list):
            fail(path, f"'{path[-1]}' must be a list")
        return tuple(v)
    if kind in (float | None, str | None):
        if v is None:
            return None
        kind = get_args(kind)[0]
    accepted = (int, float) if kind is float else kind
    if isinstance(v, bool) or not isinstance(v, accepted):
        fail(path, f"'{path[-1]}' must be {_TYPE_NAMES[kind]}, got {v!r}")
    return float(v) if kind is float else v


def validate(cfg: ExperimentConfig, fail) -> None:
    """Range checks of a whole config; fail(path, message) raises at the first.

    Each check is written so that NaN fails it: not x > 0, never x <= 0.
    An infinite radius, clip or threshold means unbounded; an infinite
    std, lr, alpha or beta is rejected.
    """
    env, dist, booster, weak = cfg.env, cfg.disturbance, cfg.booster, cfg.weak

    # Every output file is named name + a suffix inside the output directory.
    if cfg.name in ("", ".", "..") or any(c in cfg.name for c in "/\\\0"):
        fail(("name",), f"name must be a file name without /, \\ or NUL, got {cfg.name!r}")
    # A file name holds 255 bytes, and the longest suffix, _aggregate.csv, 14.
    try:
        size = len(cfg.name.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate, from a "\ud800" escape
        fail(("name",), f"name must be UTF-8 text, got {cfg.name!r}")
    if size > 255 - 14:
        fail(("name",), f"name must be at most 241 bytes in UTF-8, got {size}")

    def one_of(path: tuple, what: str, value, allowed: tuple):
        if value not in allowed:
            fail(path, f"{what} must be one of {allowed}, got {value!r}")

    one_of(("env", "kind"), "env kind", env.kind, ENV_KINDS)
    if env.kind == "lds":
        if env.k < 1 or env.d < 1:
            fail(("env",), f"state/action dims must be >= 1, got k={env.k}, d={env.d}")
        if not 0.0 < env.rho < 1.0:
            fail(("env", "rho"), f"rho must lie in (0, 1), got {env.rho}")

    one_of(("disturbance", "kind"), "disturbance kind", dist.kind, DISTURBANCE_KINDS)
    if not 0 <= dist.std < math.inf:
        fail(("disturbance", "std"), f"std must be >= 0 and finite, got {dist.std}")
    if dist.kind == "random_walk" and not dist.clip_lo < dist.clip_hi:
        fail(("disturbance",), f"need clip_lo < clip_hi, got [{dist.clip_lo}, {dist.clip_hi}]")

    one_of(("booster", "variant"), "booster variant", booster.variant, BOOSTER_VARIANTS)
    if booster.alpha is not None and not 0 < booster.alpha < math.inf:
        fail(("booster", "alpha"), f"alpha must be positive and finite, got {booster.alpha}")
    if booster.beta is not None and not 0 < booster.beta < math.inf:
        fail(("booster", "beta"), f"beta must be positive and finite, got {booster.beta}")
    if None not in (booster.alpha, booster.beta) and booster.alpha > booster.beta:
        fail(("booster",), f"need alpha <= beta, got {booster.alpha} > {booster.beta}")

    one_of(("weak", "kind"), "weak kind", weak.kind, tuple(WEAK_DEFAULTS))
    if not 0 < weak.lr < math.inf:
        fail(("weak", "lr"), f"lr must be positive and finite, got {weak.lr}")
    one_of(("weak", "lr_schedule"), "lr_schedule", weak.lr_schedule, LR_SCHEDULES)
    if not weak.R_M > 0:
        fail(("weak", "R_M"), f"R_M must be positive, got {weak.R_M}")
    if weak.hidden < 1:
        fail(("weak", "hidden"), f"hidden must be >= 1, got {weak.hidden}")
    one_of(("weak", "cell"), "cell", weak.cell, CELLS)
    if not weak.clip_norm > 0:
        fail(("weak", "clip_norm"), f"clip_norm must be positive, got {weak.clip_norm}")
    if not weak.weight_radius > 0:
        fail(("weak", "weight_radius"), f"weight_radius must be positive, got {weak.weight_radius}")

    for i, b in enumerate(cfg.baselines):
        one_of(("baselines", i), "baseline", b, BASELINES)
    if len(set(cfg.baselines)) != len(cfg.baselines):
        fail(("baselines",), "duplicate baselines")
    if "overparam" in cfg.baselines and weak.kind != "rnn":
        # The net is parameter-matched to N weak nets of weak.hidden units.
        fail(
            ("baselines", cfg.baselines.index("overparam")),
            f"baseline 'overparam' needs weak kind 'rnn', got {weak.kind!r}",
        )

    if cfg.H < 1:
        fail(("H",), f"H must be >= 1, got {cfg.H}")
    if cfg.T < cfg.H:
        fail(("T",), f"need T >= H, got T={cfg.T} < H={cfg.H}")
    if cfg.N < 1:
        fail(("N",), f"N must be >= 1, got {cfg.N}")
    if cfg.runs < 1:
        fail(("runs",), f"runs must be >= 1, got {cfg.runs}")
    if not 0 <= cfg.seed < 2**64:
        fail(("seed",), f"seed must be a 64-bit unsigned integer, got {cfg.seed}")
    if not cfg.action_radius > 0:
        fail(("action_radius",), f"action_radius must be positive, got {cfg.action_radius}")
    if not cfg.divergence_threshold > 0:
        value = cfg.divergence_threshold
        fail(("divergence_threshold",), f"divergence_threshold must be positive, got {value}")


def _items(n) -> list:
    """(key, node that gives its line, value node) of each key or list item of a YAML node."""
    if isinstance(n, yaml.MappingNode):
        return [(str(kn.value), kn, vn) for kn, vn in n.value]
    return [(i, vn, vn) for i, vn in enumerate(n.value)] if isinstance(n, yaml.SequenceNode) else []


def _check_nodes(node, source: str) -> None:
    """Reject a key that one mapping repeats (at its second line) and a recursive alias.

    Each node is walked once, however many aliases reach it. A merge key
    (<<) is a key of its own, so a key it merges may be repeated.
    """
    on_path: dict = {}  # id of every node walked so far: True while the walk is inside it

    def walk(n, path):
        on_path[id(n)] = True
        keys = set()
        for key, at, vn in _items(n):
            p = path + (key,)
            problem = "duplicate key" if key in keys else "recursive alias at" if on_path.get(id(vn)) else ""
            if problem:
                raise ConfigError(f"{source}:{at.start_mark.line + 1}: {problem} {'.'.join(map(str, p))!r}")
            keys.add(key)
            if id(vn) not in on_path:
                walk(vn, p)
        on_path[id(n)] = False

    walk(node, ())


def _line(node, path: tuple) -> int:
    """Line of the key or list item at a non-empty path in a composed YAML node; 1 if none is there."""
    for key in path:
        # The last match: construction puts the keys that a merge (<<) brings in first.
        found = [(at, vn) for k, at, vn in _items(node) if k == key]
        if not found:
            return 1
        at, node = found[-1]
    return at.start_mark.line + 1


def _compose(text: str, source: str, loader_cls):
    """(node, data) of one YAML document, its keys checked before construction.

    One compose serves both the data and the lines of its errors. The keys
    are checked first because construction rewrites merge keys in place.
    """
    loader = loader_cls(text)
    try:
        node = loader.get_single_node()
        _check_nodes(node, source)
        return node, None if node is None else loader.construct_document(node)
    finally:
        loader.dispose()


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    try:
        try:
            node, data = _compose(text, source, _FAST_LOADER)
        except (yaml.YAMLError, UnicodeEncodeError):
            # libyaml refuses some texts that PyYAML reads, such as the escape
            # "\ud800", and cannot encode a lone surrogate; PyYAML decides them.
            node, data = _compose(text, source, yaml.SafeLoader)
    except yaml.YAMLError as e:
        raise ConfigError(f"{source}: invalid YAML: {e}") from None
    if data is None:
        raise ConfigError(f"{source}:1: empty config")
    if not isinstance(data, dict):
        raise ConfigError(f"{source}:1: top level must be a mapping")

    def fail(path: tuple, msg: str):
        raise ConfigError(f"{source}:{_line(node, path)}: {msg}")

    cfg = _read(ExperimentConfig, data, (), fail)
    # An unnamed config file is named after its file.
    if "name" not in data and source != "<config>":
        cfg = replace(cfg, name=Path(source).stem)
    validate(cfg, fail)
    return replace(cfg, raw_text=text, source=source)


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{p}: no such config file") from None
    except OSError as e:
        raise ConfigError(f"{p}: cannot read the config file: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{p}: the config file is not UTF-8: byte {e.start} is invalid") from None
    return parse_config(text, source=str(p))
