"""Spans around calls into dynaboost's layers, recorded from outside the package.

`Tracer.installed()` swaps wrappers onto the functions and methods the
harness reaches through module or class attributes (the public layer
functions, plus the runner's per-run `_run_one` to mark run ids), and
restores the originals on exit. A span is (name, start, end, parent span,
run id); the run id names the pass, the experiment and the seeded run.
Spans stay in memory until `write` dumps them as JSON lines. A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

from dynaboost import boosting, controllers, core, dynamics, losses
from dynaboost.harness import config, outputs, runner

# (owner, attribute, span name); the owner's attribute is replaced by a
# traced wrapper while the tracer is installed.
SPANNED = [
    (config, "load_config", "config.load_config"),
    (runner, "run_experiment", "runner.run_experiment"),
    (runner, "_run_one", "runner.run"),
    (runner, "build_system", "runner.build_system"),
    (runner, "draw_disturbances", "runner.draw_disturbances"),
    (runner, "build_policies", "runner.build_policies"),
    (runner, "run_episode", "runner.run_episode"),
    (runner, "aggregate", "stats.aggregate"),
    (outputs, "aggregate", "stats.aggregate"),
    (outputs, "write_outputs", "outputs.write_outputs"),
    (boosting.DynaBoost, "act", "boosting.act"),
    (boosting.DynaBoost, "update", "boosting.update"),
    (controllers.GpcController, "act", "controllers.gpc_act"),
    (controllers.GpcController, "receive_loss", "controllers.gpc_update"),
    (controllers.RecurrentController, "act", "controllers.rnn_act"),
    (controllers.RecurrentController, "receive_loss", "controllers.rnn_update"),
    (losses.ProxyLoss, "gradients", "losses.proxy_grad"),
    (dynamics.LinearSystem, "step", "dynamics.step"),
    (dynamics.PendulumSystem, "step", "dynamics.step"),
]

# Every module that binds core.as_vector under its own name.
AS_VECTOR_USERS = [core, boosting, controllers, dynamics, losses]

LEARNER_ACTS = {"controllers.gpc_act", "controllers.rnn_act"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.stack: list[int] = []
        self.run: str | None = None
        self.pass_index = 0
        self.as_vector_calls = 0
        # (run id, learner actions, boosted action) of every boosted act
        self.boosted_acts: list[tuple] = []
        self._learner_actions: list | None = None

    def begin_pass(self, index: int) -> None:
        self.pass_index = index
        self.boosted_acts.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        record = name in LEARNER_ACTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if record and self._learner_actions is not None:
                self._learner_actions.append(result.copy())
            return result

        return traced

    def _run_scope(self, fn):
        @functools.wraps(fn)
        def scoped(cfg, run_index, *args, **kwargs):
            self.run = f"{self.pass_index}/{cfg.name}/{run_index}"
            try:
                return fn(cfg, run_index, *args, **kwargs)
            finally:
                self.run = None

        return scoped

    def _boosted_scope(self, fn):
        @functools.wraps(fn)
        def act(booster, obs):
            self._learner_actions = []
            try:
                u = fn(booster, obs)
            finally:
                learned, self._learner_actions = self._learner_actions, None
            if booster.variant == "dynaboost1":
                self.boosted_acts.append((self.run, learned, u.copy()))
            return u

        return act

    def _count(self, fn):
        @functools.wraps(fn)
        def as_vector(*args, **kwargs):
            self.as_vector_calls += 1
            return fn(*args, **kwargs)

        return as_vector

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in SPANNED:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                wrapped = self._wrap(name, original)
                if name == "runner.run":
                    wrapped = self._run_scope(wrapped)
                elif name == "boosting.act":
                    wrapped = self._boosted_scope(wrapped)
                setattr(owner, attr, wrapped)
            for module in AS_VECTOR_USERS:
                saved.append((module, "as_vector", module.as_vector))
                module.as_vector = self._count(module.as_vector)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -----------------------------------------------------------------------
    # reduction

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, total duration and total self time, in seconds."""
        out: dict = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for span, own in zip(self.spans, self.self_times()):
            row = out[span[0]]
            row["calls"] += 1
            row["total"] += span[2] - span[1]
            row["self"] += own
        return dict(out)

    def accounted(self, root: str) -> tuple[float, float]:
        """(self times summed over the subtrees of spans named root, their durations summed)."""
        own = self.self_times()
        in_root = [False] * len(self.spans)
        inside = whole = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if name == root:
                whole += end - start
            in_root[i] = name == root or (parent >= 0 and in_root[parent])
            if in_root[i]:
                inside += own[i]
        return inside, whole

    def nesting_problems(self) -> list[str]:
        """Spans nest, share their parent's run id, and self times add up to each root."""
        inside, whole = self.accounted("runner.run_experiment")
        problems = []
        if abs(inside - whole) > 1e-9 * whole:
            problems.append(f"self times sum to {inside:.6f} s of run_experiment's {whole:.6f} s")
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {i} ({name}) ends before it starts")
            if parent < 0:
                continue
            p = self.spans[parent]
            if not (p[1] <= start and end <= p[2]):
                problems.append(f"span {i} ({name}) is not inside its parent {parent} ({p[0]})")
            if p[4] is not None and run != p[4]:
                problems.append(f"span {i} ({name}) has run {run} inside run {p[4]}")
        return problems[:5]

    def write(self, path) -> None:
        """One JSON array per span: id, name, start and end in seconds from the first span, parent, run."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps([i, name, round(start - t0, 9), round(end - t0, 9), parent, run]))
                fh.write("\n")
