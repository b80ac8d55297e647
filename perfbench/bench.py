"""Passes, checks and metrics of one benchmark run; see run.py for the command.

A run writes the workload's two YAML configs, then:

1. with --trace 0, times SETUP_REPEATS cold set-ups of both configs, each
   in a fresh interpreter (setup_probe.py);
2. runs the reference experiment once and checks it, including the suite
   claim it carries;
3. repeats passes of the seeded experiment until the run's seconds have
   gone, checking every pass. A pass loads the config, runs the
   experiment and writes its CSV, SVG and manifest files, exactly as
   `dynaboost run` does. With --trace 1 the passes run under a Tracer.
   The calibration loop (calibration.py) runs between passes, and every
   reported time is scaled by the host speed it reads.

Operations are the same in every run: one per run of each experiment,
one per experiment's aggregate CSV and manifest, and one per claim. A
seeded operation fails if its check fails in any pass. A claim that does
not hold counts as failed without making the run incorrect; any other
failed check makes it incorrect.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibration
import checks
import workloads
from dynaboost.harness import config, outputs, runner
from spans import Tracer

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5


@dataclass
class Timed:
    """One experiment of one pass: its config, result, files and phase times.

    A run drops `result` once a pass is checked, so memory does not grow
    with the number of passes; `diverged` keeps its count of diverged
    (algorithm, run) pairs.
    """

    exp: workloads.Experiment
    cfg: object
    result: object
    files: dict
    load_s: float
    run_s: float
    write_s: float
    diverged: int
    host_speed: float = 1.0  # calibration.speed around this pass

    @property
    def rounds(self) -> int:
        return self.cfg.runs * self.cfg.T

    @property
    def wall_s(self) -> float:
        return self.load_s + self.run_s + self.write_s

    @property
    def scaled_run_s(self) -> float:
        return self.run_s * self.host_speed

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.host_speed


@dataclass
class Tally:
    """Problems per operation, merged over passes."""

    ops: dict = field(default_factory=dict)  # name -> (claim, problems)

    def op(self, name: str, problems: list[str], claim: bool = False) -> None:
        _, seen = self.ops.setdefault(name, (claim, []))
        seen.extend(p for p in problems if p not in seen)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(bool(problems) for _, problems in self.ops.values())

    @property
    def correct(self) -> bool:
        return all(claim or not problems for claim, problems in self.ops.values())

    @property
    def messages(self) -> list[str]:
        return [
            f"{'claim' if claim else 'FAILED'} {name}: {p}"
            for name, (claim, problems) in self.ops.items()
            for p in problems
        ]


def run_experiment_pass(path, exp, parallel: int = 1) -> Timed:
    t0 = time.perf_counter()
    cfg = config.load_config(path)
    t1 = time.perf_counter()
    result = runner.run_experiment(cfg, parallel=parallel)
    t2 = time.perf_counter()
    files = outputs.write_outputs(
        cfg.out, cfg, result.trajectories, result.stats, result.w_hashes, result.diverged
    )
    t3 = time.perf_counter()
    diverged = sum(len(runs) for runs in result.diverged.values())
    return Timed(exp, cfg, result, files, t1 - t0, t2 - t1, t3 - t2, diverged)


class Checker:
    """Checks an experiment's outputs; system models and LQR gains are cached per config."""

    def __init__(self):
        self._models: dict = {}

    def model(self, cfg):
        if cfg.name not in self._models:
            system, _ = runner.build_system(cfg)
            m = checks.SystemModel.of(system, cfg.action_radius)
            self._models[cfg.name] = (m, m.lqr_gain() if "lqr" in cfg.baselines else None)
        return self._models[cfg.name]

    def check(self, tally: Tally, timed: Timed, combination: dict | None = None) -> None:
        """combination maps a run index to its worst boosted-combination error."""
        cfg, result = timed.cfg, timed.result
        model, K = self.model(cfg)
        raw = checks.read_raw_csv(timed.files["raw"])
        trajs = result.trajectories
        for r in range(cfg.runs):
            problems = checks.check_run([trajs[a][r] for a in sorted(trajs)], model, K, raw)
            err = (combination or {}).get(r)
            if err is not None and err > 1e-12:
                problems.append(f"boosted action is off the 2i/(N(N+1)) combination by {err:.3e}")
            tally.op(f"{cfg.name}/run{r}", problems)
        algorithms = [a for a in trajs if not result.diverged.get(a)]
        with open(timed.files["manifest"]) as fh:
            manifest = json.load(fh)
        problems = checks.check_aggregate(timed.files["aggregate"], raw, algorithms)
        problems += checks.check_manifest(manifest, cfg, trajs)
        tally.op(f"{cfg.name}/files", problems)
        if timed.exp.claim:
            ok, detail = checks.CLAIMS[timed.exp.claim](raw)
            tally.op(f"{cfg.name}/{timed.exp.claim}", [] if ok else [detail], claim=True)


def combination_errors(tracer: Tracer) -> dict:
    """Worst boosted-combination error per run index among the traced boosted acts."""
    worst: dict = {}
    for run_id, learned, u in tracer.boosted_acts:
        r = int(run_id.rsplit("/", 1)[1])
        worst[r] = max(worst.get(r, 0.0), checks.combination_error(np.array(learned), u))
    return worst


def setup_seconds(paths) -> float:
    """Median over SETUP_REPEATS fresh interpreters of the scaled cold set-up time."""
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *map(str, paths)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        elapsed, host_speed = map(float, proc.stdout.split())
        times.append(elapsed * host_speed)
    return statistics.median(times)


def rounds_per_s(passes: list[Timed]) -> float:
    return sum(t.rounds for t in passes) / sum(t.scaled_run_s for t in passes)


def end_to_end_metrics(setup_s: float, reference: Timed, passes: list[Timed]) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "rounds_per_s": (rounds_per_s(passes), "rounds/s"),
        "wall_s": (statistics.fmean(t.scaled_wall_s for t in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "boosted_cost": (float(reference.result.final_averages("boosted").mean()), "cost"),
    }


def layer_metrics(tracer: Tracer, passes: list[Timed], skipped: int) -> dict:
    rows = tracer.by_name()
    rounds = sum(t.rounds for t in passes)
    n = len(passes)
    # Times are scaled to the reference host like the end-to-end ones.
    speed = sum(t.scaled_run_s for t in passes) / sum(t.run_s for t in passes)

    def per_call(name, kind, unit):
        row = rows.get(name)
        return row[kind] / row["calls"] * unit * speed if row else 0.0

    def total(*names):
        return sum(rows[name]["total"] for name in names if name in rows) * speed

    whole = rows["runner.run_experiment"]["total"]
    unspanned = rows["runner.run_experiment"]["self"] + rows["runner.run"]["self"]
    out_bytes = sum(Path(p).stat().st_size for p in passes[-1].files.values())
    return {
        "boosting.act_self_us": (per_call("boosting.act", "self", 1e6), "us"),
        "boosting.update_self_us": (per_call("boosting.update", "self", 1e6), "us"),
        "controllers.gpc_act_us": (per_call("controllers.gpc_act", "total", 1e6), "us"),
        "controllers.gpc_update_us": (per_call("controllers.gpc_update", "total", 1e6), "us"),
        "controllers.rnn_act_us": (per_call("controllers.rnn_act", "total", 1e6), "us"),
        "controllers.rnn_update_us": (per_call("controllers.rnn_update", "total", 1e6), "us"),
        "controllers.rnn_skipped_updates": (skipped / n, "count"),
        "losses.proxy_grad_us": (per_call("losses.proxy_grad", "total", 1e6), "us"),
        "losses.proxy_grad_calls_per_round": (
            rows["losses.proxy_grad"]["calls"] / rounds,
            "calls/round",
        ),
        "dynamics.step_us": (per_call("dynamics.step", "total", 1e6), "us"),
        "dynamics.draw_ms": (per_call("runner.draw_disturbances", "total", 1e3), "ms"),
        "core.as_vector_calls_per_round": (tracer.as_vector_calls / rounds, "calls/round"),
        "runner.round_self_us": (rows["runner.run_episode"]["self"] * speed / rounds * 1e6, "us"),
        "runner.build_ms": (
            total("runner.build_system", "runner.build_policies") / rows["runner.run"]["calls"] * 1e3,
            "ms",
        ),
        "config.load_ms": (per_call("config.load_config", "total", 1e3), "ms"),
        "runner.diverged_runs": (sum(t.diverged for t in passes) / n, "count"),
        "stats.aggregate_ms": (total("stats.aggregate") / n * 1e3, "ms"),
        "outputs.write_ms": (per_call("outputs.write_outputs", "total", 1e3), "ms"),
        "outputs.bytes": (out_bytes, "bytes"),
        "trace.rounds_per_s": (rounds_per_s(passes), "rounds/s"),
        "trace.spanned_share": (1.0 - unspanned / whole, "ratio"),
    }


def breakdown(tracer: Tracer) -> str:
    """Self time per span name as a share of run_experiment, for the log."""
    rows = tracer.by_name()
    whole = rows["runner.run_experiment"]["total"]
    lines = [f"{'span':32s} {'calls':>9s} {'self ms':>10s} {'share':>7s}"]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self"]):
        share = row["self"] / whole
        lines.append(f"{name:32s} {row['calls']:9d} {row['self'] * 1e3:10.1f} {share:7.1%}")
    return "\n".join(lines)


def run(workload_name: str, seed: int, seconds: float, trace: bool, parallel: int = 1) -> dict:
    """One benchmark run; returns the result object the command prints."""
    workload = workloads.WORKLOADS[workload_name]
    out_dir = Path(".bench_out") / workload_name
    paths = workloads.write_configs(workload, seed, out_dir)
    setup_s = None if trace else setup_seconds(paths)

    tally, checker = Tally(), Checker()
    reference = run_experiment_pass(paths[1], workload.reference, parallel)
    checker.check(tally, reference)

    tracer = Tracer() if trace else None
    passes: list[Timed] = []
    skipped = 0
    first_raw = None
    width = calibration.width(workloads.SHIPPED[workload.seeded.suite].env.d)
    host_speed = calibration.speed(width)
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer:
                tracer.begin_pass(len(passes))
                with tracer.installed():
                    timed = run_experiment_pass(paths[0], workload.seeded)
            else:
                timed = run_experiment_pass(paths[0], workload.seeded, parallel)
        after = calibration.speed(width)
        timed.host_speed, host_speed = (host_speed + after) / 2.0, after
        skipped += sum("non-finite gradient" in str(w.message) for w in caught)
        checker.check(tally, timed, combination_errors(tracer) if tracer else None)
        raw_bytes = Path(timed.files["raw"]).read_bytes()
        first_raw = first_raw or raw_bytes
        if raw_bytes != first_raw:
            tally.op(f"{timed.cfg.name}/files", [f"pass {len(passes)} raw CSV differs from pass 0"])
        timed.result = None
        passes.append(timed)

    if tracer:
        tally.op(f"{passes[0].cfg.name}/files", tracer.nesting_problems())
        trace_dir = Path(".bench_out") / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{workload_name}-seed{seed}.jsonl")
        print(breakdown(tracer), file=sys.stderr)
        metrics = layer_metrics(tracer, passes, skipped)
    else:
        metrics = end_to_end_metrics(setup_s, reference, passes)

    for msg in tally.messages:
        print(msg, file=sys.stderr)
    raw = sum(t.rounds for t in passes) / sum(t.run_s for t in passes)
    speed = statistics.fmean(t.host_speed for t in passes)
    print(f"unscaled rounds/s {raw:.1f}, host speed {speed:.3f}", file=sys.stderr)
    print(
        f"{workload_name}: {len(passes)} passes, {tally.attempted} operations, "
        f"{tally.failed} failed, {skipped} skipped recurrent updates",
        file=sys.stderr,
    )
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
