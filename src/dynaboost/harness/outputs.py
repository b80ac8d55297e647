"""File emission: long-form and aggregate CSV, SVG cost curves, manifest.

All emission is deterministic: fixed float formatting, rows sorted by
(algorithm, seed, round), LF line endings, and no timestamps, so a rerun
with the same config and seed is byte-identical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path
from xml.sax.saxutils import escape

from dynaboost.harness.config import ConfigError
# aggregate stays importable from this module: perfbench/spans.py wraps it here.
from dynaboost.harness.stats import SeriesStats, aggregate  # noqa: F401

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]

RAW_HEADER = ["experiment", "algorithm", "seed", "t", "instant_cost", "avg_cost"]
AGG_HEADER = ["algorithm", "t", "mean", "ci_lo", "ci_hi"]


def fmt(x: float) -> str:
    return format(float(x), ".10g")


def _ensure_dir(out_dir) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as e:
        raise ConfigError(f"output directory {out} is not writable: {e}") from e
    return out


def write_raw_csv(path, experiment: str, trajectories: dict[str, list]) -> None:
    """trajectories maps algorithm -> per-run Trajectory list (seed column = run index)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(RAW_HEADER)
        for alg in sorted(trajectories):
            # rows keyed by the trajectory's own run index, so emission does
            # not depend on the order runs happened to finish in
            for traj in sorted(trajectories[alg], key=lambda t: t.seed):
                avg = traj.running_average()
                for t in range(traj.horizon):
                    w.writerow(
                        [experiment, alg, traj.seed, t + 1, fmt(traj.costs[t]), fmt(avg[t])]
                    )


def write_aggregate_csv(path, stats_by_alg: dict[str, SeriesStats]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(AGG_HEADER)
        for alg in sorted(stats_by_alg):
            s = stats_by_alg[alg]
            for t in range(s.mean.size):
                if s.has_ci:
                    w.writerow([alg, t + 1, fmt(s.mean[t]), fmt(s.ci_lo[t]), fmt(s.ci_hi[t])])
                else:
                    w.writerow([alg, t + 1, fmt(s.mean[t]), "", ""])


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def write_svg(path, experiment: str, stats_by_alg: dict[str, SeriesStats]) -> None:
    """One polyline per algorithm over the running-average mean, CI as a band."""
    width, height = 720.0, 480.0
    ml, mr, mt, mb = 70.0, 20.0, 40.0, 50.0
    algs = sorted(stats_by_alg)
    T = max((s.mean.size for s in stats_by_alg.values()), default=1)
    ymax = 0.0
    for s in stats_by_alg.values():
        top = s.ci_hi if s.has_ci else s.mean
        ymax = max(ymax, float(top.max(initial=0.0)))
    ymax = 1.05 * ymax if ymax > 0 else 1.0

    def X(t):  # t in 1..T
        return ml + (width - ml - mr) * (t - 1) / max(T - 1, 1)

    def Y(v):
        return height - mb - (height - mb - mt) * (v / ymax)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:g}" height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<text x="{width / 2:g}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{escape(experiment)}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{ml:g}" y1="{height - mb:g}" x2="{width - mr:g}" y2="{height - mb:g}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{ml:g}" y1="{mt:g}" x2="{ml:g}" y2="{height - mb:g}" '
        'stroke="black" stroke-width="1"/>'
    )
    for tv in _ticks(1, T):
        x = X(tv)
        parts.append(
            f'<line x1="{x:.2f}" y1="{height - mb:g}" x2="{x:.2f}" y2="{height - mb + 5:g}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - mb + 18:g}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{int(round(tv))}</text>'
        )
    for yv in _ticks(0.0, ymax):
        y = Y(yv)
        parts.append(
            f'<line x1="{ml - 5:g}" y1="{y:.2f}" x2="{ml:g}" y2="{y:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 8:g}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.3g}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:g}" y="{height - 10:g}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">round</text>'
    )
    parts.append(
        f'<text x="18" y="{(mt + height - mb) / 2:g}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(mt + height - mb) / 2:g})">average cost</text>'
    )
    # bands first so lines draw on top
    for idx, alg in enumerate(algs):
        s = stats_by_alg[alg]
        color = PALETTE[idx % len(PALETTE)]
        if s.has_ci:
            up = " ".join(
                f"{X(t + 1):.2f},{Y(min(float(s.ci_hi[t]), ymax)):.2f}"
                for t in range(s.mean.size)
            )
            dn = " ".join(
                f"{X(t + 1):.2f},{Y(max(float(s.ci_lo[t]), 0.0)):.2f}"
                for t in reversed(range(s.mean.size))
            )
            parts.append(
                f'<polygon points="{up} {dn}" fill="{color}" fill-opacity="0.2" stroke="none"/>'
            )
    for idx, alg in enumerate(algs):
        s = stats_by_alg[alg]
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(
            f"{X(t + 1):.2f},{Y(min(float(s.mean[t]), ymax)):.2f}" for t in range(s.mean.size)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = mt + 16 + 18 * idx
        parts.append(
            f'<rect x="{width - mr - 150:g}" y="{ly - 9:g}" width="14" height="4" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{width - mr - 130:g}" y="{ly:g}" font-family="sans-serif" '
            f'font-size="12">{escape(alg)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def write_outputs(out_dir, config, trajectories, stats_by_alg, w_hashes, diverged) -> dict:
    """Emit raw CSV, aggregate CSV, SVG, and manifest; returns written paths.

    stats_by_alg is written as given: run_experiment reduces the runs in run
    order. The raw CSV sorts each algorithm's runs by run index, so
    shuffling the trajectory lists changes no data file.
    """
    out = _ensure_dir(out_dir)
    name = config.name
    paths = {
        "raw": out / f"{name}_raw.csv",
        "aggregate": out / f"{name}_aggregate.csv",
        "plot": out / f"{name}.svg",
        "manifest": out / f"{name}_manifest.json",
    }
    write_raw_csv(paths["raw"], name, trajectories)
    write_aggregate_csv(paths["aggregate"], stats_by_alg)
    if stats_by_alg:
        write_svg(paths["plot"], name, stats_by_alg)
    else:
        paths.pop("plot")
    cfg_dict = asdict(config)
    cfg_dict.pop("raw_text", None)
    manifest = {
        "experiment": name,
        "config": cfg_dict,
        "config_text": config.raw_text,
        "base_seed": config.seed,
        "runs": config.runs,
        "w_hash": {str(i): h for i, h in enumerate(w_hashes)},
        "diverged": {alg: sorted(idx) for alg, idx in diverged.items() if idx},
        "files": sorted(str(p.name) for p in paths.values()),
    }
    with open(paths["manifest"], "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
