"""The analysis scripts run end to end at a small size and print their tables."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def call_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def run_script(name: str, *args: str) -> list[str]:
    proc = call_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_memory_decay_prints_error_table():
    header, *rows = run_script(
        "memory_decay.py", "--rhos", "0.7", "--windows", "2", "5", "--t", "200", "--burn", "20"
    )
    assert header.split() == ["rho", "eps(H=2)", "eps(H=5)", "per-step", "ratio"]
    assert len(rows) == 1
    rho, eps2, eps5, ratio = (float(v) for v in rows[0].split())
    assert rho == 0.7
    # The truncation error shrinks with the window: that is the script's claim.
    assert 0 < eps5 < eps2
    assert ratio == pytest.approx((eps5 / eps2) ** (1 / 3), rel=1e-2)


def test_regret_horizon_prints_rate_table():
    header, *rows = run_script("regret_horizon.py", "--horizons", "50", "100")
    assert header.split() == ["T", "boosted_total", "best_fixed_total", "rate"]
    assert [row.split()[0] for row in rows] == ["50", "100"]
    for row in rows:
        T, boosted, best, rate = (float(v) for v in row.split())
        # On these streams the hindsight-best fixed policy costs less than the online one.
        assert 0 < best <= boosted
        assert rate == pytest.approx((boosted - best) / T, rel=1e-2)


def test_lr_sweep_prints_one_line_per_rate():
    lines = run_script(
        "lr_sweep.py", "--name", "walk_gpc", "--lrs", "0.015", "--schedule", "sqrt", "--runs", "1"
    )
    assert len(lines) == 1
    assert lines[0].startswith("lr=0.015 sched=sqrt: boosted=")
    assert "single=" in lines[0] and "wins=" in lines[0] and "DIVERGED" not in lines[0]


def test_lr_sweep_rejects_zero_workers():
    proc = call_script("lr_sweep.py", "--name", "walk_gpc", "--lrs", "0.015", "--parallel", "0")
    assert proc.returncode == 1
    assert "--parallel: must be an integer >= 1" in proc.stderr
    assert proc.stdout == ""  # nothing ran


USAGE_ERRORS = {
    "run_all_parallel_0": ["run_all.py", "--parallel", "0"],
    "regret_horizon_bogus": ["regret_horizon.py", "--bogus"],
    "regret_horizon_t_below_h": ["regret_horizon.py", "--horizons", "3"],
    "regret_horizon_negative_run": ["regret_horizon.py", "--run-index", "-1"],
    "memory_decay_bogus": ["memory_decay.py", "--bogus"],
    # A burn below max(windows) - 1 would slice windows off the end of the stream.
    "memory_decay_short_burn": ["memory_decay.py", "--burn", "2"],
    "memory_decay_one_window": ["memory_decay.py", "--windows", "5"],
    "memory_decay_repeated_window": ["memory_decay.py", "--windows", "5", "5"],
    "memory_decay_decreasing_windows": ["memory_decay.py", "--windows", "5", "2"],
    "memory_decay_zero_window": ["memory_decay.py", "--windows", "0", "5"],
    "memory_decay_t_not_above_burn": ["memory_decay.py", "--t", "100", "--burn", "100"],
    "pinned_digest_nosuch": ["pinned_digest.py", "nosuch"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_exits_1(argv):
    # The CLI's configuration exit code: 2 would read as a diverged boosted run.
    proc = call_script(*argv)
    assert proc.returncode == 1
    assert f"{argv[0]}: error: " in proc.stderr
    assert proc.stdout == ""


def test_pinned_digest_is_reproducible():
    # One run of the script in a fresh process prints the recorded digest.
    golden = (ROOT / "tests" / "pinned_digests.txt").read_text().splitlines()
    recorded = next(line for line in golden if line.startswith("repro "))
    assert run_script("pinned_digest.py", "repro") == [recorded]


def test_pinned_digests_match_golden_file():
    """Every pinned config emits exactly the bytes recorded in tests/pinned_digests.txt.

    The file starts with the numpy version and the platform it was recorded
    under, then holds the 15 lines of scripts/pinned_digest.py. The digests
    are bitwise, so they are only comparable under the same numpy and
    platform: a mismatch fails and names both. The script runs in a fresh
    process, so its one-thread BLAS pin holds whatever this process loaded.
    A change that moves numbers on purpose regenerates the file by writing
    those two lines and the script's output.
    """
    lines = (ROOT / "tests" / "pinned_digests.txt").read_text().splitlines()
    recorded = dict(line.split(maxsplit=1) for line in lines)
    here = {"numpy": np.__version__, "platform": f"{platform.system()} {platform.machine()}"}
    for key, value in here.items():
        then = recorded.pop(key, None)
        assert then == value, (
            f"pinned digests were recorded under {key} {then!r}, this is {key} {value!r}: "
            "the bits are not comparable, so regenerate the file under this one"
        )
    printed = dict(line.split() for line in run_script("pinned_digest.py"))
    assert list(printed) == list(recorded)
    mismatched = [name for name in recorded if printed[name] != recorded[name]]
    assert not mismatched, f"digests differ from tests/pinned_digests.txt: {mismatched}"
