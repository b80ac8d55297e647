"""The analysis scripts run end to end at a small size and print their tables."""

import importlib.util
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
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


def test_pinned_digest_is_reproducible():
    # One run of the script in a fresh process prints the recorded digest.
    golden = (ROOT / "tests" / "pinned_digests.txt").read_text().splitlines()
    recorded = next(line for line in golden if line.startswith("repro "))
    assert run_script("pinned_digest.py", "repro") == [recorded]


def _load_pinned_digest():
    path = ROOT / "scripts" / "pinned_digest.py"
    spec = importlib.util.spec_from_file_location("pinned_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pinned_digests_match_golden_file():
    """Every pinned config emits exactly the bytes recorded in tests/pinned_digests.txt.

    The file starts with the numpy version and the platform it was recorded
    under, then holds the 15 lines of scripts/pinned_digest.py. The digests
    are bitwise, so they are only comparable under the same numpy and
    platform: a mismatch fails and names both. A change that moves numbers
    on purpose regenerates the file by writing those two lines and the
    script's output.
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
    module = _load_pinned_digest()
    configs = module.pinned_configs()
    assert list(recorded) == list(configs)
    mismatched = [name for name, cfg in configs.items() if module.digest(cfg) != recorded[name]]
    assert not mismatched, f"digests differ from tests/pinned_digests.txt: {mismatched}"
