"""Command-line interface: subcommands, exit codes, emitted files."""

import argparse

import pytest

from dynaboost.harness.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    build_parser,
    main,
)
from dynaboost.harness.experiments import SUITES

TINY_YAML = """\
name: tiny
env:
  kind: lds
  k: 1
  d: 1
  rho: 0.7
disturbance:
  kind: iid_gaussian
  std: 0.1
T: 40
H: 3
N: 2
runs: 2
seed: 12345
baselines: [single, lqr, zero]
"""


def write_cfg(tmp_path, text=TINY_YAML, name="exp.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParser:
    def test_subcommands_present(self):
        parser = build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == ["run", *SUITES, "gradcheck"]
        for argv in (["run", "--config", "x.yaml"], *([name] for name in SUITES), ["gradcheck"]):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_run_requires_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["sanity", "--runs", "abc"],
            ["run"],
            ["bogus"],
            ["run", "--config", "x.yaml", "--parallel", "0"],
            ["sanity", "--parallel", "-3"],
        ],
        ids=["unparsable_value", "missing_config", "unknown_command", "parallel_0", "parallel_minus_3"],
    )
    def test_usage_error_is_a_config_exit(self, capsys, argv):
        # Exit code 2 means the boosted algorithm diverged, never a usage error.
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: dynaboost") and "error: " in err

    def test_help_exits_ok(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: dynaboost")


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.yaml")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_contents(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "T: -5\n")
        code = main(["run", "--config", str(p)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "T" in err and str(p) in err

    def test_successful_run(self, tmp_path, capsys):
        p = write_cfg(tmp_path)
        out = tmp_path / "results"
        code = main(["run", "--config", str(p), "--out", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.startswith("tiny:")
        for alg in ("boosted", "single", "lqr", "zero"):
            assert alg in stdout
        for suffix in ("tiny_raw.csv", "tiny_aggregate.csv", "tiny.svg", "tiny_manifest.json"):
            assert (out / suffix).exists()

    def test_divergence_exit_code(self, tmp_path, capsys):
        text = TINY_YAML + "divergence_threshold: 0.05\n"
        p = write_cfg(tmp_path, text)
        code = main(["run", "--config", str(p), "--out", str(tmp_path / "r")])
        assert code == EXIT_DIVERGED
        assert "diverged" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        p = write_cfg(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["run", "--config", str(p), "--out", str(blocker / "sub")])
        assert code == EXIT_CONFIG
        assert "not writable" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting",
        [
            "disturbance: {std: .inf}",
            "weak: {lr: .inf}",
            "booster: {variant: dynaboost2, beta: .inf}",
            "name: a/b",
        ],
        ids=["infinite_std", "infinite_lr", "infinite_beta", "name_with_slash"],
    )
    def test_bad_config_value_stops_before_the_run(self, tmp_path, capsys, setting):
        # Each of these used to run: an infinite std or lr as a divergence
        # (exit 2), an infinite beta as a booster that skips every update and
        # plays zero (exit 0), a name with a separator into a traceback once
        # every run had finished.
        p = write_cfg(tmp_path, f"T: 20\nruns: 1\n{setting}\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(p), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {p}:3: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, kind):
        p = tmp_path / "exp.yaml"
        if kind == "directory":
            p.mkdir()
        else:
            p.write_bytes(b"T: 20\nname: \xff\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(p), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {p}: ") and "Traceback" not in err
        assert not out.exists()

    def test_gradcheck_passes(self, capsys):
        code = main(["gradcheck"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert all(line.startswith("ok") for line in lines)


class TestOverrides:
    def test_seed_and_runs_override(self, tmp_path):
        p = write_cfg(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(p), "--out", str(out_a), "--runs", "1"]) == EXIT_OK
        assert (
            main(
                ["run", "--config", str(p), "--out", str(out_b), "--runs", "1", "--seed", "777"]
            )
            == EXIT_OK
        )
        raw_a = (out_a / "tiny_raw.csv").read_text()
        raw_b = (out_b / "tiny_raw.csv").read_text()
        assert raw_a != raw_b  # different seed draws a different system
        assert raw_a.count("\n") == raw_b.count("\n")

    def test_identical_invocations_byte_identical(self, tmp_path):
        import json

        p = write_cfg(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["run", "--config", str(p), "--out", str(out)]) == EXIT_OK
        for fname in ("tiny_raw.csv", "tiny_aggregate.csv", "tiny.svg"):
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()
        manifests = []
        for out in (out_a, out_b):
            m = json.loads((out / "tiny_manifest.json").read_text())
            m["config"].pop("out")
            manifests.append(m)
        assert manifests[0] == manifests[1]

    def test_parallel_run_matches_serial(self, tmp_path):
        p = write_cfg(tmp_path)
        out_s = tmp_path / "serial"
        out_p = tmp_path / "parallel"
        assert main(["run", "--config", str(p), "--out", str(out_s)]) == EXIT_OK
        assert (
            main(["run", "--config", str(p), "--out", str(out_p), "--parallel", "2"]) == EXIT_OK
        )
        assert (out_s / "tiny_raw.csv").read_bytes() == (out_p / "tiny_raw.csv").read_bytes()

    def test_suite_flags_respected(self, tmp_path, capsys):
        code = main(
            [
                "correlated",
                "--runs",
                "1",
                "--t",
                "30",
                "--out",
                str(tmp_path / "c"),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for name in ("walk_gpc", "sine_gpc", "walk_rnn"):
            assert name in out
            assert (tmp_path / "c" / f"{name}_raw.csv").exists()

    def test_t_large_caps_only_the_d100_horizon(self, tmp_path):
        out = tmp_path / "s"
        argv = ["sanity", "--runs", "1", "--t", "12", "--t-large", "6", "--out", str(out)]
        assert main(argv) == EXIT_OK
        for dim, T in ((1, 12), (10, 12), (100, 6)):
            rows = (out / f"sanity_d{dim}_raw.csv").read_text().splitlines()[1:]
            assert max(int(row.split(",")[3]) for row in rows) == T


class TestOverrideChecks:
    """CLI values get the range checks and the exit code of config-file values."""

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["run", "--config", "{cfg}", "--runs", "0"], "runs"),
            (["run", "--config", "{cfg}", "--seed", "-1"], "seed"),
            (["correlated", "--t", "3", "--runs", "1"], "T"),
            (["sanity", "--t-large", "0", "--runs", "1"], "T"),
        ],
        ids=["runs_0", "seed_minus_1", "correlated_t_3", "sanity_t_large_0"],
    )
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, argv, field):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        code = main([a.format(cfg=cfg) for a in argv] + ["--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"override {field}: " in err
        assert "Traceback" not in err
        assert not out.exists()  # rejected before any experiment ran


class TestDerivedCurvatureChecks:
    """A given alpha or beta on the wrong side of the derived other one stops the run."""

    @pytest.mark.parametrize(
        "booster, field",
        [("{variant: dynaboost2, alpha: 100}", "alpha"), ("{variant: dynaboost2, beta: 0.5}", "beta")],
        ids=["alpha_above_derived_beta", "beta_below_derived_alpha"],
    )
    def test_conflict_is_a_config_error(self, tmp_path, capsys, booster, field):
        cfg = write_cfg(tmp_path, TINY_YAML + f"booster: {booster}\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: booster.{field}: ")
        assert "derived" in err and "Traceback" not in err
        assert not out.exists()  # rejected before the output directory was made
