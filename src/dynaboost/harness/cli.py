"""Command-line entry point.

Subcommands: run (single config file), one per prebuilt suite of
experiments.SUITES, gradcheck (finite-difference oracle battery).
Exit codes: 0 success, 1 configuration problem or command-line usage error,
2 the boosted algorithm diverged, 3 gradient check failure.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from dynaboost.harness import experiments
from dynaboost.harness.config import ConfigError, load_config
from dynaboost.harness.gradcheck import run_all
from dynaboost.harness.outputs import _ensure_dir, write_outputs
from dynaboost.harness.runner import build_experiment, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_GRADCHECK = 3


class ArgumentParser(argparse.ArgumentParser):
    """argparse's parser with usage errors exiting EXIT_CONFIG, not 2.

    2 would read as EXIT_DIVERGED. The CLI and the scripts build their
    parsers from it; subparsers inherit it.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _workers(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _add_run_options(p: argparse.ArgumentParser, with_t: bool = True) -> None:
    p.add_argument("--out", default=None, help="output directory (default: from config)")
    p.add_argument("--runs", type=int, default=None, help="override number of runs")
    p.add_argument("--seed", type=int, default=None, help="override base seed")
    p.add_argument(
        "--parallel", type=_workers, default=1, help="number of worker processes for runs"
    )
    if with_t:
        p.add_argument("--t", type=int, default=None, help="override horizon T")


def build_parser() -> argparse.ArgumentParser:
    parser = ArgumentParser(
        prog="dynaboost",
        description="Boosting weak controllers on simulated dynamical systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True, help="path to a YAML experiment config")
    _add_run_options(p_run, with_t=False)

    for name, (help_line, configs) in experiments.SUITES.items():
        p_suite = sub.add_parser(name, help=help_line)
        _add_run_options(p_suite)
        if "t_large" in inspect.signature(configs).parameters:
            p_suite.add_argument(
                "--t-large",
                type=int,
                help="cap on the d=100 run's horizon, which is min(T, cap) (default 1000)",
            )

    sub.add_parser("gradcheck", help="finite-difference verification of all gradients")
    return parser


def _execute(configs, args) -> int:
    code = EXIT_OK
    for cfg in configs:
        # The experiment is resolved before its output directory is made,
        # so a config rejected there leaves nothing behind.
        built = build_experiment(cfg)
        out_dir = _ensure_dir(cfg.out)
        result = run_experiment(cfg, parallel=args.parallel, built=built)
        write_outputs(out_dir, cfg, result.trajectories, result.stats, result.w_hashes, result.diverged)
        summary = []
        for alg in result.algorithms:
            if alg in result.stats:
                summary.append(f"{alg} {result.stats[alg].mean[-1]:.4f}")
            else:
                summary.append(f"{alg} diverged({len(result.diverged[alg])})")
        print(f"{cfg.name}: " + ", ".join(summary))
        if result.boosted_diverged():
            print(f"{cfg.name}: boosted algorithm diverged", file=sys.stderr)
            code = EXIT_DIVERGED
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # --help, or a usage error
        return e.code or EXIT_OK
    if args.command == "gradcheck":
        failed = False
        for res in run_all():
            print(res.line())
            failed = failed or not res.ok
        return EXIT_GRADCHECK if failed else EXIT_OK
    try:
        if args.command == "run":
            configs = [load_config(args.config).override(seed=args.seed, runs=args.runs)]
        else:
            configs = experiments.SUITES[args.command][1](**_suite_kwargs(args))
        # override range-checks every config, so a bad CLI value stops the
        # command before any experiment runs.
        return _execute([cfg.override(out=args.out) for cfg in configs], args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def _suite_kwargs(args) -> dict:
    given = {"runs": args.runs, "seed": args.seed, "T": args.t}
    given["t_large"] = getattr(args, "t_large", None)
    return {k: v for k, v in given.items() if v is not None}


if __name__ == "__main__":
    sys.exit(main())
