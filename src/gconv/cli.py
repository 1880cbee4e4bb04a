"""Command-line front end: declarative experiment configs, delimited reports.

Exit codes: 0 on success with reports written, 1 on configuration or
validation errors (the diagnostic names the offending key, or ``--out``), 2
on numerical failures (the diagnostic names the failing stage, ``memory``
when an allocation fails).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, sweep
from .config import ConfigError, apply_overrides, load_config, schema_help, validate_config
from .linalg import NumericalError
from .sweep import EXPERIMENTS, ExperimentConfig, emit_report


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gconv",
        description="G-convergence laboratory: homogenization and spectral "
                    "convergence experiments driven by JSON configs.",
    )
    parser.add_argument("--version", action="version", version=f"gconv {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    commands = [(exp.subcommand, exp.summary, kind)
                for kind, exp in EXPERIMENTS.items()]
    # validate accepts a config of any experiment kind
    commands.append(("validate", "validate a config and its declared family bounds",
                     None))
    for name, summary, kind in commands:
        p = sub.add_parser(
            name, help=summary, epilog=schema_help(kind),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.set_defaults(kind=kind)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted-path config override")
        p.add_argument("-v", "--verbose", action="store_true")
    return parser


def _load(args) -> ExperimentConfig:
    config = validate_config(apply_overrides(load_config(args.config), args.overrides))
    if args.kind is not None and config.kind != args.kind:
        raise ConfigError(f"config key 'experiment': '{config.kind}' does not match "
                          f"subcommand '{args.subcommand}' (expected '{args.kind}')")
    return config


def _run_validate(args, config: ExperimentConfig) -> int:
    """Compare the declared ellipticity bounds with the family's exact ones."""
    family = config.family
    problems = []
    if family is not None:
        spec = config.echo["family"]
        alpha = family.alpha if spec["alpha"] is None else spec["alpha"]
        beta = family.beta if spec["beta"] is None else spec["beta"]
        if args.verbose:
            print(f"  {family.name}: exact bounds [{family.alpha!r}, {family.beta!r}], "
                  f"declared [{alpha!r}, {beta!r}]")
        slack = 1e-12  # round-off in a declared bound
        if not alpha <= family.alpha + slack:  # a NaN fails too
            problems.append(f"ellipticity bound alpha={alpha!r} exceeds the family's "
                            f"exact least value {family.alpha!r}")
        if not family.beta <= beta + slack:
            problems.append(f"ellipticity bound beta={beta!r} is below the family's "
                            f"exact greatest value {family.beta!r}")
    if problems:
        for msg in problems:
            print(f"gconv validate: config key 'family': {msg}", file=sys.stderr)
        return 1
    print(f"gconv validate: config ok ({args.config})")
    return 0


def _run_experiment(args, config: ExperimentConfig) -> int:
    """Run the config's experiment, write its reports, map its outcome."""
    experiment = EXPERIMENTS[config.kind]
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"option '--out': {exc}") from exc
    # looked up per call, so a wrapped runner in the sweep module is the one run
    runner = getattr(sweep, experiment.runner)
    with np.errstate(over="raise", divide="raise", invalid="raise"):  # no inf or nan report
        report = runner(config)
    paths = []
    for fmt, name in experiment.reports(config.echo["output"]).items():
        paths.append(out / name)
        try:
            emit_report(report, fmt, paths[-1], config)
        except OSError as exc:  # such as a directory of that name under --out
            raise ConfigError(f"config key 'output.{fmt}': {exc}") from exc
    if args.verbose:
        for line in report.lines():
            print(line)
    print(f"gconv {args.subcommand}: wrote {', '.join(map(str, paths))}")
    if report.failed_stage is not None:
        print(f"gconv: numerical failure at stage '{report.failed_stage}'",
              file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        config = _load(args)
        if args.kind is None:
            return _run_validate(args, config)
        return _run_experiment(args, config)
    except ConfigError as exc:
        print(f"gconv: config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, FloatingPointError) as exc:  # the latter from np.errstate
        stage = getattr(exc, "stage", "arithmetic")
        print(f"gconv: numerical failure at stage '{stage}': {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"gconv: numerical failure at stage 'memory': {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
