"""Command-line front end: declarative experiment configs, delimited reports.

Exit codes: 0 on success with reports written, 1 on configuration or
validation errors (the diagnostic names the offending key), 2 on numerical
failures (the diagnostic names the failing stage).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, sweep
from .config import (
    ConfigError,
    apply_overrides,
    build_family,
    experiment_from_config,
    load_config,
    schema_help,
    validate_config,
)
from .families import CoefficientFamily, PotentialFamily, validate_ellipticity
from .linalg import NumericalError
from .sweep import EXPERIMENTS, emit_report


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


def _load_effective(args):
    raw = load_config(args.config)
    raw = apply_overrides(raw, args.overrides)
    effective = validate_config(raw)
    if args.kind is not None and effective["experiment"] != args.kind:
        raise ConfigError(
            f"config key 'experiment': '{effective['experiment']}' does not "
            f"match subcommand '{args.subcommand}' (expected '{args.kind}')"
        )
    return effective


def _run_validate(args, effective) -> int:
    problems = []
    checked = []
    for key in ("family", "potential", "source"):
        spec = effective.get(key)
        if spec is None:
            continue
        fam = build_family(spec, key)
        if isinstance(fam, CoefficientFamily):
            alpha = spec.get("alpha")
            beta = spec.get("beta")
            for h in (1, 4, 16):
                rep = validate_ellipticity(fam, h, sample_count=2000,
                                           seed=effective["seed"],
                                           alpha=alpha, beta=beta)
                checked.append(rep)
                if not rep.passed:
                    problems.append(
                        f"config key '{key}': ellipticity bound violated at h={h}: "
                        f"min quotient {rep.min_quotient:.6g} vs alpha={rep.alpha:.6g}, "
                        f"max ratio {rep.max_norm_ratio:.6g} vs beta={rep.beta:.6g}"
                    )
        elif isinstance(fam, PotentialFamily):
            x = np.linspace(0.0, 1.0, 4097)[:, None]
            for h in (1, 4, 16):
                v = fam.values_at(h, x)
                if np.any(v < -1e-12):
                    problems.append(
                        f"config key '{key}': potential takes negative values at h={h}"
                    )
    for rep in checked if args.verbose else []:
        print(f"  {rep.family} h={rep.h}: quotient in [{rep.min_quotient:.6g}, "
              f"{rep.max_norm_ratio:.6g}], declared [{rep.alpha:.6g}, {rep.beta:.6g}]")
    if problems:
        for msg in problems:
            print(f"gconv validate: {msg}", file=sys.stderr)
        return 1
    print(f"gconv validate: config ok ({args.config})")
    return 0


def _run_experiment(args, effective) -> int:
    """Run the config's experiment, write its reports, map its outcome."""
    experiment = EXPERIMENTS[args.kind]
    # looked up per call, so a wrapped runner in the sweep module is the one run
    runner = getattr(sweep, experiment.runner)
    report = runner(experiment_from_config(effective))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for fmt, default in zip(("csv", "json"), experiment.outputs):
        if default is not None:
            paths.append(out / (effective["output"][fmt] or default))
            emit_report(report, fmt, paths[-1])
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
        effective = _load_effective(args)
        if args.kind is None:
            return _run_validate(args, effective)
        return _run_experiment(args, effective)
    except ConfigError as exc:
        print(f"gconv: config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"gconv: numerical failure at stage '{exc.stage}': {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
