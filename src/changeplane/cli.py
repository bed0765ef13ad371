"""Command-line front end.

Subcommands:

* ``test``      -- run WAST or SST on a CSV file,
* ``simulate``  -- Monte-Carlo size study for a scenario,
* ``power``     -- rejection-rate table over a kappa grid.

Exit codes: 0 success, 2 usage/data error, 3 numerical failure.  All
randomness funnels through the master ``--seed``, which is echoed in every
report; emitted numbers are independent of ``--threads``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import weights
from .data import ColumnSpec, load_csv
from .errors import ChangePlaneError, DataError, ParameterError, ValidationError
from .families import FAMILIES, FamilyKind
from .sim import ERROR_LAWS, METHODS, THETA_RULES, Scenario, check_level, run_power
from .sst import sst_test
from .wast import wast_test

USAGE_EXIT = 2
NUMERIC_EXIT = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _family(args) -> FamilyKind:
    return FamilyKind(args.family, tau=getattr(args, "tau", 0.5))


# The options of each scalar prior, with their values when not given.  The
# prior options default to None, so that one the run does not read is
# known to have been given.
PRIOR_OPTIONS = {
    "beta": {"beta_lambda1": 1.0, "beta_lambda2": 1.0},
    "uni_gaussian": {"weight_mu": 0.0, "weight_sigma2": 1.0},
}


def _weight_spec(args):
    """WAST's prior from ``--weight`` and its options, None for SST.
    ParameterError names a prior option given that the method or the prior
    does not read."""
    name = None if args.method == "sst" else args.weight or "std_gaussian"
    options = PRIOR_OPTIONS.get(name, {})
    reads = set() if name is None else {"weight", *options}
    for option in ("weight", *PRIOR_OPTIONS["beta"], *PRIOR_OPTIONS["uni_gaussian"]):
        if getattr(args, option) is not None and option not in reads:
            used_by = "--method sst" if name is None else f"--weight {name}"
            raise ParameterError(f"--{option.replace('_', '-')} is not used by {used_by}")
    if name is None:
        return None
    # gaussian is N(0, I), the standard prior.
    return weights.WeightSpec("std_gaussian" if name == "gaussian" else name, tuple(
        options[o] if getattr(args, o) is None else getattr(args, o) for o in options))


def _columns(raw: str | None) -> list[str]:
    return [c for c in (raw.split(",") if raw else []) if c]


def _check_output(path: str) -> None:
    """DataError, before any work, when ``path`` is a directory or its
    directory does not exist; other write failures surface in ``_write_output``."""
    if os.path.isdir(path):
        raise DataError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise DataError(f"cannot write {path}: no such directory")


def _write_output(path: str, write) -> None:
    """Open ``path`` for writing and pass it to ``write``; DataError when it
    cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_test(args) -> int:
    check_level(args.level)
    weight = _weight_spec(args)
    # A scalar prior reads one grouping variable, so no intercept is added.
    scalar_prior = weight is not None and weight.variant in PRIOR_OPTIONS
    spec = ColumnSpec(
        response=args.response,
        baseline=_columns(args.baseline),
        diff=_columns(args.diff),
        grouping=_columns(args.grouping),
        add_intercept_baseline=not args.no_intercept_baseline,
        add_intercept_grouping=not (args.no_intercept_grouping or scalar_prior),
    )
    ds = load_csv(args.data, spec)
    family = _family(args)
    if args.output:
        _check_output(args.output)
    if args.method == "wast":
        out = wast_test(ds, family, weight=weight, n_boot=args.boot, seed=args.seed)
        grid_info = ""
    else:
        out = sst_test(ds, family, k_directions=args.grid_k,
                       grid_per_direction=args.grid_per_direction,
                       n_resample=args.boot, seed=args.seed)
        grid_info = (f"grid_k={out.diagnostics['grid_size']} "
                     f"skipped={out.diagnostics['grid_skipped']} "
                     f"distinct={out.diagnostics['grid_distinct']}")

    decision = "reject" if out.p_value < args.level else "fail-to-reject"
    print(f"# seed={args.seed}")
    print(f"method={out.method} family={out.family} n={ds.n} "
          f"B={out.n_boot} {grid_info}".rstrip())
    print(f"statistic={_fmt(out.statistic)}")
    print(f"p_value={_fmt(out.p_value)}")
    print(f"decision={decision} (level={_fmt(args.level)})")
    if args.output:
        _write_output(args.output, lambda fh: fh.write(
            "method,family,n,n_boot,statistic,p_value,level,decision,seed\n"
            f"{out.method},{out.family},{ds.n},{out.n_boot},"
            f"{_fmt(out.statistic)},{_fmt(out.p_value)},"
            f"{_fmt(args.level)},{decision},{args.seed}\n"))
    return 0


def _scenario(args) -> Scenario:
    try:
        r, p, q = (int(v) for v in args.dims.split(","))
    except ValueError:
        raise ParameterError(
            f"--dims must be three comma-separated integers r,p,q, got {args.dims!r}") from None
    return Scenario(
        family=_family(args), dims=(r, p, q), n=args.n, rho=args.rho,
        kappa=args.kappa, theta_rule=args.theta_rule,
        split_quantile=args.split_quantile, z_law=args.z_law,
        error_law=args.error_law, seed=args.seed,
    )


def cmd_simulate(args) -> int:
    # A size study is a power study at the scenario's own kappa.
    return _study(args, [args.kappa], "size.csv",
                  "running size study: methods={methods} family={family} n={n} "
                  "reps={reps} boot={boot}",
                  "method={method} kappa={kappa} n={n} rate={rate} stderr={stderr} "
                  "reps={reps}")


def cmd_power(args) -> int:
    try:
        kappas = [float(v) for v in _columns(args.kappa_grid)]
    except ValueError:
        raise ParameterError(
            f"--kappa-grid must be a comma list of numbers, got {args.kappa_grid!r}") from None
    return _study(args, kappas, "power.csv",
                  "running power study: methods={methods} kappas={kappa_grid} reps={reps}",
                  "kappa={kappa} method={method} rate={rate} stderr={stderr}")


def _study(args, kappas, default_output: str, banner: str, line: str) -> int:
    """Run the rejection-rate table over ``kappas``: ``banner`` (filled from
    the flags) goes to stderr, one ``line`` per table row to stdout, and the
    table to ``--output`` or ``default_output``."""
    sc = _scenario(args)
    output = args.output or default_output
    _check_output(output)
    methods = tuple(_columns(args.methods))
    print(banner.format_map({**vars(args), "methods": ",".join(methods)}), file=sys.stderr)
    table = run_power(sc, kappas, reps=args.reps, n_boot=args.boot,
                      level=args.level, methods=methods, threads=args.threads,
                      k_directions=args.grid_k, grid_per_direction=args.grid_per_direction)
    print(f"# seed={args.seed}")
    for row in table.rows:
        print(line.format_map({**row, **{k: _fmt(row[k]) for k in ("kappa", "rate", "stderr")}}))
    _write_output(output, table.write_csv)
    return 0


def _add_family_args(p):
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--tau", type=float, default=0.5,
                   help="quantile level (quantile family only)")


def _add_study_args(p):
    p.add_argument("--dims", default="2,2,3", help="r,p,q")
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--theta-rule", default="equispaced", choices=THETA_RULES)
    p.add_argument("--split-quantile", type=float, default=0.65)
    p.add_argument("--z-law", default="std_normal")
    p.add_argument("--error-law", default="std_normal", choices=ERROR_LAWS)
    p.add_argument("--reps", type=int, default=300)
    p.add_argument("--boot", type=int, default=200)
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--methods", default="wast", help=f"comma list: {','.join(METHODS)}")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--grid-k", type=int, default=1000)
    p.add_argument("--grid-per-direction", type=int, default=1)
    p.add_argument("--output", default=None)
    p.add_argument("--config", default=None,
                   help="key=value file supplying defaults (flags win)")


def _config_flags(path: str) -> list[str]:
    flags = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            flags.append(f"--{key.replace('_', '-')}={val}")
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="changeplane",
        description="Subgroup / change-plane tests (WAST and SST)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run a hypothesis test on a CSV file")
    p_test.add_argument("data")
    p_test.add_argument("--method", choices=METHODS, default="wast")
    _add_family_args(p_test)
    p_test.add_argument("--response", required=True)
    p_test.add_argument("--baseline", default="", help="comma list of columns")
    p_test.add_argument("--diff", required=True, help="comma list of columns")
    p_test.add_argument("--grouping", default="", help="comma list of columns")
    p_test.add_argument("--no-intercept-baseline", action="store_true")
    p_test.add_argument("--no-intercept-grouping", action="store_true")
    p_test.add_argument("--weight", choices=weights.VARIANTS,
                        help="WAST prior (default std_gaussian)")
    for variant, options in PRIOR_OPTIONS.items():
        for name, default in options.items():
            p_test.add_argument(f"--{name.replace('_', '-')}", type=float,
                                help=f"{variant} prior only (default {default})")
    p_test.add_argument("--boot", type=int, default=1000)
    p_test.add_argument("--grid-k", type=int, default=1000)
    p_test.add_argument("--grid-per-direction", type=int, default=1)
    p_test.add_argument("--level", type=float, default=0.05)
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--output", default=None)
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo size study")
    _add_family_args(p_sim)
    _add_study_args(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_pow = sub.add_parser("power", help="rejection rates over a kappa grid")
    _add_family_args(p_pow)
    _add_study_args(p_pow)
    p_pow.add_argument("--kappa-grid", required=True,
                       help="comma list of effect sizes")
    p_pow.set_defaults(func=cmd_power)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    pre, _ = parser.parse_known_args(argv)
    if getattr(pre, "config", None):
        # Config entries go before the given flags: argparse converts and
        # checks them like any flag, and a flag given on the command line
        # wins because the last value is kept.
        try:
            argv[1:1] = _config_flags(pre.config)
        except (OSError, UnicodeDecodeError, DataError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return USAGE_EXIT
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (DataError, ValidationError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ChangePlaneError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
