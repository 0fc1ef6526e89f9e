"""Command-line front end.

Engineer-facing units at the boundary: powers in dBm (or linear mW via the
``--*-mw`` twins), gains unitless, SIR in dB. Everything inside runs in
linear milliwatts. Each flag and its default is declared once, in argparse,
so ``--help`` shows every default; ``--echo-config`` prints a shell-quoted
``# flags:`` line, derived from the parsed flags, that reproduces the run
when pasted into a shell.

Exit codes: 0 success, 1 configuration error, 2 infeasibility where the
subcommand requires feasibility, 3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import shlex
import sys
from dataclasses import replace
from pathlib import Path

from .experiments import SweepConfig, sample_channels, sir_points, sir_sweep, write_csv
from .model import ChannelGains, SystemParams, db_to_linear, linear_to_db
from .solvers import solve_ne, solve_nj, verify_saddle_point

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3

#: Default directory for sweep output when --out is not given.
ENV_OUTPUT_DIR = "EHJAM_OUTPUT_DIR"

_VERIFY_SIRS_DB = (-30.0, -10.0, 0.0, 10.0)

#: Power flag stem -> (SystemParams field, help text, default in dBm).
_POWERS = {
    "na": ("n_a", "noise power at the harvesting side", -10.0),
    "nb": ("n_b", "noise power at the receiver", -7.0),
    "gamma": ("gamma_max", "jamming power budget", 10.0),
    "p": ("p_max", "transmit power budget", 0.0),
}

#: Namespace entries that are not flags of the run being echoed.
_NOT_ECHOED = ("command", "cmd", "echo_config")


class _Parser(argparse.ArgumentParser):
    """argparse with config errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _fmt_exact(x) -> str:
    return format(float(x), ".17g")


def _dbm_or_inf(mw: float) -> str:
    return _fmt(linear_to_db(mw)) if mw > 0 else "-inf"


def _add_shared_flags(parser, stems):
    """The power pairs named by stems, --zeta and --echo-config."""
    for stem in stems:
        _, help_base, default_dbm = _POWERS[stem]
        group = parser.add_mutually_exclusive_group()
        group.add_argument(f"--{stem}-dbm", type=float, default=default_dbm,
                           help=f"{help_base} in dBm")
        group.add_argument(f"--{stem}-mw", type=float,
                           help=f"{help_base} in linear mW")
    parser.add_argument("--zeta", type=float, default=0.8,
                        help="harvesting efficiency in [0, 1]")
    parser.add_argument("--echo-config", action="store_true",
                        help="print a shell-quoted flag line that reproduces this run")


def _add_gain_flags(parser, required):
    for name, link in (("h2", "useful"), ("ga2", "harvesting"), ("gb2", "interference")):
        parser.add_argument(f"--{name}", type=float, required=required,
                            help=f"power gain of the {link} link (unitless)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ehjam",
                     description="Anti-jamming link solver with RF energy harvesting")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    for name, help_text in (("nj", "solve the jammer-neutralizing optimum"),
                            ("ne", "solve the full-power operating point")):
        p_pt = sub.add_parser(name, help=help_text, **common)
        _add_shared_flags(p_pt, ("na", "nb", "gamma", "p"))
        _add_gain_flags(p_pt, required=True)
        p_pt.set_defaults(cmd=_cmd_point)

    p_sw = sub.add_parser("sweep", help="run an SIR sweep and write CSV", **common)
    _add_shared_flags(p_sw, ("na", "nb", "gamma"))
    p_sw.add_argument("--sir-start-db", type=float, default=-30.0,
                      help="first SIR point in dB")
    p_sw.add_argument("--sir-stop-db", type=float, default=10.0,
                      help="last SIR point in dB (inclusive)")
    p_sw.add_argument("--sir-step-db", type=float, default=1.0,
                      help="SIR step in dB")
    p_sw.add_argument("--draws", type=int, default=10_000,
                      help="Monte Carlo channel draws per sweep")
    p_sw.add_argument("--seed", type=int, default=0, help="channel sampling seed")
    _add_gain_flags(p_sw, required=False)
    p_sw.add_argument("--out", type=Path,
                      default=Path(os.environ.get(ENV_OUTPUT_DIR, ".")) / "sweep.csv",
                      help=f"output CSV path; the default directory is ${ENV_OUTPUT_DIR}"
                           " when set")
    p_sw.set_defaults(cmd=_cmd_sweep)

    p_vf = sub.add_parser("verify",
                          help="stability and dominance checks on random channels",
                          **common)
    _add_shared_flags(p_vf, ("na", "nb", "gamma"))
    p_vf.add_argument("--sets", type=int, default=20, help="random parameter sets")
    p_vf.add_argument("--seed", type=int, default=0, help="channel sampling seed")
    p_vf.add_argument("--legit-grid", type=int, default=200,
                      help="grid points per legitimate axis")
    p_vf.add_argument("--jammer-grid", type=int, default=200,
                      help="grid points for the jamming power")
    p_vf.add_argument("--tol", type=float, default=1e-8,
                      help="largest tolerated capacity improvement")
    p_vf.set_defaults(cmd=_cmd_verify)
    return parser


def _power(args, stem: str) -> float:
    mw = getattr(args, f"{stem}_mw")
    return mw if mw is not None else db_to_linear(getattr(args, f"{stem}_dbm"))


def _build_params(args) -> SystemParams:
    """Parameters from the parsed power flags; p_max is 1 mW for the
    subcommands without --p-*, which derive it per SIR point."""
    powers = {field: _power(args, stem) for stem, (field, _, _) in _POWERS.items()
              if hasattr(args, f"{stem}_mw")}
    return SystemParams(**{"p_max": 1.0, **powers}, zeta=args.zeta)


def _params_at_sir(params: SystemParams, sir_db: float) -> SystemParams:
    """params with the transmit budget P = gamma*10^(SIR/10) of one SIR point."""
    p_max = params.gamma_max * db_to_linear(sir_db)
    if not 0.0 < p_max < math.inf:
        raise ValueError(f"--gamma-mw {_fmt_exact(params.gamma_max)} leaves P ="
                         f" gamma*10^(SIR/10) = {_fmt(p_max)} mW at SIR {_fmt(sir_db)} dB;"
                         " P must be positive and finite")
    return replace(params, p_max=p_max)


def _echo(args, params: SystemParams) -> None:
    """Print the run's flags as one shell-quoted line: powers as exact mW,
    every other flag as parsed."""
    flags = [args.command]
    for key, value in vars(args).items():
        stem = key.removesuffix("_mw")
        if stem in _POWERS:
            value = getattr(params, _POWERS[stem][0])
        elif key in _NOT_ECHOED or key.endswith("_dbm") or value is None:
            continue
        flag = "--" + key.replace("_", "-")
        text = _fmt_exact(value) if isinstance(value, float) else str(value)
        # argparse reads a separate "-1e-05" or "-x.csv" as a flag, not a value
        flags += [f"{flag}={text}"] if text.startswith("-") else [flag, text]
    print("# flags: " + shlex.join(flags))


def _print_point(res) -> None:
    legit = res.profile.legit
    print(f"regime={res.regime.value}")
    print(f"feasible={'true' if res.feasible else 'false'}")
    print(f"p_mw={_fmt(legit.p)} p_dbm={_dbm_or_inf(legit.p)}")
    print(f"tau={_fmt(legit.tau)}")
    print(f"gamma_mw={_fmt(res.profile.gamma)} gamma_dbm={_dbm_or_inf(res.profile.gamma)}")
    print(f"capacity_bpcu={_fmt(res.value)}")


def _cmd_point(args, params) -> int:
    gains = ChannelGains(args.h2, args.ga2, args.gb2)
    if args.command == "nj":
        res = solve_nj(gains, params)
        if not res.feasible:
            print("neutralization infeasible", file=sys.stderr)
            return EXIT_INFEASIBLE
    else:
        res = solve_ne(gains, params)
    _print_point(res)
    return EXIT_OK


def _cmd_sweep(args, params) -> int:
    gains_given = [g for g in (args.h2, args.ga2, args.gb2) if g is not None]
    if gains_given and len(gains_given) != 3:
        print("ehjam sweep: error: give all of --h2/--ga2/--gb2 or none",
              file=sys.stderr)
        return EXIT_CONFIG
    config = SweepConfig(
        sir_start_db=args.sir_start_db,
        sir_stop_db=args.sir_stop_db,
        sir_step_db=args.sir_step_db,
        params=params,
        fixed_gains=ChannelGains(args.h2, args.ga2, args.gb2) if gains_given else None,
        mc_draws=args.draws,
        rng_seed=args.seed,
    )
    for sir_db in sir_points(config):
        _params_at_sir(params, sir_db)
    records = sir_sweep(config)
    write_csv(records, args.out, config)
    print(f"wrote {args.out} ({len(records)} SIR points)")
    return EXIT_OK


def _cmd_verify(args, params0) -> int:
    if args.sets < 1:
        print("ehjam verify: error: --sets must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if not params0.gamma_max > 0.0:
        raise ValueError("verify needs gamma_max > 0 to derive P from SIR")
    if not math.isfinite(args.tol):  # also when every set skips the saddle check
        raise ValueError("--tol must be finite")
    grid = (args.legit_grid, args.legit_grid, args.jammer_grid)
    checked = skipped = failures = 0
    worst_saddle = -math.inf
    worst_dominance = -math.inf
    for i in range(args.sets):
        gains = sample_channels(args.seed, i)
        sir_db = _VERIFY_SIRS_DB[i % len(_VERIFY_SIRS_DB)]
        params = _params_at_sir(params0, sir_db)
        ne = solve_ne(gains, params)
        nj = solve_nj(gains, params)
        dominance_gap = nj.value - ne.value  # positive would violate dominance
        worst_dominance = max(worst_dominance, dominance_gap)
        if dominance_gap > 1e-9:
            failures += 1
        if not ne.feasible:
            # full-power jamming is not a best response here; the saddle check
            # does not apply to this draw
            skipped += 1
            continue
        checked += 1
        ok, violation = verify_saddle_point(ne.profile, gains, params, grid, args.tol)
        worst_saddle = max(worst_saddle, violation)
        if not ok:
            failures += 1
    print(f"sets={args.sets} saddle_checked={checked} skipped_inconsistent={skipped}")
    print(f"worst_saddle_violation={_fmt(worst_saddle) if checked else 'n/a'}")
    print(f"worst_dominance_violation={_fmt(worst_dominance)}")
    print(f"result={'pass' if failures == 0 else 'fail'}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        params = _build_params(args)
        if args.echo_config:
            _echo(args, params)
        return args.cmd(args, params)
    except (ValueError, OSError) as exc:
        print(f"ehjam: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    raise SystemExit(run())
