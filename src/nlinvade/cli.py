"""Command-line surface.

Subcommands: validate-kernel, eigen-curve, classify, ode, simulate, sweep,
verify.  Each reads a scenario config and accepts repeatable
``--set section.key=value`` overrides and ``--quiet``; ``--out`` and
``--jobs`` are accepted only by the subcommands that read them.  Exit
codes: 0 success, 2 config error, 3 numerical failure, 4 theorem-check
failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

import numpy as np

from .config import load_scenario
from .dynamics import equilibria_and_class, ode_trajectory, theta_classify
from .eigenvalue import eigen_curve
from .errors import ConfigInvalid, NlinvadeError
from .kernels import validate_kernel
from .output import (fmt, make_outdir, report_text, write_eigen_curve, write_ode_csv,
                     write_report_json)
from .runner import EXIT_CONFIG, EXIT_NUMERICAL, run_scenario, sweep


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nlinvade",
        description="Competition with nonlocal dispersal and moving invasion fronts",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # Each subcommand: its handler, the optional flags it reads, its help.
    for name, handler, flags, desc in [
        ("validate-kernel", _cmd_validate_kernel, (),
         "validate the configured dispersal kernels"),
        ("eigen-curve", _cmd_eigen_curve, ("--out",),
         "interval eigenvalue as a function of length"),
        ("classify", _cmd_classify, ("--out",),
         "equilibria, competition case and F-root classification"),
        ("ode", _cmd_ode, ("--out",),
         "integrate the spatially homogeneous system"),
        ("simulate", partial(_cmd_run, check=False), ("--out",),
         "run the free-boundary scenario and emit files"),
        ("sweep", _cmd_sweep, ("--out", "--jobs"),
         "Cartesian parameter sweep over the configured axes"),
        ("verify", partial(_cmd_run, check=True), ("--out",),
         "simulate and gate the exit code on the consistency checks"),
    ]:
        p = sub.add_parser(name, help=desc)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="scenario config path")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="section.key=value",
            help="override a config value (repeatable)",
        )
        if "--out" in flags:
            p.add_argument("--out", default=None, help="output directory override")
        if "--jobs" in flags:
            p.add_argument("--jobs", type=int, default=1, help="parallel sweep cells (>= 1)")
        p.add_argument("--quiet", action="store_true", help="suppress stdout chatter")
    return ap


def _say(args, *message, end="\n"):
    if not args.quiet:
        print(*message, end=end)


def _cmd_validate_kernel(args, cfg) -> int:
    for label, spec in (("kernel_u", cfg.kernel_u), ("kernel_v", cfg.kernel_v)):
        kernel = validate_kernel(spec, cfg.numerics.dx)
        _say(
            args,
            f"{label}: form={kernel.form} support_radius={fmt(kernel.support_radius)} "
            f"density_at_origin={fmt(float(np.asarray(kernel.evaluate(0.0))))} "
            f"renorm_factor={fmt(kernel.renorm_factor)}",
        )
    return 0


def _cmd_eigen_curve(args, cfg) -> int:
    kernel = validate_kernel(cfg.kernel_u, cfg.numerics.dx)
    pairs = eigen_curve(kernel, cfg.params.d1, cfg.eigen_lengths, cfg.numerics.dx)
    out = make_outdir(args.out or cfg.outdir)
    write_eigen_curve(out / "eigen_curve.txt", pairs)
    for l, lam in pairs:
        _say(args, f"l={fmt(l)} lambda_p={fmt(lam)}")
    _say(args, f"wrote {out / 'eigen_curve.txt'}")
    return 0


def _cmd_classify(args, cfg) -> int:
    eq = equilibria_and_class(cfg.params)
    record = {**theta_classify(cfg.params).to_record(), "competition_case": eq.competition_case,
              "R_star": list(eq.R_star) if eq.R_star else None}
    _say(args, report_text(record), end="")
    if args.out:
        write_report_json(make_outdir(args.out) / "classify.json", record)
    return 0


def _cmd_ode(args, cfg) -> int:
    traj = ode_trajectory(cfg.params, cfg.ode_init, cfg.ode_T, cfg.ode_dt)
    out = make_outdir(args.out or cfg.outdir)
    write_ode_csv(out / "ode.csv", traj)
    _say(args, f"final state u={fmt(traj.final[0])} v={fmt(traj.final[1])}")
    _say(args, f"wrote {out / 'ode.csv'}")
    return 0


def _cmd_run(args, cfg, check: bool) -> int:
    outcome = run_scenario(cfg, outdir=args.out, check_theorems=check)
    if "error" in outcome.report:
        print(f"numerical failure: {outcome.report['error']}", file=sys.stderr)
    _say(args, f"regime: {outcome.report.get('regime')}")
    for entry in outcome.report.get("theorem_checks", []):
        _say(args, f"  check {entry['name']}: {'pass' if entry['pass'] else 'FAIL'}")
    _say(args, f"outputs in {outcome.outdir}")
    return outcome.exit_code


def _cmd_sweep(args, cfg) -> int:
    header, rows = sweep(cfg, outdir=args.out, jobs=args.jobs)
    _say(args, ",".join(header))
    for row in rows:
        _say(args, ",".join(str(c) for c in row))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_scenario(args.config, overrides=args.set)
        return args.handler(args, cfg)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NlinvadeError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
