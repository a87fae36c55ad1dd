"""Scenario execution: validate, simulate, diagnose, verify, emit files.

``run_scenario`` drives one scenario end to end and writes timeseries.csv,
profile snapshots, report.json and profile.svg into the output directory.
``sweep`` runs a Cartesian grid of single-value overrides over a base
scenario, one row per cell, optionally each cell in its own process; row
order always follows grid enumeration order.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 theorem-check failure (verify mode only).
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ScenarioConfig, build_scenario
from .diagnostics import (
    UNDECIDED,
    TheoremCheck,
    comparison_bound_check,
    detect_regime,
    verify_theorems,
)
from .dynamics import equilibria_and_class, theta_classify
from .errors import ConfigInvalid, GridTooLarge, NlinvadeError, OutOfScope, SeriesTooShort
from .kernels import validate_kernel
from .output import (
    snapshot_name,
    write_profile_svg,
    write_report_json,
    write_snapshot,
    write_sweep_csv,
    write_timeseries_csv,
)
from .simulator import init_state, run, stability_bound, window_leakage

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CHECKS = 4


@dataclass
class RunOutcome:
    exit_code: int
    report: dict
    outdir: Optional[Path]
    result: object = None  # RunResult when the simulation completed


def run_scenario(
    cfg: ScenarioConfig,
    outdir: Optional[str | Path] = None,
    check_theorems: bool = True,
    write_files: bool = True,
) -> RunOutcome:
    """Execute one scenario; see module docstring for the exit-code map."""
    out = Path(outdir) if outdir is not None else Path(cfg.outdir)
    theta = theta_classify(cfg.params)
    eq = equilibria_and_class(cfg.params)
    report: dict = {
        "regime": None,
        "fronts": {},
        "theta": theta.to_record(),
        "theorem_checks": [],
        "numerics_audit": {
            "competition_case": eq.competition_case,
            "dx": cfg.numerics.dx,
            "dt": cfg.numerics.dt,
            "stability_bound": stability_bound(cfg.params),
            "dt_halving_rel_front_change": None,
        },
    }

    # A failure in diagnosis (the eigensolve, the dt-halving run) still
    # writes the completed run's files next to a report stating the error.
    num = cfg.numerics
    result = None
    try:
        ku = validate_kernel(cfg.kernel_u, num.dx)
        kv = validate_kernel(cfg.kernel_v, num.dx)
        state0 = init_state(cfg.params, ku, kv, cfg.u_profile, cfg.v_profile, num.dx, num.window_pad)
        result = run(state0, num.T, num.dt, num.snapshot_every, metrics_L=cfg.diagnostics.L_dev,
                     profile_every=num.profile_every or None)
        _diagnose(cfg, report, ku, state0, result, check_theorems)
    except NlinvadeError as exc:
        report["regime"] = "error"
        report["error"] = f"{type(exc).__name__}: {exc}"
        exit_code = EXIT_NUMERICAL
    else:
        failed = any(not c["pass"] for c in report["theorem_checks"])
        exit_code = EXIT_CHECKS if check_theorems and failed else EXIT_OK

    if write_files:
        out.mkdir(parents=True, exist_ok=True)
        write_report_json(out / "report.json", report)
        if result is not None:
            final = result.final_state
            write_timeseries_csv(out / "timeseries.csv", result.series)
            for t, x, u, v in result.profiles:
                write_snapshot(out / snapshot_name(t), x, u, v)
            write_profile_svg(
                out / "profile.svg", final.x, final.u, final.v, final.g_front, final.h_front
            )
    return RunOutcome(
        exit_code=exit_code, report=report, outdir=out if write_files else None, result=result
    )


def _diagnose(cfg: ScenarioConfig, report: dict, ku, state0, result, check_theorems: bool):
    """Fill the regime, fronts, audit and checks of a completed run into
    ``report``, in that order, so that a failing check leaves the rest."""
    series = result.series
    final = result.final_state
    try:
        regime = detect_regime(series, cfg.numerics.T, cfg.diagnostics)
    except SeriesTooShort as exc:
        regime = None
        report["notes"] = [f"regime detection skipped: {exc}"]
    report["regime"] = getattr(regime, "regime", UNDECIDED)
    report["fronts"] = {"g_front": final.g_front, "h_front": final.h_front}
    for key in ("g_inf_est", "h_inf_est", "trailing_front_rate"):
        report["fronts"][key] = getattr(regime, key, None)

    audit = report["numerics_audit"]
    audit.update(
        {
            "clamp_count": final.clamp_count,
            "leakage": window_leakage(final),
            "window_growths": final.window_growths,
            "steps": final.steps,
            "node_steps": final.node_steps,
            "final_window": [final.x_min, final.x_max],
            "stencil_mass_correction_u": final.st1.mass_correction,
            "stencil_mass_correction_v": final.st2.mass_correction,
        }
    )

    checks, error = [], None
    if report["regime"] != UNDECIDED:
        try:
            checks = verify_theorems(regime, cfg.params, ku, final, series, cfg.diagnostics)
        except OutOfScope as exc:
            error = f"{type(exc).__name__}: {exc}"
    elif check_theorems:
        error = "regime undecided; nothing to verify"
    if error is not None:
        checks = [TheoremCheck("theorem_checks", False, None, {"error": error})]
    v0_max = float(state0.v.max(initial=0.0))
    checks.append(comparison_bound_check(series, v0_max, cfg.params.gamma))
    report["theorem_checks"] = [c.to_record() for c in checks]

    if cfg.diagnostics.dt_halving:
        # only the final state is read, so the halving run keeps no profiles
        num = cfg.numerics
        half = run(state0, num.T, num.dt / 2.0, num.snapshot_every,
                   metrics_L=cfg.diagnostics.L_dev).final_state
        rel = max(
            abs(final.h_front - half.h_front) / abs(half.h_front),
            abs(final.g_front - half.g_front) / abs(half.g_front),
        )
        audit["dt_halving_rel_front_change"] = rel
        audit["dt_halving_fronts"] = {
            "dt": [final.g_front, final.h_front],
            "dt_half": [half.g_front, half.h_front],
        }
        audit["dt_halving_steps"] = half.steps
        audit["dt_halving_node_steps"] = half.node_steps


# -- parameter sweeps ---------------------------------------------------------

# The columns of sweep.csv after "cell" and the axis values.
SWEEP_FIELDS = [
    "status",
    "regime",
    "g_front",
    "h_front",
    "mass_u",
    "sup_u",
    "min_check_margin",
    "error",
]


def _sweep_cell(task) -> dict:
    """The row of one cell, or the error row of the exception it raises."""
    try:
        return _cell_row(*task)
    except Exception as exc:  # a failed cell stays in its row; the sweep goes on
        return _error_row(f"{type(exc).__name__}: {exc}")


def _error_row(error: str) -> dict:
    return {**dict.fromkeys(SWEEP_FIELDS, ""), "status": "error", "error": error}


def _send_row(writer, task) -> None:
    writer.send(_sweep_cell(task))


def _parallel_rows(tasks: list, jobs: int) -> list[dict]:
    """The rows of ``tasks``, each cell run in its own process, at most
    ``jobs`` at a time, with the platform's default start method.  A cell
    whose process ends without sending its row gets an error row naming
    the exit code (negative for a signal); no other cell is touched.
    Only a parallel sweep imports multiprocessing."""
    import multiprocessing
    from multiprocessing.connection import wait

    rows, todo, running = [None] * len(tasks), iter(enumerate(tasks)), {}
    try:
        while True:
            for index, task in itertools.islice(todo, jobs - len(running)):
                reader, writer = multiprocessing.Pipe(duplex=False)
                with writer:  # closed here once started: the reader sees EOF when the cell ends
                    proc = multiprocessing.Process(target=_send_row, args=(writer, task))
                    proc.start()
                running[reader] = index, proc
            if not running:
                return rows
            for reader in wait(list(running)):
                index, proc = running.pop(reader)
                with reader:
                    try:
                        row = reader.recv()
                    except EOFError:  # the process ended without sending its row
                        row = None
                proc.join()
                rows[index] = row or _error_row(f"cell process died, exit code {proc.exitcode}")
    finally:
        for reader, (_, proc) in running.items():
            proc.terminate()
            proc.join()
            reader.close()


def _cell_row(mapping, base_dir, cell_dir, check) -> dict:
    outcome = run_scenario(build_scenario(mapping, base_dir), outdir=cell_dir, check_theorems=check)
    rep = outcome.report
    margins = [c["margin"] for c in rep.get("theorem_checks", [])]
    fronts = rep.get("fronts", {})
    if outcome.result is not None:
        series = outcome.result.series
        mass, sup = float(series.mass_u[-1]), float(series.sup_u[-1])
    else:
        mass = sup = ""
    return {
        "status": "ok" if outcome.exit_code == EXIT_OK else f"exit{outcome.exit_code}",
        "regime": rep.get("regime", ""),
        "g_front": fronts.get("g_front", ""),
        "h_front": fronts.get("h_front", ""),
        "mass_u": mass,
        "sup_u": sup,
        # only a failed check lacks a margin, and then the column stays empty
        "min_check_margin": "" if not margins or None in margins else min(margins),
        "error": rep.get("error", ""),
    }


def sweep(
    cfg: ScenarioConfig,
    outdir: Optional[str | Path] = None,
    jobs: int = 1,
    check_theorems: bool = True,
    base_dir: str | Path = ".",
) -> tuple[list[str], list[list]]:
    """Cartesian sweep over the scenario's [sweep] axes.

    Returns (header, rows) and writes ``sweep.csv`` plus one output
    directory per cell.  With ``jobs`` above 1 each cell runs in its own
    process, at most ``jobs`` at a time.  Cell failures, a dying process
    included, land in their own row and never abort the sweep.  Rows follow
    grid enumeration order regardless of scheduling.
    """
    axes = cfg.sweep_axes
    if not axes:
        raise ConfigInvalid("no sweep axes configured", path="sweep")
    if jobs < 1:
        raise ConfigInvalid(f"--jobs must be at least 1, got {jobs}")
    paths = list(axes.keys())
    grids = [axes[p] for p in paths]
    total = int(np.prod([len(g) for g in grids]))
    if total > cfg.sweep_cap:
        raise GridTooLarge(f"sweep grid has {total} cells, cap is {cfg.sweep_cap}")

    out = Path(outdir) if outdir is not None else Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)

    tasks = []
    combos = list(itertools.product(*grids))
    base = {section: keys for section, keys in cfg.mapping.items() if section != "sweep"}
    for index, combo in enumerate(combos):
        mapping = copy.deepcopy(base)
        for path, value in zip(paths, combo):
            section, _, key = path.partition(".")
            mapping.setdefault(section, {})[key] = value
        tasks.append((mapping, str(base_dir), str(out / f"cell_{index:04d}"), check_theorems))

    results = _parallel_rows(tasks, jobs) if jobs > 1 else list(map(_sweep_cell, tasks))

    header = ["cell", *paths, *SWEEP_FIELDS]
    rows = [[index, *combo] + [r[k] for k in SWEEP_FIELDS]
            for index, (combo, r) in enumerate(zip(combos, results))]
    write_sweep_csv(out / "sweep.csv", header, rows)
    return header, rows
