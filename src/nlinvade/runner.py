"""Scenario execution: validate, simulate, diagnose, verify, emit files.

``run_scenario`` drives one scenario end to end and writes timeseries.csv,
profile snapshots, report.json and profile.svg into the output directory.
``sweep`` runs a Cartesian grid of single-value overrides over a base
scenario, one row per cell; row order follows grid enumeration order.

Where ``os.fork`` exists, `_fork` and `_join` run work in a child process
that pickles its result back through a pipe: the main run while this
process takes the dt-halving run (two thirds of the steps), and the cells of
a sweep with ``jobs`` above 1.  Elsewhere both go one after the other here,
with the same files, reports and errors.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 theorem-check failure (verify mode only).
"""

from __future__ import annotations

import copy
import ctypes
import functools
import itertools
import math
import os
import pickle
import signal
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

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
    make_outdir,
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
    if write_files:  # before the run, so that a directory in the way costs no run
        make_outdir(out)
    report: dict = {
        "regime": None,
        "fronts": {},
        "theta": theta_classify(cfg.params).to_record(),
        "theorem_checks": [],
        "numerics_audit": {
            "competition_case": equilibria_and_class(cfg.params).competition_case,
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
        result, half = _runs(cfg, state0)
        _diagnose(cfg, report, ku, state0, result, half, check_theorems)
    except NlinvadeError as exc:
        report["regime"] = "error"
        report["error"] = f"{type(exc).__name__}: {exc}"
        exit_code = EXIT_NUMERICAL
    else:
        failed = any(not c["pass"] for c in report["theorem_checks"])
        exit_code = EXIT_CHECKS if check_theorems and failed else EXIT_OK

    if write_files:
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


def _runs(cfg: ScenarioConfig, state0):
    """The main run's result, and with ``dt_halving`` on the final state of
    the run at dt/2 or the NlinvadeError it raised (None when off).

    A failure of the main run is raised here; one of the halving run is
    returned, for `_diagnose` to raise where the audit goes, so that an
    eigensolve failure still takes precedence as in a sequential run.
    """
    num, diag = cfg.numerics, cfg.diagnostics

    def main_run():
        return run(state0, num.T, num.dt, num.snapshot_every, metrics_L=diag.L_dev,
                   profile_every=num.profile_every or None)

    def halving_run():
        # only the final state is read, so the halving run keeps no profiles
        try:
            return run(state0, num.T, num.dt / 2.0, num.snapshot_every,
                       metrics_L=diag.L_dev).final_state
        except NlinvadeError as exc:
            return exc

    if not diag.dt_halving:
        return main_run(), None
    if not hasattr(os, "fork"):
        return main_run(), halving_run()

    def sent_main_run():
        # the kernels' cdf closures do not pickle, so the child sends none
        result = main_run()
        result.final_state = replace(result.final_state, j1=None, j2=None)
        return result

    child = _fork(sent_main_run)
    try:
        half = halving_run()
    except BaseException:
        _kill(child)
        raise
    result = _join(child, "main run")
    result.final_state = replace(result.final_state, j1=state0.j1, j2=state0.j2)
    return result, half


def _fork(fn):
    """Start ``fn()`` in a forked child, for `_join`.  The child pickles fn's
    result, or the exception it raised, into a pipe and leaves by
    ``os._exit``; on Linux the kernel kills it when this process dies."""
    reader, writer = os.pipe()
    parent = os.getpid()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(reader)
            if hasattr(ctypes.CDLL(None), "prctl"):  # Linux: PR_SET_PDEATHSIG = 1
                ctypes.CDLL(None).prctl(ctypes.c_int(1), ctypes.c_ulong(signal.SIGKILL))
            if os.getppid() != parent:  # the parent died before the guard stood
                os._exit(code)
            try:
                result = fn()
            except Exception as exc:
                result = exc
            with open(writer, "wb") as pipe:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)  # never back into the caller's stack
    os.close(writer)
    return pid, open(reader, "rb")


def _join(child, what: str):
    """Reap a child of `_fork` and return fn's result, or raise the exception
    it raised, or NlinvadeError("<what> process died, ...") naming the exit
    status when nothing came.  An interrupted read kills the child first."""
    pid, pipe = child
    try:
        with pipe:
            data = pipe.read()
    except BaseException:
        _kill(child)
        raise
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        try:
            how = "killed by " + signal.Signals(-code).name
        except ValueError:  # a positive exit code, or a signal without a name
            how = f"exit code {code}"
        raise NlinvadeError(f"{what} process died, {how}")
    result = pickle.loads(data)
    if isinstance(result, BaseException):
        raise result
    return result


def _kill(child) -> None:
    """SIGKILL and reap a child of `_fork` whose result is not wanted."""
    pid, pipe = child
    pipe.close()
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def _diagnose(cfg: ScenarioConfig, report: dict, ku, state0, result, half, check_theorems: bool):
    """Fill the regime, fronts, audit and checks of a completed run into
    ``report``, in that order, so that a failing check leaves the rest.
    ``half`` is what `_runs` returned for the dt-halving run."""
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

    if isinstance(half, NlinvadeError):
        raise half
    if half is not None:
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


def _row(fn, *args) -> dict:
    """``fn(*args)``, or the error row of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # a failed cell stays in its row; the sweep goes on
        error = f"{type(exc).__name__}: {exc}"
        return {**dict.fromkeys(SWEEP_FIELDS, ""), "status": "error", "error": error}


def _parallel_rows(tasks: list, jobs: int) -> list[dict]:
    """The rows of ``tasks``, each cell run in a `_fork` child, at most
    ``jobs`` at a time.  A cell whose child ends without sending its row
    gets the error row naming its exit code or signal; no other cell is
    touched.  If the wait raises, the children still running are killed."""
    import selectors  # only a parallel sweep waits on several pipes
    rows, todo, running = [None] * len(tasks), iter(enumerate(tasks)), {}
    with selectors.DefaultSelector() as ready:
        try:
            while True:
                for index, task in itertools.islice(todo, jobs - len(running)):
                    running[index] = _fork(functools.partial(_row, _cell_row, *task))
                    ready.register(running[index][1], selectors.EVENT_READ, index)
                if not running:
                    return rows
                for key, _ in ready.select():
                    ready.unregister(key.fileobj)
                    rows[key.data] = _row(_join, running.pop(key.data), "cell")
        finally:
            for child in running.values():
                _kill(child)


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
) -> tuple[list[str], list[list]]:
    """Cartesian sweep over the scenario's [sweep] axes.

    Returns (header, rows) and writes ``sweep.csv`` plus one output
    directory per cell.  A cell is exactly the run that ``--set axis=value``
    on the base config describes: defaults that derive from other values
    are derived per cell (``snapshot_every`` from T and dt, ``window_pad``
    from the kernel radii, h0 and dx, and through it ``L_dev``), and
    relative table paths resolve against the base config's directory.
    With ``jobs`` above 1 each cell runs in a forked child, at most ``jobs``
    at a time.  Cell failures, a dying process included, land in
    their own row and never abort the sweep.  Rows follow grid enumeration
    order regardless of scheduling.
    """
    axes = cfg.sweep_axes
    if not axes:
        raise ConfigInvalid("no sweep axes configured", path="sweep")
    if jobs < 1:
        raise ConfigInvalid(f"--jobs must be at least 1, got {jobs}")
    paths, grids = list(axes), list(axes.values())
    total = math.prod(len(g) for g in grids)
    if total > cfg.sweep_cap:
        raise GridTooLarge(f"sweep grid has {total} cells, cap is {cfg.sweep_cap}")

    out = make_outdir(outdir if outdir is not None else cfg.outdir)

    tasks = []
    combos = list(itertools.product(*grids))
    base = {section: keys for section, keys in cfg.mapping.items() if section != "sweep"}
    for index, combo in enumerate(combos):
        mapping = copy.deepcopy(base)
        for path, value in zip(paths, combo):
            section, _, key = path.partition(".")
            mapping.setdefault(section, {})[key] = value
        tasks.append((mapping, cfg.base_dir, str(out / f"cell_{index:04d}"), check_theorems))

    parallel = jobs > 1 and hasattr(os, "fork")
    results = _parallel_rows(tasks, jobs) if parallel else [_row(_cell_row, *t) for t in tasks]

    header = ["cell", *paths, *SWEEP_FIELDS]
    rows = [[index, *combo] + [r[k] for k in SWEEP_FIELDS]
            for index, (combo, r) in enumerate(zip(combos, results))]
    write_sweep_csv(out / "sweep.csv", header, rows)
    return header, rows
