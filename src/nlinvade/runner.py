"""Scenario execution: validate, simulate, diagnose, verify, emit files.

``run_scenario`` drives one scenario end to end and writes timeseries.csv,
profile snapshots, report.json and profile.svg into the output directory.
``sweep`` runs a Cartesian grid of single-value overrides over a base
scenario, one row per cell, optionally across processes; row order always
follows grid enumeration order.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 theorem-check failure (verify mode only).
"""

from __future__ import annotations

import copy
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ScenarioConfig, apply_override, build_scenario, format_value
from .diagnostics import (
    UNDECIDED,
    TheoremCheck,
    comparison_bound_check,
    detect_regime,
    verify_theorems,
)
from .dynamics import equilibria_and_class, theta_classify
from .errors import (
    ConfigInvalid,
    GridTooLarge,
    NlinvadeError,
    OutOfScope,
    SeriesTooShort,
    Undecided,
)
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


def _simulate(cfg: ScenarioConfig, dt: float):
    ku = validate_kernel(cfg.kernel_u, cfg.numerics.dx)
    kv = validate_kernel(cfg.kernel_v, cfg.numerics.dx)
    state = init_state(
        cfg.params, ku, kv, cfg.u_profile, cfg.v_profile,
        cfg.numerics.dx, cfg.numerics.window_pad,
    )
    v0_max = float(state.v.max(initial=0.0))
    result = run(
        state,
        cfg.numerics.T,
        dt,
        cfg.numerics.snapshot_every,
        metrics_L=cfg.diagnostics.L_dev,
        profile_every=cfg.numerics.profile_every or None,
    )
    return ku, kv, v0_max, result


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

    try:
        ku, kv, v0_max, result = _simulate(cfg, cfg.numerics.dt)
    except NlinvadeError as exc:
        report["regime"] = "error"
        report["error"] = f"{type(exc).__name__}: {exc}"
        if write_files:
            out.mkdir(parents=True, exist_ok=True)
            write_report_json(out / "report.json", report)
        return RunOutcome(exit_code=EXIT_NUMERICAL, report=report, outdir=out if write_files else None)

    series = result.series
    final = result.final_state
    try:
        regime = detect_regime(
            series, cfg.numerics.T, cfg.diagnostics.eps_front, cfg.diagnostics.eps_mass
        )
        report["regime"] = regime.regime
        report["fronts"] = {
            "g_front": final.g_front,
            "h_front": final.h_front,
            "g_inf_est": regime.g_inf_est,
            "h_inf_est": regime.h_inf_est,
            "trailing_front_rate": regime.trailing_front_rate,
        }
    except SeriesTooShort as exc:
        regime = None
        report["regime"] = UNDECIDED
        report["fronts"] = {
            "g_front": final.g_front,
            "h_front": final.h_front,
            "g_inf_est": None,
            "h_inf_est": None,
            "trailing_front_rate": None,
        }
        report["notes"] = [f"regime detection skipped: {exc}"]

    checks = []
    if regime is not None and regime.regime != UNDECIDED:
        try:
            checks.extend(
                verify_theorems(
                    regime,
                    cfg.params,
                    ku,
                    final,
                    series,
                    eigen_tol=cfg.diagnostics.eigen_tol,
                    mass_decay_factor=cfg.diagnostics.mass_decay_factor,
                    v_recovery_tol=cfg.diagnostics.v_recovery_tol,
                    sup_u_tol=cfg.diagnostics.sup_u_tol,
                    center_tol=cfg.diagnostics.center_tol,
                    compact_halfwidth=cfg.diagnostics.compact_halfwidth,
                )
            )
        except (OutOfScope, Undecided) as exc:
            checks.append(
                TheoremCheck(
                    "theorem_checks", False, None, {"error": f"{type(exc).__name__}: {exc}"}
                )
            )
    elif check_theorems:
        checks.append(
            TheoremCheck(
                "theorem_checks", False, None, {"error": "regime undecided; nothing to verify"}
            )
        )

    bound_ok, bound_margin = comparison_bound_check(
        series, v0_max, cfg.params.gamma, cfg.diagnostics.comparison_slack
    )
    checks.append(
        TheoremCheck(
            "native_upper_bound",
            bound_ok,
            -bound_margin,
            {"worst_violation": bound_margin, "v0_max": v0_max},
        )
    )
    report["theorem_checks"] = [c.to_record() for c in checks]

    audit = report["numerics_audit"]
    audit.update(
        {
            "clamp_count": final.clamp_count,
            "leakage": window_leakage(final),
            "window_growths": final.window_growths,
            "final_window": [final.x_min, final.x_max],
            "stencil_mass_correction_u": final.st1.mass_correction,
            "stencil_mass_correction_v": final.st2.mass_correction,
        }
    )

    if cfg.diagnostics.dt_halving:
        half = _simulate(cfg, cfg.numerics.dt / 2.0)[3].final_state
        rel = max(
            abs(final.h_front - half.h_front) / abs(half.h_front),
            abs(final.g_front - half.g_front) / abs(half.g_front),
        )
        audit["dt_halving_rel_front_change"] = rel
        audit["dt_halving_fronts"] = {
            "dt": [final.g_front, final.h_front],
            "dt_half": [half.g_front, half.h_front],
        }

    if write_files:
        out.mkdir(parents=True, exist_ok=True)
        write_timeseries_csv(out / "timeseries.csv", series)
        for t, x, u, v in result.profiles:
            write_snapshot(out / snapshot_name(t), x, u, v)
        write_report_json(out / "report.json", report)
        write_profile_svg(
            out / "profile.svg", final.x, final.u, final.v, final.g_front, final.h_front
        )

    exit_code = EXIT_OK
    if check_theorems and any(not c["pass"] for c in report["theorem_checks"]):
        exit_code = EXIT_CHECKS
    return RunOutcome(
        exit_code=exit_code, report=report, outdir=out if write_files else None, result=result
    )


# -- parameter sweeps ---------------------------------------------------------

SWEEP_HEADER_FIXED = [
    "cell",
    "status",
    "regime",
    "g_front",
    "h_front",
    "mass_u",
    "sup_u",
    "min_check_margin",
    "error",
]


def _sweep_cell(args):
    index, mapping, base_dir, cell_dir, check = args
    try:
        cfg = build_scenario(mapping, base_dir)
        outcome = run_scenario(cfg, outdir=cell_dir, check_theorems=check)
    except Exception as exc:  # any failure stays in its row; the sweep goes on
        return index, {
            "status": "error",
            "regime": "",
            "g_front": "",
            "h_front": "",
            "mass_u": "",
            "sup_u": "",
            "min_check_margin": "",
            "error": f"{type(exc).__name__}: {exc}",
        }
    rep = outcome.report
    margins = [
        c["margin"] for c in rep.get("theorem_checks", []) if isinstance(c.get("margin"), float)
    ]
    fronts = rep.get("fronts", {})
    if outcome.result is not None:
        series = outcome.result.series
        mass, sup = float(series.mass_u[-1]), float(series.sup_u[-1])
    else:
        mass = sup = ""
    return index, {
        "status": "ok" if outcome.exit_code == EXIT_OK else f"exit{outcome.exit_code}",
        "regime": rep.get("regime", ""),
        "g_front": fronts.get("g_front", ""),
        "h_front": fronts.get("h_front", ""),
        "mass_u": mass,
        "sup_u": sup,
        "min_check_margin": min(margins) if margins else "",
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
    directory per cell.  Cell failures land in their row, never abort the
    sweep.  Rows follow grid enumeration order regardless of scheduling.
    """
    axes = cfg.sweep_axes
    if not axes:
        raise ConfigInvalid("no sweep axes configured", path="sweep")
    paths = list(axes.keys())
    grids = [axes[p] for p in paths]
    total = int(np.prod([len(g) for g in grids]))
    if total > cfg.sweep_cap:
        raise GridTooLarge(f"sweep grid has {total} cells, cap is {cfg.sweep_cap}")

    out = Path(outdir) if outdir is not None else Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)

    tasks = []
    combos = list(itertools.product(*grids))
    for index, combo in enumerate(combos):
        mapping = copy.deepcopy(cfg.mapping)
        mapping.pop("sweep", None)
        for path, value in zip(paths, combo):
            apply_override(mapping, f"{path}={format_value(value)}")
        cell_dir = out / f"cell_{index:04d}"
        tasks.append((index, mapping, str(base_dir), str(cell_dir), check_theorems))

    results: dict[int, dict] = {}
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for index, row in pool.map(_sweep_cell, tasks):
                results[index] = row
    else:
        for task in tasks:
            index, row = _sweep_cell(task)
            results[index] = row

    header = ["cell", *paths, *SWEEP_HEADER_FIXED[1:]]
    rows = []
    for index, combo in enumerate(combos):
        r = results[index]
        rows.append([index, *combo] + [r[k] for k in SWEEP_HEADER_FIXED[1:]])
    write_sweep_csv(out / "sweep.csv", header, rows)
    return header, rows
