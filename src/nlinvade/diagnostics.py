"""Turn raw runs into verdicts.

Two layers: detection of the long-time regime (vanishing, spreading, or
undecided) from the front/mass time series the simulator records, and
consistency checks of a finished run against the model's proven necessary
conditions and limit profiles.  Whether the invader's range stays bounded
is undecidable from finite data, so detection is an explicit
trailing-window surrogate, and ``undecided`` is a first-class outcome.
The detection thresholds come from one `DiagnosticsConfig` record (the
``[diagnostics]`` config section); the verification gates are fixed module
constants, so no config can loosen a check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import (
    THETA2,
    ModelParams,
    equilibria_and_class,
    plateau_value,
    theta_classify,
)
from .eigenvalue import principal_eigenvalue
from .errors import OutOfScope, SeriesTooShort, Undecided
from .kernels import ValidatedKernel, cell_weights
from .simulator import SimState, TimeSeries

TRAILING_FRACTION = 0.2
PLATEAU_TOL = 1e-2  # |u - plateau level| below which a node matches the plateau
EIGEN_TOL = 5e-3  # allowed excess of lambda_p over k - 1
CENTER_TOL = 1e-2  # sup distance of the centre (u, v) from the spreading limit
SUP_U_TOL = 5e-2  # final sup u of a cleanly extinct invader
V_RECOVERY_TOL = 5e-2  # |v - 1| outside the final range, integrated and sup
MASS_DECAY_FACTOR = 100.0  # least ratio of peak to final invader mass
COMPARISON_SLACK = 5e-3  # slack on the native upper bound

VANISHING = "vanishing"
SPREADING = "spreading"
UNDECIDED = "undecided"


@dataclass(frozen=True, kw_only=True)
class DiagnosticsConfig:
    """Detection thresholds, two h0-scaled half-widths and the dt-halving
    switch: what a scenario may set.  The verification gates are constants.

    ``L_dev`` (the half-width of the native-deviation metric) and
    ``compact_halfwidth`` (of the native-recovery check) scale with h0, so
    they have no default here; `config.build_scenario` derives them.
    """

    eps_front: float = 1e-5
    eps_mass: float = 1e-3
    L_dev: float
    compact_halfwidth: float
    dt_halving: bool = False


@dataclass(frozen=True)
class RegimeReport:
    regime: str
    g_inf_est: Optional[float]
    h_inf_est: Optional[float]
    trailing_front_rate: float
    final_mass_u: float
    peak_mass_u: float
    final_sup_u: float


def _trailing(t: np.ndarray, T_max: float) -> np.ndarray:
    """Mask of the samples in the trailing window [0.8 T_max, T_max]."""
    return t >= T_max * (1.0 - TRAILING_FRACTION) - 1e-12 * max(T_max, 1.0)


def detect_regime(series: TimeSeries, T_max: float, tol: DiagnosticsConfig) -> RegimeReport:
    """Classify the run from the trailing 20% of the series.

    vanishing: trailing range-growth rate below eps_front, final invader
    mass below eps_mass, and the mass nonincreasing across the window.
    spreading: rate above 10*eps_front with mass away from zero.  Anything
    else is undecided.  Front limits are reported only for vanishing.
    """
    t = series.t
    if t.size < 10:
        raise SeriesTooShort(f"need at least 10 samples, got {t.size}")
    if t[0] > 1e-9 * max(T_max, 1.0) or t[-1] < T_max - 1e-9 * max(T_max, 1.0):
        raise SeriesTooShort(f"series [{t[0]}, {t[-1]}] does not cover [0, {T_max}]")

    sel = _trailing(t, T_max)
    if int(np.count_nonzero(sel)) < 2:
        raise SeriesTooShort("trailing window holds fewer than 2 samples")
    span = series.h_front[sel] - series.g_front[sel]
    dt_window = t[sel][-1] - t[sel][0]
    rate = float((span[-1] - span[0]) / dt_window) if dt_window > 0 else 0.0

    mass = series.mass_u
    peak = float(mass.max(initial=0.0))
    final_mass = float(mass[-1])
    trail_mass = mass[sel]
    nonincreasing = bool(np.all(np.diff(trail_mass) <= 1e-12 * max(peak, 1e-300)))

    if rate < tol.eps_front and final_mass < tol.eps_mass and nonincreasing:
        regime = VANISHING
        g_est, h_est = float(series.g_front[-1]), float(series.h_front[-1])
    elif rate > 10.0 * tol.eps_front and final_mass > tol.eps_mass:
        regime = SPREADING
        g_est = h_est = None
    else:
        regime = UNDECIDED
        g_est = h_est = None

    return RegimeReport(
        regime=regime,
        g_inf_est=g_est,
        h_inf_est=h_est,
        trailing_front_rate=rate,
        final_mass_u=final_mass,
        peak_mass_u=peak,
        final_sup_u=float(series.sup_u[-1]),
    )


@dataclass(frozen=True)
class TheoremCheck:
    """One check's verdict.  ``margin`` is the tolerance minus the excess:
    at least 0 on a pass, at most 0 or None on a fail."""

    name: str
    passed: bool
    margin: float | None
    details: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "margin": self.margin,
            "details": self.details,
        }


def comparison_bound_check(series: TimeSeries, v0_max: float, gamma: float) -> TheoremCheck:
    """The native upper bound: sup_x v(t) <= 1 + (k1 - 1) exp(-gamma t)
    + COMPARISON_SLACK with k1 = v0_max + 1.

    The record's ``worst_violation`` is the largest excess over the bound
    (positive means violated); its margin is minus that excess.
    """
    if series.t.size == 0:
        raise ValueError("series is empty")
    k1 = v0_max + 1.0
    bound = 1.0 + (k1 - 1.0) * np.exp(-gamma * series.t) + COMPARISON_SLACK
    worst = float(np.max(series.sup_v - bound))
    return TheoremCheck(
        "native_upper_bound", worst <= 0.0, -worst, {"worst_violation": worst, "v0_max": v0_max}
    )


def _masked_recovery(state: SimState, Lc: float, g_est: float, h_est: float):
    x = state.x
    mask = (np.abs(x) <= Lc) & ((x <= g_est) | (x >= h_est))
    if not np.any(mask):
        return 0.0, 0.0
    w = cell_weights(x, state.dx, -Lc, Lc)
    dev = np.abs(state.v - 1.0)
    return float(np.dot(w[mask], dev[mask])), float(dev[mask].max())


def _plateau_scan(state: SimState, level: float) -> dict:
    """Longest run of consecutive interior nodes with |u - level| < PLATEAU_TOL."""
    inside = (state.x > state.g_front) & (state.x < state.h_front)
    close = inside & (np.abs(state.u - level) < PLATEAU_TOL)
    best = cur = 0
    for flag in close:
        cur = cur + 1 if flag else 0
        best = max(best, cur)
    return {"plateau_level": level, "longest_run": best, "match": best >= 3}


def verify_theorems(
    report: RegimeReport,
    params: ModelParams,
    kernel: ValidatedKernel,
    final_state: SimState,
    series: TimeSeries,
    tol: DiagnosticsConfig,
) -> list[TheoremCheck]:
    """Consistency checks of a decided run against the proven dichotomy.

    Vanishing runs must satisfy the necessary conditions (d1 > 1 - k and
    the interval eigenvalue at most k - 1), show the invader mass collapse
    and the native's recovery to 1 outside the final range, and follow the
    classification route: clean extinction of sup u, or, in the exceptional
    class, a reported plateau scan.  Spreading runs (only k < 1 is in
    scope) must keep both fronts advancing and approach the exclusion or
    coexistence limit at the window centre.
    """
    if report.regime == UNDECIDED:
        raise Undecided("theorem checks need a decided regime")
    checks: list[TheoremCheck] = []

    if report.regime == VANISHING:
        g_est, h_est = report.g_inf_est, report.h_inf_est
        margin = params.d1 - (1.0 - params.k)
        checks.append(
            TheoremCheck(
                name="vanishing_diffusion_dominates",
                passed=margin > 0.0,
                margin=margin,
                details={"d1": params.d1, "one_minus_k": 1.0 - params.k},
            )
        )

        eig = principal_eigenvalue(kernel, params.d1, (g_est, h_est), final_state.dx)
        excess = eig.lambda_p - (params.k - 1.0)
        checks.append(
            TheoremCheck(
                name="vanishing_eigenvalue_bound",
                passed=excess <= EIGEN_TOL,
                margin=EIGEN_TOL - excess,
                details={
                    "lambda_p": eig.lambda_p,
                    "interval": [g_est, h_est],
                    "tolerance": EIGEN_TOL,
                    "method": eig.method,
                    "iterations": eig.iterations,
                    "residual": eig.residual,
                },
            )
        )

        peak = report.peak_mass_u
        final = report.final_mass_u
        checks.append(
            TheoremCheck(
                name="vanishing_mass_decay",
                passed=final <= peak / MASS_DECAY_FACTOR,
                margin=peak / MASS_DECAY_FACTOR - final,
                details={"peak_mass": peak, "final_mass": final,
                         "required_factor": MASS_DECAY_FACTOR},
            )
        )

        Lc = min(tol.compact_halfwidth, -final_state.x_min, final_state.x_max)
        integral, sup_dev = _masked_recovery(final_state, Lc, g_est, h_est)
        details = {
            "v_dev_outside_range": integral,
            "sup_dev_outside_range": sup_dev,
            "compact_halfwidth": Lc,
        }
        if Lc != tol.compact_halfwidth:  # clipped to the final window
            details["compact_halfwidth_requested"] = tol.compact_halfwidth
        checks.append(
            TheoremCheck(
                name="vanishing_native_recovery",
                passed=integral < V_RECOVERY_TOL and sup_dev < V_RECOVERY_TOL,
                margin=V_RECOVERY_TOL - max(integral, sup_dev),
                details=details,
            )
        )

        theta = theta_classify(params)
        if params.d1 >= 1.0 or theta.verdict_roots != THETA2:
            checks.append(
                TheoremCheck(
                    name="vanishing_invader_sup",
                    passed=report.final_sup_u < SUP_U_TOL,
                    margin=SUP_U_TOL - report.final_sup_u,
                    details={"final_sup_u": report.final_sup_u, "route": "clean_extinction"},
                )
            )
        else:
            level = plateau_value(theta)
            scan = _plateau_scan(final_state, level)
            scan["route"] = "exceptional_class"
            scan["branch"] = "plateau_pattern" if scan["match"] else "clean_extinction"
            # The scan reports which branch the data matches; neither
            # outcome is a failure.
            checks.append(
                TheoremCheck(
                    name="vanishing_plateau_scan",
                    passed=True,
                    margin=0.0,
                    details=scan,
                )
            )
    else:  # spreading
        if params.k >= 1.0:
            raise OutOfScope("spreading checks cover only k < 1")
        sel = _trailing(series.t, series.t[-1])
        dh = float(series.h_front[sel][-1] - series.h_front[sel][0])
        dg = float(series.g_front[sel][0] - series.g_front[sel][-1])
        checks.append(
            TheoremCheck(
                name="spreading_fronts_diverge",
                passed=dh > 0.0 and dg > 0.0,
                margin=min(dh, dg),
                details={"trailing_delta_h": dh, "trailing_delta_minus_g": dg},
            )
        )

        if params.h_comp >= 1.0:
            target = (1.0, 0.0)
            target_name = "exclusion"
        else:
            target = equilibria_and_class(params).R_star
            target_name = "coexistence"
        i_center = int(np.argmin(np.abs(final_state.x)))
        u_c = float(final_state.u[i_center])
        v_c = float(final_state.v[i_center])
        dist = max(abs(u_c - target[0]), abs(v_c - target[1]))
        checks.append(
            TheoremCheck(
                name="spreading_center_limit",
                passed=dist < CENTER_TOL,
                margin=CENTER_TOL - dist,
                details={
                    "center_u": u_c,
                    "center_v": v_c,
                    "target": list(target),
                    "target_kind": target_name,
                },
            )
        )
    return checks
