"""Turn raw runs into verdicts.

Three layers: integral/sup metrics of a state, detection of the long-time
regime (vanishing, spreading, or undecided) from a front/mass time series,
and consistency checks of a finished run against the model's proven
necessary conditions and limit profiles.  Whether the invader's range stays
bounded is undecidable from finite data, so detection is an explicit
trailing-window surrogate with configurable thresholds, and ``undecided``
is a first-class outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import (
    THETA2,
    ModelParams,
    equilibria_and_class,
    theta_classify,
    x_star,
)
from .eigenvalue import principal_eigenvalue
from .errors import OutOfScope, SeriesTooShort, Undecided, WindowTooSmall
from .kernels import ValidatedKernel, cell_weights
from .simulator import SimState, TimeSeries, integrate_u, v_deviation

TRAILING_FRACTION = 0.2
DEFAULT_EPS_FRONT = 1e-5
DEFAULT_EPS_MASS = 1e-3

VANISHING = "vanishing"
SPREADING = "spreading"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class Metrics:
    mass_u: float
    sup_u: float
    v_dev_L: float
    L: float


def metrics(state: SimState, L: float) -> Metrics:
    """Trapezoid metrics of a state; [-L, L] must fit inside the window."""
    if L > min(-state.x_min, state.x_max):
        raise WindowTooSmall(f"[-{L}, {L}] exceeds the window [{state.x_min}, {state.x_max}]")
    return Metrics(
        mass_u=integrate_u(state),
        sup_u=float(state.u.max(initial=0.0)),
        v_dev_L=v_deviation(state, L),
        L=L,
    )


def windowed_mass_u(state: SimState, x: float, L: float) -> float:
    """Mass of u over [x - L, x + L]."""
    w = cell_weights(state.x, state.dx, x - L, x + L)
    return float(np.dot(w, state.u))


def windowed_mean_v(state: SimState, x: float, L: float) -> float:
    """Mean of v over [x - L, x + L]."""
    w = cell_weights(state.x, state.dx, x - L, x + L)
    return float(np.dot(w, state.v) / (2.0 * L))


@dataclass(frozen=True)
class RegimeReport:
    regime: str
    g_inf_est: Optional[float]
    h_inf_est: Optional[float]
    trailing_front_rate: float
    final_mass_u: float
    peak_mass_u: float
    final_sup_u: float
    final_v_dev: float
    eps_front: float
    eps_mass: float


def detect_regime(
    series: TimeSeries,
    T_max: float,
    eps_front: float = DEFAULT_EPS_FRONT,
    eps_mass: float = DEFAULT_EPS_MASS,
) -> RegimeReport:
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

    t_lo = T_max * (1.0 - TRAILING_FRACTION)
    sel = t >= t_lo - 1e-12 * max(T_max, 1.0)
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

    if rate < eps_front and final_mass < eps_mass and nonincreasing:
        regime = VANISHING
        g_est, h_est = float(series.g_front[-1]), float(series.h_front[-1])
    elif rate > 10.0 * eps_front and final_mass > eps_mass:
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
        final_v_dev=float(series.v_dev_L[-1]),
        eps_front=eps_front,
        eps_mass=eps_mass,
    )


@dataclass(frozen=True)
class TheoremCheck:
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


def comparison_bound_check(
    series: TimeSeries, v0_max: float, gamma: float, slack: float = 5e-3
) -> tuple[bool, float]:
    """sup_x v(t) <= 1 + (k1 - 1) exp(-gamma t) + slack with k1 = v0_max + 1.

    Returns (holds, worst margin); a positive margin is a violation.
    """
    if series.t.size == 0:
        raise ValueError("series is empty")
    k1 = v0_max + 1.0
    bound = 1.0 + (k1 - 1.0) * np.exp(-gamma * series.t) + slack
    worst = float(np.max(series.sup_v - bound))
    return worst <= 0.0, worst


def _masked_recovery(state: SimState, Lc: float, g_est: float, h_est: float):
    x = state.x
    mask = (np.abs(x) <= Lc) & ((x <= g_est) | (x >= h_est))
    if not np.any(mask):
        return 0.0, 0.0
    w = cell_weights(x, state.dx, -Lc, Lc)
    dev = np.abs(state.v - 1.0)
    return float(np.dot(w[mask], dev[mask])), float(dev[mask].max())


def _plateau_scan(state: SimState, level: float, tol: float) -> dict:
    """Longest run of consecutive interior nodes with |u - level| < tol."""
    inside = (state.x > state.g_front) & (state.x < state.h_front)
    close = inside & (np.abs(state.u - level) < tol)
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
    eigen_tol: float = 5e-3,
    mass_decay_factor: float = 100.0,
    v_recovery_tol: float = 5e-2,
    sup_u_tol: float = 5e-2,
    center_tol: float = 1e-2,
    compact_halfwidth: Optional[float] = None,
    plateau_tol: float = 1e-2,
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
        eig_margin = (params.k - 1.0) - eig.lambda_p
        checks.append(
            TheoremCheck(
                name="vanishing_eigenvalue_bound",
                passed=eig_margin >= -eigen_tol,
                margin=eig_margin,
                details={
                    "lambda_p": eig.lambda_p,
                    "interval": [g_est, h_est],
                    "tolerance": eigen_tol,
                },
            )
        )

        peak = report.peak_mass_u
        final = report.final_mass_u
        ratio = peak / final if final > 0 else math.inf
        checks.append(
            TheoremCheck(
                name="vanishing_mass_decay",
                passed=final <= peak / mass_decay_factor,
                margin=min(ratio, 1e12),
                details={"peak_mass": peak, "final_mass": final, "required_factor": mass_decay_factor},
            )
        )

        Lc = compact_halfwidth if compact_halfwidth is not None else 2.0 * final_state.h0
        Lc = min(Lc, -final_state.x_min, final_state.x_max)
        integral, sup_dev = _masked_recovery(final_state, Lc, g_est, h_est)
        checks.append(
            TheoremCheck(
                name="vanishing_native_recovery",
                passed=integral < v_recovery_tol and sup_dev < v_recovery_tol,
                margin=v_recovery_tol - max(integral, sup_dev),
                details={
                    "v_dev_outside_range": integral,
                    "sup_dev_outside_range": sup_dev,
                    "compact_halfwidth": Lc,
                },
            )
        )

        theta = theta_classify(params)
        if params.d1 >= 1.0 or theta.verdict_roots != THETA2:
            checks.append(
                TheoremCheck(
                    name="vanishing_invader_sup",
                    passed=report.final_sup_u < sup_u_tol,
                    margin=sup_u_tol - report.final_sup_u,
                    details={"final_sup_u": report.final_sup_u, "route": "clean_extinction"},
                )
            )
        else:
            level = params.k * x_star(theta) - params.d1_tilde
            scan = _plateau_scan(final_state, level, plateau_tol)
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
        t = series.t
        t_lo = t[-1] * (1.0 - TRAILING_FRACTION)
        sel = t >= t_lo
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
                passed=dist < center_tol,
                margin=center_tol - dist,
                details={
                    "center_u": u_c,
                    "center_v": v_c,
                    "target": list(target),
                    "target_kind": target_name,
                },
            )
        )
    return checks
