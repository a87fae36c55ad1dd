"""Spatially homogeneous skeleton of the competition model.

Covers the plain two-species ODE

    u' = u (1 - u - k v),      v' = gamma v (1 - v - h_comp u),

its interior equilibrium and competition-case labels, the quadratic F(s)
whose root structure on [0, 1] splits parameter space into the
clean-extinction class (theta1) and the class admitting an exceptional
plateau (theta2), and the plateau abscissa x_* and level.

The reaction coefficient is called ``h_comp`` throughout: the plain symbol
h is reserved for the right front position in the field model.

The field model also runs in un-reduced form (`GeneralParams`: arbitrary
diffusivities and linear reaction coefficients).  Both parameter records
answer `general()`, the general-form coefficients that the stepping core
reads, checked when built: the reduced system is the general one with
a1 = b1 = 1, c1 = k, a2 = b2 = gamma, c2 = gamma * h_comp.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import AssumptionViolated, NonPositiveParameter, NotInTheta2, StepTooLarge
from .kernels import check_grid_size

THETA1 = "theta1"
THETA2 = "theta2"
INAPPLICABLE = "inapplicable"

CASE_WEAK = "weak"
CASE_U_STRONG = "u_strong"
CASE_V_STRONG = "v_strong"
CASE_STRONG = "strong"
CASE_BOUNDARY = "boundary_case"

ROOT_MEMBERSHIP_TOL = 1e-12  # closed tolerance for root-in-[0,1] membership


@dataclass(frozen=True)
class ModelParams:
    """The positive constants of the reduced model.

    ``mu`` may be zero (frozen fronts); everything else must be strictly
    positive.  ``h_comp`` is the competition pressure of u on v; ``k`` the
    pressure of v on u.  The defaults are those of the ``[params]`` config
    section.
    """

    d1: float = 1.0
    d2: float = 1.0
    k: float = 0.5
    h_comp: float = 0.5
    gamma: float = 1.0
    mu: float = 1.0
    h0: float = 1.0

    @property
    def d1_tilde(self) -> float:
        return self.d1 + self.k - 1.0

    def general(self) -> GeneralParams:
        """The coefficients of the general form (NonPositiveParameter if invalid)."""
        return GeneralParams(D1=self.d1, D2=self.d2, a1=1.0, b1=1.0, c1=self.k,
                             a2=self.gamma, b2=self.gamma, c2=self.gamma * self.h_comp,
                             mu_hat=self.mu, H0=self.h0)


@dataclass(frozen=True)
class GeneralParams:
    """Coefficients of the un-reduced system: finite, positive, ``mu_hat`` may be 0."""

    D1: float
    D2: float
    a1: float
    b1: float
    c1: float
    a2: float
    b2: float
    c2: float
    mu_hat: float
    H0: float

    def __post_init__(self):
        for name, val in vars(self).items():
            low = "finite and at least 0" if name == "mu_hat" else "finite and positive"
            if not np.isfinite(val) or val < 0 or (val == 0 and name != "mu_hat"):
                raise NonPositiveParameter(f"general parameter {name} must be {low}, got {val}")

    def general(self) -> GeneralParams:
        return self


@dataclass(frozen=True)
class EquilibriumSet:
    R_star: Optional[tuple[float, float]]
    competition_case: str


def equilibria_and_class(params: ModelParams) -> EquilibriumSet:
    """The interior equilibrium of the plain ODE and the competition-case label.

    Depends only on (k, h_comp).  The interior equilibrium exists exactly
    when k and h_comp sit on the same side of 1; the trivial ones (0, 0),
    (1, 0) and (0, 1) always do.
    """
    k, h = params.k, params.h_comp
    if k == 1.0 or h == 1.0:
        case = CASE_BOUNDARY
    elif max(k, h) < 1.0:
        case = CASE_WEAK
    elif k < 1.0 < h:
        case = CASE_U_STRONG
    elif h < 1.0 < k:
        case = CASE_V_STRONG
    else:
        case = CASE_STRONG

    r_star = None
    if max(k, h) < 1.0 or min(k, h) > 1.0:
        denom = 1.0 - h * k
        r_star = ((1.0 - k) / denom, (1.0 - h) / denom)
    return EquilibriumSet(R_star=r_star, competition_case=case)


@dataclass(frozen=True)
class OdeTrajectory:
    t: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def final(self) -> tuple[float, float]:
        return float(self.u[-1]), float(self.v[-1])


def _rhs(u, v, k, h, gamma):
    return u * (1.0 - u - k * v), gamma * v * (1.0 - v - h * u)


def ode_trajectory(
    params: ModelParams, init: tuple[float, float], T: float, dt: float
) -> OdeTrajectory:
    """Classical fourth-order one-step integration of the plain ODE.

    Nonnegativity is enforced by flushing below-zero undershoots to exact
    zero; a state escaping ten times the invariant box raises StepTooLarge,
    and a trajectory of more than MAX_GRID_NODES points GridTooLarge.
    """
    if dt <= 0 or not np.isfinite(dt):
        raise ValueError("dt must be positive")
    if T < 0 or not np.isfinite(T):
        raise ValueError("T must be nonnegative and finite")
    u0, v0 = float(init[0]), float(init[1])
    if u0 < 0 or v0 < 0:
        raise ValueError("initial data must be nonnegative")

    k, h, gamma = params.k, params.h_comp, params.gamma
    cap_u = 10.0 * max(1.0, u0)
    cap_v = 10.0 * max(1.0, v0)
    check_grid_size(T / dt + 1.0, f"an ODE trajectory to T = {T:g} at step {dt:g}")
    n = math.ceil(T / dt)
    ts = np.empty(n + 1)
    us = np.empty(n + 1)
    vs = np.empty(n + 1)
    ts[0], us[0], vs[0] = 0.0, u0, v0
    t, u, v = 0.0, u0, v0
    for i in range(1, n + 1):
        step = min(dt, T - t)
        k1u, k1v = _rhs(u, v, k, h, gamma)
        k2u, k2v = _rhs(u + 0.5 * step * k1u, v + 0.5 * step * k1v, k, h, gamma)
        k3u, k3v = _rhs(u + 0.5 * step * k2u, v + 0.5 * step * k2v, k, h, gamma)
        k4u, k4v = _rhs(u + step * k3u, v + step * k3v, k, h, gamma)
        u = u + step / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + step / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        t += step
        # Escape is judged on the raw update: clipping must not mask a
        # gross undershoot caused by an oversized step.
        if (
            not (np.isfinite(u) and np.isfinite(v))
            or u > cap_u
            or v > cap_v
            or u < -cap_u
            or v < -cap_v
        ):
            raise StepTooLarge(f"state ({u}, {v}) escaped the invariant box at t={t}")
        if u < 0.0:
            u = 0.0
        if v < 0.0:
            v = 0.0
        ts[i], us[i], vs[i] = t, u, v
    return OdeTrajectory(t=ts, u=us, v=vs)


# -- F(s) and the theta classification -----------------------------------

@dataclass(frozen=True)
class ThetaReport:
    a: float
    b: float
    c: float
    d1_tilde: float
    k: float
    verdict_roots: str
    verdict_closed_form: str
    sufficient_condition_hit: Optional[str]
    roots_in_unit_interval: tuple[float, ...]
    x_star: Optional[float]
    discriminant: float

    def to_record(self) -> dict:
        """Flat key-value record for JSON output: the fields plus the
        closed-form peak position and lower edge where they exist (the edge
        sqrt(c/a) needs c <= 0, that is d1_tilde >= 0)."""
        rec = asdict(self)
        if self.a < 0:
            rec["closed_form_peak_position"] = self.b / (-2.0 * self.a)
            if self.a <= self.c <= 0.0:
                rec["closed_form_lower_edge"] = math.sqrt(self.c / self.a)
        return rec


def f_coefficients(params: ModelParams) -> tuple[float, float, float]:
    g, h, d2 = params.gamma, params.h_comp, params.d2
    dt1 = params.d1_tilde
    a = g * (1.0 - h * params.k)
    b = dt1 * g * h - g * (1.0 - h * params.k) - d2
    c = -dt1 * g * h
    return a, b, c


def _quadratic_roots_unit_interval(a: float, b: float, c: float) -> tuple[float, ...]:
    """Real roots of a s^2 + b s + c inside [0, 1], stably computed.

    Near-degenerate leading coefficients fall back to the linear solve;
    discriminants within a rounding band of zero count as a double root.
    """
    scale = max(abs(b), abs(c))
    roots: list[float]
    if abs(a) < 1e-12 * max(scale, 1e-300):
        roots = [] if b == 0.0 else [-c / b]
    else:
        disc = b * b - 4.0 * a * c
        band = 64.0 * np.finfo(float).eps * (b * b + abs(4.0 * a * c))
        if disc < -band:
            roots = []
        elif disc <= band:
            roots = [b / (-2.0 * a)]
        else:
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            roots = sorted({q / a, c / q} if q != 0.0 else {0.0})
    keep = tuple(
        r for r in sorted(roots) if -ROOT_MEMBERSHIP_TOL <= r <= 1.0 + ROOT_MEMBERSHIP_TOL
    )
    return keep


def theta_classify(params: ModelParams) -> ThetaReport:
    """Classify the parameter tuple by the root structure of F on [0, 1].

    Two independent verdicts are produced: explicit root solving, and the
    closed-form criterion  a <= c  and  sqrt(c/a) <= b/(-2a) <= 1  (valid
    only when d1 + k - 1 > 0, otherwise marked inapplicable).
    """
    a, b, c = f_coefficients(params)
    dt1 = params.d1_tilde
    roots = _quadratic_roots_unit_interval(a, b, c)
    verdict_roots = THETA2 if roots else THETA1

    if dt1 > 0.0:
        if a <= c:
            peak = b / (-2.0 * a)
            inside = math.sqrt(c / a) <= peak <= 1.0
            verdict_closed = THETA2 if inside else THETA1
        else:
            verdict_closed = THETA1
    else:
        verdict_closed = INAPPLICABLE

    hit = None
    if dt1 > 0.0:
        if params.d1 >= 1.0:
            hit = "d1_ge_1"
        elif params.k * params.h_comp <= 1.0 + params.d2 / params.gamma:
            hit = "kh_small"

    disc = b * b - 4.0 * a * c
    x_star = roots[0] if roots else None
    return ThetaReport(
        a=a,
        b=b,
        c=c,
        d1_tilde=dt1,
        k=params.k,
        verdict_roots=verdict_roots,
        verdict_closed_form=verdict_closed,
        sufficient_condition_hit=hit,
        roots_in_unit_interval=roots,
        x_star=x_star,
        discriminant=disc,
    )


def x_star(report: ThetaReport) -> float:
    """Smallest root of F in [0, 1]; only defined for theta2 tuples.

    The plateau level k*x_star - d1_tilde of the exceptional pattern is
    forced positive whenever this regime is reachable; a violation marks
    the tuple as outside it.
    """
    if report.verdict_roots != THETA2 or not report.roots_in_unit_interval:
        raise NotInTheta2("x_star is only defined when F has a root in [0, 1]")
    root = report.roots_in_unit_interval[0]
    if report.k * root - report.d1_tilde <= 0.0:
        raise AssumptionViolated(
            f"k*x_star - d1_tilde = {report.k * root - report.d1_tilde} is not positive"
        )
    return root


def plateau_value(report: ThetaReport) -> float:
    """Invader plateau level k*x_star - d1_tilde of the exceptional pattern."""
    return report.k * x_star(report) - report.d1_tilde
