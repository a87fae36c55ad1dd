import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from nlinvade.diagnostics import (
    SPREADING,
    UNDECIDED,
    VANISHING,
    DiagnosticsConfig,
    RegimeReport,
    TheoremCheck,
    comparison_bound_check,
    detect_regime,
    verify_theorems,
)
from nlinvade.dynamics import ModelParams
from nlinvade.errors import WindowTooSmall
from nlinvade.kernels import KernelSpec, validate_kernel
from nlinvade.simulator import Profile, TimeSeries, init_state, integrate_u, run, v_deviation

UNI = validate_kernel(KernelSpec.uniform(1.0), 0.05)
# Default tolerances; the two h0-scaled widths as build_scenario sets them for h0 = 1.
TOL = DiagnosticsConfig(L_dev=2.0, compact_halfwidth=2.0)


def params(**kw):
    base = dict(d1=1.2, d2=1.0, k=0.5, h_comp=0.5, gamma=1.0, mu=0.05, h0=1.0)
    base.update(kw)
    return ModelParams(**base)


def make_state(p=None, dx=0.05, pad=3.0, v_value=1.0):
    p = p or params()
    return init_state(p, UNI, UNI, Profile.cosine(1.0), Profile.constant(v_value), dx, pad)


def synthetic_series(
    T=100.0,
    n=101,
    h_fn=None,
    mass_fn=None,
    sup_v_fn=None,
):
    t = np.linspace(0.0, T, n)
    h_fn = h_fn or (lambda tt: np.full_like(tt, 1.0))
    mass_fn = mass_fn or (lambda tt: np.exp(-tt))
    sup_v_fn = sup_v_fn or (lambda tt: np.ones_like(tt))
    h = h_fn(t)
    mass = mass_fn(t)
    return TimeSeries(
        t=t,
        g_front=-h,
        h_front=h,
        mass_u=mass,
        sup_u=mass.copy(),
        v_dev_L=np.zeros_like(t),
        sup_v=sup_v_fn(t),
    )


class TestMetrics:
    """The recorded metrics: `integrate_u`, `v_deviation` and the series' sup u."""

    def test_zero_invader(self):
        s = make_state()
        s = replace(s, u=np.zeros_like(s.u))
        series = run(s, 0.0, 0.01, 1.0, metrics_L=2.0).series
        assert integrate_u(s) == 0.0
        assert series.mass_u[0] == 0.0
        assert series.sup_u[0] == 0.0

    def test_flat_native(self):
        assert v_deviation(make_state(), 2.0) == 0.0

    def test_flat_invader_mass(self):
        s = make_state()
        flat = np.where((s.x > -1.0) & (s.x < 1.0), 1.0, 0.0)
        s = replace(s, u=flat)
        assert integrate_u(s) == pytest.approx(2.0, abs=0.06)

    def test_window_guard(self):
        with pytest.raises(WindowTooSmall):
            v_deviation(make_state(), 100.0)


class TestDetectRegime:
    def test_frozen_fronts_decaying_mass(self):
        series = synthetic_series(
            h_fn=lambda t: np.where(t < 10.0, 1.0 + 0.05 * t, 1.5),
            mass_fn=lambda t: np.exp(-t),
        )
        rep = detect_regime(series, 100.0, replace(TOL, eps_front=1e-5, eps_mass=1e-3))
        assert rep.regime == VANISHING
        assert rep.h_inf_est == pytest.approx(1.5)
        assert rep.g_inf_est == pytest.approx(-1.5)

    def test_linear_fronts_spreading(self):
        series = synthetic_series(
            h_fn=lambda t: 1.0 + 0.5 * t,
            mass_fn=lambda t: np.full_like(t, 5.0),
        )
        rep = detect_regime(series, 100.0, TOL)
        assert rep.regime == SPREADING
        assert rep.h_inf_est is None
        assert rep.trailing_front_rate == pytest.approx(1.0, rel=1e-9)

    def test_creeping_fronts_undecided(self):
        eps = 1e-5
        series = synthetic_series(
            h_fn=lambda t: 1.0 + 2.0 * eps * t,  # range rate 4*eps: between thresholds
            mass_fn=lambda t: np.full_like(t, 5.0),
        )
        rep = detect_regime(series, 100.0, replace(TOL, eps_front=eps))
        assert rep.regime == UNDECIDED

    def test_too_short(self):
        series = synthetic_series(n=5)
        assert detect_regime(series, 100.0, TOL) == RegimeReport(
            UNDECIDED, note="regime detection skipped: need at least 10 samples, got 5"
        )

    def test_trailing_window_too_short(self):
        # samples to t = 79 and one at T = 100: only the last lies in [80, 100]
        full = synthetic_series()
        keep = (full.t < 80.0) | (full.t == 100.0)
        series = TimeSeries(**{name: values[keep] for name, values in vars(full).items()})
        assert detect_regime(series, 100.0, TOL) == RegimeReport(
            UNDECIDED, note="regime detection skipped: trailing window holds fewer than 2 samples"
        )

    def test_requires_coverage(self):
        series = synthetic_series(T=50.0)
        assert detect_regime(series, 100.0, TOL) == RegimeReport(
            UNDECIDED, note="regime detection skipped: series [0.0, 50.0] does not cover [0, 100.0]"
        )

    def test_threshold_monotonicity(self):
        # Enlarging eps_front only ever moves verdicts toward vanishing.
        order = {VANISHING: 2, UNDECIDED: 1, SPREADING: 0}
        series = synthetic_series(
            h_fn=lambda t: 1.0 + 1e-4 * t,
            mass_fn=lambda t: 1e-4 * np.exp(-t / 30.0),
        )
        verdicts = [
            detect_regime(series, 100.0, replace(TOL, eps_front=e)).regime
            for e in [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
        ]
        ranks = [order[v] for v in verdicts]
        assert ranks == sorted(ranks)

    def test_vanishing_range_exceeds_initial(self):
        series = synthetic_series(
            h_fn=lambda t: np.where(t < 10.0, 1.0 + 0.05 * t, 1.5),
            mass_fn=lambda t: np.exp(-t),
        )
        rep = detect_regime(series, 100.0, TOL)
        assert rep.h_inf_est - rep.g_inf_est >= 2.0

    @given(
        st.floats(min_value=-7.0, max_value=-1.0),
        st.floats(min_value=-7.0, max_value=-1.0),
        st.floats(min_value=-6.0, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_threshold_monotonicity_random(self, log_eps_a, log_eps_b, log_rate):
        # On any fixed series, a larger eps_front never moves the verdict
        # away from vanishing.
        order = {VANISHING: 2, UNDECIDED: 1, SPREADING: 0}
        rate = 10.0 ** log_rate
        series = synthetic_series(
            h_fn=lambda t: 1.0 + 0.5 * rate * t,
            mass_fn=lambda t: 1e-4 * np.exp(-t / 40.0),
        )
        lo, hi = sorted([10.0 ** log_eps_a, 10.0 ** log_eps_b])
        r_lo = detect_regime(series, 100.0, replace(TOL, eps_front=lo))
        r_hi = detect_regime(series, 100.0, replace(TOL, eps_front=hi))
        assert order[r_hi.regime] >= order[r_lo.regime]


class TestVerdictRule:
    """A check passes on a margin above 0, or equal to 0 where it is inclusive."""

    @pytest.mark.parametrize("margin, inclusive, passed", [
        (1e-300, False, True),
        (0.0, False, False),
        (-0.0, False, False),
        (0.0, True, True),
        (-0.0, True, True),
        (-1e-300, True, False),
        (None, False, False),
        (None, True, False),
        (float("nan"), True, False),
    ])
    def test_margin_decides(self, margin, inclusive, passed):
        check = TheoremCheck("c", margin, inclusive=inclusive)
        assert check.passed is passed
        assert check.to_record()["pass"] is passed


class TestComparisonBound:
    def test_flat_native_holds(self):
        series = synthetic_series()
        check = comparison_bound_check(series, gamma=1.0)
        assert check.name == "native_upper_bound"
        assert check.passed
        assert check.details["worst_violation"] <= 0.0
        assert check.margin == -check.details["worst_violation"]

    def test_fabricated_violation(self):
        series = synthetic_series(sup_v_fn=lambda t: np.where(t == 10.0, 2.0, 1.0))
        assert 10.0 in series.t
        check = comparison_bound_check(series, gamma=1.0)
        assert not check.passed
        worst = check.details["worst_violation"]
        assert worst == pytest.approx(1.0 - np.exp(-10.0) - 5e-3, abs=1e-12)
        assert check.margin == -worst
        assert check.details["v0_max"] == 1.0

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="^series is empty$"):
            comparison_bound_check(synthetic_series(n=0), gamma=1.0)


def vanishing_report(g=-0.25, h=0.25, **kw):
    base = dict(
        regime=VANISHING,
        g_inf_est=g,
        h_inf_est=h,
        trailing_front_rate=0.0,
        final_mass_u=1e-9,
        peak_mass_u=1.0,
        final_sup_u=1e-6,
    )
    base.update(kw)
    return RegimeReport(**base)


class TestVerifyTheorems:
    def test_vanishing_checks_pass_on_synthetic_state(self):
        # Small final range: the interval eigenvalue sits well below k - 1.
        p = params(h0=0.2)
        s = make_state(p)
        s = replace(s, u=np.where(np.abs(s.x) < 0.25, 1e-7, 0.0), g_front=-0.25, h_front=0.25)
        series = synthetic_series()
        tol = replace(TOL, compact_halfwidth=2.0 * p.h0)
        checks = verify_theorems(vanishing_report(), p, s, series, tol)
        by_name = {c.name: c for c in checks}
        assert by_name["vanishing_diffusion_dominates"].passed
        assert by_name["vanishing_diffusion_dominates"].margin == pytest.approx(0.7)
        assert by_name["vanishing_eigenvalue_bound"].passed
        assert by_name["vanishing_mass_decay"].passed
        assert by_name["vanishing_native_recovery"].passed
        assert by_name["vanishing_invader_sup"].passed
        # the strict checks, vanishing_diffusion_dominates among them, fail at margin 0
        assert {c.name for c in checks if c.inclusive} == {
            "vanishing_eigenvalue_bound", "vanishing_mass_decay", "native_upper_bound"}

    def test_recovery_without_nodes_outside_range(self):
        # compact half-width 0.2 inside the final range [-0.25, 0.25]: no
        # node is outside the range, so the recovery deviations are 0
        p = params(h0=0.2)
        s = make_state(p)
        s = replace(s, u=np.where(np.abs(s.x) < 0.25, 1e-7, 0.0), g_front=-0.25, h_front=0.25)
        checks = verify_theorems(vanishing_report(), p, s, synthetic_series(),
                                 replace(TOL, compact_halfwidth=0.2))
        (check,) = [c for c in checks if c.name == "vanishing_native_recovery"]
        assert check.details["v_dev_outside_range"] == check.details["sup_dev_outside_range"] == 0.0
        assert check.passed and check.margin == 5e-2

    def test_vanishing_necessary_condition_fails(self):
        p = params(d1=0.45, k=0.5)  # d1 < 1 - k
        s = make_state(p)
        s = replace(s, g_front=-0.25, h_front=0.25)
        checks = verify_theorems(vanishing_report(), p, s, synthetic_series(), TOL)
        by_name = {c.name: c for c in checks}
        assert not by_name["vanishing_diffusion_dominates"].passed

    def test_boundary_d1_is_a_failed_record(self):
        # d1 = 1 - k puts a root of F at 0 (theta2) with plateau level 0, so
        # the run takes the clean-extinction route and the necessary
        # condition d1 > 1 - k fails as a record
        p = params(d1=0.5, k=0.5)
        s = replace(make_state(p), g_front=-0.25, h_front=0.25)
        checks = verify_theorems(vanishing_report(), p, s, synthetic_series(), TOL)
        assert [c.name for c in checks] == [
            "vanishing_diffusion_dominates", "vanishing_eigenvalue_bound", "vanishing_mass_decay",
            "vanishing_native_recovery", "vanishing_invader_sup", "native_upper_bound"]
        assert not checks[0].passed and checks[0].margin == 0.0
        assert checks[4].details["route"] == "clean_extinction"

    def test_plateau_scan_route(self):
        p = params(d1=0.1, d2=0.05, k=2.0, h_comp=2.0, gamma=1.0)
        s = make_state(p)
        level = 2.0 * 0.8 - 1.1  # k*x_star - d1_tilde for this tuple
        u = np.where(np.abs(s.x) < 0.5, level, 0.0)
        s = replace(s, u=u, g_front=-1.05, h_front=1.05)
        checks = verify_theorems(
            vanishing_report(g=-1.05, h=1.05), p, s, synthetic_series(), TOL
        )
        by_name = {c.name: c for c in checks}
        scan = by_name["vanishing_plateau_scan"]
        assert scan.passed and scan.inclusive and scan.margin == 0.0
        assert scan.details["branch"] == "plateau_pattern"

    def test_spreading_exclusion_center(self):
        p = params(k=0.5, h_comp=2.0, mu=5.0)
        s = make_state(p)
        u = np.where((s.x > -3.0) & (s.x < 3.0), 1.0, 0.0)
        s = replace(s, u=u, v=np.zeros_like(s.v), g_front=-3.0, h_front=3.0)
        series = synthetic_series(h_fn=lambda t: 1.0 + 0.5 * t, mass_fn=lambda t: np.full_like(t, 5.0))
        rep = detect_regime(series, 100.0, TOL)
        checks = verify_theorems(rep, p, s, series, TOL)
        by_name = {c.name: c for c in checks}
        assert by_name["spreading_fronts_diverge"].passed
        assert by_name["spreading_center_limit"].passed
        assert by_name["spreading_center_limit"].details["target_kind"] == "exclusion"
        assert [c.name for c in checks if c.inclusive] == ["native_upper_bound"]

    def test_spreading_out_of_scope(self):
        p = params(k=1.5)
        s = make_state(p)
        series = synthetic_series(h_fn=lambda t: 1.0 + 0.5 * t, mass_fn=lambda t: np.full_like(t, 5.0))
        rep = detect_regime(series, 100.0, TOL)
        for required in (True, False):
            checks = verify_theorems(rep, p, s, series, TOL, required=required)
            assert [c.name for c in checks] == ["theorem_checks", "native_upper_bound"]
            assert not checks[0].passed and checks[0].margin is None
            assert checks[0].details == {"error": "OutOfScope: spreading checks cover only k < 1"}

    def test_spreading_checks_use_detection_window(self):
        # A sample 1e-11 before 0.8*T sits inside detection's trailing window
        # (its tolerance is 1e-12*T), so the spreading checks must use it too.
        series = synthetic_series(h_fn=lambda t: 1.0 + 0.5 * t, mass_fn=lambda t: np.full_like(t, 5.0))
        series.t[80] = 80.0 - 1e-11
        series.h_front[80] = series.h_front[79]
        series.g_front[80] = -series.h_front[79]
        rep = detect_regime(series, 100.0, TOL)
        span = series.h_front - series.g_front
        assert rep.trailing_front_rate == (span[-1] - span[80]) / (100.0 - series.t[80])
        p = params(k=0.5, h_comp=2.0, mu=5.0)
        checks = verify_theorems(rep, p, make_state(p), series, TOL)
        details = {c.name: c for c in checks}["spreading_fronts_diverge"].details
        assert details["trailing_delta_h"] == series.h_front[-1] - series.h_front[80]
        assert details["trailing_delta_minus_g"] == series.g_front[80] - series.g_front[-1]

    def test_undecided_guard(self):
        p = params()
        s = make_state(p)
        rep = vanishing_report(regime=UNDECIDED, g_inf_est=None, h_inf_est=None)
        for report in (rep, detect_regime(synthetic_series(n=5), 100.0, TOL)):
            checks = verify_theorems(report, p, s, synthetic_series(), TOL)
            assert [c.name for c in checks] == ["theorem_checks", "native_upper_bound"]
            assert not checks[0].passed and checks[0].margin is None
            assert checks[0].details == {"error": "regime undecided; nothing to verify"}
            checks = verify_theorems(report, p, s, synthetic_series(), TOL, required=False)
            assert [c.name for c in checks] == ["native_upper_bound"]
