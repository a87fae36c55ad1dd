import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlinvade.dynamics import (
    CASE_BOUNDARY,
    CASE_STRONG,
    CASE_U_STRONG,
    CASE_V_STRONG,
    CASE_WEAK,
    INAPPLICABLE,
    THETA1,
    THETA2,
    GeneralParams,
    ModelParams,
    equilibria_and_class,
    f_coefficients,
    ode_trajectory,
    plateau_value,
    theta_classify,
)
from nlinvade import kernels
from nlinvade.errors import GridTooLarge, NonPositiveParameter, StepTooLarge
from nlinvade.output import report_text

from model_support import AssumptionViolated, attractor_bounds


def params(d1=1.0, d2=1.0, k=0.5, h_comp=0.5, gamma=1.0, mu=1.0, h0=1.0):
    return ModelParams(d1=d1, d2=d2, k=k, h_comp=h_comp, gamma=gamma, mu=mu, h0=h0)


positive = st.floats(min_value=1e-2, max_value=1e2)
extreme = st.sampled_from([5e-324, 1e-310, 1e-300, 1e-16, 0.5, 1.0, 2.0, 1e200, 1e307])


class TestParams:
    def test_valid(self):
        params().general()
        # The general form: a1 = b1 = 1, c1 = k, a2 = b2 = gamma, c2 = gamma * h_comp.
        p = params(d1=0.3, d2=1.7, k=0.45, h_comp=2.2, gamma=0.7, mu=3.0, h0=0.8)
        assert p.general() == GeneralParams(D1=0.3, D2=1.7, a1=1.0, b1=1.0, c1=0.45, a2=0.7,
                                            b2=0.7, c2=0.7 * 2.2, mu_hat=3.0, H0=0.8)

    def test_mu_zero_allowed(self):
        assert params(mu=0.0).general().mu_hat == 0.0

    @pytest.mark.parametrize("field,value", [("d1", 0.0), ("d2", -1.0), ("k", 0.0), ("mu", -0.1)])
    def test_nonpositive_rejected(self, field, value):
        with pytest.raises(NonPositiveParameter):
            params(**{field: value}).general()


class TestEquilibria:
    def test_weak_case(self):
        eq = equilibria_and_class(params(k=0.5, h_comp=0.5))
        assert eq.competition_case == CASE_WEAK
        assert eq.R_star == pytest.approx((2.0 / 3.0, 2.0 / 3.0))

    def test_u_strong(self):
        eq = equilibria_and_class(params(k=0.5, h_comp=2.0))
        assert eq.competition_case == CASE_U_STRONG
        assert eq.R_star is None

    def test_v_strong(self):
        eq = equilibria_and_class(params(k=2.0, h_comp=0.5))
        assert eq.competition_case == CASE_V_STRONG
        assert eq.R_star is None

    def test_strong(self):
        eq = equilibria_and_class(params(k=2.0, h_comp=2.0))
        assert eq.competition_case == CASE_STRONG
        assert eq.R_star == pytest.approx((1.0 / 3.0, 1.0 / 3.0))

    def test_boundary(self):
        assert equilibria_and_class(params(k=1.0, h_comp=0.5)).competition_case == CASE_BOUNDARY
        assert equilibria_and_class(params(k=0.5, h_comp=1.0)).R_star is None

    @given(positive, positive, positive, positive, positive)
    @settings(max_examples=60, deadline=None)
    def test_depends_only_on_k_and_h(self, d1, d2, gamma, mu, h0):
        base = equilibria_and_class(params(k=0.7, h_comp=1.3))
        other = equilibria_and_class(
            params(d1=d1, d2=d2, gamma=gamma, mu=mu, h0=h0, k=0.7, h_comp=1.3)
        )
        assert base == other


class TestOdeTrajectory:
    def test_weak_reaches_interior_equilibrium(self):
        traj = ode_trajectory(params(k=0.5, h_comp=0.5), (0.1, 0.1), T=200.0, dt=0.01)
        assert traj.final == pytest.approx((2.0 / 3.0, 2.0 / 3.0), abs=1e-6)

    def test_invariant_axis(self):
        traj = ode_trajectory(params(), (0.0, 0.3), T=60.0, dt=0.01)
        assert np.all(traj.u == 0.0)
        assert traj.final[1] == pytest.approx(1.0, abs=1e-6)

    def test_exclusion_u_wins(self):
        traj = ode_trajectory(params(k=0.5, h_comp=2.0), (0.1, 0.9), T=300.0, dt=0.01)
        assert traj.final == pytest.approx((1.0, 0.0), abs=1e-5)

    def test_step_too_large(self):
        with pytest.raises(StepTooLarge):
            ode_trajectory(params(), (9.9, 9.9), T=50.0, dt=9.0)

    def test_undershoot_flushed_to_zero(self):
        # one RK4 step of length 1 from (3, 3) lands both fields below 0,
        # inside the escape box of 30
        traj = ode_trajectory(params(), (3.0, 3.0), T=1.0, dt=1.0)
        assert traj.final == (0.0, 0.0)

    @pytest.mark.parametrize("init, T, dt, message", [
        ((0.1, 0.1), 1.0, 0.0, "dt must be positive"),
        ((0.1, 0.1), 1.0, math.inf, "dt must be positive"),
        ((0.1, 0.1), -1.0, 0.1, "T must be nonnegative"),
        ((0.1, 0.1), math.nan, 0.1, "T must be nonnegative"),
        ((-0.1, 0.1), 1.0, 0.1, "initial data must be nonnegative"),
        ((0.1, -0.1), 1.0, 0.1, "initial data must be nonnegative"),
    ])
    def test_arguments_checked(self, init, T, dt, message):
        with pytest.raises(ValueError, match=message):
            ode_trajectory(params(), init, T=T, dt=dt)

    def test_zero_horizon(self):
        traj = ode_trajectory(params(), (0.2, 0.4), T=0.0, dt=0.1)
        assert traj.t.size == 1
        assert traj.final == (0.2, 0.4)

    @pytest.mark.parametrize("T, dt", [(1e307, 0.01), (1e9, 0.01), (200.0, 1e-300)])
    def test_trajectory_length_capped(self, T, dt):
        # T / dt + 1 points is checked before any array is allocated: the
        # ratio overflows to inf, or asks for 1e11 or 2e302 points
        with pytest.raises(GridTooLarge, match="an ODE trajectory"):
            ode_trajectory(params(), (0.1, 0.1), T=T, dt=dt)

    def test_trajectory_cap_counts_every_point(self, monkeypatch):
        # T = 1 at dt = 0.1 is 10 steps and 11 points, t = 0 included
        monkeypatch.setattr(kernels, "MAX_GRID_NODES", 11)
        assert ode_trajectory(params(), (0.1, 0.1), T=1.0, dt=0.1).t.size == 11
        monkeypatch.setattr(kernels, "MAX_GRID_NODES", 10)
        with pytest.raises(GridTooLarge):
            ode_trajectory(params(), (0.1, 0.1), T=1.0, dt=0.1)

    @given(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_box_invariance(self, u0, v0, k, h):
        traj = ode_trajectory(params(k=k, h_comp=h), (u0, v0), T=20.0, dt=0.02)
        assert np.all(traj.u <= max(1.0, u0) + 1e-9)
        assert np.all(traj.v <= max(1.0, v0) + 1e-9)
        assert np.all(traj.u >= 0.0)
        assert np.all(traj.v >= 0.0)


class TestThetaClassification:
    def test_sufficient_condition_d1(self):
        rep = theta_classify(params(gamma=1.0, h_comp=1.0, k=0.5, d1=1.0, d2=1.0))
        assert rep.sufficient_condition_hit == "d1_ge_1"
        assert rep.verdict_roots == THETA1
        assert rep.verdict_closed_form == THETA1

    def test_worked_theta2_tuple(self):
        rep = theta_classify(params(gamma=1.0, h_comp=2.0, k=2.0, d1=0.1, d2=0.05))
        assert rep.a == pytest.approx(-3.0)
        assert rep.b == pytest.approx(5.15)
        assert rep.c == pytest.approx(-2.2)
        assert rep.verdict_roots == THETA2
        assert rep.verdict_closed_form == THETA2
        assert rep.roots_in_unit_interval == pytest.approx((0.8, 11.0 / 12.0), abs=1e-9)

    def test_sufficient_condition_kh(self):
        rep = theta_classify(params(gamma=1.0, h_comp=0.4, k=2.0, d1=0.5, d2=1.0))
        assert rep.sufficient_condition_hit == "kh_small"
        assert rep.verdict_roots == THETA1

    def test_inapplicable_when_d1_tilde_negative(self):
        rep = theta_classify(params(d1=0.2, k=0.5))
        assert rep.d1_tilde < 0
        assert rep.verdict_closed_form == INAPPLICABLE
        # F(0) = -d1_tilde*gamma*h >= 0 and F(1) = -d2 < 0 force a root.
        assert rep.verdict_roots == THETA2

    def test_record_when_d1_tilde_negative_and_a_negative(self):
        # c = -d1_tilde*gamma*h > 0 > a: the peak position exists, the lower
        # edge sqrt(c/a) does not.
        rep = theta_classify(params(d1=0.3, k=0.5, h_comp=2.5))
        assert rep.a < 0 < rep.c
        rec = rep.to_record()
        assert rec["closed_form_peak_position"] == rep.b / (-2.0 * rep.a)
        assert "closed_form_lower_edge" not in rec
        assert rec["roots_in_unit_interval"] == rep.roots_in_unit_interval

    def test_record_lower_edge(self):
        # a = -2 <= c = -1.5 <= 0: the lower edge sqrt(c/a) exists
        rep = theta_classify(params(d1=0.5, k=1.0, h_comp=3.0))
        assert (rep.a, rep.c) == (-2.0, -1.5)
        rec = rep.to_record()
        assert rec["closed_form_lower_edge"] == math.sqrt(0.75)
        assert rec["closed_form_peak_position"] == rep.b / (-2.0 * rep.a)

    def test_coefficient_identity(self):
        rep = theta_classify(params(gamma=2.3, h_comp=1.7, k=0.9, d1=1.4, d2=0.31))
        assert rep.a + rep.b + rep.c == pytest.approx(-0.31, abs=1e-14)

    @given(positive, positive, positive, positive, positive)
    @settings(max_examples=300, deadline=None)
    def test_verdicts_agree(self, gamma, h, k, d1, d2):
        p = params(d1=d1, d2=d2, k=k, h_comp=h, gamma=gamma)
        rep = theta_classify(p)
        ulp = 4 * np.spacing(max(abs(rep.a), abs(rep.b), abs(rep.c), d2))
        assert abs(rep.a + rep.b + rep.c + d2) <= ulp
        if p.d1_tilde > 0:
            assert rep.verdict_roots == rep.verdict_closed_form
            if rep.sufficient_condition_hit is not None:
                assert rep.verdict_roots == THETA1

    def test_closed_form_inapplicable_at_a_zero(self):
        # h_comp*k rounds to 1, so a = 0, and c = -d1_tilde*gamma*h_comp
        # underflows to -0.0: the criterion's quotients are undefined
        rep = theta_classify(params(d1=0.2500000000000002, k=0.75, h_comp=1.3333333333333333,
                                    gamma=1e-310))
        assert rep.a == 0.0 and rep.c == 0.0 and rep.d1_tilde > 0.0
        assert rep.verdict_closed_form == INAPPLICABLE
        # a = 0 > c fails the criterion's first clause without a quotient
        rep = theta_classify(params(d1=0.5, k=2.0, h_comp=0.5))
        assert rep.a == 0.0 > rep.c
        assert rep.verdict_closed_form == rep.verdict_roots == THETA1

    @given(d1=extreme, d2=extreme, k=extreme, h_comp=extreme, gamma=extreme,
           h_is_1_over_k=st.booleans(), d1_above_1_minus_k=st.sampled_from([None, 0.0, 2e-16]))
    @example(d1=0.2500000000000002, d2=1.0, k=0.75, h_comp=1.3333333333333333, gamma=1e-310,
             h_is_1_over_k=False, d1_above_1_minus_k=None)
    @settings(max_examples=500, deadline=None)
    def test_records_at_extreme_magnitudes(self, d1, d2, k, h_comp, gamma, h_is_1_over_k,
                                           d1_above_1_minus_k):
        # Every tuple that general() accepts gets its pre-run records: the
        # theta record, its JSON text and the competition case.
        if h_is_1_over_k:
            h_comp = 1.0 / k
        if d1_above_1_minus_k is not None:
            d1 = 1.0 - k + d1_above_1_minus_k
        p = params(d1=d1, d2=d2, k=k, h_comp=h_comp, gamma=gamma)
        try:
            p.general()
        except NonPositiveParameter:
            return
        report_text(theta_classify(p).to_record())
        equilibria_and_class(p)


class TestXStar:
    def test_worked_value(self):
        rep = theta_classify(params(gamma=1.0, h_comp=2.0, k=2.0, d1=0.1, d2=0.05))
        assert rep.x_star == pytest.approx(0.8, abs=1e-9)
        assert plateau_value(rep) == pytest.approx(2.0 * 0.8 - 1.1, abs=1e-9)

    def test_guard(self):
        rep = theta_classify(params())  # weak competition, theta1
        assert rep.verdict_roots == THETA1 and rep.x_star is None
        assert plateau_value(rep) is None

    def test_nonpositive_plateau_level(self):
        # d1 = 1 - k: d1_tilde = 0 puts a root of F at 0, so the plateau
        # level k*x_star - d1_tilde is 0
        rep = theta_classify(params(d1=0.5, k=0.5))
        assert rep.verdict_roots == THETA2 and rep.d1_tilde == 0.0
        assert rep.x_star == 0.0
        assert plateau_value(rep) is None

    def test_double_root_returned_once(self):
        # Same a, c as the worked tuple; d2 tuned so b^2 = 4ac exactly.
        d2 = 5.2 - 2.0 * math.sqrt(6.6)
        p = params(gamma=1.0, h_comp=2.0, k=2.0, d1=0.1, d2=d2)
        rep = theta_classify(p)
        assert len(rep.roots_in_unit_interval) == 1
        assert rep.x_star == pytest.approx(math.sqrt(2.2 / 3.0), abs=1e-7)
        a, b, c = f_coefficients(p)
        s = rep.x_star
        assert (a * s + b) * s + c == pytest.approx(0.0, abs=1e-9)


class TestAttractorBounds:
    def test_weak_limits(self):
        it = attractor_bounds(0.5, 0.5, 50)
        assert it.outcome == "coexistence_limits"
        assert it.limits == pytest.approx((2.0 / 3.0, 2.0 / 3.0))
        assert it.lower_u[-1] == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert it.upper_v[-1] == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_first_bound(self):
        it = attractor_bounds(0.5, 0.5, 1)
        assert it.lower_u[0] == pytest.approx(0.5)

    def test_u_dominance(self):
        it = attractor_bounds(0.5, 2.0, 50)
        assert it.outcome == "u_dominance"
        assert it.dominance_step == 1

    def test_assumption_guard(self):
        with pytest.raises(AssumptionViolated):
            attractor_bounds(1.5, 0.5, 10)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_while_running(self, k, h):
        it = attractor_bounds(k, h, 40)
        assert np.all(np.diff(it.lower_u) >= -1e-15)
        assert np.all(np.diff(it.upper_v) <= 1e-15)
        if it.outcome == "coexistence_limits":
            assert h * it.lower_u[-1] < 1.0 + 1e-12
