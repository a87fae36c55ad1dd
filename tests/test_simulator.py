import math
import re
import signal

import numpy as np
import pytest
from dataclasses import replace
from types import SimpleNamespace
from hypothesis import given, settings
from hypothesis import strategies as st

from nlinvade.dynamics import GeneralParams, ModelParams
from nlinvade.errors import (
    GridTooLarge,
    InvalidInitialU,
    InvalidInitialV,
    NonPositiveParameter,
    StabilityViolated,
    WindowTooSmall,
)
from nlinvade.kernels import (
    DIRECT_MAX_TAPS,
    KernelSpec,
    ValidatedKernel,
    cell_weights,
    grid_convolve,
    grid_stencil,
    validate_kernel,
)
from nlinvade import simulator
from nlinvade.simulator import (
    EXPAND_MARGIN,
    FIELD_CAP,
    GROSS_CLAMP,
    Profile,
    SimState,
    _covered_u,
    _flush,
    _inside,
    front_speeds,
    init_state,
    integrate_u,
    run,
    stability_bound,
    step,
    v_deviation,
    window_leakage,
)

from model_support import reduce_general

UNI = validate_kernel(KernelSpec.uniform(1.0), 0.05)


def params(d1=1.0, d2=1.0, k=0.5, h_comp=0.5, gamma=1.0, mu=1.0, h0=1.0):
    return ModelParams(d1=d1, d2=d2, k=k, h_comp=h_comp, gamma=gamma, mu=mu, h0=h0)


def make_state(p=None, dx=0.05, pad=3.0, u_max=1.0, v_value=1.0):
    p = p or params()
    return init_state(
        p, UNI, UNI, Profile.cosine(u_max), Profile.constant(v_value), dx, pad
    )


class TestInit:
    def test_cosine_bump(self):
        s = make_state()
        assert s.g_front == -1.0
        assert s.h_front == 1.0
        i_zero = int(np.argmin(np.abs(s.x)))
        assert s.x[i_zero] == pytest.approx(0.0, abs=1e-12)
        assert s.u[i_zero] == pytest.approx(1.0, abs=1e-12)
        assert np.all(s.u[np.abs(s.x) >= 1.0] == 0.0)
        assert np.all(s.v == 1.0)

    def test_window_contains_padded_fronts(self):
        s = make_state(pad=3.0)
        assert s.x_min <= -1.0 - 2.0 * UNI.support_radius
        assert s.x_max >= 1.0 + 2.0 * UNI.support_radius

    def test_negative_u_table_rejected(self):
        xs = np.linspace(-1.0, 1.0, 41)
        tab = np.column_stack([xs, np.cos(0.5 * np.pi * xs)])
        tab[20, 1] = -0.5
        with pytest.raises(InvalidInitialU):
            init_state(params(), UNI, UNI, Profile.from_table(tab), Profile.constant(1.0), 0.05, 3.0)

    def test_u_support_violation_rejected(self):
        xs = np.linspace(-2.0, 2.0, 81)
        tab = np.column_stack([xs, np.full_like(xs, 0.3)])  # positive beyond |x| = h0
        with pytest.raises(InvalidInitialU):
            init_state(params(), UNI, UNI, Profile.from_table(tab), Profile.constant(1.0), 0.05, 3.0)

    def test_negative_v_rejected(self):
        with pytest.raises(InvalidInitialV):
            init_state(params(), UNI, UNI, Profile.cosine(1.0), Profile.constant(-0.1), 0.05, 3.0)


def speeds(s):
    """`front_speeds` of s, with the covered u of the nodes inside (g, h)."""
    ia, ib = _inside(s, s.g_front, s.h_front)
    return front_speeds(s, _covered_u(s, ia, ib, ia, ib), ia, ia, ib)


class TestFrontSpeeds:
    def test_zero_invader(self):
        s = make_state()
        s = replace(s, u=np.zeros_like(s.u))
        assert speeds(s) == (0.0, 0.0)

    def test_flat_invader_quarter_mass(self):
        # h0 off the node lattice so the flat discrete field fills the whole
        # front interval (a front exactly on a node forces u = 0 there).
        mu = 2.0
        p = params(mu=mu, h0=1.505)
        s = make_state(p, dx=0.01)
        flat = np.where((s.x > s.g_front) & (s.x < s.h_front), 1.0, 0.0)
        s = replace(s, u=flat)
        g_rate, h_rate = speeds(s)
        assert h_rate == pytest.approx(mu / 4.0, abs=1e-4)
        assert g_rate == pytest.approx(-mu / 4.0, abs=1e-4)

    def test_mu_zero(self):
        s = make_state(params(mu=0.0))
        assert speeds(s) == (0.0, 0.0)

    def test_signs(self):
        s = make_state()
        g_rate, h_rate = speeds(s)
        assert h_rate >= 0.0
        assert g_rate <= 0.0

    @given(st.floats(min_value=1e-3, max_value=50.0), st.floats(min_value=1.0, max_value=8.0))
    @settings(max_examples=30, deadline=None)
    def test_linear_in_mu(self, mu, factor):
        base = make_state(params(mu=mu))
        scaled = make_state(params(mu=mu * factor))
        scaled = replace(scaled, u=base.u.copy(), v=base.v.copy())
        g1, h1 = speeds(base)
        g2, h2 = speeds(scaled)
        assert h2 == pytest.approx(factor * h1, rel=1e-12)
        assert g2 == pytest.approx(factor * g1, rel=1e-12)


class TestStep:
    def test_flat_equilibrium(self):
        s = make_state(u_max=1.0)
        s = replace(s, u=np.zeros_like(s.u))
        out = step(s, 0.01)
        assert np.all(out.u == 0.0)
        assert np.max(np.abs(out.v - 1.0)) < 1e-14
        assert out.g_front == s.g_front
        assert out.h_front == s.h_front

    def test_logistic_euler_oracle(self):
        s = make_state(v_value=0.5)
        s = replace(s, u=np.zeros_like(s.u))
        dt = 0.01
        out = step(s, dt)
        assert np.max(np.abs(out.v - (0.5 + dt * 0.25))) < 1e-13

    def test_single_node_hand_quadrature(self):
        p = params(d1=1.0, k=0.5, mu=0.5, h0=1.0)
        s = make_state(p, dx=0.1)
        u = np.zeros_like(s.u)
        i_zero = int(np.argmin(np.abs(s.x)))
        u[i_zero] = 0.5
        s = replace(s, u=u, v=np.zeros_like(s.v))
        dt = 0.002
        out = step(s, dt)
        rate = (out.u[i_zero] - 0.5) / dt
        assert rate == pytest.approx(1.0 * (0.5 * 0.5 * 0.1 - 0.5) + 0.5 * (1 - 0.5), rel=1e-12)

    def test_support_discipline_and_monotone_fronts(self):
        s = make_state(params(mu=5.0, h0=1.0))
        for _ in range(50):
            nxt = step(s, 0.01)
            assert nxt.g_front <= s.g_front
            assert nxt.h_front >= s.h_front
            outside = (nxt.x <= nxt.g_front) | (nxt.x >= nxt.h_front)
            assert np.all(nxt.u[outside] == 0.0)
            assert np.all(nxt.u >= 0.0)
            assert np.all(nxt.v >= 0.0)
            s = nxt

    def test_stability_violated(self):
        with pytest.raises(StabilityViolated):
            s = make_state()
            for _ in range(100):
                s = step(s, 5.0)


def reaction_coefficients(c):
    """(u-reaction, v-reaction, D1, D2, front mu) of a general-form record."""
    return (c.a1, c.b1, c.c1), (c.a2, c.b2, c.c2), c.D1, c.D2, c.mu_hat


def whole_window_step(s, dt):
    """Reference step on the whole window: (g, h, u, v, gross clamps),
    before any window growth."""
    (a1, b1, c1), (a2, b2, c2), D1, D2, mu = reaction_coefficients(s.coef)
    x, dx, u, v, g, h = s.x, s.dx, s.u, s.v, s.g_front, s.h_front
    w = cell_weights(x, dx, g, h)
    g_new = g - dt * mu * float(np.dot(w * u, s.j1.cdf(g - x)))
    h_new = h + dt * mu * float(np.dot(w * u, s.j1.cdf(x - h)))
    st1, st2 = s.st1, s.st2
    conv_u = np.convolve(u * (w / dx), st1.masses, mode="full")[st1.half : st1.half + u.size]
    v_ext = np.concatenate([np.full(st2.half, v[0]), v, np.full(st2.half, v[-1])])
    conv_v = np.convolve(v_ext, st2.masses, mode="valid")
    u_new = u + dt * (D1 * (conv_u - u) + u * (a1 - b1 * u - c1 * v))
    v_new = v + dt * (D2 * (conv_v - v) + v * (a2 - b2 * v - c2 * u))
    u_new = np.where((x > g_new) & (x < h_new), u_new, 0.0)
    clamps = 0
    for field in (u_new, v_new):
        clamps += int(np.count_nonzero(field < GROSS_CLAMP))
        field[field < 0.0] = 0.0
    return g_new, h_new, u_new, v_new, clamps


def assert_matches_reference(s, dt):
    g, h, u, v, clamps = whole_window_step(s, dt)
    out = step(s, dt)
    assert out.g_front == pytest.approx(g, rel=1e-13, abs=0.0)
    assert out.h_front == pytest.approx(h, rel=1e-13, abs=0.0)
    assert out.clamp_count - s.clamp_count == clamps
    # window growth only prepends or appends: compare on the old window
    off = s.i0 - out.i0
    n = s.u.size
    for new, ref in ((out.u, u), (out.v, v)):
        assert np.max(np.abs(new[off : off + n] - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)
    assert np.all(out.u[:off] == 0.0) and np.all(out.u[off + n :] == 0.0)
    return out


def bump_between(s, g, h):
    """s with fronts (g, h) and a cosine bump of u between them."""
    mid, half = 0.5 * (g + h), 0.5 * (h - g)
    u = np.where((s.x > g) & (s.x < h), np.cos(0.5 * np.pi * (s.x - mid) / half), 0.0)
    return replace(s, u=u, g_front=g, h_front=h)


TABLE = np.column_stack([np.linspace(-1.0, 1.0, 41), 1.0 - np.abs(np.linspace(-1.0, 1.0, 41))])
BAND_KERNELS = {
    "uniform": KernelSpec.uniform(1.0),
    "triangular": KernelSpec.triangular(1.5),
    "gaussian": KernelSpec.truncated_gaussian(1.0, 2.0),
    "tabulated": KernelSpec.tabulated(TABLE),
}


class TestBandedStep:
    """The banded step against a whole-window reference step."""

    @pytest.mark.parametrize("form", sorted(BAND_KERNELS))
    def test_kernels_over_a_run(self, form):
        k = validate_kernel(BAND_KERNELS[form], 0.05)
        s = init_state(params(mu=5.0, h0=1.0), k, k, Profile.cosine(1.0), Profile.constant(1.0), 0.05, 3.0)
        for _ in range(40):
            s = assert_matches_reference(s, 0.02)

    def test_wide_uniform_window(self):
        # 2 881 nodes, the window the spreading benchmark run reaches: both
        # convolutions take the prefix-sum path of the flat uniform stencil.
        k = validate_kernel(KernelSpec.uniform(1.0), 0.025)
        s = init_state(params(mu=5.0, h0=3.0), k, k, Profile.cosine(1.0), Profile.constant(1.0), 0.025, 33.0)
        assert s.u.size == 2881 and s.st1.box is not None and s.st2.box is not None
        for _ in range(40):
            s = assert_matches_reference(s, 0.02)

    def test_short_interval(self):
        s = make_state(params(mu=2.0, h0=0.4), dx=0.05)
        assert s.h_front - s.g_front < 2.0 * UNI.support_radius
        for _ in range(20):
            s = assert_matches_reference(s, 0.02)

    def test_front_one_stencil_from_edges(self):
        s = make_state(params(mu=5.0), dx=0.05)
        reach = s.st1.half * s.dx
        s = bump_between(s, s.x_min + reach + 0.3 * s.dx, s.x_max - reach - 0.3 * s.dx)
        out = assert_matches_reference(s, 0.02)
        assert out.window_growths == s.window_growths + 1

    def test_front_past_the_window_edge(self):
        s = make_state(params(mu=5.0), dx=0.05)
        s = bump_between(s, s.x_min + 0.5 * s.dx, s.x_max - 0.2 * s.dx)
        assert_matches_reference(s, 0.02)

    def test_clamps_counted_alike(self):
        s = make_state(params(mu=5.0), dx=0.05)
        for _ in range(3):
            s = assert_matches_reference(s, 1.5)
        assert s.clamp_count > 0

    def test_general_params(self):
        gp = GeneralParams(D1=2.0, D2=1.5, a1=2.0, b1=0.5, c1=0.5, a2=1.0, b2=1.2,
                           c2=0.4, mu_hat=3.0, H0=0.8)
        tri = validate_kernel(BAND_KERNELS["triangular"], 0.05)
        s = init_state(gp, tri, UNI, Profile.cosine(1.0), Profile.constant(0.9), 0.05, 3.0)
        for _ in range(30):
            s = assert_matches_reference(s, 0.01)


# -- bitwise oracle: the step as it was before its numpy calls were cut ------

def reference_covered_u(state, lo, hi, ia, ib):
    dx, g, h = state.dx, state.g_front, state.h_front
    wu = state.u[lo:hi].copy()
    for j in {ia, ib - 1} if ia < ib else ():
        x = float(state.x[j])
        wu[j - lo] *= max(min(x + 0.5 * dx, h) - max(x - 0.5 * dx, g), 0.0) / dx
    return wu


def reference_flush(field, t):
    top = field.max(initial=0.0)
    bottom = field.min(initial=0.0)
    if not (top <= FIELD_CAP and bottom > -np.inf):
        raise StabilityViolated(f"field left [{GROSS_CLAMP}, {FIELD_CAP}] at t={t}")
    if bottom >= 0.0:
        return 0
    gross = int(np.count_nonzero(field < GROSS_CLAMP))
    np.copyto(field, 0.0, where=field < 0.0)
    return gross


def reference_ensure_window(state):
    margin = EXPAND_MARGIN * max(state.j1.support_radius, state.j2.support_radius)
    grow_left = state.g_front - state.x_min < margin
    grow_right = state.x_max - state.h_front < margin
    if not (grow_left or grow_right):
        return state
    n = state.u.size
    chunk = max(n // 2, 4 * max(state.st1.half, state.st2.half), 8)
    u, v, i0 = state.u, state.v, state.i0
    if grow_left:
        u = np.concatenate([np.zeros(chunk), u])
        v = np.concatenate([np.full(chunk, v[0]), v])
        i0 -= chunk
    if grow_right:
        u = np.concatenate([u, np.zeros(chunk)])
        v = np.concatenate([v, np.full(chunk, v[-1])])
    x = (i0 + np.arange(u.size)) * state.dx
    return replace(state, u=u, v=v, x=x, i0=i0, window_growths=state.window_growths + 1)


def reference_step(state, dt):
    """`step` before its per-step numpy calls were cut, with the helpers of
    that version."""
    if dt <= 0 or not np.isfinite(dt):
        raise ValueError("dt must be positive")
    c = state.coef
    u, v = state.u, state.v
    n = u.size

    ia, ib = _inside(state, state.g_front, state.h_front)
    lo, hi = max(ia - state.st1.half, 0), min(ib + state.st1.half, n)
    wu = reference_covered_u(state, lo, hi, ia, ib)
    g_rate, h_rate = front_speeds(state, wu, lo, ia, ib)
    g_new = state.g_front + dt * g_rate
    h_new = state.h_front + dt * h_rate

    conv_v = grid_convolve(v, state.st2, edge=True)
    v_new = v * (-dt * c.b2)
    v_new += 1.0 + dt * (c.a2 - c.D2)
    v_new[ia:ib] -= (dt * c.c2) * u[ia:ib]
    v_new *= v
    conv_v *= dt * c.D2
    v_new += conv_v

    conv_u = grid_convolve(wu, state.st1)
    a, b = _inside(state, g_new, h_new)
    a, b = max(a, lo), min(b, hi)
    u_new = np.zeros(n)
    ub, out = u[a:b], u_new[a:b]
    np.multiply(ub, -dt * c.b1, out=out)
    out += 1.0 + dt * (c.a1 - c.D1)
    out -= (dt * c.c1) * v[a:b]
    out *= ub
    out += (dt * c.D1) * conv_u[a - lo : b - lo]

    t_new = state.t + dt
    clamps = state.clamp_count + reference_flush(out, t_new) + reference_flush(v_new, t_new)
    return reference_ensure_window(
        replace(state, t=t_new, g_front=g_new, h_front=h_new, u=u_new, v=v_new, clamp_count=clamps)
    )


STATE_SCALARS = ("t", "g_front", "h_front", "i0", "clamp_count", "window_growths")


def assert_same_state(got, want):
    for name in ("u", "v", "x"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in STATE_SCALARS:
        assert getattr(got, name) == getattr(want, name), name


def assert_steps_match_reference(s, dts):
    for dt in dts:
        want = reference_step(s, dt)
        got = step(s, dt)
        assert_same_state(got, want)
        s = got
    return s


def fronts_between(s, g, h):
    """s with fronts (g, h) and no invader."""
    return replace(s, u=np.zeros_like(s.u), g_front=g, h_front=h)


def oracle_params(mu=5.0):
    """Coefficients that are not powers of two, so that a changed order of
    operations changes the rounding."""
    return params(d1=1.3, d2=0.7, k=0.45, h_comp=0.6, gamma=1.1, mu=mu)


def oracle_state(mu=5.0, pad=3.0, k=UNI):
    return init_state(oracle_params(mu), k, k, Profile.cosine(0.9), Profile.constant(0.95), 0.05, pad)


class TestStepOracle:
    """`step` against `reference_step`, bit for bit."""

    @pytest.mark.parametrize("form", sorted(BAND_KERNELS))
    def test_kernel_forms(self, form):
        k = validate_kernel(BAND_KERNELS[form], 0.05)
        assert_steps_match_reference(oracle_state(k=k), [0.02] * 40)

    def test_general_params(self):
        gp = GeneralParams(D1=1.7, D2=1.3, a1=1.9, b1=0.6, c1=0.45, a2=1.1, b2=1.2,
                           c2=0.35, mu_hat=3.0, H0=0.8)
        gauss = validate_kernel(BAND_KERNELS["gaussian"], 0.05)
        s = init_state(gp, gauss, UNI, Profile.cosine(1.0), Profile.constant(0.9), 0.05, 3.0)
        assert_steps_match_reference(s, [0.01] * 40)

    def test_window_growth(self):
        s = oracle_state(mu=20.0, pad=2.1)
        s = assert_steps_match_reference(s, [0.005] * 60)
        assert s.window_growths > 0

    def test_clamps(self):
        s = oracle_state()
        s = assert_steps_match_reference(s, [1.5] * 3 + [0.02] * 40)
        assert s.clamp_count > 0

    def test_no_node_inside(self):
        s = oracle_state(mu=2.0)
        s = fronts_between(s, s.x[40] + 0.2 * s.dx, s.x[40] + 0.7 * s.dx)
        out = assert_steps_match_reference(s, [0.02] * 40)
        assert (out.g_front, out.h_front) == (s.g_front, s.h_front) and not out.u.any()

    def test_one_node_inside(self):
        s = oracle_state(mu=2.0)
        s = bump_between(s, s.x[40] - 0.3 * s.dx, s.x[40] + 0.4 * s.dx)
        assert _inside(s, s.g_front, s.h_front) == (40, 41) and s.u[40] > 0.0
        assert_steps_match_reference(s, [0.02] * 40)

    def test_empty_new_band(self):
        # fronts on two neighbouring nodes: the band around them is not
        # empty, but no node lies strictly inside the new interval
        s = oracle_state(mu=2.0)
        s = fronts_between(s, s.x[40], s.x[41])
        ia, ib = _inside(s, s.g_front, s.h_front)
        assert ia == ib == 41
        assert_steps_match_reference(s, [0.02] * 40)

    def test_front_past_the_window_edge(self):
        s = oracle_state()
        s = bump_between(s, s.x_min + 0.5 * s.dx, s.x_max - 0.2 * s.dx)
        assert_steps_match_reference(s, [0.02] * 40)

    def test_mu_zero(self):
        s = assert_steps_match_reference(oracle_state(mu=0.0), [0.02] * 40)
        assert (s.g_front, s.h_front) == (-1.0, 1.0)

    def test_alternating_dts(self):
        # each step takes the other dt than the step before, then a partial
        # step, so no step may use the factors of the dt before
        assert_steps_match_reference(oracle_state(), [0.02, 0.013] * 20 + [0.0041])

    def test_one_state_stepped_at_two_dts(self):
        # s carries the factors of dt = 0.02, and is stepped at 0.013 too
        s = assert_steps_match_reference(oracle_state(), [0.02] * 5)
        for dt in (0.013, 0.02, 0.013):
            assert_same_state(step(s, dt), reference_step(s, dt))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("edge", [False, True], ids=["u", "v"])
    def test_one_field_blown_up_raises(self, monkeypatch, bad, edge):
        """A NaN or +inf in the new u band alone, or in the new v alone,
        raises with the message of the reference's flush."""
        def poisoned(values, stencil, edge=False, _edge=edge):
            out = grid_convolve(values, stencil, edge=edge)
            if edge == _edge:
                out[out.size // 2] = bad
            return out

        s = oracle_state()
        monkeypatch.setattr(simulator, "grid_convolve", poisoned)
        message = f"field left [{GROSS_CLAMP}, {FIELD_CAP}] at t=0.02"
        with pytest.raises(StabilityViolated, match=re.escape(message)):
            step(s, 0.02)

    def test_clamps_split_across_both_fields(self, monkeypatch):
        """A step whose gross undershoots fall in both fields counts the sum
        of the reference's two per-field counts."""
        counts, flush = [], reference_flush

        def counting_flush(field, t):
            counts.append(flush(field, t))
            return counts[-1]

        monkeypatch.setitem(globals(), "reference_flush", counting_flush)
        s = oracle_state()
        want = reference_step(s, 2.0)
        got = step(s, 2.0)
        assert_same_state(got, want)
        assert len(counts) == 2 and min(counts) > 0
        assert got.clamp_count - s.clamp_count == sum(counts)


class TestStateRecord:
    def test_step_leaves_its_input_unchanged(self):
        s = make_state(params(mu=20.0), dx=0.05, pad=2.1)
        for _ in range(40):
            arrays = {name: getattr(s, name).copy() for name in ("u", "v", "x")}
            scalars = {name: getattr(s, name) for name in STATE_SCALARS}
            first = step(s, 0.02)
            for name, a in arrays.items():
                assert getattr(s, name).tobytes() == a.tobytes(), name
            for name, value in scalars.items():
                assert getattr(s, name) == value, name
            assert_same_state(step(s, 0.02), first)
            s = first
        assert s.window_growths > 0

    def test_replace_and_slots(self):
        s = make_state()
        moved = replace(s, h_front=2.0)
        assert moved.h_front == 2.0 and s.h_front == 1.0 and moved.u is s.u
        assert not hasattr(s, "__dict__") and "t" in SimState.__slots__


class TestFlush:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.nextafter(FIELD_CAP, np.inf)])
    def test_blown_up_field_raises(self, bad):
        field = np.linspace(0.0, 1.0, 7)
        field[3] = bad
        with pytest.raises(StabilityViolated):
            _flush(field, 1.0)

    def test_cap_itself_passes(self):
        assert _flush(np.array([0.0, FIELD_CAP]), 1.0) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_gross_count_and_zeroing(self, seed):
        rng = np.random.default_rng(seed)
        field = rng.choice([-1e-3, -1e-12, -2e-12, -1e-15, -0.0, 0.0, 0.5, 2.0], size=50)
        want = field.copy()
        assert _flush(field, 1.0) == reference_flush(want, 1.0)
        assert field.tobytes() == want.tobytes()


def whole_band_flux(s):
    """(g_rate, h_rate) summed over the whole window with `cell_weights`."""
    mu = reaction_coefficients(s.coef)[4]
    wu = cell_weights(s.x, s.dx, s.g_front, s.h_front) * s.u
    return (-mu * float(np.dot(wu, s.j1.cdf(s.g_front - s.x))),
            mu * float(np.dot(wu, s.j1.cdf(s.x - s.h_front))))


def assert_flux_matches(s):
    for got, ref in zip(speeds(s), whole_band_flux(s)):
        assert ref != 0.0
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


class TestTailFlux:
    """The flux summed over each front's tail against the whole-window sum."""

    @pytest.mark.parametrize("form", sorted(BAND_KERNELS))
    def test_kernels_over_a_run(self, form):
        k = validate_kernel(BAND_KERNELS[form], 0.05)
        s = init_state(params(mu=5.0, h0=1.7), k, k, Profile.cosine(1.0), Profile.constant(1.0), 0.05, 3.0)
        for _ in range(20):
            assert_flux_matches(s)
            s = step(s, 0.02)

    @pytest.mark.parametrize("form", sorted(BAND_KERNELS))
    def test_interval_shorter_than_the_kernel(self, form):
        k = validate_kernel(BAND_KERNELS[form], 0.05)
        s = init_state(params(mu=2.0, h0=0.3), k, k, Profile.cosine(1.0), Profile.constant(1.0), 0.05, 3.0)
        assert s.h_front - s.g_front < k.support_radius
        assert_flux_matches(s)

    @pytest.mark.parametrize("form", sorted(BAND_KERNELS))
    def test_fronts_on_nodes(self, form):
        k = validate_kernel(BAND_KERNELS[form], 0.05)
        s = init_state(params(mu=2.0), k, k, Profile.cosine(1.0), Profile.constant(1.0), 0.05, 3.0)
        s = bump_between(s, s.x[10], s.x[-25])
        assert s.u[10] == 0.0 and s.u[11] > 0.0
        assert_flux_matches(s)

    @pytest.mark.parametrize("form", sorted(BAND_KERNELS))
    def test_fronts_one_stencil_from_edges(self, form):
        k = validate_kernel(BAND_KERNELS[form], 0.05)
        s = init_state(params(mu=2.0), k, k, Profile.cosine(1.0), Profile.constant(1.0), 0.05, 3.0)
        reach = s.st1.half * s.dx
        for off in (0.3 * s.dx, reach + 0.3 * s.dx):
            assert_flux_matches(bump_between(s, s.x_min + off, s.x_max - off))

    @pytest.mark.parametrize("form", sorted(BAND_KERNELS))
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_tails_overlap_touch_and_part(self, form, extra):
        """2*reach - 1, 2*reach and 2*reach + 1 inside nodes: the h tail
        [ib - reach, ib) and the g tail [ia, ia + reach) overlap by one node,
        touch, and leave one node between them."""
        k = validate_kernel(BAND_KERNELS[form], 0.05)
        s = init_state(params(mu=2.0), k, k, Profile.cosine(1.0), Profile.constant(1.0), 0.05, 3.0)
        reach = math.ceil(k.support_radius / s.dx) + 2
        span = 2 * reach + extra
        j = (s.u.size - span) // 2
        s = bump_between(s, s.x[j] - 0.3 * s.dx, s.x[j + span - 1] + 0.4 * s.dx)
        ia, ib = _inside(s, s.g_front, s.h_front)
        assert (ia, ib - ia) == (j, span)
        assert_flux_matches(s)

    def test_no_node_inside(self):
        s = make_state(params(mu=2.0))
        s = bump_between(s, s.x[40] + 0.2 * s.dx, s.x[40] + 0.7 * s.dx)
        ia, ib = _inside(s, s.g_front, s.h_front)
        assert ia == ib and not s.u.any()
        g_rate, h_rate = speeds(s)
        assert g_rate == 0.0 and h_rate == 0.0

    @pytest.mark.parametrize("form", sorted(BAND_KERNELS))
    def test_one_cdf_call_per_step(self, form):
        k = validate_kernel(BAND_KERNELS[form], 0.05)
        calls = []

        def counted(offsets):
            calls.append(np.size(offsets))
            return k.cdf(offsets)

        s = init_state(params(mu=5.0), replace(k, cdf=counted), k, Profile.cosine(1.0),
                       Profile.constant(1.0), 0.05, 3.0)
        for _ in range(5):
            s = step(s, 0.02)
        assert len(calls) == 5 and min(calls) > 0

    def test_step_calls_front_speeds(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return front_speeds(*args)

        monkeypatch.setattr(simulator, "front_speeds", counted)
        s = make_state(params(mu=5.0))
        for n in range(1, 6):
            s = step(s, 0.02)
            assert len(calls) == n


DX_CHOICES = [0.1, 0.05, 0.025, 0.001, 1.0 / 3.0]
node_position = st.tuples(
    st.integers(min_value=-260, max_value=260),
    st.sampled_from(["on", "above", "below", "between"]),
    st.floats(min_value=0.01, max_value=0.99),
)


def position(dx, k, kind, frac):
    x = k * dx
    if kind == "above":
        return float(np.nextafter(x, np.inf))
    if kind == "below":
        return float(np.nextafter(x, -np.inf))
    if kind == "between":
        return (k + frac) * dx
    return x


class TestInsideRange:
    @given(
        st.sampled_from(DX_CHOICES),
        st.integers(min_value=-200, max_value=0),
        st.integers(min_value=1, max_value=300),
        node_position,
        node_position,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_nonzero(self, dx, i0, n, pa, pb):
        """Fronts on, next to and between nodes, inside or outside the window."""
        a, b = position(dx, *pa), position(dx, *pb)
        x = (i0 + np.arange(n)) * dx
        ia, ib = _inside(SimpleNamespace(x_list=x.tolist()), a, b)
        assert 0 <= ia <= ib <= n
        assert list(range(ia, ib)) == list(np.nonzero((x > a) & (x < b))[0])


def asymmetric_stencil(half):
    """A stencil of 2 * half + 1 taps whose masses are not symmetric, from a
    tabulated density that rises from left to right."""
    table = np.array([[-1.0, 0.5], [0.0, 1.0], [1.0, 1.7]])
    kernel = ValidatedKernel(
        form="tabulated", support_radius=1.0,
        evaluate=lambda x: np.interp(np.asarray(x, dtype=float), table[:, 0], table[:, 1],
                                     left=0.0, right=0.0),
        cdf=None,
    )
    st_ = grid_stencil(kernel, 1.0 / (half + 0.5))
    assert st_.half == half and st_.box is None
    assert not np.array_equal(st_.masses, st_.masses[::-1])
    return st_


class TestGridConvolve:
    @pytest.mark.parametrize("edge", [False, True])
    @pytest.mark.parametrize("n", [6, 7, 8, 300])
    def test_direct_path_bytes_of_np_convolve(self, n, edge):
        """The direct path's correlate call against the np.convolve call it
        replaces, on a 7-tap asymmetric stencil and fields shorter than,
        as long as and longer than the stencil."""
        st_ = asymmetric_stencil(3)
        values = np.random.default_rng(n).random(n) + 0.5
        if edge:
            ext = np.concatenate([np.full(3, values[0]), values, np.full(3, values[-1])])
            want = np.convolve(ext, st_.masses, mode="valid")
        elif n < st_.masses.size:
            want = np.convolve(values, st_.masses, mode="full")[3 : 3 + n]
        else:
            want = np.convolve(values, st_.masses, mode="same")
        assert grid_convolve(values, st_, edge=edge).tobytes() == want.tobytes()

    # 7 and 491 taps convolve directly, 511 by FFT; 5 nodes is shorter
    # than every stencil, 700 longer.
    @pytest.mark.parametrize("half", [3, DIRECT_MAX_TAPS // 2 - 5, DIRECT_MAX_TAPS // 2 + 5])
    @pytest.mark.parametrize("n", [5, 700])
    def test_matches_np_convolve(self, half, n):
        k = validate_kernel(KernelSpec.triangular(1.0), 1.0 / half)
        st = grid_stencil(k, 1.0 / (half + 0.5))
        assert st.half == half
        values = np.random.default_rng(half + n).random(n)
        ref = np.convolve(values, st.masses, mode="full")[st.half : st.half + n]
        got = grid_convolve(values, st)
        assert got.shape == (n,)
        assert np.max(np.abs(got - ref)) <= 1e-12


class TestRun:
    def test_zero_horizon(self):
        s = make_state()
        res = run(s, 0.0, 0.01, 1.0)
        assert res.series.t.size == 1
        assert len(res.profiles) == 1

    def test_deterministic(self):
        res1 = run(make_state(), 1.0, 0.01, 0.2)
        res2 = run(make_state(), 1.0, 0.01, 0.2)
        assert np.array_equal(res1.series.h_front, res2.series.h_front)
        assert np.array_equal(res1.final_state.u, res2.final_state.u)
        assert np.array_equal(res1.final_state.v, res2.final_state.v)

    def test_step_global_takes_state_and_dt(self, monkeypatch):
        # The benchmark's node-step counter and tracer swap simulator.step for
        # a wrapper of this signature; run must call it once per step.
        dt, T = 1.0 / 64.0, 0.5  # exactly 32 steps
        ref = run(make_state(params(mu=5.0)), T, dt, 0.125, profile_every=0.25)
        calls = []

        def counting_step(state, dt, /):
            calls.append(state.t)
            return step(state, dt)

        monkeypatch.setattr(simulator, "step", counting_step)
        res = run(make_state(params(mu=5.0)), T, dt, 0.125, profile_every=0.25)
        assert calls == [k * dt for k in range(32)]
        for name in ("t", "g_front", "h_front", "mass_u", "sup_u", "v_dev_L", "sup_v"):
            assert np.array_equal(getattr(res.series, name), getattr(ref.series, name))
        assert len(res.profiles) == len(ref.profiles)
        for got, want in zip(res.profiles, ref.profiles):
            assert got[0] == want[0]
            assert all(np.array_equal(a, b) for a, b in zip(got[1:], want[1:]))
        for name in ("t", "g_front", "h_front", "i0", "clamp_count", "window_growths",
                     "steps", "node_steps"):
            assert getattr(res.final_state, name) == getattr(ref.final_state, name)
        for name in ("u", "v", "x"):
            assert np.array_equal(getattr(res.final_state, name), getattr(ref.final_state, name))

    def test_work_counters(self, monkeypatch):
        """``steps`` and ``node_steps`` count what a wrapper of `step` sees,
        also across window growths."""
        sizes = []

        def counting_step(state, dt, /):
            sizes.append(state.u.size)
            return step(state, dt)

        monkeypatch.setattr(simulator, "step", counting_step)
        s0 = make_state(params(mu=20.0), pad=2.1)
        assert (s0.steps, s0.node_steps) == (0, 0)
        final = run(s0, 0.4, 0.005, 0.1).final_state
        assert final.window_growths > 0 and len(set(sizes)) > 1
        assert (final.steps, final.node_steps) == (len(sizes), sum(sizes))

    def test_series_recorded(self):
        res = run(make_state(), 2.0, 0.01, 0.5)
        assert res.series.t[0] == 0.0
        assert res.series.t[-1] == pytest.approx(2.0, abs=1e-9)
        assert res.series.t.size >= 5
        assert np.all(np.diff(res.series.h_front) >= 0.0)
        assert np.all(np.diff(res.series.g_front) <= 0.0)

    def test_node_coordinates_kept_with_the_window(self):
        def assert_coordinates(s):
            assert s.x.tobytes() == ((s.i0 + np.arange(s.u.size)) * s.dx).tobytes()

        s = make_state(params(mu=20.0, h0=1.0), dx=0.05, pad=2.1)
        assert_coordinates(s)
        while s.window_growths < 3:
            s = step(s, 0.005)
            assert_coordinates(s)

    def test_window_grows_with_fronts(self):
        p = params(mu=20.0, h0=1.0)
        s = make_state(p, dx=0.05, pad=2.1)
        res = run(s, 6.0, 0.005, 1.0)
        fs = res.final_state
        margin = 2.0 * max(fs.j1.support_radius, fs.j2.support_radius)
        assert fs.x_min <= fs.g_front - margin
        assert fs.x_max >= fs.h_front + margin
        assert fs.window_growths > 0
        leak = window_leakage(fs)
        assert leak["front_mass_outside_left"] == 0.0
        assert leak["front_mass_outside_right"] == 0.0

    def test_first_order_front_convergence(self):
        s = lambda: make_state(params(mu=3.0), dx=0.05)
        h1 = run(s(), 2.0, 0.02, 0.5).final_state.h_front
        h2 = run(s(), 2.0, 0.01, 0.5).final_state.h_front
        h3 = run(s(), 2.0, 0.005, 0.5).final_state.h_front
        d12, d23 = abs(h1 - h2), abs(h2 - h3)
        assert d12 < 0.02  # small absolute drift
        assert d12 <= 3.0 * d23 + 1e-12  # consistent with first order

    # a negative cadence would never advance the next recording time, so run
    # would loop forever, and a NaN one fails every comparison
    @pytest.mark.parametrize("every", [0.0, -1.0, math.inf, math.nan])
    def test_snapshot_every_positive_and_finite(self, every):
        with pytest.raises(ValueError, match="snapshot_every"):
            run(make_state(), 0.1, 0.02, every)

    @pytest.mark.parametrize("every", [-1.0, math.inf, math.nan])
    def test_profile_every_none_zero_or_positive(self, every):
        with pytest.raises(ValueError, match="profile_every"):
            run(make_state(), 0.1, 0.02, 0.05, profile_every=every)
        for ok in (None, 0.0, 0.05):
            run(make_state(), 0.1, 0.02, 0.05, profile_every=ok)

    @pytest.mark.parametrize("every", [0.013, 0.005, 1e-300])
    def test_spacing_below_dt_records_each_step_once(self, every):
        # A step records at most once, so every spacing below dt gives the
        # run that a spacing of dt gives.  Below the float spacing of t the
        # next recording time would never pass t; the alarm turns such a
        # hang into a failure.
        ref = run(make_state(), 0.2, 0.02, 0.02, profile_every=0.02)

        def expire(signum, frame):
            raise TimeoutError("run did not end")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            res = run(make_state(), 0.2, 0.02, every, profile_every=every)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert res.series.t.size == 11
        for name in ("t", "g_front", "h_front", "mass_u", "sup_u", "v_dev_L", "sup_v"):
            assert np.array_equal(getattr(res.series, name), getattr(ref.series, name))
        assert len(res.profiles) == len(ref.profiles) == 11
        for got, want in zip(res.profiles, ref.profiles):
            assert got[0] == want[0]
            assert all(np.array_equal(a, b) for a, b in zip(got[1:], want[1:]))

    @pytest.mark.parametrize("dt", [1e-300, 1e-9])
    def test_step_count_over_the_grid_cap(self, dt):
        # T / dt steps over MAX_GRID_NODES are refused before the first step;
        # such a run would otherwise step until killed.  The alarm turns a
        # hang into a failure.
        def expire(signum, frame):
            raise TimeoutError("run did not end")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            with pytest.raises(GridTooLarge, match=re.escape(f"the time grid of a run to T = 20 at step {dt:g} ")):
                run(make_state(), 20.0, dt, 1.0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    # every entry point refuses a nonpositive or nonfinite spacing, pad,
    # step or horizon before it builds anything
    ARGUMENT_CHECKS = {
        "grid_stencil-dx": (lambda b: grid_stencil(UNI, b), (0.0, -0.05, math.inf),
                            "dx must be positive"),
        "validate_kernel-dx": (lambda b: validate_kernel(KernelSpec.uniform(1.0), b), (0.0, math.nan),
                               "grid_resolution must be positive"),
        "init_state-dx": (lambda b: make_state(dx=b), (0.0, math.inf), "dx must be positive"),
        "init_state-window_pad": (lambda b: make_state(pad=b), (-1.0, math.nan),
                                  "window_pad must be positive"),
        "step-dt": (lambda b: step(make_state(), b), (0.0, math.inf, math.nan), "dt must be positive"),
        "run-T": (lambda b: run(make_state(), b, 0.02, 0.5), (-1.0, math.inf, math.nan),
                  "T must be nonnegative and finite"),
    }

    @pytest.mark.parametrize("where, bad", [
        (where, bad) for where, (_, bads, _) in ARGUMENT_CHECKS.items() for bad in bads])
    def test_argument_checked(self, where, bad):
        call, _, message = self.ARGUMENT_CHECKS[where]
        with pytest.raises(ValueError, match=message):
            call(bad)

    @pytest.mark.parametrize("dt", [0.0, -0.02, math.nan])
    def test_dt_positive(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            run(make_state(), 1.0, dt, 0.5)

    def test_window_too_small_for_metrics(self):
        s = make_state()
        with pytest.raises(WindowTooSmall):
            run(s, 1.0, 0.01, 0.5, metrics_L=50.0)

    def test_metrics_values(self):
        s = make_state()
        assert integrate_u(s) == pytest.approx(4.0 / np.pi, abs=1e-3)
        assert v_deviation(s, 2.0) == 0.0

    def test_profile_cadence(self):
        res = run(make_state(), 2.0, 0.01, 0.25, profile_every=0.5)
        times = [t for t, *_ in res.profiles]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(2.0, abs=1e-9)
        assert len(times) >= 4

    def test_asymmetric_native_pressure(self):
        # A native sitting denser on the right suppresses the invader
        # there: the left front should outrun the right one.
        p = params(mu=3.0, k=0.8)
        table = np.array([[-50.0, 0.2], [0.0, 0.2], [0.001, 1.0], [50.0, 1.0]])
        s = init_state(p, UNI, UNI, Profile.cosine(1.0), Profile.from_table(table), 0.05, 3.0)
        res = run(s, 4.0, 0.01, 0.5)
        f = res.final_state
        assert -f.g_front > f.h_front
        assert np.all(np.diff(res.series.g_front) <= 0.0)
        assert np.all(np.diff(res.series.h_front) >= 0.0)
        outside = (f.x <= f.g_front) | (f.x >= f.h_front)
        assert np.all(f.u[outside] == 0.0)


class TestReduceGeneral:
    def test_identity(self):
        gp = GeneralParams(D1=1.0, D2=1.0, a1=1.0, b1=1.0, c1=0.5, a2=1.0, b2=1.0,
                           c2=0.7, mu_hat=2.0, H0=1.0)
        p, tr = reduce_general(gp)
        assert p.d1 == 1.0 and p.d2 == 1.0 and p.gamma == 1.0
        assert p.k == 0.5 and p.h_comp == 0.7 and p.mu == 2.0 and p.h0 == 1.0
        assert tr.u_scale == 1.0 and tr.v_scale == 1.0 and tr.time_scale == 1.0
        assert gp.general() is gp
        q = params(d1=0.4, d2=1.3, k=0.3, h_comp=1.7, gamma=1.0, mu=2.0, h0=0.6)
        assert reduce_general(q.general())[0] == q

    def test_time_dilation(self):
        gp = GeneralParams(D1=2.0, D2=2.0, a1=2.0, b1=1.0, c1=1.0, a2=2.0, b2=1.0,
                           c2=1.0, mu_hat=1.0, H0=1.0)
        p, tr = reduce_general(gp)
        assert p.d1 == 1.0
        assert tr.time_scale == 2.0

    def test_nonpositive_rejected(self):
        # Construction checks every coefficient; only mu_hat may be 0.
        gp = GeneralParams(D1=1.0, D2=1.0, a1=1.0, b1=1.0, c1=1.0, a2=1.0, b2=1.0,
                           c2=1.0, mu_hat=1.0, H0=1.0)
        for name in vars(gp):
            if name != "mu_hat":
                with pytest.raises(NonPositiveParameter):
                    replace(gp, **{name: 0.0})
        assert replace(gp, mu_hat=0.0).general().mu_hat == 0.0
        assert reduce_general(replace(gp, mu_hat=0.0))[0].mu == 0.0
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(NonPositiveParameter):
                replace(gp, mu_hat=bad)

    def test_dual_run_equivalence_short(self):
        gp = GeneralParams(D1=2.0, D2=2.0, a1=2.0, b1=0.5, c1=0.5, a2=1.0, b2=1.0,
                           c2=0.4, mu_hat=2.0, H0=1.0)
        p, tr = reduce_general(gp)
        dx = 0.05
        u_max_general = 1.0
        gen = init_state(gp, UNI, UNI, Profile.cosine(u_max_general),
                         Profile.constant(1.0), dx, 3.0)
        red = init_state(p, UNI, UNI, Profile.cosine(tr.u_scale * u_max_general),
                         Profile.constant(tr.v_scale * 1.0), dx, 3.0)
        T_general = 2.0
        dt_general = 0.005
        gen_res = run(gen, T_general, dt_general, 1.0)
        red_res = run(red, tr.time_scale * T_general, tr.time_scale * dt_general, tr.time_scale * 1.0)
        gf = gen_res.final_state
        rf = red_res.final_state
        assert gf.u.size == rf.u.size and gf.i0 == rf.i0
        assert np.max(np.abs(tr.u_scale * gf.u - rf.u)) < 5e-3
        assert np.max(np.abs(tr.v_scale * gf.v - rf.v)) < 5e-3
        assert abs(gf.h_front - rf.h_front) < 5e-3
        assert abs(gf.g_front - rf.g_front) < 5e-3


class TestStabilityBound:
    def test_formula(self):
        p = params(d1=1.0, d2=1.0, k=0.5, h_comp=0.5, gamma=1.0)
        assert stability_bound(p) == pytest.approx(0.2 / 9.0)
        q = params(d1=0.3, d2=1.7, k=0.45, h_comp=2.2, gamma=0.7)
        assert stability_bound(q) == 0.2 / (0.3 + 1.7 + (0.7 + 0.7 * 2.2 + 2.0 * 0.7) + (1.0 + 0.45 + 2.0))
        assert stability_bound(q.general()) == stability_bound(q)

    def test_h2_scenario_below_002(self):
        p = params(d1=1.0, d2=1.0, k=0.5, h_comp=2.0, gamma=1.0)
        assert stability_bound(p) < 0.02

    def test_general_params_bound(self):
        gp = GeneralParams(D1=2.0, D2=1.5, a1=2.0, b1=0.5, c1=0.5, a2=1.0, b2=1.2,
                           c2=0.4, mu_hat=3.0, H0=0.8)
        assert stability_bound(gp) == pytest.approx(0.2 / 10.8)
        assert stability_bound(gp.general()) == stability_bound(gp)

    def test_run_above_bound_raises(self):
        gp = GeneralParams(D1=2.0, D2=1.5, a1=2.0, b1=0.5, c1=0.5, a2=1.0, b2=1.2,
                           c2=0.4, mu_hat=3.0, H0=0.8)
        s = init_state(gp, UNI, UNI, Profile.cosine(1.0), Profile.constant(0.9), 0.05, 3.0)
        bound = stability_bound(gp)
        with pytest.raises(StabilityViolated):
            run(s, 1.0, 1.01 * bound, 0.5)
        assert run(s, 0.1, bound, 0.05).final_state.t == pytest.approx(0.1)
