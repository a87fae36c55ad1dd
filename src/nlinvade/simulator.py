"""Explicit solver for the coupled free-boundary competition system.

The invader u lives on the moving interval (g_front, h_front) and is zero
outside it; the native v lives on a finite window standing in for the whole
line, with constant continuation of its edge values beyond the window.
Both fields sit on one uniform grid whose nodes are integer multiples of
dx, so window growth never moves existing nodes.

One explicit first-order step advances the fronts with the flux laws

    h' =  mu * integral over (g,h) of u(x) * K1(x - h) dx
    g' = -mu * integral over (g,h) of u(x) * K1(g - x) dx

(K1 the kernel cumulative mass, which reduces the double integrals of the
boundary laws to single ones), then updates the fields from the current
state.  Nodes that the fronts newly cover enter with u = 0 and fill by
dispersal influx alone.  The nonlocal operator is bounded, so the step
restriction is grid independent; `stability_bound` gives the conservative
dt cap that scenario validation and `run` enforce.

Support invariant: u vanishes at every node outside (g_front, h_front).
It holds for the initial profile, and each step writes the updated u only
at the nodes strictly inside the new open interval.  The invariant
licenses three shortcuts in `step`:

- exact cell covers: only the first and last node strictly inside (g, h)
  can carry u on a partly covered cell, so the cell-weighted u is u itself
  with those two entries scaled (every other cover is exactly dx);
- a banded u update: the weighted u is zero outside those nodes, so its
  convolution vanishes more than one u-stencil radius beyond them, and so
  does the new u; the update runs on that band and the rest stays zero,
  and the c2*u term of the v update is applied on the inside nodes alone;
- a tail-only flux: K1(x - h) is zero more than one support radius behind
  h and u is zero ahead of it, so the h flux sums only the inside nodes
  within that radius of h, and likewise for g.  Both tails' offsets,
  x - h and g - x, go to the kernel cdf in one call (`front_speeds`).

Every step reads one grid, the node coordinates `SimState.x`, and the
same values as a Python list, `SimState.x_list`: both are built with the
window and rebuilt only when it grows.  `_inside` bisects the list to find
the nodes strictly inside a front interval; a list item costs about a
third of an array item, and the step takes four bisections.

The state record (`SimState`) is a slotted dataclass, built once per step.
It is not frozen, but no code writes to a state once built: `step` returns
a new record and leaves its input as it was, so states that a caller keeps
(profiles, a reference run) stay valid.  States share ``x``, ``x_list``,
the kernels and the stencils, which nothing writes.  A step allocates one
zeroed buffer of 2n values whose halves are the new u and v (the new state
holds views of them), the covered u of the band, the flux offsets and
their cdf values, the two convolutions (with the edge-extended v for a
non-flat stencil), and one short product each for the c2*u and c1*v
terms; everything else runs in place on those arrays.  The new u is zero
before its band, so one `_flush` from the band's first node to the
buffer's end checks and clamps both fields with one max and one min
reduction; the zeros it also reads move neither the bounds nor the clamp
count.

`run` calls the module global `step` as ``step(state, dt)``, two
positional arguments, once per step.  The benchmark's node-step counter
(perfbench/run.py) and its tracer replace that global with a wrapper of
exactly that signature, so `run` must keep making that call.  With
``diagnostics.dt_halving`` on, `runner.run_scenario` takes the main run in
a forked child where ``os.fork`` exists, so a wrapper installed in the
calling process sees only the halving run's steps.

Both convolutions go through `kernels.grid_convolve`: the u band with zero
extension, the whole v window with edge continuation.  It chooses how each
stencil is applied (prefix sums for flat stencils such as the uniform
kernel's, direct or numpy's real FFT otherwise), so this module holds no
convolution switch of its own.

The same stepping core runs the reduced (`ModelParams`) and the un-reduced
(`GeneralParams`) parameterisation alike: `init_state` and
`stability_bound` read only ``params.general()``, the general-form
coefficients, checked when built.  Both records live in `dynamics`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dynamics import GeneralParams
from .errors import (
    InvalidInitialU,
    InvalidInitialV,
    StabilityViolated,
    WindowTooSmall,
)
from .kernels import (
    GridStencil,
    ValidatedKernel,
    cell_weights,
    check_grid_size,
    fft_convolve,
    grid_convolve,
    grid_stencil,
)

GROSS_CLAMP = -1e-12   # undershoots below this are clamped and counted
FIELD_CAP = 10.0       # a field above this means a blow-up; initial data above it is rejected
EXPAND_MARGIN = 2.0    # expand when a front comes within this many L0 of an edge


def __getattr__(name):
    # perfbench/tracer.py wraps simulator.oaconvolve, the old name of the
    # FFT branch of kernels.grid_convolve
    if name == "oaconvolve":
        return fft_convolve
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- step restriction ------------------------------------------------------

def stability_bound(params) -> float:
    """Conservative explicit-step cap for either parameter kind, independent
    of the grid."""
    c = params.general()
    return 0.2 / (c.D1 + c.D2 + (c.a2 + c.c2 + 2.0 * c.b2) + (c.a1 + c.c1 + 2.0 * c.b1))


# -- initial profiles ------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """Named initial profile or a two-column (x, value) table."""

    kind: str  # "cosine" | "constant" | "table"
    amplitude: float = 1.0
    table: Optional[np.ndarray] = None

    @staticmethod
    def cosine(u_max: float = 1.0) -> "Profile":
        return Profile(kind="cosine", amplitude=float(u_max))

    @staticmethod
    def constant(value: float) -> "Profile":
        return Profile(kind="constant", amplitude=float(value))

    @staticmethod
    def from_table(table: np.ndarray) -> "Profile":
        return Profile(kind="table", table=np.asarray(table, dtype=float))


def _interp_table(profile: Profile, x: np.ndarray, name: str, error, **edges) -> np.ndarray:
    """np.interp of a table profile at x; its x must be finite and strictly increasing."""
    t = profile.table
    if t is None or t.ndim != 2 or t.shape[1] != 2:
        raise error(f"{name} table must be an (n, 2) array")
    if not (np.all(np.isfinite(t[:, 0])) and np.all(np.diff(t[:, 0]) > 0)):
        raise error(f"{name} table x values must be finite and strictly increasing")
    return np.interp(x, t[:, 0], t[:, 1], **edges)


def _sample_u0(profile: Profile, x: np.ndarray, h0: float) -> np.ndarray:
    inside = np.abs(x) < h0
    if profile.kind == "cosine":  # the checks below reject an amplitude that is not positive
        u0 = np.zeros_like(x)  # x / h0 may overflow outside
        u0[inside] = profile.amplitude * np.cos(0.5 * np.pi * x[inside] / h0)
    elif profile.kind == "table":
        u0 = _interp_table(profile, x, "u0", InvalidInitialU, left=0.0, right=0.0)
    else:
        raise InvalidInitialU(f"unsupported u0 profile {profile.kind!r}")
    if np.any(u0 < 0.0):
        raise InvalidInitialU("u0 has negative values")
    if np.any(u0[~inside] != 0.0):
        raise InvalidInitialU("u0 must vanish outside (-h0, h0)")
    if np.any(u0[inside] <= 0.0):
        raise InvalidInitialU("u0 must be strictly positive inside (-h0, h0)")
    if not np.all(u0 <= FIELD_CAP):  # also catches NaN
        raise InvalidInitialU(f"u0 must be at most the field cap {FIELD_CAP}, and not NaN")
    return u0


def _sample_v0(profile: Profile, x: np.ndarray) -> np.ndarray:
    if profile.kind == "constant":
        v0 = np.full_like(x, profile.amplitude)
    elif profile.kind == "table":
        v0 = _interp_table(profile, x, "v0", InvalidInitialV)  # edge continuation beyond the table
    else:
        raise InvalidInitialV(f"unsupported v0 profile {profile.kind!r}")
    if np.any(v0 < 0.0) or not np.all(np.isfinite(v0)):
        raise InvalidInitialV("v0 must be nonnegative and bounded")
    if np.any(v0 > FIELD_CAP):
        raise InvalidInitialV(f"v0 must be at most the field cap {FIELD_CAP}")
    return v0


# -- state -----------------------------------------------------------------

@dataclass(slots=True)
class SimState:
    """Solver state: time, fronts, fields, grid, coefficients, kernels.

    A slotted record, cheap to build on every step and never written once
    built (see the module docstring); `dataclasses.replace` derives a
    changed copy.

    ``i0`` is the lattice index of the first node (nodes are (i0 + j) * dx),
    kept as an integer so window growth reproduces node positions exactly.
    ``x`` holds those node coordinates (`_nodes`) and ``x_list`` the same
    values as a list; both are built with the window and rebuilt only when
    the window grows.
    ``clamp_count`` accumulates gross negative undershoots flushed to zero.
    ``steps`` and ``node_steps`` count the steps since the initial state
    and the window sizes they stepped (taken before any growth).
    ``coef`` holds the model coefficients in general form.
    """

    t: float
    g_front: float
    h_front: float
    u: np.ndarray
    v: np.ndarray
    x: np.ndarray
    x_list: list
    i0: int
    dx: float
    j1: ValidatedKernel
    j2: ValidatedKernel
    st1: GridStencil
    st2: GridStencil
    coef: GeneralParams
    clamp_count: int = 0
    window_growths: int = 0
    steps: int = 0
    node_steps: int = 0

    @property
    def x_min(self) -> float:
        return float(self.x[0])

    @property
    def x_max(self) -> float:
        return float(self.x[-1])


def _nodes(i0: int, n: int, dx: float) -> np.ndarray:
    """Coordinates of the n nodes from lattice index i0 on."""
    return (i0 + np.arange(n)) * dx


def init_state(
    params,
    j1: ValidatedKernel,
    j2: ValidatedKernel,
    u0_profile: Profile,
    v0_profile: Profile,
    dx: float,
    window_pad: float,
) -> SimState:
    """Build the initial state on a symmetric window around the origin.

    The window spans at least [-h0 - window_pad, h0 + window_pad] and is
    widened immediately if that leaves a front within the expansion margin.
    """
    coef = params.general()
    h0 = coef.H0
    if dx <= 0 or not np.isfinite(dx):
        raise ValueError("dx must be positive")
    if window_pad <= 0 or not np.isfinite(window_pad):
        raise ValueError("window_pad must be positive")

    reach = h0 + window_pad
    check_grid_size(2.0 * reach / dx + 1.0,
                    f"the initial window [{-reach:g}, {reach:g}] at spacing {dx:g}")
    n_half = int(math.ceil(reach / dx))
    i0 = -n_half
    x = _nodes(i0, 2 * n_half + 1, dx)
    u0 = _sample_u0(u0_profile, x, h0)
    v0 = _sample_v0(v0_profile, x)
    state = SimState(
        t=0.0,
        g_front=-h0,
        h_front=h0,
        u=u0,
        v=v0,
        x=x,
        x_list=x.tolist(),
        i0=i0,
        dx=dx,
        j1=j1,
        j2=j2,
        st1=grid_stencil(j1, dx),
        st2=grid_stencil(j2, dx),
        coef=coef,
    )
    return _ensure_window(state)


def _ensure_window(state: SimState) -> SimState:
    """Grow the window so both fronts keep EXPAND_MARGIN * L0 of clearance."""
    x = state.x
    margin = EXPAND_MARGIN * max(state.j1.support_radius, state.j2.support_radius)
    grow_left = state.g_front - x.item(0) < margin
    grow_right = x.item(-1) - state.h_front < margin
    if not (grow_left or grow_right):
        return state
    n = state.u.size
    chunk = max(n // 2, 4 * max(state.st1.half, state.st2.half), 8)
    check_grid_size(n + chunk * (grow_left + grow_right),
                    f"the window grown for fronts at {state.g_front:g} and {state.h_front:g}")
    u, v, i0 = state.u, state.v, state.i0
    if grow_left:
        u = np.concatenate([np.zeros(chunk), u])
        v = np.concatenate([np.full(chunk, v[0]), v])
        i0 -= chunk
    if grow_right:
        u = np.concatenate([u, np.zeros(chunk)])
        v = np.concatenate([v, np.full(chunk, v[-1])])
    x = _nodes(i0, u.size, state.dx)
    return replace(state, u=u, v=v, x=x, x_list=x.tolist(), i0=i0,
                   window_growths=state.window_growths + 1)


# -- dynamics --------------------------------------------------------------

def _inside(state: SimState, a: float, b: float) -> tuple[int, int]:
    """Index range [ia, ib) of the nodes strictly inside (a, b), clipped to
    the window.

    Two bisections of the increasing node coordinates `state.x_list`, so
    the range is exactly ``np.nonzero((x > a) & (x < b))``.
    """
    x = state.x_list
    ia = bisect_right(x, a)
    return ia, max(bisect_left(x, b), ia)


def _covered_u(state: SimState, lo: int, hi: int, ia: int, ib: int) -> np.ndarray:
    """u on nodes [lo, hi), each weighted by the fraction of its cell inside
    [g, h]; [ia, ib) are the nodes strictly inside (g, h).

    Outside [ia, ib) u is zero, and inside it only the first and last cell
    can be partly covered, so only those two get a weight (by the
    `cell_weights` formula); every other cover is exactly dx.
    """
    dx, g, h, xs = state.dx, state.g_front, state.h_front, state.x
    wu = state.u[lo:hi].copy()
    for j in range(ia, ib, max(ib - ia - 1, 1)):  # ia and ib - 1, once each
        x = xs.item(j)
        wu[j - lo] *= max(min(x + 0.5 * dx, h) - max(x - 0.5 * dx, g), 0.0) / dx
    return wu


def front_speeds(state: SimState, wu: np.ndarray, lo: int, ia: int, ib: int) -> tuple[float, float]:
    """(g_rate, h_rate), always g_rate <= 0 <= h_rate, from ``wu``, the
    covered u of nodes lo, lo + 1, ... (`_covered_u`).

    K1(x - h) vanishes more than one support radius behind h, and K1(g - x)
    more than one radius ahead of g, so each flux sums only the nodes of
    [ia, ib) within that reach of its front: [a, ib) for h and [ia, b) for
    g.  One buffer holds both tails' offsets and takes one cdf call.
    """
    mu = state.coef.mu_hat
    if mu == 0.0:
        return 0.0, 0.0
    dx, x = state.dx, state.x
    reach = math.ceil(state.j1.support_radius / dx) + 2
    a, b = max(ia, ib - reach), min(ib, ia + reach)
    m = ib - a
    offsets = np.empty(m + b - ia)
    np.subtract(x[a:ib], state.h_front, out=offsets[:m])
    np.subtract(state.g_front, x[ia:b], out=offsets[m:])
    k1 = state.j1.cdf(offsets)
    h_rate = mu * dx * float(np.dot(wu[a - lo : ib - lo], k1[:m]))
    g_rate = -mu * dx * float(np.dot(wu[ia - lo : b - lo], k1[m:]))
    return g_rate, h_rate


def _flush(field: np.ndarray, t: float) -> int:
    """Raise on a blown-up field, flush its negatives to zero in place and
    return how many fell below GROSS_CLAMP."""
    top = np.maximum.reduce(field)
    bottom = np.minimum.reduce(field)
    if not (top <= FIELD_CAP and bottom > -math.inf):  # also catches NaN
        raise StabilityViolated(f"field left [{GROSS_CLAMP}, {FIELD_CAP}] at t={t}")
    if bottom >= 0.0:
        return 0
    gross = int(np.count_nonzero(field < GROSS_CLAMP))
    np.copyto(field, 0.0, where=field < 0.0)
    return gross


def step(state: SimState, dt: float) -> SimState:
    """One explicit step: advance fronts, then both fields, then the window.

    Each field is updated in the factored form f * (A - B*f - C*other) + E*conv
    of f + dt * (D * (conv - f) + f * (a - b*f - c*other)).
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError("dt must be positive")
    c = state.coef
    u, v = state.u, state.v
    n = u.size

    # u is nonzero only on [ia, ib), its convolution only on [lo, hi)
    ia, ib = _inside(state, state.g_front, state.h_front)
    lo, hi = max(ia - state.st1.half, 0), min(ib + state.st1.half, n)
    wu = _covered_u(state, lo, hi, ia, ib)
    g_rate, h_rate = front_speeds(state, wu, lo, ia, ib)
    g_new = state.g_front + dt * g_rate
    h_new = state.h_front + dt * h_rate

    # one buffer holds both new fields, u in [0, n) and v in [n, 2n); the
    # new u is zero outside (g_new, h_new) and, by the invariant, outside
    # [lo, hi)
    fields = np.zeros(2 * n)
    u_new, v_new = fields[:n], fields[n:]
    a, b = _inside(state, g_new, h_new)
    a, b = max(a, lo), min(b, hi)
    ub, out = u[a:b], u_new[a:b]
    np.multiply(ub, -dt * c.b1, out=out)
    out += 1.0 + dt * (c.a1 - c.D1)
    out -= (dt * c.c1) * v[a:b]
    out *= ub
    conv = grid_convolve(wu, state.st1)[a - lo : b - lo]
    conv *= dt * c.D1
    out += conv

    conv_v = grid_convolve(v, state.st2, edge=True)
    np.multiply(v, -dt * c.b2, out=v_new)
    v_new += 1.0 + dt * (c.a2 - c.D2)
    v_new[ia:ib] -= (dt * c.c2) * u[ia:ib]
    v_new *= v
    conv_v *= dt * c.D2
    v_new += conv_v

    # u is zero before a, so one flush from a covers u's band and all of v
    t_new = state.t + dt
    clamps = state.clamp_count + _flush(fields[a:], t_new)
    # positional in field order: 18 keywords cost about 1.3 us a call, 2 %
    # of a step on a 200-node window
    return _ensure_window(
        SimState(
            t_new, g_new, h_new, u_new, v_new,
            state.x, state.x_list, state.i0, state.dx,
            state.j1, state.j2, state.st1, state.st2, c,
            clamps, state.window_growths, state.steps + 1, state.node_steps + n,
        )
    )


# -- run loop ---------------------------------------------------------------

@dataclass
class TimeSeries:
    t: np.ndarray
    g_front: np.ndarray
    h_front: np.ndarray
    mass_u: np.ndarray
    sup_u: np.ndarray
    v_dev_L: np.ndarray
    sup_v: np.ndarray


@dataclass
class RunResult:
    series: TimeSeries
    profiles: list  # (t, x, u, v) tuples
    final_state: SimState


def integrate_u(state: SimState) -> float:
    """Mass of u over the front interval."""
    w = cell_weights(state.x, state.dx, state.g_front, state.h_front)
    return float(np.dot(w, state.u))


def v_deviation(state: SimState, L: float) -> float:
    """Integral of |v - 1| over [-L, L]."""
    if L > min(-state.x_min, state.x_max):
        raise WindowTooSmall(f"[-{L}, {L}] exceeds the window [{state.x_min}, {state.x_max}]")
    w = cell_weights(state.x, state.dx, -L, L)
    return float(np.dot(w, np.abs(state.v - 1.0)))


def window_leakage(state: SimState) -> dict:
    """Far-field closure diagnostics.

    ``front_mass_outside``: J2 mass beyond the window seen from each front
    (zero while the containment invariant holds).  ``edge_variation``: how
    far v is from constant within one support radius of each window edge,
    a first-order bound on the constant-continuation error there.
    """
    R2 = state.j2.support_radius
    cdf2 = state.j2.cdf
    left = float(np.asarray(cdf2(state.x_min - state.g_front)))
    right = float(1.0 - np.asarray(cdf2(state.x_max - state.h_front)))
    m = max(int(math.ceil(R2 / state.dx)), 1) + 1
    m = min(m, state.v.size)
    lv = state.v[:m]
    rv_ = state.v[-m:]
    variation = max(float(lv.max() - lv.min()), float(rv_.max() - rv_.min()))
    return {
        "front_mass_outside_left": left,
        "front_mass_outside_right": right,
        "edge_variation": variation,
    }


def run(
    state: SimState,
    T: float,
    dt: float,
    snapshot_every: float,
    metrics_L: Optional[float] = None,
    profile_every: Optional[float] = None,
) -> RunResult:
    """Advance the state to time T, recording a metrics row every
    snapshot_every time units (plus the initial and final instants).

    Full (x, u, v) profiles are kept at the first and last snapshot, and at
    multiples of profile_every when given.  Deterministic for fixed inputs.
    """
    if T < 0 or not np.isfinite(T):
        raise ValueError("T must be nonnegative and finite")
    if not 0 < snapshot_every < math.inf:
        raise ValueError("snapshot_every must be positive and finite")
    if profile_every and not 0 < profile_every < math.inf:
        raise ValueError("profile_every must be None, 0, or positive and finite")
    bound = stability_bound(state.coef)
    if dt > bound:
        raise StabilityViolated(f"dt={dt} exceeds the stability bound {bound:.6g}")
    if metrics_L is None:
        metrics_L = min(2.0 * state.coef.H0, min(-state.x_min, state.x_max))
    v_deviation(state, metrics_L)  # raises WindowTooSmall up front

    rows, profiles = [], []

    def record(s: SimState):
        # one row per instant, in TimeSeries field order
        rows.append((s.t, s.g_front, s.h_front, integrate_u(s), float(s.u.max(initial=0.0)),
                     v_deviation(s, metrics_L), float(s.v.max(initial=0.0))))

    def keep_profile(s: SimState):
        profiles.append((s.t, s.x.copy(), s.u.copy(), s.v.copy()))

    record(state)
    keep_profile(state)
    next_snap = snapshot_every
    next_profile = profile_every if profile_every else None

    t_end = T - 1e-12 * max(T, 1.0)
    while state.t < t_end:
        state = step(state, min(dt, T - state.t))
        if state.t >= next_snap - 0.5 * dt and state.t < t_end:
            record(state)
            while next_snap <= state.t + 0.5 * dt:
                next_snap += snapshot_every
            if next_profile is not None and state.t >= next_profile - 0.5 * dt:
                keep_profile(state)
                while next_profile <= state.t + 0.5 * dt:
                    next_profile += profile_every

    if T > 0:
        record(state)
        keep_profile(state)

    series = TimeSeries(*map(np.array, zip(*rows)))
    return RunResult(series=series, profiles=profiles, final_state=state)
