"""Proof devices of the paper that the tests check and the package never calls.

`attractor_bounds` is the alternating bound iteration behind the k < 1
spreading limit; `reduce_general` is the nondimensionalisation that maps
the general-form system onto the reduced one, with the exact field and
time scalings (`ScalingTransform`) that the scaling twin-run oracle uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from nlinvade.dynamics import GeneralParams, ModelParams
from nlinvade.errors import AssumptionViolated


@dataclass(frozen=True)
class ScalingTransform:
    """Exact map between the general and reduced solutions.

    reduced u(t, x) = u_scale * U(t / time_scale, x), likewise for v; the
    fronts carry over unscaled at matched times t = time_scale * tau.
    """

    u_scale: float
    v_scale: float
    time_scale: float


def reduce_general(general: GeneralParams) -> tuple[ModelParams, ScalingTransform]:
    """Reduce the general parameterisation to the normalised one."""
    g = general.general()
    params = ModelParams(
        d1=g.D1 / g.a1,
        d2=g.D2 / g.a1,
        gamma=g.a2 / g.a1,
        k=g.a2 * g.c1 / (g.a1 * g.b2),
        h_comp=g.a1 * g.c2 / (g.a2 * g.b1),
        mu=g.mu_hat / g.b1,
        h0=g.H0,
    )
    transform = ScalingTransform(
        u_scale=g.b1 / g.a1, v_scale=g.b2 / g.a2, time_scale=g.a1
    )
    return params, transform


@dataclass(frozen=True)
class BoundIteration:
    lower_u: np.ndarray
    upper_v: np.ndarray
    upper_u: Optional[np.ndarray]
    lower_v: Optional[np.ndarray]
    outcome: str                    # "u_dominance" | "coexistence_limits"
    dominance_step: Optional[int]   # 1-based step j with h_comp*lower_u[j] >= 1
    limits: Optional[tuple[float, float]]


def attractor_bounds(k: float, h_comp: float, j_max: int) -> BoundIteration:
    """Alternating bounds u_1 = 1-k, v_{j+1} = 1 - h*u_j, u_{j+1} = 1 - k*v_{j+1}.

    Requires k < 1.  Stops with u-dominance as soon as h_comp*u_j >= 1;
    otherwise reports the coexistence limits ((1-k)/(1-hk), (1-h)/(1-hk)).
    The mirrored upper/lower pair exists only when h_comp < 1.
    """
    if not (0.0 < k < 1.0):
        raise AssumptionViolated(f"the bound iteration needs 0 < k < 1, got k={k}")
    if h_comp <= 0.0:
        raise AssumptionViolated(f"h_comp must be positive, got {h_comp}")
    if j_max < 1:
        raise ValueError("j_max must be at least 1")

    lower_u = [1.0 - k]
    upper_v = [1.0]  # trivial first bound
    dominance = None
    for j in range(1, j_max):
        if h_comp * lower_u[-1] >= 1.0:
            dominance = j
            break
        v_next = 1.0 - h_comp * lower_u[-1]
        lower_u.append(1.0 - k * v_next)
        upper_v.append(v_next)
    else:
        if h_comp * lower_u[-1] >= 1.0:
            dominance = j_max

    upper_u = lower_v = None
    if h_comp < 1.0:
        lv = [1.0 - h_comp]
        uu = [1.0]  # trivial first bound
        for _ in range(1, j_max):
            u_next = 1.0 - k * lv[-1]
            uu.append(u_next)
            lv.append(1.0 - h_comp * u_next)
        upper_u = np.array(uu)
        lower_v = np.array(lv)

    if dominance is not None:
        outcome, limits = "u_dominance", None
    else:
        denom = 1.0 - h_comp * k
        outcome = "coexistence_limits"
        limits = ((1.0 - k) / denom, (1.0 - h_comp) / denom)
    return BoundIteration(
        lower_u=np.array(lower_u),
        upper_v=np.array(upper_v),
        upper_u=upper_u,
        lower_v=lower_v,
        outcome=outcome,
        dominance_step=dominance,
        limits=limits,
    )
