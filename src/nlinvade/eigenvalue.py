"""Principal eigenvalue of the dispersal operator on an interval.

The operator on a field phi over (a, b) is

    (L phi)(x) = d1 * [ integral over (a,b) of J(x - y) phi(y) dy - phi(x) ]

and its principal eigenvalue governs whether a confined invader persists.
Discretely, the integral at row i uses node-cell quadrature clipped both by
the interval and by the kernel support window around x_i; with J evaluated
on covered-cell midpoints this keeps interior row sums at exactly d1 (so
the eigenvalue stays inside (-d1, 0)) and makes the operator exactly rank
one when the kernel is constant across the interval.

The shifted matrix B = L + d1*I is entrywise nonnegative with positive
diagonal, so its Perron root is the eigenvalue of largest real part.  It is
found by one of three methods:

- "dense": grids below DENSE_THRESHOLD nodes solve the dense matrix
  exactly.  They stay dense whatever their stencil, because three checks
  of the test suite sit within one rounding step of their bound on 4- to
  21-node grids, and the dense result is the one they were set against.
- "rank_one": a grid of DENSE_THRESHOLD nodes or more whose rows of B are
  all one row to rounding, under a flat stencil (``box``): its interior
  taps cover every offset (n <= half), or n = half + 1 and the end tap
  weighs in an end column what an interior tap does (l = L0).  B is rank
  one with the constant eigenvector, and rho is the mean of B applied to
  ones: d1 * l / (2 * L0) for a uniform kernel of radius L0, length l.
- "krylov": every other grid, by a thick-restart Arnoldi on the
  matrix-free operator, which never forms B's band (`_krylov_solve`;
  Stewart's Krylov-Schur restart, SIAM J. Matrix Anal. Appl. 23, 2001).

All three are numpy alone and return the pair only after its residual
passes RESIDUAL_TOL.  Translation invariance is exact because every
interval is normalised to left endpoint 0 before discretisation.

The Krylov basis holds m = min(20, max(8, ceil(r) + 4)) vectors, r = (n -
1) / half the interval's length in stencil half-widths: 20 vectors cost 21
matvecs at least, the sized basis 2 to 19 below r = 16.  Cost per solve in
ms (d1 = 1, dx = L0/40, uniform kernel with L0 = 1, truncated gaussian with
sigma = 1, L0 = 2, each solver called on the operator, so uniform grids of
up to 41 nodes, rank one in use, are timed too; medians of 21 interleaved
solves, shared 2-vCPU x86-64 VM, one BLAS thread; matvecs in brackets):

        r  nodes  kernel    basis  dense  Krylov
      0.6     25  uniform       8   0.22  0.11 (2)
     0.85     35  uniform       8   0.37  0.12 (2)
      1.4     57  uniform       8   0.78  0.30 (9)
        2     81  uniform       8   2.52  0.33 (9)
        4    161  uniform       8   9.98  0.70 (13)
        8    321  uniform      12      -  0.47 (13)
       11    441  uniform      15      -  0.60 (16)
       14    561  uniform      18      -  0.89 (19)
       16    641  uniform      20      -  0.96 (21)
       32   1281  uniform      20      -  2.13 (31)
      0.6     25  gaussian      8   0.22  0.29 (9)
     0.85     35  gaussian      8   0.35  0.28 (9)
      1.4     57  gaussian      8   0.92  0.45 (9)
        4    161  gaussian      8   9.61  0.41 (9)
       11    441  gaussian     15      -  0.58 (16)
       32   1281  gaussian     20      -  2.97 (41)

Dense time over Krylov time, the median of 100 interleaved pairs, crossed
1 at 31-33 nodes for the gaussian at dx = L0/40 (0.96, 1.02), at 27-31 at
dx = L0/13 (0.92, 1.17) and at 25-27 for the uniform kernel at dx = L0/13
(0.80, 1.04; 0.98 at 41 nodes, where its 8-vector basis restarts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInterval, NoConvergence
from .kernels import (FLAT_TOL, GridStencil, ValidatedKernel, check_grid_size, grid_convolve,
                      grid_stencil)

# Fewest nodes solved by the Krylov solver or in closed form (rank one);
# smaller grids take the dense path.  35 was the previous iterative solver's
# crossover; moving it to the Krylov solver's (25-33 nodes, module
# docstring) would change lambda in the last bits on the grids between.
DENSE_THRESHOLD = 35
# Largest residual max|B phi - rho phi| accepted for a returned pair.
RESIDUAL_TOL = 1e-8
# Relative accuracy at which the Krylov solver stops, four orders under
# RESIDUAL_TOL (1e-16 took 51 matvecs, not 31, on 1 281 uniform nodes).
KRYLOV_TOL = 1e-12
# Cycles before NoConvergence: five times the most measured (21 cycles).
KRYLOV_CYCLES = 100


@dataclass(frozen=True)
class EigenResult:
    """Principal pair of the interval operator."""

    lambda_p: float
    eigenfunction: np.ndarray
    nodes: np.ndarray
    iterations: int
    residual: float
    method: str


def _grid(interval: tuple[float, float], dx: float) -> tuple[int, float]:
    a, b = interval
    if not (np.isfinite(a) and np.isfinite(b)) or not b > a:
        raise DegenerateInterval(f"interval ({a}, {b}) is empty or unbounded")
    if dx <= 0 or not np.isfinite(dx):
        raise ValueError("dx must be positive")
    length = b - a
    check_grid_size(length / dx + 1.0, f"an interval of length {length:g} at spacing {dx:g}")
    n = max(4, int(round(length / dx)) + 1)
    return n, length / (n - 1)


def _dense_matrix(n: int, h: float, d1: float, st: GridStencil) -> np.ndarray:
    idx = np.arange(n)
    m = idx[:, None] - idx[None, :]
    k = m + st.half
    valid = (k >= 0) & (k <= 2 * st.half)
    kc = np.clip(k, 0, 2 * st.half)
    dens = np.where(valid, st.densities[kc], 0.0)
    cov = np.where(valid, st.cover[kc], 0.0)
    w = np.full(n, h)  # quadrature weights, half cells at the ends
    w[0] = w[-1] = 0.5 * h
    return d1 * dens * np.minimum(w[None, :], cov)


def _matvec_factory(n: int, h: float, d1: float, st: GridStencil):
    # per-offset adjustment for the two half-weighted end columns
    corr = d1 * (st.densities * np.minimum(0.5 * h, st.cover) - st.masses)
    half = st.half
    lo_len = min(half, n - 1)  # offsets i = 0..lo_len reach column 0
    c_first = corr[half : half + lo_len + 1]
    c_last = corr[half - lo_len : half + 1]

    def matvec(phi: np.ndarray) -> np.ndarray:
        out = d1 * grid_convolve(phi, st)
        out[: lo_len + 1] += c_first * phi[0]
        out[n - 1 - lo_len :] += c_last * phi[-1]
        return out

    return matvec


def _rank_one(n: int, h: float, st: GridStencil) -> bool:
    """Whether all rows of B are one row (module docstring)."""
    if st.box is None or n > st.half + 1:
        return False
    end_entry = st.densities[0] * min(0.5 * h, st.cover[0])  # the end tap's, in an end column
    return n <= st.half or abs(end_entry - 0.5 * st.box[0]) <= FLAT_TOL


def _perron(rho: float, vec: np.ndarray, apply) -> tuple[np.ndarray, float]:
    """Nonnegative eigenvector scaled to max 1, and the residual of the pair
    under ``apply``; a residual above RESIDUAL_TOL raises."""
    phi = vec.real
    phi = phi * np.sign(phi[int(np.argmax(np.abs(phi)))])
    phi = np.maximum(phi, 0.0)
    phi /= phi.max()
    residual = float(np.max(np.abs(apply(phi) - rho * phi)))
    if not residual <= RESIDUAL_TOL:
        raise NoConvergence(f"eigenpair residual {residual:.3e} exceeds {RESIDUAL_TOL:g}")
    return phi, residual


def _basis_size(n: int, half: int) -> int:
    """Krylov basis size for ``n`` nodes under a stencil of half-width
    ``half``: ceil(r) + 4 within [8, 20], r = (n - 1) / half."""
    return min(20, max(8, math.ceil((n - 1) / max(half, 1)) + 4))


def _krylov_solve(matvec, n: int, m: int) -> tuple[float, np.ndarray, int]:
    """Thick-restart Arnoldi with an ``m``-vector basis from the operator
    applied to the sine start, counting matvecs.  Each cycle extends the
    basis by classical Gram-Schmidt, twice where it cancels, and stops once
    the Ritz pair (theta, y) of largest real part has |beta * y_m| <=
    KRYLOV_TOL * |theta|; else it keeps the Ritz vectors of the (m + 1) // 2
    largest real parts.  A Krylov space that turns invariant, as on
    low-rank grids, holds the Perron pair exactly: no random restart."""
    V = np.empty((m + 1, n))  # basis vectors as rows
    H = np.zeros((m + 1, m))
    v0 = matvec(np.sin(np.pi * np.arange(n) / (n - 1)) + 1e-3)
    V[0] = v0 / np.linalg.norm(v0)
    k, count = 0, 1
    for _ in range(KRYLOV_CYCLES):
        for j in range(k, m):
            w = matvec(V[j])
            count += 1
            w_norm = math.sqrt(w @ w)
            for _ in range(2):  # classical Gram-Schmidt, once more where it cancels
                c = V[: j + 1] @ w
                w -= c @ V[: j + 1]
                H[: j + 1, j] += c
                H[j + 1, j] = beta = math.sqrt(w @ w)
                if beta >= 0.7 * w_norm:
                    break
            if beta <= KRYLOV_TOL * w_norm:  # an invariant Krylov space
                break
            V[j + 1] = w / beta
        vals, Y = np.linalg.eig(H[: j + 1, : j + 1])
        order = np.argsort(-vals.real, kind="stable")
        theta, y = vals[order[0]], Y[:, order[0]]
        if beta <= KRYLOV_TOL * w_norm or abs(beta * y[-1]) <= KRYLOV_TOL * abs(theta):
            return float(theta.real), y.real @ V[: j + 1], count
        # one member of each complex pair, the first, which LAPACK gives the
        # positive imaginary part: its real and imaginary parts span the pair
        keep = order[: (m + 1) // 2]
        keep = keep[vals[keep].imag >= 0]
        Q = np.linalg.qr(np.hstack([Y[:, keep].real, Y[:, keep[vals[keep].imag > 0]].imag]))[0]
        k = Q.shape[1]
        T = Q.T @ H[:m] @ Q
        H = np.zeros_like(H)
        H[:k, :k], H[k, :k] = T, beta * Q[-1]
        V[:k], V[k] = Q.T @ V[:m], V[m]
    raise NoConvergence(f"Krylov solver not converged in {KRYLOV_CYCLES} cycles of {m} vectors")


def principal_eigenvalue(
    kernel: ValidatedKernel,
    d1: float,
    interval: tuple[float, float],
    dx: float,
) -> EigenResult:
    """Principal eigenvalue and positive eigenfunction on an interval.

    The interval is normalised to (0, length), making the result exactly
    translation invariant.  Grids below DENSE_THRESHOLD nodes go through
    the dense matrix (``method == "dense"``, ``iterations`` 0), so the
    checks set against its rounding keep it.  Larger grids whose rows of B
    are all one row under a flat stencil (``_rank_one``) take rho from one
    application to ones (``"rank_one"``, 0); the rest go through the
    Krylov solver (``"krylov"``, ``iterations`` its matvec count).
    """
    if d1 <= 0 or not np.isfinite(d1):
        raise ValueError("d1 must be positive")
    n, h = _grid(interval, dx)
    st = grid_stencil(kernel, h)

    if n < DENSE_THRESHOLD:
        B = _dense_matrix(n, h, d1, st)
        method, apply = "dense", B.__matmul__
        vals, vecs = np.linalg.eig(B)
        k = int(np.argmax(vals.real))
        rho, vec, iterations = float(vals[k].real), vecs[:, k], 0
    elif _rank_one(n, h, st):
        method, apply = "rank_one", _matvec_factory(n, h, d1, st)
        vec, iterations = np.ones(n), 0
        rho = float(np.mean(apply(vec)))
    else:
        method, apply = "krylov", _matvec_factory(n, h, d1, st)
        rho, vec, iterations = _krylov_solve(apply, n, _basis_size(n, st.half))
    phi, residual = _perron(rho, vec, apply)

    nodes = interval[0] + np.arange(n) * h
    return EigenResult(
        lambda_p=rho - d1,
        eigenfunction=phi,
        nodes=nodes,
        iterations=iterations,
        residual=residual,
        method=method,
    )


def eigen_curve(kernel: ValidatedKernel, d1: float, lengths, dx: float) -> list[tuple[float, float]]:
    """Eigenvalue as a function of interval length, computed on (0, l)."""
    out = []
    for length in lengths:
        res = principal_eigenvalue(kernel, d1, (0.0, float(length)), dx)
        out.append((float(length), res.lambda_p))
    return out
