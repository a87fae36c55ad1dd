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
- "arpack": every other grid, by ARPACK's implicitly restarted Arnoldi
  method on the matrix-free operator, stopped at the relative accuracy
  ARPACK_TOL.

All three return the pair only after its residual passes RESIDUAL_TOL.
This module imports scipy.sparse.linalg on the ARPACK path only, at its
first call, so a process whose solves are all dense or rank one never
loads it.  Translation invariance is exact because every interval is
normalised to left endpoint 0 before discretisation.

ARPACK's Krylov basis is sized to the interval's length in kernel widths,
r = (n - 1) / half for n nodes under a stencil of half-width ``half``
nodes: ncv = min(20, max(8, ceil(r) + 4)) vectors.  Its matvec count at
ARPACK_TOL depends on r, not on n (the counts were identical at
dx = L0/40 and L0/13), and eigs' default of 20 vectors paid 21 matvecs on
short intervals that converge in 9.  From r = 16 on the basis stays at
20: there 16 vectors were up to 1.14 times and 8 vectors up to 1.83 times
slower, from the extra restarts.

Cost per solve in ms by r and node count (d1 = 1, dx = L0/40, the uniform
kernel with L0 = 1 and the truncated gaussian with sigma = 1, L0 = 2;
medians of 21 interleaved solves on a shared 2-vCPU x86-64 VM, one BLAS
thread; ARPACK stopped at ARPACK_TOL, matvec counts in brackets):

        r  nodes  kernel    basis  dense   ARPACK ncv=20  ARPACK sized
      0.6     25  uniform       8   0.49     1.20 (21)     0.59 (9)
     0.85     35  uniform       8   0.44     0.76 (21)     0.41 (9)
      1.4     57  uniform       8   0.87     0.82 (21)     0.45 (9)
        2     81  uniform       8   4.04     1.30 (21)     0.72 (9)
        4    161  uniform       8   8.32     1.06 (21)     0.59 (13)
        8    321  uniform      12      -     1.56 (21)     1.08 (13)
       11    441  uniform      15      -     0.95 (21)     0.72 (16)
       14    561  uniform      18      -     1.01 (21)     0.91 (19)
       16    641  uniform      20      -     1.09 (21)     1.02 (21)
       32   1281  uniform      20      -     1.99 (31)     1.99 (31)
      0.6     25  gaussian      8   0.34     0.74 (21)     0.46 (9)
     0.85     35  gaussian      8   0.70     1.14 (21)     0.66 (9)
      1.4     57  gaussian      8   1.38     1.26 (21)     0.71 (9)
        4    161  gaussian      8   8.86     1.16 (21)     0.67 (9)
       11    441  gaussian     15      -     0.88 (21)     0.70 (16)
       32   1281  gaussian     20      -     2.68 (41)     2.80 (41)

Dense time over sized-ARPACK time, the median of 100 interleaved pairs,
crossed 1 between 33 nodes (uniform 0.95, gaussian 0.89) and 36 (1.08,
1.03) at dx = L0/40, and between 33 (1.00, 0.99) and 35 (1.04, 1.04) at
dx = L0/13, hence DENSE_THRESHOLD = 35.  Stopping at 1e-12 instead of
machine precision saves restarts on long intervals only; it moved lambda
by at most 1.8e-15, and the residuals on these grids stayed at or below
1.2e-12, four orders under RESIDUAL_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInterval, NoConvergence
from .kernels import (FLAT_TOL, GridStencil, ValidatedKernel, check_grid_size, grid_convolve,
                      grid_stencil)

# Fewest nodes solved by ARPACK or in closed form (rank one): the measured
# crossover of dense and sized-basis ARPACK time (module docstring).
# Smaller grids take the dense path.
DENSE_THRESHOLD = 35
# Largest residual max|B phi - rho phi| accepted for a returned pair.
RESIDUAL_TOL = 1e-8
# Relative accuracy at which ARPACK stops (its ``tol``; 0 is machine
# precision), four orders under RESIDUAL_TOL.
ARPACK_TOL = 1e-12


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


def _interval_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _end_corrections(d1: float, st: GridStencil, w_end: float) -> np.ndarray:
    """Per-offset adjustment for the two half-weighted end columns."""
    return d1 * (st.densities * np.minimum(w_end, st.cover) - st.masses)


def _dense_matrix(n: int, h: float, d1: float, st: GridStencil) -> np.ndarray:
    idx = np.arange(n)
    m = idx[:, None] - idx[None, :]
    k = m + st.half
    valid = (k >= 0) & (k <= 2 * st.half)
    kc = np.clip(k, 0, 2 * st.half)
    dens = np.where(valid, st.densities[kc], 0.0)
    cov = np.where(valid, st.cover[kc], 0.0)
    w = _interval_weights(n, h)
    return d1 * dens * np.minimum(w[None, :], cov)


def _matvec_factory(n: int, h: float, d1: float, st: GridStencil):
    corr = _end_corrections(d1, st, 0.5 * h)
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


def _dense_solve(B: np.ndarray) -> tuple[float, np.ndarray, int]:
    vals, vecs = np.linalg.eig(B)
    k = int(np.argmax(vals.real))
    return float(vals[k].real), vecs[:, k], 0


def _basis_size(n: int, half: int) -> int:
    """ARPACK's Krylov basis for ``n`` nodes under a stencil of half-width
    ``half``: ceil(r) + 4 vectors, r = (n - 1) / half the interval's length
    in kernel widths, kept within [8, 20] (module docstring)."""
    return min(20, max(8, math.ceil((n - 1) / max(half, 1)) + 4))


def _arpack_solve(matvec, n: int, ncv: int) -> tuple[float, np.ndarray, int]:
    """ARPACK from the sine start with an ``ncv``-vector basis, counting
    matvecs.  A fixed ``rng`` makes the random restart after a Krylov
    breakdown reproducible: grids a little longer than one kernel radius
    under a flat stencil are of low rank and still break the Krylov space
    down."""
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigs

    count = 0

    def counted(phi: np.ndarray) -> np.ndarray:
        nonlocal count
        count += 1
        return matvec(phi)

    v0 = np.sin(np.pi * np.arange(n) / (n - 1)) + 1e-3
    v0 /= v0.max()
    op = LinearOperator((n, n), matvec=counted, dtype=float)
    try:
        vals, vecs = eigs(op, k=1, which="LR", v0=v0, ncv=ncv, tol=ARPACK_TOL, rng=0)
    except (ArpackNoConvergence, ArpackError) as exc:
        raise NoConvergence(f"ARPACK failed: {exc}") from exc
    return float(vals[0].real), vecs[:, 0], count


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
    application to ones (``"rank_one"``, 0); the rest go through ARPACK
    (``"arpack"``, ``iterations`` its matvec count).
    """
    if d1 <= 0 or not np.isfinite(d1):
        raise ValueError("d1 must be positive")
    n, h = _grid(interval, dx)
    st = grid_stencil(kernel, h)

    if n < DENSE_THRESHOLD:
        B = _dense_matrix(n, h, d1, st)
        method, apply = "dense", B.__matmul__
        rho, vec, iterations = _dense_solve(B)
    elif _rank_one(n, h, st):
        method, apply = "rank_one", _matvec_factory(n, h, d1, st)
        vec, iterations = np.ones(n), 0
        rho = float(np.mean(apply(vec)))
    else:
        method, apply = "arpack", _matvec_factory(n, h, d1, st)
        rho, vec, iterations = _arpack_solve(apply, n, _basis_size(n, st.half))
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
