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
diagonal, so its Perron root is the eigenvalue of largest real part.  Grids
of DENSE_THRESHOLD nodes or more find it with ARPACK's implicitly restarted
Arnoldi method on the matrix-free operator; smaller grids solve the dense
matrix exactly.  This module imports scipy.sparse.linalg on the ARPACK
path only, at its first call, so a process whose grids all stay below
DENSE_THRESHOLD never loads it.  Translation invariance is exact because
every interval is normalised to left endpoint 0 before discretisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInterval, NoConvergence
from .kernels import GridStencil, ValidatedKernel, grid_convolve, grid_stencil

DENSE_THRESHOLD = 16
RESIDUAL_TOL = 1e-8


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


def _arpack_solve(matvec, n: int) -> tuple[float, np.ndarray, int]:
    """ARPACK from the sine start, counting matvecs.  A fixed ``rng`` makes
    the random restart after a Krylov breakdown (a rank-one operator)
    reproducible."""
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
        vals, vecs = eigs(op, k=1, which="LR", v0=v0, rng=0)
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
    translation invariant.  Grids of DENSE_THRESHOLD nodes or more go
    through ARPACK (``method == "arpack"``, ``iterations`` its matvec
    count); smaller ones through the dense matrix (``"dense"``, 0).
    """
    if d1 <= 0 or not np.isfinite(d1):
        raise ValueError("d1 must be positive")
    n, h = _grid(interval, dx)
    st = grid_stencil(kernel, h)

    if n < DENSE_THRESHOLD:
        B = _dense_matrix(n, h, d1, st)
        method, apply = "dense", B.__matmul__
        rho, vec, iterations = _dense_solve(B)
    else:
        method, apply = "arpack", _matvec_factory(n, h, d1, st)
        rho, vec, iterations = _arpack_solve(apply, n)
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
