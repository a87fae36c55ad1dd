"""Dispersal kernels: validated densities, cumulative mass, grid quadrature.

A dispersal kernel is an even, nonnegative, bounded probability density
with a strictly positive value at the origin and a finite declared support
radius.  Every downstream consumer (the interval eigensolver, the field
convolutions, the front flux laws) sees kernels only through this module,
so validation, the cumulative-mass function and the discrete stencil
construction are centralised here.

Quadrature convention: node j owns the cell [x_j - dx/2, x_j + dx/2].  An
integral over an interval weights each node by the length of its cell that
the interval covers, which reproduces the composite trapezoid rule when
the interval ends on nodes and stays exact for piecewise-constant
integrands when it does not.  Discrete stencils are renormalised to exact
unit mass so that convolving a constant field returns that constant to
rounding accuracy.

Cumulative mass: every `cdf` is one elementwise expression followed by a
min/max clamp to [0, 1].  The truncated gaussian's is folded to
0.5 + scale * erf(c * s), c = 1 / (sigma * sqrt(2)), with scale rounded up
from 0.5 / erf(c * L0) so that the value is exactly 0 at and beyond -L0
and exactly 1 at and beyond L0.  It agrees with the difference-of-Phi form
(Phi(s / sigma) - Phi(-L0 / sigma)) / span to within 3 ulp of 1.

Convolution: `grid_convolve` is the one place that picks how a stencil is
applied.  A flat stencil, whose interior taps are all equal and whose two
end taps may be partial (the uniform kernel, or a constant tabulated one),
is applied from one prefix sum of the extended field in O(n) instead of
O(n*m).  A prefix sum over n values of size O(1) rounds each window sum at
the size of the running total, so it loses about log10(n) digits against a
direct sum: up to 6e-14 relative at 3 000 nodes and 4e-13 at 30 000
(random values in [0.5, 1.5], 81 and 2 001 taps, against an
extended-precision sum).  A field update multiplies the convolution by
dt*D, which brings the per-step effect back to rounding level.  The sum
runs over the field minus its left extension value, so a stretch equal
to that value (a far field at rest) adds no rounding at all.  Every other stencil is convolved directly
or by overlap-add FFT, by tap count.

Imports: scipy is loaded only by the branch that runs it.  The FFT
branch of `grid_convolve` (over DIRECT_MAX_TAPS taps, not flat) imports
scipy.signal on its first call; validating a truncated gaussian imports
scipy.special, whose `erf` its `cdf` keeps bound, so no step imports
anything.  Uniform, triangular and tabulated kernels load neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    AsymmetricKernel,
    NegativeDensity,
    ZeroAtOrigin,
    ZeroMass,
)

# Stencil cells whose density falls below this fraction of the peak are
# truncated from convolutions.
TAIL_FLOOR = 1e-12

# Relative tolerance for the symmetry probe of tabulated kernels.
SYMMETRY_TOL = 1e-12

CLOSED_FORMS = ("uniform", "triangular", "truncated_gaussian")

# Stencils that are not flat (see FLAT_TOL) and have at most this many taps
# are convolved directly, longer ones by overlap-add FFT.  Direct convolution
# costs n*m multiply-adds, overlap-add about n*log(m) plus a fixed overhead.
# On a 2-vCPU x86-64 VM the crossover was near 160 taps at n = 20 000,
# 400-500 at n = 2 881 and above 2 000 at n = 300 (timings in CHANGES.md).
# 500 is the crossover for windows of a few thousand nodes, the size long
# spreading runs reach.  Only `grid_convolve` consults it.
DIRECT_MAX_TAPS = 500

# A stencil is flat when every tap between its two end taps equals the
# others, and the two end taps each other, to within this absolute
# tolerance (the masses sum to 1, so it is 8 ulps of the unit mass).  The
# uniform kernel's interior taps differ by the rounding of their cell
# covers and by the unit-sum pin on the centre tap: at most 4.6 ulps over
# 40 000 random (L0, dx) pairs with 1 to 2 000 taps.
FLAT_TOL = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class KernelSpec:
    """Declarative kernel description, prior to validation.

    ``form`` is one of ``uniform``, ``triangular``, ``truncated_gaussian``
    or ``tabulated``.  Closed forms carry a support radius ``L0`` (and the
    gaussian a scale ``sigma``); tabulated kernels carry an (n, 2) table of
    (x, density) samples with strictly increasing x.
    """

    form: str
    L0: float | None = None
    sigma: float | None = None
    table: np.ndarray | None = None

    @staticmethod
    def uniform(L0: float) -> "KernelSpec":
        return KernelSpec(form="uniform", L0=float(L0))

    @staticmethod
    def triangular(L0: float) -> "KernelSpec":
        return KernelSpec(form="triangular", L0=float(L0))

    @staticmethod
    def truncated_gaussian(sigma: float, L0: float) -> "KernelSpec":
        return KernelSpec(form="truncated_gaussian", L0=float(L0), sigma=float(sigma))

    @staticmethod
    def tabulated(table: np.ndarray) -> "KernelSpec":
        return KernelSpec(form="tabulated", table=np.asarray(table, dtype=float))


@dataclass(frozen=True)
class ValidatedKernel:
    """A kernel that passed validation, with density and cumulative mass.

    ``evaluate`` is the density (1/length), ``cdf`` the cumulative mass in
    [0, 1]; both accept scalars or arrays.  ``renorm_factor`` records the
    factor applied to bring a tabulated kernel to unit mass (1.0 for closed
    forms).
    """

    form: str
    support_radius: float
    evaluate: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    cdf: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    renorm_factor: float = 1.0


@dataclass(frozen=True)
class GridStencil:
    """Discrete kernel at spacing dx: per-cell masses with exact unit sum.

    ``masses[k]`` is the mass the kernel assigns to the cell around offset
    (k - half) * dx; ``cover[k]`` is the length of that cell inside the
    support; ``densities = masses / cover``.  ``mass_correction`` is the
    raw discrete mass divided out during normalisation.  ``box`` holds the
    (inner, end) tap weights of a flat stencil, with
    (2 * half - 1) * inner + 2 * end = 1, and is None for any other stencil.
    """

    half: int
    masses: np.ndarray
    cover: np.ndarray
    densities: np.ndarray
    mass_correction: float
    box: tuple[float, float] | None


def _closed_form(spec: KernelSpec) -> ValidatedKernel:
    L0 = spec.L0
    if L0 is None or not np.isfinite(L0) or L0 <= 0:
        raise ValueError(f"kernel form {spec.form!r} needs a support radius L0 > 0")

    if spec.form == "uniform":
        height = 0.5 / L0

        def ev(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) <= L0, height, 0.0)

        # np.minimum(np.maximum(...)) in the cdfs is np.clip without the
        # wrapper's overhead, which dominates on the short flux arrays.
        def cdf(s):
            s = np.asarray(s, dtype=float)
            return np.minimum(np.maximum((s + L0) / (2.0 * L0), 0.0), 1.0)

    elif spec.form == "triangular":

        def ev(x):
            x = np.asarray(x, dtype=float)
            return np.maximum(0.0, 1.0 - np.abs(x) / L0) / L0

        def cdf(s):
            s = np.asarray(s, dtype=float)
            s = np.minimum(np.maximum(s, -L0), L0)
            left = (s + L0) ** 2 / (2.0 * L0 * L0)
            right = 1.0 - (L0 - s) ** 2 / (2.0 * L0 * L0)
            return np.where(s <= 0.0, left, right)

    elif spec.form == "truncated_gaussian":
        from scipy.special import erf

        def _phi(z):
            """Standard normal CDF."""
            return 0.5 * (1.0 + erf(z / math.sqrt(2.0)))

        sig = spec.sigma
        if sig is None or not np.isfinite(sig) or sig <= 0:
            raise ValueError("truncated_gaussian needs sigma > 0")
        norm = sig * math.sqrt(2.0 * math.pi) * (_phi(L0 / sig) - _phi(-L0 / sig))

        def ev(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) <= L0, np.exp(-0.5 * (x / sig) ** 2) / norm, 0.0)

        # scale * erf(c * L0) >= 0.5 after rounding, so the clamped value is
        # exactly 0 and 1 at and beyond -L0 and L0 (erf is odd and does not
        # decrease)
        c = 1.0 / (sig * math.sqrt(2.0))
        edge = float(erf(c * L0))
        scale = 0.5 / edge
        while scale * edge < 0.5:
            scale = math.nextafter(scale, math.inf)

        def cdf(s):
            return np.minimum(np.maximum(0.5 + scale * erf(c * np.asarray(s, dtype=float)), 0.0), 1.0)

    else:  # pragma: no cover - guarded by caller
        raise ValueError(f"unknown kernel form {spec.form!r}")

    return ValidatedKernel(form=spec.form, support_radius=float(L0), evaluate=ev, cdf=cdf)


def _tabulated(spec: KernelSpec, grid_resolution: float) -> ValidatedKernel:
    table = spec.table
    if table is None:
        raise ValueError("tabulated kernel needs a sample table")
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 2:
        raise ValueError("kernel table must be an (n, 2) array with n >= 2")
    xs, ys = table[:, 0].copy(), table[:, 1].copy()
    if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(ys)):
        raise ValueError("kernel table contains non-finite entries")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("kernel table x values must be strictly increasing")

    peak = float(ys.max(initial=0.0))
    if np.any(ys < -SYMMETRY_TOL * max(peak, 1.0)):
        raise NegativeDensity("tabulated kernel has negative density samples")
    ys = np.maximum(ys, 0.0)

    radius = float(max(abs(xs[0]), abs(xs[-1])))
    if radius <= 0:
        raise ValueError("tabulated kernel has empty support")

    def raw(x):
        return np.interp(np.asarray(x, dtype=float), xs, ys, left=0.0, right=0.0)

    # Symmetry probe on the sample abscissae, their mirrors and midpoints.
    probes = np.unique(np.concatenate([xs, -xs, 0.5 * (xs[1:] + xs[:-1])]))
    if grid_resolution > 0:
        n_extra = int(min(4096, 2 * radius / grid_resolution)) + 1
        probes = np.unique(np.concatenate([probes, np.linspace(-radius, radius, n_extra)]))
    asym = np.max(np.abs(raw(probes) - raw(-probes)), initial=0.0)
    if asym > SYMMETRY_TOL * max(peak, 1e-300):
        raise AsymmetricKernel(f"tabulated kernel asymmetric by {asym:.3e}")

    if raw(0.0) <= 0.0:
        raise ZeroAtOrigin("tabulated kernel density at the origin is not positive")

    mass = float(np.trapezoid(ys, xs))
    if mass <= 1e-12:
        raise ZeroMass(f"tabulated kernel mass {mass:.3e} is numerically zero")
    factor = 1.0 / mass
    ys_n = ys * factor

    def ev(x):
        return np.interp(np.asarray(x, dtype=float), xs, ys_n, left=0.0, right=0.0)

    cum = np.concatenate([[0.0], np.cumsum(0.5 * (ys_n[1:] + ys_n[:-1]) * np.diff(xs))])
    cum /= cum[-1]  # exact 1 at the right edge despite rounding

    def cdf(s):
        c = np.interp(np.asarray(s, dtype=float), xs, cum, left=0.0, right=1.0)
        return np.minimum(np.maximum(c, 0.0), 1.0)

    return ValidatedKernel(
        form="tabulated",
        support_radius=radius,
        evaluate=ev,
        cdf=cdf,
        renorm_factor=factor,
    )


def validate_kernel(spec: KernelSpec, grid_resolution: float) -> ValidatedKernel:
    """Validate a kernel spec and return the usable kernel.

    Closed forms are exact by construction; tabulated kernels are checked
    for symmetry, nonnegativity, positive origin value and nonzero mass,
    and are renormalised to unit mass (`renorm_factor` reports the factor).
    """
    if grid_resolution <= 0 or not np.isfinite(grid_resolution):
        raise ValueError("grid_resolution must be positive")
    if spec.form in CLOSED_FORMS:
        return _closed_form(spec)
    if spec.form == "tabulated":
        return _tabulated(spec, grid_resolution)
    raise ValueError(f"unknown kernel form {spec.form!r}")


def cell_weights(nodes: np.ndarray, dx: float, a: float, b: float) -> np.ndarray:
    """Length of each node cell covered by [a, b].

    Reduces to trapezoid weights (half cells at the ends) when [a, b] ends
    on nodes; partial cells get their covered fraction.
    """
    lo = np.maximum(nodes - 0.5 * dx, a)
    hi = np.minimum(nodes + 0.5 * dx, b)
    return np.maximum(hi - lo, 0.0)


def _clipped_cells(offsets: np.ndarray, dx: float, R: float):
    """Covered length and covered-part midpoint of each cell inside [-R, R].

    Evaluating the density at the covered midpoint instead of the node keeps
    support-edge cells robust against rounding (a node can land a few ulps
    outside the support while most of its cell is inside).
    """
    lo = np.maximum(offsets - 0.5 * dx, -R)
    hi = np.minimum(offsets + 0.5 * dx, R)
    cover = np.clip(hi - lo, 0.0, dx)
    mids = np.where(cover > 0, 0.5 * (lo + hi), offsets)
    return cover, mids


def grid_stencil(kernel: ValidatedKernel, dx: float) -> GridStencil:
    """Discrete kernel masses on cells of width dx, normalised to unit sum.

    Cells intersecting the support edge are weighted by the covered length;
    tails below TAIL_FLOOR of the peak are dropped.  The raw discrete mass
    is divided out (and reported) so convolution preserves constants.
    """
    if dx <= 0 or not np.isfinite(dx):
        raise ValueError("dx must be positive")
    R = kernel.support_radius
    half = int(math.ceil(R / dx + 0.5)) - 1
    half = max(half, 0)
    offsets = np.arange(-half, half + 1) * dx
    cover, mids = _clipped_cells(offsets, dx, R)
    vals = np.asarray(kernel.evaluate(mids), dtype=float)

    peak = vals[half]
    keep = np.nonzero(vals >= TAIL_FLOOR * peak)[0]
    trim = int(min(keep[0], 2 * half - keep[-1]))
    if trim > 0:
        offsets = offsets[trim:-trim]
        cover = cover[trim:-trim]
        vals = vals[trim:-trim]
        half -= trim

    masses = vals * cover
    raw_mass = float(masses.sum())
    if raw_mass <= 0:
        raise ZeroMass("kernel stencil has zero discrete mass")
    masses = masses / raw_mass
    masses[half] += 1.0 - masses.sum()  # pin the sum to exactly 1
    with np.errstate(divide="ignore", invalid="ignore"):
        densities = np.where(cover > 0, masses / np.maximum(cover, 1e-300), 0.0)
    box = None
    if half > 0 and np.ptp(masses[1:-1]) <= FLAT_TOL and abs(masses[-1] - masses[0]) <= FLAT_TOL:
        end = float(masses[0])
        box = ((1.0 - 2.0 * end) / (2 * half - 1), end)
    return GridStencil(
        half=half,
        masses=masses,
        cover=cover,
        densities=densities,
        mass_correction=raw_mass,
        box=box,
    )


def _box_convolve(
    values: np.ndarray, half: int, inner: float, end: float, left: float, right: float
) -> np.ndarray:
    """Convolution of ``values``, extended by ``half`` copies of ``left``
    before and of ``right`` after, with the flat stencil (end, inner, ...,
    inner, end) of 2 * half + 1 taps, from one prefix sum.

    The prefix sum runs over values - left, so a stretch equal to ``left``
    (a far field) leaves the running total, and its rounding, unchanged.
    """
    n = values.size
    ext = np.zeros(n + 2 * half)
    np.subtract(values, left, out=ext[half : half + n])
    if right != left:
        ext[half + n :] = right - left
    c = np.cumsum(ext)
    out = c[2 * half - 1 : 2 * half - 1 + n] - c[:n]  # sums of ext[j+1 : j+2*half]
    out *= inner
    ends = ext[:n] + ext[2 * half :]
    ends *= end
    out += ends
    if left != 0.0:
        out += left
    return out


def grid_convolve(values: np.ndarray, stencil: GridStencil, edge: bool = False) -> np.ndarray:
    """Same-length discrete convolution of cell-weighted samples with a stencil.

    Output j is centred on input j, also when the stencil is longer than
    the field.  Beyond its ends the field is zero, or with ``edge`` it
    continues its end values.  A flat stencil (``stencil.box``) is applied
    from a prefix sum in O(n); any other one directly up to
    DIRECT_MAX_TAPS taps and by overlap-add FFT beyond.
    """
    masses, half = stencil.masses, stencil.half
    ends = (values[0], values[-1]) if edge else (0.0, 0.0)
    if stencil.box is not None:
        return _box_convolve(values, half, *stencil.box, *ends)
    if edge:
        values = np.concatenate([np.full(half, ends[0]), values, np.full(half, ends[1])])
        mode = "valid"
    else:
        mode = "same"
    if masses.size > DIRECT_MAX_TAPS:
        from scipy.signal import oaconvolve

        return oaconvolve(values, masses, mode=mode)
    if values.size < masses.size:  # np.convolve's "same" keeps the longer length
        return np.convolve(values, masses, mode="full")[half : half + values.size]
    return np.convolve(values, masses, mode=mode)

