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
min/max clamp to [0, 1].  The truncated gaussian's is folded to 0.5 +
scale * math.erf(c * s), c = 1 / (sigma * sqrt(2)), with scale rounded up
from 0.5 / math.erf(c * L0) so that the value is exactly 0 at and beyond
-L0 and exactly 1 at and beyond L0.  It agrees with the difference-of-Phi
form (Phi(s / sigma) - Phi(-L0 / sigma)) / span to within 3 ulp of 1.

Convolution: `grid_convolve` is the one place that picks how a stencil is
applied.  A flat stencil, whose interior taps are all equal and whose two
end taps may be partial (the uniform kernel, or a constant tabulated one),
is applied from one prefix sum of the extended field in O(n) instead of
O(n*m), except where direct correlation measured faster (FLAT_DIRECT):
any field for up to 11 taps, up to 320 nodes for up to 81 taps, up to 96
for up to 161, and never beyond.  A prefix sum over n values of size O(1)
rounds each window sum at the size of the running total, so it loses
about log10(n) digits against a direct sum: up to 6e-14 relative at 3 000
nodes and 4e-13 at 30 000 (random values in [0.5, 1.5], 81 and 2 001
taps, against an extended-precision sum).  A field update multiplies the
convolution by dt*D, which brings the per-step effect back to rounding
level.  The sum runs over the field minus its left extension value, so a
stretch equal to that value (a far field at rest) adds no rounding at
all.  Every other stencil is convolved directly or by a numpy real FFT, by
tap count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    AsymmetricKernel,
    GridTooLarge,
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
# are convolved directly, longer ones by `fft_convolve`.  Direct costs n*m
# multiply-adds, the FFT about (n+m)*log(n+m) plus a fixed overhead.  On a
# 2-vCPU x86-64 VM the crossover was 160-240 taps at n = 20 000, 240-320 at
# n = 2 881 and 1 000-2 000 or more at n = 300 (timings in CHANGES.md).  500
# was the crossover at n = 2 881 for the overlap-add branch this FFT replaced;
# moving it would change output bytes in between.  Only `grid_convolve` reads it.
DIRECT_MAX_TAPS = 500

# A stencil is flat when every tap between its two end taps equals the
# others, and the two end taps each other, to within this absolute
# tolerance (the masses sum to 1, so it is 8 ulps of the unit mass).  The
# uniform kernel's interior taps differ by the rounding of their cell
# covers and by the unit-sum pin on the centre tap: at most 4.6 ulps over
# 40 000 random (L0, dx) pairs with 1 to 2 000 taps.
FLAT_TOL = 8.0 * np.finfo(float).eps

# A flat stencil is still convolved directly where that measured faster
# than the prefix sum: on fields of at most ``nodes`` nodes for stencils of
# at most ``taps`` taps.  Over interleaved calls, edge off and on, direct
# won at every size from 16 to 262 144 nodes up to 11 taps; it first lost
# at 384-768 nodes for 13 to 81 taps, at 160-384 for 121 and 161, and at
# 24-256 from 241 taps on.  The table is in CHANGES.md.
FLAT_DIRECT = ((11, math.inf), (81, 320), (161, 96))

# Most nodes of any grid the package allocates: a stencil, an eigensolver
# interval, an initial simulation window or a grown window.  One float array
# of this size is 8 MB, and the Krylov basis, at most 21 vectors, 168 MB.
MAX_GRID_NODES = 10**6


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
    ``direct_up_to`` is the longest field convolved directly: a flat
    stencil's FLAT_DIRECT limit (0 when its taps are past the table), and
    inf for any other stencil.  ``reversed_masses`` is a contiguous copy of
    ``masses`` in reverse order, the operand of the direct convolution's
    correlate call.
    """

    half: int
    masses: np.ndarray
    cover: np.ndarray
    densities: np.ndarray
    mass_correction: float
    box: tuple[float, float] | None
    direct_up_to: float
    reversed_masses: np.ndarray = field(repr=False)


def _closed_form(spec: KernelSpec) -> ValidatedKernel:
    L0 = spec.L0
    if L0 is None or not np.isfinite(L0) or L0 <= 0:
        raise ValueError(f"kernel form {spec.form!r} needs a support radius L0 > 0")

    if spec.form == "uniform":
        peak = 0.5 / L0

        def ev(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) <= L0, peak, 0.0)

        # np.minimum(np.maximum(...)) in the cdfs is np.clip without the
        # wrapper's overhead, which dominates on the short flux arrays.
        def cdf(s):
            s = np.asarray(s, dtype=float)
            return np.minimum(np.maximum((s + L0) / (2.0 * L0), 0.0), 1.0)

    elif spec.form == "triangular":
        peak = 1.0 / L0

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
        sig = spec.sigma
        if sig is None or not np.isfinite(sig) or sig <= 0:
            raise ValueError("truncated_gaussian needs sigma > 0")
        # erf(c * L0) keeps the digits that Phi(L0/sig) - Phi(-L0/sig) cancels
        c = 1.0 / (sig * math.sqrt(2.0))
        edge = math.erf(c * L0)
        if edge == 0.0:  # c * L0 underflows, and the norm is 0 with it
            raise ValueError(f"kernel form {spec.form!r} has density inf at the origin")
        norm = sig * math.sqrt(2.0 * math.pi) * edge
        if math.isinf(norm):  # sig above about 7.2e307; finite cases keep their bits
            norm = sig * (math.sqrt(2.0 * math.pi) * edge)
        peak = 1.0 / norm

        def ev(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) <= L0, np.exp(-0.5 * (x / sig) ** 2) / norm, 0.0)

        # scale * erf(c * L0) >= 0.5 after rounding, so the clamped value is
        # exactly 0 and 1 at and beyond -L0 and L0 (erf is odd and does not
        # decrease)
        scale = 0.5 / edge
        while scale * edge < 0.5:
            scale = math.nextafter(scale, math.inf)

        # erf mapped over c * s, then scaled and clamped in place.  Input other
        # than a 1-D float64 array (the flux offsets) runs flat in float64 and
        # takes its shape back; [()] makes a 0-d result a numpy scalar, as the
        # other cdfs return for a scalar s
        def cdf(s):
            shape = None
            if type(s) is not np.ndarray or s.ndim != 1 or s.dtype != np.float64:
                s = np.asarray(s, dtype=float)
                shape, s = s.shape, s.ravel()
            z = np.fromiter(map(math.erf, (s * c).tolist()), float, s.size)
            z *= scale
            z += 0.5
            np.maximum(z, 0.0, out=z)
            np.minimum(z, 1.0, out=z)
            return z if shape is None else z.reshape(shape)[()]

    # the density at the origin overflows for a subnormal L0 or sigma
    if not 0.0 < peak < math.inf:
        raise ValueError(f"kernel form {spec.form!r} has density {peak} at the origin")
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


def check_grid_size(count: float, what: str) -> None:
    """Raise GridTooLarge when ``what`` needs more than MAX_GRID_NODES nodes.

    ``count`` is a float computed before any conversion to int, so an
    extent / spacing ratio that overflows to inf, or is NaN, raises too.
    """
    if not count <= MAX_GRID_NODES:
        raise GridTooLarge(f"{what} needs {count:.3g} nodes, more than {MAX_GRID_NODES}")


def cell_weights(nodes: np.ndarray, dx: float, a: float, b: float) -> np.ndarray:
    """Length of each node cell covered by [a, b].

    Reduces to trapezoid weights (half cells at the ends) when [a, b] ends
    on nodes; partial cells get their covered fraction.
    """
    lo = np.maximum(nodes - 0.5 * dx, a)
    hi = np.minimum(nodes + 0.5 * dx, b)
    return np.maximum(hi - lo, 0.0)


def grid_stencil(kernel: ValidatedKernel, dx: float) -> GridStencil:
    """Discrete kernel masses on cells of width dx, normalised to unit sum.

    Cells intersecting the support edge are weighted by the covered length;
    tails below TAIL_FLOOR of the peak are dropped.  The raw discrete mass
    is divided out (and reported) so convolution preserves constants.

    Each cell's density is taken at the midpoint of its covered part, not at
    its node: a node can land a few ulps outside the support while most of
    its cell is inside, and the midpoint keeps such edge cells robust.
    """
    if dx <= 0 or not np.isfinite(dx):
        raise ValueError("dx must be positive")
    R = kernel.support_radius
    check_grid_size(2.0 * R / dx + 1.0,
                    f"a {kernel.form} stencil of radius {R:g} at spacing {dx:g}")
    half = int(math.ceil(R / dx + 0.5)) - 1  # R / dx > 0, so half >= 0
    offsets = np.arange(-half, half + 1) * dx
    lo = np.maximum(offsets - 0.5 * dx, -R)
    hi = np.minimum(offsets + 0.5 * dx, R)
    cover = np.minimum(np.maximum(hi - lo, 0.0), dx)
    vals = np.asarray(kernel.evaluate(np.where(cover > 0, 0.5 * (lo + hi), offsets)), dtype=float)

    keep = np.nonzero(vals >= TAIL_FLOOR * vals[half])[0]
    trim = int(min(keep[0], 2 * half - keep[-1]))
    if trim > 0:
        cover = cover[trim:-trim]
        vals = vals[trim:-trim]
        half -= trim

    masses = vals * cover
    raw_mass = float(masses.sum())
    if not 0 < raw_mass < math.inf:  # also catches NaN
        raise ZeroMass(f"kernel stencil has discrete mass {raw_mass}")
    masses = masses / raw_mass
    masses[half] += 1.0 - masses.sum()  # pin the sum to exactly 1
    densities = np.where(cover > 0, masses / np.maximum(cover, 1e-300), 0.0)
    box, direct_up_to = None, math.inf
    inner = masses[1:-1]
    if half > 0 and inner.max() - inner.min() <= FLAT_TOL and abs(masses[-1] - masses[0]) <= FLAT_TOL:
        end = float(masses[0])
        box = ((1.0 - 2.0 * end) / (2 * half - 1), end)
        direct_up_to = max((nodes for taps, nodes in FLAT_DIRECT if masses.size <= taps), default=0)
    return GridStencil(
        half=half,
        masses=masses,
        cover=cover,
        densities=densities,
        mass_correction=raw_mass,
        box=box,
        direct_up_to=direct_up_to,
        reversed_masses=masses[::-1].copy(),
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
    c = np.add.accumulate(ext)
    out = c[2 * half - 1 : 2 * half - 1 + n] - c[:n]  # sums of ext[j+1 : j+2*half]
    out *= inner
    ends = ext[:n] + ext[2 * half :]
    ends *= end
    out += ends
    if left != 0.0:
        out += left
    return out


def _fast_len(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n: a length numpy's FFT takes fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def fft_convolve(values: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Full linear convolution by numpy's real FFT at a 5-smooth length."""
    full = values.size + masses.size - 1
    size = _fast_len(full)
    return np.fft.irfft(np.fft.rfft(values, size) * np.fft.rfft(masses, size), size)[:full]


def grid_convolve(values: np.ndarray, stencil: GridStencil, edge: bool = False) -> np.ndarray:
    """Same-length discrete convolution of cell-weighted samples with a stencil.

    Output j is centred on input j, also when the stencil is longer than
    the field.  Beyond its ends the field is zero, or with ``edge`` it
    continues its end values.  A flat stencil (``stencil.box``) is applied
    from a prefix sum in O(n) on fields longer than
    ``stencil.direct_up_to`` nodes and directly on shorter ones; any other
    stencil directly up to DIRECT_MAX_TAPS taps and by `fft_convolve`
    beyond.

    The direct path calls ``np.correlate(values, stencil.reversed_masses,
    mode)``, which is the correlation np.convolve itself runs, less its
    Python wrapper and its per-call reversal of the masses.  A field
    shorter than the stencil keeps np.convolve, whose "same" output would
    take the stencil's length.
    """
    masses, half, n = stencil.masses, stencil.half, values.size
    ends = (values[0], values[-1]) if edge else (0.0, 0.0)
    if n > stencil.direct_up_to:
        return _box_convolve(values, half, *stencil.box, *ends)
    if edge:
        ext = np.empty(n + 2 * half)
        ext[:half] = ends[0]
        ext[half : half + n] = values
        ext[half + n :] = ends[1]
        values, mode = ext, "valid"
    else:
        mode = "same"
    if masses.size > DIRECT_MAX_TAPS:  # output j is full[j + half], on ext full[j + 2*half]
        start = 2 * half if edge else half
        return fft_convolve(values, masses)[start : start + n]
    if values.size < masses.size:  # np.convolve's "same" keeps the longer length
        return np.convolve(values, masses, mode="full")[half : half + n]
    return np.correlate(values, stencil.reversed_masses, mode)

