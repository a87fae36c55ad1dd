import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from nlinvade.errors import GridTooLarge, ZeroMass
from nlinvade import kernels
from nlinvade.kernels import (
    DIRECT_MAX_TAPS,
    KernelSpec,
    cell_weights,
    grid_convolve,
    grid_stencil,
    validate_kernel,
)

DX = 0.025


def uniform_kernel(L0=1.0):
    return validate_kernel(KernelSpec.uniform(L0), DX)


def gaussian_kernel(sigma=1.0, L0=2.0):
    return validate_kernel(KernelSpec.truncated_gaussian(sigma, L0), DX)


def gaussian_table(n=401, sigma=0.5, radius=1.5):
    xs = np.linspace(-radius, radius, n)
    ys = np.exp(-0.5 * (xs / sigma) ** 2)
    return np.column_stack([xs, ys])


class TestValidation:
    def test_uniform_is_valid(self):
        k = uniform_kernel()
        assert k.support_radius == 1.0
        assert k.evaluate(0.0) == 0.5
        assert k.evaluate(1.0) == 0.5
        assert k.evaluate(1.0001) == 0.0
        assert k.renorm_factor == 1.0

    def test_triangular_is_valid(self):
        k = validate_kernel(KernelSpec.triangular(2.0), DX)
        assert k.evaluate(0.0) == 0.5
        assert k.evaluate(2.0) == 0.0
        assert k.cdf(0.0) == 0.5

    def test_one_sided_table_is_asymmetric(self):
        xs = np.linspace(0.0, 2.0, 101)
        table = np.column_stack([xs, np.full_like(xs, 0.5)])
        with pytest.raises(ValueError, match="^tabulated kernel asymmetric by 5.000e-01$"):
            validate_kernel(KernelSpec.tabulated(table), DX)

    def test_tabulated_renormalisation_factor(self):
        table = gaussian_table()
        raw_mass = np.trapezoid(table[:, 1], table[:, 0])
        table[:, 1] *= 0.9999 / raw_mass  # trapezoid mass exactly 0.9999
        k = validate_kernel(KernelSpec.tabulated(table), DX)
        assert k.renorm_factor == pytest.approx(1.0 / 0.9999, rel=1e-12)
        probe = np.linspace(-1.5, 1.5, 20001)
        mass = np.trapezoid(k.evaluate(probe), probe)
        assert mass == pytest.approx(1.0, abs=1e-7)

    def test_negative_density_rejected(self):
        table = gaussian_table()
        table[200, 1] = -0.2
        with pytest.raises(ValueError, match="^tabulated kernel has negative density samples$"):
            validate_kernel(KernelSpec.tabulated(table), DX)

    def test_zero_at_origin_rejected(self):
        xs = np.linspace(-1.0, 1.0, 201)
        ys = np.abs(xs)  # symmetric, vanishes at 0
        with pytest.raises(ValueError, match="^tabulated kernel density at the origin is not positive$"):
            validate_kernel(KernelSpec.tabulated(np.column_stack([xs, ys])), DX)

    def test_zero_mass_rejected(self):
        xs = np.array([-1e-300, 1e-300])
        ys = np.array([1.0, 1.0])
        with pytest.raises(ValueError, match="^tabulated kernel mass 2.000e-300 is numerically zero$"):
            validate_kernel(KernelSpec.tabulated(np.column_stack([xs, ys])), DX)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            validate_kernel(KernelSpec.uniform(-1.0), DX)
        with pytest.raises(ValueError):
            validate_kernel(KernelSpec(form="truncated_gaussian", L0=1.0), DX)
        with pytest.raises(ValueError):
            validate_kernel(KernelSpec(form="nope", L0=1.0), DX)

    # a subnormal L0 or sigma overflows the height at the origin; a sigma so
    # far above a tiny L0 that the erf argument underflows makes the
    # gaussian's normaliser, and the cdf's edge value, 0
    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec.uniform(1e-320),
            KernelSpec.triangular(5e-324),
            KernelSpec.truncated_gaussian(1.0, 1e-310),
            KernelSpec.truncated_gaussian(1e-310, 1.0),
            KernelSpec.truncated_gaussian(1e300, 1e-30),
            KernelSpec.truncated_gaussian(1e307, 1e-20),
        ],
    )
    def test_origin_density_must_be_finite(self, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at the origin"):
                validate_kernel(spec, DX)

    def test_triangular_cdf_scale_must_not_underflow(self):
        # 2 L0**2 rounds to 0 at L0 = 1.1e-162, and to the least subnormal
        # at 1.2e-162
        with pytest.raises(ValueError, match="^kernel form 'triangular' with L0 = 1.1e-162 has cdf"):
            validate_kernel(KernelSpec.triangular(1.1e-162), DX)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = validate_kernel(KernelSpec.triangular(1.2e-162), DX)
        assert k.cdf(-1.2e-162) == 0.0 and k.cdf(1.2e-162) == 1.0

    def test_narrow_gaussian_stencil_without_warning(self):
        # (x / sigma) ** 2 overflows away from the origin; the density is 0 there
        k = gaussian_kernel(sigma=1e-300, L0=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stencil = grid_stencil(k, DX)
            assert k.evaluate(np.array([0.5, -1.0])).tolist() == [0.0, 0.0]
        assert stencil.masses.sum() == 1.0

    def test_near_flat_gaussian_is_valid(self):
        # sigma / L0 = 1e300: the normaliser sigma * sqrt(2 pi) * erf(c * L0)
        # keeps its digits where a difference of two normal cdfs rounds to 0;
        # at 1e308 sigma * sqrt(2 pi) overflows, and the other grouping does not;
        # from about 1.27e308 sigma * sqrt(2) overflows too, and c is formed
        # without it, up to the largest float
        for sigma in (1e300, 1e308, 1.27e308, 1.7e308, np.finfo(float).max):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                k = validate_kernel(KernelSpec.truncated_gaussian(sigma, 1.0), DX)
                assert abs(k.evaluate(0.0) - 0.5) <= 1e-12
                assert grid_stencil(k, DX).box is not None

    @pytest.mark.parametrize("table, message", [
        (None, "needs a sample table"),
        (np.array([0.0, 1.0]), "must be an \\(n, 2\\) array"),
        (np.array([[0.0, 1.0]]), "must be an \\(n, 2\\) array"),
        (np.array([[-1.0, 0.5], [0.0, np.nan], [1.0, 0.5]]), "non-finite"),
        (np.array([[-1.0, 0.5], [np.inf, 0.5]]), "non-finite"),
    ], ids=["none", "flat", "one_row", "nan", "inf"])
    def test_malformed_table_rejected(self, table, message):
        with pytest.raises(ValueError, match=message):
            validate_kernel(KernelSpec(form="tabulated", table=table), DX)

    def test_non_increasing_table_rejected(self):
        table = np.array([[-1.0, 0.5], [-1.0, 0.5], [1.0, 0.5]])
        with pytest.raises(ValueError):
            validate_kernel(KernelSpec.tabulated(table), DX)


class TestCdf:
    def test_uniform_values(self):
        k = uniform_kernel()
        assert k.cdf(0.0) == 0.5
        assert k.cdf(-1.0) == 0.0
        assert k.cdf(-0.5) == 0.25
        assert k.cdf(5.0) == 1.0
        assert k.cdf(-5.0) == 0.0

    @pytest.mark.parametrize(
        "make",
        [uniform_kernel, gaussian_kernel, lambda: validate_kernel(KernelSpec.triangular(1.5), DX)],
    )
    def test_cdf_edges_and_monotone(self, make):
        k = make()
        R = k.support_radius
        assert k.cdf(-R) == pytest.approx(0.0, abs=1e-15)
        assert k.cdf(R) == pytest.approx(1.0, abs=1e-15)
        assert k.cdf(0.0) == pytest.approx(0.5, abs=1e-12)
        s = np.linspace(-1.2 * R, 1.2 * R, 501)
        vals = k.cdf(s)
        assert np.all(np.diff(vals) >= -1e-15)

    @given(st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=100, deadline=None)
    def test_mass_symmetry(self, s):
        k = gaussian_kernel()
        assert k.cdf(s) + k.cdf(-s) == pytest.approx(1.0, abs=5e-12)

    def test_tabulated_cdf_quadrature(self):
        k = validate_kernel(KernelSpec.tabulated(gaussian_table()), DX)
        assert k.cdf(0.0) == pytest.approx(0.5, abs=1e-12)
        assert k.cdf(k.support_radius) == 1.0
        assert k.cdf(-k.support_radius) == 0.0


def clip_form_cdf(spec):
    """The cdf of each kernel form written with np.clip, as a reference."""
    L0, sig = spec.L0, spec.sigma
    if spec.form == "uniform":
        return lambda s: np.clip((np.asarray(s, dtype=float) + L0) / (2.0 * L0), 0.0, 1.0)
    if spec.form == "triangular":
        def cdf(s):
            s = np.clip(np.asarray(s, dtype=float), -L0, L0)
            left = (s + L0) ** 2 / (2.0 * L0 * L0)
            right = 1.0 - (L0 - s) ** 2 / (2.0 * L0 * L0)
            return np.where(s <= 0.0, left, right)
        return cdf
    if spec.form == "truncated_gaussian":
        phi = lambda z: 0.5 * (1.0 + erf(z / math.sqrt(2.0)))
        plo = phi(-L0 / sig)
        span = phi(L0 / sig) - plo
        return lambda s: np.clip(
            (phi(np.clip(np.asarray(s, dtype=float), -L0, L0) / sig) - plo) / span, 0.0, 1.0)
    xs, ys = spec.table[:, 0], np.maximum(spec.table[:, 1], 0.0)
    ys = ys * (1.0 / float(np.trapezoid(ys, xs)))
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))])
    cum /= cum[-1]
    return lambda s: np.clip(np.interp(np.asarray(s, dtype=float), xs, cum, left=0.0, right=1.0),
                             0.0, 1.0)


CDF_SPECS = {
    "uniform": KernelSpec.uniform(1.0),
    "triangular": KernelSpec.triangular(1.5),
    "gaussian": KernelSpec.truncated_gaussian(1.0, 2.0),
    "tabulated": KernelSpec.tabulated(gaussian_table()),
}
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]


# the folded truncated-gaussian cdf against the difference-of-Phi form
GAUSSIAN_ULPS = 2.0 * np.finfo(float).eps


class TestCdfMatchesClipForm:
    @pytest.mark.parametrize("form", sorted(CDF_SPECS))
    def test_bit_identical(self, form):
        """Byte equality with the clip form, except that the folded gaussian
        cdf matches it to 2 ulp of 1 and exactly on SPECIAL and at and
        beyond the support edges."""
        spec = CDF_SPECS[form]
        cdf, ref = validate_kernel(spec, DX).cdf, clip_form_cdf(spec)
        R = validate_kernel(spec, DX).support_radius
        exact = [*SPECIAL, -R, R, -2.0 * R, 2.0 * R]
        arrays = [
            np.linspace(-1.5 * R, 1.5 * R, 1001),
            np.random.default_rng(7).normal(0.0, R, 500),
            np.array(SPECIAL + [-R, R, 0.5 * R]),
        ]
        for s in [*exact, 0.3 * R, *arrays]:
            got, want = cdf(s), ref(s)
            assert type(got) is type(want)
        for s in exact:
            assert np.asarray(cdf(s)).tobytes() == np.asarray(ref(s)).tobytes()
        for s in [0.3 * R, *arrays]:
            got, want = np.asarray(cdf(s)), np.asarray(ref(s))
            if form == "gaussian":
                assert np.array_equal(np.isnan(got), np.isnan(want))
                assert np.nanmax(np.abs(got - want)) <= GAUSSIAN_ULPS
            else:
                assert got.tobytes() == want.tobytes()
        if form == "gaussian":
            beyond = R * np.linspace(1.0, 5.0, 1001)
            assert np.array_equal(cdf(beyond), ref(beyond))
            assert np.array_equal(cdf(-beyond), ref(-beyond))
            s = np.random.default_rng(8).uniform(-1.2 * R, 1.2 * R, 200_000)
            assert np.max(np.abs(cdf(s) - ref(s))) <= GAUSSIAN_ULPS


    @pytest.mark.parametrize("form", sorted(CDF_SPECS))
    def test_array_call_matches_scalar_calls(self, form):
        """An array call gives the bytes of one scalar call per entry and
        leaves its argument unchanged."""
        k = validate_kernel(CDF_SPECS[form], DX)
        R = k.support_radius
        s = np.concatenate([SPECIAL, [-R, R], np.random.default_rng(9).uniform(-1.5 * R, 1.5 * R, 300)])
        before = s.tobytes()
        got = k.cdf(s)
        assert s.tobytes() == before
        assert np.array_equal(got, np.array([k.cdf(float(v)) for v in s]), equal_nan=True)


# (sigma, L0): narrow and wide supports, sigma small enough that erf
# saturates at L0 and large enough that the kernel is nearly flat; at
# (1, 1) and (0.5, 2) the unrounded 0.5 / erf(c * L0) leaves 5.6e-17 at -L0
GAUSSIAN_SHAPES = [(1.0, 2.0), (0.3, 1.0), (1.0, 0.5), (2.0, 7.0), (0.05, 1.0), (1.0, 1.0), (0.5, 2.0)]


class TestGaussianCdfEdges:
    @pytest.mark.parametrize("sigma, L0", GAUSSIAN_SHAPES)
    def test_exact_edges_and_monotone(self, sigma, L0):
        cdf = validate_kernel(KernelSpec.truncated_gaussian(sigma, L0), DX).cdf
        assert cdf(-L0) == 0.0 and cdf(L0) == 1.0
        beyond = np.concatenate([L0 * np.linspace(1.0, 20.0, 10_001), [np.inf]])
        beyond = np.concatenate([beyond, np.nextafter(L0, np.inf) + np.arange(50) * 1e-15])
        assert np.all(cdf(beyond) == 1.0)
        assert np.all(cdf(-beyond) == 0.0)
        s = np.linspace(-1.5 * L0, 1.5 * L0, 100_000)
        assert np.all(np.diff(cdf(s)) >= 0.0)


class TestSymmetry:
    @pytest.mark.parametrize(
        "make",
        [uniform_kernel, gaussian_kernel, lambda: validate_kernel(KernelSpec.triangular(0.7), DX)],
    )
    def test_closed_forms_even(self, make):
        k = make()
        xs = np.linspace(0.0, 1.5 * k.support_radius, 997)
        assert np.array_equal(k.evaluate(xs), k.evaluate(-xs))

    def test_tabulated_even_within_tolerance(self):
        k = validate_kernel(KernelSpec.tabulated(gaussian_table()), DX)
        xs = np.linspace(0.0, 1.5, 997)
        assert np.max(np.abs(k.evaluate(xs) - k.evaluate(-xs))) <= 1e-12


def reference_grid_stencil(kernel, dx):
    """grid_stencil as it was written before its one-pass form: a helper for
    the covered cells, np.clip, np.ptp and an errstate block."""
    R = kernel.support_radius
    half = int(math.ceil(R / dx + 0.5)) - 1
    half = max(half, 0)
    offsets = np.arange(-half, half + 1) * dx
    lo = np.maximum(offsets - 0.5 * dx, -R)
    hi = np.minimum(offsets + 0.5 * dx, R)
    cover = np.clip(hi - lo, 0.0, dx)
    mids = np.where(cover > 0, 0.5 * (lo + hi), offsets)
    vals = np.asarray(kernel.evaluate(mids), dtype=float)
    peak = vals[half]
    keep = np.nonzero(vals >= kernels.TAIL_FLOOR * peak)[0]
    trim = int(min(keep[0], 2 * half - keep[-1]))
    if trim > 0:
        offsets = offsets[trim:-trim]
        cover = cover[trim:-trim]
        vals = vals[trim:-trim]
        half -= trim
    masses = vals * cover
    raw_mass = float(masses.sum())
    masses = masses / raw_mass
    masses[half] += 1.0 - masses.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        densities = np.where(cover > 0, masses / np.maximum(cover, 1e-300), 0.0)
    box, direct_up_to = None, math.inf
    if (half > 0 and np.ptp(masses[1:-1]) <= kernels.FLAT_TOL
            and abs(masses[-1] - masses[0]) <= kernels.FLAT_TOL):
        end = float(masses[0])
        box = ((1.0 - 2.0 * end) / (2 * half - 1), end)
        direct_up_to = max((nodes for taps, nodes in kernels.FLAT_DIRECT if masses.size <= taps),
                           default=0)
    return (half, masses, cover, densities, raw_mass, box, direct_up_to, masses[::-1].copy())


# every form, a gaussian whose tails fall below TAIL_FLOOR and a flat table
REFERENCE_SPECS = {
    "uniform": KernelSpec.uniform(1.0),
    "triangular": KernelSpec.triangular(1.5),
    "gaussian": KernelSpec.truncated_gaussian(1.0, 2.0),
    "trimmed_gaussian": KernelSpec.truncated_gaussian(0.1, 2.0),
    "tabulated": KernelSpec.tabulated(gaussian_table()),
    "flat_table": KernelSpec.tabulated(np.array([[-1.0, 0.5], [1.0, 0.5]])),
}


class TestStencilMatchesReference:
    @pytest.mark.parametrize("form", sorted(REFERENCE_SPECS))
    def test_bit_identical(self, form):
        """Every GridStencil field has the reference's bytes, over spacings
        from 1e-3 to 3 support radii: random, and those that put the support
        edge on a node or on a cell edge."""
        k = validate_kernel(REFERENCE_SPECS[form], DX)
        R = k.support_radius
        rng = np.random.default_rng(11)
        spacings = [*R * np.exp(rng.uniform(math.log(1e-3), math.log(3.0), 150)),
                    *(R / m for m in (1, 2, 3, 40, 400)), *(R / (m + 0.5) for m in (0, 1, 40, 400))]
        for dx in spacings:
            got = grid_stencil(k, dx)
            want = reference_grid_stencil(k, dx)
            got = (got.half, got.masses, got.cover, got.densities, got.mass_correction, got.box,
                   got.direct_up_to, got.reversed_masses)
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), dx
            if form == "trimmed_gaussian" and dx < 0.01:
                assert got[0] < math.ceil(R / dx + 0.5) - 1  # the tails were trimmed


class TestStencil:
    @pytest.mark.parametrize(
        "make",
        [
            uniform_kernel,
            gaussian_kernel,
            lambda: validate_kernel(KernelSpec.triangular(1.0), DX),
            lambda: validate_kernel(KernelSpec.tabulated(gaussian_table()), DX),
        ],
    )
    def test_unit_mass(self, make):
        st_ = grid_stencil(make(), DX)
        assert st_.masses.sum() == pytest.approx(1.0, abs=1e-15)
        assert st_.masses.size == 2 * st_.half + 1

    def test_uniform_needs_no_correction(self):
        st_ = grid_stencil(uniform_kernel(), DX)
        assert st_.mass_correction == pytest.approx(1.0, abs=1e-14)

    def test_infinite_mass_raises(self):
        k = replace(uniform_kernel(), evaluate=lambda x: np.full(np.shape(x), np.inf))
        with pytest.raises(ZeroMass, match="discrete mass inf"):
            grid_stencil(k, DX)

    def test_edge_cells_fractionally_covered(self):
        st_ = grid_stencil(uniform_kernel(), DX)
        assert st_.cover[0] == pytest.approx(DX / 2)
        assert st_.cover[st_.half] == DX


# (dx, half) for the uniform kernel with L0 = 1: R/dx an integer leaves the
# end cells half covered, R/dx a half-integer covers them fully.
FLAT_GRIDS = [
    (1.0, 1),
    (2.0 / 3.0, 1),
    (1.0 / 40.0, 40),
    (1.0 / 40.5, 40),
    (1.0 / 1000.0, 1000),
    (1.0 / 1000.5, 1000),
]


class TestFlatStencil:
    @pytest.mark.parametrize("dx, half", FLAT_GRIDS)
    @pytest.mark.parametrize("n", [2, 5, 700, 3000])
    @pytest.mark.parametrize("edge", [False, True])
    def test_matches_np_convolve(self, dx, half, n, edge):
        st_ = grid_stencil(validate_kernel(KernelSpec.uniform(1.0), dx), dx)
        assert st_.half == half and st_.box is not None
        values = np.random.default_rng(half + n).random(n) + 0.5
        if edge:
            ext = np.concatenate([np.full(half, values[0]), values, np.full(half, values[-1])])
            ref = np.convolve(ext, st_.masses, mode="valid")
        else:  # full mode sliced: centred also when the field is the shorter
            ref = np.convolve(values, st_.masses, mode="full")[half : half + n]
        got = grid_convolve(values, st_, edge=edge)
        assert got.shape == (n,)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    # (half, direct_up_to): each FLAT_DIRECT band's last tap count and the
    # first past it, up to a stencil past the table.
    @pytest.mark.parametrize(
        "half, limit", [(5, math.inf), (6, 320), (40, 320), (41, 96), (80, 96), (81, 0), (1000, 0)]
    )
    @pytest.mark.parametrize("edge", [False, True])
    def test_direct_where_measured_faster(self, half, limit, edge):
        st_ = grid_stencil(validate_kernel(KernelSpec.uniform(1.0), 1.0 / half), 1.0 / half)
        assert st_.half == half and st_.box is not None and st_.direct_up_to == limit
        direct = replace(st_, direct_up_to=math.inf)
        sizes = {2, 50, 4000} | ({limit, limit + 1} - {0, math.inf})
        for n in sorted(sizes):
            values = np.random.default_rng(n).random(n) + 0.5
            ends = (values[0], values[-1]) if edge else (0.0, 0.0)
            if n <= limit:
                want = grid_convolve(values, direct, edge=edge)
            else:
                want = kernels._box_convolve(values, half, *st_.box, *ends)
            assert grid_convolve(values, st_, edge=edge).tobytes() == want.tobytes(), n

    @pytest.mark.parametrize("dx, half", FLAT_GRIDS)
    def test_end_taps(self, dx, half):
        st_ = grid_stencil(validate_kernel(KernelSpec.uniform(1.0), dx), dx)
        inner, end = st_.box
        full_ends = st_.cover[0] == pytest.approx(dx)
        assert end / inner == pytest.approx(1.0 if full_ends else 0.5, rel=1e-12)
        assert (2 * half - 1) * inner + 2 * end == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec.uniform(1.0),
            KernelSpec.uniform(2.5),
            KernelSpec.tabulated(np.array([[-1.0, 0.5], [1.0, 0.5]])),
            KernelSpec.tabulated(np.column_stack([np.linspace(-1.5, 1.5, 31), np.full(31, 7.0)])),
        ],
    )
    def test_flat_kernels_detected(self, spec):
        assert grid_stencil(validate_kernel(spec, DX), DX).box is not None

    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec.triangular(1.0),
            KernelSpec.truncated_gaussian(1.0, 2.0),
            KernelSpec.truncated_gaussian(50.0, 1.0),
            KernelSpec.tabulated(gaussian_table()),
            KernelSpec.tabulated(np.array([[-1.0, 0.5], [0.0, 0.5 + 1e-9], [1.0, 0.5]])),
        ],
    )
    def test_other_kernels_not_flat(self, spec):
        assert grid_stencil(validate_kernel(spec, DX), DX).box is None


class TestEdgeExtension:
    # 7 and 491 taps convolve directly, 511 by FFT; 5 nodes is shorter
    # than every stencil, 700 longer.
    @pytest.mark.parametrize("half", [3, 245, 255])
    @pytest.mark.parametrize("n", [5, 700])
    def test_bytes_of_the_concatenated_extension(self, half, n):
        from scipy.signal import oaconvolve

        st_ = grid_stencil(validate_kernel(KernelSpec.triangular(1.0), DX), 1.0 / (half + 0.5))
        assert st_.half == half and st_.box is None
        values = np.random.default_rng(half + n).random(n)
        ext = np.concatenate([np.full(half, values[0]), values, np.full(half, values[-1])])
        conv = oaconvolve if st_.masses.size > DIRECT_MAX_TAPS else np.convolve
        want = conv(ext, st_.masses, mode="valid")
        assert grid_convolve(values, st_, edge=True).tobytes() == want.tobytes()


class TestFftBranch:
    """The numpy real FFT against scipy's overlap-add convolution."""

    def test_fast_len_is_scipys(self):
        from scipy.fft import next_fast_len

        assert [kernels._fast_len(n) for n in range(1, 5001)] == [
            next_fast_len(n, real=True) for n in range(1, 5001)
        ]

    # Zero extension, and edge extension where TestEdgeExtension does not
    # reach.  oaconvolve's rounding differs from one FFT's where it splits
    # the field into blocks (20 000 nodes at 501 taps) and on a field shorter
    # than the stencil (5 nodes).
    @pytest.mark.parametrize(
        "n, half, edge",
        [(5, 255, False), (700, 255, False), (2881, 1000, False), (20000, 250, False),
         (20000, 250, True)],
    )
    def test_matches_oaconvolve(self, n, half, edge):
        from scipy.signal import oaconvolve

        st_ = grid_stencil(validate_kernel(KernelSpec.triangular(1.0), DX), 1.0 / (half + 0.5))
        assert st_.half == half and st_.box is None and st_.masses.size > DIRECT_MAX_TAPS
        values = np.random.default_rng(half + n).random(n)
        if edge:
            ext = np.concatenate([np.full(half, values[0]), values, np.full(half, values[-1])])
            want = oaconvolve(ext, st_.masses, mode="valid")
        else:
            want = oaconvolve(values, st_.masses, mode="same")
        got = grid_convolve(values, st_, edge=edge)
        assert got.shape == (n,)
        assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))


class TestGridSize:
    def test_cap(self):
        kernels.check_grid_size(float(kernels.MAX_GRID_NODES), "a grid")
        for count in (kernels.MAX_GRID_NODES + 1.0, math.inf, math.nan):
            with pytest.raises(GridTooLarge, match="a grid needs"):
                kernels.check_grid_size(count, "a grid")

    def test_stencil_checked_before_allocation(self):
        # 2e12 taps at 1e-12; at 1e-320 the radius over the spacing is inf.
        for dx in (1e-12, 1e-320):
            with pytest.raises(GridTooLarge, match="uniform stencil of radius 1 "):
                grid_stencil(uniform_kernel(), dx)


class TestCellWeights:
    def test_trapezoid_on_aligned_interval(self):
        nodes = np.arange(0.0, 1.0 + DX / 2, DX)
        w = cell_weights(nodes, DX, 0.0, 1.0)
        assert w[0] == pytest.approx(DX / 2)
        assert w[-1] == pytest.approx(DX / 2)
        assert np.allclose(w[1:-1], DX)
        assert w.sum() == pytest.approx(1.0)

    def test_partial_cells(self):
        nodes = np.arange(0.0, 1.0 + DX / 2, DX)
        w = cell_weights(nodes, DX, 0.1 * DX, 1.0 - 0.1 * DX)
        assert w.sum() == pytest.approx(1.0 - 0.2 * DX)
