import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from nlinvade.errors import (
    AsymmetricKernel,
    GridMismatch,
    NegativeDensity,
    ZeroAtOrigin,
    ZeroMass,
)
from nlinvade.kernels import (
    KernelSpec,
    cell_weights,
    convolve,
    grid_convolve,
    grid_stencil,
    kernel_cdf,
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
        with pytest.raises(AsymmetricKernel):
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
        with pytest.raises(NegativeDensity):
            validate_kernel(KernelSpec.tabulated(table), DX)

    def test_zero_at_origin_rejected(self):
        xs = np.linspace(-1.0, 1.0, 201)
        ys = np.abs(xs)  # symmetric, vanishes at 0
        with pytest.raises(ZeroAtOrigin):
            validate_kernel(KernelSpec.tabulated(np.column_stack([xs, ys])), DX)

    def test_zero_mass_rejected(self):
        xs = np.array([-1e-300, 1e-300])
        ys = np.array([1.0, 1.0])
        with pytest.raises(ZeroMass):
            validate_kernel(KernelSpec.tabulated(np.column_stack([xs, ys])), DX)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            validate_kernel(KernelSpec.uniform(-1.0), DX)
        with pytest.raises(ValueError):
            validate_kernel(KernelSpec(form="truncated_gaussian", L0=1.0), DX)
        with pytest.raises(ValueError):
            validate_kernel(KernelSpec(form="nope", L0=1.0), DX)

    def test_non_increasing_table_rejected(self):
        table = np.array([[-1.0, 0.5], [-1.0, 0.5], [1.0, 0.5]])
        with pytest.raises(ValueError):
            validate_kernel(KernelSpec.tabulated(table), DX)


class TestCdf:
    def test_uniform_values(self):
        k = uniform_kernel()
        assert kernel_cdf(k, 0.0) == 0.5
        assert kernel_cdf(k, -1.0) == 0.0
        assert kernel_cdf(k, -0.5) == 0.25
        assert kernel_cdf(k, 5.0) == 1.0
        assert kernel_cdf(k, -5.0) == 0.0

    @pytest.mark.parametrize(
        "make",
        [uniform_kernel, gaussian_kernel, lambda: validate_kernel(KernelSpec.triangular(1.5), DX)],
    )
    def test_cdf_edges_and_monotone(self, make):
        k = make()
        R = k.support_radius
        assert kernel_cdf(k, -R) == pytest.approx(0.0, abs=1e-15)
        assert kernel_cdf(k, R) == pytest.approx(1.0, abs=1e-15)
        assert kernel_cdf(k, 0.0) == pytest.approx(0.5, abs=1e-12)
        s = np.linspace(-1.2 * R, 1.2 * R, 501)
        vals = k.cdf(s)
        assert np.all(np.diff(vals) >= -1e-15)

    @given(st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=100, deadline=None)
    def test_mass_symmetry(self, s):
        k = gaussian_kernel()
        assert kernel_cdf(k, s) + kernel_cdf(k, -s) == pytest.approx(1.0, abs=5e-12)

    def test_tabulated_cdf_quadrature(self):
        k = validate_kernel(KernelSpec.tabulated(gaussian_table()), DX)
        assert kernel_cdf(k, 0.0) == pytest.approx(0.5, abs=1e-12)
        assert kernel_cdf(k, k.support_radius) == 1.0
        assert kernel_cdf(k, -k.support_radius) == 0.0


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


class TestCdfMatchesClipForm:
    @pytest.mark.parametrize("form", sorted(CDF_SPECS))
    def test_bit_identical(self, form):
        spec = CDF_SPECS[form]
        cdf, ref = validate_kernel(spec, DX).cdf, clip_form_cdf(spec)
        R = validate_kernel(spec, DX).support_radius
        arrays = [
            np.linspace(-1.5 * R, 1.5 * R, 1001),
            np.random.default_rng(7).normal(0.0, R, 500),
            np.array(SPECIAL + [-R, R, 0.5 * R]),
        ]
        for s in [*SPECIAL, -R, R, 0.3 * R, -2.0 * R, *arrays]:
            got, want = cdf(s), ref(s)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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


class TestConvolve:
    def test_constant_field_full_support(self):
        k = gaussian_kernel()
        nodes = np.arange(-4.0, 4.0 + DX / 2, DX)
        f = np.ones_like(nodes)
        out = convolve(k, f, nodes, (-4.0, 4.0), 0.3)
        assert out == pytest.approx(1.0, abs=1e-10)

    def test_constant_field_scales(self):
        k = uniform_kernel()
        nodes = np.arange(-3.0, 3.0 + DX / 2, DX)
        f = np.full_like(nodes, 2.5)
        out = convolve(k, f, nodes, (-3.0, 3.0), -0.7)
        assert out == pytest.approx(2.5, abs=1e-10)

    def test_half_overlap(self):
        k = uniform_kernel()
        nodes = np.arange(0.0, 4.0 + DX / 2, DX)
        f = np.ones_like(nodes)
        out = convolve(k, f, nodes, (0.0, 4.0), 4.0)
        assert out == pytest.approx(0.5, abs=1e-10)

    def test_zero_field(self):
        k = uniform_kernel()
        nodes = np.arange(-2.0, 2.0 + DX / 2, DX)
        out = convolve(k, np.zeros_like(nodes), nodes, (-2.0, 2.0), 0.0)
        assert out == 0.0

    def test_grid_mismatch(self):
        k = uniform_kernel()
        nodes = np.arange(-1.0, 1.0 + DX / 2, DX)
        f = np.ones_like(nodes)
        with pytest.raises(GridMismatch):
            convolve(k, f, nodes, (-2.0, 2.0), 0.0)  # support not covered
        with pytest.raises(GridMismatch):
            convolve(k, f, nodes, (-1.0, 1.0), 3.0)  # x outside window
        with pytest.raises(GridMismatch):
            convolve(k, f[:-1], nodes, (-1.0, 1.0), 0.0)  # length mismatch
        bad = nodes.copy()
        bad[3] += 0.01
        with pytest.raises(GridMismatch):
            convolve(k, f, bad, (-1.0, 1.0), 0.0)

    @given(
        st.integers(min_value=0, max_value=160),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, i, alpha, beta):
        k = uniform_kernel()
        nodes = np.arange(-2.0, 2.0 + DX / 2, DX)
        rng = np.random.default_rng(7)
        f = rng.uniform(-1.0, 1.0, nodes.size)
        g = rng.uniform(-1.0, 1.0, nodes.size)
        x = nodes[i % nodes.size]
        combo = convolve(k, alpha * f + beta * g, nodes, (-2.0, 2.0), x)
        parts = alpha * convolve(k, f, nodes, (-2.0, 2.0), x) + beta * convolve(
            k, g, nodes, (-2.0, 2.0), x
        )
        assert combo == pytest.approx(parts, abs=1e-12)


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
