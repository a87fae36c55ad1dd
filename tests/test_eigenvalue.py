import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlinvade import eigenvalue
from nlinvade.errors import DegenerateInterval, NoConvergence
from nlinvade.eigenvalue import eigen_curve, principal_eigenvalue
from nlinvade.kernels import KernelSpec, validate_kernel

from model_support import dense_principal_eigenvalue

UNI = validate_kernel(KernelSpec.uniform(1.0), 0.025)
GAUSS = validate_kernel(KernelSpec.truncated_gaussian(1.0, 2.0), 0.05)
TRI = validate_kernel(KernelSpec.triangular(1.0), 0.025)
_XS = np.linspace(-1.5, 1.5, 301)
SMALL_GRID_KERNELS = {
    "uniform": UNI,
    "triangular": TRI,
    "gaussian": GAUSS,
    "narrow-gaussian": validate_kernel(KernelSpec.truncated_gaussian(0.3, 1.0), 0.025),
    "tabulated": validate_kernel(KernelSpec.tabulated(np.column_stack([_XS, 1.0 - (_XS / 1.5) ** 2])), 0.025),
}


def lam(kernel, d1, interval, dx):
    return principal_eigenvalue(kernel, d1, interval, dx).lambda_p


class TestRankOneOracle:
    def test_constant_kernel_over_interval(self):
        # Constant density across all sampled differences makes the operator
        # rank one with eigenvalue d1 * (l * J(0) - 1).
        res = principal_eigenvalue(UNI, 1.0, (0.0, 1.0), 0.025)
        assert res.lambda_p == pytest.approx(-0.5, abs=1e-10)

    def test_constant_eigenfunction(self):
        res = principal_eigenvalue(UNI, 1.0, (0.0, 1.0), 0.025)
        assert res.eigenfunction.max() == pytest.approx(1.0)
        assert res.eigenfunction.min() == pytest.approx(1.0, abs=1e-9)

    def test_interval_shorter_than_stencil(self):
        # At dx = 0.001 the uniform stencil has 2001 taps, more than the
        # 801 (or 1501) nodes of the interval.
        kernel = validate_kernel(KernelSpec.uniform(1.0), 0.001)
        d1 = 1.2
        res = principal_eigenvalue(kernel, d1, (0.0, 0.8), 0.001)
        assert res.nodes.size < 2001
        assert res.lambda_p == pytest.approx(d1 * (0.8 / 2.0 - 1.0), abs=1e-10)
        res = principal_eigenvalue(kernel, d1, (0.0, 1.5), 0.001)
        assert res.residual <= 1e-8

    def test_krylov_on_a_long_flat_stencil(self):
        # 2 001 flat taps at dx = 0.001: the matvec convolves by prefix sums.
        # l = L0 gives 1 001 nodes, one more than the stencil's half-width,
        # but the end taps are half cells like the end columns, so every row
        # of B is the same row and the Krylov space is invariant at once.
        kernel = validate_kernel(KernelSpec.uniform(1.0), 0.001)
        d1 = 1.2
        res = principal_eigenvalue(kernel, d1, (0.0, 1.0), 0.001)
        assert (res.method, res.iterations) == ("krylov", 2)
        assert res.lambda_p == pytest.approx(d1 * (1.0 / 2.0 - 1.0), abs=1e-10)


# (d1, length, dx) for the uniform kernel with L0 = 1: grids of 35 to 1 001
# nodes, at most the stencil's half-width (40 nodes at dx = 0.025, 1 000 at
# dx = 0.001) or, at l = L0, one more, on which every row of B is one row.
RANK_ONE = [(1.2, 0.8, 0.001), (0.5, 0.9, 0.025), (2.0, 0.891, 0.025), (1.0, 0.85, 0.025),
            (1.0, 1.0, 0.025), (1.2, 1.0, 0.001)]


class TestRankOnePath:
    """Rank-one grids of 35 to 1 001 nodes, which the Krylov solver ends
    exactly: B applied to the start vector gives the constant,
    and B applied to that spans nothing new."""

    @pytest.mark.parametrize("d1, length, dx", RANK_ONE)
    def test_closed_form(self, d1, length, dx):
        kernel = validate_kernel(KernelSpec.uniform(1.0), dx)
        res = principal_eigenvalue(kernel, d1, (0.0, length), dx)
        assert res.nodes.size >= 35
        assert (res.method, res.iterations) == ("krylov", 2)
        assert abs(res.lambda_p - d1 * (length / 2.0 - 1.0)) <= 1e-12
        assert np.max(np.abs(res.eigenfunction - 1.0)) <= 1e-12
        assert res.residual <= eigenvalue.RESIDUAL_TOL

    @pytest.mark.parametrize("d1, length, dx", RANK_ONE)
    def test_matches_dense(self, d1, length, dx):
        kernel = validate_kernel(KernelSpec.uniform(1.0), dx)
        res = principal_eigenvalue(kernel, d1, (0.0, length), dx)
        dense = dense_principal_eigenvalue(kernel, d1, (0.0, length), dx)
        assert res.method == "krylov"
        assert res.lambda_p == pytest.approx(dense.lambda_p, abs=1e-11)
        assert np.allclose(dense.eigenfunction, 1.0, rtol=0.0, atol=1e-9)

    def test_only_flat_stencils_across_the_interval(self):
        # The same 37-node grid under a gaussian or triangular kernel takes
        # more than 2 matvecs.  Under the uniform kernel one node past its
        # half-width, l = L0 is still rank one, but l = 1.0125 is not: its
        # end taps cover 1.6e-4 of a cell, not half of one.
        nodes = 37
        for kernel in (GAUSS, TRI):
            dx = kernel.support_radius / 40
            res = principal_eigenvalue(kernel, 1.0, (0.0, (nodes - 1) * dx), dx)
            assert (res.nodes.size, res.method) == (nodes, "krylov")
            assert res.iterations > 2
        res = principal_eigenvalue(UNI, 1.0, (0.0, 36 * 0.025), 0.025)
        assert (res.nodes.size, res.method, res.iterations) == (nodes, "krylov", 2)
        res = principal_eigenvalue(UNI, 1.0, (0.0, 40 * 0.025), 0.025)
        assert (res.nodes.size, res.method, res.iterations) == (41, "krylov", 2)
        res = principal_eigenvalue(UNI, 1.0, (0.0, 1.0125), 0.025)
        assert (res.nodes.size, res.method) == (41, "krylov")
        assert res.iterations > 2


class TestLimits:
    @pytest.mark.parametrize("d1", [0.5, 1.0, 2.0])
    def test_small_interval_limit(self, d1):
        # The 4-node grid of l = 1e-3 lies inside one uniform kernel width, so
        # the operator is rank one with eigenvalue d1 * (l / (2 L0) - 1), which
        # tends to -d1.  At d1 = 2 that value is exactly 1e-3 from -d1.
        assert abs(lam(UNI, d1, (0.0, 1e-3), 0.025) - d1 * (1e-3 / 2.0 - 1.0)) <= 1e-12 * d1

    def test_long_interval_bracketing(self):
        l200 = lam(UNI, 1.0, (0.0, 200.0), 0.025)
        l100 = lam(UNI, 1.0, (0.0, 100.0), 0.025)
        assert l200 > l100
        assert -1.0 < l200 < 0.0


class TestCurve:
    def test_strictly_increasing(self):
        pts = eigen_curve(UNI, 1.0, [1.0, 2.0, 4.0], 0.025)
        vals = [p[1] for p in pts]
        assert vals[0] < vals[1] < vals[2]

    def test_translation_bitwise(self):
        a = lam(UNI, 1.0, (5.0, 6.0), 0.025)
        b = lam(UNI, 1.0, (0.0, 1.0), 0.025)
        assert a == b

    def test_empty(self):
        assert eigen_curve(UNI, 1.0, [], 0.025) == []


class TestInvariants:
    @pytest.mark.parametrize("kernel", [UNI, GAUSS], ids=["uniform", "gaussian"])
    @pytest.mark.parametrize("d1", [0.5, 2.0])
    def test_monotone_in_length(self, kernel, d1):
        dx = kernel.support_radius / 40
        pts = eigen_curve(kernel, d1, [0.5, 1.0, 3.0, 7.0, 13.0], dx)
        vals = np.array([p[1] for p in pts])
        assert np.all(np.diff(vals) > -1e-10)

    @pytest.mark.parametrize("kernel", [UNI, GAUSS], ids=["uniform", "gaussian"])
    def test_bracketing(self, kernel):
        dx = kernel.support_radius / 40
        d1 = 1.3
        for length in [4 * dx, 0.5, 2.0, 11.0, 64.0]:
            val = lam(kernel, d1, (0.0, length), dx)
            assert -d1 < val < 0.0

    def test_krylov_matches_dense(self):
        # The Krylov solver against the dense reference on the same operator.
        # It stops at KRYLOV_TOL relative accuracy, so the two agree far
        # inside 1e-11.
        cases = [(kernel, nodes) for kernel in (UNI, GAUSS) for nodes in (35, 36, 39, 40, 400)]
        for kernel, nodes in cases:
            dx = kernel.support_radius / 40
            interval = (0.0, (nodes - 1) * dx)
            krylov = principal_eigenvalue(kernel, 1.0, interval, dx)
            dense = dense_principal_eigenvalue(kernel, 1.0, interval, dx)
            assert (krylov.nodes.size, krylov.method) == (nodes, "krylov")
            assert krylov.lambda_p == pytest.approx(dense.lambda_p, abs=1e-11)

    @pytest.mark.parametrize("kernel", SMALL_GRID_KERNELS.values(), ids=SMALL_GRID_KERNELS.keys())
    def test_small_grids_match_dense(self, kernel):
        # Every grid of 4 to 34 nodes, flat stencils across the interval (rank
        # one) included, at spacings of a third to a two-hundredth of the
        # kernel radius: the Krylov solver serves them all.
        for d1, cells, nodes in itertools.product((0.5, 1.0, 2.0), (3, 7, 13, 40, 101, 200), range(4, 35)):
            dx = kernel.support_radius / cells
            interval = (0.0, (nodes - 1) * dx)
            res = principal_eigenvalue(kernel, d1, interval, dx)
            dense = dense_principal_eigenvalue(kernel, d1, interval, dx)
            assert (res.nodes.size, res.method) == (nodes, "krylov")
            assert abs(res.lambda_p - dense.lambda_p) <= 1e-11
            assert res.residual <= eigenvalue.RESIDUAL_TOL

    def test_krylov_stopping_tolerance(self, monkeypatch):
        # The Krylov solver stops at KRYLOV_TOL, not machine precision: on
        # 1 281 nodes that saves restarts (measured 51 -> 31 matvecs) and
        # moves lambda by rounding only.
        assert eigenvalue.KRYLOV_TOL == 1e-12
        interval = (0.0, 32.0)
        res = principal_eigenvalue(UNI, 1.0, interval, 0.025)
        monkeypatch.setattr(eigenvalue, "KRYLOV_TOL", 1e-16)
        exact = principal_eigenvalue(UNI, 1.0, interval, 0.025)
        assert res.nodes.size == 1281 and res.iterations < exact.iterations
        assert res.lambda_p == pytest.approx(exact.lambda_p, abs=1e-11)
        assert res.residual <= eigenvalue.RESIDUAL_TOL

    def test_krylov_basis_sized_to_the_interval(self, monkeypatch):
        # The solver gets ceil(r) + 4 basis vectors, r = (n - 1) / half the
        # length in kernel widths, within [8, 20]; from r = 16 on it keeps 20.
        calls = []
        solve = eigenvalue._krylov_solve

        def recording(matvec, n, m):
            calls.append(m)
            return solve(matvec, n, m)

        monkeypatch.setattr(eigenvalue, "_krylov_solve", recording)
        for length in (2.0, 11.0, 16.0, 32.0):  # r at dx = L0/40
            assert principal_eigenvalue(UNI, 1.0, (0.0, length), 0.025).method == "krylov"
        assert calls == [8, 15, 20, 20]

    @pytest.mark.parametrize("r", [1, 2, 4, 8, 11, 14, 16, 32])
    @pytest.mark.parametrize("kernel", [UNI, TRI, GAUSS], ids=["uniform", "triangular", "gaussian"])
    def test_sized_basis_matches_twenty(self, monkeypatch, kernel, r):
        # Against a 20-vector basis: lambda agrees to rounding, and the sized
        # basis never needs more matvecs (one 20-vector cycle costs 21).
        dx = kernel.support_radius / 40
        interval = (0.0, r * kernel.support_radius)
        if kernel is UNI and r == 1:  # l = L0 is rank one under the flat stencil
            interval = (0.0, kernel.support_radius + 0.5 * dx)
        sized = principal_eigenvalue(kernel, 1.0, interval, dx)
        monkeypatch.setattr(eigenvalue, "_basis_size", lambda n, half: 20)
        full = principal_eigenvalue(kernel, 1.0, interval, dx)
        assert (sized.method, full.method) == ("krylov", "krylov")
        assert sized.lambda_p == pytest.approx(full.lambda_p, abs=1e-11)
        assert sized.iterations <= full.iterations

    @pytest.mark.parametrize(
        "kernel, length, cells",
        [(UNI, 1.0 + 0.5 / 64, 64), (UNI, 20.0, 40), (GAUSS, 6.0, 40)],
        ids=["uniform-low-rank", "uniform", "gaussian"],
    )
    def test_krylov_deterministic(self, kernel, length, cells):
        # Half a cell past one kernel radius (65 nodes at dx = L0/64) the
        # uniform operator is not rank one but of low rank: it breaks the
        # Krylov space down.  The solver takes no random vector, so repeated
        # and interleaved solves return the same bits.
        dx = kernel.support_radius / cells
        first = principal_eigenvalue(kernel, 1.0, (0.0, length), dx)
        again = principal_eigenvalue(kernel, 1.0, (0.0, length), dx)
        eigen_curve(UNI, 0.7, [0.5, 3.0, 0.9], 0.025)
        eigen_curve(GAUSS, 1.3, [4.0], 0.05)
        after = principal_eigenvalue(kernel, 1.0, (0.0, length), dx)
        assert first.method == "krylov"
        for res in (again, after):
            assert res.lambda_p == first.lambda_p
            assert res.iterations == first.iterations
            assert np.array_equal(res.eigenfunction, first.eigenfunction)

    def test_low_rank_grid_breaks_down_exactly(self):
        # The low-rank 65-node grid makes the Krylov space invariant within
        # the first cycle of its 8-vector basis: the solver returns the
        # Perron pair of that space, with no restart, at the dense lambda.
        dx = 1.0 / 64
        res = principal_eigenvalue(UNI, 1.0, (0.0, 1.0 + 0.5 * dx), dx)
        dense = dense_principal_eigenvalue(UNI, 1.0, (0.0, 1.0 + 0.5 * dx), dx)
        assert (res.nodes.size, res.method) == (65, "krylov")
        assert 0 < res.iterations < eigenvalue._basis_size(65, 64)
        assert abs(res.lambda_p - dense.lambda_p) <= 1e-12

    def test_eigenfunction_positive(self):
        res = principal_eigenvalue(GAUSS, 1.0, (0.0, 6.0), 0.05)
        assert res.eigenfunction.min() > 0.0
        assert res.eigenfunction.max() == pytest.approx(1.0)

    @given(
        st.floats(min_value=0.2, max_value=6.0),
        st.floats(min_value=0.05, max_value=4.0),
        st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_for_random_length_pairs(self, l1, gap, d1):
        a = principal_eigenvalue(UNI, d1, (0.0, l1), 0.05).lambda_p
        b = principal_eigenvalue(UNI, d1, (0.0, l1 + gap), 0.05).lambda_p
        assert a < b + 1e-10
        assert -d1 < a < 0.0

    def test_residual_reported(self):
        res = principal_eigenvalue(UNI, 1.0, (0.0, 20.0), 0.025)
        assert res.method == "krylov"
        assert res.residual <= 1e-8
        assert res.iterations > 0


class TestErrors:
    def test_no_convergence_at_tiny_cap(self, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(eigenvalue, "KRYLOV_CYCLES", 0)
            with pytest.raises(NoConvergence):
                principal_eigenvalue(UNI, 1.0, (0.0, 30.0), 0.025)
        # A residual above RESIDUAL_TOL fails the returned pair on long and
        # short grids, the rank-one grid included (its residual is 3.3e-16).
        monkeypatch.setattr(eigenvalue, "RESIDUAL_TOL", 0.0)
        for kernel, length, dx in ((GAUSS, 30.0, 0.05), (GAUSS, 0.2, 0.05), (UNI, 0.9, 0.025)):
            with pytest.raises(NoConvergence):
                principal_eigenvalue(kernel, 1.0, (0.0, length), dx)

    def test_degenerate_interval(self):
        with pytest.raises(DegenerateInterval):
            principal_eigenvalue(UNI, 1.0, (1.0, 1.0), 0.025)
        with pytest.raises(DegenerateInterval):
            principal_eigenvalue(UNI, 1.0, (2.0, 1.0), 0.025)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            principal_eigenvalue(UNI, -1.0, (0.0, 1.0), 0.025)
        with pytest.raises(ValueError):
            principal_eigenvalue(UNI, 1.0, (0.0, 1.0), -0.1)
