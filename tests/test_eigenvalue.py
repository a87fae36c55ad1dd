import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from nlinvade import eigenvalue
from nlinvade.errors import DegenerateInterval, NoConvergence
from nlinvade.eigenvalue import eigen_curve, principal_eigenvalue
from nlinvade.kernels import KernelSpec, validate_kernel

UNI = validate_kernel(KernelSpec.uniform(1.0), 0.025)
GAUSS = validate_kernel(KernelSpec.truncated_gaussian(1.0, 2.0), 0.05)


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

    def test_power_on_a_long_flat_stencil(self):
        # 2 001 flat taps at dx = 0.001: the ARPACK matvec convolves by prefix sums.
        kernel = validate_kernel(KernelSpec.uniform(1.0), 0.001)
        d1 = 1.2
        res = principal_eigenvalue(kernel, d1, (0.0, 0.8), 0.001)
        assert res.method == "arpack"
        assert res.lambda_p == pytest.approx(d1 * (0.8 / 2.0 - 1.0), abs=1e-10)


class TestLimits:
    @pytest.mark.parametrize("d1", [0.5, 1.0, 2.0])
    def test_small_interval_limit(self, d1):
        assert lam(UNI, d1, (0.0, 1e-3), 0.025) == pytest.approx(-d1, abs=1e-3)

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

    def test_power_matches_dense(self, monkeypatch):
        # Both solver paths on the same operator; at 16-20 nodes ARPACK's
        # Krylov space spans the whole grid.
        for kernel, nodes in itertools.product((UNI, GAUSS), (16, 17, 20, 21, 400)):
            dx = kernel.support_radius / 40
            interval = (0.0, (nodes - 1) * dx)
            arpack = principal_eigenvalue(kernel, 1.0, interval, dx)
            with monkeypatch.context() as m:
                m.setattr(eigenvalue, "DENSE_THRESHOLD", 10**9)
                dense = principal_eigenvalue(kernel, 1.0, interval, dx)
            assert (arpack.nodes.size, arpack.method, dense.method) == (nodes, "arpack", "dense")
            assert arpack.lambda_p == pytest.approx(dense.lambda_p, abs=1e-8)

    @pytest.mark.parametrize(
        "kernel, length",
        [(UNI, 1.0), (UNI, 20.0), (GAUSS, 6.0)],
        ids=["uniform-rank-one", "uniform", "gaussian"],
    )
    def test_arpack_deterministic(self, kernel, length):
        # The rank-one interval (l <= L0) breaks the Krylov space down after
        # one step, so ARPACK restarts from a random vector.
        dx = kernel.support_radius / 40
        first = principal_eigenvalue(kernel, 1.0, (0.0, length), dx)
        again = principal_eigenvalue(kernel, 1.0, (0.0, length), dx)
        eigen_curve(UNI, 0.7, [0.5, 3.0, 0.9], 0.025)
        eigen_curve(GAUSS, 1.3, [4.0], 0.05)
        after = principal_eigenvalue(kernel, 1.0, (0.0, length), dx)
        assert first.method == "arpack"
        for res in (again, after):
            assert res.lambda_p == first.lambda_p
            assert res.iterations == first.iterations
            assert np.array_equal(res.eigenfunction, first.eigenfunction)

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
        assert res.method == "arpack"
        assert res.residual <= 1e-8
        assert res.iterations > 0


class TestErrors:
    def test_no_convergence_at_tiny_cap(self, monkeypatch):
        def unconverged(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        # _arpack_solve imports eigs at call time, so patch it at its source.
        with monkeypatch.context() as m:
            m.setattr(scipy.sparse.linalg, "eigs", unconverged)
            with pytest.raises(NoConvergence):
                principal_eigenvalue(UNI, 1.0, (0.0, 30.0), 0.025)
        # A residual above RESIDUAL_TOL fails the returned pair on both paths.
        monkeypatch.setattr(eigenvalue, "RESIDUAL_TOL", 0.0)
        for length in (30.0, 0.2):
            with pytest.raises(NoConvergence):
                principal_eigenvalue(GAUSS, 1.0, (0.0, length), 0.05)

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
