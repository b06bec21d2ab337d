import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from starfd.exceptions import NumericError
from starfd.specfun import GL64_NODES, GL64_WEIGHTS, integrate_adaptive


class TestGaussLegendre:
    # The package ships one rule, the 64-node table; numpy's leggauss is
    # its oracle and the source of rules of any other order.

    def test_polynomial_exactness_degree_2n_minus_1(self):
        # n-node Gauss-Legendre integrates x^k exactly for k <= 2n - 1.
        assert len(GL64_NODES) == 64
        for k in range(128):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            got = float(np.sum(GL64_WEIGHTS * GL64_NODES ** k))
            assert abs(got - exact) < 1e-13, k

    def test_exponential_integral(self):
        got = float(np.sum(GL64_WEIGHTS * np.exp(GL64_NODES)))
        assert_allclose(got, math.e - 1.0 / math.e, rtol=1e-13)

    def test_weights_sum_and_symmetry(self):
        # The table stores the positive half; the mirror is exact.
        assert GL64_NODES.shape == GL64_WEIGHTS.shape == (64,)
        assert GL64_NODES.dtype == GL64_WEIGHTS.dtype == np.float64
        assert np.all(np.isfinite(GL64_NODES))
        assert np.all(GL64_WEIGHTS > 0)
        assert np.all(np.diff(GL64_NODES) > 0)
        assert abs(GL64_WEIGHTS.sum() - 2.0) < 1e-12
        assert np.array_equal(GL64_NODES, -GL64_NODES[::-1])
        assert np.array_equal(GL64_WEIGHTS, GL64_WEIGHTS[::-1])

    def test_matches_numpy_leggauss(self):
        # Not bit for bit: leggauss's bits depend on the LAPACK build,
        # and its weights move by about 1e-13 from one eigen-solver to
        # another.
        from numpy.polynomial.legendre import leggauss
        nodes, weights = leggauss(64)
        assert_allclose(GL64_NODES, nodes, rtol=0, atol=1e-15)
        assert_allclose(GL64_WEIGHTS, weights, rtol=1e-10)


class TestIntegrateAdaptive:
    def test_monomial(self):
        got = integrate_adaptive(lambda x: x * x, 0.0, 1.0, tol=1e-12)
        assert_allclose(got, 1.0 / 3.0, rtol=1e-12)

    def test_sine(self):
        got = integrate_adaptive(math.sin, 0.0, math.pi, tol=1e-12)
        assert_allclose(got, 2.0, rtol=1e-12)

    def test_cross_module_disk_expectation(self):
        from starfd.geometry import exp_pathloss_disk
        m, R = 2.7, 50.0
        got = integrate_adaptive(
            lambda r: (1.0 + r) ** (-m) * 2.0 * r / R ** 2, 0.0, R,
            tol=1e-12)
        assert_allclose(got, exp_pathloss_disk(R, m), rtol=1e-10)

    def test_matches_scipy_quad(self):
        quad = pytest.importorskip("scipy.integrate").quad

        def f(x):
            return math.exp(-x) * math.cos(7.0 * x) / math.sqrt(x + 0.01)

        got = integrate_adaptive(f, 0.0, 3.0, tol=1e-11)
        ref, _ = quad(f, 0.0, 3.0, epsabs=1e-13, epsrel=1e-13, limit=500)
        assert_allclose(got, ref, rtol=1e-9)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_adaptive(math.sin, 1.0, 1.0)
        for tol in (0.0, math.nan):
            with pytest.raises(ValueError, match="tolerance"):
                integrate_adaptive(math.sin, 0.0, 1.0, tol=tol)

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(NumericError):
            integrate_adaptive(lambda x: float("nan") if x > 0.5 else 1.0,
                               0.0, 1.0)

    def test_depth_limit_reported(self):
        # A step at an irrational point cannot be resolved by bisection to
        # the requested tolerance; the integrator must give up loudly.
        c = 1.0 / math.sqrt(2.0)
        with pytest.raises(NumericError, match="depth"):
            integrate_adaptive(lambda x: 0.0 if x < c else 1.0, 0.0, 1.0,
                               tol=1e-15)
