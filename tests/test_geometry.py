import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_config
from starfd.config import CellGeometry
from starfd.geometry import (_two_point_density, exp_pathloss_disk,
                             exp_pathloss_fixed_point_to_disk,
                             exp_pathloss_two_random_points, pathloss)
from starfd.rates_mc import draw_realization
from starfd.specfun import integrate_adaptive

# Grid shared by the oracle-agreement tests below.
EXPONENTS = (2.1, 2.7, 3.5)
RADII = (1.0, 10.0, 30.0, 50.0)


def center_disk_oracle(R, m, tol=1e-13):
    return integrate_adaptive(
        lambda r: (1.0 + r) ** (-m) * 2.0 * r / R ** 2, 0.0, R, tol=tol)


class TestCellGeometry:
    def test_valid_construction(self):
        g = CellGeometry(R=50.0, R_r=30.0, d_br=60.0, m=2.7)
        assert (g.R, g.R_r, g.d_br, g.m) == (50.0, 30.0, 60.0, 2.7)

    def test_rejects_surface_inside_center_disk(self):
        with pytest.raises(ValueError, match="outside the center disk"):
            CellGeometry(R=50.0, R_r=30.0, d_br=40.0, m=2.7)

    def test_rejects_exponent_at_two(self):
        with pytest.raises(ValueError, match="exceed 2"):
            CellGeometry(R=50.0, R_r=30.0, d_br=60.0, m=2.0)

    def test_rejects_nonpositive_radii(self):
        with pytest.raises(ValueError):
            CellGeometry(R=0.0, R_r=30.0, d_br=60.0, m=2.7)
        with pytest.raises(ValueError):
            CellGeometry(R=50.0, R_r=-1.0, d_br=60.0, m=2.7)

    def test_frozen(self):
        g = CellGeometry(R=50.0, R_r=30.0, d_br=60.0, m=2.7)
        with pytest.raises(AttributeError):
            g.R = 10.0


class TestPathloss:
    def test_zero_distance_is_unity(self):
        assert pathloss(0.0, 2.7) == 1.0

    def test_monotone_decreasing(self):
        d = np.linspace(0.0, 100.0, 200)
        vals = pathloss(d, 2.7)
        assert np.all(np.diff(vals) < 0)

    def test_array_and_scalar_forms_agree(self):
        d = np.array([0.0, 1.0, 17.5])
        vals = pathloss(d, 3.1)
        for di, vi in zip(d, vals):
            # numpy's scalar and vector power kernels can differ by one ulp
            assert_allclose(pathloss(float(di), 3.1), vi, rtol=1e-15)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            pathloss(-0.1, 2.7)
        for distance in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="distance"):
                pathloss(distance, 2.7)


class TestCenterDiskExpectation:
    def test_reference_values(self):
        # Frozen against the adaptive quadrature oracle.
        assert_allclose(exp_pathloss_disk(50.0, 2.7),
                        5.999632670753e-04, rtol=1e-10)
        assert_allclose(exp_pathloss_disk(1.0, 2.7),
                        2.839958336003e-01, rtol=1e-10)
        assert_allclose(exp_pathloss_disk(10.0, 2.1),
                        2.575997840725e-02, rtol=1e-10)
        assert_allclose(exp_pathloss_disk(30.0, 3.5),
                        5.841754327181e-04, rtol=1e-10)

    def test_matches_adaptive_oracle_on_grid(self):
        for m in EXPONENTS:
            for R in RADII:
                got = exp_pathloss_disk(R, m)
                ref = center_disk_oracle(R, m)
                assert_allclose(got, ref, rtol=1e-10, err_msg=f"R={R} m={m}")

    def test_small_disk_limit_is_unity(self):
        # The closed form cancels catastrophically only for R far below any
        # realistic cell size; at R = 1e-3 it is still good to ~4e-10 and
        # visibly approaches the R -> 0 limit of 1.
        got = exp_pathloss_disk(1e-3, 2.7)
        assert_allclose(got, center_disk_oracle(1e-3, 2.7, tol=1e-14),
                        rtol=1e-8)
        assert_allclose(got, 1.0, rtol=5e-3)

    def test_monotone_in_radius_and_bounded(self):
        vals = [exp_pathloss_disk(R, 2.7)
                for R in (0.5, 1.0, 5.0, 20.0, 50.0)]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            exp_pathloss_disk(-1.0, 2.7)
        with pytest.raises(ValueError, match="exceed 2"):
            exp_pathloss_disk(10.0, 2.0)


class TestFixedPointToDisk:
    def test_reference_values(self):
        assert_allclose(exp_pathloss_fixed_point_to_disk(20.0, 50.0, 2.7),
                        1.8376692127e-05, rtol=1e-9)
        assert_allclose(exp_pathloss_fixed_point_to_disk(10.0, 50.0, 2.7),
                        3.9721295907e-05, rtol=1e-9)

    def test_matches_adaptive_oracle_on_grid(self):
        from starfd.geometry import _external_point_density
        for m in EXPONENTS:
            for R in RADII:
                for r1 in (5.0, 20.0):
                    got = exp_pathloss_fixed_point_to_disk(r1, R, m)
                    ref = integrate_adaptive(
                        lambda r: ((1.0 + r) ** (-m)
                                   * float(_external_point_density(r, r1, R))),
                        r1, r1 + 2.0 * R, tol=1e-12)
                    assert_allclose(got, ref, rtol=1e-6,
                                    err_msg=f"r1={r1} R={R} m={m}")

    def test_density_normalization(self):
        # m = 0 integrates the bare density, which must carry unit mass.
        assert_allclose(exp_pathloss_fixed_point_to_disk(10.0, 50.0, 0.0),
                        1.0, rtol=1e-12)

    def test_monte_carlo_cross_check(self):
        r1, R, m = 10.0, 30.0, 2.7
        d = r1 + R
        rng = np.random.default_rng(7)
        n = 1_000_000
        rho = R * np.sqrt(rng.uniform(size=n))
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        dist = np.sqrt((d - rho * np.cos(theta)) ** 2
                       + (rho * np.sin(theta)) ** 2)
        mc = float(np.mean(pathloss(dist, m)))
        assert_allclose(exp_pathloss_fixed_point_to_disk(r1, R, m), mc,
                        rtol=0.01)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="clearance"):
            exp_pathloss_fixed_point_to_disk(0.0, 50.0, 2.7)
        with pytest.raises(ValueError):
            exp_pathloss_fixed_point_to_disk(10.0, -1.0, 2.7)
        with pytest.raises(ValueError):
            exp_pathloss_fixed_point_to_disk(10.0, 50.0, -0.5)
        with pytest.raises(ValueError, match="exponent"):
            exp_pathloss_fixed_point_to_disk(10.0, 50.0, math.nan)


class TestTwoRandomPoints:
    def test_reference_value_realistic_disk(self):
        # A realistic disk: 2R >= 1, where the series form diverges.
        assert_allclose(exp_pathloss_two_random_points(50.0, 2.7),
                        5.507470997595e-04, rtol=1e-9)

    def test_series_reference_small_disk(self):
        # A disk small enough (2R < 1) for the five-term hypergeometric
        # form to converge; the reference value is that series.
        assert_allclose(exp_pathloss_two_random_points(0.1, 2.7),
                        7.973325292455e-01, rtol=1e-10)

    def test_density_normalization(self):
        for R in (0.3, 5.0, 50.0):
            mass = integrate_adaptive(
                lambda r: float(_two_point_density(r, R)), 0.0, 2.0 * R,
                tol=1e-13)
            assert_allclose(mass, 1.0, rtol=1e-11)

    def test_monte_carlo_cross_check(self):
        R, m = 30.0, 2.7
        rng = np.random.default_rng(11)
        n = 1_000_000
        rho = R * np.sqrt(rng.uniform(size=(2, n)))
        theta = rng.uniform(0.0, 2.0 * math.pi, size=(2, n))
        dx = rho[0] * np.cos(theta[0]) - rho[1] * np.cos(theta[1])
        dy = rho[0] * np.sin(theta[0]) - rho[1] * np.sin(theta[1])
        mc = float(np.mean(pathloss(np.hypot(dx, dy), m)))
        assert_allclose(exp_pathloss_two_random_points(R, m), mc, rtol=0.01)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            exp_pathloss_two_random_points(0.0, 2.7)
        with pytest.raises(ValueError):
            exp_pathloss_two_random_points(30.0, 1.9)


class TestSampling:
    """User positions as the channel block draw samples them."""

    CONFIG = make_config(n_elements=1)
    GEOM = CONFIG.geometry

    def draw(self, rng, size):
        return draw_realization(self.CONFIG, rng, size)

    def test_mean_radius(self):
        # E{r} = 2R/3 for a uniform disk.
        radii = self.draw(np.random.default_rng(3), 200_000).radius["u1d"]
        assert_allclose(np.mean(radii), 2.0 * 50.0 / 3.0, rtol=5e-3)

    def test_radius_cdf(self):
        # One-sample KS distance against F(r) = (r/R)^2.
        n = 100_000
        radii = np.sort(
            self.draw(np.random.default_rng(5), n).radius["u2d"])
        cdf = (radii / 30.0) ** 2
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(np.max(emp_hi - cdf), np.max(cdf - emp_lo))
        assert ks < 0.01

    def test_regions_use_their_own_radius(self):
        block = self.draw(np.random.default_rng(9), 1000)
        for user, radius_max in (("u1d", 50.0), ("u1u", 50.0),
                                 ("u2d", 30.0), ("u2u", 30.0)):
            assert np.all(block.radius[user] <= radius_max)
            assert np.all(block.angle[user] >= 0.0)
            assert np.all(block.angle[user] < 2.0 * math.pi)

    def test_deterministic_under_seed(self):
        a = self.draw(np.random.default_rng(42), 1)
        b = self.draw(np.random.default_rng(42), 1)
        for user in a.radius:
            assert a.radius[user] == b.radius[user]
            assert a.angle[user] == b.angle[user]

    def test_sampled_pathloss_matches_closed_form(self):
        # The direct-link path loss of a center user has a coefficient of
        # variation near 12 (users close to the BS), so a mean over 2e5
        # samples has a 2.7% standard error. Both center users of 15
        # blocks of 2e5 give 6e6 samples, which puts the 2% bound at
        # about 4 standard errors.
        rng = np.random.default_rng(13)
        vals = []
        for _ in range(15):
            block = self.draw(rng, 200_000)
            vals += [block.pathlosses["b_u1d"], block.pathlosses["b_u1u"]]
        assert_allclose(np.mean(np.concatenate(vals)),
                        exp_pathloss_disk(50.0, 2.7), rtol=0.02)
