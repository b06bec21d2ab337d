import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import BASELINE_ANGLES, make_config, star_cascade
from starfd.channel import StarRisState, _los_vectors, steering_vector
from starfd.config import GeometryAngles
from starfd.rates_mc import draw_realization


def draw(config, seed, size, ris=None):
    ris = ris or StarRisState.uniform(config.n_elements)
    return draw_realization(config, ris, np.random.default_rng(seed), size)


class TestSteeringVector:
    def test_all_angles_zero(self):
        # sin(az)sin(el) = 0 and cos(el) = 1, so only the y_n term remains.
        v = steering_vector(9, 0.0, 0.0, 0.5)
        y = np.arange(9) // 3
        assert_allclose(v, np.exp(1j * 2.0 * math.pi * 0.5 * y), rtol=1e-14)

    def test_single_element(self):
        assert_allclose(steering_vector(1, 1.2, 0.7, 0.5), [1.0 + 0.0j])

    def test_unit_modulus(self):
        v = steering_vector(20, 0.8, 1.1, 0.5)
        assert_allclose(np.abs(v), 1.0, rtol=1e-14)

    def test_conjugate_symmetry(self):
        # (az, el) -> (-az, pi - el) negates both sin(az)sin(el) and
        # cos(el), so the whole phase argument flips sign.
        a = steering_vector(16, 0.8, 1.1, 0.5)
        b = steering_vector(16, -0.8, math.pi - 1.1, 0.5)
        assert_allclose(b, np.conj(a), rtol=1e-13)

    def test_planar_vs_linear_indexing(self):
        # Perfect square: second row (n=4..7) carries the y-term.
        az, el, d = 0.3, 0.9, 0.5
        v16 = steering_vector(16, az, el, d)
        expected_phase = 2.0 * math.pi * d * (1.0 * math.cos(el))
        assert_allclose(v16[4], np.exp(1j * expected_phase), rtol=1e-13)
        # Non-square N falls back to a linear array: no y-term anywhere.
        v20 = steering_vector(20, az, el, d)
        x_phase = 2.0 * math.pi * d * math.sin(az) * math.sin(el)
        assert_allclose(v20, np.exp(1j * x_phase * np.arange(20)),
                        rtol=1e-12)

    def test_rejects_empty_array(self):
        with pytest.raises(ValueError):
            steering_vector(0, 0.0, 0.0, 0.5)


class TestStarRisState:
    def test_energy_constraint_enforced(self):
        with pytest.raises(ValueError, match="energy-splitting"):
            StarRisState(rho_t=np.full(4, 0.6), rho_r=np.full(4, 0.5),
                         phi_t=np.zeros(4), phi_r=np.zeros(4))

    def test_tiny_violation_tolerated(self):
        s = StarRisState(rho_t=np.full(4, 0.5 + 4e-10),
                         rho_r=np.full(4, 0.5),
                         phi_t=np.zeros(4), phi_r=np.zeros(4))
        assert s.n_elements == 4

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            StarRisState(rho_t=np.array([-0.1, 0.5]),
                         rho_r=np.array([1.1, 0.5]),
                         phi_t=np.zeros(2), phi_r=np.zeros(2))

    def test_validate_false_skips_energy_check(self):
        s = StarRisState(rho_t=np.full(3, 0.9), rho_r=np.full(3, 0.9),
                         phi_t=np.zeros(3), phi_r=np.zeros(3),
                         validate=False)
        assert s.n_elements == 3

    @pytest.mark.parametrize("validate", [True, False])
    def test_non_finite_values_rejected(self, validate):
        finite = dict(rho_t=np.full(4, 0.5), rho_r=np.full(4, 0.5),
                      phi_t=np.zeros(4), phi_r=np.zeros(4))
        for name, bad in (("rho_t", math.nan), ("rho_r", math.nan),
                          ("phi_t", math.inf), ("phi_r", -math.inf)):
            vec = finite[name].copy()
            vec[1] = bad
            with pytest.raises(ValueError, match="finite"):
                StarRisState(validate=validate, **{**finite, name: vec})

    def test_phases_wrapped(self):
        s = StarRisState.uniform(2, phi_t=-math.pi / 2, phi_r=5 * math.pi)
        assert_allclose(s.phi_t, 1.5 * math.pi, rtol=1e-12)
        assert_allclose(s.phi_r, math.pi, rtol=1e-12)

    def test_factories(self):
        s = StarRisState.uniform(5, rho_t=0.3)
        assert_allclose(s.rho_t + s.rho_r, 1.0, rtol=1e-15)
        r = StarRisState.random_phases(5, 0.5, np.random.default_rng(1))
        assert np.all((r.phi_t >= 0) & (r.phi_t < 2 * math.pi))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            StarRisState(rho_t=np.full(3, 0.5), rho_r=np.full(4, 0.5),
                         phi_t=np.zeros(3), phi_r=np.zeros(3))


class TestSampleRician:
    """The Rician surface vectors of the block draw."""

    def test_pure_los_limit(self):
        config = make_config(n_elements=8, kappa_br=1e12)
        los = _los_vectors(8, config.angles)["br"]
        g = draw(config, 0, 4).surface["br"]
        assert np.max(np.abs(g - los)) < 1e-5

    def test_rayleigh_moments(self):
        config = make_config(n_elements=1000, kappa_u2d=0.0)
        g = draw(config, 2, 1000).surface["u2d"]
        assert abs(np.mean(np.abs(g) ** 2) - 1.0) < 0.01
        assert abs(np.mean(g)) < 0.01

    def test_unit_power_at_kappa_three(self):
        config = make_config(n_elements=1000)
        g = draw(config, 3, 1000).surface["u1u"]
        assert abs(np.mean(np.abs(g) ** 2) - 1.0) < 0.01

    def test_los_modulus_checked(self):
        # The LoS components the draw adds have unit modulus, at every
        # array shape (planar and linear).
        for n in (1, 7, 16, 100):
            for link, los in _los_vectors(n, BASELINE_ANGLES).items():
                assert los.shape == (n,)
                assert_allclose(np.abs(los), 1.0, rtol=1e-12,
                                err_msg=link)


class TestStarCascade:
    def test_dark_side_gives_zero(self):
        s = StarRisState.uniform(6, rho_t=0.0)
        g = np.ones(6, dtype=complex)
        assert star_cascade(g, s, "t", g) == 0.0

    def test_single_element_phase_flip(self):
        s = StarRisState(rho_t=np.array([1.0]), rho_r=np.array([0.0]),
                         phi_t=np.array([math.pi]), phi_r=np.array([0.0]))
        out = star_cascade(np.array([1.0 + 0j]), s, "t",
                           np.array([1.0 + 0j]))
        assert_allclose(out, -1.0, atol=1e-15)

    def test_matches_diagonal_matrix_oracle(self):
        rng = np.random.default_rng(7)
        n = 8
        s = StarRisState(rho_t=rng.uniform(0, 1, n),
                         rho_r=np.zeros(n), phi_t=rng.uniform(0, 6, n),
                         phi_r=np.zeros(n), validate=False)
        g_out = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g_in = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        theta = np.diag(s.rho_t * np.exp(1j * s.phi_t))
        oracle = g_out @ theta @ g_in
        assert_allclose(star_cascade(g_out, s, "t", g_in), oracle,
                        rtol=1e-12)

    def test_linearity_probes(self):
        rng = np.random.default_rng(11)
        n = 5
        s = StarRisState.random_phases(n, 0.4, rng)
        g1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = star_cascade(g1 + 2.5j * g2, s, "r", h)
        rhs = (star_cascade(g1, s, "r", h)
               + 2.5j * star_cascade(g2, s, "r", h))
        assert_allclose(lhs, rhs, rtol=1e-12)
        lhs = star_cascade(h, s, "t", 0.7 * g1)
        assert_allclose(lhs, 0.7 * star_cascade(h, s, "t", g1), rtol=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        n = 12
        s = StarRisState.random_phases(n, 0.6, rng)
        g_out = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g_in = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        bound = float(np.sum(np.abs(g_out) * s.rho_t * np.abs(g_in)))
        assert abs(star_cascade(g_out, s, "t", g_in)) <= bound + 1e-12

    def test_length_mismatch(self):
        s = StarRisState.uniform(4)
        with pytest.raises(ValueError):
            star_cascade(np.ones(3), s, "t", np.ones(4))
        with pytest.raises(ValueError):
            star_cascade(np.ones(4), s, "x", np.ones(4))


class TestGeometryAngles:
    def test_link_accessor(self):
        assert BASELINE_ANGLES.link("br") == (0.8, 1.1)
        assert BASELINE_ANGLES.link("u2u") == (5.3, 1.5)
        with pytest.raises(ValueError):
            BASELINE_ANGLES.link("u9")

    def test_validation(self):
        with pytest.raises(ValueError, match="finite"):
            GeometryAngles(az_br=math.nan, el_br=0, az_u1d=0, el_u1d=0,
                           az_u2d=0, el_u2d=0, az_u1u=0, el_u1u=0,
                           az_u2u=0, el_u2u=0)
        with pytest.raises(ValueError, match="spacing"):
            GeometryAngles(az_br=0, el_br=0, az_u1d=0, el_u1d=0,
                           az_u2d=0, el_u2d=0, az_u1u=0, el_u1u=0,
                           az_u2u=0, el_u2u=0, d_over_lambda=0.0)


class TestDrawRealization:
    def test_deterministic_under_seed(self):
        config = make_config()
        a = draw(config, 99, 16)
        b = draw(config, 99, 16)
        for field in ("radius", "angle", "pathlosses", "direct", "surface"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.keys() == y.keys()
            for key in x:
                assert np.array_equal(x[key], y[key]), (field, key)
        assert np.array_equal(a.si_pair, b.si_pair)

    def test_block_shapes(self):
        config = make_config(n_elements=7)
        block = draw(config, 1, 5)
        assert block.size == 5
        for name, g in block.surface.items():
            assert g.shape == (5, 7), name
        for name, h in block.direct.items():
            assert h.shape == (5,), name
        assert block.si_pair.shape == (5, 2)

    def test_pathlosses_bounded(self):
        config = make_config()
        block = draw(config, 5, 200)
        for name, value in block.pathlosses.items():
            assert np.all((0.0 < value) & (value <= 1.0)), name

    def test_zero_kappa_vectors_are_zero_mean(self):
        config = make_config(kappa_br=0.0, kappa_u1d=0.0, kappa_u2d=0.0,
                             kappa_u1u=0.0, kappa_u2u=0.0)
        g = draw(config, 17, 5000).surface["br"]
        # 20 * 5000 = 1e5 entry draws; the entry mean should be tiny.
        assert abs(np.mean(g)) < 0.01

    def test_positions_in_expected_regions(self):
        config = make_config()
        block = draw(config, 23, 2000)
        for user, radius_max in (("u1d", 50.0), ("u1u", 50.0),
                                 ("u2d", 30.0), ("u2u", 30.0)):
            assert np.all(block.radius[user] <= radius_max), user
            # Uniform on the disk: P(r <= R / 2) = 1/4.
            assert abs(np.mean(block.radius[user] <= radius_max / 2)
                       - 0.25) < 0.04, user
            assert np.all((0.0 <= block.angle[user])
                          & (block.angle[user] < 2.0 * math.pi)), user

    def test_surface_size_mismatch_rejected(self):
        config = make_config()
        with pytest.raises(ValueError, match="does not match"):
            draw(config, 0, 4, ris=StarRisState.uniform(8))

    def test_fixed_link_pathloss(self):
        config = make_config()
        block = draw(config, 31, 3)
        assert_allclose(block.pathlosses["br"], (1.0 + 60.0) ** -2.7,
                        rtol=1e-14)
