import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_config, short_form_rates
from starfd.channel import StarRisState, _los_vectors
from starfd.config import CellGeometry
from starfd.geometry import (exp_pathloss_disk,
                             exp_pathloss_fixed_point_to_disk,
                             exp_pathloss_two_random_points, pathloss)
from starfd.kernel import PowerConfig, dl_sinr, noma_sinrs
from starfd.rates_cf import (CfRateInputs, cf_rate_inputs, cf_rates,
                             cf_rates_bidirectional, cf_rates_simplified,
                             cf_sinrs, compute_moments)
from starfd.rates_mc import draw_realization, ergodic_rate_mc

USERS = ("u1d", "u2d", "u1u", "u2u")


def baseline_power(**overrides) -> PowerConfig:
    kwargs = dict(P_t=1000.0, tau=0.8, alpha1=0.2, alpha2=0.8)
    kwargs.update(overrides)
    return PowerConfig.from_splits(**kwargs)


def random_state(n=20, rho_t=0.5, seed=3) -> StarRisState:
    return StarRisState.random_phases(n, rho_t, np.random.default_rng(seed))


def surface_draws(config, seed, draws, block=10_000):
    """``draws`` Rician surface vectors per link, in blocks of rows."""
    rng = np.random.default_rng(seed)
    for _ in range(draws // block):
        yield draw_realization(config, rng, block).surface


class TestMoments:
    def setup_method(self):
        self.config = make_config()
        self.ris = random_state()
        self.moments = compute_moments(self.config, self.ris)

    def test_geometry_terms_match_direct_evaluation(self):
        mo = self.moments
        assert_allclose(mo.q_center, exp_pathloss_disk(50.0, 2.7),
                        rtol=1e-15)
        assert_allclose(mo.q_edge, exp_pathloss_disk(30.0, 2.7),
                        rtol=1e-15)
        assert_allclose(mo.upsilon,
                        exp_pathloss_fixed_point_to_disk(10.0, 50.0, 2.7),
                        rtol=1e-15)
        assert_allclose(mo.rho_2pt,
                        exp_pathloss_two_random_points(50.0, 2.7),
                        rtol=1e-15)
        assert_allclose(mo.l_br, pathloss(60.0, 2.7), rtol=1e-15)

    def test_invariants(self):
        mo = self.moments
        assert 0.0 < mo.upsilon <= 1.0
        assert 0.0 < mo.rho_2pt <= 1.0
        bound = {"t": float(np.sum(self.ris.rho_t)) ** 2,
                 "r": float(np.sum(self.ris.rho_r)) ** 2}
        sides = {1: "t", 2: "t", 3: "t", 4: "r", 5: "r", 6: "r",
                 7: "t", 8: "t", 9: "t"}
        for i, xi in mo.xi.items():
            assert xi >= 0.0
            assert xi <= bound[sides[i]] * (1.0 + 1e-12)
        for side in ("t", "r"):
            assert 0.0 <= mo.sum_rho_sq[side] <= self.config.n_elements

    def test_xi_against_explicit_double_sum(self):
        # Each LoS sum s_i runs over the elements of its side: a cascade's
        # out-link, the side's coefficient and its in-link; the loop-back
        # leaves the BS on g_br and returns on conj(g_br). xi_i is the
        # double sum over element pairs of s_i's terms.
        los = dict(_los_vectors(self.config.n_elements, self.config.angles))
        los["back"] = np.conj(los["br"])
        paths = {1: ("t", "u1d", "br"), 2: ("t", "u1d", "u1u"),
                 3: ("t", "u1d", "u2u"), 4: ("r", "u2d", "br"),
                 5: ("r", "u2d", "u1u"), 6: ("r", "u2d", "u2u"),
                 7: ("t", "br", "u1u"), 8: ("t", "br", "u2u"),
                 9: ("t", "back", "br")}
        mo = self.moments
        assert sorted(mo.los_sum) == sorted(mo.xi) == sorted(paths)
        for i, (side, out, inp) in paths.items():
            w = self.ris.side(side)
            terms = [los[out][n] * w[n] * los[inp][n]
                     for n in range(self.config.n_elements)]
            double = sum(a * np.conj(b) for a in terms for b in terms)
            assert_allclose(mo.los_sum[i], sum(terms), rtol=1e-12,
                            err_msg=str(i))
            assert_allclose(mo.xi[i], double.real, rtol=1e-12,
                            err_msg=str(i))

    def test_mixing_weights(self):
        # Link pair (br -> u1d) with kappa = 3 everywhere.
        mo = self.moments
        assert_allclose(mo.varpi[1], 9.0 / 16.0, rtol=1e-15)
        assert_allclose(mo.varpi_hat[1],
                        mo.sum_rho_sq["t"] * 7.0 / 16.0, rtol=1e-15)

    def test_kappa_limits(self):
        # kappa -> 0 on both links leaves only the scattered power.
        config = make_config(kappa_br=0.0, kappa_u2d=0.0)
        mo = compute_moments(config, self.ris)
        assert mo.varpi[4] == 0.0
        assert_allclose(mo.varpi_hat[4], mo.sum_rho_sq["r"], rtol=1e-15)
        # Large kappa pins the moment to the LoS cascade alone.
        config = make_config(kappa_br=1e12, kappa_u2d=1e12)
        mo = compute_moments(config, self.ris)
        assert_allclose(mo.varpi[4], 1.0, rtol=1e-10)
        assert mo.varpi_hat[4] < 1e-10

    def test_second_moment_against_monte_carlo(self):
        # E|g_out^T Theta g_in|^2 must equal varpi*xi + varpi_hat.
        config, ris = self.config, self.ris
        mo = self.moments
        w = ris.side("r")
        draws = 100_000
        acc = 0.0
        for g in surface_draws(config, 99, draws):
            acc += np.sum(np.abs(np.sum(g["u2d"] * w * g["br"], axis=1))
                          ** 2)
        expected = mo.varpi[4] * mo.xi[4] + mo.varpi_hat[4]
        assert_allclose(acc / draws, expected, rtol=0.02)

    def test_loopback_moment_closed_identity(self):
        # The assembled display must equal |S|^2 + (2k+1)/(k+1)^2 sum rho^2
        # with S the transmit-side coefficient sum.
        from starfd.rates_cf import _loopback_moment
        for seed in (3, 8, 21):
            ris = random_state(seed=seed, rho_t=0.35)
            mo = compute_moments(self.config, ris)
            s = complex(np.sum(ris.side("t")))
            kappa = 3.0
            simple = (abs(s) ** 2 + float(np.sum(ris.rho_t ** 2))
                      * (2.0 * kappa + 1.0) / (kappa + 1.0) ** 2)
            assert_allclose(_loopback_moment(self.config, mo), simple,
                            rtol=1e-12)

    def test_loopback_moment_against_monte_carlo(self):
        from starfd.rates_cf import _loopback_moment
        config, ris = self.config, self.ris
        w = ris.side("t")
        acc = 0.0
        draws = 100_000
        for g in surface_draws(config, 5, draws):
            acc += np.sum(np.abs(np.sum(w * np.abs(g["br"]) ** 2, axis=1))
                          ** 2)
        assert_allclose(acc / draws,
                        _loopback_moment(config, self.moments), rtol=0.02)

    def test_geometry_cache_reused(self):
        from starfd.rates_cf import _geometry_expectations
        _geometry_expectations.cache_clear()
        compute_moments(self.config, self.ris)
        compute_moments(self.config, random_state(seed=8))
        assert _geometry_expectations.cache_info().hits >= 1


class TestRateInputs:
    def setup_method(self):
        self.config = make_config()
        self.ris = random_state()

    def test_uplink_pair_identities(self):
        # The edge UL terms are the center UL terms with the signal and
        # interference roles swapped; the identities are exact.
        inputs = cf_rate_inputs(self.config, self.ris)
        assert inputs["u2u"].x1 == inputs["u1u"].y1
        assert inputs["u2u"].y1 == inputs["u1u"].x1
        assert inputs["u2u"].y2 == inputs["u1u"].y2

    @pytest.mark.parametrize("cell", ["baseline", "compact"])
    def test_triples_from_the_moments(self, cell):
        # The paper's x1, y1 and y2 of every user, written out from the
        # moment set: a direct link's mean path loss (q_center at the BS,
        # rho_2pt between the center users) plus the cascade's two mean
        # path losses (l_br, upsilon at the center users, q_edge at the
        # edge users) times its Rician second moment, or times the
        # loop-back moment |s_9|^2 + (2k+1)/(k+1)^2 sum rho_t^2, with s_9
        # the loop-back's LoS sum.
        config = self.config
        if cell == "compact":
            config = make_config(
                geometry=CellGeometry(R=10.0, R_r=30.0, d_br=12.0, m=3.1),
                kappa_br=2.0, kappa_u1d=5.0, kappa_u2d=0.5, kappa_u1u=8.0,
                kappa_u2u=1.5)
        mo = compute_moments(config, self.ris)

        def mix(i):
            return mo.varpi[i] * mo.xi[i] + mo.varpi_hat[i]

        k = config.kappa_br
        loop = (abs(mo.los_sum[9]) ** 2
                + (2.0 * k + 1.0) / (k + 1.0) ** 2 * mo.sum_rho_sq["t"])
        q_c, q_e, ups, l_br = mo.q_center, mo.q_edge, mo.upsilon, mo.l_br
        expected = {
            "u1d": (q_c + l_br * ups * mix(1), mo.rho_2pt + ups * ups * mix(2),
                    ups * q_e * mix(3)),
            "u2d": (l_br * q_e * mix(4), q_e * ups * mix(5),
                    q_e * q_e * mix(6)),
            "u1u": (q_c + l_br * ups * mix(7), l_br * q_e * mix(8),
                    l_br * l_br * loop),
        }
        expected["u2u"] = (expected["u1u"][1], expected["u1u"][0],
                           expected["u1u"][2])
        inputs = cf_rate_inputs(config, self.ris)
        assert sorted(inputs) == sorted(expected)
        for user, triple in expected.items():
            assert_allclose(tuple(inputs[user]), triple, rtol=1e-15,
                            err_msg=user)

    def test_dark_surface(self):
        # An unpowered surface (all rho = 0, physically a switched-off
        # panel) removes every cascade; only direct links survive.
        n = self.config.n_elements
        dark = StarRisState(rho_t=np.zeros(n), rho_r=np.zeros(n),
                            phi_t=np.zeros(n), phi_r=np.zeros(n),
                            validate=False)
        inputs = cf_rate_inputs(self.config, dark)
        mo = compute_moments(self.config, dark)
        assert inputs["u2d"].x1 == 0.0
        assert inputs["u2u"].x1 == 0.0
        assert_allclose(inputs["u1d"].x1, mo.q_center, rtol=1e-15)
        assert_allclose(inputs["u1d"].y1, mo.rho_2pt, rtol=1e-15)
        assert inputs["u1d"].y2 == 0.0
        assert inputs["u1u"].y2 == 0.0
        pw = baseline_power()
        report = cf_rates(self.config, dark, pw)
        assert report.rate("u2d") == 0.0
        assert report.rate("u2u") == 0.0
        direct = math.log2(1.0 + pw.p_u1u * mo.q_center / 1.0)
        assert_allclose(report.rate("u1u"), direct, rtol=1e-14)

    def test_negative_moment_rejected(self):
        with pytest.raises(ValueError, match="y1"):
            CfRateInputs(x1=1.0, y1=-1e-9, y2=0.0)
        with pytest.raises(ValueError, match="x1"):
            CfRateInputs(x1=math.nan, y1=0.0, y2=0.0)


class TestClosedFormRates:
    def setup_method(self):
        self.config = make_config()
        self.ris = random_state()
        self.pw = baseline_power()

    def test_report_bundles_the_four_ops(self):
        report = cf_rates(self.config, self.ris, self.pw)
        assert report.estimator == "cf"
        assert report.stderr is None
        # The closed forms are the kernel fed with the moments, si = V.
        sinrs = noma_sinrs(cf_rate_inputs(self.config, self.ris),
                           self.config, self.pw,
                           self.config.si_variance(self.pw.P_b))
        assert cf_sinrs(self.config, self.ris, self.pw) == sinrs
        for user in USERS:
            assert report.rate(user) == math.log2(1.0 + sinrs[user])

    def test_simplified_equals_switched_full(self):
        # The short forms assume perfect SIC and SI cancellation, so they
        # must match the written-out oracle whatever Xi and beta the
        # cell carries.
        for seed in (3, 11):
            ris = random_state(seed=seed)
            for config in (self.config.replace(Xi=0.0, beta=0.0),
                           self.config.replace(Xi=0.3, beta=1e-3)):
                simplified = cf_rates_simplified(config, ris, self.pw)
                oracle = short_form_rates(config, ris, self.pw)
                for user in USERS:
                    assert_allclose(simplified.rate(user), oracle[user],
                                    rtol=1e-12)

    def test_xi_touches_exactly_the_sic_dependent_users(self):
        clean = cf_rates(self.config, self.ris, self.pw)
        dirty = cf_rates(self.config.replace(Xi=0.3), self.ris, self.pw)
        assert dirty.rate("u1d") < clean.rate("u1d")
        assert dirty.rate("u2u") < clean.rate("u2u")
        assert dirty.rate("u2d") == clean.rate("u2d")
        assert dirty.rate("u1u") == clean.rate("u1u")

    def test_beta_touches_exactly_the_uplink_users(self):
        clean = cf_rates(self.config, self.ris, self.pw)
        noisy = cf_rates(self.config.replace(beta=1e-3), self.ris, self.pw)
        assert noisy.rate("u1u") < clean.rate("u1u")
        assert noisy.rate("u2u") < clean.rate("u2u")
        assert noisy.rate("u1d") == clean.rate("u1d")
        assert noisy.rate("u2d") == clean.rate("u2d")

    def test_center_rate_grows_with_its_power_share(self):
        small = cf_rates(self.config, self.ris,
                         baseline_power(alpha1=0.1, alpha2=0.9))
        large = cf_rates(self.config, self.ris,
                         baseline_power(alpha1=0.3, alpha2=0.7))
        assert large.rate("u1d") > small.rate("u1d")
        assert large.rate("u2d") < small.rate("u2d")

    def test_strong_decodes_weak_exceeds_edge_rate(self):
        # The center user sees a better channel on average, so it decodes
        # the edge signal at least as fast as the edge user itself.
        u1d = cf_rate_inputs(self.config, self.ris)["u1d"]
        cross = math.log2(1.0 + dl_sinr(u1d, self.pw.p_b2, self.pw.p_b1,
                                        self.pw, self.config.sigma_sq))
        edge = cf_rates(self.config, self.ris, self.pw).rate("u2d")
        assert cross > edge

    def test_edge_rates_agree_with_monte_carlo(self):
        # Structural agreement with the simulated ergodic rate at an
        # arbitrary (random-phase) state; the averaging bias of the
        # closed form is ~15% here. The acceptance gate checks the closed
        # forms against the moment ratio they stand for at the operating
        # points; agreement with the ergodic rate itself is not gated.
        report_cf = cf_rates(self.config, self.ris, self.pw)
        report_mc = ergodic_rate_mc([(self.config, self.ris, self.pw)],
                                    4000, seed=2)[0]
        assert_allclose(report_cf.rate("u2d"), report_mc.rate("u2d"),
                        rtol=0.2)
        assert_allclose(report_cf.rate("u2u"), report_mc.rate("u2u"),
                        rtol=0.2)

    def test_bidirectional_against_monte_carlo(self):
        r_c, r_e = cf_rates_bidirectional(self.config, self.ris, self.pw)
        report = ergodic_rate_mc([(self.config, self.ris, self.pw)], 4000,
                                 seed=2, scenario="bidirectional")[0]
        assert_allclose(r_c, report.rate("c"), rtol=0.2)
        assert_allclose(r_e, report.rate("e"), rtol=0.2)

    def test_bidirectional_bounded_by_decode_legs(self):
        r_c, r_e = cf_rates_bidirectional(self.config, self.ris, self.pw)
        report = cf_rates(self.config, self.ris, self.pw)
        assert r_c <= report.rate("u2u")
        assert r_e <= report.rate("u1u")
