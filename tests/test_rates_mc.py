import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_config
from starfd.channel import StarRisState, draw_realization, star_cascade
from starfd.rates_mc import (PowerConfig, RateReport, _draw_si,
                             _reception_terms, _trial_rng, dl_sinr,
                             ergodic_rate_mc, noma_beneficial, noma_sinrs,
                             relay_leg_rates)


def baseline_power(**overrides) -> PowerConfig:
    kwargs = dict(P_t=1000.0, tau=0.8, alpha1=0.2, alpha2=0.8)
    kwargs.update(overrides)
    return PowerConfig.from_splits(**kwargs)


def random_state(n=20, rho_t=0.5, seed=3) -> StarRisState:
    return StarRisState.random_phases(n, rho_t, np.random.default_rng(seed))


def trial_sinrs(ch, ris, pw, si=0.0):
    """The kernel's four SINRs for one realization, unit noise powers."""
    return noma_sinrs(_reception_terms(ch, ris), pw, si, 1.0, 1.0)


class TestPowerConfig:
    def test_from_splits_baseline(self):
        pw = baseline_power()
        assert_allclose(pw.p_b1, 160.0)
        assert_allclose(pw.p_b2, 640.0)
        assert_allclose(pw.p_u1u, 100.0)
        assert_allclose(pw.p_u2u, 100.0)
        assert_allclose(pw.P_b, 800.0)
        assert_allclose(pw.tau, 0.8)

    def test_from_config_matches_from_splits(self):
        config = make_config(Xi=0.01, beta=1e-3)
        assert PowerConfig.from_config(config) == PowerConfig.from_splits(
            1000.0, 0.8, 0.2, 0.8, 0.5, Xi=0.01, beta=1e-3)

    def test_budget_violation_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            PowerConfig(P_t=1000.0, p_b1=160.0, p_b2=640.0,
                        p_u1u=100.0, p_u2u=150.0)

    def test_budget_tolerance_is_tight(self):
        # One part in 1e9 over is allowed, one part in 1e7 is not.
        PowerConfig(P_t=1000.0, p_b1=160.0 + 1e-7, p_b2=640.0,
                    p_u1u=100.0, p_u2u=100.0)
        with pytest.raises(ValueError, match="budget"):
            PowerConfig(P_t=1000.0, p_b1=160.0 + 1e-4, p_b2=640.0,
                        p_u1u=100.0, p_u2u=100.0)

    def test_underspending_is_legal(self):
        # The budget is a cap, not a quota: C.1 is an inequality.
        pw = PowerConfig(P_t=1000.0, p_b1=0.0, p_b2=0.0,
                         p_u1u=0.0, p_u2u=0.0)
        assert pw.P_b == 0.0 and pw.P_u == 0.0

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="p_u2u"):
            PowerConfig(P_t=1000.0, p_b1=500.0, p_b2=400.0,
                        p_u1u=200.0, p_u2u=-100.0)

    def test_non_finite_power_rejected(self):
        # NaN fails every comparison, so it needs its own check.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="p_b1 must be finite"):
                PowerConfig(P_t=1000.0, p_b1=bad, p_b2=400.0,
                            p_u1u=200.0, p_u2u=100.0)

    def test_zero_downlink_is_representable(self):
        # The allocator can return an all-uplink split; the explicit form
        # accepts it even though from_splits (tau > 0) cannot produce it.
        pw = PowerConfig(P_t=200.0, p_b1=0.0, p_b2=0.0,
                         p_u1u=120.0, p_u2u=80.0)
        assert pw.tau == 0.0
        assert pw.V == 0.0

    def test_from_splits_rejects_tau_zero(self):
        with pytest.raises(ValueError, match="small positive tau"):
            baseline_power(tau=0.0)

    def test_from_splits_rejects_bad_alphas(self):
        with pytest.raises(ValueError, match="equal 1"):
            baseline_power(alpha1=0.2, alpha2=0.9)
        with pytest.raises(ValueError, match="ordering"):
            baseline_power(alpha1=0.8, alpha2=0.2)

    def test_si_variance(self):
        pw = baseline_power(beta=1e-3, si_lambda=0.8)
        assert_allclose(pw.V, 1e-3 * 800.0 ** 0.8, rtol=1e-15)
        assert baseline_power().V == 0.0

    def test_xi_range_enforced(self):
        with pytest.raises(ValueError, match="Xi"):
            baseline_power(Xi=1.5)


class TestRateReport:
    def test_weighted_sum(self):
        rates = {"u1d": 1.0, "u2d": 2.0, "u1u": 3.0, "u2u": 4.0}
        weights = {"u1d": 0.8, "u2d": 0.8, "u1u": 0.8, "u2u": 0.8}
        report = RateReport.noma(rates, weights, estimator="cf")
        assert_allclose(report.sum_rate, 8.0, rtol=1e-15)
        assert report.rate("u1u") == 3.0

    def test_bidirectional_fields(self):
        report = RateReport.bidirectional(1.5, 0.5, estimator="mc",
                                          trials=10)
        assert report.sum_rate == 2.0
        assert report.rate("c") == 1.5
        with pytest.raises(ValueError, match="no rate"):
            report.rate("u1d")

    def test_invalid_labels_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            RateReport(scenario="other", estimator="cf", sum_rate=0.0)
        with pytest.raises(ValueError, match="estimator"):
            RateReport(scenario="noma-pair", estimator="exact", sum_rate=0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="r_c"):
            RateReport(scenario="bidirectional", estimator="cf",
                       sum_rate=0.0, r_c=-0.1, r_e=0.2)


class TestSinrOps:
    def setup_method(self):
        self.config = make_config()
        self.ris = random_state()
        rng = _trial_rng(17, 0)
        self.ch = draw_realization(self.config, self.ris, rng)

    def test_dl_center_term_by_term(self):
        pw = baseline_power(Xi=0.05)
        ch, ris = self.ch, self.ris
        l = ch.pathlosses
        a = abs(math.sqrt(l["b_u1d"]) * ch.h_b_u1d
                + math.sqrt(l["br"] * l["r_u1d"])
                * star_cascade(ch.g_r_u1d, ris, "t", ch.g_br)) ** 2
        c = abs(math.sqrt(l["u1d_u1u"]) * ch.h_u1d_u1u
                + math.sqrt(l["r_u1d"] * l["r_u1u"])
                * star_cascade(ch.g_r_u1d, ris, "t", ch.g_r_u1u)) ** 2
        d = (l["r_u1d"] * l["r_u2u"]
             * abs(star_cascade(ch.g_r_u1d, ris, "t", ch.g_r_u2u)) ** 2)
        expected = (pw.p_b1 * a
                    / (pw.Xi * pw.p_b2 * a + pw.p_u1u * c + pw.p_u2u * d
                       + 1.0))
        assert_allclose(trial_sinrs(ch, ris, pw)["u1d"], expected,
                        rtol=1e-14)

    def test_dl_edge_term_by_term(self):
        pw = baseline_power()
        ch, ris = self.ch, self.ris
        l = ch.pathlosses
        a = (l["br"] * l["r_u2d"]
             * abs(star_cascade(ch.g_r_u2d, ris, "r", ch.g_br)) ** 2)
        c = (l["r_u2d"] * l["r_u1u"]
             * abs(star_cascade(ch.g_r_u2d, ris, "r", ch.g_r_u1u)) ** 2)
        d = (l["r_u2d"] * l["r_u2u"]
             * abs(star_cascade(ch.g_r_u2d, ris, "r", ch.g_r_u2u)) ** 2)
        expected = pw.p_b2 * a / (pw.p_b1 * a + pw.p_u1u * c
                                  + pw.p_u2u * d + 1.0)
        assert_allclose(trial_sinrs(ch, ris, pw)["u2d"], expected,
                        rtol=1e-14)

    def test_ul_loopback_term(self):
        # With the user powers zeroed and no SI, the center UL SINR is the
        # direct+surface signal over the BS loop-back plus noise.
        pw = PowerConfig(P_t=1000.0, p_b1=200.0, p_b2=400.0,
                         p_u1u=400.0, p_u2u=0.0)
        ch, ris = self.ch, self.ris
        l = ch.pathlosses
        a = abs(math.sqrt(l["b_u1u"]) * ch.h_b_u1u
                + math.sqrt(l["br"] * l["r_u1u"])
                * star_cascade(ch.g_br, ris, "t", ch.g_r_u1u)) ** 2
        loop = l["br"] ** 2 * abs(
            np.sum(ris.side("t") * np.abs(ch.g_br) ** 2)) ** 2
        expected = pw.p_u1u * a / (600.0 * loop + 1.0)
        assert_allclose(trial_sinrs(ch, ris, pw)["u1u"], expected,
                        rtol=1e-14)

    def test_interference_free_center(self):
        # No uplink users and perfect SIC: the center DL SINR is a pure SNR.
        pw = PowerConfig(P_t=1000.0, p_b1=200.0, p_b2=800.0,
                         p_u1u=0.0, p_u2u=0.0)
        ch, ris = self.ch, self.ris
        l = ch.pathlosses
        a = abs(math.sqrt(l["b_u1d"]) * ch.h_b_u1d
                + math.sqrt(l["br"] * l["r_u1d"])
                * star_cascade(ch.g_r_u1d, ris, "t", ch.g_br)) ** 2
        assert_allclose(trial_sinrs(ch, ris, pw)["u1d"], 200.0 * a,
                        rtol=1e-14)

    def test_dark_side_kills_edge_users(self):
        # All energy on the transmit side leaves nothing for refraction
        # toward the edge disk, so the edge DL SINR is exactly zero.
        dark_r = StarRisState.uniform(self.config.n_elements, rho_t=1.0)
        ch = draw_realization(self.config, dark_r, _trial_rng(17, 0))
        assert trial_sinrs(ch, dark_r, baseline_power())["u2d"] == 0.0

    def test_si_dominated_uplink(self):
        pw = baseline_power(beta=1e9)
        si = _draw_si(pw, np.random.default_rng(0))
        sinrs = trial_sinrs(self.ch, self.ris, pw, si)
        assert sinrs["u1u"] < 1e-6
        assert sinrs["u2u"] < 1e-6

    def test_negative_si_draw_rejected(self):
        with pytest.raises(ValueError, match="si is a squared magnitude"):
            trial_sinrs(self.ch, self.ris, baseline_power(), -1.0)

    def test_strong_decodes_weak_exceeds_own_share(self):
        # The edge signal carries more power, so the center user decodes
        # it at a higher rate than its own signal whenever Xi is small.
        pw = baseline_power()
        own = math.log2(1.0 + trial_sinrs(self.ch, self.ris, pw)["u1d"])
        u1d = _reception_terms(self.ch, self.ris)["u1d"]
        cross = math.log2(1.0 + dl_sinr(u1d, pw.p_b2, pw.p_b1, pw, 1.0))
        assert cross > own

    def test_bidirectional_min_structure(self):
        pw = baseline_power()
        legs = relay_leg_rates(_reception_terms(self.ch, self.ris), pw,
                               0.0, 1.0, 1.0)
        assert all(leg >= 0.0 for leg in legs)
        # The BS decode legs are the NOMA uplink rates.
        sinrs = trial_sinrs(self.ch, self.ris, pw)
        assert legs[1] == math.log2(1.0 + sinrs["u2u"])
        assert legs[3] == math.log2(1.0 + sinrs["u1u"])


class TestNomaBeneficial:
    def test_strict_boundary(self):
        # gamma_oma = 3 puts the threshold exactly at 1.
        assert not noma_beneficial(1.0, 3.0)
        assert noma_beneficial(1.0 + 1e-12, 3.0)
        assert noma_beneficial(0.1, 0.0)
        assert not noma_beneficial(0.0, 0.0)


class TestErgodicRateMc:
    def setup_method(self):
        self.config = make_config()
        self.ris = random_state()
        self.pw = baseline_power()

    def test_deterministic_for_fixed_seed(self):
        a = ergodic_rate_mc(self.config, self.ris, self.pw, 60, seed=5)
        b = ergodic_rate_mc(self.config, self.ris, self.pw, 60, seed=5)
        assert a == b

    def test_single_trial_matches_direct_evaluation(self):
        report = ergodic_rate_mc(self.config, self.ris, self.pw, 1, seed=9)
        rng = _trial_rng(9, 0)
        ch = draw_realization(self.config, self.ris, rng)
        si = _draw_si(self.pw, rng)
        sinrs = trial_sinrs(ch, self.ris, self.pw, si)
        assert report.rate("u1d") == math.log2(1.0 + sinrs["u1d"])
        assert report.rate("u2u") == math.log2(1.0 + sinrs["u2u"])
        assert report.stderr == {u: 0.0 for u in
                                 ("u1d", "u2d", "u1u", "u2u")}

    def test_mean_is_average_of_single_trials(self):
        # Per-trial generators are keyed by index, so the 20-trial estimate
        # must equal the average over the 20 single-trial evaluations.
        trials = 20
        report = ergodic_rate_mc(self.config, self.ris, self.pw, trials,
                                 seed=23)
        singles = []
        for t in range(trials):
            rng = _trial_rng(23, t)
            ch = draw_realization(self.config, self.ris, rng)
            singles.append(math.log2(
                1.0 + trial_sinrs(ch, self.ris, self.pw)["u1d"]))
        assert_allclose(report.rate("u1d"),
                        math.fsum(singles) / trials, rtol=1e-15)

    def test_monotone_in_total_power(self):
        # Same seed, scaled budget: every per-draw SINR grows, so the
        # ergodic estimate must too (no SI so the UL scaling is clean).
        low = ergodic_rate_mc(self.config, self.ris, self.pw, 40, seed=3)
        high = ergodic_rate_mc(self.config, self.ris,
                               baseline_power(P_t=4000.0), 40, seed=3)
        for user in ("u1d", "u2d", "u1u", "u2u"):
            assert high.rate(user) >= low.rate(user)

    def test_sic_errors_only_hurt(self):
        clean = ergodic_rate_mc(self.config, self.ris, self.pw, 40, seed=3)
        dirty = ergodic_rate_mc(self.config, self.ris,
                                baseline_power(Xi=0.5), 40, seed=3)
        assert dirty.rate("u1d") < clean.rate("u1d")
        assert dirty.rate("u2u") < clean.rate("u2u")
        # Xi does not enter the other two users' SINRs at all.
        assert dirty.rate("u2d") == clean.rate("u2d")
        assert dirty.rate("u1u") == clean.rate("u1u")

    def test_noise_dominated_rates_vanish(self):
        pw = baseline_power(P_t=1e-5)
        report = ergodic_rate_mc(self.config, self.ris, pw, 50, seed=1)
        for user in ("u1d", "u2d", "u1u", "u2u"):
            assert report.rate(user) < 1e-3

    def test_bidirectional_min_of_leg_means(self):
        report = ergodic_rate_mc(self.config, self.ris, self.pw, 30,
                                 seed=7, scenario="bidirectional")
        legs = np.empty((30, 4))
        for t in range(30):
            rng = _trial_rng(7, t)
            ch = draw_realization(self.config, self.ris, rng)
            si = _draw_si(self.pw, rng)
            legs[t] = relay_leg_rates(_reception_terms(ch, self.ris),
                                      self.pw, si, 1.0, 1.0)
        means = [math.fsum(legs[:, i]) / 30 for i in range(4)]
        assert report.rate("c") == min(means[1], means[0])
        assert report.rate("e") == min(means[3], means[2])
        assert set(report.stderr) == {"c", "e"}

    def test_si_stream_layout_independent_of_beta(self):
        # beta only scales the SI draw; the channel stream is untouched,
        # so the DL rates (which ignore SI) are bit-identical.
        with_si = ergodic_rate_mc(self.config, self.ris,
                                  baseline_power(beta=1e-3), 40, seed=3)
        without = ergodic_rate_mc(self.config, self.ris, self.pw, 40,
                                  seed=3)
        assert with_si.rate("u1d") == without.rate("u1d")
        assert with_si.rate("u2d") == without.rate("u2d")
        assert with_si.rate("u1u") < without.rate("u1u")

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="trial"):
            ergodic_rate_mc(self.config, self.ris, self.pw, 0, seed=1)
        with pytest.raises(ValueError, match="scenario"):
            ergodic_rate_mc(self.config, self.ris, self.pw, 5, seed=1,
                            scenario="duplex")
