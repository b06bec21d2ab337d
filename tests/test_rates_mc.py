import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import starfd.rates_mc as rates_mc
from conftest import (BASELINE_ANGLES, make_config, scalar_terms,
                      star_cascade, trial_channels)
from starfd.channel import StarRisState
from starfd.config import CellGeometry, SystemConfig
from starfd.designs import aligned_state
from starfd.kernel import (PowerConfig, RateReport, binding_legs, dl_sinr,
                           noma_sinrs, relay_leg_rates, scenario_rates)
from starfd.rates_mc import (_BLOCK, DRAW_FIELDS, _block_si, _block_terms,
                             _blocks, draw_realization, ergodic_rate_mc)

USERS = ("u1d", "u2d", "u1u", "u2u")


def baseline_power(**overrides) -> PowerConfig:
    kwargs = dict(P_t=1000.0, tau=0.8, alpha1=0.2, alpha2=0.8)
    kwargs.update(overrides)
    return PowerConfig.from_splits(**kwargs)


def random_state(n=20, rho_t=0.5, seed=3) -> StarRisState:
    return StarRisState.random_phases(n, rho_t, np.random.default_rng(seed))


def first_block(config, ris, seed, size):
    """Block 0 of the simulator's stream at ``seed``, ``size`` trials."""
    return next(_blocks(config, ris, size, seed))


def trial_sinrs(block, config, ris, pw, si=0.0, t=0):
    """The kernel's four SINRs for trial t of a block."""
    sinrs = noma_sinrs(_block_terms(block, ris), config, pw, si)
    return {u: float(sinrs[u][t]) for u in USERS}


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
            1000.0, 0.8, 0.2, 0.8, 0.5)

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
        assert make_config().si_variance(pw.P_b) == 0.0

    def test_from_splits_rejects_tau_zero(self):
        with pytest.raises(ValueError, match="small positive tau"):
            baseline_power(tau=0.0)

    def test_from_splits_rejects_bad_alphas(self):
        with pytest.raises(ValueError, match="equal 1"):
            baseline_power(alpha1=0.2, alpha2=0.9)
        with pytest.raises(ValueError, match="ordering"):
            baseline_power(alpha1=0.8, alpha2=0.2)

    def test_xi_range_enforced(self):
        # The split carries no Xi of its own: a cell whose SIC error factor
        # is out of range is refused before any split is read from it.
        for bad in (1.5, -0.1):
            with pytest.raises(ValueError, match="Xi"):
                PowerConfig.from_config(make_config(Xi=bad))


class TestRateReport:
    def test_weighted_sum(self):
        rates = (1.0, 2.0, 3.0, 4.0)
        weights = {"u1d": 0.8, "u2d": 0.8, "u1u": 0.8, "u2u": 0.8}
        report = RateReport.of("noma-pair", rates, weights, "cf")
        assert_allclose(report.sum_rate, 8.0, rtol=1e-15)
        assert report.rate("u1u") == 3.0

    def test_bidirectional_fields(self):
        # Legs (r_uc, r_u2u, r_ue, r_u1u): each connection takes its
        # smaller leg.
        report = RateReport.of("bidirectional", (1.5, 2.0, 0.7, 0.5), {},
                               "mc", trials=10)
        assert report.sum_rate == 2.0
        assert report.rate("c") == 1.5
        assert list(report.rates) == ["c", "e"]
        with pytest.raises(ValueError, match="no rate"):
            report.rate("u1d")

    def test_leg_tie_binds_the_decode_leg_and_its_stderr(self):
        report = RateReport.of("bidirectional", (1.25, 1.25, 0.5, 0.5), {},
                               "mc", trials=10,
                               errors=(0.1, 0.2, 0.3, 0.4))
        assert report.rates == {"c": 1.25, "e": 0.5}
        assert report.stderr == {"c": 0.2, "e": 0.4}
        report = RateReport.of("bidirectional", (1.0, 1.25, 0.75, 0.5), {},
                               "mc", trials=10,
                               errors=(0.1, 0.2, 0.3, 0.4))
        assert report.stderr == {"c": 0.1, "e": 0.4}

    def test_bidirectional_sum_is_the_plain_float_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            legs = tuple(rng.uniform(0.0, 9.0, 4).tolist())
            report = RateReport.of("bidirectional", legs, {}, "cf")
            assert report.sum_rate == report.rate("c") + report.rate("e")

    @pytest.mark.parametrize("start", ["aligned", "random"])
    @pytest.mark.parametrize("scenario", ["noma-pair", "bidirectional"])
    def test_objective_is_the_reported_sum_rate(self, scenario, start):
        from starfd.optimize import _make_objective
        from starfd.rates_cf import cf_rates
        config = make_config(weight_u1d=0.3, weight_u2u=1.7)
        pw = PowerConfig.from_config(config)
        state = (aligned_state(config, 0.5, pw, scenario)
                 if start == "aligned" else random_state())
        evaluate, _ = _make_objective(config, pw, scenario)
        assert (evaluate(state)[0]
                == cf_rates(config, state, pw, scenario).sum_rate)

    def test_invalid_labels_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            RateReport(scenario="other", estimator="cf", sum_rate=0.0,
                       rates={})
        with pytest.raises(ValueError, match="estimator"):
            RateReport(scenario="noma-pair", estimator="exact", sum_rate=0.0,
                       rates={})

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="r_c"):
            RateReport(scenario="bidirectional", estimator="cf",
                       sum_rate=0.0, rates={"c": -0.1, "e": 0.2})


class TestSinrOps:
    """The simulator's batched terms through the kernel, row by row,
    against the reception formulas written out with scalar cascades."""

    def setup_method(self):
        self.config = make_config()
        self.ris = random_state()
        self.block = first_block(self.config, self.ris, 17, 4)

    def rows(self):
        for t in range(self.block.size):
            yield (t,) + trial_channels(self.block, t)

    def test_dl_center_term_by_term(self):
        config = self.config.replace(Xi=0.05)
        pw = baseline_power()
        ris = self.ris
        for t, l, h, g in self.rows():
            a = abs(math.sqrt(l["b_u1d"]) * h["b_u1d"]
                    + math.sqrt(l["br"] * l["r_u1d"])
                    * star_cascade(g["u1d"], ris, "t", g["br"])) ** 2
            c = abs(math.sqrt(l["u1d_u1u"]) * h["u1d_u1u"]
                    + math.sqrt(l["r_u1d"] * l["r_u1u"])
                    * star_cascade(g["u1d"], ris, "t", g["u1u"])) ** 2
            d = (l["r_u1d"] * l["r_u2u"]
                 * abs(star_cascade(g["u1d"], ris, "t", g["u2u"])) ** 2)
            expected = (pw.p_b1 * a
                        / (config.Xi * pw.p_b2 * a + pw.p_u1u * c
                           + pw.p_u2u * d + 1.0))
            assert_allclose(trial_sinrs(self.block, config, ris, pw,
                                        t=t)["u1d"],
                            expected, rtol=1e-14)

    def test_dl_edge_term_by_term(self):
        pw = baseline_power()
        ris = self.ris
        for t, l, h, g in self.rows():
            a = (l["br"] * l["r_u2d"]
                 * abs(star_cascade(g["u2d"], ris, "r", g["br"])) ** 2)
            c = (l["r_u2d"] * l["r_u1u"]
                 * abs(star_cascade(g["u2d"], ris, "r", g["u1u"])) ** 2)
            d = (l["r_u2d"] * l["r_u2u"]
                 * abs(star_cascade(g["u2d"], ris, "r", g["u2u"])) ** 2)
            expected = pw.p_b2 * a / (pw.p_b1 * a + pw.p_u1u * c
                                      + pw.p_u2u * d + 1.0)
            assert_allclose(trial_sinrs(self.block, self.config, ris, pw,
                                        t=t)["u2d"],
                            expected, rtol=1e-14)

    def test_ul_loopback_term(self):
        # With the user powers zeroed and no SI, the center UL SINR is the
        # direct+surface signal over the BS loop-back plus noise.
        pw = PowerConfig(P_t=1000.0, p_b1=200.0, p_b2=400.0,
                         p_u1u=400.0, p_u2u=0.0)
        ris = self.ris
        for t, l, h, g in self.rows():
            a = abs(math.sqrt(l["b_u1u"]) * h["b_u1u"]
                    + math.sqrt(l["br"] * l["r_u1u"])
                    * star_cascade(g["br"], ris, "t", g["u1u"])) ** 2
            loop = l["br"] ** 2 * abs(
                np.sum(ris.side("t") * np.abs(g["br"]) ** 2)) ** 2
            expected = pw.p_u1u * a / (600.0 * loop + 1.0)
            assert_allclose(trial_sinrs(self.block, self.config, ris, pw,
                                        t=t)["u1u"],
                            expected, rtol=1e-14)

    def test_interference_free_center(self):
        # No uplink users and perfect SIC: the center DL SINR is a pure SNR.
        pw = PowerConfig(P_t=1000.0, p_b1=200.0, p_b2=800.0,
                         p_u1u=0.0, p_u2u=0.0)
        ris = self.ris
        for t, l, h, g in self.rows():
            a = abs(math.sqrt(l["b_u1d"]) * h["b_u1d"]
                    + math.sqrt(l["br"] * l["r_u1d"])
                    * star_cascade(g["u1d"], ris, "t", g["br"])) ** 2
            assert_allclose(trial_sinrs(self.block, self.config, ris, pw,
                                        t=t)["u1d"],
                            200.0 * a, rtol=1e-14)

    def test_dark_side_kills_edge_users(self):
        # All energy on the transmit side leaves nothing for refraction
        # toward the edge disk, so the edge DL SINR is exactly zero.
        dark_r = StarRisState.uniform(self.config.n_elements, rho_t=1.0)
        block = first_block(self.config, dark_r, 17, 4)
        sinrs = noma_sinrs(_block_terms(block, dark_r), self.config,
                           baseline_power(), 0.0)
        assert np.all(sinrs["u2d"] == 0.0)

    def test_si_dominated_uplink(self):
        config = self.config.replace(beta=1e9)
        pw = baseline_power()
        si = _block_si(self.block, config, pw)
        sinrs = noma_sinrs(_block_terms(self.block, self.ris), config, pw,
                           si)
        assert np.all(sinrs["u1u"] < 1e-6)
        assert np.all(sinrs["u2u"] < 1e-6)

    def test_negative_si_draw_rejected(self):
        with pytest.raises(ValueError, match="si is a squared magnitude"):
            trial_sinrs(self.block, self.config, self.ris, baseline_power(),
                        -1.0)
        # One negative draw in a block is enough.
        si = np.array([0.0, 1.0, -1e-300, 2.0])
        with pytest.raises(ValueError, match="si is a squared magnitude"):
            noma_sinrs(_block_terms(self.block, self.ris), self.config,
                       baseline_power(), si)
        # NaN is no squared magnitude either, alone or once in a block.
        with pytest.raises(ValueError, match="si is a squared magnitude"):
            trial_sinrs(self.block, self.config, self.ris, baseline_power(),
                        math.nan)
        si = np.array([0.0, 1.0, math.nan, 2.0])
        with pytest.raises(ValueError, match="si is a squared magnitude"):
            noma_sinrs(_block_terms(self.block, self.ris), self.config,
                       baseline_power(), si)

    def test_strong_decodes_weak_exceeds_own_share(self):
        # The edge signal carries more power, so the center user decodes
        # it at a higher rate than its own signal whenever Xi is small.
        pw = baseline_power()
        own = np.log2(1.0 + noma_sinrs(_block_terms(self.block, self.ris),
                                       self.config, pw, 0.0)["u1d"])
        u1d = _block_terms(self.block, self.ris)["u1d"]
        cross = np.log2(1.0 + dl_sinr(u1d, pw.p_b2, pw.p_b1, pw, 1.0))
        assert np.all(cross > own)

    def test_bidirectional_min_structure(self):
        pw = baseline_power()
        terms = _block_terms(self.block, self.ris)
        legs = relay_leg_rates(terms, self.config, pw, 0.0)
        assert all(np.all(leg >= 0.0) for leg in legs)
        # The BS decode legs are the NOMA uplink rates.
        sinrs = noma_sinrs(terms, self.config, pw, 0.0)
        assert np.array_equal(legs[1], np.log2(1.0 + sinrs["u2u"]))
        assert np.array_equal(legs[3], np.log2(1.0 + sinrs["u1u"]))

    def test_binding_legs_tie_goes_to_the_decode_leg(self):
        # Legs are (r_uc, r_u2u, r_ue, r_u1u); each connection takes the
        # smaller of its pair, and a tie takes the BS decode leg.
        assert binding_legs((1.0, 1.0, 2.0, 2.0)) == (1, 3)
        assert binding_legs((0.5, 1.0, 3.0, 2.0)) == (0, 3)
        assert binding_legs((1.0, 0.5, 2.0, 3.0)) == (1, 2)


class TestErgodicRateMc:
    def setup_method(self):
        self.config = make_config()
        self.ris = random_state()
        self.pw = baseline_power()

    def test_deterministic_for_fixed_seed(self):
        cells = [(self.config, self.ris, self.pw)]
        a = ergodic_rate_mc(cells, 60, seed=5)[0]
        b = ergodic_rate_mc(cells, 60, seed=5)[0]
        assert a == b

    def test_single_trial_matches_direct_evaluation(self):
        report = ergodic_rate_mc([(self.config, self.ris, self.pw)], 1,
                                 seed=9)[0]
        block = first_block(self.config, self.ris, 9, 1)
        sinrs = trial_sinrs(block, self.config, self.ris, self.pw,
                            _block_si(block, self.config, self.pw))
        assert report.rate("u1d") == np.log2(1.0 + sinrs["u1d"])
        assert report.rate("u2u") == np.log2(1.0 + sinrs["u2u"])
        assert report.stderr == {u: 0.0 for u in USERS}

    def test_mean_is_average_of_single_trials(self):
        # The estimate must equal the average of the per-trial rates
        # that its one block scores.
        trials = 20
        report = ergodic_rate_mc([(self.config, self.ris, self.pw)],
                                 trials, seed=23)[0]
        block = first_block(self.config, self.ris, 23, trials)
        singles = np.log2(1.0 + noma_sinrs(
            _block_terms(block, self.ris), self.config, self.pw,
            _block_si(block, self.config, self.pw))["u1d"])
        assert_allclose(report.rate("u1d"),
                        math.fsum(singles) / trials, rtol=1e-15)

    def test_monotone_in_total_power(self):
        # Same seed, scaled budget: every per-draw SINR grows, so the
        # ergodic estimate must too (no SI so the UL scaling is clean).
        low = ergodic_rate_mc([(self.config, self.ris, self.pw)], 40,
                              seed=3)[0]
        high = ergodic_rate_mc(
            [(self.config, self.ris, baseline_power(P_t=4000.0))], 40,
            seed=3)[0]
        for user in ("u1d", "u2d", "u1u", "u2u"):
            assert high.rate(user) >= low.rate(user)

    def test_sic_errors_only_hurt(self):
        clean = ergodic_rate_mc([(self.config, self.ris, self.pw)], 40,
                                seed=3)[0]
        dirty = ergodic_rate_mc(
            [(self.config.replace(Xi=0.5), self.ris, self.pw)], 40,
            seed=3)[0]
        assert dirty.rate("u1d") < clean.rate("u1d")
        assert dirty.rate("u2u") < clean.rate("u2u")
        # Xi does not enter the other two users' SINRs at all.
        assert dirty.rate("u2d") == clean.rate("u2d")
        assert dirty.rate("u1u") == clean.rate("u1u")

    def test_noise_dominated_rates_vanish(self):
        pw = baseline_power(P_t=1e-5)
        report = ergodic_rate_mc([(self.config, self.ris, pw)], 50,
                                 seed=1)[0]
        for user in ("u1d", "u2d", "u1u", "u2u"):
            assert report.rate(user) < 1e-3

    def test_bidirectional_min_of_leg_means(self):
        report = ergodic_rate_mc([(self.config, self.ris, self.pw)], 30,
                                 seed=7, scenario="bidirectional")[0]
        block = first_block(self.config, self.ris, 7, 30)
        legs = relay_leg_rates(_block_terms(block, self.ris), self.config,
                               self.pw, _block_si(block, self.config, self.pw))
        means = [math.fsum(leg) / 30 for leg in legs]
        assert report.rate("c") == min(means[1], means[0])
        assert report.rate("e") == min(means[3], means[2])
        assert set(report.stderr) == {"c", "e"}

    def test_si_stream_layout_independent_of_beta(self):
        # beta only scales the SI draw; the channel stream is untouched,
        # so the DL rates (which ignore SI) are bit-identical.
        with_si = ergodic_rate_mc(
            [(self.config.replace(beta=1e-3), self.ris, self.pw)], 40,
            seed=3)[0]
        without = ergodic_rate_mc([(self.config, self.ris, self.pw)], 40,
                                  seed=3)[0]
        assert with_si.rate("u1d") == without.rate("u1d")
        assert with_si.rate("u2d") == without.rate("u2d")
        assert with_si.rate("u1u") < without.rate("u1u")

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="trial"):
            ergodic_rate_mc([(self.config, self.ris, self.pw)], 0, seed=1)
        with pytest.raises(ValueError, match="scenario"):
            ergodic_rate_mc([(self.config, self.ris, self.pw)], 5, seed=1,
                            scenario="duplex")


def same_block(a, b) -> bool:
    """Whether two channel blocks hold the same values, bit for bit."""
    parts = ("radius", "angle", "pathlosses", "direct", "surface")
    return (all(getattr(a, p).keys() == getattr(b, p).keys()
                and all(np.array_equal(getattr(a, p)[k], getattr(b, p)[k])
                        for k in getattr(a, p)) for p in parts)
            and np.array_equal(a.si_pair, b.si_pair))


# A valid change of every config field the draw does not read.
NOT_DRAWN = {
    "sigma_sq": dict(sigma_sq=2.0), "sigma_b_sq": dict(sigma_b_sq=3.0),
    "weight_u1d": dict(weight_u1d=0.1), "weight_u2d": dict(weight_u2d=0.2),
    "weight_u1u": dict(weight_u1u=0.3), "weight_u2u": dict(weight_u2u=0.4),
    "P_t": dict(P_t=10.0), "tau": dict(tau=0.5),
    "alpha1": dict(alpha1=0.3, alpha2=0.7),
    "alpha2": dict(alpha1=0.1, alpha2=0.9), "ul_split": dict(ul_split=0.2),
    "Xi": dict(Xi=0.3), "beta": dict(beta=1e-3),
    "si_lambda": dict(si_lambda=0.7), "R_dth": dict(R_dth=0.5),
    "R_uth": dict(R_uth=0.2),
}

# A valid change of every field of the draw key.
DRAWN = {
    "geometry": dict(geometry=CellGeometry(R=40.0, R_r=30.0, d_br=60.0,
                                           m=2.7)),
    "n_elements": dict(n_elements=5),
    "angles": dict(angles=BASELINE_ANGLES.replace(az_u2d=1.0)),
    **{f"kappa_{link}": {f"kappa_{link}": 7.0}
       for link in ("br", "u1d", "u2d", "u1u", "u2u")},
}


class TestDrawKey:
    """The draw reads exactly the config fields of its key."""

    def test_the_tables_cover_every_config_field(self):
        assert tuple(DRAWN) == DRAW_FIELDS
        assert set(NOT_DRAWN) | set(DRAWN) == set(SystemConfig.__slots__)

    @pytest.mark.parametrize("field", sorted(NOT_DRAWN))
    def test_fields_outside_the_key_leave_the_draw_alone(self, field):
        config = make_config()
        changed = config.replace(**NOT_DRAWN[field])
        assert changed != config
        ris = random_state()
        blocks = [draw_realization(c, ris, np.random.default_rng(4), 16)
                  for c in (config, changed)]
        assert same_block(*blocks)

    @pytest.mark.parametrize("field", DRAW_FIELDS)
    def test_key_fields_change_the_draw(self, field):
        config = make_config()
        changed = config.replace(**DRAWN[field])
        blocks = [draw_realization(c, random_state(n=c.n_elements),
                                   np.random.default_rng(4), 16)
                  for c in (config, changed)]
        assert not same_block(*blocks)

    @pytest.mark.parametrize("field", DRAW_FIELDS)
    def test_cells_that_differ_in_a_key_field_are_refused(self, field):
        config = make_config()
        changed = config.replace(**DRAWN[field])
        cells = [(c, random_state(n=c.n_elements),
                  PowerConfig.from_config(c)) for c in (config, changed)]
        with pytest.raises(ValueError, match="fields the draw reads"):
            ergodic_rate_mc(cells, 40, 3)


class TestSharedStream:
    """Several (config, state, powers) cells scored on one trial stream."""

    TRIALS = 2 * _BLOCK + 3

    def setup_method(self):
        self.config = make_config(Xi=0.05, beta=1e-3)
        self.pw = PowerConfig.from_config(self.config)

    @pytest.mark.parametrize("scenario", ["noma-pair", "bidirectional"])
    def test_each_pair_reports_as_its_one_pair_call(self, scenario):
        cells = [(self.config, random_state(seed=1), self.pw),
                 (self.config.replace(Xi=0.2, beta=0.0),
                  random_state(rho_t=0.3, seed=2), baseline_power()),
                 (self.config.replace(Xi=0.0, beta=0.1),
                  random_state(seed=1), baseline_power(P_t=10.0))]
        shared = ergodic_rate_mc(cells, self.TRIALS, 6, scenario)
        assert len(shared) == len(cells)
        for cell, report in zip(cells, shared):
            alone = ergodic_rate_mc([cell], self.TRIALS, 6, scenario)
            assert alone == [report]
        assert shared[0] != shared[1] != shared[2]

    @pytest.mark.parametrize("scenario, rates, stderr, total", [
        ("noma-pair",
         {"u1d": 0.048686452699608154, "u2d": 0.00023637096594872388,
          "u1u": 0.03439691335315071, "u2u": 1.7203205188487537e-05},
         {"u1d": 0.0033695141979666813, "u2d": 4.266326182875407e-05,
          "u1u": 0.004765317312409981, "u2u": 1.826029056574845e-06},
         0.06666955217911687),
        ("bidirectional",
         {"c": 1.7203205188487537e-05, "e": 0.0002804214365633442},
         {"c": 1.826029056574845e-06, "e": 4.686166046153594e-05},
         0.00029762464175183177),
    ])
    def test_one_pair_stream_is_pinned(self, scenario, rates, stderr,
                                       total):
        # The library stream of version 0.2.0, unchanged by scoring
        # several cells per block.
        report, = ergodic_rate_mc([(self.config, random_state(), self.pw)],
                                  self.TRIALS, 11, scenario)
        assert report.rates == rates
        assert report.stderr == stderr
        assert report.sum_rate == total
        assert report.trials == self.TRIALS

    def test_each_block_is_drawn_once_for_all_pairs(self, monkeypatch):
        sizes = []
        draw = rates_mc.draw_realization

        def recording_draw(config, ris, rng, size):
            sizes.append(size)
            return draw(config, ris, rng, size)

        monkeypatch.setattr(rates_mc, "draw_realization", recording_draw)
        # The states differ, and so do the cells' SIC and SI constants,
        # as along an xi or beta sweep.
        configs = [self.config, self.config.replace(Xi=0.3),
                   self.config.replace(beta=0.1), make_config()]
        cells = [(config, random_state(seed=s), self.pw)
                 for s, config in enumerate(configs)]
        ergodic_rate_mc(cells, self.TRIALS, 2)
        assert sizes == [_BLOCK, _BLOCK, 3]

    def test_terms_are_taken_once_per_distinct_state(self, monkeypatch):
        states = []
        terms = rates_mc._block_terms

        def counting_terms(block, ris):
            states.append(ris)
            return terms(block, ris)

        monkeypatch.setattr(rates_mc, "_block_terms", counting_terms)
        # An xi sweep scores one aligned state, built afresh at each point.
        configs = [self.config.replace(Xi=k / 20) for k in range(8)]
        sweep = [(config, aligned_state(config), self.pw)
                 for config in configs]
        assert sweep[0][1] is not sweep[1][1]
        ergodic_rate_mc(sweep, 2 * _BLOCK, 4)
        assert len(states) == 2
        # A mix of designs: three distinct states over six cells.
        states.clear()
        mixed = [(configs[k], state, self.pw) for k, state in enumerate(
            [aligned_state(self.config), random_state(seed=1),
             aligned_state(self.config), random_state(seed=1),
             random_state(seed=2), aligned_state(self.config)])]
        reports = ergodic_rate_mc(mixed, 2 * _BLOCK, 4)
        assert len(states) == 3 * 2
        assert [s.phi_t.tobytes() for s in states[:3]] == [
            mixed[k][1].phi_t.tobytes() for k in (0, 1, 4)]
        for cell, report in zip(mixed, reports):
            assert ergodic_rate_mc([cell], 2 * _BLOCK, 4) == [report]

    def test_no_pairs_draw_nothing(self, monkeypatch):
        monkeypatch.setattr(rates_mc, "draw_realization", None)
        assert ergodic_rate_mc([], 10, 1) == []

    def test_old_form_call_is_a_type_error(self):
        pairs = [(random_state(), self.pw)]
        with pytest.raises(TypeError, match=r"\[\(config, state, pw\)\]"):
            ergodic_rate_mc(self.config, pairs, 40, 3)
        # Python itself rejects the keyword and five-argument forms.
        with pytest.raises(TypeError):
            ergodic_rate_mc(self.config, pairs, 40, seed=3)
        with pytest.raises(TypeError):
            ergodic_rate_mc(self.config, pairs, 40, 3, "noma-pair")

    @pytest.mark.parametrize("cells", [
        [(make_config(), PowerConfig.from_splits(1000.0, 0.8, 0.2, 0.8),
          random_state())],
        [random_state()],
        (random_state(), PowerConfig.from_splits(1000.0, 0.8, 0.2, 0.8)),
        [(random_state(), PowerConfig.from_splits(1000.0, 0.8, 0.2, 0.8),
          0)],
        [(random_state(), PowerConfig.from_splits(1000.0, 0.8, 0.2, 0.8))],
        (make_config(), random_state(),
         PowerConfig.from_splits(1000.0, 0.8, 0.2, 0.8)),
    ], ids=["swapped", "state-only", "bare-pair", "triple", "pair",
            "bare-cell"])
    def test_malformed_pairs_are_type_errors(self, cells):
        with pytest.raises(TypeError, match="triples"):
            ergodic_rate_mc(cells, 40, 3)

    def test_every_pair_is_size_checked(self):
        cells = [(self.config, random_state(), self.pw),
                 (self.config, random_state(n=5), self.pw)]
        with pytest.raises(ValueError, match="size"):
            ergodic_rate_mc(cells, 40, 3)


def elementwise_terms(block, ris):
    """The reception terms with each cascade and the loop-back summed
    over the elements of their (trials x N) products: the reference for
    the simulator's fused contractions."""
    l, h, g = block.pathlosses, block.direct, block.surface
    w = {"t": ris.side("t"), "r": ris.side("r")}

    def cascade(out, side, inp):
        return np.sum(g[out] * w[side] * g[inp], axis=1)

    def power(z):
        return np.abs(z) ** 2

    loop = np.sum(w["t"] * power(g["br"]), axis=1)
    return {
        "u1d": (power(np.sqrt(l["b_u1d"]) * h["b_u1d"]
                      + np.sqrt(l["br"] * l["r_u1d"])
                      * cascade("u1d", "t", "br")),
                power(np.sqrt(l["u1d_u1u"]) * h["u1d_u1u"]
                      + np.sqrt(l["r_u1d"] * l["r_u1u"])
                      * cascade("u1d", "t", "u1u")),
                l["r_u1d"] * l["r_u2u"] * power(cascade("u1d", "t", "u2u"))),
        "u2d": (l["br"] * l["r_u2d"] * power(cascade("u2d", "r", "br")),
                l["r_u2d"] * l["r_u1u"] * power(cascade("u2d", "r", "u1u")),
                l["r_u2d"] * l["r_u2u"] * power(cascade("u2d", "r", "u2u"))),
        "u1u": (power(np.sqrt(l["b_u1u"]) * h["b_u1u"]
                      + np.sqrt(l["br"] * l["r_u1u"])
                      * cascade("br", "t", "u1u")),
                l["br"] * l["r_u2u"] * power(cascade("br", "t", "u2u")),
                l["br"] ** 2 * power(loop)),
    }


def traced_peak(f, *args) -> int:
    """Peak bytes that ``f(*args)`` allocates, numpy buffers included."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedStream:
    """The batched simulator against its scalar reference, and the
    fixed block size that bounds its memory."""

    @pytest.mark.parametrize("n", [1, 20, 100])
    @pytest.mark.parametrize("scenario", ["noma-pair", "bidirectional"])
    def test_every_row_matches_the_scalar_path(self, scenario, n):
        config = make_config(n_elements=n, Xi=0.05, beta=1e-3)
        ris = random_state(n, rho_t=0.3, seed=n)
        pw = PowerConfig.from_config(config)
        block = first_block(config, ris, 11, _BLOCK)
        assert block.size == _BLOCK
        si = _block_si(block, config, pw)
        batched_terms = _block_terms(block, ris)
        batched = np.array(scenario_rates(batched_terms, config, pw, si,
                                          scenario))
        for t in range(block.size):
            terms = scalar_terms(block, t, ris)
            for user, triple in terms.items():
                assert_allclose([x[t] for x in batched_terms[user]], triple,
                                rtol=1e-12, atol=0)
            if scenario == "noma-pair":
                sinrs = noma_sinrs(terms, config, pw, float(si[t]))
                scalar = [math.log2(1.0 + sinrs[u]) for u in USERS]
            else:
                scalar = relay_leg_rates(terms, config, pw, float(si[t]))
            # log2(1 + x) rounds 1 + x first, so a rate carries an
            # absolute error of about 2^-52 / ln 2, whatever its size:
            # small rates are compared in absolute terms.
            assert_allclose(batched[:, t], scalar, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 20, 100])
    @pytest.mark.parametrize("design", ["aligned", "random", "transmit"])
    def test_fused_terms_match_the_elementwise_sums(self, design, n):
        config = make_config(n_elements=n)
        ris = {"aligned": aligned_state(config),
               "random": random_state(n, rho_t=0.3, seed=n),
               "transmit": random_state(n, rho_t=1.0, seed=n)}[design]
        block = first_block(config, ris, 13, _BLOCK)
        fused = _block_terms(block, ris)
        reference = elementwise_terms(block, ris)
        assert fused.keys() == reference.keys()
        for user, triple in reference.items():
            for got, want in zip(fused[user], triple):
                assert_allclose(got, want, rtol=1e-12, atol=0)
        if design == "transmit":
            assert all(np.all(x == 0.0) for x in fused["u2d"])

    def test_block_terms_make_no_trials_by_elements_temporary(self):
        # One (trials x N) complex array at N = 100 is 1.6 MB.
        config = make_config(n_elements=100)
        ris = random_state(100)
        block = first_block(config, ris, 5, _BLOCK)
        _block_terms(block, ris)
        assert traced_peak(_block_terms, block, ris) < 0.5e6

    def test_one_block_is_alive_at_a_time(self):
        config = make_config(n_elements=100)
        cells = [(config, random_state(100), PowerConfig.from_config(config))]
        ergodic_rate_mc(cells, _BLOCK, 3)
        one = traced_peak(ergodic_rate_mc, cells, _BLOCK, 3)
        assert traced_peak(ergodic_rate_mc, cells, 4 * _BLOCK, 3) <= 1.1 * one

    def test_trials_are_drawn_in_bounded_blocks(self, monkeypatch):
        config = make_config()
        ris = random_state()
        sizes = []
        draw = rates_mc.draw_realization

        def recording_draw(config, ris, rng, size):
            sizes.append(size)
            return draw(config, ris, rng, size)

        monkeypatch.setattr(rates_mc, "draw_realization", recording_draw)
        report = ergodic_rate_mc([(config, ris, baseline_power())],
                                 2 * _BLOCK + 1, seed=4)[0]
        assert sizes == [_BLOCK, _BLOCK, 1]
        assert report.trials == 2 * _BLOCK + 1

    def test_blocks_are_keyed_by_seed_and_index(self):
        # Block b draws from the generator keyed by (seed, b), so a full
        # block is the same whatever the total trial count.
        config = make_config()
        ris = random_state()
        two = list(_blocks(config, ris, 2 * _BLOCK, 8))
        three = list(_blocks(config, ris, 2 * _BLOCK + 5, 8))
        assert [b.size for b in three] == [_BLOCK, _BLOCK, 5]
        for a, b in zip(two, three):
            assert np.array_equal(a.surface["u2u"], b.surface["u2u"])
            assert np.array_equal(a.si_pair, b.si_pair)
        assert not np.array_equal(two[0].si_pair, two[1].si_pair)
