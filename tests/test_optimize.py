import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import optimize as sciopt

from conftest import BASELINE_ANGLES, make_config
from starfd.channel import StarRisState, element_layout
from starfd.cli import parse_spec_text
from starfd.config import CellGeometry, GeometryAngles
from starfd.designs import (aligned_state, suboptimal_phases,
                            suboptimal_phases_bidirectional)
from starfd.exceptions import DegenerateGeometryError, InfeasibleError
from starfd.kernel import PowerConfig, constraint_margins, dl_sinr
from starfd.optimize import (ConstraintCheck, ConstraintReport,
                             OptimizationResult, _ascent_step,
                             _make_objective, _term_partials, pgam,
                             project_amplitudes, validate_constraints)
from starfd.power import power_allocation_closed_form, tau_split_powers
from starfd.presets import preset_text
from starfd.rates_cf import (CfRateInputs, cf_rate_inputs, cf_rates,
                             compute_moments)


def cross_decode_rate(config, state, pw):
    """Rate at which the center user decodes the edge DL signal."""
    u1d = cf_rate_inputs(config, state)["u1d"]
    return math.log2(1.0 + dl_sinr(u1d, pw.p_b2, pw.p_b1, pw,
                                   config.sigma_sq))


def fd_gradients(evaluate, state, step=1e-4):
    """Central finite differences of the objective in all 4N coordinates.

    The oracle for the analytic PGAM gradient. Probe states skip the
    energy-split check: an amplitude probe rho +/- step leaves the
    feasible segment, and the closed forms are defined on all of R^2N.
    """
    arrays = {name: getattr(state, name) for name in
              ("phi_t", "phi_r", "rho_t", "rho_r")}
    grads = []
    for name in arrays:
        grad = np.empty(state.n_elements)
        for n in range(state.n_elements):
            values = []
            for delta in (step, -step):
                vec = arrays[name].copy()
                vec[n] += delta
                probe = StarRisState(validate=False,
                                     **{**arrays, name: vec})
                values.append(evaluate(probe))
            grad[n] = (values[0] - values[1]) / (2.0 * step)
        grads.append(grad)
    return tuple(grads)


def direction(angles, link):
    """(sin(az) sin(el), cos(el)) of one surface link."""
    az, el = angles.link(link)
    return math.sin(az) * math.sin(el), math.cos(el)


def phase_law(angles, n, ds, dc):
    """The aligned phases -2*pi*(d/lambda)*(x_n*ds + y_n*dc) on the
    element grid, with (ds, dc) the cascade's direction difference."""
    x, y = element_layout(n)
    return -2.0 * math.pi * angles.d_over_lambda * (x * ds + y * dc)


def same_phases(phi, expected, **tol):
    """Phases equal modulo 2*pi, compared on the unit circle."""
    return np.allclose(np.exp(1j * phi), np.exp(1j * expected), **tol)


def compact_config(**overrides):
    """Scenario where the edge channel rivals the center one, so the
    double-equality power allocation has feasible instances."""
    kwargs = dict(
        geometry=CellGeometry(R=5.0, R_r=10.0, d_br=8.0, m=2.7),
        n_elements=64, P_t=10_000.0)
    kwargs.update(overrides)
    return make_config(**kwargs)


def toy_config(**overrides):
    """N=4 toy whose objective depends only on the refraction side."""
    kwargs = dict(
        geometry=CellGeometry(R=5.0, R_r=10.0, d_br=8.0, m=2.7),
        n_elements=4, P_t=10_000.0,
        kappa_u1d=0.0, kappa_u1u=0.0, kappa_u2u=0.0,
        weight_u1d=0.0, weight_u1u=0.0, weight_u2u=0.0, weight_u2d=1.0)
    kwargs.update(overrides)
    return make_config(**kwargs)


class TestProjectAmplitudes:
    def test_feasible_point_fixed(self):
        t, r = project_amplitudes([0.5], [0.5])
        assert_allclose(t, [0.5])
        assert_allclose(r, [0.5])

    def test_symmetric_overshoot(self):
        t, r = project_amplitudes([2.0], [2.0])
        assert_allclose(t, [0.5])
        assert_allclose(r, [0.5])

    def test_against_dense_segment_sampling(self):
        a, b = 0.9, -0.3
        t, r = project_amplitudes([a], [b])
        grid = np.linspace(0.0, 1.0, 200_001)
        dist = (grid - a) ** 2 + ((1.0 - grid) - b) ** 2
        best = grid[np.argmin(dist)]
        assert_allclose(t[0], best, atol=1e-5)
        assert_allclose(t[0] + r[0], 1.0, rtol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        t, r = project_amplitudes(rng.uniform(-2, 3, 40),
                                  rng.uniform(-2, 3, 40))
        t2, r2 = project_amplitudes(t, r)
        assert_allclose(t2, t, atol=1e-12)
        assert_allclose(r2, r, atol=1e-12)
        assert np.all(t >= 0) and np.all(r >= 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            project_amplitudes([0.5, 0.5], [0.5])


class TestAscentStep:
    @pytest.mark.parametrize("scale", [0.0, 1e-8, 1.0, 1e4])
    def test_phase_step_is_the_projected_update(self, scale):
        # Stepping theta = e^{j phi} along the manifold gradient
        # mu * g * j*theta and renormalizing to unit modulus.
        rng = np.random.default_rng(11)
        n = 64
        state = StarRisState.random_phases(n, 0.5, rng)
        zero = np.zeros(n)
        for mu in np.logspace(-12, 3, 31):
            g_t, g_r = scale * rng.standard_normal((2, n))
            step = _ascent_step(state, (g_t, g_r, zero, zero), mu, 1.0)
            for phi, g, new in ((state.phi_t, g_t, step.phi_t),
                                (state.phi_r, g_r, step.phi_r)):
                theta = np.exp(1j * phi)
                raw = theta + mu * g * (1j * theta)
                projected = np.mod(np.angle(raw / np.abs(raw)),
                                   2.0 * np.pi)
                around = np.mod(new - projected + np.pi, 2.0 * np.pi)
                assert np.max(np.abs(around - np.pi)) <= 4e-15, mu


class TestSuboptimalPhases:
    def test_symmetric_geometry_gives_zero_phases(self):
        angles = GeometryAngles(az_br=0.9, el_br=1.2, az_u1d=0.9,
                                el_u1d=1.2, az_u2d=0.9, el_u2d=1.2,
                                az_u1u=0.9, el_u1u=1.2, az_u2u=0.9,
                                el_u2u=1.2)
        phi_t, phi_r = suboptimal_phases(angles, 16)
        assert_allclose(phi_t, 0.0, atol=1e-15)
        assert_allclose(phi_r, 0.0, atol=1e-15)

    def test_single_element(self):
        phi_t, phi_r = suboptimal_phases(BASELINE_ANGLES, 1)
        assert phi_t[0] == 0.0 and phi_r[0] == 0.0

    @pytest.mark.parametrize("n", [1, 16, 20, 100])
    def test_matches_the_phase_law(self, n):
        # Side t aligns the BS-surface-u2u cascade, side r the
        # BS-surface-u2d cascade: phi_n = -2*pi*(d/lambda)*(x_n*ds + y_n*dc)
        # with (ds, dc) the BS direction minus the user's, modulo 2*pi.
        phi_t, phi_r = suboptimal_phases(BASELINE_ANGLES, n)
        s_br, c_br = direction(BASELINE_ANGLES, "br")
        for phi, user in ((phi_t, "u2u"), (phi_r, "u2d")):
            s_k, c_k = direction(BASELINE_ANGLES, user)
            law = phase_law(BASELINE_ANGLES, n, s_br - s_k, c_br - c_k)
            assert phi.shape == (n,)
            assert same_phases(phi, law, rtol=0.0, atol=1e-12), user

    def test_alignment_maximizes_the_cascade(self):
        # The aligned refraction cascade hits its coherent bound.
        config = make_config(n_elements=16)
        state = aligned_state(config, rho_t=0.5)
        mo = compute_moments(config, state)
        assert_allclose(mo.xi[4], float(np.sum(state.rho_r)) ** 2,
                        rtol=1e-12)
        assert_allclose(mo.xi[8], float(np.sum(state.rho_t)) ** 2,
                        rtol=1e-12)

    def test_dominates_random_draws(self):
        config = make_config(n_elements=16)
        aligned_xi4 = compute_moments(config,
                                      aligned_state(config, 0.5)).xi[4]
        rng = np.random.default_rng(7)
        for _ in range(100):
            state = StarRisState.random_phases(16, 0.5, rng)
            assert compute_moments(config, state).xi[4] <= aligned_xi4


class TestBidirectionalAlignment:
    def test_selects_the_stronger_branch(self):
        config = compact_config()
        pw = PowerConfig.from_config(config)
        phi_t, phi_r = suboptimal_phases_bidirectional(config, pw)
        # Reproduce the candidates from the phase law and check the
        # returned pair is one of them on each side: the user-user
        # cascade's phases sum (both steering vectors arrive conjugated),
        # the BS-surface-user cascade's take the difference.
        n, angles = config.n_elements, config.angles
        s_br, c_br = direction(angles, "br")
        s_u1d, c_u1d = direction(angles, "u1d")
        s_u2d, c_u2d = direction(angles, "u2d")
        s_u1u, c_u1u = direction(angles, "u1u")
        s_u2u, c_u2u = direction(angles, "u2u")
        t_user = phase_law(angles, n, -(s_u1d + s_u2u), -(c_u1d + c_u2u))
        t_bs = phase_law(angles, n, s_br - s_u1d, c_br - c_u1d)
        r_user = phase_law(angles, n, -(s_u2d + s_u1u), -(c_u2d + c_u1u))
        r_bs = phase_law(angles, n, s_br - s_u2d, c_br - c_u2d)
        assert (same_phases(phi_t, t_user) or same_phases(phi_t, t_bs))
        assert (same_phases(phi_r, r_user) or same_phases(phi_r, r_bs))

    def test_no_bs_power_prefers_user_cascade(self):
        config = compact_config()
        pw = PowerConfig(P_t=1000.0, p_b1=0.0, p_b2=0.0,
                         p_u1u=500.0, p_u2u=500.0)
        phi_t, phi_r = suboptimal_phases_bidirectional(config, pw)
        state = StarRisState(rho_t=0.5 * np.ones(config.n_elements),
                             rho_r=0.5 * np.ones(config.n_elements),
                             phi_t=phi_t, phi_r=phi_r)
        mo = compute_moments(config, state)
        # With gamma2 = 0 on both sides, the user-user cascades must be
        # the aligned ones (coherent bound).
        assert_allclose(mo.xi[3], float(np.sum(state.rho_t)) ** 2,
                        rtol=1e-12)
        assert_allclose(mo.xi[5], float(np.sum(state.rho_r)) ** 2,
                        rtol=1e-12)

    def test_no_ul_power_ties_to_bs_branch(self):
        # gamma1 = gamma2 = 0: the documented tie-break keeps the BS path.
        config = compact_config()
        pw = PowerConfig(P_t=1000.0, p_b1=0.0, p_b2=0.0,
                         p_u1u=0.0, p_u2u=0.0)
        phi_t, phi_r = suboptimal_phases_bidirectional(config, pw)
        state = StarRisState(rho_t=0.5 * np.ones(config.n_elements),
                             rho_r=0.5 * np.ones(config.n_elements),
                             phi_t=phi_t, phi_r=phi_r)
        mo = compute_moments(config, state)
        assert_allclose(mo.xi[1], float(np.sum(state.rho_t)) ** 2,
                        rtol=1e-12)
        assert_allclose(mo.xi[4], float(np.sum(state.rho_r)) ** 2,
                        rtol=1e-12)


class TestAnalyticGradient:
    """The analytic PGAM gradient against central finite differences."""

    CELLS = {"baseline": {},
             "impaired": dict(Xi=0.05, beta=1e-2, si_lambda=1.1),
             # Only the u2u rate, which reads u1u's terms with the signal
             # and partner roles swapped.
             "u2u-only": dict(weight_u1d=0.0, weight_u2d=0.0,
                              weight_u1u=0.0, weight_u2u=0.8)}

    @staticmethod
    def start_state(config, pw, start, scenario):
        if start == "aligned":
            return aligned_state(config, 0.5, pw, scenario)
        n = config.n_elements
        rng = np.random.default_rng(n)
        rho_t = rng.uniform(0.05, 0.95, n)
        return StarRisState(rho_t=rho_t, rho_r=1.0 - rho_t,
                            phi_t=rng.uniform(0, 2 * np.pi, n),
                            phi_r=rng.uniform(0, 2 * np.pi, n))

    @pytest.mark.parametrize("cell", sorted(CELLS))
    @pytest.mark.parametrize("n", [20, 100])
    @pytest.mark.parametrize("start", ["aligned", "random"])
    @pytest.mark.parametrize("scenario", ["noma-pair", "bidirectional"])
    def test_matches_finite_differences(self, scenario, start, n, cell):
        config = make_config(n_elements=n, **self.CELLS[cell])
        pw = PowerConfig.from_config(config)
        state = self.start_state(config, pw, start, scenario)
        evaluate, gradient = _make_objective(config, pw, scenario)
        _, moments = evaluate(state)
        for analytic, fd in zip(gradient(state, moments),
                                fd_gradients(lambda s: evaluate(s)[0],
                                             state)):
            assert_allclose(analytic, fd, rtol=1e-6, atol=1e-10)

    @pytest.mark.parametrize("cell", sorted(CELLS))
    @pytest.mark.parametrize("n", [20, 100])
    @pytest.mark.parametrize("start", ["aligned", "random"])
    def test_margin_partials_match_finite_differences(self, start, n, cell,
                                                      monkeypatch):
        # The constraint margins are analytic in the nine terms, so the
        # complex step of the objective's gradient takes their partials
        # too: a constrained ascent needs no new calculus. The oracle
        # differences the same kernel at 40 digits: some terms (the
        # loop-back, u2u's interference under imperfect SIC) sit so far
        # below the scale on which a margin moves that a double-precision
        # difference over a step relative to the term is mostly rounding.
        mp = pytest.importorskip("mpmath")
        import starfd.kernel as kernel
        config = make_config(n_elements=n, R_dth=0.5, R_uth=0.1,
                             **self.CELLS[cell])
        pw = PowerConfig.from_config(config)
        si = config.si_variance(pw.P_b)
        inputs = cf_rate_inputs(config, self.start_state(config, pw, start,
                                                         "noma-pair"))
        users = ("u1d", "u2d", "u1u")
        for name in ("decoding_order", "edge_dl_target", "edge_ul_target"):
            def margin(terms):
                return constraint_margins(terms, config, pw, si)[name]

            analytic = _term_partials(margin, inputs)
            with mp.workdps(40), monkeypatch.context() as patch:
                patch.setattr(kernel, "_log2", lambda x: mp.log(x, 2))
                base = [mp.mpf(t) for u in users for t in inputs[u]]
                fd = []
                for k, t in enumerate(base):
                    step = t * mp.mpf("1e-12")
                    values = []
                    for probe in (t + step, t - step):
                        flat = base[:k] + [probe] + base[k + 1:]
                        values.append(margin(
                            {u: tuple(flat[3 * j:3 * j + 3])
                             for j, u in enumerate(users)}))
                    fd.append(float((values[0] - values[1]) / (2 * step)))
            assert_allclose(np.concatenate([analytic[u] for u in users]),
                            fd, rtol=1e-6, atol=0.0, err_msg=name)

    @pytest.mark.parametrize("scenario", ["noma-pair", "bidirectional"])
    def test_evaluations_per_iteration_do_not_grow_with_n(
            self, scenario, monkeypatch):
        # Each iteration assembles its candidate's rate inputs once, and
        # the gradient reuses them; a finite-difference gradient would
        # add 8N evaluations.
        import starfd.optimize as optimize
        calls = []
        fn = optimize.cf_rate_inputs
        monkeypatch.setattr(
            optimize, "cf_rate_inputs",
            lambda *args, **kwargs: (calls.append(1),
                                     fn(*args, **kwargs))[1])
        for n in (4, 64):
            config = make_config(n_elements=n)
            init = StarRisState.random_phases(n, 0.5,
                                              np.random.default_rng(5))
            calls.clear()
            result = pgam(config, PowerConfig.from_config(config), init,
                          eps=1e-15, L=5, scenario=scenario)
            assert result.iterations == 5
            # One call for the initial state; the constraint check of a
            # NOMA-pair run reuses the last state's rate inputs.
            outside = 1
            assert (len(calls) - outside) / result.iterations == 1

    def test_accepted_state_moments_assembled_once(self, monkeypatch):
        # Each state's moments are built when it is evaluated, and the
        # next gradient and the constraint report reuse them: one
        # assembly for the initial state and one per iteration.
        import starfd.optimize as optimize
        import starfd.rates_cf as rates_cf
        calls = []
        for module in (optimize, rates_cf):
            fn = module.compute_moments
            monkeypatch.setattr(
                module, "compute_moments",
                lambda *args, _fn=fn, **kwargs: (calls.append(1),
                                                 _fn(*args, **kwargs))[1])
        config = make_config()
        result = pgam(config, PowerConfig.from_config(config),
                      aligned_state(config, 0.5), eps=1e-15, L=5)
        assert result.iterations == 5
        assert result.trace.size == 6
        assert len(calls) == 1 + 5


class TestPgam:
    def test_trace_monotone_and_state_feasible(self):
        config = toy_config()
        pw = PowerConfig.from_config(config)
        init = StarRisState.random_phases(4, 0.5, np.random.default_rng(4))
        result = pgam(config, pw, init, L=40)
        assert np.all(np.diff(result.trace) >= -1e-12)
        assert result.constraints.energy_split.ok
        assert result.iterations == result.trace.size - 1

    def test_ascent_beats_initial_and_aligned(self):
        config = toy_config()
        pw = PowerConfig.from_config(config)
        init = StarRisState.random_phases(4, 0.5, np.random.default_rng(4))
        result = pgam(config, pw, init, L=300)
        assert result.objective >= result.trace[0]
        aligned = cf_rates(config, aligned_state(config, 0.5), pw)
        assert result.objective > aligned.rate("u2d")

    def test_local_optimum_terminates_immediately(self):
        config = toy_config(n_elements=1)
        pw = PowerConfig.from_config(config)
        first = pgam(config, pw, StarRisState.uniform(1, rho_t=0.3), L=500)
        assert first.reason == "converged"
        again = pgam(config, pw, first.state, L=500)
        assert again.reason == "converged"
        assert again.iterations <= 1
        assert abs(again.objective - first.objective) < 1e-9

    def test_bidirectional_objective(self):
        config = compact_config(n_elements=8)
        pw = PowerConfig.from_config(config)
        init = StarRisState.random_phases(8, 0.5, np.random.default_rng(3))
        result = pgam(config, pw, init, L=10, scenario="bidirectional")
        assert np.all(np.diff(result.trace) >= -1e-12)

    def test_nonfinite_objective_rejected(self):
        config = toy_config()
        pw = PowerConfig.from_config(config)
        init = StarRisState.uniform(4)
        with pytest.raises(ValueError, match="finite"):
            pgam(config.replace(weight_u1d=math.inf), pw, init)

    def test_invalid_arguments(self):
        config = toy_config()
        pw = PowerConfig.from_config(config)
        init = StarRisState.uniform(4)
        with pytest.raises(ValueError, match="mu"):
            pgam(config, pw, init, mu=0.0)
        with pytest.raises(ValueError, match="alpha_scale"):
            pgam(config, pw, init, alpha_scale=-1.0)
        with pytest.raises(ValueError, match="unknown scenario"):
            pgam(config, pw, init, scenario="mesh")
        with pytest.raises(ValueError, match="reason"):
            OptimizationResult(state=init, pw=pw, trace=[0.0],
                               reason="stalled", constraints=None)

    def test_nan_step_size_rejected(self):
        config = make_config(n_elements=4)
        with pytest.raises(ValueError, match="mu > 0"):
            pgam(config, PowerConfig.from_config(config),
                 aligned_state(config), mu=math.nan, L=5)

    def test_nan_tolerance_rejected(self):
        config = make_config(n_elements=4)
        with pytest.raises(ValueError, match="eps > 0"):
            pgam(config, PowerConfig.from_config(config),
                 aligned_state(config), eps=math.nan, L=5)

    def test_nan_alpha_scale_rejected(self):
        config = make_config(n_elements=4)
        with pytest.raises(ValueError, match="alpha_scale"):
            pgam(config, PowerConfig.from_config(config),
                 aligned_state(config), alpha_scale=math.nan, L=5)


class TestPowerAllocation:
    def setup_method(self):
        self.config = compact_config()
        self.state = aligned_state(self.config, rho_t=0.5)

    def test_targets_reproduced_exactly(self):
        pa = power_allocation_closed_form(
            self.config.replace(P_t=10_000.0, R_dth=0.5, R_uth=0.1),
            cf_rate_inputs(self.config, self.state))
        report = cf_rates(self.config, self.state, pa)
        assert_allclose(report.rate("u2d"), 0.5, rtol=1e-9)
        assert_allclose(report.rate("u2u"), 0.1, rtol=1e-9)
        assert_allclose(cross_decode_rate(self.config, self.state, pa), 0.5,
                        rtol=1e-9)
        spent = pa.p_b1 + pa.p_b2 + pa.p_u1u + pa.p_u2u
        assert_allclose(spent, 10_000.0, rtol=1e-9)

    def test_si_fixed_point(self):
        config = compact_config(beta=1e-4, si_lambda=0.9, Xi=0.02)
        state = aligned_state(config, rho_t=0.5)
        pa = power_allocation_closed_form(
            config.replace(P_t=10_000.0, R_dth=1.0, R_uth=0.5),
            cf_rate_inputs(config, state))
        assert_allclose(cf_rates(config, state, pa).rate("u2u"), 0.5,
                        rtol=1e-9)
        assert_allclose(config.si_variance(pa.P_b), 1e-4 * pa.P_b ** 0.9,
                        rtol=1e-12)

    def test_matches_numerical_root_finder(self):
        config = compact_config(beta=1e-4, si_lambda=0.9, Xi=0.02)
        state = aligned_state(config, rho_t=0.5)
        inputs = cf_rate_inputs(config, state)
        P_t, R_dth, R_uth = 10_000.0, 1.0, 0.5
        pa = power_allocation_closed_form(
            config.replace(P_t=P_t, R_dth=R_dth, R_uth=R_uth), inputs)
        gd, gu = 2.0 ** R_dth - 1.0, 2.0 ** R_uth - 1.0

        def system(p):
            pb1, pb2, pu2 = p
            pu1 = P_t - pb1 - pb2 - pu2
            v = config.beta * (pb1 + pb2) ** config.si_lambda
            c, e, u = inputs["u1d"], inputs["u2d"], inputs["u2u"]
            return [
                pb2 * e.x1 / (pb1 * e.x1 + pu1 * e.y1 + pu2 * e.y2
                              + config.sigma_sq) - gd,
                pb2 * c.x1 / (pb1 * c.x1 + pu1 * c.y1 + pu2 * c.y2
                              + config.sigma_sq) - gd,
                pu2 * u.x1 / (config.Xi * pu1 * u.y1
                              + (pb1 + pb2) * u.y2 + v
                              + config.sigma_b_sq) - gu,
            ]

        sol = sciopt.root(system, x0=[P_t / 4, P_t / 4, P_t / 4],
                          tol=1e-13)
        assert sol.success
        assert_allclose([pa.p_b1, pa.p_b2, pa.p_u2u], sol.x, rtol=1e-8)

    def test_zero_targets(self):
        pa = power_allocation_closed_form(
            self.config.replace(P_t=5000.0, R_dth=0.0, R_uth=0.0),
            cf_rate_inputs(self.config, self.state))
        assert pa.p_b1 == 0.0 and pa.p_b2 == 0.0 and pa.p_u2u == 0.0
        assert_allclose(pa.p_u1u, 5000.0)

    def test_zero_dl_target_keeps_ul_target(self):
        pa = power_allocation_closed_form(
            self.config.replace(P_t=5000.0, R_dth=0.0, R_uth=0.2),
            cf_rate_inputs(self.config, self.state))
        assert pa.p_b1 == 0.0 and pa.p_b2 == 0.0
        assert_allclose(cf_rates(self.config, self.state, pa).rate("u2u"),
                        0.2, rtol=1e-9)

    def test_unsettled_si_coupling_is_infeasible(self):
        # On the baseline cell at 30 dBW with Xi = 0.1, these SI strengths
        # couple the BS power back into the uplink target so strongly
        # that the fixed point runs away instead of settling (past the
        # float range at si_lambda > 1). The allocator must name the
        # coupling, not return the last iterate.
        for beta, si_lambda in ((1e-2, 1.0), (1e-3, 1.0), (1e-2, 1.1)):
            config = make_config(Xi=0.1, beta=beta, si_lambda=si_lambda)
            state = aligned_state(config, rho_t=0.5)
            with pytest.raises(InfeasibleError, match="self-interference"):
                power_allocation_closed_form(
                    config.replace(R_dth=0.2, R_uth=0.1),
                    cf_rate_inputs(config, state))

    def test_infeasible_targets_are_named(self):
        # The wide baseline cell cannot reconcile the two DL decoding
        # conditions within any realistic budget.
        config = make_config()
        state = aligned_state(config, rho_t=0.5)
        with pytest.raises(InfeasibleError, match="infeasible"):
            power_allocation_closed_form(
                config.replace(P_t=1000.0, R_dth=0.5, R_uth=0.05),
                cf_rate_inputs(config, state))

    def test_dark_transmit_side_unreachable_ul(self):
        state = StarRisState.uniform(self.config.n_elements, rho_t=0.0)
        with pytest.raises(InfeasibleError, match="uplink target"):
            power_allocation_closed_form(
                self.config.replace(P_t=1000.0, R_dth=0.0, R_uth=0.1),
                cf_rate_inputs(self.config, state))

    def test_degenerate_rows(self):
        # Identical center and edge moment rows make the DL split
        # unidentifiable.
        shared = CfRateInputs(x1=1e-3, y1=1e-4, y2=1e-5)
        cf = {"u1d": shared, "u2d": shared,
              "u1u": CfRateInputs(x1=1e-3, y1=1e-4, y2=1e-6),
              "u2u": CfRateInputs(x1=1e-4, y1=1e-3, y2=1e-6)}
        with pytest.raises(DegenerateGeometryError,
                           match="linearly dependent"):
            power_allocation_closed_form(
                self.config.replace(P_t=1000.0, R_dth=0.5, R_uth=0.1), cf)

    def test_invalid_arguments(self):
        # The allocator reads its budget and targets from the config, so
        # an invalid budget or target is refused before it can be passed.
        with pytest.raises(ValueError, match="positive"):
            self.config.replace(P_t=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            self.config.replace(R_dth=-0.5)
        # NaN fails every comparison, so the checks are written to reject
        # it rather than let it reach the SI fixed point.
        with pytest.raises(ValueError, match="positive"):
            self.config.replace(P_t=math.nan)
        for targets in ((math.nan, 0.1), (0.5, math.nan)):
            with pytest.raises(ValueError, match="non-negative"):
                self.config.replace(R_dth=targets[0], R_uth=targets[1])
        # Budget and targets are no longer separate arguments.
        inputs = cf_rate_inputs(self.config, self.state)
        with pytest.raises(TypeError):
            power_allocation_closed_form(self.config, inputs,
                                         1000.0, 0.5, 0.1)


class TestTauSplitPowers:
    # Edge-user moments with a strong edge uplink interferer (y2), and a
    # center uplink pair whose swapped terms give the edge uplink user a
    # strong signal.
    INPUTS = {"u1d": CfRateInputs(x1=2e-2, y1=1e-3, y2=1e-4),
              "u2d": CfRateInputs(x1=1e-2, y1=1e-5, y2=2e-4),
              "u1u": CfRateInputs(x1=1e-2, y1=1e-1, y2=1e-5),
              "u2u": CfRateInputs(x1=1e-1, y1=1e-2, y2=1e-5)}

    def setup_method(self):
        self.config = make_config(P_t=1000.0, tau=0.6, ul_split=0.25,
                                  R_uth=0.5)

    def test_edge_signal_meets_the_downlink_target_exactly(self):
        pw, feasible = tau_split_powers(self.config, self.INPUTS, 2.0)
        assert feasible
        assert_allclose([pw.p_b1 + pw.p_b2, pw.p_u1u, pw.p_u2u],
                        [600.0, 100.0, 300.0], rtol=1e-15)
        edge = self.INPUTS["u2d"]
        sinr = pw.p_b2 * edge.x1 / (pw.p_b1 * edge.x1 + pw.p_u1u * edge.y1
                                    + pw.p_u2u * edge.y2
                                    + self.config.sigma_sq)
        assert_allclose(sinr, 2.0 ** 2.0 - 1.0, rtol=1e-12)

    def test_unmet_targets_flag_the_split_infeasible(self):
        # The whole BS share falls short of 4 bits/s/Hz, so it all goes
        # to the edge signal; an unreachable UL target keeps the split.
        pw, feasible = tau_split_powers(self.config, self.INPUTS, 4.0)
        assert not feasible and (pw.p_b1, pw.p_b2) == (0.0, 600.0)
        met, _ = tau_split_powers(self.config, self.INPUTS, 2.0)
        pw, feasible = tau_split_powers(self.config.replace(R_uth=5.0),
                                        self.INPUTS, 2.0)
        assert not feasible and pw == met


class TestValidateConstraints:
    def setup_method(self):
        self.config = compact_config()
        self.state = aligned_state(self.config, rho_t=0.5)

    def test_underspending_budget_ok(self):
        pw = PowerConfig(P_t=1000.0, p_b1=0.0, p_b2=0.0, p_u1u=0.0,
                         p_u2u=0.0)
        check = validate_constraints(
            self.config.replace(R_dth=0.5, R_uth=0.1), self.state, pw)
        assert check.power_budget.ok
        assert_allclose(check.power_budget.margin, 1000.0)
        # Zero power cannot meet positive targets.
        assert not check.edge_dl_target.ok
        assert not check.edge_ul_target.ok

    def test_power_config_owns_the_budget(self):
        # PowerConfig refuses powers over P_t by more than 1e-9 P_t, so the
        # report's power_budget check at its default tol reads ok for every
        # PowerConfig that can be built: it restates the budget, and
        # PowerConfig enforces it.
        pw = PowerConfig(P_t=1000.0, p_b1=400.0, p_b2=400.0, p_u1u=100.0,
                         p_u2u=100.0 + 1e-9 * 1000.0)
        check = validate_constraints(self.config, self.state, pw)
        assert check.power_budget.ok
        assert check.power_budget.margin < 0.0
        with pytest.raises(ValueError, match="budget"):
            PowerConfig(P_t=1000.0, p_b1=400.0, p_b2=400.0, p_u1u=100.0,
                        p_u2u=100.0 + 2e-9 * 1000.0)

    def test_energy_split_margin(self):
        n = self.config.n_elements
        bad = StarRisState(rho_t=0.6 * np.ones(n), rho_r=0.5 * np.ones(n),
                           phi_t=np.zeros(n), phi_r=np.zeros(n),
                           validate=False)
        pw = PowerConfig.from_config(self.config)
        check = validate_constraints(self.config, bad, pw)
        assert not check.energy_split.ok
        assert_allclose(check.energy_split.margin, 0.1, rtol=1e-12)
        assert not check.all_ok

    def test_allocator_output_passes(self):
        targets = self.config.replace(P_t=10_000.0, R_dth=0.5, R_uth=0.1)
        pa = power_allocation_closed_form(
            targets, cf_rate_inputs(self.config, self.state))
        check = validate_constraints(targets, self.state, pa)
        assert check.power_budget.ok
        assert check.decoding_order.margin >= -1e-9
        assert check.edge_dl_target.margin >= -1e-9
        assert check.edge_ul_target.margin >= -1e-9
        assert check.all_ok

    def test_decoding_order_margin_is_zero_at_the_allocation(self):
        # The allocation pins the center user's decode of the edge signal
        # at the edge user's own rate, so the margin is 0 to rounding on
        # the power-split-sweep cell. It holds only if the margin counts
        # the center signal left in that decode.
        spec, errors = parse_spec_text(preset_text("power-split-sweep")
                                       + "target_dl_rate = 3\n")
        assert errors == []
        config = spec.config
        state = aligned_state(config, 0.5, PowerConfig.from_config(config))
        pa = power_allocation_closed_form(config,
                                          cf_rate_inputs(config, state))
        check = validate_constraints(config, state, pa)
        assert abs(check.decoding_order.margin) <= 1e-12
        assert check.all_ok

    def test_all_ok_is_the_conjunction_of_the_five_checks(self):
        assert ConstraintReport.__slots__ == (
            "power_budget", "decoding_order", "edge_dl_target",
            "edge_ul_target", "energy_split")
        ok, failed = ConstraintCheck(True, 0.0), ConstraintCheck(False, -1.0)
        assert ConstraintReport(*[ok] * 5).all_ok
        for k in range(5):
            checks = [ok] * 5
            checks[k] = failed
            assert not ConstraintReport(*checks).all_ok
        pw = PowerConfig.from_config(self.config)
        check = validate_constraints(self.config, self.state, pw)
        assert check.all_ok == all(
            c.ok for c in (check.power_budget, check.decoding_order,
                           check.edge_dl_target, check.edge_ul_target,
                           check.energy_split))

    def test_edge_margins_are_the_closed_form_rates(self):
        # Imperfect SIC and residual SI both enter the edge rates; the
        # margins must be the cf_rates report's, bit for bit.
        config = compact_config(Xi=0.05, beta=1e-4, si_lambda=0.9,
                                R_dth=0.5, R_uth=0.1)
        pw = PowerConfig.from_config(config)
        assert config.si_variance(pw.P_b) > 0
        for seed in range(3):
            state = StarRisState.random_phases(
                config.n_elements, 0.4, np.random.default_rng(seed))
            check = validate_constraints(config, state, pw)
            report = cf_rates(config, state, pw)
            assert check.edge_dl_target.margin == report.rate("u2d") - 0.5
            assert check.edge_ul_target.margin == report.rate("u2u") - 0.1

    def test_moments_assembled_once(self, monkeypatch):
        pw = PowerConfig.from_config(self.config)
        calls = []

        def counting(config, ris):
            calls.append(ris)
            return compute_moments(config, ris)

        monkeypatch.setattr("starfd.rates_cf.compute_moments", counting)
        validate_constraints(self.config, self.state, pw)
        assert len(calls) == 1

    def test_bidirectional_run_reports_no_constraints(self):
        # The checks are the NOMA pair's problem. A bidirectional run
        # maximizes the relayed rates, so on this cell an edge_dl_target
        # margin would read the NOMA-pair u2d rate minus R_dth.
        config = compact_config(n_elements=8, R_dth=0.5)
        pw = PowerConfig.from_config(config)
        bidir = pgam(config, pw,
                     aligned_state(config, 0.5, pw, "bidirectional"), L=3,
                     scenario="bidirectional")
        assert bidir.constraints is None
        noma = pgam(config, pw, aligned_state(config, 0.5), L=3)
        assert noma.constraints == validate_constraints(config, noma.state,
                                                        pw)
