"""Release acceptance gate.

Every shipped property is checked end to end, one verdict line per check
under ``pytest -v``, in this order:

1. closed-form rates vs the rate of the simulated moments on the
   baseline cell at three operating points (10% relative, 1e6 trials,
   < 2 min per point);
2. geometry position averages vs the adaptive-integration oracle, and
   the two-point average, which the library computes with that
   integrator, vs 30-digit mpmath quadrature (1e-6);
3. closed-form power allocation: exact target reproduction (1e-9) and
   agreement with an independent nonlinear root-finder (1e-8) on 50
   randomized feasible cells;
4. ascent optimizer: monotone objective trace, and within 2% of an
   exhaustive grid search on a 4-element toy surface (< 1 min);
5. sweep shapes: phase-design ordering at high power, edge-rate growth
   with surface size, unimodal power-split curves with ordered peaks,
   and impairment knobs degrading exactly the users they model;
6. uplink term-reuse identities (exact) and the simplified rates
   against the written-out short forms (1e-12);
7. byte-identical experiment reproduction from a manifest at any
   parallelism level.

What part 1 asserts, and why: the closed forms move the expectation
inside the logarithm, over fading and over user positions alike, so each
rate is log2(1 + E[S] / E[I + N]) with S the signal power and I + N the
interference plus noise. Part 1 builds that very quantity from the
simulator's own draws: it averages the per-trial signal and interference
terms that the SINR kernel divides, and forms the SINR of the means with
the same formulas, written out independently of the kernel. The closed-form geometry averages, Rician
mixing weights, LoS cascades, loop-back assembly and each user's
signal/interference pairing are thereby checked against an independent
simulation of the same channel. The simulated ergodic rate
E[log2(1 + S / (I + N))] of ``ergodic_rate_mc`` is a different quantity:
on the baseline cell the two center users' direct links span the whole
50 m disk, and the closed forms overshoot it by up to about 180% at
40 dB. That gap belongs to the approximation, not to the code; it is
recorded in the README and is not asserted here.
"""

import csv
import math
import time

import numpy as np
import pytest
import scipy.optimize as sciopt
from numpy.testing import assert_allclose

from conftest import make_config, short_form_rates
from starfd.channel import StarRisState, _los_vectors
from starfd.cli import parse_spec_text, run_experiment
from starfd.config import CellGeometry
from starfd.designs import aligned_state
from starfd.exceptions import DegenerateGeometryError, InfeasibleError
from starfd.geometry import (_external_point_density, exp_pathloss_disk,
                             exp_pathloss_fixed_point_to_disk,
                             exp_pathloss_two_random_points)
from starfd.kernel import PowerConfig, dl_sinr
from starfd.optimize import pgam
from starfd.power import power_allocation_closed_form
from starfd.presets import preset_text
from starfd.rates_cf import (_cell_table, cf_rate_inputs, cf_rates,
                             cf_rates_simplified, compute_moments)
from starfd.rates_mc import _block_si, _block_terms, _blocks
from starfd.specfun import integrate_adaptive

USERS = ("u1d", "u2d", "u1u", "u2u")
EXPONENTS = (2.1, 2.7, 3.5)
RADII = (1.0, 10.0, 30.0, 50.0)


def moment_ratio_rates(config, state, pw, trials, seed):
    """Rates log2(1 + mean(signal) / mean(interference + noise)).

    Runs the simulator's seeded block stream (channel draw, per-trial
    terms, SI draw) and reduces its per-trial terms to sample means,
    keeping only per-block sums, so memory stays bounded at any trial
    count. Each user's numerator and denominator are the linear forms of
    the SINR kernel in ``starfd.rates_mc`` (``noma_sinrs``), written out
    here rather than called, so that a fault in the kernel shows as a gap
    to the closed forms, which do call it. The SI term is the mean of the
    SI draws. Returns {user: (rate, stderr)}, the standard error by the
    delta method for the ratio of two sample means.
    """
    sig, sig_b = config.sigma_sq, config.sigma_b_sq
    partial = {user: [] for user in USERS}
    for block in _blocks(config, trials, seed):
        terms = _block_terms(block, state)
        a1, c1, d1 = terms["u1d"]
        a2, c2, d2 = terms["u2d"]
        a_u, b_u, c_u = terms["u1u"]
        si = _block_si(block, config, pw)
        pairs = {
            "u1d": (pw.p_b1 * a1, config.Xi * pw.p_b2 * a1 + pw.p_u1u * c1
                    + pw.p_u2u * d1 + sig),
            "u2d": (pw.p_b2 * a2, pw.p_b1 * a2 + pw.p_u1u * c2
                    + pw.p_u2u * d2 + sig),
            "u1u": (pw.p_u1u * a_u, pw.p_u2u * b_u + pw.P_b * c_u + si
                    + sig_b),
            "u2u": (pw.p_u2u * b_u, config.Xi * pw.p_u1u * a_u + pw.P_b * c_u
                    + si + sig_b),
        }
        for user, (num, den) in pairs.items():
            partial[user].append((np.sum(num), np.sum(den),
                                  np.sum(num * num), np.sum(den * den),
                                  np.sum(num * den)))
    out = {}
    for user, rows in partial.items():
        s_n, s_d, s_nn, s_dd, s_nd = (math.fsum(col) for col in zip(*rows))
        sinr = s_n / s_d
        # Sample variance of num - sinr * den, whose mean is 0.
        var = (s_nn - 2.0 * sinr * s_nd + sinr ** 2 * s_dd) / (trials - 1)
        se_sinr = math.sqrt(var / trials) / (s_d / trials)
        out[user] = (math.log2(1.0 + sinr),
                     se_sinr / ((1.0 + sinr) * math.log(2.0)))
    return out


class TestClosedFormAgainstMonteCarlo:
    """Part 1: each closed-form rate within 10% of the rate of the
    simulated moments it stands for, 1e6 trials, baseline cell."""

    @pytest.mark.parametrize("snr_db", [20.0, 30.0, 40.0])
    def test_rates_agree_within_ten_percent(self, snr_db):
        config = make_config(P_t=10.0 ** (snr_db / 10.0))
        state = aligned_state(config, 0.5)
        pw = PowerConfig.from_config(config)
        started = time.monotonic()
        ref = moment_ratio_rates(config, state, pw, trials=1_000_000,
                                 seed=42)
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, f"MC point took {elapsed:.0f}s"
        cf = cf_rates(config, state, pw)
        lines = []
        worst = 0.0
        for user in USERS:
            rate, se = ref[user]
            gap = cf.rate(user) - rate
            worst = max(worst, abs(gap) / rate)
            lines.append(f"  {user}: cf={cf.rate(user):.6g} "
                         f"ref={rate:.6g} (+-{se:.2g}, {gap / se:+.1f} se)"
                         f" rel={gap / rate:+.3f}")
        assert worst <= 0.10, (
            "closed form vs the rate of the simulated moments at "
            f"{snr_db:.0f} dB ({elapsed:.0f}s):\n" + "\n".join(lines))


class TestGeometryMoments:
    """Part 2: every position average within 1e-6 of an independent
    quadrature."""

    @staticmethod
    def _disk_oracle(R, m):
        return integrate_adaptive(
            lambda r: (1.0 + r) ** (-m) * 2.0 * r / R ** 2,
            0.0, R, tol=1e-13)

    def test_disk_matches_adaptive_oracle(self):
        # One closed form serves the center disk (BS -> center user) and
        # the edge disk (surface -> edge user).
        for m in EXPONENTS:
            for R in RADII:
                assert_allclose(exp_pathloss_disk(R, m),
                                self._disk_oracle(R, m),
                                rtol=1e-6, err_msg=f"R={R} m={m}")

    def test_center_disk_matches_adaptive_oracle(self):
        # The center-user average the closed-form rates read: the disk
        # of the cell radius R, with the edge radius held fixed.
        for m in EXPONENTS:
            for R in RADII:
                means, _ = _cell_table(CellGeometry(R, 30.0, R + 10.0, m),
                                       (3.0,) * 5)
                q_center = means[0]
                assert_allclose(q_center, self._disk_oracle(R, m),
                                rtol=1e-6, err_msg=f"R={R} m={m}")

    def test_edge_disk_matches_adaptive_oracle(self):
        # The edge-user average the closed-form rates read: the disk of
        # the edge radius R_r around the surface, the cell held fixed.
        for m in EXPONENTS:
            for R_r in RADII:
                means, _ = _cell_table(CellGeometry(50.0, R_r, 60.0, m),
                                       (3.0,) * 5)
                q_edge = means[1]
                assert_allclose(q_edge, self._disk_oracle(R_r, m),
                                rtol=1e-6, err_msg=f"R_r={R_r} m={m}")

    def test_fixed_point_to_disk_matches_adaptive_oracle(self):
        for m in EXPONENTS:
            for R in RADII:
                for r1 in (5.0, 20.0):
                    ref = integrate_adaptive(
                        lambda r: ((1.0 + r) ** (-m)
                                   * float(_external_point_density(
                                       r, r1, R))),
                        r1, r1 + 2.0 * R, tol=1e-12)
                    assert_allclose(
                        exp_pathloss_fixed_point_to_disk(r1, R, m), ref,
                        rtol=1e-6, err_msg=f"r1={r1} R={R} m={m}")

    def test_two_random_points_matches_adaptive_oracle(self):
        # The library itself evaluates this average with the adaptive
        # integrator, so the reference is independent of it: tanh-sinh
        # quadrature of the two-point distance density at 30 digits.
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for m in EXPONENTS:
                for R in RADII:
                    def integrand(r):
                        u = r / (2 * R)
                        density = (4 * r / (mp.pi * R ** 2)
                                   * (mp.acos(u) - u * mp.sqrt(1 - u * u)))
                        return (1 + r) ** (-m) * density
                    ref = float(mp.quad(integrand, [0, 2 * R]))
                    assert_allclose(exp_pathloss_two_random_points(R, m),
                                    ref, rtol=1e-6, err_msg=f"R={R} m={m}")


class TestPowerAllocation:
    """Part 3: exactness and root-finder agreement on 50 random cells."""

    def test_targets_exact_and_match_root_finder(self):
        rng = np.random.default_rng(20260818)
        cases = []
        draws = 0
        while len(cases) < 50 and draws < 400:
            draws += 1
            R = rng.uniform(2.0, 6.0)
            geometry = CellGeometry(R=R, R_r=rng.uniform(6.0, 14.0),
                                    d_br=R + rng.uniform(1.0, 10.0),
                                    m=rng.uniform(2.3, 3.2))
            config = make_config(
                geometry=geometry,
                n_elements=int(rng.choice([16, 25, 36, 49, 64])),
                kappa_br=rng.uniform(0.0, 5.0),
                kappa_u1d=rng.uniform(0.0, 5.0),
                kappa_u2d=rng.uniform(0.0, 5.0),
                kappa_u1u=rng.uniform(0.0, 5.0),
                kappa_u2u=rng.uniform(0.0, 5.0),
                Xi=rng.uniform(0.0, 0.05),
                beta=float(rng.choice([0.0, 1.0])) * rng.uniform(0.0, 1e-4),
                si_lambda=rng.uniform(0.8, 1.1),
                P_t=rng.uniform(3e3, 3e4))
            state = aligned_state(config, rho_t=rng.uniform(0.3, 0.7))
            R_dth = rng.uniform(0.1, 0.8)
            R_uth = rng.uniform(0.05, 0.4)
            inputs = cf_rate_inputs(config, state)
            try:
                pa = power_allocation_closed_form(
                    config.replace(R_dth=R_dth, R_uth=R_uth), inputs)
            except (InfeasibleError, DegenerateGeometryError):
                continue
            cases.append((config, state, inputs, pa, R_dth, R_uth))
        assert len(cases) == 50, f"only {len(cases)} feasible in {draws}"

        for config, state, inputs, pa, R_dth, R_uth in cases:
            report = cf_rates(config, state, pa)
            assert_allclose(report.rate("u2d"), R_dth, rtol=1e-9)
            assert_allclose(report.rate("u2u"), R_uth, rtol=1e-9)
            cross = dl_sinr(inputs["u1d"], pa.p_b2, pa.p_b1, pa,
                            config.sigma_sq)
            assert_allclose(math.log2(1.0 + cross), R_dth, rtol=1e-9)

            gd, gu = 2.0 ** R_dth - 1.0, 2.0 ** R_uth - 1.0
            P_t, sig, sig_b = config.P_t, config.sigma_sq, config.sigma_b_sq

            def system(p, inputs=inputs, config=config, P_t=P_t,
                       gd=gd, gu=gu, sig=sig, sig_b=sig_b):
                pb1, pb2, pu2 = p
                pu1 = P_t - pb1 - pb2 - pu2
                v = config.beta * max(pb1 + pb2, 0.0) ** config.si_lambda
                c, e, u = inputs["u1d"], inputs["u2d"], inputs["u2u"]
                return [pb2 * e.x1 / (pb1 * e.x1 + pu1 * e.y1
                                      + pu2 * e.y2 + sig) - gd,
                        pb2 * c.x1 / (pb1 * c.x1 + pu1 * c.y1
                                      + pu2 * c.y2 + sig) - gd,
                        pu2 * u.x1 / (config.Xi * pu1 * u.y1
                                      + (pb1 + pb2) * u.y2 + v
                                      + sig_b) - gu]

            sol = sciopt.root(system, x0=[P_t / 4, P_t / 4, P_t / 4],
                              tol=1e-13)
            if not sol.success:
                sol = sciopt.root(system, x0=[pa.p_b1, pa.p_b2, pa.p_u2u],
                                  tol=1e-13)
            assert sol.success, sol.message
            assert_allclose([pa.p_b1, pa.p_b2, pa.p_u2u], sol.x,
                            rtol=1e-8)


def toy_surface_config(**overrides):
    """4-element cell where only the edge DL rate carries weight."""
    kwargs = dict(geometry=CellGeometry(R=5.0, R_r=10.0, d_br=8.0, m=2.7),
                  n_elements=4, P_t=10_000.0,
                  kappa_u1d=0.0, kappa_u1u=0.0, kappa_u2u=0.0,
                  weight_u1d=0.0, weight_u2d=1.0, weight_u1u=0.0,
                  weight_u2u=0.0)
    kwargs.update(overrides)
    return make_config(**kwargs)


class TestAscentOptimizer:
    """Part 4: monotone traces; within 2% of an exhaustive grid."""

    def test_objective_trace_never_decreases(self):
        toy = toy_surface_config()
        pw_toy = PowerConfig.from_config(toy)
        runs = [pgam(toy, pw_toy, aligned_state(toy, 0.5)),
                pgam(toy, pw_toy,
                     StarRisState.random_phases(
                         4, 0.4, np.random.default_rng(11)))]
        base = make_config(P_t=10_000.0)
        pw_base = PowerConfig.from_config(base)
        runs.append(pgam(base, pw_base, aligned_state(base, 0.5), L=40))
        bidir = base.replace(scenario="bidirectional")
        runs.append(pgam(bidir, pw_base, aligned_state(bidir, 0.5, pw_base),
                         L=15))
        for res in runs:
            drops = np.diff(res.trace)
            assert np.all(drops >= -1e-12), (
                f"trace decreased by {drops.min():.3e} ({res.reason})")

    def test_toy_surface_lands_within_two_percent_of_grid(self):
        config = toy_surface_config()
        pw = PowerConfig.from_config(config)
        n = config.n_elements
        started = time.monotonic()

        # The objective weights only the edge DL rate, which depends on
        # the reflect-side state alone, so the exhaustive search runs
        # over reflect phases (16 levels each) and amplitudes (11 levels
        # each). Constants are read off a probe state; the vectorized
        # evaluator is anchored against the library before it is
        # trusted.
        probe = StarRisState.uniform(n, rho_t=0.5)
        mo = compute_moments(config, probe)
        varpi4 = mo.varpi[4]
        hat = {i: mo.varpi_hat[i] / mo.sum_rho_sq["r"] for i in (4, 5, 6)}
        assert mo.varpi[5] == 0.0 and mo.varpi[6] == 0.0
        c4 = _los_vectors(n, config.angles)["u2d"] * \
            _los_vectors(n, config.angles)["br"]

        # |sum_n a_n e^{j phi_n} c_n|^2 is unchanged by a common rotation
        # of all phases, and the 16 levels are closed under rotation by a
        # level, so fixing phi_1 = 0 leaves the grid maximum unchanged.
        phase_levels = 2.0 * math.pi * np.arange(16) / 16.0
        amp_levels = np.arange(11) / 10.0
        phases = np.stack(np.meshgrid(*([phase_levels[:1]]
                                        + [phase_levels] * (n - 1)),
                                      indexing="ij"),
                          axis=-1).reshape(-1, n)
        amps = np.stack(np.meshgrid(*([amp_levels] * n), indexing="ij"),
                        axis=-1).reshape(-1, n)

        def sinr_edge(xi4, s2):
            x1 = mo.l_br * mo.q_edge * (varpi4 * xi4 + hat[4] * s2)
            y1 = mo.q_edge * mo.upsilon * hat[5] * s2
            y2 = mo.q_edge ** 2 * hat[6] * s2
            return (pw.p_b2 * x1
                    / (pw.p_b1 * x1 + pw.p_u1u * y1 + pw.p_u2u * y2
                       + config.sigma_sq))

        rng = np.random.default_rng(3)
        for _ in range(8):
            pi = int(rng.integers(phases.shape[0]))
            ai = int(rng.integers(amps.shape[0]))
            state = StarRisState(rho_t=1.0 - amps[ai], rho_r=amps[ai],
                                 phi_t=np.zeros(n), phi_r=phases[pi])
            xi4 = abs(np.sum(amps[ai] * np.exp(1j * phases[pi]) * c4)) ** 2
            mine = math.log2(1.0 + sinr_edge(xi4, float(
                np.sum(amps[ai] ** 2))))
            assert_allclose(mine, cf_rates(config, state, pw).rate("u2d"),
                            rtol=1e-12)

        cascade = np.exp(1j * phases) * c4[None, :]
        s2_all = np.sum(amps * amps, axis=1)
        best = -1.0
        for start in range(0, amps.shape[0], 128):
            block = slice(start, start + 128)
            xi4 = np.abs(cascade @ amps[block].T) ** 2
            best = max(best, float(np.max(
                sinr_edge(xi4, s2_all[block][None, :]))))
        grid_rate = math.log2(1.0 + best)

        result = pgam(config, pw, aligned_state(config, 0.5))
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"grid comparison took {elapsed:.0f}s"
        rel = abs(result.objective - grid_rate) / grid_rate
        assert rel <= 0.02, (
            f"ascent {result.objective:.6f} vs grid {grid_rate:.6f} "
            f"({rel:.2%}, {result.reason} after {result.iterations})")


def unimodal(values, tol=1e-12):
    """True when the sequence rises to one peak and then only falls."""
    falling = False
    for diff in np.diff(np.asarray(values, dtype=float)):
        if abs(diff) <= tol:
            continue
        if diff < 0.0:
            falling = True
        elif falling:
            return False
    return True


class TestSweepShapes:
    """Part 5: qualitative shapes of the headline sweeps."""

    def test_phase_designs_order_rates_at_high_power(self):
        config = make_config(P_t=10_000.0)
        pw = PowerConfig.from_config(config)
        aligned = aligned_state(config, 0.5)
        random_state = StarRisState.random_phases(
            config.n_elements, 0.5, np.random.default_rng(7))
        reports = {
            "pgam": cf_rates(config,
                             pgam(config, pw, aligned, L=200).state, pw),
            "aligned": cf_rates(config, aligned, pw),
            "random": cf_rates(config, random_state, pw),
        }
        for user in ("u2d", "u2u"):
            for design in ("pgam", "aligned"):
                assert reports[design].rate(user) > \
                    reports["random"].rate(user), (
                        f"{design} does not beat random on {user}")
        for user in ("u1d", "u1u"):
            rates = [reports[d].rate(user) for d in reports]
            spread = (max(rates) - min(rates)) / min(rates)
            assert spread < 0.05, f"{user} spread {spread:.2%}"

    def test_edge_rates_grow_with_surface_size(self):
        by_n = {}
        for n_elements in (16, 36, 64, 100):
            config = make_config(n_elements=n_elements)
            by_n[n_elements] = cf_rates(
                config, aligned_state(config, 0.5),
                PowerConfig.from_config(config))
        for user in ("u2d", "u2u"):
            rates = [by_n[n].rate(user) for n in sorted(by_n)]
            assert np.all(np.diff(rates) >= -1e-12), (
                f"{user} not non-decreasing: {rates}")
        for user in ("u1d", "u1u"):
            rates = [by_n[n].rate(user) for n in sorted(by_n)]
            spread = (max(rates) - min(rates)) / min(rates)
            assert spread < 0.05, f"{user} spread {spread:.2%}"

    def test_power_split_sweep_unimodal_with_ordered_peaks(self, tmp_path):
        spec, errors = parse_spec_text(preset_text("power-split-sweep"))
        assert errors == []
        resolved = dict(spec.resolved)
        resolved["output"] = str(tmp_path / "split.csv")
        spec = spec.replace(output=resolved["output"], resolved=resolved)
        out, _, _ = run_experiment(spec)
        curves = {}
        with open(out, encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                curves.setdefault(float(row["target_dl"]), []).append(
                    (float(row["tau"]), float(row["sum"])))
        assert set(curves) == {6.0, 3.0}
        argmax = {}
        for target, points in curves.items():
            taus, sums = zip(*sorted(points))
            assert unimodal(sums), f"target {target}: {sums}"
            argmax[target] = taus[int(np.argmax(sums))]
        assert argmax[6.0] < argmax[3.0], argmax

    def test_impairments_hit_exactly_the_named_users(self):
        state = aligned_state(make_config(), 0.5)

        def rates(**overrides):
            config = make_config(**overrides)
            return cf_rates(config, state,
                            PowerConfig.from_config(config))

        clean = rates()
        for overrides, degraded in ((dict(Xi=0.01), {"u1d", "u2u"}),
                                    (dict(beta=1e-3), {"u1u", "u2u"})):
            impaired = rates(**overrides)
            for user in USERS:
                if user in degraded:
                    assert impaired.rate(user) < clean.rate(user), (
                        f"{overrides} should degrade {user}")
                else:
                    assert impaired.rate(user) == clean.rate(user), (
                        f"{overrides} must not touch {user}")


class TestTermIdentities:
    """Part 6: uplink term reuse and the simplified rates against the
    written-out short forms."""

    def states(self):
        config = make_config()
        yield config, aligned_state(config, 0.5)
        yield config, StarRisState.random_phases(
            config.n_elements, 0.35, np.random.default_rng(5))

    def test_uplink_term_reuse_is_exact(self):
        for config, state in self.states():
            inputs = cf_rate_inputs(config, state)
            assert inputs["u2u"].x1 == inputs["u1u"].y1
            assert inputs["u2u"].y1 == inputs["u1u"].x1
            assert inputs["u2u"].y2 == inputs["u1u"].y2

    def test_simplified_rates_equal_switched_full_forms(self):
        for config, state in self.states():
            pw = PowerConfig.from_config(config)
            short = cf_rates_simplified(config, state, pw)
            oracle = short_form_rates(config, state, pw)
            for user in USERS:
                assert_allclose(short.rate(user), oracle[user],
                                rtol=1e-12, err_msg=user)


class TestReproducibility:
    """Part 7: manifests rebuild their CSV byte for byte."""

    def test_manifest_rerun_is_byte_identical_at_any_parallelism(
            self, tmp_path):
        spec, errors = parse_spec_text(
            "sweep_variable = snr_db\n"
            "sweep_grid = 10, 25, 40\n"
            "designs = aligned, random\n"
            "estimators = cf, mc\n"
            "trials = 60\n"
            f"output = {tmp_path / 'first.csv'}\n")
        assert errors == []
        out, manifest, _ = run_experiment(spec)
        reference = out.read_bytes()
        respec, errors = parse_spec_text(
            manifest.read_text(encoding="utf-8"))
        assert errors == []
        for jobs in (1, 4):
            resolved = dict(respec.resolved)
            resolved["output"] = str(tmp_path / f"again{jobs}.csv")
            redo = respec.replace(output=resolved["output"],
                                 resolved=resolved)
            out_again, _, _ = run_experiment(redo, jobs=jobs)
            assert out_again.read_bytes() == reference, f"jobs={jobs}"
