import csv
import math
import os
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import numpy as np
import pytest
from numpy.testing import assert_allclose

import starfd.cli as cli
import starfd.rates_cf as rates_cf
import starfd.rates_mc as rates_mc
from starfd.cli import (ExperimentSpec, main, parse_spec_text,
                        run_experiment, _config_for_point)
from starfd.sweep import _design_state, _report_cells
from starfd.channel import StarRisState
from starfd.kernel import PowerConfig
from starfd.presets import PRESETS, preset_text
from starfd.rates_cf import cf_rates
from starfd.rates_mc import _BLOCK, ergodic_rate_mc
from starfd.streams import keyed_rng


def make_spec(text, **replacements):
    spec, errors = parse_spec_text(dedent(text))
    assert errors == [], errors
    if replacements:
        resolved = dict(spec.resolved)
        resolved.update({k: str(v) for k, v in replacements.items()})
        spec = spec.replace(resolved=resolved, **replacements)
    return spec


MINI = """
    sweep_variable = snr_db
    sweep_grid = 20, 30
    output = mini.csv
"""


class TestSpecParsing:
    def test_defaults_fill_in(self):
        spec = make_spec(MINI)
        assert spec.config.P_t == pytest.approx(1000.0)
        assert spec.config.sigma_sq == 1.0
        assert spec.config.geometry.R == 50.0
        assert spec.designs == ("aligned",)
        assert spec.power_scheme == "fixed"
        assert spec.trials == 100000
        assert spec.scenario == "noma-pair"

    def test_db_keys_convert_at_the_boundary(self):
        spec = make_spec(MINI + "total_power_dbw = 50\nnoise_bs_dbw = 10\n")
        assert_allclose(spec.config.P_t, 1e5)
        assert_allclose(spec.config.sigma_b_sq, 10.0)

    def test_snr_point_sets_total_power(self):
        spec = make_spec(MINI)
        assert_allclose(_config_for_point(spec.config, "snr_db", 20.0).P_t,
                        100.0 * spec.config.sigma_sq)

    def test_snr_point_power_reads_the_downlink_noise(self):
        # The SNR is the total power over the DL noise, not the BS noise;
        # unequal noise powers tell the two apart.
        spec = make_spec(MINI + "noise_dl_dbw = 0\nnoise_bs_dbw = 10\n")
        assert (spec.config.sigma_sq, spec.config.sigma_b_sq) == (1.0, 10.0)
        assert _config_for_point(spec.config, "snr_db", 20.0).P_t == 100.0

    def test_unknown_and_bad_keys_collected_together(self):
        text = dedent("""
            sweep_variable = snr_db
            sweep_grid =
            frobnicate = 3
            kappa_br = much
        """)
        spec, errors = parse_spec_text(text)
        assert spec is None
        joined = "\n".join(errors)
        assert "frobnicate" in joined
        assert "kappa_br" in joined
        # the empty grid is only reported once parsing succeeded
        spec2, errors2 = parse_spec_text(
            "sweep_variable = snr_db\nsweep_grid =\n")
        assert spec2 is None
        assert any("non-empty" in e for e in errors2)

    def test_duplicate_key_rejected(self):
        _, errors = parse_spec_text(MINI + "seed = 1\nseed = 2\n")
        assert any("duplicate" in e for e in errors)

    @pytest.mark.parametrize("line, error", [
        ("estimators = cf, mc, cf", "estimators: 'cf' is listed more than "
                                    "once"),
        ("designs = aligned, aligned", "designs: 'aligned' is listed more "
                                       "than once"),
        ("designs = pgam random pgam", "designs: 'pgam' is listed more "
                                       "than once"),
    ])
    def test_repeated_word_exits_1_and_writes_nothing(self, tmp_path, capsys,
                                                      line, error):
        # A repeated design or estimator would write its rows twice (and
        # a repeated pgam would run the whole ascent twice).
        path = write_spec(tmp_path, MINI + line + "\n")
        out = tmp_path / "never.csv"
        assert main(["run", str(path), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_unsorted_grid_rejected(self):
        _, errors = parse_spec_text(
            "sweep_variable = snr_db\nsweep_grid = 30, 20\n")
        assert any("strictly increasing" in e for e in errors)

    def test_tau_zero_rejected_with_limit_hint(self):
        _, errors = parse_spec_text(
            "sweep_variable = tau\nsweep_grid = 0, 0.5\n")
        assert any("0.01" in e and "(0, 1]" in e for e in errors)

    def test_fractional_element_count_rejected(self):
        _, errors = parse_spec_text(
            "sweep_variable = n_elements\nsweep_grid = 4, 6.5\n")
        assert any("positive integers" in e for e in errors)

    def test_pathloss_exponent_of_two_rejected(self):
        _, errors = parse_spec_text(MINI + "pathloss_exponent = 2\n")
        assert any("path-loss exponent must exceed 2" in e
                   for e in errors)

    def test_inverted_noma_shares_rejected(self):
        _, errors = parse_spec_text(
            MINI + "alpha1 = 0.8\nalpha2 = 0.2\n")
        assert any("alpha1 < alpha2" in e for e in errors)

    def test_scheme_scenario_compatibility(self):
        _, errors = parse_spec_text(
            MINI + "scenario = bidirectional\npower_scheme = closed-form\n")
        assert any("bidirectional" in e for e in errors)
        _, errors = parse_spec_text(
            MINI + "power_scheme = tau-dl-target\n")
        assert any("tau sweeps" in e for e in errors)
        _, errors = parse_spec_text(
            "sweep_variable = target_rate\nsweep_grid = 1, 2\n")
        assert any("closed-form" in e for e in errors)

    def test_target_rate_alias_with_hyphen(self):
        spec = make_spec("""
            sweep_variable = target-rate
            sweep_grid = 0.5, 1
            power_scheme = closed-form
        """)
        assert spec.sweep_variable == "target_rate"

    @pytest.mark.parametrize("key, extra", [
        ("weight_u1d", {}),
        ("pgam_eps", {"designs": "pgam", "pgam_iters": "2"}),
        ("kappa_br", {}),
        ("si_beta", {}),
        ("sweep_grid", {}),
    ])
    def test_non_finite_value_exits_1_and_writes_nothing(
            self, tmp_path, capsys, key, extra):
        keys = {"sweep_variable": "snr_db", "sweep_grid": "30", **extra,
                key: "nan"}
        path = write_spec(tmp_path, "".join(f"{k} = {v}\n"
                                            for k, v in keys.items()))
        out = tmp_path / "never.csv"
        assert main(["run", str(path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert key in err and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("total_power_dbw", "4000"),
        ("noise_dl_dbw", "3100"),
        ("noise_bs_dbw", "3100"),
        ("sweep_grid", "30, 4000"),
        ("sweep_grid", "-4000, 30"),
    ])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_power_beyond_float_range_exits_1_and_writes_nothing(
            self, tmp_path, capsys, command, key, value):
        keys = {"sweep_variable": "snr_db", "sweep_grid": "30", key: value}
        path = write_spec(tmp_path, "".join(f"{k} = {v}\n"
                                            for k, v in keys.items()))
        out = tmp_path / "never.csv"
        args = [command, str(path)]
        if command == "run":
            args += ["--output", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("variable, grid, bad, extra", [
        ("tau", "0.5, 1.5", 1.5, ""),
        ("n_elements", "4, 6.5", 6.5, ""),
        ("n_elements", "0, 4", 0.0, ""),
        ("xi", "0.5, 1.5", 1.5, ""),
        ("beta", "-1, 0", -1.0, ""),
        ("target_rate", "-0.1, 0.5", -0.1, "power_scheme = closed-form\n"),
        ("snr_db", "30, 4000", 4000.0, ""),
    ])
    def test_grid_value_outside_the_cell_exits_1_and_writes_nothing(
            self, tmp_path, capsys, variable, grid, bad, extra):
        # Each grid value must build a valid cell, under the same checks
        # as the fixed keys; the error names the value.
        path = write_spec(tmp_path, f"sweep_variable = {variable}\n"
                          f"sweep_grid = {grid}\n{extra}")
        assert main(["validate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: sweep_grid: ")
        assert err.count("\n") == 1
        assert f"{variable} = {bad!r}:" in err
        assert out == "" and list(tmp_path.iterdir()) == [path]

    def test_every_preset_parses(self):
        for name in PRESETS:
            spec, errors = parse_spec_text(preset_text(name))
            assert errors == [], (name, errors)
            assert spec.output == f"{name}.csv"

    def test_baseline_preset_resolves_baseline_cell(self):
        spec, _ = parse_spec_text(preset_text("default"))
        geo = spec.config.geometry
        assert (geo.R, geo.R_r, geo.d_br, geo.m) == (50.0, 30.0, 60.0, 2.7)
        assert spec.config.n_elements == 20
        assert spec.config.kappa_br == 3.0


def write_spec(tmp_path, text, name="exp.txt"):
    path = tmp_path / name
    path.write_text(dedent(text), encoding="utf-8")
    return path


class TestRunExperiment:
    def test_csv_schema_and_rows(self, tmp_path):
        spec = make_spec(MINI + "designs = aligned, random\n"
                                "estimators = cf, mc\ntrials = 50\n",
                         output=str(tmp_path / "out.csv"))
        out, manifest, summary = run_experiment(spec)
        assert summary is None
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["snr_db", "design", "estimator", "R_u1d",
                           "R_u2d", "R_u1u", "R_u2u", "sum",
                           "stderr_u1d", "stderr_u2d", "stderr_u1u",
                           "stderr_u2u"]
        assert len(rows) == 1 + 2 * 2 * 2
        header = rows[0]
        for row in rows[1:]:
            record = dict(zip(header, row))
            total = math.fsum(
                0.8 * float(record[f"R_{u}"])
                for u in ("u1d", "u2d", "u1u", "u2u"))
            assert_allclose(float(record["sum"]), total, rtol=1e-12)
            if record["estimator"] == "cf":
                assert record["stderr_u1d"] == ""
            else:
                assert float(record["stderr_u1d"]) >= 0.0

    def test_random_design_is_keyed_by_point_and_index(self, tmp_path):
        # The random design at grid point p and design index j draws its
        # phases from keyed_rng(seed, p, j, 1), so every point scores a
        # surface of its own.
        spec = make_spec(MINI + "n_elements = 4\ndesigns = aligned, "
                         "random\n", output=str(tmp_path / "r.csv"))
        out, _, _ = run_experiment(spec)
        rows = [line.split(",")[3:] for line in
                out.read_text(encoding="utf-8").splitlines()
                if ",random," in line]
        expected = []
        for point, value in enumerate(spec.grid):
            config = _config_for_point(spec.config, "snr_db", value)
            state = StarRisState.random_phases(
                4, 0.5, keyed_rng(spec.seed, point, 1, 1))
            expected.append(_report_cells(cf_rates(
                config, state, PowerConfig.from_config(config))))
        assert rows == expected

    def test_repeated_random_design_gives_distinct_rows(self, tmp_path):
        # Each random design draws from its own index's stream, so a
        # repeat scores another surface rather than the same rows again.
        spec = make_spec(MINI + "n_elements = 4\ndesigns = random, "
                         "aligned, random\n", output=str(tmp_path / "r.csv"))
        out, _, _ = run_experiment(spec)
        rows = [line.split(",") for line in
                out.read_text(encoding="utf-8").splitlines()[1:]]
        assert [row[1] for row in rows] == ["random", "aligned",
                                            "random"] * 2
        for point in (rows[:3], rows[3:]):
            assert point[0][3:] != point[2][3:]
        config = _config_for_point(spec.config, "snr_db", 30.0)
        state = StarRisState.random_phases(4, 0.5,
                                           keyed_rng(spec.seed, 1, 2, 1))
        assert rows[5][3:] == _report_cells(cf_rates(
            config, state, PowerConfig.from_config(config)))

    def test_same_spec_twice_is_byte_identical(self, tmp_path):
        text = MINI + "estimators = cf, mc\ntrials = 40\n"
        a = make_spec(text, output=str(tmp_path / "a.csv"))
        b = make_spec(text, output=str(tmp_path / "b.csv"))
        out_a, _, _ = run_experiment(a)
        out_b, _, _ = run_experiment(b)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_manifest_rerun_is_byte_identical_at_any_parallelism(
            self, tmp_path):
        spec = make_spec("""
            sweep_variable = snr_db
            sweep_grid = 10, 20, 30
            designs = aligned, random
            estimators = cf, mc
            trials = 30
        """, output=str(tmp_path / "first.csv"))
        out, manifest, _ = run_experiment(spec)
        respec, errors = parse_spec_text(
            manifest.read_text(encoding="utf-8"))
        assert errors == []
        assert respec.output == str(out)
        for jobs, name in ((1, "re1.csv"), (3, "re3.csv")):
            redo = respec.replace(output=str(tmp_path / name))
            out_re, _, _ = run_experiment(redo, jobs=jobs)
            assert out_re.read_bytes() == out.read_bytes()

    def test_element_sweep_column_is_integer(self, tmp_path):
        spec = make_spec("""
            sweep_variable = n_elements
            sweep_grid = 4, 9
            estimators = cf
        """, output=str(tmp_path / "n.csv"))
        out, _, _ = run_experiment(spec)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1].startswith("4,aligned,")
        assert lines[2].startswith("9,aligned,")

    def test_bidirectional_schema(self, tmp_path):
        spec = make_spec("""
            scenario = bidirectional
            sweep_variable = snr_db
            sweep_grid = 30
            n_elements = 8
            estimators = cf, mc
            trials = 40
        """, output=str(tmp_path / "bd.csv"))
        out, _, _ = run_experiment(spec)
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["snr_db", "design", "estimator", "R_c", "R_e",
                           "sum", "stderr_c", "stderr_e"]
        cf_row = dict(zip(rows[0], rows[1]))
        assert_allclose(float(cf_row["sum"]),
                        float(cf_row["R_c"]) + float(cf_row["R_e"]),
                        rtol=1e-12)

    def test_tau_target_sweep_writes_summary(self, tmp_path):
        spec = make_spec("""
            cell_radius_m = 10
            edge_radius_m = 30
            bs_surface_distance_m = 12
            n_elements = 16
            total_power_dbw = 50
            ul_split = 0.05
            sweep_variable = tau
            sweep_grid = 0.3, 0.6, 0.9
            power_scheme = tau-dl-target
            dl_target_cases = 3, 1
            estimators = cf
        """, output=str(tmp_path / "tau.csv"))
        out, _, summary = run_experiment(spec)
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:5] == ["tau", "design", "target_dl", "feasible",
                               "estimator"]
        assert len(rows) == 1 + 3 * 2
        assert {r[3] for r in rows[1:]} <= {"true", "false"}
        # One line per target; no split on this cell meets 3 bits/s/Hz.
        lines = summary.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ("design=aligned target_dl=3.0 estimator=cf: "
                            "no feasible tau")
        assert lines[1].startswith("design=aligned target_dl=1.0 "
                                   "estimator=cf: argmax tau = ")
        assert len(lines) == 2

    def test_feasible_tau_rows_meet_their_targets(self, tmp_path):
        # A row flagged feasible meets its DL target at the edge user and
        # the UL target at the edge uplink user, counting every
        # interference term the cf row counts.
        spec = make_spec(preset_text("power-split-sweep"),
                         output=str(tmp_path / "split.csv"))
        assert spec.estimators == ("cf",)
        out, _, _ = run_experiment(spec)
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        feasible = [r for r in rows if r["feasible"] == "true"]
        assert len(rows) == 38 and len(feasible) == 29
        for row in feasible:
            assert float(row["R_u2d"]) >= float(row["target_dl"]) - 1e-12, row
            assert float(row["R_u2u"]) >= spec.config.R_uth - 1e-12, row

    def test_single_point_grid_is_its_own_argmax(self, tmp_path):
        spec = make_spec("""
            sweep_variable = tau
            sweep_grid = 0.4
            estimators = cf
        """, output=str(tmp_path / "one.csv"))
        _, _, summary = run_experiment(spec)
        assert "argmax tau = 0.4" in summary.read_text(encoding="utf-8")

    def test_tau_summary_ranks_only_feasible_splits(self, tmp_path):
        # At a 7 bits/s/Hz DL target the largest sum rate sits at an
        # infeasible split, and no split meets 9 bits/s/Hz.
        text = preset_text("power-split-sweep").replace(
            "dl_target_cases = 6, 3", "dl_target_cases = 7, 9")
        spec = make_spec(text, output=str(tmp_path / "tau.csv"))
        out, _, summary = run_experiment(spec)
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        feasible = [r for r in rows
                    if r["target_dl"] == "7.0" and r["feasible"] == "true"]
        best = max(feasible, key=lambda r: float(r["sum"]))
        assert max(rows, key=lambda r: float(r["sum"]))["feasible"] == "false"
        assert not any(r["feasible"] == "true" for r in rows
                       if r["target_dl"] == "9.0")
        assert summary.read_text(encoding="utf-8").splitlines() == [
            f"design=aligned target_dl=7.0 estimator=cf: argmax tau = "
            f"{best['tau']} (sum rate {best['sum']} bits/s/Hz)",
            "design=aligned target_dl=9.0 estimator=cf: no feasible tau"]

    def test_closed_form_rows_meet_targets(self, tmp_path):
        spec = make_spec("""
            cell_radius_m = 5
            edge_radius_m = 10
            bs_surface_distance_m = 8
            n_elements = 64
            sweep_variable = snr_db
            sweep_grid = 40
            power_scheme = closed-form
            target_dl_rate = 0.5
            target_ul_rate = 0.1
            estimators = cf
        """, output=str(tmp_path / "cf.csv"))
        out, _, _ = run_experiment(spec)
        with open(out, encoding="utf-8") as fh:
            record = list(csv.DictReader(fh))[0]
        assert_allclose(float(record["R_u2d"]), 0.5, rtol=1e-9)
        assert_allclose(float(record["R_u2u"]), 0.1, rtol=1e-9)

    def test_closed_form_pgam_beats_aligned(self, tmp_path):
        # PGAM tunes the surface for the powers allocated at the aligned
        # state, not for the fixed split that its row never uses.
        spec = make_spec("""
            cell_radius_m = 5
            edge_radius_m = 10
            bs_surface_distance_m = 8
            n_elements = 64
            total_power_dbw = 40
            power_scheme = closed-form
            sweep_variable = target_rate
            sweep_grid = 0.1, 0.3, 0.5
            target_ul_rate = 0.1
            designs = pgam, aligned
            pgam_iters = 40
            estimators = cf
        """, output=str(tmp_path / "cf.csv"))
        out, _, _ = run_experiment(spec)
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        sums = {(r["target_rate"], r["design"]): float(r["sum"])
                for r in rows}
        for target in ("0.1", "0.3", "0.5"):
            assert sums[target, "pgam"] > sums[target, "aligned"], target

    def test_pgam_design_runs(self, tmp_path):
        spec = make_spec("""
            cell_radius_m = 5
            edge_radius_m = 10
            bs_surface_distance_m = 8
            n_elements = 4
            sweep_variable = snr_db
            sweep_grid = 40
            designs = pgam, aligned
            pgam_iters = 5
            estimators = cf
        """, output=str(tmp_path / "pg.csv"))
        out, _, _ = run_experiment(spec)
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        by_design = {r["design"]: float(r["sum"]) for r in rows}
        assert by_design["pgam"] >= by_design["aligned"] - 1e-12

    def test_designs_and_estimators_may_be_lists(self, tmp_path):
        spec = make_spec(MINI, output=str(tmp_path / "l.csv")).replace(
            designs=["aligned"], estimators=("cf",))
        out, _, _ = run_experiment(spec)
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["design"] for r in rows] == ["aligned", "aligned"]

    def test_jobs_must_be_positive(self, tmp_path):
        spec = make_spec(MINI, output=str(tmp_path / "j.csv"))
        with pytest.raises(ValueError, match="jobs"):
            run_experiment(spec, jobs=0)

    @pytest.mark.parametrize("scheme", [
        "tau-dl-target\nsweep_variable = tau\nsweep_grid = 0.3, 0.6, 0.9\n"
        "dl_target_cases = 3, 1\ndesigns = aligned, random\n"
        "estimators = cf, mc\ntrials = 8\n",
        "closed-form\nsweep_variable = snr_db\nsweep_grid = 40, 45\n"
        "cell_radius_m = 5\nedge_radius_m = 10\nbs_surface_distance_m = 8\n"
        "n_elements = 64\ntarget_dl_rate = 0.5\ntarget_ul_rate = 0.1\n"
        "designs = aligned\n"], ids=["tau-dl-target", "closed-form"])
    def test_moments_assembled_once_per_state(self, tmp_path, monkeypatch,
                                              scheme):
        # The powers of every target case and the cf rows all read one
        # assembly of the state's moments.
        states = []
        assemble = rates_cf.compute_moments

        def counting(config, ris):
            states.append(ris)
            return assemble(config, ris)

        monkeypatch.setattr(rates_cf, "compute_moments", counting)
        spec = make_spec(f"power_scheme = {scheme}",
                         output=str(tmp_path / "m.csv"))
        run_experiment(spec)
        assert len(states) == len(spec.grid) * len(spec.designs)
        assert len({id(ris) for ris in states}) == len(states)


def one_pair_mc_cells(spec):
    """The cells of every MC row of a fixed-power spec, in CSV order, from
    a one-cell call on its point's config, design state and powers."""
    cells = []
    for point, value in enumerate(spec.grid):
        config = _config_for_point(spec.config, spec.sweep_variable, value)
        pw = PowerConfig.from_config(config)
        for j in range(len(spec.designs)):
            state = _design_state(spec, config, pw, point, j)
            report, = ergodic_rate_mc([(config, state, pw)], spec.trials,
                                      spec.seed, spec.scenario)
            cells.append(",".join(_report_cells(report)))
    return cells


def csv_mc_cells(path):
    return [line.split(",", 3)[3] for line in
            path.read_text(encoding="utf-8").splitlines()[1:]
            if line.split(",")[2] == "mc"]


@pytest.fixture
def draws(monkeypatch):
    """The sizes of the blocks drawn, one entry per draw."""
    sizes = []
    draw = rates_mc.draw_realization

    def recording_draw(config, rng, size):
        sizes.append(size)
        return draw(config, rng, size)

    monkeypatch.setattr(rates_mc, "draw_realization", recording_draw)
    return sizes


SHARED = {
    "snr_db": """
        sweep_variable = snr_db
        sweep_grid = 10, 20, 30
        n_elements = 6
        designs = aligned, random
        estimators = cf, mc
    """,
    "n_elements-one": """
        sweep_variable = n_elements
        sweep_grid = 5
        designs = aligned, random
        estimators = mc
    """,
    "n_elements-several": """
        sweep_variable = n_elements
        sweep_grid = 3, 5, 8
        designs = aligned, random
        estimators = cf, mc
    """,
    "xi": """
        sweep_variable = xi
        sweep_grid = 0, 0.1, 0.4
        si_beta = 1e-4
        n_elements = 6
        designs = aligned, random
        estimators = cf, mc
    """,
    "beta": """
        sweep_variable = beta
        sweep_grid = 0, 1e-4, 1e-3
        sic_residual = 0.05
        n_elements = 6
        designs = aligned, random
        estimators = cf, mc
    """,
}


class TestSharedDraws:
    """MC cells that share a draw key are scored on the same blocks."""

    @pytest.mark.parametrize("scenario", ["noma-pair", "bidirectional"])
    @pytest.mark.parametrize("sweep", ["snr_db", "n_elements-several", "xi",
                                       "beta"])
    def test_mc_rows_are_the_one_pair_reports(self, tmp_path, scenario,
                                              sweep):
        spec = make_spec(SHARED[sweep] + f"scenario = {scenario}\n"
                         f"trials = {2 * _BLOCK + 5}\n",
                         output=str(tmp_path / "shared.csv"))
        out, _, _ = run_experiment(spec)
        assert csv_mc_cells(out) == one_pair_mc_cells(spec)

    def test_snr_sweep_draws_each_block_once(self, tmp_path, draws):
        # An xi or beta sweep changes only constants the draw does not
        # read, so it is one draw group as well.
        for sweep in ("snr_db", "xi", "beta"):
            spec = make_spec(SHARED[sweep] + f"trials = {2 * _BLOCK + 1}\n",
                             output=str(tmp_path / f"{sweep}.csv"))
            run_experiment(spec)
            assert draws == [_BLOCK, _BLOCK, 1], sweep
            draws.clear()

    def test_element_sweep_draws_each_block_once_per_point(self, tmp_path,
                                                           draws):
        spec = make_spec("""
            sweep_variable = n_elements
            sweep_grid = 4, 9
            designs = aligned, random
            estimators = mc
        """ + f"trials = {2 * _BLOCK + 1}\n",
                         output=str(tmp_path / "n.csv"))
        run_experiment(spec)
        assert draws == [_BLOCK, _BLOCK, 1] * 2

    def test_target_cases_share_the_draws(self, tmp_path, draws):
        counts = []
        for cases in ("0.5", "0.5, 1.0"):
            spec = make_spec("""
                sweep_variable = tau
                sweep_grid = 0.5, 0.8
                n_elements = 6
                designs = aligned, random
                power_scheme = tau-dl-target
                estimators = mc
            """ + f"dl_target_cases = {cases}\n"
                  f"trials = {2 * _BLOCK + 1}\n",
                             output=str(tmp_path / "t.csv"))
            run_experiment(spec)
            counts.append(len(draws))
            draws.clear()
        assert counts == [3, 3]

    @pytest.mark.parametrize("sweep", ["snr_db", "n_elements-several"])
    def test_workers_draw_no_more_blocks(self, tmp_path, draws, sweep):
        counts = []
        for jobs in (1, 2):
            spec = make_spec(SHARED[sweep] + f"trials = {2 * _BLOCK + 1}\n",
                             output=str(tmp_path / f"j{jobs}.csv"))
            run_experiment(spec, jobs=jobs)
            counts.append(sorted(draws))
            draws.clear()
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("sweep", sorted(SHARED))
    def test_csv_is_byte_identical_at_any_jobs(self, tmp_path, sweep):
        outputs = []
        for jobs in (1, 2, 3):
            spec = make_spec(SHARED[sweep] + f"trials = {3 * _BLOCK + 7}\n",
                             output=str(tmp_path / f"j{jobs}.csv"))
            out, _, _ = run_experiment(spec, jobs=jobs)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].count(b",mc,") == len(spec.grid) * 2


def fresh_python(tmp_path, script):
    """The standard output of ``script`` run in a new interpreter in
    ``tmp_path``, which must exit 0."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(tmp_path, steps):
    """Run ``steps`` of (argv, module names) in one fresh process that has
    imported starfd.cli. Each step runs ``main(argv)`` (nothing for
    ``None``) and gives a line with its exit code and which of the names
    are loaded after it."""
    script = dedent(f"""
        import contextlib, io, sys
        import starfd.cli
        for argv, names in {steps!r}:
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                code = None if argv is None else starfd.cli.main(argv)
            print(code, [m for m in names if m in sys.modules])
    """)
    return fresh_python(tmp_path, script).splitlines()


class TestStartup:
    def test_import_loads_no_unused_modules(self, tmp_path):
        # A single-worker run needs neither the thread pool (with the
        # logging stack it pulls in) nor numpy's polynomial package; both
        # would cost every process start-up time and memory. The records
        # are plain classes: dataclasses would generate and compile their
        # methods at every import. The command line is read without
        # argparse (and the gettext and locale lookups it makes), the
        # presets only for a preset name, and the power allocation only
        # for a rate-target scheme. Parsing, checking and printing a spec
        # load neither numpy nor the numeric modules, nor compile the
        # sweep runner; only a run does, and it compiles the simulator (with its draw and numpy.random)
        # only for the mc estimator and the ascent only for the pgam
        # design. A fixed-power mc run of random designs alone compiles
        # neither the aligned designs nor the closed forms.
        unused = ("concurrent.futures", "logging", "numpy.polynomial",
                  "dataclasses")
        lazy = ("argparse", "gettext", "locale", "starfd.power")
        simulator = ("starfd.rates_mc", "starfd.streams", "numpy.random")
        ascent = ("starfd.optimize",)
        closed_forms = ("starfd.designs", "starfd.rates_cf")
        numeric = ("numpy", "starfd.channel", "starfd.geometry",
                   "starfd.specfun", "starfd.kernel", "starfd.rates_cf",
                   "starfd.designs")
        write_spec(tmp_path, MINI, "fixed.txt")
        write_spec(tmp_path, MINI + "power_scheme = closed-form\n",
                   "closed.txt")
        write_spec(tmp_path, MINI + "designs = nope\n", "bad.txt")
        write_spec(tmp_path, MINI + "n_elements = 4\nestimators = cf, mc\n"
                   "trials = 8\n", "mc.txt")
        write_spec(tmp_path, MINI + "n_elements = 4\ndesigns = pgam\n"
                   "pgam_iters = 2\n", "pgam.txt")
        write_spec(tmp_path, MINI + "n_elements = 4\ndesigns = random\n"
                   "estimators = mc\ntrials = 8\n", "random-mc.txt")
        runner = ("starfd.sweep",)
        spec_layer = unused + lazy + numeric + simulator + ascent + runner
        presets = ("starfd.presets",)
        assert loaded_after(tmp_path, [
            (None, spec_layer + presets),
            (["validate", "fixed.txt"], spec_layer + presets),
            (["run", "bad.txt"], spec_layer + presets),
            (["--help"], spec_layer + presets),
            (["frobnicate"], spec_layer + presets),
            (["validate", "default"], spec_layer),
            (["presets", "list"], spec_layer),
            (["presets", "show", "default"], spec_layer),
        ]) == ["None []", "0 []", "1 []", "0 []", "2 []", "0 []", "0 []",
               "0 []"]
        assert loaded_after(tmp_path, [
            (["run", "fixed.txt"], unused + lazy + presets + simulator
             + ascent),
            (None, numeric),
            (["run", "closed.txt"], ("starfd.power",) + simulator + ascent),
            (["run", "mc.txt"], simulator + ascent),
            (["run", "pgam.txt"], ascent),
        ]) == ["0 []", f"None {list(numeric)}", "0 ['starfd.power']",
               f"0 {list(simulator)}", "0 ['starfd.optimize']"]
        assert loaded_after(tmp_path, [
            (["run", "pgam.txt"], simulator),
        ]) == ["0 []"]
        assert loaded_after(tmp_path, [
            (["run", "random-mc.txt"], unused + lazy + closed_forms + ascent
             + simulator),
        ]) == [f"0 {list(simulator)}"]
        for name in ("fixed", "closed", "mc", "pgam", "random-mc"):
            assert loaded_after(tmp_path, [
                (["run", f"{name}.txt"], runner),
            ]) == [f"0 {list(runner)}"], name

    def test_numpy_random_loads_without_openssl(self, tmp_path):
        # numpy's generator imports ``secrets`` (and with it hmac, hashlib
        # and OpenSSL's libcrypto) only to seed from OS entropy, which no
        # keyed stream does, so a run loads it under a stand-in. A later
        # ``import secrets`` still gets the real module, an unseeded
        # SeedSequence still draws fresh entropy, and the CSV is the same
        # whether secrets came first and at any --jobs. Fresh processes,
        # because in this one numpy.random is loaded already.
        openssl = ("secrets", "hmac", "_hashlib")
        write_spec(tmp_path, MINI + "n_elements = 4\ndesigns = random\n",
                   "random-cf.txt")
        assert loaded_after(tmp_path, [
            (["run", "random-cf.txt"], openssl + ("numpy.random",)),
        ]) == ["0 ['numpy.random']"]
        write_spec(tmp_path, MINI + "n_elements = 4\ndesigns = aligned, "
                   "random\nestimators = cf, mc\ntrials = 8\n", "mc.txt")

        def run(first, output, jobs):
            return fresh_python(tmp_path, dedent(f"""
                import contextlib, io, sys
                {first}
                import starfd.cli
                with contextlib.redirect_stdout(io.StringIO()):
                    code = starfd.cli.main(["run", "mc.txt", "--output",
                                            "{output}", "--jobs", "{jobs}"])
                print(code, [m for m in {openssl!r} if m in sys.modules])
                import numpy.random
                print(numpy.random.SeedSequence().entropy
                      != numpy.random.SeedSequence().entropy)
                import secrets
                print(len(secrets.token_hex(8)))
            """)).splitlines()

        assert run("", "one.csv", 1) == ["0 []", "True", "16"]
        assert run("", "two.csv", 2) == ["0 []", "True", "16"]
        assert run("import secrets", "pre.csv", 1) == [
            f"0 {list(openssl)}", "True", "16"]
        one = (tmp_path / "one.csv").read_bytes()
        assert one.count(b",mc,") == 4
        assert (tmp_path / "two.csv").read_bytes() == one
        assert (tmp_path / "pre.csv").read_bytes() == one

    def test_only_the_command_line_freezes_the_collector(self, tmp_path):
        # Run as the process's command line, main freezes the collector
        # once its command is done, so an exit left to the interpreter
        # skips the heap; every file is closed by then and holds the
        # bytes of an in-process main([...]) run, which leaves the
        # caller's collector alone: nothing frozen, and on or off as it
        # was. A command that loads no run path (validate, presets)
        # freezes at the end all the same. The command line ends the
        # process, so an exit handler reports what it left.
        write_spec(tmp_path, MINI + "n_elements = 4\ndesigns = aligned, "
                   "random\nestimators = cf, mc\ntrials = 8\n", "mc.txt")
        steps = [("in1", ["run", "../mc.txt", "--output", "out.csv"]),
                 ("in2", ["run", "../mc.txt", "--output", "out.csv",
                          "--jobs", "2"]),
                 (".", ["validate", "mc.txt"]), (".", ["presets", "list"])]
        for name in ("in1", "in2", "cmd1", "cmd2"):
            (tmp_path / name).mkdir()
        assert fresh_python(tmp_path, dedent(f"""
            import contextlib, gc, io, os
            import starfd.cli
            counts = [gc.get_freeze_count()]
            for where, argv in {steps!r}:
                os.chdir(where)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = starfd.cli.main(argv)
                os.chdir({str(tmp_path)!r})
                counts.append((code, gc.get_freeze_count()))
            print(counts)
            enabled = []
            for where, argv in {steps!r}:
                for state in (gc.disable, gc.enable):
                    state()
                    os.chdir(where)
                    with contextlib.redirect_stdout(io.StringIO()):
                        starfd.cli.main(argv)
                    os.chdir({str(tmp_path)!r})
                    enabled.append(gc.isenabled())
            print(enabled)
        """)).splitlines() == ["[0, (0, 0), (0, 0), (0, 0), (0, 0)]",
                               str([False, True] * len(steps))]
        for jobs in (1, 2):
            assert fresh_python(tmp_path / f"cmd{jobs}", dedent(f"""
                import atexit, gc, sys
                import starfd.cli
                sys.argv = ["starfd", "run", "../mc.txt", "--output",
                            "out.csv", "--jobs", "{jobs}"]
                atexit.register(lambda: print(gc.get_freeze_count() > 0))
                starfd.cli.main()
            """)) == "wrote out.csv\nwrote out.csv.manifest.txt\nTrue\n"
            for name in ("out.csv", "out.csv.manifest.txt"):
                assert ((tmp_path / f"cmd{jobs}" / name).read_bytes()
                        == (tmp_path / f"in{jobs}" / name).read_bytes())
        assert (tmp_path / "in1" / "out.csv").read_bytes().count(
            b",mc,") == 4
        for argv in (["validate", "mc.txt"], ["presets", "list"]):
            assert fresh_python(tmp_path, dedent(f"""
                import atexit, gc, sys
                import starfd.cli
                sys.argv = ["starfd", *{argv!r}]
                atexit.register(lambda: print(gc.get_freeze_count() > 0))
                starfd.cli.main()
            """)).endswith("\nTrue\n")

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_command_line_loads_paused_and_sweeps_as_before(self, tmp_path,
                                                            jobs, enabled):
        # A command-line run binds its numeric modules with the collector
        # paused, so no collection scans them while they load, and then
        # freezes them. The sweep runs with the collector on or off as the
        # process had it before main, and main leaves it that way. The
        # command line ends the process, so an exit handler reports.
        write_spec(tmp_path, MINI + "n_elements = 4\ndesigns = aligned, "
                   "random\nestimators = cf, mc\ntrials = 8\n", "mc.txt")
        script = dedent(f"""
            import atexit, gc, sys
            import starfd.cli as cli
            import starfd.sweep
            if not {enabled}:
                gc.disable()
            collections, loads, sweep = [], [], set()
            gc.callbacks.append(lambda phase, info: phase == "start"
                                and collections.append(info))
            def bind(spec, bind=cli._bind_run_names):
                before = len(collections)
                bind(spec)
                loads.append(len(collections) - before)
            def point_rows(*args, point_rows=starfd.sweep._point_rows):
                sweep.add((gc.isenabled(), gc.get_freeze_count() > 0))
                return point_rows(*args)
            cli._bind_run_names = bind
            starfd.sweep._point_rows = point_rows
            sys.argv = ["starfd", "run", "mc.txt", "--jobs", "{jobs}"]
            atexit.register(lambda: print(loads[0], sorted(sweep),
                                          gc.isenabled()))
            cli.main()
        """)
        assert fresh_python(tmp_path, script) == (
            "wrote mini.csv\nwrote mini.csv.manifest.txt\n"
            f"0 [({enabled}, True)] {enabled}\n")

    def test_failed_import_leaves_no_stand_in(self, tmp_path):
        # A numpy.random that cannot be imported raises, and the stand-in
        # secrets is gone with it, so a later import gets the real one.
        script = dedent("""
            import sys
            class Refuse:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy.random":
                        raise ImportError("refused")
            sys.meta_path.insert(0, Refuse())
            try:
                import starfd.streams
            except ImportError as exc:
                print(exc)
            print([m for m in ("secrets", "numpy.random", "starfd.streams")
                   if m in sys.modules])
            sys.meta_path.pop(0)
            import secrets
            print(len(secrets.token_hex(8)))
        """)
        assert fresh_python(tmp_path, script).splitlines() == [
            "refused", "[]", "16"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_names_rebound_before_main_are_the_ones_run(self, tmp_path,
                                                        jobs):
        # The benchmark traces the run path by rebinding these names on
        # starfd.cli before main; the run must call what it finds there.
        write_spec(tmp_path, """
            sweep_variable = snr_db
            sweep_grid = 20, 30
            n_elements = 4
            designs = pgam, aligned
            estimators = cf, mc
            trials = 8
            pgam_iters = 2
        """, "hooks.txt")
        hooks = ("aligned_state", "pgam", "cf_rates", "ergodic_rate_mc")
        script = dedent(f"""
            import contextlib, io
            import starfd.cli as cli
            called = set()
            def recording(name, fn):
                def wrapper(*args, **kwargs):
                    called.add(name)
                    return fn(*args, **kwargs)
                return wrapper
            for name in {hooks!r}:
                setattr(cli, name, recording(name, getattr(cli, name)))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", "hooks.txt", "--jobs", "{jobs}"])
            print(code, sorted(called))
        """)
        assert fresh_python(tmp_path, script) == f"0 {sorted(hooks)}\n"

    def test_no_run_calls_lapack(self, tmp_path):
        # The quadrature rule is a table: a run that solved an eigenproblem
        # would page in the LAPACK library and tie the cf bytes to its
        # build. A fresh process, because in this one the cached geometry
        # expectations may already hold the values.
        short = "n_elements = 4\ntrials = 8\nestimators = cf, mc\n"
        write_spec(tmp_path, MINI + short + "designs = pgam, aligned\n"
                   "pgam_iters = 2\n", "pgam.txt")
        write_spec(tmp_path, MINI + short + "power_scheme = closed-form\n",
                   "closed.txt")
        write_spec(tmp_path, MINI + short + "scenario = bidirectional\n",
                   "bidir.txt")
        script = dedent("""
            import contextlib, io
            import numpy.linalg
            import starfd.cli
            def refuse(*args, **kwargs):
                raise AssertionError("numpy.linalg called")
            for name in numpy.linalg.__all__:
                if not isinstance(getattr(numpy.linalg, name), type):
                    setattr(numpy.linalg, name, refuse)
            for spec in ("pgam.txt", "closed.txt", "bidir.txt"):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = starfd.cli.main(["run", spec, "--jobs", "1"])
                print(code)
        """)
        assert fresh_python(tmp_path, script) == "0\n0\n0\n"

    def test_benchmark_hooks_resolve(self):
        # The benchmark traces a layer through the module-global names
        # listed in its HOOKS; a layer whose every binding is gone drops
        # its metrics from the benchmark's result line.
        import importlib
        import importlib.util
        root = Path(__file__).resolve().parents[1]
        loader = importlib.util.spec_from_file_location(
            "trace_run", root / "perfbench" / "trace_run.py")
        trace_run = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(trace_run)
        resolved = {}
        for layer, module, name in trace_run.HOOKS:
            found = hasattr(importlib.import_module(module), name)
            resolved[layer] = resolved.get(layer, False) or found
        assert resolved and all(resolved.values()), resolved

    def test_benchmark_hooks_record_spans(self, tmp_path):
        # A hook can resolve and still record nothing, when the run calls
        # the layer through another name. Under the benchmark's tracer, a
        # NOMA-pair run with every design and estimator and a
        # bidirectional run reach every layer except cf_sinrs and
        # cf_rates_bidirectional, which no run path calls: the optimizer
        # scores through the kernel. A fresh process, because the tracer
        # rebinds the package's names and the geometry cache must be cold.
        short = "n_elements = 4\ntrials = 8\nestimators = cf, mc\n"
        write_spec(tmp_path, MINI + short + "designs = pgam, aligned, "
                   "random\npgam_iters = 2\n", "noma.txt")
        write_spec(tmp_path, MINI + short + "scenario = bidirectional\n",
                   "bidir.txt")
        trace_run = Path(__file__).resolve().parents[1] / "perfbench" / (
            "trace_run.py")
        script = dedent(f"""
            import contextlib, importlib.util, io
            loader = importlib.util.spec_from_file_location(
                "trace_run", {str(trace_run)!r})
            trace_run = importlib.util.module_from_spec(loader)
            loader.loader.exec_module(trace_run)
            tracer = trace_run.Tracer()
            tracer.install()
            import starfd.cli
            for spec in ("noma.txt", "bidir.txt"):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = starfd.cli.main(["run", spec])
                print(code)
            traced = {{span[1] for span in tracer.spans}}
            print(tracer.missing,
                  sorted({{hook[0] for hook in trace_run.HOOKS}} - traced))
        """)
        assert fresh_python(tmp_path, script).splitlines() == [
            "0", "0",
            "[] ['rates_cf.cf_rates_bidirectional', 'rates_cf.cf_sinrs']"]


# The three ways to start the command line: today's in-process call with
# the arguments (which returns its exit code), the console script's
# main() and the package run as a module (which end the process).
ENTRIES = {
    "argv": ["-c", "import sys; from starfd.cli import main; "
                   "sys.exit(main(sys.argv[1:]))"],
    "main": ["-c", "import sys; from starfd.cli import main; "
                   "sys.exit(main())"],
    "module": ["-m", "starfd"],
}


def starfd_process(cwd, python_args, stdout=subprocess.PIPE):
    """A finished ``python *python_args`` in ``cwd``, its standard streams
    buffered as they are when not at a terminal."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *python_args], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)


def tree_bytes(root):
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestExit:
    """The command line ends its process once the output is out, with the
    same status, streams and files as a run that returns from main."""

    SPECS = {
        "mc.txt": MINI + "n_elements = 4\ndesigns = aligned, random\n"
                  "estimators = cf, mc\ntrials = 8\n",
        "bad.txt": MINI + "pathloss_exponent = 2\n",
        "infeasible.txt": MINI + "power_scheme = closed-form\n"
                          "target_dl_rate = 0.5\ntarget_ul_rate = 0.05\n",
    }

    @pytest.mark.parametrize("args, code", [
        (["run", "mc.txt", "--output", "out.csv"], 0),
        (["run", "mc.txt", "--output", "out.csv", "--jobs", "2"], 0),
        (["validate", "mc.txt"], 0),
        (["presets", "list"], 0),
        (["presets", "show", "default"], 0),
        (["--help"], 0),
        (["frobnicate"], 2),
        (["run", "missing.txt"], 1),
        (["run", "bad.txt"], 1),
        (["run", "infeasible.txt", "--output", "out.csv"], 2),
    ], ids=["run", "run-jobs-2", "validate", "presets-list", "presets-show",
            "help", "usage-error", "unreadable-spec", "invalid-spec",
            "failing-run"])
    def test_command_line_matches_the_in_process_call(self, tmp_path, args,
                                                      code):
        seen = {}
        for entry, python_args in ENTRIES.items():
            where = tmp_path / entry
            where.mkdir()
            for name, text in self.SPECS.items():
                write_spec(where, text, name)
            done = starfd_process(where, python_args + args)
            seen[entry] = (done.returncode, done.stdout, done.stderr,
                           tree_bytes(where))
        assert seen["argv"][0] == code
        assert seen["argv"][1] or seen["argv"][2]
        assert seen["main"] == seen["argv"]
        assert seen["module"] == seen["argv"]

    def test_exit_handlers_run_after_the_output(self, tmp_path):
        # An atexit handler registered before main() runs, as interpreter
        # exit would run it, after everything starfd wrote.
        write_spec(tmp_path, MINI)
        validate = starfd_process(tmp_path, ["-m", "starfd", "validate",
                                             "exp.txt"])
        done = starfd_process(tmp_path, ["-c", dedent("""
            import atexit, sys
            from starfd.cli import main
            atexit.register(print, "handler ran")
            sys.exit(main())
        """), "validate", "exp.txt"])
        assert done.returncode == 0, done.stderr
        assert done.stdout == validate.stdout + b"handler ran\n"
        assert validate.stdout.startswith(b"# run manifest")

    def test_real_stdout_written_before_a_redirect_appears(self, tmp_path):
        # main() flushes the process's own streams as well as the ones
        # standing in for them, so text buffered in sys.__stdout__ is out.
        write_spec(tmp_path, MINI)
        done = starfd_process(tmp_path, ["-c", dedent("""
            import contextlib, io, sys
            from starfd.cli import main
            sys.__stdout__.write("before the redirect\\n")
            with contextlib.redirect_stdout(io.StringIO()):
                main()
            print("not reached")
        """), "validate", "exp.txt"])
        assert (done.returncode, done.stdout, done.stderr) == (
            0, b"before the redirect\n", b"")

    def test_profiler_writes_its_output(self, tmp_path):
        # python -m cProfile writes its file after the program: main()
        # sees the profiler and leaves exit to the interpreter.
        write_spec(tmp_path, MINI)
        done = starfd_process(tmp_path, ["-m", "cProfile", "-o", "prof.out",
                                         "-m", "starfd", "validate",
                                         "exp.txt"])
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(b"# run manifest")
        assert (tmp_path / "prof.out").stat().st_size > 0

    @pytest.mark.parametrize("setup, python_args", [
        ("import threading\nrelease = threading.Event()\n"
         "threading.Thread(target=release.wait, args=(60,)).start()", []),
        ("sys.settrace(lambda *args: None)", []),
        ("sys.setprofile(lambda *args: None)", []),
        ("import types\nsys.monitoring = types.SimpleNamespace(\n"
         "    get_tool=lambda tool: 'profiler' if tool == 2 else None)", []),
        ("", ["-i"]),
    ], ids=["thread", "tracer", "profiler", "monitoring", "inspect"])
    def test_main_returns_when_exit_is_not_its_own(self, tmp_path, setup,
                                                   python_args):
        # With another non-daemon thread alive, a tracer or profiler set,
        # or python -i, interpreter exit has work after the program, so
        # main() returns its exit code rather than ending the process.
        write_spec(tmp_path, MINI)
        done = starfd_process(tmp_path, python_args + ["-c", dedent("""
            import sys
            from starfd.cli import main
        """) + setup + dedent("""
            code = main()
            print("returned", code)
            if "release" in globals():
                release.set()
        """), "validate", "exp.txt"])
        assert done.returncode == 0, done.stderr
        assert done.stdout.endswith(b"\nreturned 0\n")

    @pytest.mark.parametrize("args", [["validate", "exp.txt"],
                                      ["run", "exp.txt"]],
                             ids=["validate", "run"])
    def test_closed_pipe_reports_as_before(self, tmp_path, args):
        # Writing to a pipe whose reader is gone fails at the flush; main()
        # then leaves exit to the interpreter, which reports the lost
        # output with status 120, as an in-process call's exit does.
        write_spec(tmp_path, MINI + "n_elements = 4\n")
        seen = {}
        for entry, python_args in ENTRIES.items():
            read, write = os.pipe()
            os.close(read)
            try:
                done = starfd_process(tmp_path, python_args + args,
                                      stdout=write)
            finally:
                os.close(write)
            seen[entry] = (done.returncode, done.stderr)
        assert seen["argv"][0] == 120
        assert b"BrokenPipeError" in seen["argv"][1]
        assert seen["main"] == seen["argv"]
        assert seen["module"] == seen["argv"]


class TestMain:
    def test_run_and_validate_roundtrip(self, tmp_path, capsys):
        path = write_spec(tmp_path, MINI)
        out = tmp_path / "cli.csv"
        assert main(["run", str(path), "--output", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert out.exists()
        assert main(["validate", str(path)]) == 0
        respec, errors = parse_spec_text(capsys.readouterr().out)
        assert errors == []
        assert respec.grid == (20.0, 30.0)

    def test_python_m_starfd_validate(self, tmp_path):
        # A source checkout runs the CLI as a module, without installing.
        path = write_spec(tmp_path, MINI)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-m", "starfd", "validate", str(path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        spec, errors = parse_spec_text(done.stdout)
        assert errors == []
        assert spec.grid == (20.0, 30.0)

    def test_validation_failure_lists_errors(self, tmp_path, capsys):
        path = write_spec(tmp_path, MINI + "pathloss_exponent = 2\n")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "path-loss exponent must exceed 2" in err

    def test_unknown_argument_fails(self, capsys):
        assert main(["run", "definitely-not-a-preset"]) == 1
        assert "neither an experiment file nor a preset" in (
            capsys.readouterr().err)

    def test_infeasible_run_exits_2_and_writes_nothing(self, tmp_path,
                                                       capsys):
        path = write_spec(tmp_path, """
            sweep_variable = snr_db
            sweep_grid = 30
            power_scheme = closed-form
            target_dl_rate = 0.5
            target_ul_rate = 0.05
            estimators = cf
        """)
        out = tmp_path / "never.csv"
        assert main(["run", str(path), "--output", str(out)]) == 2
        assert "infeasible" in capsys.readouterr().err
        assert not out.exists()

    def test_unsettled_si_coupling_exits_2_and_writes_nothing(
            self, tmp_path, capsys):
        path = write_spec(tmp_path, """
            sweep_variable = target_rate
            sweep_grid = 0.2
            power_scheme = closed-form
            target_ul_rate = 0.1
            sic_residual = 0.1
            si_beta = 0.01
        """)
        out = tmp_path / "never.csv"
        assert main(["run", str(path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "infeasible" in err and "self-interference" in err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        MINI + "power_scheme = closed-form\ntarget_dl_rate = 2000\n",
        "sweep_variable = tau\nsweep_grid = 0.5\n"
        "power_scheme = tau-dl-target\ndl_target_cases = 2000\n",
    ], ids=["closed-form", "tau-dl-target"])
    def test_target_beyond_float_range_exits_2_and_writes_nothing(
            self, tmp_path, capsys, text):
        # 2^R - 1 overflows a float at R >= 1024 bits/s/Hz.
        path = write_spec(tmp_path, text)
        out = tmp_path / "never.csv"
        assert main(["run", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: downlink target 2000.0 bits/s/Hz infeasible: its SINR "
            "threshold 2^R - 1 exceeds the float range\n")
        assert not out.exists()

    def test_presets_list_and_show(self, capsys):
        assert main(["presets", "list"]) == 0
        listed = capsys.readouterr().out
        for name in PRESETS:
            assert name in listed
        assert main(["presets", "show", "snr-sweep"]) == 0
        shown = capsys.readouterr().out
        spec, errors = parse_spec_text(shown)
        assert errors == []
        assert spec.designs == ("pgam", "aligned", "random")
        assert main(["presets", "show", "nope"]) == 1

    def test_run_preset_by_name(self, tmp_path, capsys):
        out = tmp_path / "tau.csv"
        assert main(["run", "power-split-sweep", "--output",
                     str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "argmax tau" in stdout
        assert out.exists()

    @pytest.fixture
    def commands(self, monkeypatch):
        """The command each ``main`` call dispatched to, with its
        arguments; the commands themselves do not run."""
        calls = []
        for name in ("_cmd_run", "_cmd_validate", "_cmd_presets_list",
                     "_cmd_presets_show"):
            monkeypatch.setattr(
                cli, name,
                lambda *args, name=name: calls.append((name, args)) or 0)
        return calls

    @pytest.mark.parametrize("argv, call", [
        (["run", "snr-sweep"],
         ("_cmd_run", ("snr-sweep", None, 1, False))),
        (["run", "snr-sweep", "--output", "x.csv", "--jobs", "4"],
         ("_cmd_run", ("snr-sweep", "x.csv", 4, False))),
        (["run", "spec.txt", "--jobs", "2", "--output", "out.csv"],
         ("_cmd_run", ("spec.txt", "out.csv", 2, False))),
        (["run", "--output", "x.csv", "spec.txt"],
         ("_cmd_run", ("spec.txt", "x.csv", 1, False))),
        (["run", "spec.txt", "--output=x"],
         ("_cmd_run", ("spec.txt", "x", 1, False))),
        (["run", "spec.txt", "--jobs=3"],
         ("_cmd_run", ("spec.txt", None, 3, False))),
        (["validate", "my.txt"], ("_cmd_validate", ("my.txt",))),
        (["presets", "list"], ("_cmd_presets_list", ())),
        (["presets", "show", "power-split-sweep"],
         ("_cmd_presets_show", ("power-split-sweep",))),
    ])
    def test_dispatches_every_documented_form(self, commands, argv, call):
        assert main(argv) == 0
        assert commands == [call]

    @pytest.mark.parametrize("argv", [["-h"], ["--help"],
                                      ["run", "spec.txt", "--help"]])
    def test_help_exits_0_with_usage(self, commands, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: starfd run SPEC")
        assert commands == []

    @pytest.mark.parametrize("argv", [
        [], ["frobnicate"], ["presets"], ["run"], ["presets", "show"],
        ["validate", "a.txt", "b.txt"], ["run", "spec.txt", "--verbose"],
        ["run", "spec.txt", "--out", "x.csv"], ["run", "spec.txt", "--jobs"],
        ["run", "spec.txt", "--jobs", "two"], ["run", "spec.txt", "--jobs="],
        ["validate", "spec.txt", "--jobs", "2"],
    ], ids=["no-command", "unknown-command", "presets-alone",
            "run-without-spec", "show-without-name", "extra-positional",
            "unknown-option", "abbreviated-option", "jobs-missing",
            "jobs-not-int", "jobs-empty", "option-off-run"])
    def test_bad_command_line_exits_2_with_usage(self, commands, capsys,
                                                 argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: starfd run SPEC")
        assert "\nstarfd: error: " in captured.err
        assert commands == []

    @pytest.mark.parametrize("option", [["--output", ""], ["--output="]],
                             ids=["separate", "joined"])
    def test_empty_output_exits_2_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys, option):
        # The spec key rejects an empty output; the option does too,
        # rather than falling back to the spec's own output.
        write_spec(tmp_path, MINI)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "exp.txt", *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: starfd run SPEC")
        assert captured.err.endswith(
            "\nstarfd: error: argument --output: must be a file name\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.txt"]

    def test_jobs_zero_exits_2_through_the_run(self, tmp_path, capsys):
        path = write_spec(tmp_path, MINI)
        out = tmp_path / "never.csv"
        assert main(["run", str(path), "--jobs", "0", "--output",
                     str(out)]) == 2
        assert capsys.readouterr().err == "error: jobs must be >= 1\n"
        assert not out.exists()

    def test_validate_rejects_garbage_line(self, tmp_path, capsys):
        path = write_spec(tmp_path, MINI + "just a stray line\n")
        assert main(["validate", str(path)]) == 1
        assert "expected 'key = value'" in capsys.readouterr().err
