"""The sweep runner behind :func:`starfd.cli.run_experiment`.

A validated spec runs in two stages: each grid point builds its config,
design states, powers and closed-form rows, then the MC cells are scored
group by group, one group per draw key. The rows are written in grid
order as the CSV, next to the run's manifest and, for a tau sweep, its
argmax-tau summary.

Only ``run`` loads this module (it is the first of
:data:`starfd.cli._RUN_NAMES`), so ``validate``, ``presets`` and
``--help`` do not compile it. It imports no numeric module either: a
spec loads only the layers :data:`starfd.cli._LAYER_NAMES` gives it.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from . import cli
from .cli import _config_for_point, _fmt, _manifest_text
from .config import RATE_NAMES

if TYPE_CHECKING:
    from .channel import StarRisState
    from .cli import ExperimentSpec
    from .config import SystemConfig
    from .kernel import PowerConfig, RateReport

# Every run-path name (the layers, the records they build) is read as an
# attribute of starfd.cli when it is called, not imported here: the
# benchmark traces a run by rebinding those names on starfd.cli, and the
# run must call what it finds there.


def _design_state(spec: ExperimentSpec, config: SystemConfig,
                  pw: PowerConfig, point: int, design_index: int,
                  aligned: Optional[StarRisState] = None) -> StarRisState:
    """One design's surface state at a grid point. ``aligned`` is the
    point's aligned state, built here when not given: the aligned design
    returns it and PGAM starts from it, tuning the surface for ``pw``."""
    design = spec.designs[design_index]
    if design == "random":
        return cli.StarRisState.random_phases(
            config.n_elements, 0.5,
            cli.keyed_rng(spec.seed, point, design_index, 1))
    if aligned is None:
        aligned = cli.aligned_state(config, 0.5, pw, spec.scenario)
    if design == "aligned":
        return aligned
    result = cli.pgam(config, pw, aligned, mu=spec.pgam_mu,
                      alpha_scale=spec.pgam_alpha_scale, eps=spec.pgam_eps,
                      L=spec.pgam_iters, scenario=spec.scenario)
    return result.state


def _csv_header(spec: ExperimentSpec) -> List[str]:
    head = [spec.sweep_variable, "design"]
    if spec.power_scheme == "tau-dl-target":
        head += ["target_dl", "feasible"]
    names = RATE_NAMES[spec.scenario]
    return (head + ["estimator"] + [f"R_{n}" for n in names] + ["sum"]
            + [f"stderr_{n}" for n in names])


def _report_cells(report: RateReport) -> List[str]:
    stderr = report.stderr
    return ([_fmt(rate) for rate in report.rates.values()]
            + [_fmt(report.sum_rate)]
            + [_fmt(stderr[n]) if stderr else "" for n in report.rates])


# An MC cell: its CSV row, still without the rates, and the (config,
# state, powers) triple that scores it.
_McCell = Tuple[List[str], tuple]


def _point_rows(spec: ExperimentSpec, point: int, value: float
                ) -> Tuple[List[List[str]], List[_McCell]]:
    """One grid point's rows, with its MC rows left to be completed from
    the returned cells."""
    config = _config_for_point(spec.config, spec.sweep_variable, value)
    if spec.sweep_variable == "n_elements":
        sweep_cell = str(int(value))
    else:
        sweep_cell = _fmt(value)
    cases = (spec.dl_target_cases
             if spec.power_scheme == "tau-dl-target" else (None,))
    if spec.power_scheme != "fixed":
        # Imported here: only rate-target specs allocate powers, and
        # compiling the allocation would cost every other process
        # start-up time and memory for nothing.
        from .power import power_allocation_closed_form, tau_split_powers

    pw0 = cli.PowerConfig.from_config(config)
    aligned = (cli.aligned_state(config, 0.5, pw0, spec.scenario)
               if set(spec.designs) - {"random"} else None)
    # PGAM tunes the surface for the allocation at the aligned state under
    # closed-form (its row allocates again at PGAM's state).
    pw_pgam = pw0
    if spec.power_scheme == "closed-form" and "pgam" in spec.designs:
        pw_pgam = power_allocation_closed_form(
            config, cli.cf_rate_inputs(config, aligned))
    # The state's moments feed both the power allocation and the cf rows;
    # a fixed-power MC-only spec needs neither.
    needs_moments = spec.power_scheme != "fixed" or "cf" in spec.estimators
    rows: List[List[str]] = []
    mc_cells: List[_McCell] = []
    for j, design in enumerate(spec.designs):
        state = _design_state(spec, config, pw_pgam, point, j, aligned)
        if needs_moments:
            moments = cli.rates_cf.compute_moments(config, state)
        if spec.power_scheme != "fixed":
            inputs = cli.cf_rate_inputs(config, state, moments)
        for case in cases:
            if spec.power_scheme == "fixed":
                pw, feasible = pw0, None
            elif spec.power_scheme == "closed-form":
                pw = power_allocation_closed_form(config, inputs)
                feasible = None
            else:
                pw, feasible = tau_split_powers(config, inputs, case)
            lead = [sweep_cell, design]
            if spec.power_scheme == "tau-dl-target":
                lead += [_fmt(case), "true" if feasible else "false"]
            for estimator in spec.estimators:
                row = lead + [estimator]
                if estimator == "cf":
                    row += _report_cells(cli.cf_rates(
                        config, state, pw, spec.scenario, moments))
                else:
                    mc_cells.append((row, (config, state, pw)))
                rows.append(row)
    return rows, mc_cells


def _all_rows(spec: ExperimentSpec, map_) -> List[List[str]]:
    """Every row in grid order, the two stages run with ``map_``."""
    points = range(len(spec.grid))
    per_point = list(map_(_point_rows, [spec] * len(points), points,
                          spec.grid))
    groups: Dict[tuple, List[_McCell]] = {}
    for _, cells in per_point:
        for row, cell in cells:
            groups.setdefault(cli.draw_key(cell[0]), []).append((row, cell))

    def score(cells: List[_McCell]) -> List[RateReport]:
        # One stream keyed by the spec's seed scores the whole group.
        return cli.ergodic_rate_mc([cell for _, cell in cells], spec.trials,
                                   spec.seed, spec.scenario)

    for cells, reports in zip(groups.values(), map_(score, groups.values())):
        for (row, _), report in zip(cells, reports):
            row += _report_cells(report)
    return [row for rows, _ in per_point for row in rows]


def _summary_lines(spec: ExperimentSpec, header: List[str],
                   rows: List[List[str]]) -> List[str]:
    """Argmax-tau report: best split per (design, target, estimator).

    Under ``tau-dl-target`` only the feasible rows compete; a series
    with none says so.
    """
    sweep_col = header.index(spec.sweep_variable)
    sum_col = header.index("sum")
    feasible_col = (header.index("feasible")
                    if spec.power_scheme == "tau-dl-target" else None)
    series: Dict[Tuple[str, ...], Optional[Tuple[float, float]]] = {}
    label_cols = [i for i, name in enumerate(header)
                  if name in ("design", "target_dl", "estimator")]
    for row in rows:
        key = tuple(f"{header[i]}={row[i]}" for i in label_cols)
        best = series.setdefault(key, None)
        if feasible_col is not None and row[feasible_col] != "true":
            continue
        tau, total = float(row[sweep_col]), float(row[sum_col])
        if best is None or total > best[1]:
            series[key] = (tau, total)
    return [f"{' '.join(key)}: no feasible tau" if best is None else
            f"{' '.join(key)}: argmax tau = {_fmt(best[0])} "
            f"(sum rate {_fmt(best[1])} bits/s/Hz)"
            for key, best in series.items()]


def run_sweep(spec: ExperimentSpec, jobs: int
              ) -> Tuple[Path, Path, Optional[Path]]:
    """Run ``spec`` under ``jobs`` workers and write its files, with the
    run-path names it calls bound on :mod:`starfd.cli`; see
    :func:`starfd.cli.run_experiment`."""
    if jobs == 1:
        rows = _all_rows(spec, map)
    else:
        # Imported here: the pool and its logging stack would cost every
        # single-worker process start-up time and memory for nothing.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = _all_rows(spec, pool.map)

    header = _csv_header(spec)
    out_path = Path(spec.output)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")

    manifest_path = Path(str(out_path) + ".manifest.txt")
    manifest_path.write_text(_manifest_text(spec), encoding="utf-8")

    summary_path = None
    if spec.sweep_variable == "tau":
        summary_path = Path(str(out_path) + ".summary.txt")
        summary_path.write_text(
            "\n".join(_summary_lines(spec, header, rows)) + "\n",
            encoding="utf-8")
    return out_path, manifest_path, summary_path
