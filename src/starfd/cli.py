"""The ``starfd`` command line, spec parsing and the run-name binding:
flat key-value configs in, CSV tables out.

An experiment file is plain text, one ``key = value`` pair per line, with
``#`` starting a comment line. Unset keys take the documented defaults
(the baseline cell at 30 dBW). Keys ending in ``_dbw`` are decibel-watts
and are converted to linear units at this boundary; everything downstream
works in linear units.

Every run writes ``<output>.manifest.txt`` next to the CSV: a complete,
re-runnable experiment file with all defaults materialized and the seed
recorded, so ``starfd run <manifest>`` reproduces the CSV byte for byte.

Parsing, checking and printing a spec need only the records of
:mod:`starfd.config`, so ``validate``, ``presets`` and ``--help`` never
import numpy or the numeric modules, nor compile the sweep runner,
:mod:`starfd.sweep`. The names the run path calls, the sweep runner
among them, are loaded on first use (see :data:`_RUN_NAMES`), and
:func:`run_experiment` hands a spec to the runner once they are bound.

:func:`main` run as the process's command line (the ``starfd`` script,
``python -m starfd``) loads a run's numeric modules with the cyclic
collector paused and then freezes them, so neither the load nor the
sweep's collections scan that heap; the sweep runs with the collector
as the process had it. Once its command has its exit code, it freezes
the collector again and ends the process the way interpreter exit would,
less the teardown of the heap (see :func:`_exit_process`).
``main(argv)`` called in-process leaves the caller's collector as it is
and returns its exit code.
"""

from __future__ import annotations

import atexit
import gc
import math
import os
import sys
from importlib import import_module
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .config import RATE_NAMES, CellGeometry, GeometryAngles, SystemConfig
from .exceptions import InfeasibleError, NumericError
from .record import Record

__all__ = ["ExperimentSpec", "parse_spec_text", "run_experiment", "main"]

# The run path's module-level names: name -> (module, attribute, or None
# for the module itself). Importing them loads numpy and the numeric
# modules, so they are read through ``__getattr__`` on first use, and
# :func:`run_experiment` binds the ones still unbound that its spec uses
# (see :data:`_LAYER_NAMES`) before it starts, on the main thread, in
# this order; the command line binds them earlier, with the collector
# paused (see :func:`_bind_run_names_frozen`). A name rebound on this
# module beforehand (to trace or count its calls) is kept, and the run
# calls it. ``sweep``, the runner, and ``rates_cf``, the largest module
# a cf run compiles, come first: their source compiles before numpy
# loads, so the compile's memory is not added on top of numpy's (0.27 MB
# of peak RSS on a PGAM run for ``rates_cf``, 0.3 MB on an MC run for
# ``sweep``).
# ``keyed_rng`` comes last: the memory that compiling the other modules
# frees is then reused by numpy.random's, not added on top (0.5 MB of
# peak RSS on an MC run).
_RUN_NAMES = {
    "sweep": (".sweep", None),
    "rates_cf": (".rates_cf", None),
    "StarRisState": (".channel", "StarRisState"),
    "aligned_state": (".designs", "aligned_state"),
    "pgam": (".optimize", "pgam"),
    "cf_rate_inputs": (".rates_cf", "cf_rate_inputs"),
    "cf_rates": (".rates_cf", "cf_rates"),
    "PowerConfig": (".kernel", "PowerConfig"),
    "draw_key": (".rates_mc", "draw_key"),
    "ergodic_rate_mc": (".rates_mc", "ergodic_rate_mc"),
    "keyed_rng": (".streams", "keyed_rng"),
}
# The moments feed the cf rows and every rate-target power scheme.
_MOMENT_WORDS = ("cf", "closed-form", "tau-dl-target")
# The names that only some specs call, with the designs, estimators and
# power schemes that call them. A spec with none of a name's words leaves
# it unbound, so its module (the aligned designs, the ascent, the closed
# forms, numpy's generator, the simulator) loads only if another bound
# name needs it.
_LAYER_NAMES = {
    "aligned_state": ("aligned", "pgam"),
    "pgam": ("pgam",),
    "rates_cf": _MOMENT_WORDS,
    "cf_rate_inputs": _MOMENT_WORDS,
    "cf_rates": _MOMENT_WORDS,
    "keyed_rng": ("mc", "random"),
    "draw_key": ("mc",),
    "ergodic_rate_mc": ("mc",),
}


def __getattr__(name: str):
    try:
        module, attribute = _RUN_NAMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = import_module(module, __package__)
    return value if attribute is None else getattr(value, attribute)


def _bind_run_names(spec: ExperimentSpec) -> None:
    """Bind each run-path name that is not bound yet and that ``spec``
    calls."""
    namespace = globals()
    words = {*spec.designs, *spec.estimators, spec.power_scheme}
    for name in _RUN_NAMES:
        layer = _LAYER_NAMES.get(name)
        if name not in namespace and (layer is None
                                      or words.intersection(layer)):
            namespace[name] = __getattr__(name)


def _bind_run_names_frozen(spec: ExperimentSpec) -> None:
    """Bind the run-path names ``spec`` calls with the cyclic collector
    paused, then freeze every object loaded so far and restore the
    collector to its former state.

    The imports leave about 21 000 objects that live until exit, and the
    collector ran 29-30 times over them while they loaded (5.4-5.7 ms on
    the benchmark's workloads). Frozen, they are skipped by every later
    collection. The cyclic garbage that importing numpy leaves (about
    350 objects) is frozen with them instead of being freed during the
    load, which adds about 0.2 MB to the peak RSS of an MC run.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _bind_run_names(spec)
    finally:
        gc.freeze()
        if enabled:
            gc.enable()


# Each sweep variable and the SystemConfig field its grid values set.
_SWEEP_FIELDS = {"snr_db": "P_t", "n_elements": "n_elements", "tau": "tau",
                 "xi": "Xi", "beta": "beta", "target_rate": "R_dth"}
SWEEP_VARIABLES = tuple(_SWEEP_FIELDS)
DESIGNS = ("pgam", "aligned", "random")
POWER_SCHEMES = ("fixed", "closed-form", "tau-dl-target")
ESTIMATORS = ("cf", "mc")

# The complete key set, in canonical (manifest) order: key -> (kind,
# default). Kinds: float | int | word | words | floats | str.
SPEC_KEYS: Dict[str, Tuple[str, str]] = {
    "scenario": ("word", "noma-pair"),
    "cell_radius_m": ("float", "50"),
    "edge_radius_m": ("float", "30"),
    "bs_surface_distance_m": ("float", "60"),
    "pathloss_exponent": ("float", "2.7"),
    "n_elements": ("int", "20"),
    "element_spacing_wavelengths": ("float", "0.5"),
    "az_br": ("float", "0.8"), "el_br": ("float", "1.1"),
    "az_u1d": ("float", "2.0"), "el_u1d": ("float", "1.3"),
    "az_u2d": ("float", "2.9"), "el_u2d": ("float", "0.7"),
    "az_u1u": ("float", "4.1"), "el_u1u": ("float", "1.0"),
    "az_u2u": ("float", "5.3"), "el_u2u": ("float", "1.5"),
    "kappa_br": ("float", "3"),
    "kappa_u1d": ("float", "3"), "kappa_u2d": ("float", "3"),
    "kappa_u1u": ("float", "3"), "kappa_u2u": ("float", "3"),
    "noise_dl_dbw": ("float", "0"),
    "noise_bs_dbw": ("float", "0"),
    "total_power_dbw": ("float", "30"),
    "tau": ("float", "0.8"),
    "alpha1": ("float", "0.2"),
    "alpha2": ("float", "0.8"),
    "ul_split": ("float", "0.5"),
    "sic_residual": ("float", "0"),
    "si_beta": ("float", "0"),
    "si_exponent": ("float", "1"),
    "weight_u1d": ("float", "0.8"), "weight_u2d": ("float", "0.8"),
    "weight_u1u": ("float", "0.8"), "weight_u2u": ("float", "0.8"),
    "target_dl_rate": ("float", "0"),
    "target_ul_rate": ("float", "0"),
    "sweep_variable": ("word", ""),
    "sweep_grid": ("floats", ""),
    "designs": ("words", "aligned"),
    "power_scheme": ("word", "fixed"),
    "estimators": ("words", "cf"),
    "dl_target_cases": ("floats", ""),
    "trials": ("int", "100000"),
    "seed": ("int", "2026"),
    "pgam_mu": ("float", "0.5"),
    "pgam_alpha_scale": ("float", "1"),
    "pgam_eps": ("float", "1e-9"),
    "pgam_iters": ("int", "500"),
    "output": ("str", "results.csv"),
}


class ExperimentSpec(Record):
    """A fully resolved, validated experiment definition."""

    __slots__ = ("config", "scenario", "sweep_variable", "grid", "designs",
                 "power_scheme", "estimators", "trials", "seed", "output",
                 "dl_target_cases", "pgam_mu", "pgam_alpha_scale",
                 "pgam_eps", "pgam_iters", "resolved")

    def __init__(self, config: SystemConfig, scenario: str,
                 sweep_variable: str, grid: Tuple[float, ...],
                 designs: Tuple[str, ...], power_scheme: str,
                 estimators: Tuple[str, ...], trials: int, seed: int,
                 output: str, dl_target_cases: Tuple[float, ...],
                 pgam_mu: float, pgam_alpha_scale: float, pgam_eps: float,
                 pgam_iters: int, resolved: Dict[str, str]) -> None:
        self._assign(locals())


class _NotFinite(ValueError):
    """A float key holds NaN or an infinity."""


def _finite(token: str) -> float:
    # No key has a meaningful NaN or infinity, and past this point a NaN
    # would slip through range checks written as ``x < 0``.
    value = float(token)
    if not math.isfinite(value):
        raise _NotFinite(token)
    return value


def _parse_scalar(kind: str, raw: str):
    if kind == "float":
        return _finite(raw)
    if kind == "int":
        value = int(raw)
        return value
    if kind == "floats":
        return tuple(_finite(tok) for tok in raw.replace(",", " ").split())
    if kind == "words":
        return tuple(raw.replace(",", " ").split())
    return raw


def parse_spec_text(text: str
                    ) -> Tuple[Optional[ExperimentSpec], List[str]]:
    """Parse an experiment file, collecting every problem found.

    Returns ``(spec, [])`` on success or ``(None, errors)`` where each
    error names the offending key.
    """
    errors: List[str] = []
    raw = {key: default for key, (_, default) in SPEC_KEYS.items()}
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got "
                          f"{stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SPEC_KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        seen.add(key)
        raw[key] = value

    values: Dict[str, object] = {}
    watts: Dict[str, float] = {}
    for key, (kind, _) in SPEC_KEYS.items():
        try:
            values[key] = _parse_scalar(kind, raw[key])
            if key.endswith("_dbw"):
                watts[key] = 10.0 ** (values[key] / 10.0)
        except _NotFinite:
            errors.append(f"{key}: values must be finite, got {raw[key]!r}")
        except OverflowError:
            errors.append(f"{key}: {raw[key]} dBW is beyond the range of "
                          "a float in watts")
        except ValueError:
            errors.append(f"{key}: cannot parse {raw[key]!r} as {kind}")
    if errors:
        return None, errors

    # Enumerated keys. "target-rate" is accepted as a spelling of the
    # target_rate sweep to match the hyphenated scheme names.
    scenario = values["scenario"]
    if scenario not in RATE_NAMES:
        errors.append(f"scenario: must be noma-pair or bidirectional, "
                      f"got {scenario!r}")
    sweep_variable = values["sweep_variable"]
    if sweep_variable == "target-rate":
        sweep_variable = "target_rate"
    if not sweep_variable:
        errors.append("sweep_variable: required (one of "
                      + ", ".join(SWEEP_VARIABLES) + ")")
    elif sweep_variable not in SWEEP_VARIABLES:
        errors.append(f"sweep_variable: unknown value {sweep_variable!r}")
    scheme = values["power_scheme"]
    if scheme not in POWER_SCHEMES:
        errors.append(f"power_scheme: unknown value {scheme!r}")
    designs = values["designs"]
    for design in designs:
        if design not in DESIGNS:
            errors.append(f"designs: unknown design {design!r}")
    if not designs:
        errors.append("designs: need at least one")
    estimators = values["estimators"]
    for estimator in estimators:
        if estimator not in ESTIMATORS:
            errors.append(f"estimators: unknown estimator {estimator!r}")
    if not estimators:
        errors.append("estimators: need at least one")
    # A repeated word would write its rows twice. Each random design
    # draws its own surface, keyed by its index, so it may repeat.
    for key, words in (("designs", designs), ("estimators", estimators)):
        for word in dict.fromkeys(words):
            if word != "random" and words.count(word) > 1:
                errors.append(f"{key}: {word!r} is listed more than once")

    grid = values["sweep_grid"]
    if not grid:
        errors.append("sweep_grid: must be non-empty")
    elif any(b <= a for a, b in zip(grid, grid[1:])):
        errors.append("sweep_grid: values must be strictly increasing")
    if values["trials"] < 1 and "mc" in estimators:
        errors.append("trials: must be >= 1 when the mc estimator is "
                      "requested")
    if values["seed"] < 0:
        errors.append("seed: must be non-negative")
    if values["pgam_iters"] < 1:
        errors.append("pgam_iters: must be >= 1")
    if values["pgam_mu"] <= 0 or values["pgam_eps"] <= 0:
        errors.append("pgam_mu/pgam_eps: must be positive")
    if values["pgam_alpha_scale"] <= 0:
        errors.append("pgam_alpha_scale: must be positive")
    if not values["output"]:
        errors.append("output: must be a file name")

    # Scheme/scenario compatibility.
    if scenario == "bidirectional" and scheme != "fixed":
        errors.append("power_scheme: the bidirectional scenario supports "
                      "only fixed splits (rate targets are defined for "
                      "the noma-pair scenario)")
    if scheme == "tau-dl-target" and sweep_variable != "tau":
        errors.append("power_scheme: tau-dl-target applies only to tau "
                      "sweeps")
    if sweep_variable == "target_rate" and scheme != "closed-form":
        errors.append("sweep_variable: a target_rate sweep needs "
                      "power_scheme = closed-form")
    if values["dl_target_cases"] and scheme != "tau-dl-target":
        errors.append("dl_target_cases: only meaningful with "
                      "power_scheme = tau-dl-target")

    config = None
    try:
        angles = GeometryAngles(
            az_br=values["az_br"], el_br=values["el_br"],
            az_u1d=values["az_u1d"], el_u1d=values["el_u1d"],
            az_u2d=values["az_u2d"], el_u2d=values["el_u2d"],
            az_u1u=values["az_u1u"], el_u1u=values["el_u1u"],
            az_u2u=values["az_u2u"], el_u2u=values["el_u2u"],
            d_over_lambda=values["element_spacing_wavelengths"])
        geometry = CellGeometry(R=values["cell_radius_m"],
                                R_r=values["edge_radius_m"],
                                d_br=values["bs_surface_distance_m"],
                                m=values["pathloss_exponent"])
        config = SystemConfig(
            geometry=geometry, n_elements=values["n_elements"],
            angles=angles,
            kappa_br=values["kappa_br"], kappa_u1d=values["kappa_u1d"],
            kappa_u2d=values["kappa_u2d"], kappa_u1u=values["kappa_u1u"],
            kappa_u2u=values["kappa_u2u"],
            sigma_sq=watts["noise_dl_dbw"],
            sigma_b_sq=watts["noise_bs_dbw"],
            weight_u1d=values["weight_u1d"],
            weight_u2d=values["weight_u2d"],
            weight_u1u=values["weight_u1u"],
            weight_u2u=values["weight_u2u"],
            P_t=watts["total_power_dbw"],
            tau=values["tau"], alpha1=values["alpha1"],
            alpha2=values["alpha2"], ul_split=values["ul_split"],
            Xi=values["sic_residual"], beta=values["si_beta"],
            si_lambda=values["si_exponent"],
            R_dth=values["target_dl_rate"],
            R_uth=values["target_ul_rate"])
    except ValueError as exc:
        errors.append(str(exc))
    # Every grid value must make a valid cell, under the records' checks.
    if config is not None and sweep_variable in _SWEEP_FIELDS:
        for value in grid:
            try:
                _config_for_point(config, sweep_variable, value)
            except ValueError as exc:
                errors.append(f"sweep_grid: {sweep_variable} = "
                              f"{_fmt(value)}: {exc}")
                break

    if errors:
        return None, errors

    cases = values["dl_target_cases"]
    if scheme == "tau-dl-target" and not cases:
        cases = (values["target_dl_rate"],)

    spec = ExperimentSpec(
        config=config, scenario=scenario, sweep_variable=sweep_variable,
        grid=grid, designs=designs, power_scheme=scheme,
        estimators=estimators, trials=values["trials"],
        seed=values["seed"], output=values["output"],
        dl_target_cases=cases, pgam_mu=values["pgam_mu"],
        pgam_alpha_scale=values["pgam_alpha_scale"],
        pgam_eps=values["pgam_eps"], pgam_iters=values["pgam_iters"],
        resolved=dict(raw))
    return spec, []


def _snr_power(sigma_sq: float, snr_db: float) -> float:
    """The total power at ``snr_db`` over the DL noise; inf on overflow."""
    try:
        return sigma_sq * 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return math.inf


def _config_for_point(config: SystemConfig, variable: str,
                      value: float) -> SystemConfig:
    """``config`` at one grid value of the sweep ``variable``."""
    if variable == "snr_db":
        value = _snr_power(config.sigma_sq, value)
    elif variable == "n_elements":
        if value != int(value):
            raise ValueError("n_elements values must be positive integers")
        value = int(value)
    return config.replace(**{_SWEEP_FIELDS[variable]: value})


def _fmt(value: float) -> str:
    return repr(float(value))


def _manifest_text(spec: ExperimentSpec) -> str:
    lines = [f"# run manifest ({__version__}); re-run with: "
             "starfd run <this file>"]
    lines += [f"{key} = {spec.resolved[key]}" for key in SPEC_KEYS]
    return "\n".join(lines) + "\n"


def run_experiment(spec: ExperimentSpec, jobs: int = 1
                   ) -> Tuple[Path, Path, Optional[Path]]:
    """Execute a validated spec; returns (csv, manifest, summary) paths.

    Two stages run under ``jobs`` workers. First the grid points build
    their configs, design states, powers and closed-form rows
    concurrently. Then the MC cells are grouped by the config fields the
    draw reads (:func:`starfd.rates_mc.draw_key`) and the groups are
    scored concurrently, each on one stream keyed by the spec's seed, so
    the cells of a group share their channel draws. Rows are buffered and
    written in grid order and all randomness is derived from the seed, the
    grid position and the block index, so the CSV is identical at any
    parallelism level. Nothing is written until every point succeeded.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    _bind_run_names(spec)
    return sweep.run_sweep(spec, jobs)


def _load_spec_argument(name: str) -> Tuple[Optional[str], Optional[str]]:
    """Resolve a CLI spec argument to file text: path first, then preset."""
    path = Path(name)
    if path.is_file():
        return path.read_text(encoding="utf-8"), None
    # Imported here: a run of an experiment file never reads the presets.
    from .presets import PRESETS, preset_text
    if name in PRESETS:
        return preset_text(name), None
    return None, (f"{name!r} is neither an experiment file nor a preset "
                  f"(presets: {', '.join(sorted(PRESETS))})")


def _load_spec(name: str) -> Optional[ExperimentSpec]:
    """Parse a CLI spec argument, reporting every problem on stderr."""
    text, problem = _load_spec_argument(name)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return None
    spec, errors = parse_spec_text(text)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    return spec


def _cmd_run(name: str, output: Optional[str], jobs: int,
             command_line: bool) -> int:
    spec = _load_spec(name)
    if spec is None:
        return 1
    if output is not None:
        resolved = dict(spec.resolved)
        resolved["output"] = output
        spec = spec.replace(output=output, resolved=resolved)
    if command_line:
        _bind_run_names_frozen(spec)
    try:
        out_path, manifest_path, summary_path = run_experiment(spec,
                                                               jobs=jobs)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleError, NumericError, ArithmeticError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out_path}")
    print(f"wrote {manifest_path}")
    if summary_path is not None:
        print(f"wrote {summary_path}")
        for line in summary_path.read_text(encoding="utf-8").splitlines():
            print(line)
    return 0


def _cmd_validate(name: str) -> int:
    spec = _load_spec(name)
    if spec is None:
        return 1
    sys.stdout.write(_manifest_text(spec))
    return 0


def _cmd_presets_list() -> int:
    from .presets import PRESET_NOTES, PRESETS
    width = max(len(name) for name in PRESETS)
    for name in PRESETS:
        print(f"{name:<{width}}  {PRESET_NOTES[name]}")
    return 0


def _cmd_presets_show(name: str) -> int:
    from .presets import preset_text
    try:
        sys.stdout.write(preset_text(name))
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    return 0


_USAGE = """\
usage: starfd run SPEC [--output PATH] [--jobs N]
       starfd validate SPEC
       starfd presets list
       starfd presets show NAME
"""

_HELP = _USAGE + """
Surface-assisted full-duplex NOMA experiment runner.

  run SPEC           run an experiment file or preset and write its CSV
  validate SPEC      check SPEC and print the resolved configuration
  presets list       list the preset names
  presets show NAME  print one preset file
  --output PATH      override the CSV output path
  --jobs N           concurrent grid points, then concurrent Monte-Carlo
                     draw groups (default 1)
  -h, --help         show this message and exit

SPEC is an experiment file path or a preset name. An option takes its
value as the next argument or after '=', as in --jobs=2.
"""

# Each command's words, and how many operands it takes.
_COMMANDS = {"run": 1, "validate": 1, "presets list": 0, "presets show": 1}


class _UsageError(Exception):
    """The command line does not match :data:`_USAGE`."""


def _parse_command_line(args: Sequence[str]
                        ) -> Tuple[str, List[str], Optional[str], int]:
    """Split ``args`` into the command, its operands, the ``--output``
    value and the ``--jobs`` count."""
    words: List[str] = []
    options: Dict[str, str] = {}
    rest = iter(args)
    for arg in rest:
        if not arg.startswith("-"):
            words.append(arg)
            continue
        name, has_value, value = arg.partition("=")
        if name not in ("--output", "--jobs"):
            raise _UsageError(f"unrecognized argument: {arg}")
        if not has_value:
            value = next(rest, None)
            if value is None:
                raise _UsageError(f"argument {name}: expected one argument")
        if name == "--output" and not value:
            raise _UsageError("argument --output: must be a file name")
        options[name] = value
    if not words:
        raise _UsageError("a command is required")
    length = 2 if words[0] == "presets" else 1
    command, operands = " ".join(words[:length]), words[length:]
    if command not in _COMMANDS:
        raise _UsageError(f"unknown command {command!r}")
    if len(operands) < _COMMANDS[command]:
        raise _UsageError(f"{command}: missing argument")
    if len(operands) > _COMMANDS[command]:
        raise _UsageError(f"unrecognized argument: {operands[-1]}")
    if options and command != "run":
        raise _UsageError(f"{command} takes no options")
    jobs = options.get("--jobs", "1")
    try:
        return command, operands, options.get("--output"), int(jobs)
    except ValueError:
        raise _UsageError(
            f"argument --jobs: invalid int value: {jobs!r}") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one ``starfd`` command line (``sys.argv[1:]`` by default) and
    return its exit code: 0 on success, 1 for a spec that cannot be read
    or parsed, 2 for a run that fails or a command line that does not
    match :data:`_USAGE`.

    Run as the process's command line (``argv`` not given), a ``run``
    loads its numeric modules with the garbage collector paused and then
    freezes them (see :func:`_bind_run_names_frozen`); the sweep runs
    with the collector as it was before. Once the command is done, the
    command line freezes the collector and ends the process with the
    exit code (see :func:`_exit_process`): the exit handlers run and the
    standard streams are flushed, but the heap is not torn down, so the
    caller's own unflushed files are not flushed either. It returns the
    code only where that exit would not be the interpreter's. A call
    with ``argv`` leaves the caller's collector as it is and returns.
    """
    code = _run_command(sys.argv[1:] if argv is None else list(argv),
                        command_line=argv is None)
    if argv is None:
        # Finalization skips frozen objects, when the process gets that
        # far: return to exit took 22.8 ms before and 6.0 ms after on the
        # mc-noma benchmark run.
        gc.freeze()
        _exit_process(code)
    return code


def _exit_process(code: int) -> None:
    """End the process with ``code`` after the parts of interpreter exit
    that anyone can observe: the :mod:`atexit` handlers run and the
    standard streams are flushed. Tearing down the modules and the heap
    (4.3-4.5 ms on the benchmark's run workloads) is skipped.

    Returns instead, leaving exit to the interpreter, while another
    non-daemon thread is alive (exit waits for it), while a tracer or
    profiler is installed (debuggers, coverage and ``python -m cProfile``
    write their output after the program), under ``python -i``, or when
    a flush fails (a pipe with no reader then reports as it always has).
    """
    threading = sys.modules.get("threading")
    if threading is not None and any(
            not thread.daemon for thread in threading.enumerate()
            if thread is not threading.current_thread()):
        return
    # Python 3.12 and later profile (cProfile among them) through
    # sys.monitoring too.
    monitoring = getattr(sys, "monitoring", None)
    if (sys.gettrace() is not None or sys.getprofile() is not None
            or sys.flags.inspect or monitoring is not None
            and any(monitoring.get_tool(tool) for tool in range(6))):
        return
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr, sys.__stdout__,
                       sys.__stderr__):
            if stream is not None:
                stream.flush()
    except Exception:
        # Interpreter exit flushes again and reports the failure.
        return
    os._exit(code)


def _run_command(args: List[str], command_line: bool) -> int:
    if "-h" in args or "--help" in args:
        sys.stdout.write(_HELP)
        return 0
    try:
        command, operands, output, jobs = _parse_command_line(args)
    except _UsageError as exc:
        sys.stderr.write(f"{_USAGE}starfd: error: {exc}\n")
        return 2
    if command == "run":
        return _cmd_run(operands[0], output, jobs, command_line)
    if command == "validate":
        return _cmd_validate(operands[0])
    if command == "presets list":
        return _cmd_presets_list()
    return _cmd_presets_show(operands[0])


if __name__ == "__main__":
    sys.exit(main())
