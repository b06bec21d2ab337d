#!/usr/bin/env python3
"""Benchmark of the ``starfd`` command line tool on three sweep workloads.

Run from the repository root:

    python3 perfbench/run.py --workload mc-noma --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # every workload in turn

Each workload is an experiment file generated from ``--seed``. Every
measured sample is a fresh ``starfd run`` process, because command-line
users pay interpreter start, imports and cache fills on every run. With
``--trace 0`` the end-to-end metrics are measured, each timing scaled by
a calibration probe timed between runs (see ``Invocation.calibrate``); with
``--trace 1`` untraced runs alternate with runs under
``perfbench/trace_run.py``, whose spans give the per-layer metrics. Every
run's outputs are checked (see ``check_csv``). The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give each metric by name
with its unit, the run-to-run detail and the host record. A full report
is written under ``perfbench/work/``. See ``perfbench/README.md`` for
what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

# The same entry point as the installed ``starfd`` console script.
STARFD = [sys.executable, "-c",
          "import sys; from starfd.cli import main; sys.exit(main())"]
TRACED = [sys.executable, str(HERE / "trace_run.py")]

MIN_SAMPLES = 3       # timed runs made even when --seconds has passed
BUDGET_S = 150.0      # no new run starts past this, so a workload ends < 180 s
CF_RTOL = 1e-9        # aligned closed-form rows against the reference
MC_SIGMAS = 4.0       # aligned MC rows against the reference, in combined SEs
MC_CHECK_TRIALS = 20_000  # trials of the once-per-invocation MC check run
NOMA_WEIGHT = 0.8     # the spec default of every weight_<user> key
# The calibration probe: a fresh interpreter that imports numpy and runs
# a fixed loop of small complex-vector operations and scalar math, the mix
# a `starfd run` spends its time on; about 0.35 s on a 2-core host. It does
# not load starfd, so it stays fixed while starfd changes.
PROBE_CODE = """
import math
import numpy as np
rng = np.random.default_rng(0)
x = 0.0
for _ in range(9000):
    a = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    b = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 32))
    x += math.log2(1.0 + abs(np.vdot(a, b)) ** 2
                   / (1.0 + float(np.vdot(a, a).real)))
"""
PROBE = [sys.executable, "-c", PROBE_CODE]
PROBE_REF_S = 0.35    # setup_s is in seconds at this probe time


@dataclass(frozen=True)
class Workload:
    name: str
    keys: Dict[str, str]
    pool_jobs: Optional[int] = None   # --jobs of the untimed pool run

    @property
    def bidirectional(self) -> bool:
        return self.keys.get("scenario") == "bidirectional"

    @property
    def mc_check(self) -> Optional[Workload]:
        """The untimed high-trial MC check run: the aligned design's MC
        rows at the last grid point with ``MC_CHECK_TRIALS`` trials, or
        None for a workload without MC."""
        if "mc" not in self.words("estimators"):
            return None
        return Workload(self.name, {
            **self.keys, "sweep_grid": self.words("sweep_grid")[-1],
            "designs": "aligned", "estimators": "mc",
            "trials": str(MC_CHECK_TRIALS)})

    def words(self, key: str) -> List[str]:
        return self.keys[key].replace(",", " ").split()


# Sizes are chosen so that one `starfd run` takes about 1.5 s on a 2-core
# host, which leaves about fifteen samples per run of the benchmark. Timed
# runs use --jobs 1: at --jobs 2 the two pool threads hand the GIL back and
# forth, and on a shared host the wall time then swings by up to 2x from
# one minute to the next, far more than any bound could absorb.
WORKLOADS = {
    w.name: w for w in (
        # The per-trial Monte-Carlo loop at the acceptance operating
        # points; no optimizer work.
        Workload("mc-noma", {
            "sweep_variable": "snr_db", "sweep_grid": "20, 30, 40",
            "designs": "aligned, random", "estimators": "cf, mc",
            "trials": "450"}),
        # The finite-difference PGAM gradient at both surface sizes, every
        # point ending at max-iters so the iteration count is fixed; no MC.
        Workload("pgam-elements", {
            "total_power_dbw": "40", "sweep_variable": "n_elements",
            "sweep_grid": "20, 100", "designs": "pgam, aligned",
            "estimators": "cf", "pgam_iters": "6"}),
        # The relaying legs of the bidirectional MC and its phase search;
        # one untimed --jobs 2 run per invocation covers the thread pool.
        Workload("bidir", {
            "scenario": "bidirectional", "sweep_variable": "snr_db",
            "sweep_grid": "10, 20, 30, 40", "designs": "aligned",
            "estimators": "cf, mc", "trials": "600"}, pool_jobs=2),
    )
}


def spec_text(workload: Workload, seed: int, **overrides: str) -> str:
    keys = {**workload.keys, "seed": str(seed), "output": "out.csv",
            **overrides}
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


# --------------------------------------------------------------- checks

def expected_header(workload: Workload) -> List[str]:
    names = (["c", "e"] if workload.bidirectional
             else ["u1d", "u2d", "u1u", "u2u"])
    return ([workload.keys["sweep_variable"], "design", "estimator"]
            + [f"R_{n}" for n in names] + ["sum"]
            + [f"stderr_{n}" for n in names])


def csv_rows(text: str) -> List[Dict[str, str]]:
    """The data rows of a starfd CSV, as dicts keyed by its header."""
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def load_reference() -> Dict[str, Dict[tuple, Dict[str, float]]]:
    """Aligned-design rows recorded at the benchmark's first commit.

    Each MC ``stderr_<x>`` also gives ``sd_<x>``, the per-trial standard
    deviation it implies, from which the standard error of a run with
    fewer trials follows.
    """
    data = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    root_n = math.sqrt(data["trials"])
    out = {}
    for name, rows in data["workloads"].items():
        out[name] = {}
        for row in rows:
            cells = dict(row["cells"])
            cells.update({"sd_" + c[7:]: v * root_n for c, v in
                          row["cells"].items() if c.startswith("stderr_")})
            out[name][(row["point"], row["estimator"])] = cells
    return out


def check_csv(workload: Workload, text: str,
              reference: Dict[tuple, Dict[str, float]],
              zscores: Optional[List[float]] = None) -> List[str]:
    """Every problem found in one run's CSV; empty when it is correct.

    Checks the header, the row order and count, that every rate is finite
    and non-negative, that ``sum`` is the weighted user sum, that MC rows
    and only MC rows carry standard errors, that aligned closed-form rows
    match the reference to ``CF_RTOL``, that aligned MC rows lie within
    ``MC_SIGMAS`` combined standard errors of the reference, and that
    each pgam sum is at least the aligned sum at the same point.

    The rates have heavy right tails (rare users next to the base
    station), so a run's own stderr is too small exactly when it missed
    those users and its mean reads low. The MC check therefore uses the
    larger of the run's stderr and the one the reference's per-trial
    spread implies at the run's trial count. At the timed runs' trial
    counts that tolerance is wide (tens of percent of a rate); the
    ``mc_check`` run narrows it. Each MC deviation in combined standard
    errors is appended to ``zscores`` when given.
    """
    lines = text.splitlines()
    header = expected_header(workload)
    if not lines or lines[0].split(",") != header:
        return [f"header {lines[:1]} is not {','.join(header)}"]
    keys = [(float(p), d, e) for p in workload.words("sweep_grid")
            for d in workload.words("designs")
            for e in workload.words("estimators")]
    if len(lines) - 1 != len(keys):
        return [f"{len(lines) - 1} rows, expected {len(keys)}"]
    rate_cols = [c for c in header if c.startswith("R_")]
    se_cols = [c for c in header if c.startswith("stderr_")]
    weight = 1.0 if workload.bidirectional else NOMA_WEIGHT

    problems: List[str] = []
    sums = {}
    for row, (point, design, estimator) in zip(csv_rows(text), keys):
        where = f"row {point:g}/{design}/{estimator}"
        try:
            if (float(row[header[0]]), row["design"],
                    row["estimator"]) != (point, design, estimator):
                problems.append(f"{where}: found {list(row.values())}")
                continue
            cells = {c: float(row[c]) for c in rate_cols + ["sum"]}
            stderr = {c: float(row[c]) for c in se_cols if row[c]}
        except (KeyError, ValueError) as exc:
            problems.append(f"{where}: unreadable ({exc})")
            continue
        if not all(math.isfinite(v) and v >= 0 for v in cells.values()):
            problems.append(f"{where}: rate not finite and >= 0")
            continue
        weighted = math.fsum(weight * cells[c] for c in rate_cols)
        if not math.isclose(cells["sum"], weighted, rel_tol=1e-12):
            problems.append(f"{where}: sum {cells['sum']!r} != {weighted!r}")
        if estimator == "mc":
            if len(stderr) != len(se_cols) or not all(
                    math.isfinite(v) and v > 0 for v in stderr.values()):
                problems.append(f"{where}: missing or invalid stderr")
                continue
        elif stderr:
            problems.append(f"{where}: stderr on a closed-form row")
        sums[(point, design, estimator)] = cells["sum"]

        ref = reference.get((point, estimator)) if design == "aligned" \
            else None
        if ref is None:
            continue
        if estimator == "cf":
            for col, value in cells.items():
                if not math.isclose(value, ref[col], rel_tol=CF_RTOL):
                    problems.append(f"{where}: {col} {value!r} differs from "
                                    f"the reference {ref[col]!r}")
        else:
            trials = int(workload.keys["trials"])
            for col in rate_cols:
                user = col[2:]
                run_se = max(stderr["stderr_" + user],
                             ref["sd_" + user] / math.sqrt(trials))
                se = math.hypot(run_se, ref["stderr_" + user])
                if zscores is not None:
                    zscores.append((cells[col] - ref[col]) / se)
                if abs(cells[col] - ref[col]) > MC_SIGMAS * se:
                    problems.append(
                        f"{where}: {col} {cells[col]!r} is more than "
                        f"{MC_SIGMAS:g} SE from the reference {ref[col]!r}")

    for (point, design, estimator), total in sums.items():
        aligned = sums.get((point, "aligned", estimator))
        if design == "pgam" and aligned is not None and total < aligned:
            problems.append(f"row {point:g}/pgam/{estimator}: sum {total!r} "
                            f"below the aligned sum {aligned!r}")
    return problems


def rel_stderr_max(text: str) -> Optional[float]:
    """Largest stderr/rate over the MC rows of a CSV, or None without MC."""
    ratios = [float(row["stderr_" + col[2:]]) / float(row[col])
              for row in csv_rows(text) if row["estimator"] == "mc"
              for col in row if col.startswith("R_")]
    return max(ratios, default=None)


# ------------------------------------------------------------- processes

class Run(NamedTuple):
    wall: float      # s, from just before the fork to the reap
    cpu: float       # s, user + sys of the child
    rss_mb: float    # max resident set of the child
    code: int


def run_child(argv: List[str], cwd: Path, log: Path, limit: float) -> Run:
    """Run one process to completion, killing it after ``limit`` seconds.

    No bytecode cache is written, so every process compiles the package
    from source and the timings do not depend on whether the checkout
    already holds a cache. OpenBLAS gets one thread: starfd makes no BLAS
    call, and the idle worker thread that numpy's import starts otherwise
    spins on the second core, which made run and probe times depend on
    whether another tenant was using that core.
    """
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(limit, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss / 1024.0, proc.returncode)


def cgroup_cpu_max() -> Optional[str]:
    """The CPU quota as "quota period" (cgroup v2 ``cpu.max``, else the v1
    CFS pair, where quota -1 means none), or None when neither is there."""
    v2 = Path("/sys/fs/cgroup/cpu.max")
    if v2.is_file():
        return v2.read_text().strip()
    v1 = [Path("/sys/fs/cgroup/cpu") / f"cpu.cfs_{k}_us"
          for k in ("quota", "period")]
    if all(p.is_file() for p in v1):
        return " ".join(p.read_text().strip() for p in v1)
    return None


def host_record() -> Dict[str, object]:
    """What the numbers depend on; read only, nothing is pinned or set."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cgroup_cpu_max": cgroup_cpu_max(),
        "loadavg": list(os.getloadavg()),
    }


class Invocation:
    """One workload at one seed: its files, attempts and failures."""

    def __init__(self, workload: Workload, seed: int, trace: bool,
                 reference: Dict[tuple, Dict[str, float]]):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        (self.dir / "spec.txt").write_text(spec_text(workload, seed),
                                           encoding="utf-8")
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.manifest: Optional[str] = None
        self.csv: Optional[str] = None
        self.mc_zscores: List[float] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def record(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{what}: {p}" for p in problems[:5]]

    def child(self, argv: List[str], log: str) -> Run:
        limit = max(5.0, BUDGET_S + 20.0 - self.elapsed())
        return run_child(argv, self.dir, self.dir / log, limit)

    def validate(self, target: str) -> Run:
        """`starfd validate`; its output must be the run's manifest."""
        run = self.child(STARFD + ["validate", target], "validate.log")
        text = (self.dir / "validate.log").read_text(encoding="utf-8")
        if self.manifest is None and run.code == 0:
            self.manifest = text
        self.record(f"validate {target}",
                    [f"exit code {run.code}"] if run.code else
                    [] if text == self.manifest else
                    ["output differs from the first validate"])
        return run

    def run(self, traced: bool = False, jobs: Optional[int] = None,
            output: Optional[str] = None) -> Run:
        """One `starfd run` of the spec, with every output checked."""
        argv = (TRACED + ["spans.pkl"] if traced else STARFD) + [
            "run", "spec.txt"]
        if jobs:
            argv += ["--jobs", str(jobs)]
        if output:
            argv += ["--output", output]
        run = self.child(argv, "run.log")
        what = f"{'traced ' if traced else ''}run --jobs {jobs or 1}"
        outputs = self.outputs(what, run, output or "out.csv")
        if outputs is None:
            return run
        text, manifest = outputs
        problems = check_csv(self.workload, text, self.reference)
        if self.csv is None:
            self.csv = text
        elif text != self.csv:
            problems.append("CSV bytes differ from the first run's")
        if output is None and manifest != self.manifest:
            problems.append("manifest differs from `starfd validate`")
        self.record(what, problems)
        return run

    def outputs(self, what: str, run: Run, csv_name: str):
        """The CSV and manifest text of a finished run, or None (and the
        run recorded as failed) when it exited non-zero or left none."""
        if run.code:
            self.record(what, [f"exit code {run.code}"])
            return None
        csv_path = self.dir / csv_name
        try:
            return (csv_path.read_text(encoding="utf-8"),
                    Path(str(csv_path) + ".manifest.txt").read_text(
                        encoding="utf-8"))
        except OSError as exc:
            self.record(what, [f"cannot read its outputs: {exc}"])
            return None

    def check_mc(self, check: Workload) -> Run:
        """The untimed high-trial MC run, checked against the reference."""
        (self.dir / "check.txt").write_text(
            spec_text(check, self.seed, output="check.csv"),
            encoding="utf-8")
        run = self.child(STARFD + ["run", "check.txt"], "check.log")
        what = f"mc check run ({MC_CHECK_TRIALS} trials)"
        outputs = self.outputs(what, run, "check.csv")
        if outputs is not None:
            self.record(what, check_csv(check, outputs[0], self.reference,
                                        self.mc_zscores))
        return run

    def calibrate(self) -> float:
        """Wall time of one ``PROBE`` process: the host's current speed.

        On a shared host the speed of the same process drifts by a quarter
        or more within minutes and switches between a fast and a slow
        state within seconds, which no number of samples within one
        invocation averages out. Dividing each run by the probes made
        right before and after it cancels most of that. Of the probes
        tried (see perfbench/README.md), a process start followed by this
        kind of work tracked `starfd run` times best: a pure-Python loop
        in the benchmark process slowed by only about half as much as the
        runs did, and a bare ``import numpy`` process over-corrected when
        process start-up alone got faster.
        """
        run = self.child(PROBE, "calibrate.log")
        if run.code:
            raise RuntimeError(f"calibration probe exited {run.code}")
        return run.wall

    def timed_loop(self, seconds: float, step) -> None:
        """Call ``step`` until ``seconds`` have passed (at least
        MIN_SAMPLES times) while the workload's time budget lasts."""
        begin = time.perf_counter()
        count, last = 0, 0.0
        while ((time.perf_counter() - begin < seconds or count < MIN_SAMPLES)
               and self.elapsed() + last < BUDGET_S):
            t0 = time.perf_counter()
            step()
            last = time.perf_counter() - t0
            count += 1

    def spans(self) -> dict:
        # Written by trace_run.py in this invocation, so safe to unpickle.
        return pickle.loads((self.dir / "spans.pkl").read_bytes())


# --------------------------------------------------------------- metrics

def summarize(samples: List[float]) -> Dict[str, object]:
    """Median, plus the highest of p50..p99 with ten samples beyond it."""
    out: Dict[str, object] = {"median": statistics.median(samples),
                              "n": len(samples), "tail": None}
    for q in (99, 95, 90, 75, 50):
        if len(samples) * (100 - q) >= 1000:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            out["tail"] = {f"p{q}": cuts[q - 1]}
            break
    return out


class Span(NamedTuple):
    id: int
    layer: str
    thread: int
    parent: Optional[int]
    t0: float
    t1: float
    c0: float
    c1: float
    info: Optional[dict]

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    @property
    def wait(self) -> float:
        return self.wall - (self.c1 - self.c0)


def layer_metrics(trace: dict, csv_text: str) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one traced run (None where a layer is absent).

    Names ending in ``.ms``/``.us`` are means per call, ``.s`` totals.
    """
    spans = [Span(*row) for row in trace["spans"]]
    missing = set(trace["missing"])
    by_id = {s.id: s for s in spans}
    layers: Dict[str, List[Span]] = defaultdict(list)
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        layers[s.layer].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def ratio(num, den):
        return num / den if den else None

    def calls(layer):
        return None if layer in missing else len(layers[layer])

    def total(layer):
        return None if layer in missing else sum(s.wall for s in layers[layer])

    def mean(layer, scale):
        return None if layer in missing else ratio(total(layer) * scale,
                                                   calls(layer))

    def self_time(layer):
        return None if layer in missing else sum(
            s.wall - sum(c.wall for c in children[s.id])
            for s in layers[layer])

    m: Dict[str, Optional[float]] = {
        "cli.parse_spec_text.ms": mean("cli.parse_spec_text", 1e3),
        "cli.run_experiment.s": total("cli.run_experiment"),
    }

    # Outermost layer spans under the runner, on any thread: pool threads
    # start with an empty stack, so their spans have no parent. At --jobs 1
    # they run one after another; cli.self_s is only kept from such runs,
    # and the two pool metrics come from the --jobs 2 run in bench().
    top = [s for s in spans if not s.layer.startswith("cli.") and (
        s.parent is None or by_id[s.parent].layer.startswith("cli."))]
    runs = layers["cli.run_experiment"]
    if runs:
        r = runs[0]
        m["cli.self_s"] = r.wall - sum(s.wall for s in top)
        m["cli.cpu_util"] = r.info["process_cpu"] / r.wall
        m["cli.pool.wait_s"] = sum(s.wait for s in top)
    else:
        m["cli.self_s"] = m["cli.cpu_util"] = m["cli.pool.wait_s"] = None

    m["channel.draw_realization.calls"] = calls("channel.draw_realization")
    m["channel.draw_realization.us"] = mean("channel.draw_realization", 1e6)
    m["channel.draw_realization.self_s"] = self_time(
        "channel.draw_realization")

    mc = "rates_mc.ergodic_rate_mc"
    m[f"{mc}.calls"] = calls(mc)
    m[f"{mc}.s"] = total(mc)
    m[f"{mc}.self_s"] = self_time(mc)
    m[f"{mc}.wait_s"] = (None if mc in missing
                         else sum(s.wait for s in layers[mc]))
    m["rates_mc.trials_per_s"] = None if mc in missing else ratio(
        sum(s.info["trials"] for s in layers[mc]), total(mc))
    m["rates_mc.rel_stderr_max"] = rel_stderr_max(csv_text)

    for layer in ("rates_cf.compute_moments", "rates_cf.cf_sinrs",
                  "rates_cf.cf_rates", "rates_cf.cf_rates_bidirectional"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.us"] = mean(layer, 1e6)
    m["optimize.aligned_state.calls"] = calls("optimize.aligned_state")
    m["optimize.aligned_state.ms"] = mean("optimize.aligned_state", 1e3)

    pg = "optimize.pgam"
    runs = [] if pg in missing else layers[pg]
    iterations = sum(s.info["iterations"] for s in runs)
    m[f"{pg}.calls"] = calls(pg)
    m[f"{pg}.s"] = total(pg)
    m[f"{pg}.iterations"] = None if pg in missing else iterations
    for n in (20, 100):
        sized = [s for s in runs if s.info["n_elements"] == n]
        m[f"{pg}.s_per_iter.n{n}"] = ratio(
            sum(s.wall for s in sized),
            sum(s.info["iterations"] for s in sized))
    evals = sum(1 for s in runs for c in children[s.id] if c.layer in (
        "rates_cf.cf_sinrs", "rates_cf.cf_rates_bidirectional"))
    m[f"{pg}.evals_per_iter"] = ratio(evals, iterations)
    m[f"{pg}.objective"] = (sum(s.info["objective"] for s in runs)
                            if runs else None)

    m["geometry.expectations.calls"] = calls("geometry.expectations")
    m["geometry.expectations.ms"] = mean("geometry.expectations", 1e3)
    m["specfun.integrate_adaptive.calls"] = calls(
        "specfun.integrate_adaptive")
    return m


# Per-layer metrics whose names do not start with the layer they are
# computed from.
DERIVED = {
    "cli.run_experiment": ("cli.self_s", "cli.cpu_util", "cli.pool.wait_s",
                           "cli.pool.jobs2_over_jobs1"),
    "rates_mc.ergodic_rate_mc": ("rates_mc.trials_per_s",),
}


def hookless(missing: List[str], names) -> List[str]:
    """The metrics among ``names`` computed from a layer whose hook is
    missing (its function was renamed or removed), as opposed to a layer
    that is merely idle on the workload."""
    return [n for n in names if any(
        n.startswith(layer + ".") or n in DERIVED.get(layer, ())
        for layer in missing)]


# ------------------------------------------------------------- workloads

def bench(workload: Workload, seed: int, seconds: float, trace: bool,
          reference) -> Dict[str, object]:
    """Measure one workload; returns the full report of the run.

    Each step of an untraced invocation times a ``starfd validate`` (the
    set-up sample), a ``starfd run`` and a calibration probe, so set-up is
    sampled as often as runs are and under the same host conditions. Set-up
    and run samples are scaled by the mean of the probes before and after
    them: ``run_rel`` and ``cpu_rel`` are ratios to it, and ``setup_s`` is
    in seconds at a probe time of ``PROBE_REF_S``.

    After the timed runs, and untimed: ``starfd validate`` must reproduce
    the manifest; a workload with MC makes its ``mc_check`` run; and for a
    workload with ``pool_jobs`` one run at that --jobs must give the same
    CSV bytes as the --jobs 1 runs. In a traced invocation that pool run
    is traced too and gives the pool metrics.
    """
    host_before = host_record()
    s = Invocation(workload, seed, trace, reference)
    s.validate("spec.txt")     # untimed: warms the file cache

    setup: List[float] = []
    runs: List[Run] = []
    cals = [] if trace else [s.calibrate()]
    traced: List[Run] = []
    per_layer: List[Dict[str, Optional[float]]] = []
    missing = set()

    def step():
        if not trace:
            setup.append(s.validate("spec.txt").wall)
        runs.append(s.run())
        if not trace:
            cals.append(s.calibrate())
        else:
            run = s.run(traced=True)
            traced.append(run)
            if run.code == 0:
                spans = s.spans()
                missing.update(spans["missing"])
                per_layer.append(layer_metrics(spans, s.csv))

    s.timed_loop(seconds, step)
    if (s.dir / "out.csv.manifest.txt").is_file():
        s.validate("out.csv.manifest.txt")
    check = (s.check_mc(workload.mc_check)
             if workload.mc_check is not None else None)
    pool = (s.run(traced=trace, jobs=workload.pool_jobs, output="pool.csv")
            if workload.pool_jobs and s.csv is not None else None)

    report: Dict[str, object] = {
        "workload": workload.name, "seed": seed,
        "pool_jobs": workload.pool_jobs, "pool_run_s": pool and pool.wall,
        "trace": trace, "spec": spec_text(workload, seed),
        "attempted": s.attempted, "failed": s.failed,
        "failed_frac": s.failed / max(1, s.attempted),
        "problems": s.problems,
        "mc_check_run_s": check and check.wall,
        "mc_check_z": s.mc_zscores,
        "host": {**host_before, "loadavg_after": list(os.getloadavg())},
        "samples": {"run_s": [r.wall for r in runs],
                    "cpu_s": [r.cpu for r in runs],
                    "peak_rss_mb": [r.rss_mb for r in runs]},
    }
    if trace:
        report["samples"]["traced_run_s"] = [r.wall for r in traced]
        report["missing"] = sorted(missing)
        metrics = {}
        for name in (per_layer[0] if per_layer else {}):
            values = [m[name] for m in per_layer if m[name] is not None]
            # median_low keeps a measured value, so counts stay whole.
            metrics[name] = statistics.median_low(values) if values else None
        # Each traced run follows an untraced one in the same step.
        metrics["trace.overhead_s"] = (
            statistics.median(t.wall - r.wall for t, r in zip(traced, runs))
            if traced else None)
        pooled = (layer_metrics(s.spans(), s.csv)
                  if pool and pool.code == 0 else {})
        for name in ("cli.cpu_util", "cli.pool.wait_s"):
            metrics[name] = pooled.get(name)
        metrics["cli.pool.jobs2_over_jobs1"] = (
            pool.wall / statistics.median(report["samples"]["traced_run_s"])
            if pooled else None)
    else:
        scale = [2.0 / (a + b) for a, b in zip(cals, cals[1:])]
        report["samples"].update(
            setup_s=[w * PROBE_REF_S * k for w, k in zip(setup, scale)],
            setup_raw_s=setup,
            run_rel=[r.wall * k for r, k in zip(runs, scale)],
            cpu_rel=[r.cpu * k for r, k in zip(runs, scale)],
            calibration_s=cals)
        metrics = {k: statistics.median(v) if v else None
                   for k, v in report["samples"].items()}
    report["metrics"] = metrics
    return report


def load_metric_units(trace: bool) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def print_report(report: Dict[str, object], units: Dict[str, str]) -> None:
    name = report["workload"]
    host = report["host"]
    print(f"[{name}] seed={report['seed']} "
          f"nproc={host['nproc']} affinity={host['affinity']} "
          f"python={host['python']} numpy={host['numpy']} "
          f"cpu.max={host['cgroup_cpu_max']} loadavg={host['loadavg']} "
          f"-> {host['loadavg_after']}")
    # Uncalibrated timings are shown too, but carry no bound.
    raw = {} if report["trace"] else {"setup_raw_s": "s", "run_s": "s",
                                      "cpu_s": "s", "calibration_s": "s"}
    for metric, unit in {**units, **raw}.items():
        value = report["metrics"].get(metric)
        samples = report["samples"].get(metric)
        detail = ""
        if samples:
            stats = summarize(samples)
            tail = ", ".join(f"{k} {v:.6g}" for k, v in
                             (stats["tail"] or {}).items()) or "no tail"
            detail = f" (median of n={stats['n']}; {tail})"
        shown = "null" if value is None else f"{value:.6g}"
        kind = "" if metric in units else " [raw, unbounded]"
        print(f"[{name}] {metric}: {shown} {unit}{detail}{kind}")
    if report["pool_run_s"] is not None:
        print(f"[{name}] untimed --jobs {report['pool_jobs']} run: "
              f"{report['pool_run_s']:.6g} s"
              f"{' (traced)' if report['trace'] else ''}")
    print(f"[{name}] failed_frac: {report['failed_frac']:.6g} "
          f"({report['failed']}/{report['attempted']} runs)")
    if report["mc_check_z"]:
        print(f"[{name}] untimed mc check run ({MC_CHECK_TRIALS} trials, "
              f"{report['mc_check_run_s']:.3g} s): largest |deviation| "
              f"{max(map(abs, report['mc_check_z'])):.3g} combined SE "
              f"(limit {MC_SIGMAS:g})")
    if report.get("missing"):
        lost = hookless(report["missing"], units)
        print(f"[{name}] hooks missing: {', '.join(report['missing'])}; "
              f"left out of the result line: {', '.join(lost)}")
    for problem in report["problems"]:
        print(f"[{name}] FAILED {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "starfd" / "cli.py").is_file():
        print(f"error: no starfd package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = load_metric_units(trace)
    reference = load_reference()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    reports = []
    for name in names:
        report = bench(WORKLOADS[name], args.seed, args.seconds, trace,
                       reference.get(name, {}))
        if report["failed"]:
            for metric in units:
                report["metrics"].setdefault(metric, None)
        if set(units) - set(report["metrics"]):
            print("error: measured metrics and BENCHMARK.json disagree",
                  file=sys.stderr)
            return 2
        (WORK / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=1) + "\n", encoding="utf-8")
        print_report(report, units)
        reports.append(report)

    # Layers that do no work on a workload read null above; the result
    # line carries numbers only, so they read 0 there. Metrics of a layer
    # whose hook is missing are left out of it instead, so that a renamed
    # function does not read as a layer that got free.
    def entry(report, metric):
        value = report["metrics"][metric]
        return {"value": 0 if value is None else value, "unit": units[metric]}

    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else report["workload"] + "."
        lost = set(hookless(report.get("missing", []), units))
        metrics.update({prefix + metric: entry(report, metric)
                        for metric in units if metric not in lost})
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
