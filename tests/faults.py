"""A catalogue of known faults in ``src/starfd``, and a runner that checks
that the tests catch each one.

Each entry of :data:`FAULTS` is a small change to one source file (the
old text and the new text) and the test that must fail with it in. The
runner applies one entry at a time to a scratch copy of the repository
and runs the whole suite there with ``pytest -x``, less
``tests/test_faults.py``. A fault is caught when the suite fails and its
named test fails too; when another test fails first, the named test is
then run alone, and so it is when the suite stops short of its closing
line (a fault that ends the process). The file is not collected by pytest;
``tests/test_faults.py`` checks that every entry still applies at
exactly one place, so a refactor that moves the code names the stale
entry instead of dropping it silently.

Run from the repository root (about 40 s per entry on 2 cores)::

    python tests/faults.py            # every entry
    python tests/faults.py 0 2        # entries 0 and 2
    python tests/faults.py --file src/starfd/kernel.py  # one file's entries
    python tests/faults.py --list     # print the entries

The exit code is 0 when every entry run was caught by its named test.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
# Left out of a copy: history, caches and the benchmark's work files.
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 "work")


class Fault(NamedTuple):
    file: str   # relative to the repository root
    old: str    # occurs exactly once under src/
    new: str
    test: str   # the pytest node id that must fail with the fault in


FAULTS = (
    # The edge DL user's interference without the edge uplink user: the
    # split under-powers the edge signal, and rows that miss the DL
    # target are flagged feasible.
    Fault("src/starfd/power.py",
          "interference = (p_u1u * edge.y1 + p_u2u * edge.y2\n",
          "interference = (p_u1u * edge.y1\n",
          "tests/test_cli.py::TestRunExperiment::"
          "test_feasible_tau_rows_meet_their_targets"),
    # The center user decoding the edge signal without the center signal
    # left in: the decoding-order margin is overstated.
    Fault("src/starfd/kernel.py",
          'cross = dl_sinr(terms["u1d"], pw.p_b2, pw.p_b1, pw,',
          'cross = dl_sinr(terms["u1d"], pw.p_b2, 0.0, pw,',
          "tests/test_optimize.py::TestValidateConstraints::"
          "test_decoding_order_margin_is_zero_at_the_allocation"),
    # An snr_db point's power over the BS noise instead of the DL noise.
    Fault("src/starfd/cli.py",
          "value = _snr_power(config.sigma_sq, value)",
          "value = _snr_power(config.sigma_b_sq, value)",
          "tests/test_cli.py::TestSpecParsing::"
          "test_snr_point_power_reads_the_downlink_noise"),
    # The command line ends its command without freezing the collector.
    Fault("src/starfd/cli.py",
          "        gc.freeze()\n        _exit_process(code)\n",
          "        _exit_process(code)\n",
          "tests/test_cli.py::TestStartup::"
          "test_only_the_command_line_freezes_the_collector"),
    # An in-process main(argv) freezes its caller's collector too.
    Fault("src/starfd/cli.py",
          "    if argv is None:\n        # Finalization skips",
          "    if True:\n        # Finalization skips",
          "tests/test_cli.py::TestStartup::"
          "test_only_the_command_line_freezes_the_collector"),
    # The command line's run leaves the collector off after the load, so
    # the sweep's cyclic garbage is never reclaimed.
    Fault("src/starfd/cli.py",
          "        if enabled:\n            gc.enable()\n",
          "",
          "tests/test_cli.py::TestStartup::"
          "test_command_line_loads_paused_and_sweeps_as_before[1-True]"),
    # The load turns on a collector the process had turned off.
    Fault("src/starfd/cli.py",
          "        if enabled:\n            gc.enable()\n",
          "        gc.enable()\n",
          "tests/test_cli.py::TestStartup::"
          "test_command_line_loads_paused_and_sweeps_as_before[1-False]"),
    # The load runs with the collector on: it scans the modules loaded.
    Fault("src/starfd/cli.py",
          "    gc.disable()\n",
          "",
          "tests/test_cli.py::TestStartup::"
          "test_command_line_loads_paused_and_sweeps_as_before[1-True]"),
    # An in-process main(argv) pauses and freezes its caller's collector
    # for the load too.
    Fault("src/starfd/cli.py",
          "command_line=argv is None)",
          "command_line=True)",
          "tests/test_cli.py::TestStartup::"
          "test_only_the_command_line_freezes_the_collector"),
    # The stand-in secrets is never removed: a later import secrets gets
    # a module without token_hex.
    Fault("src/starfd/streams.py",
          "            del sys.modules[\"secrets\"]\n",
          "            pass\n",
          "tests/test_cli.py::TestStartup::"
          "test_numpy_random_loads_without_openssl"),
    # The stand-in is never installed: numpy.random imports the real
    # secrets, and with it OpenSSL.
    Fault("src/starfd/streams.py",
          "        sys.modules[\"secrets\"] = stand_in\n",
          "",
          "tests/test_cli.py::TestStartup::"
          "test_numpy_random_loads_without_openssl"),
    # The stand-in is removed only when numpy.random imports: a failed
    # import leaves it in sys.modules.
    Fault("src/starfd/streams.py",
          "    try:\n        import numpy.random\n    finally:\n",
          "    import numpy.random\n    if True:\n",
          "tests/test_cli.py::TestStartup::"
          "test_failed_import_leaves_no_stand_in"),
    # The center DL user's y2 (the edge UL user's signal through the
    # surface) scaled by the center UL user's surface link.
    Fault("src/starfd/kernel.py",
          '(None, ("r_u1d", "r_u2u"), ("t", "u1d", "u2u")',
          '(None, ("r_u1d", "r_u1u"), ("t", "u1d", "u2u")',
          "tests/test_rates_mc.py::TestSinrOps::"
          "test_dl_center_term_by_term"),
    # The edge DL user's signal cascade on the transmit side.
    Fault("src/starfd/kernel.py",
          '(None, ("br", "r_u2d"), ("r", "u2d", "br")',
          '(None, ("br", "r_u2d"), ("t", "u2d", "br")',
          "tests/test_rates_mc.py::TestSinrOps::"
          "test_dl_edge_term_by_term"),
    # The closed forms' mean path loss of the surface-u2d link over the
    # center disk instead of the edge disk.
    Fault("src/starfd/rates_cf.py",
          '"r_u2d": mo.q_edge,',
          '"r_u2d": mo.q_center,',
          "tests/test_rates_cf.py::TestRateInputs::"
          "test_triples_from_the_moments[baseline]"),
    # The NOMA design co-phases u2d's interference from u1u on side r
    # instead of its signal from the BS.
    Fault("src/starfd/designs.py",
          '_co_phased(rows, "u1u", "y1"), _co_phased(rows, "u2d", "x1")',
          '_co_phased(rows, "u1u", "y1"), _co_phased(rows, "u2d", "y1")',
          "tests/test_optimize.py::TestSuboptimalPhases::"
          "test_matches_the_phase_law[16]"),
    # The edge UL user's signal cascade from the center UL user's link.
    Fault("src/starfd/kernel.py",
          '(None, ("br", "r_u2u"), ("t", "br", "u2u")',
          '(None, ("br", "r_u2u"), ("t", "br", "u1u")',
          "tests/test_rates_mc.py::TestSinrOps::"
          "test_ul_edge_term_by_term"),
    # MC cells grouped one per cell instead of by their draw key: cells
    # that could share a block draw it again each.
    Fault("src/starfd/sweep.py",
          "groups.setdefault(cli.draw_key(cell[0]), [])",
          "groups.setdefault((id(cell),), [])",
          "tests/test_cli.py::TestSharedDraws::"
          "test_snr_sweep_draws_each_block_once"),
    # The random design keyed without its grid point: every point scores
    # the same surface.
    Fault("src/starfd/sweep.py",
          "cli.keyed_rng(spec.seed, point, design_index, 1)",
          "cli.keyed_rng(spec.seed, 0, design_index, 1)",
          "tests/test_cli.py::TestRunExperiment::"
          "test_random_design_is_keyed_by_point_and_index"),
    # An empty --output falls back to the spec's own output.
    Fault("src/starfd/cli.py",
          'if name == "--output" and not value:',
          "if False:",
          "tests/test_cli.py::TestMain::"
          "test_empty_output_exits_2_and_writes_nothing[separate]"),
    # The command line ends the process before the exit handlers run.
    Fault("src/starfd/cli.py",
          "    atexit._run_exitfuncs()\n",
          "    os._exit(code)\n    atexit._run_exitfuncs()\n",
          "tests/test_cli.py::TestExit::"
          "test_exit_handlers_run_after_the_output"),
    # The command line ends the process with its output still buffered.
    Fault("src/starfd/cli.py",
          "                stream.flush()\n",
          "                pass\n",
          "tests/test_cli.py::TestExit::"
          "test_real_stdout_written_before_a_redirect_appears"),
    # An in-process main(argv) ends its caller's process too.
    Fault("src/starfd/cli.py",
          "        _exit_process(code)\n    return code\n",
          "    _exit_process(code)\n    return code\n",
          "tests/test_cli.py::TestStartup::"
          "test_only_the_command_line_freezes_the_collector"),
    # The command line ends the process under a tracer or profiler, which
    # then never writes its output.
    Fault("src/starfd/cli.py",
          "    if (sys.gettrace() is not None or sys.getprofile() is not "
          "None\n            or sys.flags.inspect or monitoring is not None\n"
          "            and any(monitoring.get_tool(tool) for tool in "
          "range(6))):",
          "    if sys.flags.inspect:",
          "tests/test_cli.py::TestExit::test_profiler_writes_its_output"),
    # The command line ends every process with status 0.
    Fault("src/starfd/cli.py",
          "    os._exit(code)\n",
          "    os._exit(0)\n",
          "tests/test_cli.py::TestExit::"
          "test_command_line_matches_the_in_process_call[usage-error]"),
    # The edge UL target margin read off the center uplink user's rate.
    Fault("src/starfd/kernel.py",
          '_log2(1.0 + sinrs["u2u"]) - config.R_uth',
          '_log2(1.0 + sinrs["u1u"]) - config.R_uth',
          "tests/test_optimize.py::TestValidateConstraints::"
          "test_edge_margins_are_the_closed_form_rates"),
    # The fixed-tau split's flag reads the DL target margin (against the
    # config's R_dth, not the case's) in place of the UL one.
    Fault("src/starfd/power.py",
          ')["edge_ul_target"] >= -1e-12',
          ')["edge_dl_target"] >= -1e-12',
          "tests/test_optimize.py::TestTauSplitPowers::"
          "test_unmet_targets_flag_the_split_infeasible"),
    # PGAM reports the constraints of its initial state, whose rate
    # inputs it assembled first, instead of the last state's.
    Fault("src/starfd/optimize.py",
          "else _constraint_report(config, state, pw, assembly[1]))",
          "else _constraint_report(config, state, pw,\n"
          "                        cf_rate_inputs(config, init)))",
          "tests/test_optimize.py::TestValidateConstraints::"
          "test_bidirectional_run_reports_no_constraints"),
    # The tau summary keeps the last of two tied splits.
    Fault("src/starfd/sweep.py",
          "if best is None or total > best[1]:",
          "if best is None or total >= best[1]:",
          "tests/test_cli.py::TestRunExperiment::"
          "test_tau_summary_reports_the_first_tied_split"),
    # The loop-back moment with half its weight on the cross term ab:
    # the scattered part of the BS self-interference is understated.
    Fault("src/starfd/rates_cf.py",
          "2.0 * a * b + b * b",
          "a * b + b * b",
          "tests/test_rates_cf.py::TestMoments::"
          "test_loopback_moment_closed_identity"),
    # The cascade table's rows square the out-link instead of taking the
    # product of both legs.
    Fault("src/starfd/rates_cf.py",
          "los[out] * los[inp]",
          "los[out] * los[out]",
          "tests/test_rates_cf.py::TestMoments::"
          "test_xi_against_explicit_double_sum"),
    # The gradient pulls back a cascade's xi with its LoS sum itself
    # instead of the conjugate.
    Fault("src/starfd/rates_cf.py",
          "* np.conj(mo.los_sum[i]) * table[side, out, inp])",
          "* mo.los_sum[i] * table[side, out, inp])",
          "tests/test_optimize.py::TestAnalyticGradient::"
          "test_matches_finite_differences[noma-pair-random-20-baseline]"),
)


def _pytest(copy: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *args], cwd=copy, env=env, capture_output=True, text=True)


def _finished(output: str) -> bool:
    """Whether pytest got to its closing line ("... in 33.05s"): a fault
    that ends the process from inside a test stops it short, whatever its
    exit status."""
    lines = output.strip().splitlines()
    return bool(lines) and re.search(r" in \d+\.\d+s\b", lines[-1]) is not None


def _failed(output: str) -> List[str]:
    """The node ids of pytest's ``FAILED`` summary lines."""
    return [line.split()[1] for line in output.splitlines()
            if line.startswith("FAILED ")]


def check(fault: Fault, scratch: Optional[Path]) -> str:
    """Apply ``fault`` to a copy of the repository under ``scratch``, run
    the suite with ``-x``, and say what caught it."""
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIPPED)
        target = copy / fault.file
        text = target.read_text(encoding="utf-8")
        if text.count(fault.old) != 1:
            return "STALE: the old text does not occur exactly once"
        target.write_text(text.replace(fault.old, fault.new),
                          encoding="utf-8")
        # The catalogue's own check fails on every applied entry.
        suite = _pytest(copy, "-x", "--ignore=tests/test_faults.py")
        if suite.returncode == 0 and _finished(suite.stdout):
            return "SURVIVED: the whole suite passes"
        failed = _failed(suite.stdout)
        if fault.test in failed:
            return "caught by its test"
        alone = _pytest(copy, fault.test)
        first = failed[0] if failed else f"exit {suite.returncode}"
        if fault.test in _failed(alone.stdout):
            return f"caught by its test (first by {first})"
        return f"MISSED by its test (the suite fails at {first})"


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("entries", nargs="*", type=int,
                        help="indices into FAULTS (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="print the entries and exit")
    parser.add_argument("--file", default=None,
                        help="run only the entries on this source file, "
                             "a path from the repository root")
    parser.add_argument("--scratch", type=Path, default=None,
                        help="directory for the copies (default: the "
                             "system's temporary directory)")
    args = parser.parse_args(argv)
    chosen = [index for index in args.entries or range(len(FAULTS))
              if args.file is None or FAULTS[index].file == args.file]
    if not chosen:
        parser.error(f"no entry on {args.file}")
    all_caught = True
    for index in chosen:
        fault = FAULTS[index]
        if args.list:
            print(f"{index}: {fault.file}: {fault.old.strip()!r} -> "
                  f"{fault.new.strip()!r}\n    {fault.test}")
            continue
        verdict = check(fault, args.scratch)
        all_caught = all_caught and verdict.startswith("caught")
        print(f"{index}: {fault.file}: {verdict}", flush=True)
    return 0 if all_caught else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
