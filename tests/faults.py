"""A catalogue of known faults in ``src/starfd``, and a runner that checks
that the tests catch each one.

Each entry of :data:`FAULTS` is a small change to one source file (the
old text and the new text) and the test that must fail with it in. The
runner applies one entry at a time to a scratch copy of the repository
and runs the whole suite there with ``pytest -x``, less
``tests/test_faults.py``. A fault is caught when the suite fails and its
named test fails too; when another test fails first, the named test is
then run alone. The file is not collected by pytest;
``tests/test_faults.py`` checks that every entry still applies at
exactly one place, so a refactor that moves the code names the stale
entry instead of dropping it silently.

Run from the repository root (about 40 s per entry on 2 cores)::

    python tests/faults.py            # every entry
    python tests/faults.py 0 2        # entries 0 and 2
    python tests/faults.py --list     # print the entries

The exit code is 0 when every entry run was caught by its named test.
"""

from __future__ import annotations

import argparse
import os
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
    Fault("src/starfd/optimize.py",
          'cross = dl_sinr(inputs["u1d"], pw.p_b2, pw.p_b1, pw,',
          'cross = dl_sinr(inputs["u1d"], pw.p_b2, 0.0, pw,',
          "tests/test_optimize.py::TestValidateConstraints::"
          "test_decoding_order_margin_is_zero_at_the_allocation"),
    # An snr_db point's power over the BS noise instead of the DL noise.
    Fault("src/starfd/cli.py",
          "value = _snr_power(config.sigma_sq, value)",
          "value = _snr_power(config.sigma_b_sq, value)",
          "tests/test_cli.py::TestSpecParsing::"
          "test_snr_point_power_reads_the_downlink_noise"),
    # The command line exits without freezing the collector.
    Fault("src/starfd/cli.py",
          "        gc.freeze()\n    return code\n",
          "        pass\n    return code\n",
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
          '_co_phased(los, "u1u", "y1"), _co_phased(los, "u2d", "x1")',
          '_co_phased(los, "u1u", "y1"), _co_phased(los, "u2d", "y1")',
          "tests/test_optimize.py::TestSuboptimalPhases::"
          "test_matches_the_phase_law[16]"),
    # The edge UL user's signal cascade from the center UL user's link.
    Fault("src/starfd/kernel.py",
          '(None, ("br", "r_u2u"), ("t", "br", "u2u")',
          '(None, ("br", "r_u2u"), ("t", "br", "u1u")',
          "tests/test_rates_mc.py::TestSinrOps::"
          "test_ul_edge_term_by_term"),
)


def _pytest(copy: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *args], cwd=copy, env=env, capture_output=True, text=True)


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
        if suite.returncode == 0:
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
    parser.add_argument("--scratch", type=Path, default=None,
                        help="directory for the copies (default: the "
                             "system's temporary directory)")
    args = parser.parse_args(argv)
    chosen = args.entries or range(len(FAULTS))
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
