#!/usr/bin/env python3
"""Rewrite the golden outputs under ``tests/golden/``.

The golden set is the CSV, manifest and (for a ``tau`` sweep) summary of
each of the nine presets at ``trials = 1500`` and ``pgam_iters = 30``,
and of the three ``perfbench/run.py`` workload specs at seed 1.
``tests/test_golden.py`` regenerates them and compares. Run from the
repository root after a change that moves output rows on purpose, with
``starfd.__version__`` bumped::

    PYTHONPATH=src python3 tests/golden/regen.py

It first prints, per file that differs from the checked-in set, how
many numeric cells moved and the largest relative move. It then rewrites
the files and adds the new version's line to ``VERSIONS`` (version, then
the sha256 of the set). A set that differs from the one ``VERSIONS``
records for the current version is refused: bump the version first.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import re
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parents[1]
VERSIONS = GOLDEN / "VERSIONS"
# The preset settings that keep the whole set to a few seconds.
PRESET_OVERRIDES = {"trials": "1500", "pgam_iters": "30"}
WORKLOAD_SEED = 1
# Files in this directory that are not part of the set.
NOT_GOLDEN = {"regen.py", "VERSIONS"}


def _perfbench_run():
    """``perfbench/run.py`` as a module, for its workload specs."""
    name = "starfd_perfbench_run"
    if name not in sys.modules:
        loader = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / "run.py")
        module = importlib.util.module_from_spec(loader)
        sys.modules[name] = module
        loader.loader.exec_module(module)
    return sys.modules[name]


def specs() -> Dict[str, str]:
    """Each golden run's experiment file text, by its output's stem."""
    from starfd.presets import PRESETS
    out = {}
    for name, keys in PRESETS.items():
        keys = {**keys, **PRESET_OVERRIDES, "output": f"{name}.csv"}
        out[name] = "".join(f"{key} = {value}\n"
                            for key, value in keys.items())
    bench = _perfbench_run()
    for name, workload in bench.WORKLOADS.items():
        out[name] = bench.spec_text(workload, WORKLOAD_SEED,
                                    output=f"{name}.csv")
    return out


def generate(directory: Path, jobs: int) -> Dict[str, str]:
    """Run every golden spec at ``jobs`` workers, writing into the empty
    ``directory``, and return the files written, name to text."""
    from starfd.cli import parse_spec_text, run_experiment
    for text in specs().values():
        spec, errors = parse_spec_text(text)
        if errors:
            raise ValueError(f"golden spec does not parse: {errors}")
        # The manifest records the spec's own output name, not where
        # this run writes it.
        run_experiment(spec.replace(output=str(directory / spec.output)),
                       jobs=jobs)
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(directory.iterdir())}


def digest(files: Dict[str, str]) -> str:
    """The sha256 of a set: each file's name and text, in name order."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(f"{name}\n{len(files[name])}\n{files[name]}".encode())
    return h.hexdigest()


def golden_files() -> Dict[str, str]:
    """The checked-in set, name to text."""
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(GOLDEN.iterdir())
            if path.is_file() and path.name not in NOT_GOLDEN}


def versions() -> Dict[str, str]:
    """``VERSIONS`` as a map from version to the digest of its set."""
    if not VERSIONS.exists():
        return {}
    return dict(line.split() for line in
                VERSIONS.read_text(encoding="utf-8").splitlines() if line)


def cells(line: str) -> List[str]:
    """A line's cells and the separators between them."""
    return re.split(r"([,\s()]+)", line)


def drift(golden: Dict[str, str], fresh: Dict[str, str]) -> List[str]:
    """One line per file that differs between two sets: how many of its
    numeric cells moved and the largest relative move, and how many
    other cells changed; a file in one set only, or whose row count
    changed, is named as such."""
    report = []
    for name in sorted(golden.keys() | fresh.keys()):
        if name not in golden or name not in fresh:
            report.append(f"{name}: only in the "
                          f"{'fresh' if name in fresh else 'checked-in'} set")
            continue
        old, new = golden[name].splitlines(), fresh[name].splitlines()
        if len(old) != len(new):
            report.append(f"{name}: {len(old)} rows -> {len(new)}")
            continue
        numeric = moved = other = 0
        largest = 0.0
        for old_line, new_line in zip(old, new):
            old_cells, new_cells = cells(old_line), cells(new_line)
            if len(old_cells) != len(new_cells):
                other += 1
                continue
            for a, b in zip(old_cells, new_cells):
                try:
                    x, y = float(a), float(b)
                except ValueError:
                    other += a != b
                    continue
                numeric += 1
                if a != b:
                    moved += 1
                    largest = max(largest, abs(y - x) / abs(x) if x
                                  else math.inf)
        if moved or other:
            report.append(f"{name}: {moved} of {numeric} numeric cells "
                          f"moved, largest relative move {largest:.2g}"
                          + (f"; {other} other cells changed" if other
                             else ""))
    return report or ["no cell moved"]


def main() -> int:
    from starfd import __version__
    with tempfile.TemporaryDirectory() as tmp:
        files = generate(Path(tmp), jobs=1)
    for line in drift(golden_files(), files):
        print(line)
    known = versions()
    new = digest(files)
    if known.get(__version__, new) != new:
        print(f"error: the outputs differ from the set recorded for "
              f"{__version__}; bump starfd.__version__ first",
              file=sys.stderr)
        return 1
    for name in golden_files():
        (GOLDEN / name).unlink()
    for name, text in files.items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
    if __version__ not in known:
        with open(VERSIONS, "a", encoding="utf-8") as fh:
            fh.write(f"{__version__} {new}\n")
    print(f"wrote {len(files)} files for {__version__} ({new})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
