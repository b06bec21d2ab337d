"""Characterization tests: fresh runs against the golden outputs checked
in under ``tests/golden/`` (see ``tests/golden/regen.py``)."""

import importlib.util
import math
from pathlib import Path

import pytest

from starfd import __version__

GOLDEN = Path(__file__).resolve().parent / "golden"
# Numbers may differ in the last bits between CPUs (numpy's SIMD loops).
RTOL = 1e-12


def _regen():
    loader = importlib.util.spec_from_file_location("golden_regen",
                                                    GOLDEN / "regen.py")
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


regen = _regen()


def _same_cell(golden, fresh):
    try:
        a, b = float(golden), float(fresh)
    except ValueError:
        return golden == fresh
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_runs_reproduce_the_golden_set(tmp_path, jobs):
    # Text cells, separators and row order exactly; numbers to RTOL.
    golden = regen.golden_files()
    fresh = regen.generate(tmp_path, jobs)
    assert sorted(fresh) == sorted(golden)
    for name, text in golden.items():
        lines, new = text.splitlines(), fresh[name].splitlines()
        assert len(new) == len(lines), name
        for k, (line, fresh_line) in enumerate(zip(lines, new)):
            cells, fresh_cells = regen.cells(line), regen.cells(fresh_line)
            assert len(fresh_cells) == len(cells), (name, k, fresh_line)
            for cell, fresh_cell in zip(cells, fresh_cells):
                assert _same_cell(cell, fresh_cell), (name, k, cell,
                                                     fresh_cell)


def test_golden_manifests_carry_the_version():
    manifests = {name: text for name, text in regen.golden_files().items()
                 if name.endswith(".manifest.txt")}
    assert len(manifests) == len(regen.specs())
    for name, text in manifests.items():
        assert f"({__version__})" in text.splitlines()[0], name


def test_golden_set_is_the_one_recorded_for_the_version():
    # A change to the golden set comes with a version bump and a new
    # VERSIONS line; rewriting the set under the same version fails here.
    assert regen.versions().get(__version__) == regen.digest(
        regen.golden_files())


def test_drift_reports_each_file_that_moved():
    # regen.py prints this before it refuses or rewrites a set, so a
    # version bump's drift comes from the tool.
    golden = {"a.csv": "x,y\n1.0,2.0\n", "b.csv": "n,1\n",
              "c.csv.manifest.txt": "# run manifest (0.1.0)\n"}
    assert regen.drift(golden, dict(golden)) == ["no cell moved"]
    fresh = {"a.csv": "x,y\n1.0,2.0000000000000004\n", "b.csv": "n,1\n",
             "c.csv.manifest.txt": "# run manifest (0.1.1)\n"}
    assert regen.drift(golden, fresh) == [
        "a.csv: 1 of 2 numeric cells moved, largest relative move 2.2e-16",
        "c.csv.manifest.txt: 0 of 0 numeric cells moved, largest relative "
        "move 0; 1 other cells changed"]
    assert regen.drift(golden, {"a.csv": "x,y\n1.0,2.0\n1.0,2.0\n"}) == [
        "a.csv: 2 rows -> 3", "b.csv: only in the checked-in set",
        "c.csv.manifest.txt: only in the checked-in set"]
