"""The fault catalogue (``faults.py``) stays current with the code."""

from pathlib import Path

import pytest

from faults import FAULTS, main

ROOT = Path(__file__).resolve().parents[1]


def test_each_fault_applies_at_exactly_one_place():
    # A refactor that moves a fault's code names the stale entry here;
    # the runner itself takes minutes and runs apart from the suite.
    sources = {path.relative_to(ROOT).as_posix(): path.read_text("utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    for fault in FAULTS:
        found = {name: text.count(fault.old)
                 for name, text in sources.items() if fault.old in text}
        assert found == {fault.file: 1}, fault
        assert fault.new != fault.old
        test_file, *names = fault.test.split("::")
        tests = (ROOT / test_file).read_text("utf-8")
        for name in names[:-1]:
            assert f"class {name}:" in tests, fault.test
        assert f"def {names[-1].split('[')[0]}(" in tests, fault.test


def listed(capsys, argv):
    """The entry indices that ``faults.py --list`` prints for ``argv``."""
    assert main(["--list", *argv]) == 0
    return [int(line.split(":")[0])
            for line in capsys.readouterr().out.splitlines()
            if not line.startswith(" ")]


def test_file_option_runs_only_that_files_entries(capsys):
    # A change to one module re-runs the entries on it, not all of them.
    kernel = [index for index, fault in enumerate(FAULTS)
              if fault.file == "src/starfd/kernel.py"]
    assert len(kernel) > 1
    assert listed(capsys, ["--file", "src/starfd/kernel.py"]) == kernel
    # Indices narrow the file's entries further.
    assert listed(capsys, ["--file", "src/starfd/kernel.py",
                           str(kernel[0]), "0"]) == kernel[:1]
    with pytest.raises(SystemExit) as exit_info:
        main(["--list", "--file", "src/starfd/nowhere.py"])
    assert exit_info.value.code == 2
