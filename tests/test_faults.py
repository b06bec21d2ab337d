"""The fault catalogue (``faults.py``) stays current with the code."""

from pathlib import Path

from faults import FAULTS

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
