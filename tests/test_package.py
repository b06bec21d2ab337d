"""Every module of the package imports, and every name its ``__all__``
lists exists, so a deletion cannot leave a stale export behind; the
README's library example runs."""

import importlib
import pkgutil
from pathlib import Path

import starfd


def test_every_exported_name_resolves():
    # starfd.__main__ runs the command line when imported.
    names = sorted(m.name for m in pkgutil.iter_modules(starfd.__path__)
                   if m.name != "__main__")
    assert "cli" in names and "specfun" in names
    missing = []
    for name in names:
        module = importlib.import_module(f"starfd.{name}")
        missing += [f"starfd.{name}.{attr}"
                    for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    # The README's first Library example, run as written: a name that
    # moves to another module must take the example's import with it.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    library = readme[readme.index("\n## Library\n"):]
    start = library.index("```python\n") + len("```python\n")
    code = library[start:library.index("```", start)]
    exec(compile(code, "README.md", "exec"), {})
    cf, mc = capsys.readouterr().out.splitlines()
    assert cf.startswith("RateReport(scenario='noma-pair', estimator='cf'")
    assert mc.startswith("RateReport(scenario='noma-pair', estimator='mc'")
