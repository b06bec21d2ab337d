"""Every module of the package imports, and every name its ``__all__``
lists exists, so a deletion cannot leave a stale export behind."""

import importlib
import pkgutil

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
