"""Run the ``starfd`` command line as ``python -m starfd``."""
from .cli import main

raise SystemExit(main())
