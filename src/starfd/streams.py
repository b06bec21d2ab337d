"""Seed-keyed random streams.

Every random draw in the package comes from a generator keyed by the
run's seed and the draw's position: the Monte-Carlo block (see
:mod:`starfd.rates_mc`) or the grid point and design of a random
surface state (see :mod:`starfd.cli`).

numpy's ``bit_generator`` does ``from secrets import randbits`` to seed
a generator from OS entropy when no seed is given. ``secrets`` imports
``hmac`` and ``hashlib``, which map OpenSSL's ``libcrypto`` (several MB
of resident memory) into the process. The streams here are always
seeded, so this module imports ``numpy.random`` with a stand-in
``secrets`` that holds only ``randbits``, defined as ``secrets`` itself
defines it (``SystemRandom().getrandbits``), and removes the stand-in
afterwards, so a later ``import secrets`` loads the real module. A
process that already loaded either module is left as it is. The import
runs once, when this module is first imported; callers import it before
any worker thread starts, so no other thread can see the stand-in.
"""

from __future__ import annotations

import random
import sys
import types

import numpy as np

__all__ = ["keyed_rng"]


def _import_numpy_random() -> None:
    """Import ``numpy.random``, under the stand-in ``secrets`` unless
    ``numpy.random`` or ``secrets`` is loaded already."""
    stand_in = None
    if "numpy.random" not in sys.modules and "secrets" not in sys.modules:
        stand_in = types.ModuleType("secrets")
        stand_in.randbits = random.SystemRandom().getrandbits
        sys.modules["secrets"] = stand_in
    try:
        import numpy.random
    finally:
        if stand_in is not None and sys.modules.get("secrets") is stand_in:
            del sys.modules["secrets"]


_import_numpy_random()


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """numpy's default generator (PCG64) on the stream of ``seed`` keyed
    by ``key``: ``default_rng(SeedSequence(entropy=seed, spawn_key=key))``.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=key))
