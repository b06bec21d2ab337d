import numpy as np
import pytest

from starfd.streams import keyed_rng


@pytest.mark.parametrize("seed, key", [
    (2026, (0,)), (8, (3,)),                # a Monte-Carlo block (b,)
    (2026, (0, 2, 1)), (7, (4, 1, 1)),      # a random design (point, j, 1)
])
def test_keyed_rng_is_the_keyed_seed_sequence(seed, key):
    # Every stream the package draws is this one, so the CSV depends on
    # it bit for bit.
    got = keyed_rng(seed, *key)
    want = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=key))
    assert got.bit_generator.state == want.bit_generator.state
    for draw in ("random", "standard_normal"):
        assert np.array_equal(getattr(got, draw)((3, 5)),
                              getattr(want, draw)((3, 5)))
    assert np.array_equal(got.uniform(0.0, 6.0, 7), want.uniform(0.0, 6.0, 7))

