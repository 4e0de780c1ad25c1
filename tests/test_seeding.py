"""The array seeding pass against numpy's own generators."""

import numpy as np
import pytest

from collidesim._seeding import BLOCK, first_doubles


def _numpy_first(seed, ks):
    return np.array([np.random.default_rng(np.random.SeedSequence((seed, k))).random() for k in ks])


# (seed, first run, run count): 100,169 pairs. Seeds of one to three uint32
# words; run indices across the 2^32 and 2^64 - 1 word boundaries; one range
# spanning several blocks.
CASES = (
    (0, 0, 3 * BLOCK + 17),
    (1, 0, 20_000),
    (2**32 - 1, 0, 10_000),
    (2**32, 2**32 - 3_000, 6_000),
    (2**40 + 3, 5 * BLOCK - 500, 1_000),
    (2**64 - 1, 0, 5_000),
    (2**64, 2**32 + 11, 4_000),
    (2**64 + 3, 2**64 - 2_000, 2_000),
    (2**90 + 12345, 0, 3_000),
)


@pytest.mark.parametrize("seed, start, count", CASES)
def test_first_doubles_match_numpy(seed, start, count):
    got = first_doubles(seed, start, start + count)
    assert got.tobytes() == _numpy_first(seed, range(start, start + count)).tobytes()


def test_first_doubles_cover_enough_pairs():
    assert sum(count for _, _, count in CASES) >= 100_000
    assert CASES[0][2] > 3 * BLOCK


def test_first_doubles_refuse_what_seed_sequence_refuses():
    assert first_doubles(5, 7, 7).shape == (0,)
    for seed, start, stop in ((-1, 0, 1), (0, -1, 1), (0, 2**64, 2**64 + 1)):
        with pytest.raises(ValueError):
            first_doubles(seed, start, stop)
