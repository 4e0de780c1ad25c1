"""Weighted draws from a cached cumulative table.

rng.choice(len(p), size, p=p) validates p, builds cdf = cumsum(p) /
cumsum(p)[-1] and searches it with rng.random(size) on every call. Building
the table once per distribution and searching it gives the same indices from
the same generator calls, so a run's draws and the generator state after
them are unchanged.
"""

import numpy as np


def cdf_of(probs):
    """The table a draw reads: cumsum(p) / cumsum(p)[-1]."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return cdf


def draw_index(cdf, rng, size=None):
    """Indices drawn i.i.d. from the distribution behind a cdf_of table."""
    return cdf.searchsorted(rng.random(size), side="right")
