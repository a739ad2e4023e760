"""Deterministic random-number substreams, one per unit of work.

Each unit of work draws from its own generator keyed by the experiment
seed plus a tuple of small non-negative integers. A sweep row or a
characterization point is keyed by its value: (seed, SWEEP_SPACE or
CHARACTERIZE_SPACE, hi, lo, occurrence), where hi and lo are the upper and
lower 32 bits of the value's float64 bits and occurrence is the number of
earlier points with the same bits. So a point's draws do not depend on the
other points, and extending or splitting a grid reproduces the points
already run. The bits go in as two 32-bit words because numpy splits a
key integer of 2**32 or more into several words: as one item, (1, 2**32 + 7)
would give the same stream as (1, 7, 1). A raster scan owns one generator,
(seed, PIXEL_SPACE), because it draws every pixel in one vectorized call;
so a pixel's draws depend on the scene's shape. Streams are reproducible
across runs.
"""

from __future__ import annotations

import numpy as np

# Key namespaces, so different orchestrators can never collide.
SWEEP_SPACE = 1
PIXEL_SPACE = 2
CHARACTERIZE_SPACE = 3


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return an independent generator for (seed, *key).

    The same (seed, key) always yields the same stream; distinct keys give
    statistically independent streams.
    """
    if any(k < 0 for k in key):
        raise ValueError("substream key components must be non-negative")
    seq = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(seq)
