"""Deterministic random-number substreams, one per unit of work.

Each unit of work draws from its own generator keyed by the experiment
seed plus a small integer tuple: one per sweep row (seed, SWEEP_SPACE,
row), one per raster scan (seed, PIXEL_SPACE) and one per
characterization point (seed, CHARACTERIZE_SPACE, point). Streams are
reproducible across runs, and a unit's draws do not depend on how many
other units ran.
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
