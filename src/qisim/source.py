"""Pair-source statistics: wavelength bookkeeping and the pair number.

The pump pulse converts two pump photons into a signal/idler pair, so the
idler (herald) wavelength follows from energy conservation,
2/lambda_pump = 1/lambda_signal + 1/lambda_idler.

The pair number of a pulse is Poisson with mean mu: the broadband
multi-mode four-wave-mixing process populates many Schmidt modes, so the
single-mode thermal statistics wash out. `model.click_pattern_probabilities`
writes out the click-pattern closed form of that law, and both acquisition
modes sample from it.
"""

from __future__ import annotations

import numpy as np


def idler_wavelength(pump_nm: float, signal_nm: float) -> float:
    """Energy-conserving idler wavelength in nm for a two-photon pump."""
    if not (pump_nm > 0 and signal_nm > 0):  # also rejects NaN
        raise ValueError("wavelengths must be positive")
    inv = 2.0 / pump_nm - 1.0 / signal_nm
    if not inv > 0:
        raise ValueError("no energy-conserving idler")
    return 1.0 / inv


def poisson_pair_counts(mu: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Vectorized Poisson pair numbers, one draw per pulse."""
    if mu < 0:
        raise ValueError("mu must be non-negative")
    return rng.poisson(mu, size)
