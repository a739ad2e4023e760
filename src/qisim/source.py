"""Pair-source statistics: wavelength bookkeeping and per-pulse pair sampling.

The pump pulse converts two pump photons into a signal/idler pair, so the
idler (herald) wavelength follows from energy conservation,
2/lambda_pump = 1/lambda_signal + 1/lambda_idler.

The per-pulse pair number is sampled from a Poisson distribution by
default: the broadband multi-mode process populates many Schmidt modes, so
the single-mode thermal statistics wash out. The sampler is injectable
(see `thermal_pair_counts`) for studies of the strongly single-mode case.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

PairSampler = Callable[[float, np.random.Generator, int], np.ndarray]


def idler_wavelength(pump_nm: float, signal_nm: float) -> float:
    """Energy-conserving idler wavelength in nm for a two-photon pump."""
    if pump_nm <= 0 or signal_nm <= 0:
        raise ValueError("wavelengths must be positive")
    inv = 2.0 / pump_nm - 1.0 / signal_nm
    if inv <= 0:
        raise ValueError("no energy-conserving idler")
    return 1.0 / inv


def mean_photon_number(
    signal_counts_per_s: float, rep_rate_hz: float, eta_signal_detector: float
) -> float:
    """Mean photons per pulse inferred from a detected singles rate.

    Inverts N_s = mu * R_p * eta_ds, the calibration used to quote source
    brightness from the signal-arm count rate.
    """
    if rep_rate_hz <= 0:
        raise ValueError("rep_rate_hz must be positive")
    if not (0 < eta_signal_detector <= 1):
        raise ValueError("eta_signal_detector must be in (0, 1]")
    if signal_counts_per_s < 0:
        raise ValueError("signal_counts_per_s must be non-negative")
    return signal_counts_per_s / (rep_rate_hz * eta_signal_detector)


def poisson_pair_counts(mu: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Vectorized Poisson pair numbers, one draw per pulse."""
    if mu < 0:
        raise ValueError("mu must be non-negative")
    return rng.poisson(mu, size)


def thermal_pair_counts(mu: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Single-mode thermal (Bose-Einstein) pair numbers with mean mu.

    P(n) = mu^n / (1 + mu)^(n + 1); sampled as geometric failure counts.
    """
    if mu < 0:
        raise ValueError("mu must be non-negative")
    if mu == 0:
        return np.zeros(size, dtype=np.int64)
    return rng.geometric(1.0 / (1.0 + mu), size) - 1
