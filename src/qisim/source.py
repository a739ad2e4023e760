"""Pair-source statistics: wavelength bookkeeping and pair-number laws.

The pump pulse converts two pump photons into a signal/idler pair, so the
idler (herald) wavelength follows from energy conservation,
2/lambda_pump = 1/lambda_signal + 1/lambda_idler.

The pair number of a pulse is Poisson by default: the broadband multi-mode
process populates many Schmidt modes, so the single-mode thermal
statistics wash out. `THERMAL_PAIRS` covers the strongly single-mode case.
A `PairLaw` is given as P(n > 0) plus a sampler of the zero-truncated law
P(n | n >= 1), so the tag simulator draws pair numbers for pair-bearing
pulses only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class PairLaw:
    """Per-pulse pair-number law with mean mu.

    `p_nonzero(mu)` is P(n > 0); `truncated(mu, rng, size)` draws `size`
    pair numbers from P(n | n >= 1).
    """

    p_nonzero: Callable[[float], float]
    truncated: Callable[[float, np.random.Generator, int], np.ndarray]


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


def _poisson_truncated(mu: float, rng: np.random.Generator, size: int) -> np.ndarray:
    # Pairs are the arrivals of a rate-mu process on [0, 1). Given one
    # arrival, the first one T is drawn by inversion of its truncated
    # exponential law; the rest of the pulse adds Poisson(mu (1 - T)), and
    # mu (1 - T) = mu + log1p(u expm1(-mu)).
    rest = mu + np.log1p(rng.random(size) * math.expm1(-mu))
    return 1 + rng.poisson(np.maximum(rest, 0.0))


POISSON_PAIRS = PairLaw(lambda mu: -math.expm1(-mu), _poisson_truncated)

# Single-mode thermal (Bose-Einstein): P(n) = mu^n / (1 + mu)^(n + 1). It is
# memoryless, so n given n >= 1 is a geometric trial count.
THERMAL_PAIRS = PairLaw(
    lambda mu: mu / (1.0 + mu),
    lambda mu, rng, size: rng.geometric(1.0 / (1.0 + mu), size),
)
