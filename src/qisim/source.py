"""Pair-source statistics: wavelength bookkeeping and pair-number laws.

The pump pulse converts two pump photons into a signal/idler pair, so the
idler (herald) wavelength follows from energy conservation,
2/lambda_pump = 1/lambda_signal + 1/lambda_idler.

The pair number of a pulse is Poisson by default: the broadband multi-mode
process populates many Schmidt modes, so the single-mode thermal
statistics wash out. `THERMAL_PAIRS` covers the strongly single-mode case.
A `PairLaw` is given by its probability generating function G(z) = E[z^n]
(Mandel & Wolf, Optical Coherence and Quantum Optics, 1995, on photocount
generating functions): if each pair is detected with probability q, no pair
is detected with probability G(1 - q). That is all the click-pattern closed
form of `model.click_pattern_probabilities` needs, and both acquisition
modes sample from that closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class PairLaw:
    """Per-pulse pair-number law with mean mu, as two closed forms of its
    generating function G. Both take numpy arrays and broadcast.

    `log_pgf(mu, q)` is log G(1 - q), the log-probability that none of the
    pairs is detected when each is, independently, with probability q.
    `log_pair_excess(mu, q_s, q_h)` is
    log G((1 - q_s)(1 - q_h)) - log G(1 - q_s) - log G(1 - q_h), the
    correlation of "no signal photon" and "no herald photon". It is written
    out per law, because as a difference of three logs it loses most of its
    digits at small mu and q.
    """

    log_pgf: Callable[[float, float], float]
    log_pair_excess: Callable[[float, float, float], float]


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


# G(z) = exp(-mu (1 - z))
POISSON_PAIRS = PairLaw(
    log_pgf=lambda mu, q: -mu * q,
    log_pair_excess=lambda mu, q_s, q_h: mu * q_s * q_h,
)

# Single-mode thermal (Bose-Einstein): P(n) = mu^n / (1 + mu)^(n + 1), so
# G(z) = 1 / (1 + mu (1 - z)).
THERMAL_PAIRS = PairLaw(
    log_pgf=lambda mu, q: -np.log1p(mu * q),
    log_pair_excess=lambda mu, q_s, q_h: np.log1p(
        mu * (1.0 + mu) * q_s * q_h / (1.0 + mu * (q_s + q_h - q_s * q_h))
    ),
)
