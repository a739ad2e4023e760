import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qisim.rng import substream
from qisim.source import (
    POISSON_PAIRS,
    THERMAL_PAIRS,
    idler_wavelength,
    mean_photon_number,
    poisson_pair_counts,
)

from .conftest import assert_within_sigma


class TestIdlerWavelength:
    def test_pump_793_signal_671(self):
        # arithmetic oracle: 1 / (2/793 - 1/671)
        assert idler_wavelength(793, 671) == pytest.approx(969.222, abs=1e-3)

    def test_degenerate_case(self):
        assert idler_wavelength(800, 800) == pytest.approx(800.0, rel=1e-12)

    def test_hand_evaluated_case(self):
        assert idler_wavelength(780, 650) == pytest.approx(975.0, rel=1e-12)

    def test_no_energy_conserving_idler(self):
        with pytest.raises(ValueError, match="no energy-conserving idler"):
            idler_wavelength(800, 390)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            idler_wavelength(0, 671)

    @settings(max_examples=50)
    @given(
        pump=st.floats(300, 2000, allow_nan=False),
        ratio=st.floats(0.55, 0.99, allow_nan=False),
    )
    def test_involution(self, pump, ratio):
        signal = pump * ratio
        herald = idler_wavelength(pump, signal)
        assert idler_wavelength(pump, herald) == pytest.approx(signal, rel=1e-9)


class TestMeanPhotonNumber:
    def test_quoted_rates(self):
        assert mean_photon_number(1.3e6, 80e6, 0.6) == pytest.approx(0.0271, abs=5e-5)

    def test_zero_counts(self):
        assert mean_photon_number(0.0, 80e6, 0.6) == 0.0

    def test_round_value(self):
        assert mean_photon_number(4.8e5, 80e6, 0.6) == pytest.approx(0.01, rel=1e-12)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            mean_photon_number(1e6, 0.0, 0.6)
        with pytest.raises(ValueError):
            mean_photon_number(1e6, 80e6, 0.0)


class TestPairSampling:
    def test_mu_zero_is_always_zero(self):
        assert not poisson_pair_counts(0.0, substream(123), 1000).any()

    def test_sample_mean(self):
        mu, n = 0.01, 10**6
        draws = poisson_pair_counts(mu, substream(7, 1), n)
        assert_within_sigma(draws.mean(), mu, math.sqrt(mu / n), "pair mean")

    def test_multi_pair_tail(self):
        mu, n = 0.01, 10**7
        draws = poisson_pair_counts(mu, substream(7, 2), n)
        expected = 1.0 - math.exp(-mu) * (1.0 + mu)  # P(N >= 2)
        frac = np.mean(draws >= 2)
        assert_within_sigma(frac, expected, math.sqrt(expected / n), "pair tail")

    def test_reproducible_with_fixed_seed(self):
        a = poisson_pair_counts(0.02, substream(99, 5), 1000)
        b = poisson_pair_counts(0.02, substream(99, 5), 1000)
        assert np.array_equal(a, b)

    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            poisson_pair_counts(-0.1, substream(1), 1000)


def poisson_pmf(mu: float, n: int) -> float:
    return math.exp(-mu) * mu**n / math.factorial(n)


def thermal_pmf(mu: float, n: int) -> float:
    return mu**n / (1.0 + mu) ** (n + 1)


def pgf_series(pmf, mu: float, z: float) -> float:
    """G(z) = sum_n P(n) z^n, summed until the terms vanish (mu <= 0.5)."""
    return math.fsum(pmf(mu, n) * z**n for n in range(80))


def factorial_cumulant(law, mu: float, order: int, h: float = 1e-4) -> float:
    """d^k/ds^k log G(1 + s) at s = 0, by central differences of log_pgf(mu, -s)."""
    f = [float(law.log_pgf(mu, -s)) for s in (-h, 0.0, h)]
    return (f[2] - f[0]) / (2 * h) if order == 1 else (f[2] - 2 * f[1] + f[0]) / h**2


class TestThermalVariant:
    def test_moments(self):
        # Bose-Einstein: mean mu, variance mu (1 + mu), P(n >= 1) = mu / (1 + mu).
        # The first two factorial cumulants are the mean and variance - mean.
        mu = 0.5
        assert factorial_cumulant(THERMAL_PAIRS, mu, 1) == pytest.approx(mu, rel=1e-8, abs=0)
        variance = mu + factorial_cumulant(THERMAL_PAIRS, mu, 2)
        assert variance == pytest.approx(mu * (1 + mu), rel=1e-6, abs=0)
        p_ge1 = -math.expm1(THERMAL_PAIRS.log_pgf(mu, 1.0))
        assert p_ge1 == pytest.approx(mu / (1 + mu), rel=1e-15, abs=0)
        # Poisson for contrast: variance = mean
        assert factorial_cumulant(POISSON_PAIRS, mu, 2) == pytest.approx(0.0, abs=1e-6)

    def test_mu_zero(self):
        # no pairs: nothing is ever detected and the channels are uncorrelated
        for law in (POISSON_PAIRS, THERMAL_PAIRS):
            for q in (0.0, 0.3, 1.0):
                assert law.log_pgf(0.0, q) == 0.0
                assert law.log_pair_excess(0.0, q, 0.5) == 0.0


class TestPairLawPgf:
    @pytest.mark.parametrize("mu", [0.02, 0.5])
    @pytest.mark.parametrize(
        "law, pmf", [(POISSON_PAIRS, poisson_pmf), (THERMAL_PAIRS, thermal_pmf)], ids=["poisson", "thermal"]
    )
    def test_matches_pmf_series(self, law, pmf, mu):
        # exp(log_pgf(mu, 1)) = G(0) = P(0)
        assert math.exp(law.log_pgf(mu, 1.0)) == pytest.approx(pmf(mu, 0), rel=1e-14, abs=0)
        assert factorial_cumulant(law, mu, 1) == pytest.approx(mu, rel=1e-8, abs=0)
        for q in (0.1, 0.5, 0.9):
            series = pgf_series(pmf, mu, 1 - q)
            assert math.exp(law.log_pgf(mu, q)) == pytest.approx(series, rel=1e-13, abs=0)
        for q_s, q_h in ((0.3, 0.5), (0.9, 0.2), (1.0, 1.0)):
            three_logs = (
                math.log(pgf_series(pmf, mu, (1 - q_s) * (1 - q_h)))
                - math.log(pgf_series(pmf, mu, 1 - q_s))
                - math.log(pgf_series(pmf, mu, 1 - q_h))
            )
            assert law.log_pair_excess(mu, q_s, q_h) == pytest.approx(three_logs, rel=1e-9, abs=0)
