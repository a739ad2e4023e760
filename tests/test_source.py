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


def full_law_draws(law, mu: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of the whole pair-number law, in no particular order."""
    k = rng.binomial(n, law.p_nonzero(mu))
    draws = np.zeros(n, dtype=np.int64)
    draws[:k] = law.truncated(mu, rng, k)
    return draws


def poisson_pmf(mu: float, n: int) -> float:
    return math.exp(-mu) * mu**n / math.factorial(n)


def thermal_pmf(mu: float, n: int) -> float:
    return mu**n / (1.0 + mu) ** (n + 1)


class TestThermalVariant:
    def test_moments(self):
        mu, n = 0.5, 10**6
        draws = full_law_draws(THERMAL_PAIRS, mu, substream(11, 0), n)
        # Bose-Einstein: mean mu, variance mu (1 + mu)
        assert_within_sigma(draws.mean(), mu, math.sqrt(mu * (1 + mu) / n), "thermal mean")
        p_ge1 = mu / (1 + mu)
        assert_within_sigma(np.mean(draws >= 1), p_ge1, math.sqrt(p_ge1 / n), "thermal tail")

    def test_mu_zero(self):
        assert THERMAL_PAIRS.p_nonzero(0.0) == 0.0
        assert np.all(full_law_draws(THERMAL_PAIRS, 0.0, substream(11, 1), 100) == 0)


class TestTruncatedLaws:
    @pytest.mark.parametrize("mu", [0.02, 0.5])
    @pytest.mark.parametrize(
        "law, pmf", [(POISSON_PAIRS, poisson_pmf), (THERMAL_PAIRS, thermal_pmf)], ids=["poisson", "thermal"]
    )
    def test_matches_zero_truncated_pmf(self, law, pmf, mu):
        n = 10**6
        p0 = law.p_nonzero(mu)
        assert p0 == pytest.approx(1.0 - pmf(mu, 0), rel=1e-12)
        draws = law.truncated(mu, substream(12, int(mu * 100)), n)
        assert draws.min() >= 1
        p1, p2 = pmf(mu, 1) / p0, pmf(mu, 2) / p0
        for label, observed, p in (
            ("n=1", np.count_nonzero(draws == 1), p1),
            ("n=2", np.count_nonzero(draws == 2), p2),
            ("n>=3", np.count_nonzero(draws >= 3), 1.0 - p1 - p2),
        ):
            assert_within_sigma(observed, n * p, math.sqrt(n * p * (1 - p)), f"{label} at mu={mu}")
