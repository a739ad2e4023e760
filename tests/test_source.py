import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qisim.rng import substream
from qisim.source import idler_wavelength, poisson_pair_counts

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
        for pump, signal in ((math.nan, 671), (793, math.nan)):
            with pytest.raises(ValueError, match="wavelengths must be positive"):
                idler_wavelength(pump, signal)

    @settings(max_examples=50)
    @given(
        pump=st.floats(300, 2000, allow_nan=False),
        ratio=st.floats(0.55, 0.99, allow_nan=False),
    )
    def test_involution(self, pump, ratio):
        signal = pump * ratio
        herald = idler_wavelength(pump, signal)
        assert idler_wavelength(pump, herald) == pytest.approx(signal, rel=1e-9)


class TestPairSampling:
    def test_mu_zero_is_always_zero(self):
        assert not poisson_pair_counts(0.0, substream(123), 1000).any()

    def test_sample_mean(self):
        mu, n = 0.01, 10**6
        draws = poisson_pair_counts(mu, substream(7, 1), n)
        assert_within_sigma(draws.mean(), mu, math.sqrt(mu / n), "pair mean")

    def test_sample_variance_equals_mean(self):
        # Poisson: Var N = mu, where a thermal law would give mu (1 + mu)
        mu, n = 0.5, 10**6
        draws = poisson_pair_counts(mu, substream(7, 3), n)
        # Var of the sample variance: (mu4 - sigma^4) / n, mu4 = mu (1 + 3 mu)
        std = math.sqrt((mu * (1 + 3 * mu) - mu**2) / n)
        assert_within_sigma(draws.var(), mu, std, "pair variance")

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

