import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qisim.analytics import click_pattern_probabilities, click_probabilities
from qisim.channel import (
    _TAG_CHUNK,
    Channel,
    TimeTagStream,
    _bernoulli_indices,
    collection_fraction_max,
    read_qitt,
    read_tags_csv,
    simulate_counts,
    simulate_tags,
    write_qitt,
    write_tags_csv,
)
from qisim.model import ChannelParams, ExperimentConfig, SourceParams, validate_config
from qisim.rng import substream
from qisim.source import THERMAL_PAIRS

from .conftest import SIGMA, assert_within_sigma, binomial_std


def make_config(**overrides) -> ExperimentConfig:
    source = SourceParams(
        mu=overrides.pop("mu", 0.01),
        eta_herald=overrides.pop("eta_herald", 0.075),
        noise_herald_per_bin=overrides.pop("noise_herald_per_bin", 0.0),
    )
    channel = ChannelParams(
        collection_fraction=overrides.pop("collection_fraction", 0.05),
        eta_transmit=overrides.pop("eta_transmit", 0.9),
        eta_signal_detector=overrides.pop("eta_signal_detector", 0.6),
        background_per_bin=overrides.pop("background_per_bin", 0.0),
        dark_signal_per_bin=overrides.pop("dark_signal_per_bin", 0.0),
        jitter_signal_ps=overrides.pop("jitter_signal_ps", 300.0),
        jitter_herald_ps=overrides.pop("jitter_herald_ps", 300.0),
        dead_time_ps=overrides.pop("dead_time_ps", 0),
    )
    return validate_config(ExperimentConfig(source=source, channel=channel, **overrides))


class TestCollectionFraction:
    def test_tabletop_geometry(self):
        # 3 cm collectable mode at 32 cm standoff
        assert round(collection_fraction_max(0.03, 0.32), 4) == pytest.approx(1.1e-3)

    def test_zero_aperture(self):
        assert collection_fraction_max(0.0, 0.32) == 0.0

    @pytest.mark.parametrize("x", [0.1, 1.0, 7.3])
    def test_equal_diameter_and_distance(self, x):
        assert collection_fraction_max(x, x) == pytest.approx(0.125, rel=1e-12)

    def test_zero_distance_error(self):
        with pytest.raises(ValueError):
            collection_fraction_max(0.03, 0.0)


class TestSimulateCounts:
    def test_all_silent_when_no_light(self):
        cfg = make_config(mu=0.0)
        counts = simulate_counts(cfg, True, 10**6, substream(1, 0))
        assert (counts.n_signal_clicks, counts.n_herald_clicks, counts.n_coincidences) == (0, 0, 0)

    def test_perfect_correlation_limit(self):
        cfg = make_config(
            mu=0.01,
            eta_herald=1.0,
            collection_fraction=1.0,
            eta_transmit=1.0,
            eta_signal_detector=1.0,
        )
        n = 10**7
        counts = simulate_counts(cfg, True, n, substream(2, 0))
        expected = -math.expm1(-0.01)
        assert_within_sigma(
            counts.n_coincidences / n, expected, binomial_std(n, expected) / n, "P_sh"
        )
        # perfectly correlated: every pattern tally coincides
        assert counts.n_signal_clicks == counts.n_herald_clicks == counts.n_coincidences

    def test_target_out_independence(self):
        cfg = make_config(mu=0.01, eta_herald=0.1, background_per_bin=1e-3)
        n = 10**8
        counts = simulate_counts(cfg, False, n, substream(3, 0))
        bp = click_probabilities(cfg.source, cfg.channel, False)
        expected = bp.p_herald * bp.p_background
        assert bp.p_coincidence == pytest.approx(expected, rel=1e-12)
        assert_within_sigma(
            counts.n_coincidences / n, expected, binomial_std(n, expected) / n, "accidentals"
        )
        # empirical coincidences over the empirical singles product
        from qisim.correlator import estimate_g2

        ratio = estimate_g2(counts)
        assert abs(ratio.value - 1.0) <= SIGMA * ratio.std_err

    def test_monotone_in_mu(self):
        n = 10**7
        grid = [0.002, 0.005, 0.01, 0.02, 0.04]
        counts = []
        for i, mu in enumerate(grid):
            cfg = make_config(mu=mu, background_per_bin=1e-4)
            counts.append(simulate_counts(cfg, True, n, substream(4, i)).n_signal_clicks)
        for i in range(len(grid) - 1):
            slack = SIGMA * math.sqrt(counts[i] + counts[i + 1])
            assert counts[i + 1] >= counts[i] - slack

    def test_determinism(self):
        cfg = make_config(background_per_bin=1e-4)
        a = simulate_counts(cfg, True, 10**6, substream(cfg.seed, 8))
        b = simulate_counts(cfg, True, 10**6, substream(cfg.seed, 8))
        assert a == b


class TestSimulateTags:
    def test_empty_when_silent(self):
        cfg = make_config(mu=0.0)
        stream = simulate_tags(cfg, True, 10**4, substream(5, 0))
        assert len(stream) == 0
        assert stream.duration_ps == 10**4 * cfg.pulse_period_ps

    def test_sorted_and_in_range(self):
        cfg = make_config(background_per_bin=1e-3, dark_signal_per_bin=1e-4, mu=0.02)
        stream = simulate_tags(cfg, True, 10**5, substream(5, 1))
        assert stream.is_sorted()
        assert len(stream) > 0
        assert stream.times_ps.min() >= 0
        assert stream.times_ps.max() < stream.duration_ps

    def test_determinism(self):
        cfg = make_config(background_per_bin=1e-4)
        a = simulate_tags(cfg, True, 10**5, substream(cfg.seed, 9))
        b = simulate_tags(cfg, True, 10**5, substream(cfg.seed, 9))
        assert np.array_equal(a.times_ps, b.times_ps)
        assert np.array_equal(a.channels, b.channels)

    def test_click_semantics_one_tag_per_bin(self):
        # saturating rates force collisions that must be deduplicated
        cfg = make_config(mu=0.5, background_per_bin=0.5, dark_signal_per_bin=0.3)
        stream = simulate_tags(cfg, True, 2000, substream(6, 0))
        period, width = cfg.pulse_period_ps, cfg.channel.bin_width_ps
        for chan in (Channel.SIGNAL, Channel.HERALD):
            t = stream.times_ps[stream.channels == int(chan)]
            k = (t + period // 2) // period
            off = t - k * period
            in_bin = (2 * off >= -width) & (2 * off < width)
            bins = k[in_bin]
            assert np.unique(bins).size == bins.size

    def test_matches_aggregate_mode(self):
        # paired runs: explicit tag stream reduced by the correlator against
        # one multinomial draw, identical per-bin model on both sides
        from qisim.correlator import bin_and_count

        cfg = make_config(background_per_bin=1.25e-4, dark_signal_per_bin=1e-6)
        n = 10**6
        p11, p10, p01, _ = click_pattern_probabilities(cfg.source, cfg.channel, True)
        expect = {
            "signal": (p11 + p10, lambda c: c.n_signal_clicks),
            "herald": (p11 + p01, lambda c: c.n_herald_clicks),
            "coinc": (p11, lambda c: c.n_coincidences),
        }
        for pair in range(5):
            stream = simulate_tags(cfg, True, n, substream(7, pair, 0))
            tagged = bin_and_count(stream, cfg.channel.bin_width_ps, cfg.pulse_period_ps)
            counted = simulate_counts(cfg, True, n, substream(7, pair, 1))
            for name, (p, get) in expect.items():
                std = math.sqrt(2.0) * binomial_std(n, p)
                assert_within_sigma(get(tagged), get(counted), std, f"{name} pair {pair}")

    def test_thermal_sampler_rejects_nothing(self):
        # herald clicks: no noise click and no surviving herald photon,
        # E[(1 - eta_h)^n] = 1 / (1 + mu eta_h) for the thermal law
        cfg = make_config(mu=0.5, eta_herald=0.5, noise_herald_per_bin=1e-3, jitter_herald_ps=0.0)
        n = 10**5
        stream = simulate_tags(cfg, True, n, substream(8, 0), pair_law=THERMAL_PAIRS)
        assert stream.is_sorted()
        from qisim.correlator import bin_and_count

        counts = bin_and_count(stream, cfg.channel.bin_width_ps, cfg.pulse_period_ps)
        p_h = 1.0 - math.exp(-1e-3) / (1.0 + 0.5 * 0.5)
        assert_within_sigma(counts.n_herald_clicks, n * p_h, binomial_std(n, p_h), "thermal heralds")

    def test_rejects_negative_pulse_count(self):
        with pytest.raises(ValueError, match="n_pulses"):
            simulate_tags(make_config(), True, -5, substream(8, 1))

    def test_dead_time_enforced(self):
        cfg = make_config(
            mu=0.0,
            dark_signal_per_bin=0.5,
            dead_time_ps=50_000,
        )
        stream = simulate_tags(cfg, True, 5000, substream(9, 0))
        sig = stream.times_ps[stream.channels == int(Channel.SIGNAL)]
        assert sig.size > 1
        assert np.all(np.diff(sig) >= 50_000)


class TestStreamFormats:
    def make_stream(self) -> TimeTagStream:
        cfg = make_config(background_per_bin=1e-3, dark_signal_per_bin=1e-4, mu=0.02)
        return simulate_tags(cfg, True, 20_000, substream(10, 0))

    def test_qitt_round_trip(self, tmp_path):
        stream = self.make_stream()
        path = tmp_path / "tags.qitt"
        write_qitt(stream, str(path))
        back = read_qitt(str(path))
        assert back.duration_ps == stream.duration_ps
        assert np.array_equal(back.times_ps, stream.times_ps)
        assert np.array_equal(back.channels, stream.channels)
        # a loaded stream feeds the correlator directly
        from qisim.correlator import bin_and_count

        counted = bin_and_count(back, 2000, 12500)
        assert counted == bin_and_count(stream, 2000, 12500)
        assert counted.n_signal_clicks > 0

    def test_qitt_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.qitt"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(ValueError, match="not a QITT file"):
            read_qitt(str(path))

    def test_csv_round_trip(self, tmp_path):
        stream = self.make_stream()
        path = tmp_path / "tags.csv"
        write_tags_csv(stream, str(path))
        back = read_tags_csv(str(path))
        assert back.duration_ps == stream.duration_ps
        assert np.array_equal(back.times_ps, stream.times_ps)
        assert np.array_equal(back.channels, stream.channels)

    def test_csv_golden_bytes(self, tmp_path):
        stream = TimeTagStream.from_arrays([0, 1, 0], [5, 5, 12_499], 25_000)
        path = tmp_path / "tags.csv"
        write_tags_csv(stream, str(path))
        assert path.read_bytes() == (
            b"# duration_ps=25000\nchannel,time_ps\nsignal,5\nherald,5\nsignal,12499\n"
        )

    def test_csv_rejects_unknown_channel_code(self, tmp_path):
        stream = TimeTagStream.from_arrays([0, 7], [5, 6], 25_000)
        with pytest.raises(ValueError, match="7"):
            write_tags_csv(stream, str(tmp_path / "tags.csv"))

    def test_csv_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("channel,time_ps\nsideways,12\n")
        with pytest.raises(ValueError, match="bad tag record"):
            read_tags_csv(str(path))


@settings(max_examples=20, deadline=None)
@given(
    mu=st.floats(0.0, 0.05, allow_nan=False),
    beta=st.floats(0.0, 1e-3, allow_nan=False),
    n_pulses=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_tag_stream_postconditions(mu, beta, n_pulses, seed):
    cfg = make_config(mu=mu, background_per_bin=beta, dark_signal_per_bin=1e-4)
    stream = simulate_tags(cfg, True, n_pulses, substream(seed))
    assert stream.is_sorted()
    if len(stream):
        assert stream.times_ps.min() >= 0
        assert stream.times_ps.max() < stream.duration_ps


class TestBernoulliIndices:
    @pytest.mark.parametrize(
        "p, n",
        [(1e-3, 10**6), (0.3, 10**5), (0.5, 3 * _TAG_CHUNK), (1.0, 1000), (0.7, 1), (0.5, 0)],
    )
    def test_sorted_in_range_and_count(self, p, n):
        idx = _bernoulli_indices(p, n, substream(13, n))
        assert np.all(np.diff(idx) > 0)
        if idx.size:
            assert idx[0] >= 0 and idx[-1] < n
        assert_within_sigma(idx.size, n * p, binomial_std(n, p), f"count at p={p}")

    def test_certain_success_is_every_pulse(self):
        # spans three blocks, so a success lost at a block edge shows
        n = 2 * _TAG_CHUNK + 5
        assert np.array_equal(_bernoulli_indices(1.0, n, substream(13, 1)), np.arange(n))

    @pytest.mark.parametrize("p", [0.0, 5e-324])
    def test_impossible_or_subnormal_p(self, p):
        # a subnormal p makes the geometric gaps saturate at the int64 maximum
        assert _bernoulli_indices(p, 10**6, substream(13, 2)).size == 0

    def test_rejects_probability_outside_unit_interval(self):
        with pytest.raises(ValueError):
            _bernoulli_indices(-1e-3, 10, substream(13, 3))
