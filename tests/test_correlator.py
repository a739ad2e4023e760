import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qisim.channel import Channel, StreamOrderError, TimeTagStream
from qisim.correlator import bin_and_count, estimate_g2, windowed_coincidences
from qisim.model import ClickCounts

PERIOD = 12500
WIDTH = 2000


def stream_from(signal, herald, duration):
    channels = [int(Channel.SIGNAL)] * len(signal) + [int(Channel.HERALD)] * len(herald)
    return TimeTagStream.from_arrays(channels, list(signal) + list(herald), duration)


def brute_force_bins(stream, bin_width, period):
    """Independent oracle: test every bin for membership of every tag."""
    n_pulses = stream.duration_ps // period
    sig = stream.times_ps[stream.channels == int(Channel.SIGNAL)]
    her = stream.times_ps[stream.channels == int(Channel.HERALD)]
    n_s = n_h = n_c = 0
    for k in range(n_pulses):
        center = k * period
        s_hit = bool(np.any((2 * (sig - center) >= -bin_width) & (2 * (sig - center) < bin_width)))
        h_hit = bool(np.any((2 * (her - center) >= -bin_width) & (2 * (her - center) < bin_width)))
        n_s += s_hit
        n_h += h_hit
        n_c += s_hit and h_hit
    return n_s, n_h, n_c


def two_pointer_pairs(stream, half_window_ps):
    """Reference for windowed_coincidences: one two-pointer merge over the whole stream."""
    sig = stream.times_ps[stream.channels == int(Channel.SIGNAL)]
    her = stream.times_ps[stream.channels == int(Channel.HERALD)]
    i = j = count = 0
    n_s, n_h = sig.size, her.size
    while i < n_s and j < n_h:
        dt = int(sig[i]) - int(her[j])
        if abs(dt) <= half_window_ps:
            count += 1
            i += 1
            j += 1
        elif dt < 0:
            i += 1
        else:
            j += 1
    return count


def max_matching(signal, herald, tau):
    """Brute-force maximum matching size for small instances."""
    best = 0
    n = min(len(signal), len(herald))
    for k in range(n, 0, -1):
        for s_sub in itertools.combinations(signal, k):
            for h_perm in itertools.permutations(herald, k):
                if all(abs(s - h) <= tau for s, h in zip(s_sub, h_perm)):
                    return k
    return best


class TestBinAndCount:
    def test_same_bin_coincidence(self):
        stream = stream_from([12500], [12600], duration=25000)
        counts = bin_and_count(stream, WIDTH, PERIOD)
        assert (counts.n_signal_clicks, counts.n_herald_clicks, counts.n_coincidences) == (1, 1, 1)

    def test_herald_outside_bin(self):
        stream = stream_from([12500], [15500], duration=25000)
        counts = bin_and_count(stream, WIDTH, PERIOD)
        assert counts.n_coincidences == 0
        assert counts.n_signal_clicks == 1
        assert counts.n_herald_clicks == 0  # 3 ns off the pulse, discarded

    def test_multiple_tags_in_bin_count_once(self):
        stream = stream_from([12400, 12500, 12600], [12550], duration=25000)
        counts = bin_and_count(stream, WIDTH, PERIOD)
        assert counts.n_signal_clicks == 1
        assert counts.n_coincidences == 1

    def test_unsorted_stream_rejected(self):
        # the stream checks its order when it is built, before any reduction
        with pytest.raises(StreamOrderError, match="unsorted stream"):
            TimeTagStream(
                channels=np.array([0, 0], dtype=np.uint8),
                times_ps=np.array([200, 100], dtype=np.int64),
                duration_ps=25000,
            )

    def test_bad_bin_width_rejected(self):
        stream = stream_from([100], [], duration=25000)
        with pytest.raises(ValueError):
            bin_and_count(stream, 0, PERIOD)
        with pytest.raises(ValueError):
            bin_and_count(stream, PERIOD + 1, PERIOD)

    def test_against_brute_force(self):
        rng = np.random.default_rng(1234)
        for trial in range(100):
            n_pulses = int(rng.integers(1, 100))
            duration = n_pulses * PERIOD
            n_tags = int(rng.integers(0, 200))
            times = rng.integers(0, duration, n_tags)
            channels = rng.integers(0, 2, n_tags).astype(np.uint8)
            stream = TimeTagStream.from_arrays(channels, times, duration, sort=True)
            got = bin_and_count(stream, WIDTH, PERIOD)
            n_s, n_h, n_c = brute_force_bins(stream, WIDTH, PERIOD)
            assert (got.n_signal_clicks, got.n_herald_clicks, got.n_coincidences) == (
                n_s,
                n_h,
                n_c,
            ), f"trial {trial}"


class TestWindowedCoincidences:
    def test_single_pair_inside_window(self):
        assert windowed_coincidences(stream_from([100], [100], 10_000), 1000) == 1

    def test_single_pair_outside_window(self):
        assert windowed_coincidences(stream_from([100], [5000], 10_000), 1000) == 0

    def test_greedy_instance(self):
        signal = [10_000, 12_000, 30_000]
        herald = [11_000, 29_000, 31_000]
        stream = stream_from(signal, herald, 40_000)
        got = windowed_coincidences(stream, 1500)
        assert got == 2
        # greedy is not guaranteed optimal, but on this instance it is
        assert got == max_matching(signal, herald, 1500)

    def test_each_tag_matched_once(self):
        # one herald cannot pair with both signals
        assert windowed_coincidences(stream_from([100, 150], [120], 10_000), 1000) == 1

    def test_unsorted_rejected(self):
        with pytest.raises(StreamOrderError):
            TimeTagStream(
                channels=np.array([1, 0], dtype=np.uint8),
                times_ps=np.array([500, 100], dtype=np.int64),
                duration_ps=1000,
            )
        # equal times: Signal must come before Herald
        with pytest.raises(StreamOrderError):
            TimeTagStream.from_arrays([1, 0], [100, 100], 1000, sort=False)

    def test_matches_two_pointer_merge_on_dense_streams(self):
        # dense random streams: equal-time ties, zero windows and one-channel
        # streams
        gen = np.random.default_rng(2024)
        for trial in range(2000):
            n_tags = int(gen.integers(0, 40))
            times = gen.integers(0, int(gen.choice([20, 200, 2000])), n_tags)
            codes = [(0,), (1,), (0, 1), (0, 1), (0, 1)][trial % 5]
            channels = gen.choice(codes, n_tags).astype(np.uint8)
            stream = TimeTagStream.from_arrays(channels, times, 2000)
            for half_window in (0, 1, 5, 30, 500):
                assert windowed_coincidences(stream, half_window) == two_pointer_pairs(
                    stream, half_window
                ), f"trial {trial}, half window {half_window}"

    @settings(max_examples=25, deadline=None)
    @given(
        pulses_s=st.sets(st.integers(0, 60), max_size=40),
        pulses_h=st.sets(st.integers(0, 60), max_size=40),
    )
    def test_agrees_with_binning_on_pulse_centered_streams(self, pulses_s, pulses_h):
        # one tag per channel per bin, all tags exactly on pulse centers:
        # pulse-locked binning and windowed matching must agree exactly
        duration = 61 * PERIOD
        signal = [k * PERIOD for k in sorted(pulses_s)]
        herald = [k * PERIOD for k in sorted(pulses_h)]
        stream = stream_from(signal, herald, duration)
        binned = bin_and_count(stream, WIDTH, PERIOD)
        assert windowed_coincidences(stream, WIDTH // 2) == binned.n_coincidences


class TestEstimateG2:
    def test_perfectly_correlated(self):
        counts = ClickCounts(10**6, 1000, 1000, 1000)
        assert estimate_g2(counts).value == pytest.approx(1000.0, rel=1e-12)

    def test_uncorrelated(self):
        counts = ClickCounts(10**6, 1000, 1000, 1)
        assert estimate_g2(counts).value == pytest.approx(1.0, rel=1e-12)

    def test_quoted_maximum_rate_tallies(self):
        counts = ClickCounts(80_000_000, 1_300_000, 440_000, 97_000)
        est = estimate_g2(counts)
        assert est.value == pytest.approx(13.566, abs=1e-3)
        assert est.std_err == pytest.approx(
            est.value * np.sqrt(1 / 97_000 + 1 / 1_300_000 + 1 / 440_000), rel=1e-9
        )

    def test_zero_singles_undefined(self):
        with pytest.raises(ValueError, match="g2 undefined"):
            estimate_g2(ClickCounts(1000, 0, 10, 0))
        with pytest.raises(ValueError, match="g2 undefined"):
            estimate_g2(ClickCounts(1000, 10, 0, 0))

    def test_decorrelated_shift_gives_unity(self):
        from qisim.channel import simulate_tags
        from qisim.model import ChannelParams, ExperimentConfig, SourceParams
        from qisim.rng import substream

        cfg = ExperimentConfig(
            source=SourceParams(mu=0.025, eta_herald=0.0, noise_herald_per_bin=0.0),
            channel=ChannelParams(
                collection_fraction=1.0,
                eta_transmit=1.0,
                dark_signal_per_bin=0.0,
                jitter_signal_ps=0.0,
            ),
        )
        n = 200_000
        stream = simulate_tags(cfg, True, n, substream(77, 0))
        sig = stream.times_ps[stream.channels == int(Channel.SIGNAL)]
        # herald clone of the signal channel shifted by seven pulse periods:
        # any pairwise correlation is destroyed, only accidentals remain
        herald = np.sort((sig + 7 * PERIOD) % stream.duration_ps)
        decorrelated = TimeTagStream.from_arrays(
            np.concatenate([np.zeros(sig.size, np.uint8), np.ones(herald.size, np.uint8)]),
            np.concatenate([sig, herald]),
            stream.duration_ps,
            sort=True,
        )
        counts = bin_and_count(decorrelated, WIDTH, PERIOD)
        est = estimate_g2(counts)
        assert abs(est.value - 1.0) <= 4.0 * est.std_err
