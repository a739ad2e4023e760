import dataclasses
import hashlib
import math
import os
import struct
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from qisim import channel
from qisim.analytics import click_pattern_probabilities, click_probabilities
from qisim.channel import (
    _CSV_BLOCK,
    _TAG_CHUNK,
    Channel,
    StreamOrderError,
    TimeTagStream,
    _apply_dead_time,
    _bernoulli_indices,
    _dedupe_bins,
    collection_fraction_max,
    read_qitt,
    read_tags_csv,
    simulate_counts,
    simulate_tags,
    write_qitt,
    write_tags_csv,
)
from qisim.model import (
    ChannelParams,
    ClickCounts,
    ExperimentConfig,
    SourceParams,
    paper_default,
    validate_config,
)
from qisim.rng import substream

from .conftest import SIGMA, assert_within_sigma, binomial_std


def in_stream_order(stream: TimeTagStream) -> bool:
    """Sorted by time with ties Signal before Herald: a stable sort moves nothing."""
    order = np.lexsort((stream.channels, stream.times_ps))
    return bool(np.array_equal(order, np.arange(len(stream))))


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
        stray_light_per_bin=overrides.pop("stray_light_per_bin", 0.0),
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


    def test_zero_pulses_are_an_empty_acquisition(self):
        cfg = make_config(mu=0.5, background_per_bin=0.5)
        assert simulate_counts(cfg, True, 0, substream(1, 1)) == ClickCounts(0, 0, 0, 0)
        with pytest.raises(ValueError, match="n_pulses"):
            simulate_counts(cfg, True, -1, substream(1, 1))


class TestSimulateTags:
    def test_empty_when_silent(self):
        cfg = make_config(mu=0.0)
        stream = simulate_tags(cfg, True, 10**4, substream(5, 0))
        assert len(stream) == 0
        assert stream.duration_ps == 10**4 * cfg.pulse_period_ps

    def test_sorted_and_in_range(self):
        cfg = make_config(background_per_bin=1e-3, dark_signal_per_bin=1e-4, mu=0.02)
        stream = simulate_tags(cfg, True, 10**5, substream(5, 1))
        assert in_stream_order(stream)
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

    def test_multi_pair_tags_match_closed_form(self):
        # mu = 0.5, where multi-pair pulses are common, with zero jitter and
        # every noise source on
        cfg = make_config(
            mu=0.5,
            eta_herald=0.5,
            noise_herald_per_bin=1e-3,
            collection_fraction=0.5,
            eta_transmit=1.0,
            background_per_bin=1e-3,
            dark_signal_per_bin=1e-4,
            jitter_signal_ps=0.0,
            jitter_herald_ps=0.0,
        )
        n = 500_000
        from qisim.correlator import bin_and_count

        stream = simulate_tags(cfg, True, n, substream(8, 2))
        counts = bin_and_count(stream, cfg.channel.bin_width_ps, cfg.pulse_period_ps)
        p11, p10, p01, _ = click_pattern_probabilities(cfg.source, cfg.channel, True)
        for label, observed, p in (
            ("signal", counts.n_signal_clicks, p11 + p10),
            ("herald", counts.n_herald_clicks, p11 + p01),
            ("coinc", counts.n_coincidences, p11),
        ):
            assert_within_sigma(observed, n * p, binomial_std(n, p), f"multi-pair {label}")

    def test_stray_light_tags_match_closed_form(self):
        # stray light as the only noise: uniform tags that land in a bin
        # at its per-bin mean; each tally within SIGMA binomial stds of n p
        cfg = make_config(
            mu=0.05,
            eta_herald=0.5,
            collection_fraction=0.5,
            eta_transmit=1.0,
            stray_light_per_bin=0.02,
            jitter_signal_ps=0.0,
            jitter_herald_ps=0.0,
        )
        n = 500_000
        from qisim.correlator import bin_and_count

        stream = simulate_tags(cfg, True, n, substream(8, 4))
        counts = bin_and_count(stream, cfg.channel.bin_width_ps, cfg.pulse_period_ps)
        p11, p10, p01, _ = click_pattern_probabilities(cfg.source, cfg.channel, True)
        for label, observed, p in (
            ("signal", counts.n_signal_clicks, p11 + p10),
            ("herald", counts.n_herald_clicks, p11 + p01),
            ("coinc", counts.n_coincidences, p11),
        ):
            assert_within_sigma(observed, n * p, binomial_std(n, p), f"stray light {label}")

    def test_target_out_tags_are_independent(self):
        # target out at mu = 0.5: signal clicks are noise alone, so the
        # coincidences are accidentals, n P_s P_h
        cfg = make_config(
            mu=0.5,
            eta_herald=0.5,
            noise_herald_per_bin=1e-3,
            background_per_bin=1e-2,
            dark_signal_per_bin=1e-4,
            jitter_signal_ps=0.0,
            jitter_herald_ps=0.0,
        )
        n = 500_000
        from qisim.correlator import bin_and_count

        stream = simulate_tags(cfg, False, n, substream(8, 3))
        counts = bin_and_count(stream, cfg.channel.bin_width_ps, cfg.pulse_period_ps)
        p_s = -math.expm1(-cfg.channel.signal_noise_per_bin)
        p_h = -math.expm1(-(0.5 * 0.5 + 1e-3))
        for label, observed, p in (
            ("signal", counts.n_signal_clicks, p_s),
            ("herald", counts.n_herald_clicks, p_h),
            ("coinc", counts.n_coincidences, p_s * p_h),
        ):
            assert_within_sigma(observed, n * p, binomial_std(n, p), f"target out {label}")

    def test_golden_stream_digest(self):
        """SHA-256 of one fixed-seed stream, taken with numpy 2.4.6.

        Any change to how `simulate_tags` consumes the generator changes
        these bytes; such a change must say so and update the digest here.
        """
        stream = simulate_tags(paper_default(), True, 10**6, substream(6, 0))
        digest = hashlib.sha256(
            stream.channels.tobytes() + stream.times_ps.astype("<i8").tobytes()
        ).hexdigest()
        assert (len(stream), digest) == (
            457,
            "4b78d9d4d7b651e09a0c65a7fde9451fcd8fc31f135ad300712b8de6e2c9d567",
        )

    def test_golden_stream_digest_with_dead_time(self):
        """SHA-256 of a bright, dead-time-limited stream, taken with numpy 2.4.6.

        Zero jitter keeps it independent of how offsets are rounded, so it
        pins the per-channel click-per-bin and dead-time rules and the merge
        order, thousands of Signal/Herald ties included.
        """
        cfg = paper_default()
        cfg = dataclasses.replace(
            cfg,
            source=dataclasses.replace(
                cfg.source, mu=0.5, eta_herald=0.5, noise_herald_per_bin=1e-3
            ),
            channel=dataclasses.replace(
                cfg.channel,
                collection_fraction=0.5,
                eta_transmit=1.0,
                background_per_bin=0.05,
                dark_signal_per_bin=0.05,
                jitter_signal_ps=0.0,
                jitter_herald_ps=0.0,
                dead_time_ps=30_000,
            ),
        )
        stream = simulate_tags(cfg, True, 200_000, substream(6, 2))
        t, c = stream.times_ps, stream.channels
        tie = np.flatnonzero(t[1:] == t[:-1])
        digest = hashlib.sha256(c.tobytes() + t.astype("<i8").tobytes()).hexdigest()
        assert (len(stream), int(np.count_nonzero(c[tie] != c[tie + 1])), digest) == (
            76_365,
            6_237,
            "8206c12295863d572bdb069ae835c0aadb4222561d9f9b8fbd19ba86989d2fd7",
        )

    @staticmethod
    def _slow_source_stream(jitter_ps: float) -> tuple[TimeTagStream, ExperimentConfig]:
        # A pulse period of 3.3e16 ps: pulse times pass 2**53, where a
        # float64 no longer holds every picosecond.
        base = paper_default()
        cfg = dataclasses.replace(
            base,
            source=dataclasses.replace(
                base.source, mu=0.0, noise_herald_per_bin=0.0, rep_rate_hz=3e-5
            ),
            channel=dataclasses.replace(
                base.channel,
                bin_width_ps=100,
                background_per_bin=0.5,
                dark_signal_per_bin=0.0,
                stray_light_per_bin=0.0,
                jitter_signal_ps=jitter_ps,
                jitter_herald_ps=jitter_ps,
            ),
        )
        return simulate_tags(cfg, True, 200, substream(1, 0)), cfg

    def test_tags_sit_on_their_pulses_at_a_slow_pulse_rate(self):
        from qisim.correlator import bin_and_count

        stream, cfg = self._slow_source_stream(0.0)
        period = cfg.pulse_period_ps
        assert len(stream) > 50
        assert np.all(stream.times_ps % period == 0)
        counts = bin_and_count(stream, cfg.channel.bin_width_ps, period)
        assert counts.n_signal_clicks == len(stream)

    def test_jittered_tags_stay_near_their_pulses_at_a_slow_pulse_rate(self):
        stream, cfg = self._slow_source_stream(1.0)
        r = stream.times_ps % cfg.pulse_period_ps
        assert len(stream) > 50
        assert int(np.minimum(r, cfg.pulse_period_ps - r).max()) <= 10

    def test_tags_jittered_out_of_the_run_are_lost(self):
        # 1e18 ps of jitter over a 6.7e18 ps run: many offsets put a tag
        # before 0, past the duration or, summed, past 2**63 - 1.
        on_pulse, _ = self._slow_source_stream(0.0)
        jittered, _ = self._slow_source_stream(1e18)
        assert 0 < len(jittered) < len(on_pulse) - 10

    def test_times_jittered_past_int64_are_dropped_before_the_cast(self):
        # sigma_s = 1e300 puts nearly every locked signal time past the int64
        # range; pytest turns the cast's RuntimeWarning into an error. The
        # normal draws do not depend on sigma, so the heralds are unchanged.
        jammed = dataclasses.replace(paper_default().channel, background_per_bin=1e-3)
        streams = {}
        for sigma in (300.0, 1e300):
            ch = dataclasses.replace(jammed, jitter_signal_ps=sigma)
            cfg = dataclasses.replace(paper_default(), channel=ch)
            streams[sigma] = simulate_tags(cfg, True, 200_000, substream(6, 1))
        heralds = [s.times_ps[s.channels == Channel.HERALD] for s in streams.values()]
        assert heralds[0].size > 50 and np.array_equal(*heralds)
        signals = [s.times_ps[s.channels == Channel.SIGNAL] for s in streams.values()]
        assert signals[0].size > 100 and signals[1].size < 5

    def test_offsets_between_2_62_and_2_63_ps_stay_in_the_run(self):
        # Pulse period 1e18 ps, 9 pulses, sigma 1e19 ps: many offsets exceed
        # 2**62 ps, and those that land in [0, 9e18) keep their tags. A cut of
        # the offsets below 2**63 that is any tighter drops some of them.
        cfg = make_config(
            mu=5.0,
            eta_herald=1.0,
            collection_fraction=1.0,
            eta_transmit=1.0,
            eta_signal_detector=1.0,
            jitter_signal_ps=1e19,
            jitter_herald_ps=1e19,
        )
        cfg = dataclasses.replace(cfg, source=dataclasses.replace(cfg.source, rep_rate_hz=1e-6))
        stream = simulate_tags(cfg, True, 9, substream(0, 0))
        assert stream.duration_ps == 9 * 10**18
        assert stream.channels.tolist() == [1, 0, 1, 0, 1, 1, 1, 0, 1, 0]
        assert stream.times_ps.tolist() == [
            1326198977490941952,
            1669855543102685184,
            2085041502659777536,
            3184080275309043456,
            3780011818926797312,
            5931374991264338432,
            6411508685016085504,
            6835184636583589888,
            6967079040798311936,
            8891329876251798528,
        ]

    def test_rejects_negative_pulse_count(self):
        with pytest.raises(ValueError, match="n_pulses"):
            simulate_tags(make_config(), True, -5, substream(8, 1))

    def test_zero_pulses_are_an_empty_stream(self):
        cfg = make_config(mu=0.5, background_per_bin=0.5)
        stream = simulate_tags(cfg, True, 0, substream(8, 2))
        assert len(stream) == 0 and stream.duration_ps == 0

    def test_rejects_pulse_times_beyond_int64(self):
        # 10**15 pulses of 12.5 ns pass 2**63 - 1 ps: k*T would wrap negative.
        # The generator fails any draw, so a missing check cannot start a
        # sampler sized for 10**15 pulses.
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"rng.{name} used before the pulse count was checked")

        with pytest.raises(ValueError, match="int64"):
            simulate_tags(paper_default(), True, 10**15, NoDraws())

    def test_longest_run_fits_int64(self):
        # 2**63 - 1 is a multiple of 7, so a 7 ps period ends the last run at
        # exactly the int64 maximum; no light, so no draw scales with the pulses
        cfg = make_config(mu=0.0)
        cfg = dataclasses.replace(
            cfg,
            source=dataclasses.replace(cfg.source, rep_rate_hz=1e12 / 7),
            channel=dataclasses.replace(cfg.channel, bin_width_ps=7),
        )
        assert cfg.pulse_period_ps == 7
        stream = simulate_tags(cfg, True, (2**63 - 1) // 7, substream(8, 3))
        assert stream.duration_ps == 2**63 - 1 and len(stream) == 0
        with pytest.raises(ValueError, match="int64"):
            simulate_tags(cfg, True, (2**63 - 1) // 7 + 1, substream(8, 3))

    def test_tags_jittered_onto_the_run_edges(self):
        # Every pulse has a locked click in both channels (p_locked is 1).
        # The signal tag of pulse 1 is jittered onto 0 ps, the first time in
        # the run, and kept; that of pulse 0 onto the duration, the first
        # time past it, and lost. The herald offsets are 0.
        class StubbedJitter:
            def __init__(self, rng, offsets):
                self.rng, self.offsets = rng, iter(offsets)

            def normal(self, loc, scale, size):
                return np.array(next(self.offsets), dtype=np.float64)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        cfg = make_config(
            mu=1000.0, eta_herald=1.0, collection_fraction=1.0, eta_transmit=1.0,
            eta_signal_detector=1.0,
        )
        period = cfg.pulse_period_ps
        rng = StubbedJitter(substream(8, 4), [[2 * period, -period], [0, 0]])
        stream = simulate_tags(cfg, True, 2, rng)
        assert stream.duration_ps == 2 * period
        assert stream.channels.tolist() == [0, 1, 1]
        assert stream.times_ps.tolist() == [0, 0, period]

    def test_click_per_bin_near_int64_max(self):
        # t + T//2 passes 2^63 in the last whole period below it
        period = 12500
        last = (2**63 - 1) // period * period
        times = np.array([last - 5, last, last + 5], dtype=np.int64)
        assert _dedupe_bins(times, 2000, period, (2**64 - 1) // period).tolist() == [last - 5]

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


QITT_HEAD = struct.pack("<4sHHQ", b"QITT", 1, 0, 100)  # version 1, duration 100 ps


def read_fed_pipe(read, data: bytes, tmp_path, step: int = 7):
    """read() a named pipe that a thread feeds with data in step-byte writes;
    return what it read and the thread."""
    fifo = tmp_path / "fed.fifo"
    os.mkfifo(fifo)

    def feed() -> None:
        with open(fifo, "wb", buffering=0) as fh:
            for i in range(0, len(data), step):
                fh.write(data[i : i + step])

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    back = read(str(fifo))
    writer.join(timeout=10)
    return back, writer


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

    @pytest.mark.parametrize(
        "data, message",
        [
            pytest.param(b"", "truncated QITT header", id="empty"),
            pytest.param(QITT_HEAD[:15], "truncated QITT header", id="15 bytes"),
            pytest.param(b"NOPE" + bytes(12), "not a QITT file", id="bad magic"),
            pytest.param(
                struct.pack("<4sHHQ", b"QITT", 2, 0, 100), "unsupported QITT version 2", id="v2"
            ),
            *(
                pytest.param(QITT_HEAD + bytes(9 + k), "truncated QITT record", id=f"record+{k}")
                for k in range(1, 9)
            ),
        ],
    )
    def test_qitt_rejects_malformed_files(self, data, message, tmp_path):
        path = tmp_path / "bad.qitt"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=message):
            read_qitt(str(path))

    def test_qitt_golden_bytes(self, tmp_path):
        stream = TimeTagStream.from_arrays([0, 1], [5, 2**63 - 1], 2**64 - 1)
        path = tmp_path / "tags.qitt"
        write_qitt(stream, str(path))
        assert path.read_bytes() == bytes.fromhex(
            "51495454" "0100" "0000" "ffffffffffffffff"  # magic, version, reserved, duration
            "00" "0500000000000000"  # signal at 5 ps
            "01" "ffffffffffffff7f"  # herald at 2**63 - 1 ps
        )
        assert same_stream(read_qitt(str(path)), stream)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_qitt_reads_a_pipe(self, tmp_path):
        # a pipe has no size, so the reader cannot know the body length up front
        stream = TimeTagStream.from_arrays([0, 1] * 3000, np.arange(6000) * 7, 10**6)
        write_qitt(stream, str(tmp_path / "tags.qitt"))
        fifo = tmp_path / "tags.fifo"
        os.mkfifo(fifo)
        data = (tmp_path / "tags.qitt").read_bytes()
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        back = read_qitt(str(fifo))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert same_stream(back, stream)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_qitt_pipe_fed_in_small_writes(self, tmp_path):
        # 7-byte writes cut records across the reads of the pipe, so the
        # reader carries their starts over to the next read
        stream = TimeTagStream.from_arrays([0, 1] * 4000, np.arange(8000) * 7 + 2**40, 2**41)
        path = tmp_path / "tags.qitt"
        write_qitt(stream, str(path))
        data = path.read_bytes()
        assert len(data) - 16 > 64 * 1024  # more than a pipe holds
        back, writer = read_fed_pipe(read_qitt, data, tmp_path)
        assert not writer.is_alive()
        assert same_stream(back, stream) and same_stream(read_qitt(str(path)), stream)

    @pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
    def test_qitt_body_cut_mid_record(self, pipe, tmp_path):
        if pipe and not hasattr(os, "mkfifo"):
            pytest.skip("needs named pipes")
        data = QITT_HEAD + bytes(9 * 100 + 4)  # records at time 0, then 4 bytes of one more
        path = tmp_path / "cut.qitt"
        path.write_bytes(data)
        with mock.patch.object(channel, "_QITT_BLOCK", 16):
            with pytest.raises(ValueError, match="truncated QITT record"):
                if pipe:
                    read_fed_pipe(read_qitt, data, tmp_path)
                else:
                    read_qitt(str(path))

    def test_qitt_memory_is_the_stream_plus_one_block(self, tmp_path):
        # The traced peak, less the stream's own arrays (9 bytes per tag) and
        # the temporaries of its constructor's checks, is one block of
        # records whatever the file size. Reading the whole body first took
        # another 18 bytes per tag.
        overheads = []
        for n in (10_000, 100_000):
            stream = TimeTagStream.from_arrays(np.arange(n) % 2, np.arange(n), n)
            path = tmp_path / f"{n}.qitt"
            write_qitt(stream, str(path))
            del stream
            tracemalloc.start()
            try:
                with mock.patch.object(channel, "_QITT_BLOCK", 1024):
                    back = read_qitt(str(path))
                peak = tracemalloc.get_traced_memory()[1]
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                TimeTagStream(back.channels, back.times_ps, n)
                checks = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert len(back) == n
            overheads.append(peak - 9 * n - checks)
        assert max(overheads) < 1024 * 9 + 8192, overheads

    def test_csv_round_trip(self, tmp_path):
        stream = self.make_stream()
        path = tmp_path / "tags.csv"
        write_tags_csv(stream, str(path))
        back = read_tags_csv(str(path))
        assert back.duration_ps == stream.duration_ps
        assert np.array_equal(back.times_ps, stream.times_ps)
        assert np.array_equal(back.channels, stream.channels)

    @pytest.mark.parametrize(
        "time",
        [
            *(int("1234567890123456789"[:d]) for d in range(1, 20)),
            10**9 - 1,
            10**9,  # the first time with a digit above the int32 low part
            2**31 - 1,
            2**31,
            12_345_999_999_999,  # the low part at its largest
            10**18,
            2**63 - 1,
        ],
    )
    def test_times_of_every_digit_count_round_trip(self, time, tmp_path):
        # a tie at the time and the tag one picosecond before it: the low
        # nine digits are read in int32, any before them in int64
        stream = TimeTagStream.from_arrays([1, 0, 1], [time - 1, time, time], 2**63)
        path = tmp_path / "tags.csv"
        write_tags_csv(stream, str(path))
        back = read_tags_csv(str(path))
        assert back.times_ps.tolist() == [time - 1, time, time]
        assert same_stream(back, stream)

    def test_csv_golden_bytes(self, tmp_path):
        stream = TimeTagStream.from_arrays([0, 1, 0], [5, 5, 12_499], 25_000)
        path = tmp_path / "tags.csv"
        write_tags_csv(stream, str(path))
        assert path.read_bytes() == (
            b"# duration_ps=25000\nchannel,time_ps\nsignal,5\nherald,5\nsignal,12499\n"
        )

    def test_csv_rejects_unknown_channel_code(self, tmp_path):
        path = tmp_path / "tags.csv"
        with pytest.raises(ValueError, match="7"):
            write_tags_csv(TimeTagStream.from_arrays([0, 7], [5, 6], 25_000), str(path))
        assert not path.exists()

    def test_csv_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# duration_ps=100\nchannel,time_ps\nsideways,12\n")
        with pytest.raises(ValueError, match="^bad tag record at line 3: 'sideways,12'$"):
            read_tags_csv(str(path))


CSV_NAMES = {0: "signal", 1: "herald"}
# The examples of one hypothesis test share its tmp_path; each overwrites its files.
SHARED_TMP_PATH = HealthCheck.function_scoped_fixture


@st.composite
def valid_streams(draw, min_tags=0):
    duration = draw(st.integers(1 if min_tags else 0, 2**63))
    times = st.lists(st.integers(0, duration - 1), min_size=min_tags, max_size=30)
    times = draw(times) if duration else []
    codes = draw(st.lists(st.integers(0, 1), min_size=len(times), max_size=len(times)))
    return TimeTagStream.from_arrays(codes, np.array(times, dtype=np.int64), duration)


@st.composite
def malformed_tags(draw):
    """(codes, times, duration) of a stream broken in one way: a channel code
    other than 0 and 1, a time outside [0, duration) or tags out of order."""
    stream = draw(valid_streams(min_tags=1))
    codes, times = stream.channels.tolist(), stream.times_ps.tolist()
    duration = stream.duration_ps
    i = draw(st.integers(0, len(times) - 1))
    fault = draw(st.sampled_from(["code", "time", "order"]))
    if fault == "code":
        codes[i] = draw(st.integers(2, 255))
    elif fault == "time":
        late = st.integers(duration, 2**63 - 1) if duration < 2**63 else st.nothing()
        times[i] = draw(st.integers(-(2**63), -1) | late)
    else:
        order = draw(st.permutations(range(len(times))))
        codes, times = [codes[k] for k in order], [times[k] for k in order]
        assume(sorted(zip(times, codes)) != list(zip(times, codes)))
    return codes, times, duration


class TestStreamInvariant:
    @settings(max_examples=200, deadline=None, suppress_health_check=[SHARED_TMP_PATH])
    @given(tags=malformed_tags())
    def test_malformed_stream_rejected_everywhere(self, tags, tmp_path):
        codes, times, duration = tags
        with pytest.raises(ValueError):
            TimeTagStream.from_arrays(codes, np.array(times, dtype=np.int64), duration, sort=False)

        # QITT stores times as u64: a negative time arrives as 2**63 or more
        records = np.empty(len(times), dtype=[("channel", "u1"), ("time_ps", "<u8")])
        records["channel"] = codes
        records["time_ps"] = np.array(times, dtype=np.int64).view(np.uint64)
        qitt = tmp_path / "bad.qitt"
        qitt.write_bytes(struct.pack("<4sHHQ", b"QITT", 1, 0, duration) + records.tobytes())
        with pytest.raises(ValueError):
            read_qitt(str(qitt))

        # a code other than 0 and 1 has no CSV name; "signal7" must not be
        # cut down to "signal"
        body = "".join(f"{CSV_NAMES.get(c, f'signal{c}')},{t}\n" for c, t in zip(codes, times))
        csv = tmp_path / "bad.csv"
        csv.write_text(f"# duration_ps={duration}\nchannel,time_ps\n{body}")
        with pytest.raises(ValueError):
            read_tags_csv(str(csv))

    @pytest.mark.filterwarnings("error")
    @settings(
        max_examples=100, deadline=None, derandomize=True, suppress_health_check=[SHARED_TMP_PATH]
    )
    @given(stream=valid_streams())
    @example(stream=TimeTagStream.from_arrays([], [], 0))
    @example(stream=TimeTagStream.from_arrays([], [], 12_500))
    # ten-digit times past the int32 range: their low digits must stay in int32
    @example(stream=TimeTagStream.from_arrays([0, 1], [2**31, 9_999_999_999], 10**10))
    def test_round_trip_is_byte_identical(self, stream, tmp_path):
        for write, read in ((write_qitt, read_qitt), (write_tags_csv, read_tags_csv)):
            first, second = tmp_path / "first", tmp_path / "second"
            write(stream, str(first))
            back = read(str(first))
            write(back, str(second))
            assert first.read_bytes() == second.read_bytes()
            assert back.duration_ps == stream.duration_ps
            assert np.array_equal(back.channels, stream.channels)
            assert np.array_equal(back.times_ps, stream.times_ps)

    @pytest.mark.parametrize("code", [256, -1, 2**32])
    def test_codes_checked_before_narrowing(self, code):
        # as uint8, 256 and 2**32 would wrap to 0 and -1 to 255
        with pytest.raises(ValueError, match="channel code"):
            TimeTagStream.from_arrays(np.array([0, code], dtype=np.int64), [5, 6], 100)

    @pytest.mark.parametrize("time", [2**64, -(2**63) - 1])
    def test_time_beyond_int64_rejected(self, time):
        with pytest.raises(ValueError, match="outside"):
            TimeTagStream.from_arrays([0], [time], 10)

    def test_qitt_time_past_int64_rejected(self, tmp_path):
        # 2**63 is below this u64 duration but wraps negative as int64
        records = np.zeros(1, dtype=[("channel", "u1"), ("time_ps", "<u8")])
        records["time_ps"] = 2**63
        path = tmp_path / "big.qitt"
        path.write_bytes(struct.pack("<4sHHQ", b"QITT", 1, 0, 2**64 - 1) + records.tobytes())
        with pytest.raises(ValueError, match="outside"):
            read_qitt(str(path))

    def test_last_qitt_time_past_int64_rejected(self, tmp_path):
        # as int64 the last time is the lowest, so the order breaks there too
        records = np.zeros(3, dtype=[("channel", "u1"), ("time_ps", "<u8")])
        records["time_ps"] = [5, 6, 2**63]
        path = tmp_path / "last.qitt"
        path.write_bytes(struct.pack("<4sHHQ", b"QITT", 1, 0, 2**64 - 1) + records.tobytes())
        with pytest.raises(ValueError, match="outside"):
            read_qitt(str(path))

    @pytest.mark.parametrize("times", [[50, 200, 30], [50, -1, 30], [200, 50]])
    def test_range_checked_before_order(self, times):
        # the first and last times are in range in the first two, but not sorted
        with pytest.raises(ValueError, match="outside") as err:
            TimeTagStream([0] * len(times), np.array(times), 100)
        assert not isinstance(err.value, StreamOrderError)

    @pytest.mark.parametrize(
        "codes, ok",
        [([1, 0], False), ([0, 1], True), ([0, 0], True), ([1, 1], True)],
        ids=["H-S", "S-H", "S-S", "H-H"],
    )
    def test_ties(self, codes, ok):
        times = [3, 7, 7, 9]
        if ok:
            assert len(TimeTagStream([0, *codes, 1], times, 10)) == 4
        else:
            with pytest.raises(StreamOrderError):
                TimeTagStream([0, *codes, 1], times, 10)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_error_names_the_first_bad_code(self, dtype):
        codes = np.array([0, 1, 7, 0, 9], dtype=dtype)
        with pytest.raises(ValueError, match=r"^channel code 7 is not"):
            TimeTagStream(codes, [1, 2, 3, 4, 5], 10)
        codes[2] = 1
        with pytest.raises(ValueError, match=r"^channel code 9 is not"):
            TimeTagStream(codes, [1, 2, 3, 4, 5], 10)

    def test_float_codes_are_checked_by_value(self):
        stream = TimeTagStream(np.array([0.0, 1.0]), [1, 2], 10)
        assert stream.channels.dtype == np.uint8 and stream.channels.tolist() == [0, 1]
        message = r"^channel code 0\.5 is not signal \(0\) or herald \(1\)$"
        with pytest.raises(ValueError, match=message):
            TimeTagStream(np.array([0.5]), [1], 10)

    def test_bool_and_int8_codes(self):
        stream = TimeTagStream(np.array([True, False]), [1, 2], 10)
        assert stream.channels.dtype == np.uint8 and stream.channels.tolist() == [1, 0]
        with pytest.raises(ValueError, match=r"^channel code -1 is not"):
            TimeTagStream(np.array([0, -1], dtype=np.int8), [1, 2], 10)

    def test_code_check_allocates_nothing_per_tag(self):
        # what is left is the order check's one byte per tag; an elementwise
        # code mask took about two more
        n = 100_000
        codes, times = (np.arange(n) % 2).astype(np.uint8), np.arange(n)
        tracemalloc.start()
        try:
            TimeTagStream(codes, times, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n + 4096

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "times, named",
        [([0, 5.5], "5.5"), ([0.7, 5.2], "0.7"), ([0, math.nan], "nan"), ([math.inf], "inf"),
         ([-math.inf, 1], "-inf"), (np.array([0, 2.5], np.float32), "2.5")],
    )
    def test_times_not_whole_picoseconds_rejected(self, times, named):
        # they were truncated; NaN warned, then failed the range check
        with pytest.raises(ValueError, match=f"^tag time {named} is not a whole number of "):
            TimeTagStream([0] * len(times), np.asarray(times), 10)

    @pytest.mark.filterwarnings("error")
    def test_whole_float_times_are_exact(self):
        stream = TimeTagStream([0, 1], np.array([0.0, 7.0]), 10)
        assert stream.times_ps.dtype == np.int64 and stream.times_ps.tolist() == [0, 7]
        # the longest duration; as int64, no time of 2**63 or more is in range
        message = r"^tag time outside \[0, 18446744073709551615\) ps$"
        for times in ([5.0, 2.0**63], [-1.0, 5.0], [5.0, 2.0**64], [-(2.0**70), 5.0]):
            with pytest.raises(ValueError, match=message):
                TimeTagStream([0, 1], np.array(times), 2**64 - 1)

    @pytest.mark.parametrize("duration", [10.9, math.nan, math.inf, -math.inf, np.float64(0.5)])
    def test_duration_not_whole_picoseconds_rejected(self, duration):
        with pytest.raises(ValueError, match=f"^duration_ps {duration} is not a whole number"):
            TimeTagStream([], [], duration)
        assert TimeTagStream([], [], 10.0).duration_ps == 10

    def test_fields_are_frozen(self):
        stream = TimeTagStream.from_arrays([0, 1], [1, 2], 10)
        for field in dataclasses.fields(stream):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(stream, field.name, getattr(stream, field.name))

    def test_streams_compare_by_identity(self):
        # comparing the arrays field by field raised for two tags or more
        a, b = (TimeTagStream.from_arrays([0, 1], [1, 2], 10) for _ in range(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2 and hash(a) == hash(a)

    def test_order_error_names_the_first_tag_out_of_order(self, tmp_path):
        # a harmless tie (tag 2), then a Signal tied with the Herald before
        # it (tag 4), then a lower time (tag 6)
        codes, times = [0, 0, 1, 1, 0, 1, 0], [1, 2, 2, 3, 3, 5, 4]
        with pytest.raises(StreamOrderError, match="^unsorted stream at tag 4$") as err:
            TimeTagStream.from_arrays(codes, times, 10, sort=False)
        assert err.value.tag == 4
        records = np.empty(len(times), dtype=[("channel", "u1"), ("time_ps", "<u8")])
        records["channel"], records["time_ps"] = codes, times
        path = tmp_path / "tags.qitt"
        path.write_bytes(struct.pack("<4sHHQ", b"QITT", 1, 0, 10) + records.tobytes())
        with pytest.raises(StreamOrderError, match="^unsorted stream at tag 4$") as err:
            read_qitt(str(path))
        assert err.value.tag == 4
        path = tmp_path / "tags.csv"
        body = "".join(f"{CSV_NAMES[c]},{t}\n" for c, t in zip(codes, times))
        path.write_text(f"# duration_ps=10\nchannel,time_ps\n{body}")
        with pytest.raises(StreamOrderError, match="^unsorted stream at line 7$") as err:
            read_tags_csv(str(path))
        assert err.value.tag == 4

    @pytest.mark.parametrize("duration", [-5, -1, 2**64])
    def test_duration_outside_u64_rejected(self, duration, tmp_path):
        with pytest.raises(ValueError, match="duration"):
            TimeTagStream.from_arrays([], [], duration)
        path = tmp_path / "tags.csv"
        path.write_text(f"# duration_ps={duration}\nchannel,time_ps\n")
        with pytest.raises(ValueError, match="duration"):
            read_tags_csv(str(path))

    def test_largest_duration_round_trips(self, tmp_path):
        # QITT's u64 header field holds it; the QITT reader accepts it too
        path = tmp_path / "max.qitt"
        path.write_bytes(struct.pack("<4sHHQ", b"QITT", 1, 0, 2**64 - 1))
        assert read_qitt(str(path)).duration_ps == 2**64 - 1
        stream = TimeTagStream.from_arrays([1], [2**63 - 1], 2**64 - 1)
        for write, read in ((write_qitt, read_qitt), (write_tags_csv, read_tags_csv)):
            write(stream, str(path))
            back = read(str(path))
            assert back.duration_ps == 2**64 - 1
            assert back.times_ps.tolist() == [2**63 - 1] and back.channels.tolist() == [1]

    def test_csv_without_duration_rejected(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("channel,time_ps\nsignal,5\n")
        with pytest.raises(ValueError, match="^bad duration comment at line 1: 'channel,time_ps'$"):
            read_tags_csv(str(path))

    def test_csv_note_before_the_duration_rejected(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("# run 7\n# duration_ps=100\nchannel,time_ps\nsignal,5\n")
        with pytest.raises(ValueError, match="^bad duration comment at line 1: '# run 7'$"):
            read_tags_csv(str(path))

    def test_csv_requires_header(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("# duration_ps=25000\nsignal,5\n")
        with pytest.raises(ValueError, match="header"):
            read_tags_csv(str(path))

    @pytest.mark.parametrize("comment", [b"# duration_ps=+1_000", b"# duration_ps= 100 "])
    def test_csv_duration_must_be_digits(self, comment, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_bytes(comment + b"\nchannel,time_ps\n")
        with pytest.raises(ValueError, match="^bad duration comment at line 1: "):
            read_tags_csv(str(path))

    @pytest.mark.parametrize(
        "preamble,message",
        [
            (b"# duration_ps=100 \t\nchannel,time_ps\n", "^bad duration comment at line 1: "),
            (b"  # duration_ps=100 \t\nchannel,time_ps\n", "^bad duration comment at line 1: '  #"),
            (b"# duration_ps=100\n\t channel,time_ps  \n", "^expected the header "),
            (b"# duration_ps=100\n \nchannel,time_ps\n", "^expected the header .*, got ' '$"),
        ],
    )
    def test_csv_preamble_whitespace_rejected(self, preamble, message, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_bytes(preamble + b"signal,5\n")
        with pytest.raises(ValueError, match=message):
            read_tags_csv(str(path))

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"# duration_ps=" + b"1" * 1_600_000, "^bad duration comment at line 1: "),
            (b"# duration_ps=100\n" + b"channel," * 200_000, "^expected the header "),
            (
                b"# duration_ps=100\nchannel,time_ps\n" + b"signal,1" * 200_000,
                "^bad tag record at line 3: ",
            ),
        ],
        ids=["duration-line", "header-line", "record"],
    )
    def test_csv_long_line_gives_a_short_error(self, tmp_path, data, message):
        # 1.6 MB lines without a newline: the error quotes a few dozen bytes
        path = tmp_path / "tags.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=message) as err:
            read_tags_csv(str(path))
        assert len(str(err.value)) < 200

    def test_csv_line_without_newline_reads_two_blocks(self, tmp_path):
        # the reader stops when its two blocks hold no newline; it read the
        # whole file, and its traced peak was four times the file size
        path = tmp_path / "tags.csv"
        path.write_bytes(b"# duration_ps=100\nchannel,time_ps\nsignal," + b"1" * (32 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                read_tags_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "bad tag record at line 3: 'signal,%s'..." % ("1" * 33)
        assert peak < 2 * path.stat().st_size

    def test_csv_duration_line_is_read_to_its_longest(self, tmp_path):
        # 20 digits fill the 35 bytes line 1 may hold; a 21st makes it no duration line
        path = tmp_path / "tags.csv"
        for digits, message in ((20, "^duration_ps 9{20} outside"), (21, "^bad duration comment")):
            path.write_bytes(b"# duration_ps=%s\nchannel,time_ps\n" % (b"9" * digits))
            with pytest.raises(ValueError, match=message):
                read_tags_csv(str(path))

    def test_csv_preamble_crlf_line_ends(self, tmp_path):
        # only "\n" ends a line, so a "\r" before it is part of the line
        path = tmp_path / "tags.csv"
        path.write_bytes(b"# duration_ps=100\r\nchannel,time_ps\r\nsignal,5\r\n")
        with pytest.raises(ValueError, match=r"^bad duration comment at line 1: '.*=100\\r'$"):
            read_tags_csv(str(path))
        path.write_bytes(b"# duration_ps=100\nchannel,time_ps\r\nsignal,5\n")
        with pytest.raises(ValueError, match=r"^expected the header .* at line 2, got '.*_ps\\r'$"):
            read_tags_csv(str(path))

    def test_csv_duration_mentioned_later_in_a_comment_is_ignored(self, tmp_path):
        # only line 1 sets the duration; a later mention is rejected as the line it stands in
        path = tmp_path / "tags.csv"
        note = b"# note: duration_ps=3 was wrong\n"
        path.write_bytes(b"# duration_ps=25000\n" + note + b"channel,time_ps\nsignal,5\n")
        with pytest.raises(ValueError, match="^expected the header .* at line 2, got '# note"):
            read_tags_csv(str(path))
        path.write_bytes(b"# duration_ps=25000\nchannel,time_ps\n" + note + b"signal,5\n")
        with pytest.raises(ValueError, match="^bad tag record at line 3: '# note"):
            read_tags_csv(str(path))

    @pytest.mark.parametrize("duration", [0, 1, 25_000, 2**64 - 1])
    def test_csv_duration_round_trips(self, duration, tmp_path):
        path = tmp_path / "tags.csv"
        write_tags_csv(TimeTagStream.from_arrays([], [], duration), str(path))
        assert read_tags_csv(str(path)).duration_ps == duration


def f_string_write_tags_csv(stream: TimeTagStream, path: str) -> None:
    """The former writer, one f-string per tag: the oracle for `write_tags_csv`."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# duration_ps={stream.duration_ps}\nchannel,time_ps\n")
        for c, t in zip(stream.channels.tolist(), stream.times_ps.tolist()):
            fh.write(f"{CSV_NAMES[c]},{t}\n")


def loadtxt_read_tags_csv(path: str) -> TimeTagStream:
    """The former reader, text mode and `np.loadtxt`: the oracle for `read_tags_csv`."""
    duration, line = 0, ""
    with open(path, "r", encoding="utf-8") as fh:
        for line in iter(fh.readline, ""):
            line = line.strip()
            if line and not line.startswith("#"):
                break
            if "duration_ps=" in line:
                duration = int(line.split("duration_ps=", 1)[1])
        if line != "channel,time_ps":
            raise ValueError(f"expected the header, got {line!r}")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            body = np.loadtxt(fh, delimiter=",", dtype=[("name", "S7"), ("t", "<i8")], ndmin=1)
    herald = body["name"] == b"herald"
    if (~herald & (body["name"] != b"signal")).any():
        raise ValueError("bad tag record")
    return TimeTagStream(herald.astype(np.uint8), body["t"], duration)


def same_stream(a: TimeTagStream, b: TimeTagStream) -> bool:
    return (
        a.duration_ps == b.duration_ps
        and np.array_equal(a.channels, b.channels)
        and np.array_equal(a.times_ps, b.times_ps)
    )


# Every digit count a time can have, at both of its ends.
DIGIT_EDGES = sorted({0, 2**63 - 1} | {10**k + e for k in range(1, 19) for e in (-1, 0)})
CSV_HEAD = b"# duration_ps=%d\nchannel,time_ps\n"


def csv_record_forms(clean: bool, zero_led: bool) -> st.SearchStrategy:
    """(filler lines, name, zero padding, sign or space, suffix, line end)
    of one record. Clean forms are the writer's; the others add forms that
    the reader rejects, most of which loadtxt reads. Without `zero_led`,
    no line has a time with a leading zero."""

    def pick(good, bad):
        return st.sampled_from(good if clean else good * 3 + bad)

    filler = st.sampled_from(["", "#", "# c", "#x,5", " ", "\t", "  # c"])
    if zero_led:
        filler |= st.text(st.sampled_from("signalherd,0123456789#+- \t\r"), max_size=10)
    return st.tuples(
        st.lists(filler, max_size=0 if clean else 1),
        pick(["signal", "herald"], ["Signal", "heraldx", "", " signal"]),
        pick([""], ["0", "000", "0" * 20] if zero_led else []),
        pick([""], [" ", "\t", "+", "-"]),
        pick([""], [" ", "#x", ",", ".0"]),
        pick(["\n"], ["\r\n", "\r"]),
    )


CSV_TIMES = st.lists(st.integers(0, 10**6) | st.integers(0, 2**63 + 10), max_size=12)


@st.composite
def csv_bodies(draw, zero_led: bool = True):
    """ASCII tag-CSV bodies of sorted times: half in the writer's form, half
    with lines that break it (comment, blank or CRLF lines, leading zeros,
    no newline at the end, ...)."""
    clean = draw(st.booleans())
    times = sorted(draw(CSV_TIMES))
    forms = csv_record_forms(clean, zero_led)
    forms = draw(st.lists(forms, min_size=len(times), max_size=len(times)))
    body = "".join(
        "".join(f + end for f in filler) + f"{name},{pre}{pad}{t}{post}{end}"
        for t, (filler, name, pad, pre, post, end) in zip(times, forms)
    )
    if not clean and draw(st.booleans()):  # the last line without its newline
        body = body.removesuffix("\n")
    return body.encode("ascii")


class TestTagCsvCodec:
    @settings(max_examples=200, deadline=None, suppress_health_check=[SHARED_TMP_PATH])
    @given(stream=valid_streams())
    @example(stream=TimeTagStream.from_arrays([], [], 0))
    @example(
        stream=TimeTagStream.from_arrays(
            [0, 1] * len(DIGIT_EDGES), np.repeat(DIGIT_EDGES, 2).astype(np.int64), 2**63
        )
    )
    def test_writer_matches_f_string_writer(self, stream, tmp_path):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_tags_csv(stream, str(new))
        f_string_write_tags_csv(stream, str(old))
        assert new.read_bytes() == old.read_bytes()

    @settings(
        max_examples=400, derandomize=True, deadline=None, suppress_health_check=[SHARED_TMP_PATH]
    )
    @given(body=csv_bodies(), duration=st.sampled_from([10**6 + 1, 2**63]))
    @example(body=b"signal,5\nherald,5\nsignal,12\nherald,13\n", duration=100)
    @example(body=b"signal,5\nherald,5\nsignal,012\nherald,013\n", duration=100)
    def test_reader_accepts_only_what_loadtxt_reads_alike(self, body, duration, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_bytes(CSV_HEAD % duration + body)
        try:
            new = read_tags_csv(str(path))
        except ValueError:
            event("rejected")
            return
        event(f"accepted, {len(new)} tags")
        assert same_stream(new, loadtxt_read_tags_csv(str(path)))

    @pytest.mark.parametrize(
        "body",
        [
            b"signal, 5\n",
            b"signal,\t5\n",
            b"signal,5 \n",
            b"signal,+5\n",
            b"signal,5#x\n",  # an inline comment: the old reader read 5
            b"signal,41497#1472863\n",
            b"signal,5\rherald,6\n",  # a lone CR used to end a line
            b"# c\rsignal,5\n",  # ... and so could end a comment
            b"signal,%s5\n" % (b"0" * 19),  # 20 digits
            b"signal,5\r\n",  # the writer ends every line in "\n"
            b"# c\nsignal,5\n",
            b"\nsignal,5\n",
            b"signal,5",  # a last line without its newline: a truncated file
        ],
    )
    def test_newly_rejected_forms(self, body, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_bytes(CSV_HEAD % 2**63 + body)
        loadtxt_read_tags_csv(str(path))  # the old reader took these
        with pytest.raises(ValueError, match="bad tag record at line 3"):
            read_tags_csv(str(path))

    @pytest.mark.parametrize(
        "body",
        [
            b" \nsignal,5\n",  # whitespace-only lines
            b"\t\r\nsignal,5\n",
            b"signal,9223372036854775808\n",  # one above the int64 maximum
            b"signal,99999999999999999999\n",
            b"signal,-5\n",
            b"signal\n",
            b"signal,\n",
            b",5\n",
            b"signal,5,\n",
            b"SIGNAL,5\n",
            b"signal\x00,5\n",
            b"sig\xc3\xa9l,5\n",
            b"signal,1\r5\n",  # one row of one width, but a lone CR among its digits
        ],
    )
    def test_rejected_forms(self, body, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_bytes(CSV_HEAD % 2**63 + body)
        with pytest.raises(ValueError, match="bad tag record at line 3"):
            read_tags_csv(str(path))

    @settings(
        max_examples=300, derandomize=True, deadline=None, suppress_health_check=[SHARED_TMP_PATH]
    )
    @given(body=csv_bodies(zero_led=False), block=st.integers(1, 40))
    def test_block_size_changes_nothing(self, body, block, tmp_path):
        # Every line of these bodies crosses block edges at some block size.
        # No time has a leading zero: inside a run, one is found where a
        # block starts, else by the stream's order check (`test_leading_zeros`).
        path = tmp_path / "tags.csv"
        path.write_bytes(CSV_HEAD % 2**63 + body)

        def outcome():
            try:
                return read_tags_csv(str(path))
            except ValueError as err:
                return str(err)

        whole = outcome()
        with mock.patch.object(channel, "_CSV_BLOCK", block):
            cut = outcome()
        assert same_stream(cut, whole) if isinstance(whole, TimeTagStream) else cut == whole

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_a_pipe(self, tmp_path):
        # a pipe has no size to bound the record count, so the output arrays grow
        stream = TimeTagStream.from_arrays([0, 1] * 3000, np.arange(6000) * 7, 10**6)
        write_tags_csv(stream, str(tmp_path / "tags.csv"))
        fifo = tmp_path / "tags.fifo"
        os.mkfifo(fifo)
        data = (tmp_path / "tags.csv").read_bytes()
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        with mock.patch.object(channel, "_CSV_BLOCK", 4096):
            back = read_tags_csv(str(fifo))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert same_stream(back, stream)

    @pytest.mark.parametrize(
        "body",
        [
            b"signal,10\r\nsignal,11\nherald,12\r\nsignal,13\nsignal,14\n",
            b"signal,10\r\nsignal,11\r\nherald,12\r\nsignal,13\r\nsignal,14\r\n",
        ],
    )
    def test_mixed_line_ends(self, body, tmp_path):
        # only "\n" ends a line, so the first CRLF record is a bad one
        path = tmp_path / "tags.csv"
        path.write_bytes(CSV_HEAD % 100 + body)
        with pytest.raises(ValueError, match=r"^bad tag record at line 3: 'signal,10\\r'$"):
            read_tags_csv(str(path))

    @pytest.mark.parametrize(
        "body",
        [
            b"signal,10\n#########\nherald,11\n",  # a comment as wide as the records
            b"signal,01\n\nsignal,2\n",  # a newline every 10 bytes, but a blank line
            b"signal,01\nherald,2\n",  # a newline at byte 9 of the only whole 10-byte row
        ],
    )
    def test_one_width_lookalikes_read_like_loadtxt(self, body, tmp_path):
        # Each block looks like rows of its first line's width, each ending
        # in a newline, yet holds a line that is no record: the comment, the
        # blank line, the leading zero. That line is named. In writer form,
        # without it and with the zero dropped, the body reads like loadtxt.
        path = tmp_path / "tags.csv"
        path.write_bytes(CSV_HEAD % 100 + body)
        lines = body.splitlines()
        bad = next(i for i, line in enumerate(lines) if b",0" in line or b"," not in line)
        with pytest.raises(ValueError, match=f"^bad tag record at line {3 + bad}: "):
            read_tags_csv(str(path))
        records = [line.split(b",") for line in lines if b"," in line]
        path.write_bytes(CSV_HEAD % 100 + b"".join(b"%s,%d\n" % (c, int(t)) for c, t in records))
        back = read_tags_csv(str(path))
        assert len(back) == 2
        assert same_stream(back, loadtxt_read_tags_csv(str(path)))

    def test_leading_zeros(self, tmp_path):
        path = tmp_path / "tags.csv"
        # at the start of a run, a time with a leading zero is no record
        path.write_bytes(CSV_HEAD % 1000 + b"signal,5\nsignal,07\nherald,08\n")
        with pytest.raises(ValueError, match="^bad tag record at line 4: 'signal,07'$"):
            read_tags_csv(str(path))
        # inside a run it is below the run's first time, which has none
        path.write_bytes(CSV_HEAD % 1000 + b"signal,10\nsignal,07\n")
        with pytest.raises(StreamOrderError, match="^unsorted stream at line 4$"):
            read_tags_csv(str(path))

    @pytest.mark.parametrize(
        "body, line",
        [
            (b"signal,20\nsignal,10\n", 4),
            (b"herald,10\nsignal,10\n", 4),  # a Signal tied with the Herald before it
            (b"signal,5\nherald,7\nsignal,7\n", 5),
            (b"signal,10\nsignal,07\n", 4),  # zero-led: at a block edge, no record
            (b"signal,5\nherald,5\nsignal,6\nsignal,6\nherald,8\nsignal,7\n", 8),
        ],
    )
    def test_record_below_one_as_wide_names_its_line(self, body, line, tmp_path):
        # the same line at any block size, as an order error or, where a
        # block edge puts a leading zero first in its run, as a bad record
        path = tmp_path / "tags.csv"
        path.write_bytes(CSV_HEAD % 1000 + body)
        for block in (_CSV_BLOCK, 10):
            with mock.patch.object(channel, "_CSV_BLOCK", block):
                with pytest.raises(ValueError, match=f" at line {line}(:|$)") as err:
                    read_tags_csv(str(path))
            assert isinstance(err.value, StreamOrderError) or b",0" in body

    @pytest.mark.parametrize("block", [_CSV_BLOCK, 10])
    def test_narrower_record_is_out_of_order(self, block, tmp_path):
        # Without leading zeros, fewer digits is a smaller time, so the
        # narrower record is named, also when a block edge falls before it.
        # A narrower line that is no record is a bad record.
        path = tmp_path / "tags.csv"
        head = CSV_HEAD % 1000 + b"signal,5\nsignal,100\nherald,100\n"  # lines 1-5
        with mock.patch.object(channel, "_CSV_BLOCK", block):
            path.write_bytes(head + b"signal,99\nsignal,101\n")
            with pytest.raises(StreamOrderError, match="^unsorted stream at line 6$"):
                read_tags_csv(str(path))
            path.write_bytes(head + b"signal,9x\nsignal,101\n")
            with pytest.raises(ValueError, match="^bad tag record at line 6: 'signal,9x'$"):
                read_tags_csv(str(path))

    def test_zero_led_record_then_narrower_across_a_block_edge(self, tmp_path):
        # Two faults: line 4 is zero-led inside a run, line 5 is narrower
        # than it. In one block the run's width names line 5. Across a block
        # edge the width is the stored time's, so line 5 reads, and the
        # stream names line 4, the first tag out of order.
        path = tmp_path / "tags.csv"
        path.write_bytes(CSV_HEAD % 1000 + b"signal,100\nsignal,050\nsignal,99\n")
        with pytest.raises(StreamOrderError, match="^unsorted stream at line 5$"):
            read_tags_csv(str(path))
        with mock.patch.object(channel, "_CSV_BLOCK", 27):  # the edge after line 4
            with pytest.raises(StreamOrderError, match="^unsorted stream at line 4$"):
                read_tags_csv(str(path))

    def test_block_temporaries(self):
        # A 1 MiB block of 13-digit records is one run: its record matrix is
        # a view of the block, and the temporaries take a few bytes a record.
        three = b"signal,%013d\nherald,%013d\nsignal,%013d\n"
        buf = b"".join(three % (t, t, t + 1) for t in range(10**12, 10**12 + 17_000))
        buf = buf[: buf.rfind(b"\n", 0, 1 << 20) + 1]
        codes, times = np.empty(len(buf) // 9, np.uint8), np.empty(len(buf) // 9, np.int64)
        tracemalloc.start()
        try:
            n = channel._csv_block(buf, len(buf), codes, times, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == len(buf) // 21
        assert peak <= 4.31 * 2**20

    def test_int64_maximum_and_unterminated_last_line(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_bytes(CSV_HEAD % 2**63 + b"signal,0\nherald,9223372036854775807\n")
        back = read_tags_csv(str(path))
        assert back.channels.tolist() == [0, 1]
        assert back.times_ps.tolist() == [0, 2**63 - 1]
        # without its newline, the last line is a truncated record
        path.write_bytes(CSV_HEAD % 2**63 + b"signal,0\nherald,9223372036854775807")
        with pytest.raises(ValueError, match="^bad tag record at line 4: 'herald,922.*807'$"):
            read_tags_csv(str(path))

    @pytest.mark.parametrize(
        "body",
        [
            b"signal,10\nherald,1x\nsignal,12\n",
            b"signal,10\nheralx,11\nsignal,12\n",
            b"signal,10\r\nherald,1 \r\nsignal,12\r\n",
            b"signal,9223372036854775806\nsignal,9223372036854775808\n",
            b"signal,10\nherald,1x\n",  # the last row of a block of one width
            b"signal,10\nheralx,11\n",
            b"signal,10\nsignal,110signal,12\n",  # no newline at its row's end
            b"signal,19\nsignal,2a\n",  # rows are checked one by one, and 9 is a digit
        ],
    )
    def test_bad_record_inside_a_run(self, body, tmp_path):
        # the bad record has the length of the good one before it, or the
        # block is a whole number of rows of the first line's width; a CRLF
        # line is itself a bad record, so there the first line is named
        path = tmp_path / "tags.csv"
        path.write_bytes(CSV_HEAD % 2**63 + body)
        line = 3 if b"\r" in body else 4
        with pytest.raises(ValueError, match=f"bad tag record at line {line}"):
            read_tags_csv(str(path))

    def test_error_names_the_first_bad_line(self, tmp_path):
        path = tmp_path / "tags.csv"
        head = CSV_HEAD % 100 + b"signal,1\nherald,1\n"  # lines 1-4
        path.write_bytes(head + b"herald,1x\nsignal,2\r\n")
        with pytest.raises(ValueError, match="^bad tag record at line 5: 'herald,1x'$"):
            read_tags_csv(str(path))
        path.write_bytes(head + b"signal,2\r\nherald,1x\n")
        with pytest.raises(ValueError, match=r"^bad tag record at line 5: 'signal,2\\r'$"):
            read_tags_csv(str(path))
        path.write_bytes(head + b"signal,10\nsignal,9\nsignal,1x\n")
        with pytest.raises(StreamOrderError, match="^unsorted stream at line 6$"):
            read_tags_csv(str(path))

    def test_block_edges(self, tmp_path):
        """Over four `_CSV_BLOCK`s of records: a record across the first
        block edge, a wider run that starts right at the second, and a
        record whose newline is the first byte of the fourth block."""
        body, times = bytearray(), []

        def records(digits: int, count: int) -> None:
            """`count` records of `digits` digits, every third a herald."""
            for _ in range(count):
                times.append(max(times[-1] + 1 if times else 0, 10 ** (digits - 1)))
                body.extend(b"%s,%d\n" % (CSV_NAMES[len(times) % 3 == 0].encode(), times[-1]))

        def fill(digits: int, end: int) -> None:
            """Records of `digits` digits, then of one more, up to exactly `end` bytes."""
            rest = end - len(body)
            wide = rest % (digits + 8)  # rest = (digits + 8) * rows + wide
            records(digits, (rest - wide) // (digits + 8) - wide)
            records(digits + 1, wide)
            assert len(body) == end

        fill(13, 2 * _CSV_BLOCK)
        assert body[_CSV_BLOCK - 1] != ord("\n")  # a record across the first edge
        fill(15, 3 * _CSV_BLOCK + 1)
        assert body[2 * _CSV_BLOCK + 22] == ord("\n")  # 15 digits from the second edge on
        assert body[3 * _CSV_BLOCK] == ord("\n")
        records(17, 50)

        path = tmp_path / "tags.csv"
        head = CSV_HEAD % 2**60
        path.write_bytes(head + body)
        back = read_tags_csv(str(path))
        assert same_stream(back, loadtxt_read_tags_csv(str(path)))
        assert back.times_ps.tolist() == times
        assert np.flatnonzero(back.channels).tolist() == list(range(2, len(times), 3))

        # a bad record in the fourth block names its file line
        bad = body.rindex(b"signal,")
        path.write_bytes(head + body[:bad] + b"sIgnal" + body[bad + 6 :])
        lineno = (head + body[:bad]).count(b"\n") + 1
        with pytest.raises(ValueError, match=f"^bad tag record at line {lineno}: 'sIgnal,"):
            read_tags_csv(str(path))
        # as does a last record cut short
        path.write_bytes(head + body[:-1])
        with pytest.raises(ValueError, match=f"^bad tag record at line {len(times) + 2}: "):
            read_tags_csv(str(path))


class TestPutDigits:
    # 0, then 10**k - 1 and 10**k at every k, then the int64 maximum:
    # at every width some of these are wider than the width, some narrower
    VALUES = np.array(sorted({0, 2**63 - 1} | {10**k + e for k in range(19) for e in (-1, 0)}))

    @pytest.mark.parametrize("width", range(1, 20))
    def test_last_digits_zero_padded_into_a_column_slice(self, width):
        # a column slice of a wider matrix, as `write_tags_csv` and the
        # image writers pass it; the columns around it stay untouched
        m = np.full((self.VALUES.size, width + 10), ord("x"), np.uint8)
        channel.put_digits(m[:, 7 : 7 + width], self.VALUES)
        for row, v in zip(m, self.VALUES.tolist()):
            assert row.tobytes() == b"x" * 7 + b"%0*d" % (width, v % 10**width) + b"xxx"

    def test_quad_table(self):
        assert channel._QUADS.shape == (10000,)
        assert all(channel._QUADS[i].tobytes() == b"%04d" % i for i in range(10000))

    def test_digits_go_four_at_a_time_from_the_right(self):
        # with every word of the table replaced, the last 4k digits come
        # from the table and only the leading width % 4 are formatted alone
        marked = np.full(10000, int.from_bytes(b"abcd", "little"), "<u4")
        m = np.zeros((2, 11), np.uint8)
        with mock.patch.object(channel, "_QUADS", marked):
            channel.put_digits(m, np.array([12345678901, 0]))
        assert m.tobytes() == b"123abcdabcd" + b"000abcdabcd"


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
    assert in_stream_order(stream)
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

    def test_last_index_exactly_n(self):
        # n = 100, p = 0.01: one block of 21 gaps, twenty of 1 and then 81,
        # so the block's last index is n itself, the first past the trials
        class Gaps:
            def geometric(self, p, size):
                assert size == 21
                return np.array([1] * 20 + [81])

        assert _bernoulli_indices(0.01, 100, Gaps()).tolist() == list(range(20))

    def test_rejects_probability_outside_unit_interval(self):
        with pytest.raises(ValueError):
            _bernoulli_indices(-1e-3, 10, substream(13, 3))


def dead_time_loop(times: np.ndarray, dead_time_ps: int) -> np.ndarray:
    """The sequential dead-time rule, one tag at a time: the oracle for
    `_apply_dead_time`."""
    if times.size < 2:
        return times
    keep = np.ones(times.size, dtype=bool)
    last = times[0]
    for i in range(1, times.size):
        if times[i] - last < dead_time_ps:
            keep[i] = False
        else:
            last = times[i]
    return times[keep]


@settings(max_examples=500, deadline=None)
@given(
    dead_time_ps=st.integers(1, 40),
    gaps=st.lists(st.integers(0, 50), max_size=300),
    start=st.integers(0, 2**62),
)
@example(dead_time_ps=1, gaps=[0, 0, 1, 0, 1, 1, 2, 0], start=0)  # ties at the shortest dead time
@example(dead_time_ps=10, gaps=[3] * 200, start=5)  # one run across 201 tags
@example(dead_time_ps=10, gaps=[9, 9, 2, 9, 0, 10, 1], start=0)
@example(dead_time_ps=7, gaps=[], start=0)
def test_dead_time_matches_sequential_rule(dead_time_ps, gaps, start):
    times = start + np.cumsum(np.array([0] + gaps, dtype=np.int64))
    got = _apply_dead_time(times, dead_time_ps)
    assert got.dtype == times.dtype
    assert np.array_equal(got, dead_time_loop(times, dead_time_ps))
