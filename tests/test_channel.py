import hashlib
import math
import os
import struct
import threading
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
    TimeTagStream,
    _apply_dead_time,
    _bernoulli_indices,
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
    ExperimentConfig,
    SourceParams,
    paper_default,
    validate_config,
)
from qisim.rng import substream
from qisim.source import THERMAL_PAIRS

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

    def test_thermal_sampler_rejects_nothing(self):
        # herald clicks: no noise click and no surviving herald photon,
        # E[(1 - eta_h)^n] = 1 / (1 + mu eta_h) for the thermal law
        cfg = make_config(mu=0.5, eta_herald=0.5, noise_herald_per_bin=1e-3, jitter_herald_ps=0.0)
        n = 10**5
        stream = simulate_tags(cfg, True, n, substream(8, 0), pair_law=THERMAL_PAIRS)
        assert in_stream_order(stream)
        from qisim.correlator import bin_and_count

        counts = bin_and_count(stream, cfg.channel.bin_width_ps, cfg.pulse_period_ps)
        p_h = 1.0 - math.exp(-1e-3) / (1.0 + 0.5 * 0.5)
        assert_within_sigma(counts.n_herald_clicks, n * p_h, binomial_std(n, p_h), "thermal heralds")

    def test_thermal_tags_match_closed_form(self):
        # the thermal oracle, not Poisson: at mu = 0.5 the Poisson signal
        # singles, herald singles and coincidences sit 19, 37 and 5 sigma away
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

        stream = simulate_tags(cfg, True, n, substream(8, 2), pair_law=THERMAL_PAIRS)
        counts = bin_and_count(stream, cfg.channel.bin_width_ps, cfg.pulse_period_ps)
        p11, p10, p01, _ = click_pattern_probabilities(cfg.source, cfg.channel, True, THERMAL_PAIRS)
        for label, observed, p in (
            ("signal", counts.n_signal_clicks, p11 + p10),
            ("herald", counts.n_herald_clicks, p11 + p01),
            ("coinc", counts.n_coincidences, p11),
        ):
            assert_within_sigma(observed, n * p, binomial_std(n, p), f"thermal {label}")

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

    def test_rejects_negative_pulse_count(self):
        with pytest.raises(ValueError, match="n_pulses"):
            simulate_tags(make_config(), True, -5, substream(8, 1))

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
        cfg = make_config(mu=0.0)  # no light, so no draw scales with the pulse count
        n = (2**63 - 1) // cfg.pulse_period_ps
        assert simulate_tags(cfg, True, n, substream(8, 3)).duration_ps == n * cfg.pulse_period_ps
        with pytest.raises(ValueError, match="int64"):
            simulate_tags(cfg, True, n + 1, substream(8, 3))

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
        path = tmp_path / "tags.csv"
        with pytest.raises(ValueError, match="7"):
            write_tags_csv(TimeTagStream.from_arrays([0, 7], [5, 6], 25_000), str(path))
        assert not path.exists()

    def test_csv_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("channel,time_ps\nsideways,12\n")
        with pytest.raises(ValueError, match="bad tag record"):
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
    @settings(max_examples=100, deadline=None, suppress_health_check=[SHARED_TMP_PATH])
    @given(stream=valid_streams())
    @example(stream=TimeTagStream.from_arrays([], [], 0))
    @example(stream=TimeTagStream.from_arrays([], [], 12_500))
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
        # without a duration line the duration is 0, so no tag is in range
        path = tmp_path / "tags.csv"
        path.write_text("channel,time_ps\nsignal,5\n")
        with pytest.raises(ValueError, match="outside"):
            read_tags_csv(str(path))

    def test_csv_requires_header(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("# duration_ps=25000\nsignal,5\n")
        with pytest.raises(ValueError, match="header"):
            read_tags_csv(str(path))


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


def csv_record_forms(clean: bool) -> st.SearchStrategy:
    """(filler lines, name, zero padding, sign or space, suffix, line end)
    of one record. Clean forms are all valid; the others add forms that
    either reader may reject."""

    def pick(good, bad):
        return st.sampled_from(good if clean else good * 3 + bad)

    filler = pick(["", "#", "# c", "#x,5"], [" ", "\t", "  # c"])
    if not clean:
        filler |= st.text(st.sampled_from("signalherd,0123456789#+- \t\r"), max_size=10)
    return st.tuples(
        st.lists(filler, max_size=2),
        pick(["signal", "herald"], ["Signal", "heraldx", "", " signal"]),
        pick(["", "", "0", "000"], ["0" * 20]),
        pick([""], [" ", "\t", "+", "-"]),
        pick([""], [" ", "#x", ",", ".0"]),
        pick(["\n", "\r\n"], ["\r"]),
    )


RECORD_FORMS = st.sampled_from([csv_record_forms(True), csv_record_forms(False)])
CSV_TIMES = st.lists(st.integers(0, 10**6) | st.integers(0, 2**63 + 10), max_size=12)


@st.composite
def csv_bodies(draw):
    """ASCII tag-CSV bodies: sorted times in records between comment and
    blank lines, with LF or CRLF line ends, leading zeros and sometimes no
    newline at the end; half of them also carry rejectable forms."""
    times = sorted(draw(CSV_TIMES))
    forms = draw(st.lists(draw(RECORD_FORMS), min_size=len(times), max_size=len(times)))
    body = "".join(
        "".join(f + end for f in filler) + f"{name},{pre}{pad}{t}{post}{end}"
        for t, (filler, name, pad, pre, post, end) in zip(times, forms)
    )
    if draw(st.booleans()):  # the last line without its line end
        body = body.removesuffix("\n").removesuffix("\r")
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

    @settings(max_examples=400, deadline=None, suppress_health_check=[SHARED_TMP_PATH])
    @given(body=csv_bodies(), duration=st.sampled_from([10**6 + 1, 2**63]))
    @example(body=b"signal,5\r\nherald,5\n# c\n\nsignal,0012\r\n\r\nherald,13", duration=100)
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
        ],
    )
    def test_rejected_forms(self, body, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_bytes(CSV_HEAD % 2**63 + body)
        with pytest.raises(ValueError, match="bad tag record at line 3"):
            read_tags_csv(str(path))

    @settings(max_examples=300, deadline=None, suppress_health_check=[SHARED_TMP_PATH])
    @given(body=csv_bodies(), block=st.integers(1, 40))
    def test_block_size_changes_nothing(self, body, block, tmp_path):
        # every line of these bodies crosses block edges at some block size
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

    def test_mixed_line_ends(self, tmp_path):
        # records of one width with LF and CRLF ends are not evenly spaced
        path = tmp_path / "tags.csv"
        body = b"signal,10\r\nsignal,11\nherald,12\r\nsignal,13\nsignal,14\n"
        path.write_bytes(CSV_HEAD % 100 + body)
        back = read_tags_csv(str(path))
        assert back.times_ps.tolist() == [10, 11, 12, 13, 14]
        assert back.channels.tolist() == [0, 0, 1, 0, 0]

    def test_int64_maximum_and_unterminated_last_line(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_bytes(CSV_HEAD % 2**63 + b"signal,0\r\nherald,9223372036854775807")
        back = read_tags_csv(str(path))
        assert back.channels.tolist() == [0, 1]
        assert back.times_ps.tolist() == [0, 2**63 - 1]

    @pytest.mark.parametrize(
        "body",
        [
            b"signal,10\nherald,1x\nsignal,12\n",
            b"signal,10\nheralx,11\nsignal,12\n",
            b"signal,10\r\nherald,1 \r\nsignal,12\r\n",
            b"signal,9223372036854775806\nsignal,9223372036854775808\n",
        ],
    )
    def test_bad_record_inside_a_run(self, body, tmp_path):
        # the bad record has the length of the good one before it
        path = tmp_path / "tags.csv"
        path.write_bytes(CSV_HEAD % 2**63 + body)
        with pytest.raises(ValueError, match="bad tag record at line 4"):
            read_tags_csv(str(path))

    def test_error_names_the_first_bad_line(self, tmp_path):
        path = tmp_path / "tags.csv"
        head = b"# run 7\n\n" + CSV_HEAD % 100 + b"# body\n\nsignal,1\r\n"  # lines 1-7
        path.write_bytes(head + b"herald,1x\n# c\rx\n")
        with pytest.raises(ValueError, match="at line 8: expected"):
            read_tags_csv(str(path))
        path.write_bytes(head + b"# c\rx\nherald,1x\n")
        with pytest.raises(ValueError, match="at line 8: carriage return"):
            read_tags_csv(str(path))

    def test_block_edges(self, tmp_path):
        """Over three `_CSV_BLOCK`s: a comment line across the first block
        edge, a second block of comments only, a CRLF record across the
        second edge and a blank CRLF line across the third; the last line
        has no newline."""
        head = CSV_HEAD % 2**40
        body, times, heralds = bytearray(), [], []

        def fill(offset: int, comment: bytes = b"") -> None:
            """Records, or copies of the comment, then one shorter comment
            or blank line, up to `offset` bytes of body."""
            while offset - len(body) >= 22:
                if comment:
                    body.extend(comment)
                else:
                    times.append(len(times))
                    body.extend(b"signal,%013d\n" % times[-1])
            rest = offset - len(body)
            body.extend(b"#" * (rest - 1) + b"\n" if rest else b"")

        fill(_CSV_BLOCK - 10)
        body.extend(b"# across the first edge\n")
        fill(2 * _CSV_BLOCK - 22, comment=b"# nothing but notes..\n")
        assert b"," not in body[_CSV_BLOCK:]
        heralds.append(len(times))
        times.append(len(times))
        body.extend(b"herald,%013d\r\n" % times[-1])
        assert body[2 * _CSV_BLOCK - 2 : 2 * _CSV_BLOCK] == b"\r\n"
        fill(3 * _CSV_BLOCK - 1)
        body.extend(b"\r\n")
        fill(3 * _CSV_BLOCK + 1000)
        heralds.append(len(times))
        times.append(len(times))
        body.extend(b"herald,%d" % times[-1])

        path = tmp_path / "tags.csv"
        path.write_bytes(head + body)
        back = read_tags_csv(str(path))
        assert same_stream(back, loadtxt_read_tags_csv(str(path)))
        assert back.times_ps.tolist() == times
        assert np.flatnonzero(back.channels).tolist() == heralds

        # a bad record in the fourth block names its file line
        bad = body.rindex(b"signal,")
        body[bad : bad + 6] = b"sIgnal"
        path.write_bytes(head + body)
        lineno = (head + body[:bad]).count(b"\n") + 1
        with pytest.raises(ValueError, match=f"bad tag record at line {lineno}:"):
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
