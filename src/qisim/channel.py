"""One acquisition: pulses, pair generation, loss, noise, detector clicks.

Two modes produce the same per-bin statistics:

* `simulate_counts` draws the four per-pulse click patterns (both, signal
  only, herald only, neither) from one multinomial over the closed-form
  pattern probabilities of `model.click_pattern_probabilities`. It is
  exact for Poisson pair statistics and costs O(1) per acquisition segment
  regardless of the pulse count.
* `simulate_tags` realizes the event stream explicitly: pair numbers,
  per-photon survival, pulse-locked jamming, uniform dark counts and
  Gaussian detector jitter, reduced to click tags with at most one tag per
  channel per bin. It draws only the pulses that carry light: each
  pulse-locked process (pair-bearing pulses, jamming, pair-less herald
  noise) is a Bernoulli process over the pulses whose successes are found
  by geometric gap sampling, so the cost is O(events), not O(pulses). It
  exists to exercise the correlator and the timing model, and it accepts a
  pair-number law (`source.PairLaw`).

Timing is integer picoseconds. Jamming light is pulse-locked (it is
engineered to be indistinguishable from the signal photons); dark and
stray counts are uniform over the run, at a rate chosen so their mean
inside the bin windows matches the per-bin intensities of the aggregate
model.

`bin_indices` is the pulse-locked binning rule: the click-per-bin dedupe
here and the correlator's reduction both use it.
"""

from __future__ import annotations

import enum
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ClickCounts, ExperimentConfig, click_pattern_probabilities
from .source import POISSON_PAIRS, PairLaw


class Channel(enum.IntEnum):
    SIGNAL = 0
    HERALD = 1


class StreamOrderError(ValueError):
    """The tag stream is not time-ordered."""


@dataclass
class TimeTagStream:
    """Time-ordered detection record for both channels.

    Stored as parallel arrays: channel codes in {0, 1} and times in
    [0, duration_ps), sorted by time, ties broken Signal before Herald.
    The constructor checks this invariant, so every stream (simulated,
    read from a file or built directly) holds it: bad order raises
    `StreamOrderError`, any other violation `ValueError`.
    Arrays are treated as read-only after construction.
    """

    channels: np.ndarray  # uint8, values from Channel
    times_ps: np.ndarray  # int64, within [0, duration_ps)
    duration_ps: int

    def __post_init__(self) -> None:
        c, t = np.asarray(self.channels), np.asarray(self.times_ps).astype(np.int64, copy=False)
        self.duration_ps = int(self.duration_ps)
        if c.ndim != 1 or c.shape != t.shape:
            raise ValueError("channels and times_ps must be 1-D and of equal length")
        bad = (c != Channel.SIGNAL) & (c != Channel.HERALD)
        if bad.any():
            raise ValueError(f"channel code {c[bad][0]} is not signal (0) or herald (1)")
        # On the int64 values: a u64 time of 2**63 or more has wrapped negative.
        if t.size and (t.min() < 0 or t.max() >= self.duration_ps):
            raise ValueError(f"tag time outside [0, {self.duration_ps}) ps")
        if np.any((t[1:] < t[:-1]) | ((t[1:] == t[:-1]) & (c[1:] < c[:-1]))):
            raise StreamOrderError("unsorted stream")
        self.channels, self.times_ps = np.ascontiguousarray(c, np.uint8), np.ascontiguousarray(t)

    def __len__(self) -> int:
        return int(self.times_ps.shape[0])

    @staticmethod
    def from_arrays(
        channels: np.ndarray, times_ps: np.ndarray, duration_ps: int, sort: bool = True
    ) -> "TimeTagStream":
        """Build a stream; with sort=True the tags are put in stream order first."""
        channels, times_ps = np.asarray(channels), np.asarray(times_ps)
        if sort and times_ps.shape[0] > 1:
            order = np.lexsort((channels, times_ps))
            channels, times_ps = channels[order], times_ps[order]
        return TimeTagStream(channels, times_ps, duration_ps)


def collection_fraction_max(d_m: float, dist_m: float) -> float:
    """Upper bound on the collected fraction of diffusely scattered light.

    Ratio of the collectable-mode solid angle to the scattering hemisphere:
    pi (d/2)^2 / (2 pi D^2) = d^2 / (8 D^2).
    """
    if dist_m <= 0:
        raise ValueError("dist_m must be positive")
    if d_m < 0:
        raise ValueError("d_m must be non-negative")
    return d_m * d_m / (8.0 * dist_m * dist_m)


def simulate_counts(
    config: ExperimentConfig, target_in: bool, n_pulses: int, rng: np.random.Generator
) -> ClickCounts:
    """Aggregate acquisition: one multinomial over the click patterns."""
    if n_pulses < 0:
        raise ValueError("n_pulses must be non-negative")
    patterns = click_pattern_probabilities(config.source, config.channel, target_in)
    n11, n10, n01, _ = rng.multinomial(n_pulses, patterns)
    return ClickCounts(
        n_pulses=n_pulses,
        n_signal_clicks=int(n11 + n10),
        n_herald_clicks=int(n11 + n01),
        n_coincidences=int(n11),
        target_in=target_in,
    )


_TAG_CHUNK = 1 << 20


def _bernoulli_indices(p: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of the successes among n independent Bernoulli(p) trials.

    The gaps between successes are geometric (Devroye, Non-Uniform Random
    Variate Generation, 1986). They are drawn in blocks of at most
    `_TAG_CHUNK`, so time and memory are O(successes), not O(n).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Bernoulli probability {p} is outside [0, 1]")
    if p == 0.0 or n <= 0:
        return np.empty(0, dtype=np.int64)
    parts = []
    last = -1
    while True:
        expect = (n - 1 - last) * p
        size = int(min(_TAG_CHUNK, expect + 4.0 * math.sqrt(expect) + 16.0))
        # For tiny p the draws saturate at the int64 maximum. A gap above n
        # lands past the last pulse whatever its size, so capping it at
        # n + 1 changes nothing and keeps the cumulative sum from wrapping.
        idx = last + np.cumsum(np.minimum(rng.geometric(p, size), n + 1))
        if idx[-1] >= n:
            parts.append(idx[: np.searchsorted(idx, n)])
            return np.concatenate(parts)
        parts.append(idx)
        last = int(idx[-1])


def simulate_tags(
    config: ExperimentConfig,
    target_in: bool,
    n_pulses: int,
    rng: np.random.Generator,
    pair_law: PairLaw = POISSON_PAIRS,
) -> TimeTagStream:
    """Explicit time-tag acquisition.

    Pulse k sits at time k*T. The pair-bearing pulses are drawn with
    probability P(n > 0) of the pair law and their pair numbers from its
    zero-truncated law; each pair's signal and herald photons survive their
    arms independently. Pulse-locked noise adds clicks on the pulses of two
    more Bernoulli processes: jamming on the signal channel, with
    p = 1 - exp(-beta), and pair-less herald detections, with
    p = 1 - exp(-delta_h). A pulse with a photon click and a noise click on
    one channel still gives one tag there. Pulse-locked clicks are stamped
    k*T plus per-detector Gaussian jitter. Dark and stray counts arrive
    uniformly over the run. At most one tag survives per channel per bin
    (click-detector semantics); tags jittered outside [0, duration) are
    lost.
    """
    if n_pulses < 0:
        raise ValueError("n_pulses must be non-negative")
    src, ch = config.source, config.channel
    period = config.pulse_period_ps
    duration = n_pulses * period

    pulses = _bernoulli_indices(pair_law.p_nonzero(src.mu), n_pulses, rng)
    pairs = pair_law.truncated(src.mu, rng, pulses.size)
    sig_pulses = pulses[rng.binomial(pairs, ch.signal_arm_efficiency(target_in)) > 0]
    her_pulses = pulses[rng.binomial(pairs, src.eta_herald) > 0]
    sig_pulses = np.union1d(
        sig_pulses, _bernoulli_indices(-math.expm1(-ch.background_per_bin), n_pulses, rng)
    )
    her_pulses = np.union1d(
        her_pulses, _bernoulli_indices(-math.expm1(-src.noise_herald_per_bin), n_pulses, rng)
    )

    locked = []
    for idx, jitter in ((sig_pulses, ch.jitter_signal_ps), (her_pulses, ch.jitter_herald_ps)):
        t = (idx * period).astype(np.float64)
        if jitter > 0:
            t += rng.normal(0.0, jitter, idx.size)
        locked.append(np.rint(t).astype(np.int64))
    sig_times, her_times = locked

    # Uniform processes: per-bin intensity delta spread over the period means
    # a time density of delta / bin_width per picosecond.
    uniform_rate = (ch.dark_signal_per_bin + ch.stray_light_per_bin) / ch.bin_width_ps
    if uniform_rate > 0 and duration > 0:
        n_dark = rng.poisson(uniform_rate * duration)
        if n_dark:
            sig_times = np.concatenate(
                [sig_times, rng.integers(0, duration, n_dark, dtype=np.int64)]
            )

    streams = []
    for chan, times in ((Channel.SIGNAL, sig_times), (Channel.HERALD, her_times)):
        times = times[(times >= 0) & (times < duration)]
        times.sort(kind="stable")
        times = _dedupe_bins(times, ch.bin_width_ps, period, n_pulses)
        if ch.dead_time_ps > 0:
            times = _apply_dead_time(times, ch.dead_time_ps)
        streams.append((chan, times))

    channels = np.concatenate(
        [np.full(t.shape[0], int(c), dtype=np.uint8) for c, t in streams]
    )
    times_all = np.concatenate([t for _, t in streams])
    return TimeTagStream.from_arrays(channels, times_all, duration, sort=True)


def bin_indices(times: np.ndarray, bin_width_ps: int, pulse_period_ps: int, n_pulses: int):
    """Nearest-pulse index of each tag and whether it lies inside that bin.

    Bin k is the window [k*T - w/2, k*T + w/2) around pulse time k*T, for
    pulses 0 <= k < n_pulses.
    """
    k = (times + pulse_period_ps // 2) // pulse_period_ps
    offset = times - k * pulse_period_ps
    in_bin = (2 * offset >= -bin_width_ps) & (2 * offset < bin_width_ps)
    in_bin &= (k >= 0) & (k < n_pulses)
    return k, in_bin


def _dedupe_bins(times: np.ndarray, bin_width: int, period: int, n_pulses: int) -> np.ndarray:
    """Keep the first tag in each occupied bin; tags between bins pass through."""
    if times.size == 0:
        return times
    k, in_bin = bin_indices(times, bin_width, period, n_pulses)
    keep = np.ones(times.size, dtype=bool)
    idx = np.flatnonzero(in_bin)
    if idx.size > 1:
        dup = np.zeros(idx.size, dtype=bool)
        dup[1:] = k[idx[1:]] == k[idx[:-1]]
        keep[idx[dup]] = False
    return times[keep]


def _apply_dead_time(times: np.ndarray, dead_time_ps: int) -> np.ndarray:
    """Drop tags within the dead time of the last kept tag on this channel."""
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


# ---------------------------------------------------------------------------
# Stream export formats
# ---------------------------------------------------------------------------

QITT_MAGIC = b"QITT"
QITT_VERSION = 1
_HEADER = struct.Struct("<4sHHQ")  # magic, version, reserved, duration_ps
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("time_ps", "<u8")])


def write_qitt(stream: TimeTagStream, path: str) -> None:
    """Binary little-endian tag records behind a 16-byte header."""
    records = np.empty(len(stream), dtype=_RECORD_DTYPE)
    records["channel"] = stream.channels
    records["time_ps"] = stream.times_ps.astype(np.uint64)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(QITT_MAGIC, QITT_VERSION, 0, stream.duration_ps))
        fh.write(records.tobytes())


def read_qitt(path: str) -> TimeTagStream:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError("truncated QITT header")
        magic, version, _, duration = _HEADER.unpack(header)
        if magic != QITT_MAGIC:
            raise ValueError("not a QITT file")
        if version != QITT_VERSION:
            raise ValueError(f"unsupported QITT version {version}")
        body = fh.read()
    if len(body) % _RECORD_DTYPE.itemsize:
        raise ValueError("truncated QITT record")
    records = np.frombuffer(body, dtype=_RECORD_DTYPE)
    return TimeTagStream(records["channel"], records["time_ps"], duration)


_CSV_NAMES = {Channel.SIGNAL: "signal", Channel.HERALD: "herald"}
_CSV_HEADER = "channel,time_ps"
_CSV_BLOCK = 1 << 16  # tags formatted per write


def write_tags_csv(stream: TimeTagStream, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# duration_ps={stream.duration_ps}\n")
        fh.write(f"{_CSV_HEADER}\n")
        for s in range(0, len(stream), _CSV_BLOCK):
            block = zip(
                stream.channels[s : s + _CSV_BLOCK].tolist(),
                stream.times_ps[s : s + _CSV_BLOCK].tolist(),
            )
            fh.write("".join([f"{_CSV_NAMES[c]},{t}\n" for c, t in block]))


def read_tags_csv(path: str) -> TimeTagStream:
    """Read a tag CSV. Comment and blank lines may precede the header; a
    `# duration_ps=N` comment among them sets the duration (0 without one)."""
    duration, line = 0, ""
    with open(path, "r", encoding="utf-8") as fh:
        for line in iter(fh.readline, ""):
            line = line.strip()
            if line and not line.startswith("#"):
                break
            if "duration_ps=" in line:
                duration = int(line.split("duration_ps=", 1)[1])
        if line != _CSV_HEADER:
            raise ValueError(f"expected the header {_CSV_HEADER!r}, got {line!r}")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # S7, one byte longer than the names: "signalX" is not cut to "signal"
            body = np.loadtxt(fh, delimiter=",", dtype=[("name", "S7"), ("t", "<i8")], ndmin=1)
    herald = body["name"] == b"herald"
    unknown = ~herald & (body["name"] != b"signal")
    if unknown.any():
        raise ValueError(f"bad tag record: channel {body['name'][unknown][0]!r}")
    return TimeTagStream(herald.astype(np.uint8), body["t"], duration)
