"""One acquisition: pulses, pair generation, loss, noise, detector clicks.

Both modes sample from one closed form, `model.click_pattern_probabilities`,
and so produce the same per-bin statistics:

* `simulate_counts` draws the four per-pulse click patterns (both, signal
  only, herald only, neither) from one multinomial over the pattern
  probabilities. It costs O(1) per acquisition segment regardless of the
  pulse count.
* `simulate_tags` realizes the event stream: the pulse-locked click
  patterns (pairs, jamming and pair-less herald noise), uniform dark
  counts and Gaussian detector jitter, reduced to click tags with at most
  one tag per channel per bin. It draws only the pulses that carry a
  pulse-locked click, found by geometric gap sampling of one Bernoulli
  process, so the cost is O(events), not O(pulses). It exists to exercise
  the correlator and the timing model, and it accepts a pair-number law
  (`source.PairLaw`).

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
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .model import ClickCounts, ExperimentConfig, click_pattern_probabilities
from .source import POISSON_PAIRS, PairLaw


class Channel(enum.IntEnum):
    SIGNAL = 0
    HERALD = 1


class StreamOrderError(ValueError):
    """The tag stream is not time-ordered."""


_DURATION_MAX = 2**64 - 1  # the u64 duration field of the QITT header


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
        self.duration_ps = int(self.duration_ps)
        if not 0 <= self.duration_ps <= _DURATION_MAX:
            raise ValueError(f"duration_ps {self.duration_ps} outside [0, 2**64 - 1]")
        c = np.asarray(self.channels)
        try:
            t = np.asarray(self.times_ps).astype(np.int64, copy=False)
        except OverflowError:  # a Python int beyond the int64 range
            raise ValueError(f"tag time outside [0, {self.duration_ps}) ps") from None
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

    Pulse k sits at time k*T. Each pulse's pulse-locked click pattern (both
    channels, signal only, herald only) comes from
    `model.click_pattern_probabilities` under `pair_law`, with dark and stray
    light left out because they are uniform in time. The pulses with any
    locked click are one Bernoulli process over the pulses, and each of them
    takes one categorical draw among the three patterns. Locked clicks are
    stamped k*T plus per-detector Gaussian jitter. Dark and stray counts
    arrive uniformly over the run. At most one tag survives per channel per
    bin (click-detector semantics); tags jittered outside [0, duration) are
    lost.
    """
    if n_pulses < 0:
        raise ValueError("n_pulses must be non-negative")
    src, ch = config.source, config.channel
    period = config.pulse_period_ps
    duration = int(n_pulses) * period
    if duration > np.iinfo(np.int64).max:  # pulse times k*T are int64
        raise ValueError(f"{n_pulses} pulses of {period} ps pass the int64 picosecond range")

    p11, p10, p01, _ = click_pattern_probabilities(
        src, replace(ch, dark_signal_per_bin=0.0, stray_light_per_bin=0.0), target_in, pair_law
    )
    p_locked = p11 + p10 + p01
    pulses = _bernoulli_indices(min(1.0, p_locked), n_pulses, rng)
    u = rng.random(pulses.size) * p_locked
    sig_pulses = pulses[u < p11 + p10]
    her_pulses = pulses[(u < p11) | (u >= p11 + p10)]

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
    """Drop tags within the dead time of the last kept tag on this channel.

    A tag at least the dead time after its predecessor is always kept, and
    the tag right after a kept one is dropped if it is closer than that. So
    only runs of three or more tags, each close to its predecessor, need the
    sequential rule; there each kept tag is found from the last one by
    binary search.
    """
    if times.size < 2:
        return times
    keep = np.concatenate(([True], np.diff(times) >= dead_time_ps))
    heads = np.flatnonzero(keep)
    ends = np.append(heads[1:], times.size)
    runs = ends - heads > 2
    for s, e in zip(heads[runs].tolist(), ends[runs].tolist()):
        last, stop = int(times[s]), int(times[e - 1])
        while last + dead_time_ps <= stop:
            i = s + int(np.searchsorted(times[s:e], last + dead_time_ps))
            keep[i], last = True, int(times[i])
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


_CSV_HEADER = b"channel,time_ps"
_CSV_PREFIX = np.array([b"signal,", b"herald,"], dtype="S7")  # by channel code
_CSV_BLOCK = 1 << 20  # bytes per read or write
_DIGIT_BOUNDS = 10 ** np.arange(1, 19, dtype=np.int64)  # the first time of each digit count
_INT64_MAX = b"%d" % np.iinfo(np.int64).max
_SIGNAL_WORD, _HERALD_WORD = (int.from_bytes(n, "little") for n in _CSV_PREFIX)


def write_tags_csv(stream: TimeTagStream, path: str) -> None:
    """Write the duration comment, the header and one record per tag.

    Times are sorted, so their digit counts never decrease: the tags of
    one digit count d are one fixed-width byte matrix of 7 name bytes, d
    digits and a newline, written in pieces of about `_CSV_BLOCK` bytes.
    """
    times, codes = stream.times_ps, stream.channels
    edges = [0, *np.searchsorted(times, _DIGIT_BOUNDS).tolist(), len(stream)]
    with open(path, "wb") as fh:
        fh.write(b"# duration_ps=%d\n%s\n" % (stream.duration_ps, _CSV_HEADER))
        for d, (lo, hi) in enumerate(zip(edges, edges[1:]), start=1):
            step = _CSV_BLOCK // (d + 8)
            for s in range(lo, hi, step):
                e = min(s + step, hi)
                v = times[s:e]
                rows = np.empty((e - s, d + 8), dtype=np.uint8)
                np.ndarray((e - s,), "S7", rows, 0, (d + 8,))[:] = _CSV_PREFIX[codes[s:e]]
                for j in range(d + 6, 6, -1):
                    q = v // 10
                    rows[:, j] = v - 10 * q + ord("0")
                    v = q
                rows[:, -1] = ord("\n")
                fh.write(rows.tobytes())


def read_tags_csv(path: str) -> TimeTagStream:
    """Read a tag CSV. Comment and blank lines may precede the header; a
    `# duration_ps=N` comment among them sets the duration (0 without one).

    The body is read in blocks of about `_CSV_BLOCK` bytes, each cut after
    its last newline and parsed by `_csv_block` into arrays sized from the
    file size.
    """
    duration, line, lineno = 0, b"", 0
    with open(path, "rb") as fh:
        for line in iter(fh.readline, b""):
            lineno += 1
            line = line.strip()
            if line and not line.startswith(b"#"):
                break
            if b"duration_ps=" in line:
                duration = int(line.split(b"duration_ps=", 1)[1])
        if line != _CSV_HEADER:
            got = line.decode(errors="replace")
            raise ValueError(f"expected the header {_CSV_HEADER.decode()!r}, got {got!r}")
        # A record takes at least 9 bytes ("signal,0\n"), so the file size
        # bounds the record count; pages that are never written stay unmapped.
        cap = os.fstat(fh.fileno()).st_size // 9 + 1
        codes, times, n, tail = np.empty(cap, np.uint8), np.empty(cap, np.int64), 0, b""
        while True:
            block = fh.read(_CSV_BLOCK)
            buf = tail + (block or b"\n")  # at the end, the last line may lack its "\n"
            cut = buf.rfind(b"\n") + 1
            if n + cut // 9 > times.size:  # a pipe, or a file that grew after it was opened
                codes, times = np.resize(codes, 2 * (n + cut)), np.resize(times, 2 * (n + cut))
            lineno, n = _csv_block(buf, cut, lineno, codes, times, n)
            if not block:
                break
            tail = buf[cut:]
    return TimeTagStream(codes[:n], times[:n], duration)


def _csv_block(
    buf: bytes, size: int, lineno: int, codes: np.ndarray, times: np.ndarray, n: int
) -> tuple[int, int]:
    """Parse the lines in buf[:size], which ends in a newline or is empty,
    into codes[n:] and times[n:], and return the last line number and the
    new record count.

    `lineno` is the file line number before the block. Empty lines and
    lines starting with `#` are skipped and a `\\r` right before a `\\n`
    is dropped. A record is 7 name bytes, which must be `signal,` or
    `herald,`, then 1 to 19 digits that must not exceed the int64 maximum.
    A bad record raises `ValueError` naming its line.
    """
    a = np.frombuffer(buf, dtype=np.uint8, count=size)
    nl = np.flatnonzero(a == ord("\n"))
    if nl.size == 0:
        return lineno, n
    starts = np.concatenate(([0], nl[:-1] + 1))
    crlf = np.zeros(nl.size, dtype=bool)
    bad = []  # (line index in the block, reason) of the first bad line found by each check
    grammar = "expected signal,<ps> or herald,<ps>"
    n_cr = np.count_nonzero(a == ord("\r"))
    if n_cr:
        crlf = (nl > starts) & (a[nl - 1] == ord("\r"))
        if n_cr != np.count_nonzero(crlf):
            lone = a == ord("\r")
            lone[nl[crlf] - 1] = False
            bad.append((int(np.searchsorted(nl, np.argmax(lone))), "carriage return inside a line"))
    length = nl - starts - crlf
    rec = np.flatnonzero((length > 0) & (a[starts] != ord("#")))
    # Records of one width are parsed together. In a sorted stream they are
    # consecutive lines, a strided view of the block; otherwise they are
    # gathered first. Widths past 26 are all bad, so they share one group.
    width = np.minimum(length[rec], 27)
    for w in np.flatnonzero(np.bincount(width)).tolist():
        idx = np.flatnonzero(width == w)
        lines, m, d = rec[idx], idx.size, w - 7
        if not 1 <= d <= 19:
            bad.append((int(lines[0]), grammar))
            continue
        ends = crlf[lines]
        if lines[-1] - lines[0] == m - 1 and (ends.all() or not ends.any()):
            rows, at, pitch = a, int(starts[lines[0]]), w + 1 + int(ends[0])
            dest = slice(n + int(idx[0]), n + int(idx[0]) + m)
        else:
            rows, at, pitch = a[starts[lines, None] + np.arange(w)], 0, w
            dest = n + idx
        # the name and the first digit as one little-endian word; the mask drops the digit
        name = np.ndarray((m,), "<u8", rows, at, (pitch,)) & np.uint64(2**56 - 1)
        herald = name == _HERALD_WORD
        ok = herald | (name == _SIGNAL_WORD)
        digits = np.ndarray((m, d), np.uint8, rows, at + 7, (pitch, 1)) - ord("0")
        if digits.max() > 9:  # rows are checked one by one only on failure
            ok &= digits.max(axis=1) <= 9
        if d == 19:
            ok &= np.ndarray((m,), "S19", rows, at + 7, (pitch,)) <= _INT64_MAX
        if not ok.all():
            bad.append((int(lines[np.argmin(ok)]), grammar))
            continue
        v = digits[:, 0].astype(np.int64)
        for j in range(1, d):
            v *= 10
            v += digits[:, j]
        codes[dest], times[dest] = herald, v
    if bad:
        i, why = min(bad)
        text = buf[starts[i] : nl[i]].decode("ascii", errors="replace")
        raise ValueError(f"bad tag record at line {lineno + i + 1}: {why}: {text!r}")
    return lineno + nl.size, n + rec.size
