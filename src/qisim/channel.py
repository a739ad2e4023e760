"""One acquisition: pulses, pair generation, loss, noise, detector clicks.

Both modes sample from one closed form, `model.click_pattern_probabilities`,
and so produce the same per-bin statistics:

* `simulate_counts` draws the four per-pulse click patterns (both, signal
  only, herald only, neither) from one multinomial over the pattern
  probabilities, through `draw_counts`, which a sweep also calls with
  patterns it evaluated for all its rows at once. It costs O(1) per
  acquisition segment regardless of the pulse count.
* `simulate_tags` realizes the event stream: the pulse-locked click
  patterns (pairs, jamming and pair-less herald noise), uniform dark
  counts and Gaussian detector jitter, reduced to click tags with at most
  one tag per channel per bin. It draws only the pulses that carry a
  pulse-locked click, found by geometric gap sampling of one Bernoulli
  process, so the cost is O(events), not O(pulses). Below p = 1/3 the
  gaps come by inversion of exponential draws, the same integers as
  numpy's `geometric`. It exists to exercise the correlator and the
  timing model.

Timing is integer picoseconds: a pulse-locked tag is its pulse time k*T
plus a whole-picosecond jitter offset. Jamming light is pulse-locked (it is
engineered to be indistinguishable from the signal photons); dark and
stray counts are uniform over the run, at a rate chosen so their mean
inside the bin windows matches the per-bin intensities of the aggregate
model.

`bin_indices` is the pulse-locked binning rule and the only same-bin test:
the click-per-bin dedupe here and the correlator's reduction both use it.

A stream is exported as QITT binary records or as a tag CSV. Both
readers check their header and read the body through one block reader,
`_read_blocks`, with a parser per format. The CSV reader takes exactly
the writer's form, and names the line of any error. It reads the digits
of a record eight to a 64-bit word, and a word's digit check is exact for
every byte value.
"""

from __future__ import annotations

import enum
import math
import os
import re
import struct
from dataclasses import dataclass, replace

import numpy as np

from .model import ClickCounts, ExperimentConfig, click_pattern_probabilities


class Channel(enum.IntEnum):
    SIGNAL = 0
    HERALD = 1


class StreamOrderError(ValueError):
    """The tag stream is not time-ordered; `tag` is the index, from 0, of
    the first tag out of order."""

    def __init__(self, message: str, tag: int) -> None:
        super().__init__(message)
        self.tag = tag


_DURATION_MAX = 2**64 - 1  # the u64 duration field of the QITT header


def _fractional(x) -> bool:
    """Whether an object tag time is not a whole number: a fraction, NaN or an infinity."""
    try:
        return int(x) != x
    except (ValueError, OverflowError):  # NaN; an infinity
        return True


@dataclass(frozen=True, eq=False)
class TimeTagStream:
    """Time-ordered detection record for both channels.

    Stored as parallel arrays: channel codes in {0, 1} and times in whole
    picoseconds in [0, duration_ps), sorted by time, ties broken Signal
    before Herald. The constructor checks this invariant, so every stream
    (simulated, read from a file or built directly) holds it: bad order
    raises `StreamOrderError`, any other violation `ValueError`. The checks
    run in this order, and the first that fails raises: whole picoseconds
    (a float or object time with a fractional part, NaN or an infinity;
    Fractions and Decimals included), the codes, before the cast to
    uint8; the time range, after the cast to int64 (a u64 time of 2**63 or
    more is out of range); the order. Streams compare by identity.
    Arrays are treated as read-only after construction.
    """

    channels: np.ndarray  # uint8, values from Channel
    times_ps: np.ndarray  # int64, within [0, duration_ps)
    duration_ps: int

    def __post_init__(self) -> None:
        d = self.duration_ps
        if not isinstance(d, (int, np.integer)) and not float(d).is_integer():  # NaN, inf too
            raise ValueError(f"duration_ps {d} is not a whole number of picoseconds")
        duration = int(d)
        if not 0 <= duration <= _DURATION_MAX:
            raise ValueError(f"duration_ps {duration} outside [0, 2**64 - 1]")
        t = np.asarray(self.times_ps)
        if t.dtype.kind in "fO":  # whole picoseconds; integer arrays skip these passes
            if t.dtype.kind == "f":
                odd = ~np.isfinite(t) | (np.trunc(t) != t)
            else:  # Python ints, Fractions, Decimals: a whole one equals its int()
                odd = np.array([_fractional(x) for x in t.flat], bool).reshape(t.shape)
            if odd.any():
                raise ValueError(f"tag time {t[odd][0]} is not a whole number of picoseconds")
            # no float outside int64 casts to a defined value; -1 fails the range check
            t = np.where((t >= 0) & (t < 2.0**63), t, -1)
        try:  # times first: copying the codes first fragments the heap (+6 MB RSS)
            t = t.astype(np.int64, order="C", copy=False)
        except OverflowError:  # a Python int beyond the int64 range
            raise ValueError(f"tag time outside [0, {duration}) ps") from None
        c = np.ascontiguousarray(self.channels)  # the caller's dtype, so no code has wrapped yet
        if c.ndim != 1 or c.shape != t.shape:
            raise ValueError("channels and times_ps must be 1-D and of equal length")
        # min and max check integer codes; a mask names the bad one, or checks others
        if c.dtype.kind not in "biu" or (c.size and (c.min() < 0 or c.max() > 1)):
            bad = (c != 0) & (c != 1)  # against the enum members, numpy makes int64 copies
            if bad.any():
                raise ValueError(f"channel code {c[bad][0]} is not signal (0) or herald (1)")
        # A break is a tag no later than the one before it; it is out of
        # order if its time is lower, or if it is a Signal tied to the Herald
        # before it.
        breaks = np.flatnonzero(t[1:] <= t[:-1])
        back = (t[breaks + 1] < t[breaks]) | (c[breaks + 1] < c[breaks])
        # On the int64 values: a u64 time of 2**63 or more has wrapped negative.
        if t.size:
            first, last = (t.min(), t.max()) if back.any() else (t[0], t[-1])
            if first < 0 or int(last) >= duration:
                raise ValueError(f"tag time outside [0, {duration}) ps")
        if back.any():
            tag = int(breaks[np.argmax(back)]) + 1
            raise StreamOrderError(f"unsorted stream at tag {tag}", tag)
        object.__setattr__(self, "channels", c.astype(np.uint8, copy=False))
        object.__setattr__(self, "times_ps", t)
        object.__setattr__(self, "duration_ps", duration)

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
    patterns = click_pattern_probabilities(config.source, config.channel, target_in)
    return draw_counts(patterns, n_pulses, rng)


def draw_counts(patterns, n_pulses: int, rng: np.random.Generator) -> ClickCounts:
    """The tallies of n_pulses pulses, drawn as one multinomial over the four
    click patterns (both, signal only, herald only, neither)."""
    if n_pulses < 0:
        raise ValueError("n_pulses must be non-negative")
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
    `_TAG_CHUNK`, so time and memory are O(successes), not O(n). Below
    p = 1/3 a block's gaps come by inversion of one array of exponential
    draws, ceil(-E / log1p(-p)): the integers, and the draws taken, of
    numpy's `Generator.geometric`, which inverts each draw alone. From
    p = 1/3 up, numpy searches instead, so its `geometric` draws them.
    The indices are int64, so n is at most 2**63 - 1.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Bernoulli probability {p} is outside [0, 1]")
    if p == 0.0 or n <= 0:
        return np.empty(0, dtype=np.int64)
    parts = []
    last = -1
    while True:
        # A gap of rest = n - last or more lands past the last pulse whatever
        # its size, so capping it at rest changes nothing. The float cap is
        # the first double from rest up, at most 2**63. A partial sum below
        # rest plus one gap stays below 2**64, so the uint64 sums cannot wrap
        # up to the first that ends the process. Those after it may wrap, so
        # a mask finds it.
        rest = n - last
        expect = (n - 1 - last) * p
        size = int(min(_TAG_CHUNK, expect + 4.0 * math.sqrt(expect) + 16.0))
        if p < 1 / 3:
            cap = float(rest)
            if cap < rest:
                cap = math.nextafter(cap, math.inf)
            gaps = rng.standard_exponential(size)
            with np.errstate(over="ignore"):  # a subnormal p: inf, then the cap
                gaps /= -math.log1p(-p)
            np.ceil(gaps, out=gaps)
            idx = np.minimum(gaps, cap, out=gaps).astype(np.uint64)
        else:
            idx = rng.geometric(p, size).view(np.uint64)
            np.minimum(idx, rest, out=idx)
        np.cumsum(idx, out=idx)
        past = idx >= rest
        end = int(np.argmax(past))
        done = bool(past[end])
        idx = (idx[:end] if done else idx).view(np.int64)
        idx += last
        parts.append(idx)
        if done:
            return np.concatenate(parts)
        last = int(idx[-1])


def simulate_tags(
    config: ExperimentConfig, target_in: bool, n_pulses: int, rng: np.random.Generator
) -> TimeTagStream:
    """Explicit time-tag acquisition.

    Pulse k sits at time k*T. Each pulse's pulse-locked click pattern (both
    channels, signal only, herald only) comes from
    `model.click_pattern_probabilities`, with dark and stray light left out
    because they are uniform in time. The pulses with any locked click are
    one Bernoulli process over the pulses, and each of them takes one
    categorical draw among the three patterns. Locked clicks are stamped
    k*T plus per-detector Gaussian jitter rounded to whole picoseconds, in
    int64 throughout. Dark and stray counts arrive uniformly over the run.
    Each channel keeps its first tag per bin (click-detector semantics),
    then obeys its dead time; tags jittered outside [0, duration) are lost.
    """
    if n_pulses < 0:
        raise ValueError("n_pulses must be non-negative")
    src, ch = config.source, config.channel
    period = config.pulse_period_ps
    duration = int(n_pulses) * period
    if duration > np.iinfo(np.int64).max:  # pulse times k*T are int64
        raise ValueError(f"{n_pulses} pulses of {period} ps pass the int64 picosecond range")

    p11, p10, p01, _ = click_pattern_probabilities(
        src, replace(ch, dark_signal_per_bin=0.0, stray_light_per_bin=0.0), target_in
    )
    p_locked = p11 + p10 + p01
    pulses = _bernoulli_indices(min(1.0, p_locked), n_pulses, rng)
    u = rng.random(pulses.size)
    u *= p_locked
    sig_pulses = np.compress(u < p11 + p10, pulses)
    her_pulses = np.compress((u < p11) | (u >= p11 + p10), pulses)

    locked = []
    for idx, jitter in ((sig_pulses, ch.jitter_signal_ps), (her_pulses, ch.jitter_herald_ps)):
        t = idx * period
        if jitter > 0:
            dt = rng.normal(0.0, jitter, idx.size)
            np.rint(dt, out=dt)
            keep = np.abs(dt) < 2.0**63  # a larger offset leaves the run; no int64 holds it
            if not keep.all():
                t, dt = t[keep], dt[keep]
            dt = dt.astype(np.int64)
            keep = (dt >= -t) & (dt < duration - t)  # t + dt in [0, duration); no sum wraps
            if keep.all():
                t += dt
            else:
                t = t[keep] + dt[keep]
        locked.append(t)
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

    chains = []
    for times in (sig_times, her_times):
        times.sort(kind="stable")
        times = _dedupe_bins(times, ch.bin_width_ps, period, n_pulses)
        chains.append(_apply_dead_time(times, ch.dead_time_ps))
    times = np.concatenate(chains)
    order = np.argsort(times, kind="stable")  # signal is listed first, so it leads at a tie
    return TimeTagStream((order >= chains[0].size).astype(np.uint8), times[order], duration)


def bin_indices(times: np.ndarray, bin_width_ps: int, pulse_period_ps: int, n_pulses: int):
    """Bin index k of each tag time t >= 0, whether it is inside that bin, and
    same[i], whether sorted tags i and i + 1 share a bin.

    Bin k is the window [k*T - w/2, k*T + w/2) around pulse time k*T, for
    pulses 0 <= k < n_pulses and 0 < w <= T. With t = q*T + r, 0 <= r < T,
    a tag is in bin q when r < ceil(w/2) and in bin q + 1 when
    r >= T - floor(w/2): the bin of its nearest pulse. A tag between bins
    gets k = q, the last pulse before it, and a tag in the window of pulse
    n_pulses or later gets that pulse; both have in_bin False. No step adds
    to t, so times near 2^63 stay in the int64 range.

    The tags of a bin are consecutive. A tag between bins has the k of the
    bin before it, which no later tag is in, so same[i] tests tag i + 1 alone.
    """
    k = times // pulse_period_ps  # q and r; np.divmod takes longer than // and a product
    r = times - k * pulse_period_ps
    later = r >= pulse_period_ps - bin_width_ps // 2
    in_bin = r < (bin_width_ps + 1) // 2
    in_bin |= later
    k += later
    in_bin &= k < n_pulses
    same = k[1:] == k[:-1]
    same &= in_bin[1:]
    return k, in_bin, same


def _dedupe_bins(times: np.ndarray, bin_width: int, period: int, n_pulses: int) -> np.ndarray:
    """Keep the first tag in each occupied bin; tags between bins pass through."""
    same = bin_indices(times, bin_width, period, n_pulses)[2]
    if not same.any():
        return times
    keep = np.ones(times.size, dtype=bool)
    np.logical_not(same, out=keep[1:])
    return times[keep]


def _apply_dead_time(times: np.ndarray, dead_time_ps: int) -> np.ndarray:
    """Drop tags within the dead time of the last kept tag on this channel.

    A tag at least the dead time after its predecessor is always kept, and
    the tag right after a kept one is dropped if it is closer than that. So
    only runs of three or more tags, each close to its predecessor, need the
    sequential rule; there each kept tag is found from the last one by
    binary search.
    """
    if times.size < 2 or dead_time_ps == 0:
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
_BLOCK = 1 << 20  # bytes per read or write
_LINE_MAX = 27  # bytes of the longest record of either format, a 19-digit CSV line


def _read_blocks(fh, parse) -> tuple[np.ndarray, np.ndarray, bytes]:
    """Read the rest of the open file or pipe fh as records, and return
    their channel codes, their times and the bytes after the last whole
    record.

    The body is read in blocks of `_BLOCK` bytes (the file size, if that
    is smaller, and at least `_LINE_MAX`), each behind the unfinished
    record of the block before, in one reused buffer of a block and
    `_LINE_MAX` bytes. `parse(buf, end, codes, times, n)` reads the whole
    records of buf[:end] into codes[n:] and times[n:], the first n tags
    being those before, and returns the new record count and where its
    last whole record ends; the bytes after that move to the front of the
    buffer. A record of either format takes at least 9 bytes, so arrays
    of file size / 9 hold them all (pages that are never written stay
    unmapped); they grow only for a pipe or a file that grew after it was
    opened. A full buffer reads nothing more, which ends the loop, so
    what is left is a record cut by the end of the body, or the start of
    a line the buffer cannot end.
    """
    size = os.fstat(fh.fileno()).st_size
    codes, times, n = np.empty(size // 9, np.uint8), np.empty(size // 9, np.int64), 0
    step = max(min(_BLOCK, size) or _BLOCK, _LINE_MAX)  # a pipe has size 0
    buf, tail = bytearray(step + _LINE_MAX), 0  # the unfinished record is buf[:tail]
    while got := fh.readinto(memoryview(buf)[tail : tail + step]):
        end = tail + got
        if (need := n + end // 9) > times.size:
            codes, times = np.resize(codes, 2 * need), np.resize(times, 2 * need)
        n, cut = parse(buf, end, codes, times, n)
        tail = end - cut
        buf[:tail] = buf[cut:end]
    return codes[:n], times[:n], bytes(buf[:tail])


def write_qitt(stream: TimeTagStream, path: str) -> None:
    """Binary little-endian tag records behind a 16-byte header."""
    records = np.empty(len(stream), dtype=_RECORD_DTYPE)
    records["channel"] = stream.channels
    records["time_ps"] = stream.times_ps
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(QITT_MAGIC, QITT_VERSION, 0, stream.duration_ps))
        fh.write(records)


def read_qitt(path: str) -> TimeTagStream:
    """Read a QITT file or pipe: the header, then the records through
    `_read_blocks`. A record cut by the end of the body raises
    `ValueError`."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError("truncated QITT header")
        magic, version, _, duration = _HEADER.unpack(head)
        if magic != QITT_MAGIC:
            raise ValueError("not a QITT file")
        if version != QITT_VERSION:
            raise ValueError(f"unsupported QITT version {version}")
        codes, times, rest = _read_blocks(fh, _qitt_block)
    if rest:
        raise ValueError("truncated QITT record")
    return TimeTagStream(codes, times, duration)


def _qitt_block(buf, end: int, codes: np.ndarray, times: np.ndarray, n: int) -> tuple[int, int]:
    """Copy the fields of the whole records in buf[:end] into codes[n:]
    and times[n:]; return the new record count and where the last ends."""
    records = np.frombuffer(buf, _RECORD_DTYPE, end // _RECORD_DTYPE.itemsize)
    m = n + records.size
    codes[n:m], times[n:m] = records["channel"], records["time_ps"]
    return m, records.nbytes


_CSV_HEADER = b"channel,time_ps"
_CSV_DURATION = b"# duration_ps="
_CSV_FIRST_LINE = re.compile(re.escape(_CSV_DURATION) + rb"(\d{1,20})\n")
_CSV_PREFIX = (b"signal,", b"herald,")  # by channel code
DIGIT_BOUNDS = 10 ** np.arange(1, 19, dtype=np.int64)  # the first time of each digit count
_INT64_MAX = b"%d" % np.iinfo(np.int64).max
# the 7 name bytes of each code as one little-endian word, its byte 7 zero
_NAME_WORDS = np.array([int.from_bytes(n, "little") for n in _CSV_PREFIX], "<u8")
_SIGNAL_WORD, _HERALD_WORD = _NAME_WORDS.tolist()
_ZEROS, _DIGIT_CARRY, _TOP_BITS = (np.uint64(b * 0x0101010101010101) for b in (0x30, 0x76, 0x80))
_QUADS = (  # the four ASCII digits of 0..9999, one little-endian word each
    (np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48)
    .astype(np.uint8).view("<u4")[:, 0]
)


def put_digits(cols: np.ndarray, v: np.ndarray) -> None:
    """Write the last `cols.shape[1]` decimal digits of each non-negative
    v, right-aligned and zero-padded, as ASCII into the uint8 matrix cols
    (a column slice of a wider matrix will do). The digits go four to a
    `_QUADS` word from the right; the leading `cols.shape[1] % 4` go singly."""
    for j in range(cols.shape[1], 3, -4):
        q = v // 10000
        cols[:, j - 4 : j].view("<u4")[:, 0] = _QUADS[v - 10000 * q]
        v = q
    for j in range(cols.shape[1] % 4 - 1, -1, -1):
        q = v // 10
        cols[:, j] = v - 10 * q + ord("0")
        v = q


def write_tags_csv(stream: TimeTagStream, path: str) -> None:
    """Write the duration comment, the header and one record per tag.

    Times are sorted, so their digit counts never decrease: the tags of
    one digit count d are one fixed-width byte matrix of 7 name bytes, d
    digits and a newline, written in pieces of about `_BLOCK` bytes. The
    name goes in as one 8-byte word, whose last byte the digits overwrite.
    """
    times, codes = stream.times_ps, stream.channels
    edges = [0, *np.searchsorted(times, DIGIT_BOUNDS).tolist(), len(stream)]
    with open(path, "wb") as fh:
        fh.write(b"%s%d\n%s\n" % (_CSV_DURATION, stream.duration_ps, _CSV_HEADER))
        for d, (lo, hi) in enumerate(zip(edges, edges[1:]), start=1):
            step = _BLOCK // (d + 8)
            for s in range(lo, hi, step):
                e = min(s + step, hi)
                rows = np.empty((e - s, d + 8), dtype=np.uint8)
                rows[:, :8].view("<u8")[:, 0] = _NAME_WORDS[codes[s:e]]
                put_digits(rows[:, 7:-1], times[s:e])  # over byte 7 too
                rows[:, -1] = ord("\n")
                fh.write(rows)


def read_tags_csv(path: str) -> TimeTagStream:
    """Read a tag CSV file or pipe in the form `write_tags_csv` writes:
    `# duration_ps=` and 1 to 20 digits, the header `channel,time_ps`, then
    one record per line, every line ending in `\\n`. A bad first or second
    line raises `ValueError` naming it; no more of them is read than those
    lines can hold (35 and 16 bytes). Every later line is a record, so tag
    j is on line j + 3.

    The body is read through `_read_blocks`: each block is cut after its
    last newline and parsed by `_csv_block`. A line that a block and
    `_LINE_MAX` bytes cannot end is no record, and neither is an
    unfinished line at the end of the file.
    """
    with open(path, "rb") as fh:
        first, header = fh.readline(35), fh.readline(16)  # each line at its longest
        duration = _CSV_FIRST_LINE.fullmatch(first)
        if duration is None:
            text = first.removesuffix(b"\n").decode(errors="replace")
            raise ValueError(f"bad duration comment at line 1: {text!r}")
        if header != _CSV_HEADER + b"\n":
            text = header.removesuffix(b"\n").decode(errors="replace")
            raise ValueError(f"expected the header {_CSV_HEADER.decode()!r} at line 2, got {text!r}")
        try:
            codes, times, rest = _read_blocks(fh, _csv_lines)
            if rest:
                raise _bad_record(codes.size + 3, rest)
            return TimeTagStream(codes, times, int(duration[1]))
        except StreamOrderError as err:
            raise StreamOrderError(f"unsorted stream at line {err.tag + 3}", err.tag) from None


def _csv_lines(buf, end: int, codes: np.ndarray, times: np.ndarray, n: int) -> tuple[int, int]:
    """`_csv_block` over the lines of buf[:end] up to its last newline;
    return the new record count and where that line ends."""
    cut = buf.rfind(b"\n", 0, end) + 1
    return _csv_block(buf, cut, codes, times, n), cut


def _bad_record(lineno: int, line) -> ValueError:
    text = bytes(line[:40]).decode("ascii", errors="replace")  # a record has at most 26 bytes
    cut = "..." if len(line) > 40 else ""
    return ValueError(f"bad tag record at line {lineno}: {text!r}{cut}")


def _csv_block(buf, size: int, codes: np.ndarray, times: np.ndarray, n: int) -> int:
    """Parse the lines in buf[:size], which ends in a newline, into
    codes[n:] and times[n:], the first n tags being those before the
    block; return the new record count. Tag j is on line j + 3.

    A record is `signal,` or `herald,`, then 1 to 19 digits with no leading
    zero and a value of at most the int64 maximum. The block is read run by
    run. A run starts at a line of width w: the rest of the block is viewed
    as rows of w + 1 bytes, and the rows up to the first one without a
    newline at column w are read as one record matrix by `_csv_records`,
    each column window of up to eight digits as one little-endian word.
    A line that is no record raises `ValueError` naming it. Only a run's
    first row is checked for a leading zero: a later one is below the
    first, which the stream's order check rejects.

    Sorted times without leading zeros only grow wider, so a block holds
    at most one run per width (8 to 26 bytes). A record narrower than the
    line before (as wide as the last time stored needs) ends the parse:
    it is below that line, or a zero-led line before it is below its
    run's first. So the stream's own check over the tags up to it raises
    `StreamOrderError`, naming the first tag out of order.
    """
    a = np.frombuffer(buf, dtype=np.uint8, count=size)
    width = 7 + len(str(times[n - 1])) if n else 8
    start = 0
    while start < size:
        w = buf.find(b"\n", start, size) - start
        bad = m = 0  # no record width, or a leading zero: the first row is bad
        if 8 <= w <= 26 and (w == 8 or buf[start + 7] != ord("0")):
            rows = a[start : size - (size - start) % (w + 1)].reshape(-1, w + 1)
            ends = rows[:, w] == ord("\n")
            m = len(rows) if ends.all() else int(np.argmin(ends))
            bad = _csv_records(rows[:m, :w], codes, times, slice(n, n + m))
        if w < width and bad != 0:  # its first row is a record
            _csv_records(rows[:1, :w], codes, times, slice(n, n + 1))
            TimeTagStream(codes[: n + 1], times[: n + 1], _DURATION_MAX)  # raises
        if bad >= 0:
            line = start + bad * (w + 1)
            raise _bad_record(n + bad + 3, buf[line : buf.find(b"\n", line, size)])
        start, n, width = start + m * (w + 1), n + m, w
    return n


def _csv_records(rows: np.ndarray, codes: np.ndarray, times: np.ndarray, dest: slice) -> int:
    """Check the records of the (m, 7 + d) uint8 matrix rows, one per row:
    7 name bytes, then d digits. Store their channels in codes[dest] and
    their times in times[dest] and return -1. If a record is bad, store
    nothing and return the index of its row.

    The digits are read by `_digit_word` in words of eight, from the last
    one: one to three words, the leading one of 1 to 8 digits.
    """
    # the name and the first digit as one little-endian word; the mask drops the digit
    name = rows[:, :8].view("<u8")[:, 0] & np.uint64(2**56 - 1)
    herald = name == _HERALD_WORD
    ok = herald | (name == _SIGNAL_WORD)
    del name  # as large as the times: freed before they are built
    d = rows.shape[1] - 7
    ends = range(8 + (d - 1) % 8, 8 + d, 8)  # the column after each word, the leading one first
    v, flags = _digit_word(rows, ends[0])
    for e in ends[1:]:  # at most 19 digits, 9.99e18 < 2**64, so no sum wraps
        t, f = _digit_word(rows, e)
        v *= 10**8
        v += t
        flags |= f
    flags &= _TOP_BITS
    ok &= flags == 0
    if d == 19:
        ok &= rows[:, 7:].view("S19")[:, 0] <= _INT64_MAX
    if not ok.all():
        return int(np.argmin(ok))
    codes[dest], times[dest] = herald, v.view(np.int64)
    return -1


def _digit_word(rows: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """The value of the digits in columns e - 8 to e - 1 of each row, and
    flags with a top bit set in some byte exactly where one is no digit.

    The 8 bytes are one little-endian u64, combined in three multiply, shift
    and mask steps (Lemire, "Number parsing at a gigabyte per second",
    Softw. Pract. Exper. 51(8), 2021). A leading word of k < 8 digits starts
    k - 1 columns into the name, whose bytes it masks to zero. A byte b is a
    digit exactly when b ^ 0x30 <= 9. Then adding 0x76 sets no top bit and
    carries nothing. Any other byte has its top bit set before or after the
    add, and the lowest such byte of a word gets no carry from below.
    """
    t = rows[:, e - 8 : e].view("<u8")[:, 0] ^ _ZEROS
    if e < 15:  # the first 15 - e bytes are name bytes
        t &= np.uint64(2**64 - 2 ** (8 * (15 - e)))
    flags = t + _DIGIT_CARRY
    flags |= t
    t *= 2561  # 10 * 256 + 1: digit pairs in bytes 0, 2, 4 and 6
    t >>= 8
    t &= 0x00FF00FF00FF00FF
    t *= 6553601  # 100 * 2**16 + 1: four digits in bits 0-15 and 32-47
    t >>= 16
    t &= 0x0000FFFF0000FFFF
    t *= 42949672960001  # 10**4 * 2**32 + 1: all eight in bits 32-63
    t >>= 32
    return t, flags
