"""Reduction of time-tag streams to singles, coincidences and pair correlation.

Binning is pulse-locked: bin k is the window [k*T - w/2, k*T + w/2) around
pulse time k*T. A coincidence is at least one tag on each channel inside
the same bin; repeated tags in a bin count once and tags between bins are
discarded. The stream's order, channel codes and time range were checked
by `TimeTagStream` when it was built.

Both reductions fold the stream in blocks of about `_BLOCK` tags, so their
temporaries stay block-sized whatever the stream length. Each reduction
moves a block's end to where no unit it counts (a bin, a cluster) spans
two blocks, so the per-block tallies simply add.

`bin_and_count` counts occupied bins with whole-block comparisons. A bin
with tags on both channels counts once in each singles tally and once
among the occupied bins, so coincidences = signal + herald - occupied.
`windowed_coincidences` counts clusters from one mask per block of which
neighbouring tags are within the window.
"""

from __future__ import annotations

import numpy as np

from .channel import Channel, TimeTagStream, bin_indices
from .model import ClickCounts, Estimate, UndefinedStatistic, count_variance


_BLOCK = 1 << 16  # tags per reduction block, before its end moves to a safe cut


def _blocks(n: int, end_at):
    """Consecutive slices covering range(n), each of about `_BLOCK` items.

    A block that would end at index i < n ends at end_at(i) >= i instead,
    the first index where the caller lets a block end.
    """
    start = 0
    while start < n:
        stop = start + _BLOCK
        stop = end_at(stop) if stop < n else n
        yield slice(start, stop)
        start = stop


def bin_and_count(
    stream: TimeTagStream, bin_width_ps: int, pulse_period_ps: int
) -> ClickCounts:
    """Reduce a stream to per-run tallies with click-detector semantics.

    A block ends only where the nearest pulse changes, at a time
    (k + 1)*T - T//2, so no bin spans two blocks. A tag alone in its bin
    counts on its channel; only the tags of bins that hold several are
    gathered, to count their distinct bins per channel.
    """
    if not (0 < bin_width_ps <= pulse_period_ps):
        raise ValueError("bin_width_ps must be in (0, pulse_period_ps]")
    n_pulses = int(stream.duration_ps // pulse_period_ps)
    times, codes = stream.times_ps, stream.channels
    half = pulse_period_ps // 2

    def next_pulse(i: int) -> int:  # first tag nearer a later pulse than tag i - 1
        k = (int(times[i - 1]) + half) // pulse_period_ps
        edge = (k + 1) * pulse_period_ps - half
        return int(np.searchsorted(times, edge)) if edge <= int(times[-1]) else times.size

    n_sig = n_her = n_any = 0
    for block in _blocks(times.size, next_pulse):
        k, in_bin, same = bin_indices(times[block], bin_width_ps, pulse_period_ps, n_pulses)
        her = codes[block].view(bool)  # codes are 0 (signal) and 1 (herald)
        n_any += int(np.count_nonzero(in_bin)) - int(np.count_nonzero(same))
        shared = np.concatenate(([False], same)) | np.concatenate((same, [False]))
        alone = in_bin & ~shared
        n_alone_her = int(np.count_nonzero(alone & her))
        n_sig += int(np.count_nonzero(alone)) - n_alone_her
        n_her += n_alone_her
        crowd = np.flatnonzero(shared)  # the few tags of bins with several tags
        k, her = k[crowd], her[crowd]
        n_sig += _distinct(k[~her])
        n_her += _distinct(k[her])
    return ClickCounts(
        n_pulses=n_pulses,
        n_signal_clicks=n_sig,
        n_herald_clicks=n_her,
        n_coincidences=n_sig + n_her - n_any,
    )


def _distinct(k: np.ndarray) -> int:
    """Number of distinct values in a sorted array."""
    return 1 + int(np.count_nonzero(k[1:] != k[:-1])) if k.size else 0


def windowed_coincidences(stream: TimeTagStream, half_window_ps: int) -> int:
    """Count signal-herald tag pairs with |dt| <= half_window_ps.

    Each tag matches at most once; pairing is earliest-unmatched-first via
    a two-pointer merge, which is deterministic but not a maximum matching.
    Diagnostic alternative to pulse-locked binning.

    The stream splits into clusters wherever consecutive tags are more than
    the window apart. No pair spans two clusters, and the merge finishes one
    cluster before it touches the next, so clusters count independently: a
    two-tag cluster is one pair exactly when its channels differ, and only
    the tags of clusters of three or more go through the merge. A block
    ends only where a cluster does.
    """
    if half_window_ps < 0:
        raise ValueError("half_window_ps must be non-negative")
    times, codes = stream.times_ps, stream.channels

    def next_cluster(i: int) -> int:  # first tag from i on that starts a cluster
        width = 64
        while i < times.size:
            gaps = np.flatnonzero(np.diff(times[i - 1 : i + width]) > half_window_ps)
            if gaps.size:
                return i + int(gaps[0])
            i, width = i + width, 2 * width
        return times.size

    return sum(
        _cluster_pairs(times[block], codes[block], half_window_ps)
        for block in _blocks(times.size, next_cluster)
    )


def _cluster_pairs(t: np.ndarray, c: np.ndarray, half_window_ps: int) -> int:
    """`windowed_coincidences` of a non-empty run of whole clusters; link[i]
    says tags i - 1 and i are within the window, and is False at both ends."""
    link = np.concatenate(([False], np.diff(t) <= half_window_ps, [False]))
    two = np.flatnonzero(link[1:-1] & ~link[:-2] & ~link[2:])  # tags i, i + 1 are a cluster
    count = int(np.count_nonzero(c[two] != c[two + 1]))

    inner = np.flatnonzero(link[:-1] & link[1:])  # linked both ways: in a larger cluster
    if not inner.size:
        return count
    tags = np.unique(np.concatenate((inner - 1, inner, inner + 1)))  # all their tags
    her = c[tags] == int(Channel.HERALD)
    sig, her = t[tags[~her]].tolist(), t[tags[her]].tolist()
    i = j = 0
    n_s, n_h = len(sig), len(her)
    while i < n_s and j < n_h:
        dt = sig[i] - her[j]
        if abs(dt) <= half_window_ps:
            count += 1
            i += 1
            j += 1
        elif dt < 0:
            i += 1
        else:
            j += 1
    return count


def estimate_g2(counts: ClickCounts) -> Estimate:
    """Signal-herald pair correlation g2 = P_sh / (P_s * P_h) from per-run
    tallies, as an `Estimate` of its value and standard error.

    g2 = (C/n) / ((N_s/n)(N_h/n)). The uncertainty is first-order
    propagation of independent Poisson counting errors on C, N_s, N_h;
    C = 0 takes `count_variance`'s one-count floor. No pulses or a zero
    singles tally raises `UndefinedStatistic` with the reason.
    """
    if counts.n_pulses <= 0:
        raise UndefinedStatistic("g2 undefined: no pulses")
    if counts.n_signal_clicks <= 0 or counts.n_herald_clicks <= 0:
        raise UndefinedStatistic("g2 undefined: zero singles on a channel")
    n = counts.n_pulses
    p_s = counts.n_signal_clicks / n
    p_h = counts.n_herald_clicks / n
    p_sh = counts.n_coincidences / n
    value = p_sh / (p_s * p_h)
    scale = n / (counts.n_signal_clicks * counts.n_herald_clicks)
    var = scale * scale * (
        count_variance(counts.n_coincidences)
        + counts.n_coincidences**2 / counts.n_signal_clicks
        + counts.n_coincidences**2 / counts.n_herald_clicks
    )
    return Estimate(value=value, std_err=float(np.sqrt(var)))
