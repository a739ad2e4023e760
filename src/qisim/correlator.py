"""Reduction of time-tag streams to singles, coincidences and pair correlation.

Binning is pulse-locked: bin k is the window [k*T - w/2, k*T + w/2) around
pulse time k*T. A coincidence is at least one tag on each channel inside
the same bin; repeated tags in a bin count once and tags between bins are
discarded. Counting is a single vectorized pass over the sorted stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Channel, TimeTagStream, bin_indices
from .model import ClickCounts


class StreamOrderError(ValueError):
    """The tag stream is not time-ordered."""


@dataclass(frozen=True)
class G2Estimate:
    """Signal-herald correlation g2 = P_sh / (P_s * P_h) with its uncertainty."""

    value: float
    std_err: float
    p_s: float
    p_h: float
    p_sh: float


def _require_sorted(stream: TimeTagStream) -> None:
    if not stream.is_sorted():
        raise StreamOrderError("unsorted stream")


def bin_and_count(
    stream: TimeTagStream, bin_width_ps: int, pulse_period_ps: int
) -> ClickCounts:
    """Reduce a stream to per-run tallies with click-detector semantics."""
    if not (0 < bin_width_ps <= pulse_period_ps):
        raise ValueError("bin_width_ps must be in (0, pulse_period_ps]")
    _require_sorted(stream)
    n_pulses = int(stream.duration_ps // pulse_period_ps)

    occupied = []
    for chan in (Channel.SIGNAL, Channel.HERALD):
        times = stream.times_ps[stream.channels == int(chan)]
        k, in_bin = bin_indices(times, bin_width_ps, pulse_period_ps, n_pulses)
        k = k[in_bin]
        if k.size > 1:  # already sorted; drop repeats within a bin
            k = k[np.concatenate(([True], k[1:] != k[:-1]))]
        occupied.append(k)

    sig_bins, her_bins = occupied
    n_coinc = int(np.intersect1d(sig_bins, her_bins, assume_unique=True).size)
    return ClickCounts(
        n_pulses=n_pulses,
        n_signal_clicks=int(sig_bins.size),
        n_herald_clicks=int(her_bins.size),
        n_coincidences=n_coinc,
    )


def windowed_coincidences(stream: TimeTagStream, half_window_ps: int) -> int:
    """Count signal-herald tag pairs with |dt| <= half_window_ps.

    Each tag matches at most once; pairing is earliest-unmatched-first via
    a two-pointer merge, which is deterministic but not a maximum matching.
    Diagnostic alternative to pulse-locked binning.

    The stream splits into clusters wherever consecutive tags are more than
    the window apart. No pair spans two clusters, and the merge finishes one
    cluster before it touches the next, so clusters count independently: a
    two-tag cluster is one pair exactly when its channels differ, and only
    the tags of clusters of three or more go through the merge.
    """
    if half_window_ps < 0:
        raise ValueError("half_window_ps must be non-negative")
    _require_sorted(stream)
    t, c = stream.times_ps, stream.channels
    if t.size == 0:
        return 0
    starts = np.flatnonzero(np.concatenate(([True], np.diff(t) > half_window_ps)))
    sizes = np.diff(np.append(starts, t.size))
    two = starts[sizes == 2]
    a, b = c[two], c[two + 1]
    # The merge ignores channel codes other than signal and herald.
    count = int(np.count_nonzero((a != b) & (a <= Channel.HERALD) & (b <= Channel.HERALD)))

    in_large = np.repeat(sizes > 2, sizes)
    sig = t[in_large & (c == int(Channel.SIGNAL))].tolist()
    her = t[in_large & (c == int(Channel.HERALD))].tolist()
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


def estimate_g2(counts: ClickCounts) -> G2Estimate:
    """Pair correlation from per-run tallies.

    g2 = (C/n) / ((N_s/n)(N_h/n)). The uncertainty is first-order
    propagation of independent Poisson counting errors on C, N_s, N_h;
    a coincidence count of zero uses a one-count error floor.
    """
    if counts.n_pulses <= 0:
        raise ValueError("g2 undefined: no pulses")
    if counts.n_signal_clicks <= 0 or counts.n_herald_clicks <= 0:
        raise ValueError("g2 undefined: zero singles on a channel")
    n = counts.n_pulses
    p_s = counts.n_signal_clicks / n
    p_h = counts.n_herald_clicks / n
    p_sh = counts.n_coincidences / n
    value = p_sh / (p_s * p_h)
    scale = n / (counts.n_signal_clicks * counts.n_herald_clicks)
    var_c = max(counts.n_coincidences, 1)
    var = scale * scale * (
        var_c
        + counts.n_coincidences**2 / counts.n_signal_clicks
        + counts.n_coincidences**2 / counts.n_herald_clicks
    )
    return G2Estimate(value=value, std_err=float(np.sqrt(var)), p_s=p_s, p_h=p_h, p_sh=p_sh)
