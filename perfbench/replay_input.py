"""Generate the recorded stream that the tag_replay workload reads.

Run as its own process at set-up, so that neither its memory nor its time
lands in the workload process:

    python3 perfbench/replay_input.py SRC_DIR OUT_DIR SEED

The stream is 10 s of `paper_default` rates under 80 kcps pulse-locked
jamming (8e8 pulses, about 1.15M tags). Pulse indices for the three click
patterns come from a Bernoulli process over the pulses (geometric gaps) with
the closed-form pattern probabilities of the pulse-locked part of the
channel. Each click gets 300 ps Gaussian jitter; uniform signal darks are
added over the run. The stream is written with qisim's own QITT and tag-CSV
writers.

The reference results of `bin_and_count` and `windowed_coincidences` are
computed here with separate numpy code and written to reference.json; the
workload requires the program's results to equal them exactly.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np

DURATION_S = 10.0
HALF_WINDOW_PS = 1000


def active_pulses(rng: np.random.Generator, p: float, n: int) -> np.ndarray:
    """Indices of the pulses of a Bernoulli(p) process over n pulses."""
    parts, last = [], -1
    expect = n * p
    while True:
        gaps = rng.geometric(p, int(expect + 10 * np.sqrt(expect) + 100))
        idx = last + np.cumsum(gaps)
        parts.append(idx[idx < n])
        if idx[-1] >= n:
            return np.concatenate(parts)
        last = int(idx[-1])
        expect = (n - last) * p


def bin_counts(ch: np.ndarray, t: np.ndarray, bin_width: int, period: int, n_pulses: int) -> dict:
    """Occupied pulse-locked bins per channel and their overlap."""
    occupied = []
    for c in (0, 1):
        times = t[ch == c]
        k = np.floor_divide(times + period // 2, period)
        offset = times - k * period
        inside = (2 * offset >= -bin_width) & (2 * offset < bin_width) & (k >= 0) & (k < n_pulses)
        occupied.append(np.unique(k[inside]))
    return {
        "n_pulses": int(n_pulses),
        "n_signal_clicks": int(occupied[0].size),
        "n_herald_clicks": int(occupied[1].size),
        "n_coincidences": int(np.intersect1d(occupied[0], occupied[1]).size),
    }


def greedy_window_pairs(ch: np.ndarray, t: np.ndarray, half_window: int) -> int:
    """Earliest-unmatched-first signal/herald pairing with |dt| <= half_window.

    Tags split into clusters wherever consecutive tags are more than the
    window apart; no pair spans two clusters, and the greedy merge finishes
    one cluster before it touches the next, so clusters count independently.
    A two-tag cluster is one pair exactly when its channels differ; the few
    larger clusters are merged tag by tag.
    """
    if t.size == 0:
        return 0
    starts = np.flatnonzero(np.concatenate(([True], np.diff(t) > half_window)))
    sizes = np.diff(np.append(starts, t.size))
    two = starts[sizes == 2]
    count = int(np.count_nonzero(ch[two] != ch[two + 1]))
    for s, n in zip(starts[sizes > 2], sizes[sizes > 2]):
        sig = t[s : s + n][ch[s : s + n] == 0].tolist()
        her = t[s : s + n][ch[s : s + n] == 1].tolist()
        i = j = 0
        while i < len(sig) and j < len(her):
            dt = sig[i] - her[j]
            if abs(dt) <= half_window:
                count, i, j = count + 1, i + 1, j + 1
            elif dt < 0:
                i += 1
            else:
                j += 1
    return count


def main(src: str, out_dir: str, seed: int) -> None:
    sys.path.insert(0, src)
    from qisim import analytics, channel
    from workloads import jammed_paper_default

    cfg = jammed_paper_default()
    src_p, ch_p = cfg.source, cfg.channel
    period = cfg.pulse_period_ps
    n_pulses = cfg.pulses_for_seconds(DURATION_S)
    duration = n_pulses * period
    gen = np.random.default_rng(np.random.SeedSequence([seed, 0x7E9A]))

    # Darks are uniform in time, so the pulse-locked part leaves them out.
    locked = dataclasses.replace(ch_p, dark_signal_per_bin=0.0, stray_light_per_bin=0.0)
    p11, p10, p01, _ = analytics.click_pattern_probabilities(src_p, locked, True)
    p_active = p11 + p10 + p01
    pulses = active_pulses(gen, p_active, n_pulses)
    pattern = gen.choice(3, size=pulses.size, p=np.array([p11, p10, p01]) / p_active)

    parts_t, parts_c = [], []
    for c, on, jitter in ((0, pattern != 2, ch_p.jitter_signal_ps), (1, pattern != 1, ch_p.jitter_herald_ps)):
        k = pulses[on]
        parts_t.append(k * period + np.rint(gen.normal(0.0, jitter, k.size)).astype(np.int64))
        parts_c.append(np.full(k.size, c, dtype=np.uint8))
    dark_rate = ch_p.dark_signal_per_bin / ch_p.bin_width_ps
    n_dark = gen.poisson(dark_rate * duration)
    parts_t.append(gen.integers(0, duration, n_dark, dtype=np.int64))
    parts_c.append(np.zeros(n_dark, dtype=np.uint8))

    t = np.concatenate(parts_t)
    ch = np.concatenate(parts_c)
    keep = (t >= 0) & (t < duration)
    t, ch = t[keep], ch[keep]
    order = np.lexsort((ch, t))
    t, ch = t[order], ch[order]

    stream = channel.TimeTagStream.from_arrays(ch, t, duration, sort=False)
    channel.write_qitt(stream, os.path.join(out_dir, "stream.qitt"))
    channel.write_tags_csv(stream, os.path.join(out_dir, "stream.csv"))
    reference = {
        "n_tags": int(t.size),
        "bin_and_count": bin_counts(ch, t, ch_p.bin_width_ps, period, n_pulses),
        "windowed_coincidences": greedy_window_pairs(ch, t, HALF_WINDOW_PS),
    }
    with open(os.path.join(out_dir, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
