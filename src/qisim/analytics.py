"""Click probabilities, SNR and enhancement, toggled sweeps, source characterization.

The closed-form pattern probabilities live in
`model.click_pattern_probabilities` (re-exported here); this module builds
the per-channel click probabilities, the pair correlation and the SNR
analysis on top of them.

SNR follows the target in/out convention: SNR = (N_in - N_out)/N_out,
counting singles for classical illumination and coincidences for the
pair-source protocol. Their ratio, the quantum enhancement factor, is in
expectation the pair correlation g2 of the target-in channel with
jamming, dark counts and stray light removed, because the overall
efficiency and the background probability cancel. `run_sweep`'s companion
g2 keeps the darks and stray light, so at low brightness it sits below
the QEF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from . import channel as acquisition
from .correlator import estimate_g2
from .model import (
    BinProbabilities,
    ChannelParams,
    ClickCounts,
    ConfigError,
    Estimate,
    ExperimentConfig,
    SourceParams,
    UndefinedStatistic,
    bare_channel,
    click_pattern_probabilities,
    count_variance,
)
from .rng import CHARACTERIZE_SPACE, SWEEP_SPACE, substream


def click_probabilities(
    source: SourceParams, channel: ChannelParams, target_in: bool
) -> BinProbabilities:
    """Exact per-bin click probabilities for one channel configuration."""
    p11, p10, p01, _ = click_pattern_probabilities(source, channel, target_in)
    noise_s = channel.signal_noise_per_bin
    return BinProbabilities(
        p_signal=p11 + p10,
        p_herald=p11 + p01,
        p_coincidence=p11,
        p_background=-math.expm1(-noise_s),
    )


def analytic_g2(source: SourceParams, channel: ChannelParams, target_in: bool = True) -> float:
    """Closed-form pair correlation of the configured channel."""
    bp = click_probabilities(source, channel, target_in)
    if bp.p_signal <= 0 or bp.p_herald <= 0:
        raise UndefinedStatistic("g2 undefined: a singles probability is zero")
    return bp.p_coincidence / (bp.p_signal * bp.p_herald)


def snr_from_counts(n_in: int, n_out: int) -> Estimate:
    """Target in/out SNR = (N_in - N_out)/N_out from equal-exposure tallies.

    The uncertainty treats N_in and N_out as independent Poisson counts:
    var = N_in/N_out^2 + N_in^2 N_out/N_out^4, where N_in = 0 takes
    `count_variance`'s one-count floor. N_out = 0 raises `UndefinedStatistic`.
    """
    if n_out <= 0:
        raise UndefinedStatistic("SNR undefined: zero background counts")
    if n_in < 0:
        raise ValueError("n_in must be non-negative")
    value = n_in / n_out - 1.0
    var = count_variance(n_in) / n_out**2 + (n_in * n_in) / n_out**3
    return Estimate(value=value, std_err=math.sqrt(var))


def expected_snr_classical(eta: float, p_s: float, p_b: float) -> float:
    """Singles-counting SNR: eta * P_s / P_b."""
    if p_b <= 0:
        raise UndefinedStatistic("SNR undefined: zero background probability")
    return eta * p_s / p_b


def expected_snr_quantum(eta: float, p_sh: float, p_h: float, p_b: float) -> float:
    """Coincidence-counting SNR: eta * P_sh / (P_h * P_b).

    The denominator is the accidental rate of a herald click landing on a
    background click.
    """
    if p_b <= 0:
        raise UndefinedStatistic("SNR undefined: zero background probability")
    if p_h <= 0:
        raise UndefinedStatistic("SNR undefined: zero herald probability")
    return eta * p_sh / (p_h * p_b)


def qef(snr_q: float, snr_c: float) -> float:
    """Quantum enhancement factor, the ratio of the two SNRs.

    In expectation this is P_sh/(P_s*P_h) of the target-in channel with
    jamming, darks and stray light removed: the overall efficiency and the
    background probability cancel, which is why the enhancement survives
    arbitrary loss and jamming.
    """
    if snr_c <= 0:
        raise UndefinedStatistic("QEF undefined: classical SNR must be positive")
    return snr_q / snr_c


# ---------------------------------------------------------------------------
# Sweeps and source characterization
# ---------------------------------------------------------------------------

SWEEP_VARIABLES = ("mu", "background")


@dataclass(frozen=True)
class SweepRow:
    value: float
    counts_in: ClickCounts
    counts_out: ClickCounts
    snr_classical: Optional[Estimate]
    snr_quantum: Optional[Estimate]
    qef: float
    qef_err: float
    g2: Optional[Estimate]
    error: Optional[str] = None


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]


CSV_COLUMNS = (
    "value",
    "n_in_singles",
    "n_out_singles",
    "n_in_coinc",
    "n_out_coinc",
    "snr_c",
    "snr_c_err",
    "snr_q",
    "snr_q_err",
    "qef",
    "g2",
    "g2_err",
)


def _with_value(config: ExperimentConfig, variable: str, value: float) -> ExperimentConfig:
    """`config` at one point; an invalid value raises `ConfigError` naming it and the field."""
    try:
        if variable == "mu":  # else "background": callers admit only SWEEP_VARIABLES
            return replace(config, source=replace(config.source, mu=value))
        return replace(config, channel=replace(config.channel, background_per_bin=value))
    except ConfigError as exc:
        raise ConfigError(f"{variable} {value!r}: {exc}") from None


def _points(
    config: ExperimentConfig, variable: str, values: Sequence[float], space: int
) -> Iterator[tuple[float, ExperimentConfig, np.random.Generator]]:
    """Yield (value, config, generator) for each value, ascending. Every
    config is built before the first generator. A generator is keyed by
    (seed, space, the upper and lower 32 bits of the value's float64 bits,
    the number of earlier values with those bits), as `rng` describes."""
    ordered = sorted(float(v) for v in values)
    configs = [_with_value(config, variable, v) for v in ordered]
    # bits -> occurrence of the latest value with them; a map, as 0.0 and -0.0
    # sort as equal, so equal bits need not be adjacent
    seen: dict[int, int] = {}
    for v, c in zip(ordered, configs):
        b = int(np.float64(v).view(np.uint64))
        seen[b] = seen.get(b, -1) + 1
        yield v, c, substream(config.seed, space, b >> 32, b & 0xFFFFFFFF, seen[b])


def _formed(reasons: list[str], what: str, estimator, *args) -> Optional[Estimate]:
    """`estimator(*args)`, or None when it raises `UndefinedStatistic`; then
    `what: reason` is appended to `reasons`. Any other error propagates."""
    try:
        return estimator(*args)
    except UndefinedStatistic as exc:
        reasons.append(f"{what}: {exc}")
        return None


def _qef_estimate(snr_q: Estimate, snr_c: Estimate) -> Estimate:
    ratio = qef(snr_q.value, snr_c.value)
    err = math.sqrt(snr_q.std_err**2 + ratio**2 * snr_c.std_err**2) / snr_c.value
    return Estimate(ratio, err)


def _run_sweep_row(
    value: float, rng: np.random.Generator, patterns: np.ndarray, dwell_pulses: int
) -> SweepRow:
    """One sweep point, drawn from the rows of `patterns`: the point's click
    patterns with the target in, with it out, and for the companion g2.
    Statistics it cannot form are None (`qef` nan), with their reasons
    joined in `error`.

    The toggled segments of one target state share their pattern
    probabilities, so their summed tallies are one multinomial draw over
    the state's whole exposure, half the dwell.
    """
    half = dwell_pulses // 2
    counts_in = acquisition.draw_counts(patterns[0], half, rng)
    counts_out = acquisition.draw_counts(patterns[1], half, rng)
    g2_counts = acquisition.draw_counts(patterns[2], half, rng)

    reasons: list[str] = []
    snr_c = _formed(
        reasons, "classical SNR", snr_from_counts,
        counts_in.n_signal_clicks, counts_out.n_signal_clicks,
    )
    snr_q = _formed(
        reasons, "quantum SNR", snr_from_counts,
        counts_in.n_coincidences, counts_out.n_coincidences,
    )
    qef_pair = (math.nan, math.nan)
    if snr_c is not None and snr_q is not None:
        ratio = _formed(reasons, "QEF", _qef_estimate, snr_q, snr_c)
        qef_pair = qef_pair if ratio is None else (ratio.value, ratio.std_err)
    g2 = _formed(reasons, "g2", estimate_g2, g2_counts)
    return SweepRow(
        value, counts_in, counts_out, snr_c, snr_q, *qef_pair, g2, "; ".join(reasons) or None
    )


def run_sweep(
    config: ExperimentConfig,
    variable: str,
    values: Sequence[float],
    dwell_pulses: int,
    max_workers: int = 1,
) -> SweepTable:
    """Toggled in/out acquisition at each sweep value. Each target state
    and the companion g2 get `dwell_pulses // 2` pulses; `qisim sweep`
    takes only dwells of whole in/out toggle pairs. The companion
    measurement has the jamming blocked and the target in.

    Rows come from `_points` in ascending order: a value that makes the
    config invalid raises `ConfigError` before anything is drawn, and a
    row's draws depend only on the seed and its value, so extending or
    splitting `values` reproduces the rows already run. The closed form is
    evaluated once per target state, with the swept field holding every
    row's value, as `imaging.raster_scan` holds every pixel's reflectivity.
    max_workers is accepted for compatibility and has no effect.
    """
    if variable not in SWEEP_VARIABLES:
        raise ValueError(f"unknown sweep variable {variable!r}")
    if len(values) == 0:
        raise ValueError("empty sweep values")
    if dwell_pulses < 2:
        raise ValueError("dwell_pulses must be at least 2, one pulse per target state")

    points = list(_points(config, variable, values, SWEEP_SPACE))
    swept = np.array([v for v, _, _ in points])
    source, channel = config.source, config.channel
    if variable == "mu":
        source = replace(source, mu=swept)
    else:
        channel = replace(channel, background_per_bin=swept)
    blocked = replace(channel, background_per_bin=np.zeros_like(swept))
    states = ((channel, True), (channel, False), (blocked, True))
    # (row, state, pattern)
    patterns = np.array([click_pattern_probabilities(source, *s) for s in states]).transpose(2, 0, 1)
    return SweepTable(
        tuple(_run_sweep_row(v, rng, p, dwell_pulses) for (v, _, rng), p in zip(points, patterns))
    )


def _cells(obj, *attrs: str) -> list[str]:
    """CSV cells: each attribute's repr, or nan for a statistic not formed."""
    return ["nan" if obj is None else repr(getattr(obj, a)) for a in attrs]


def _write_csv(path: str, columns: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for cells in rows:
            fh.write(",".join(cells) + "\n")


def sweep_to_csv(table: SweepTable, path: str) -> None:
    """Write the pinned column set; statistics a row could not form are nan."""
    rows = (
        [
            repr(row.value),
            *_cells(row.counts_in, "n_signal_clicks"),
            *_cells(row.counts_out, "n_signal_clicks"),
            *_cells(row.counts_in, "n_coincidences"),
            *_cells(row.counts_out, "n_coincidences"),
            *_cells(row.snr_classical, "value", "std_err"),
            *_cells(row.snr_quantum, "value", "std_err"),
            repr(row.qef),
            *_cells(row.g2, "value", "std_err"),
        ]
        for row in table.rows
    )
    _write_csv(path, CSV_COLUMNS, rows)


CHARACTERIZE_COLUMNS = ("mu", "n_pulses", "n_signal", "n_herald", "n_coinc", "g2", "g2_err")
CharacterizePoint = tuple[float, ClickCounts, Optional[Estimate], Optional[str]]


def run_characterize(
    config: ExperimentConfig, mus: Sequence[float], dwell_pulses: int
) -> list[CharacterizePoint]:
    """Singles, coincidences and g2 through the bare channel, one point per mu
    from `_points` in ascending order: a mu that makes the config invalid
    raises `ConfigError` before anything is drawn, and a point's draws depend
    only on the seed and its mu. A point's g2 is None where it cannot be
    formed, with the reason as its last item."""
    bare = replace(config, channel=bare_channel(config.channel))
    points = []
    for mu, cfg, rng in _points(bare, "mu", mus, CHARACTERIZE_SPACE):
        counts = acquisition.simulate_counts(cfg, True, dwell_pulses, rng)
        reasons: list[str] = []
        g2 = _formed(reasons, "g2", estimate_g2, counts)
        points.append((mu, counts, g2, "; ".join(reasons) or None))
    return points


def characterize_to_csv(points: Sequence[CharacterizePoint], path: str) -> None:
    """Write the characterization columns; an undefined g2 is nan."""
    tallies = ("n_pulses", "n_signal_clicks", "n_herald_clicks", "n_coincidences")
    rows = (
        [repr(mu), *_cells(counts, *tallies), *_cells(g2, "value", "std_err")]
        for mu, counts, g2, _ in points
    )
    _write_csv(path, CHARACTERIZE_COLUMNS, rows)
