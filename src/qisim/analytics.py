"""Click probabilities, SNR and enhancement analysis, toggled sweeps.

The closed-form pattern probabilities live in
`model.click_pattern_probabilities` (re-exported here); this module builds
the per-channel click probabilities, the pair correlation and the SNR
analysis on top of them.

SNR follows the target in/out convention: SNR = (N_in - N_out)/N_out,
counting singles for classical illumination and coincidences for the
pair-source protocol. Their ratio, the quantum enhancement factor, equals
the source's second-order coherence because the overall efficiency and
the background probability cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .channel import simulate_counts
from .correlator import G2Estimate, estimate_g2
from .model import (
    BinProbabilities,
    ChannelParams,
    ClickCounts,
    ExperimentConfig,
    SourceParams,
    click_pattern_probabilities,
    validate_config,
)
from .rng import SWEEP_SPACE, substream


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
        raise ValueError("g2 undefined: a singles probability is zero")
    return bp.p_coincidence / (bp.p_signal * bp.p_herald)


@dataclass(frozen=True)
class SnrResult:
    """Target in/out signal-to-noise ratio with delta-method uncertainty."""

    value: float
    std_err: float


def snr_from_counts(n_in: int, n_out: int) -> SnrResult:
    """SNR = (N_in - N_out)/N_out from equal-exposure tallies.

    The uncertainty treats N_in and N_out as independent Poisson counts:
    var = N_in/N_out^2 + N_in^2 N_out/N_out^4.
    """
    if n_out <= 0:
        raise ValueError("SNR undefined: zero background counts")
    if n_in < 0:
        raise ValueError("n_in must be non-negative")
    value = n_in / n_out - 1.0
    var = n_in / n_out**2 + (n_in * n_in) / n_out**3
    return SnrResult(value=value, std_err=math.sqrt(var))


def expected_snr_classical(eta: float, p_s: float, p_b: float) -> float:
    """Singles-counting SNR: eta * P_s / P_b."""
    if p_b <= 0:
        raise ValueError("SNR undefined: zero background probability")
    return eta * p_s / p_b


def expected_snr_quantum(eta: float, p_sh: float, p_h: float, p_b: float) -> float:
    """Coincidence-counting SNR: eta * P_sh / (P_h * P_b).

    The denominator is the accidental rate of a herald click landing on a
    background click.
    """
    if p_b <= 0:
        raise ValueError("SNR undefined: zero background probability")
    if p_h <= 0:
        raise ValueError("SNR undefined: zero herald probability")
    return eta * p_sh / (p_h * p_b)


def qef(snr_q: float, snr_c: float) -> float:
    """Quantum enhancement factor, the ratio of the two SNRs.

    Algebraically this is P_sh/(P_s*P_h): the overall efficiency and the
    background probability cancel, which is why the enhancement survives
    arbitrary loss and jamming.
    """
    if snr_c <= 0:
        raise ValueError("QEF undefined: classical SNR must be positive")
    return snr_q / snr_c


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

SWEEP_VARIABLES = ("mu", "background")


@dataclass(frozen=True)
class SweepRow:
    value: float
    counts_in: Optional[ClickCounts]
    counts_out: Optional[ClickCounts]
    snr_classical: Optional[SnrResult]
    snr_quantum: Optional[SnrResult]
    qef: float
    qef_err: float
    g2: Optional[G2Estimate]
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
    if variable == "mu":
        return replace(config, source=replace(config.source, mu=value))
    if variable == "background":
        return replace(config, channel=replace(config.channel, background_per_bin=value))
    raise ValueError(f"unknown sweep variable {variable!r}")


def _run_sweep_row(
    config: ExperimentConfig,
    variable: str,
    index: int,
    value: float,
    dwell_pulses: int,
) -> SweepRow:
    """One sweep point; statistics that cannot be formed (for example an
    undefined SNR when the out tally is empty) are recorded per row without
    discarding the raw counts or aborting other rows.

    The dwell is truncated to whole in/out toggle pairs so both exposures
    are equal. The toggled segments of one target state share their
    pattern probabilities, so their summed tallies are one multinomial
    draw over the whole exposure.
    """
    cfg = _with_value(config, variable, value)
    rng = substream(config.seed, SWEEP_SPACE, index)
    toggle = cfg.toggle_period_pulses
    exposure = (dwell_pulses // (2 * toggle)) * toggle
    problems: list[str] = []

    try:
        validate_config(cfg)
        counts_in = simulate_counts(cfg, True, exposure, rng)
        counts_out = simulate_counts(cfg, False, exposure, rng)
    except ValueError as exc:
        return SweepRow(value, None, None, None, None, math.nan, math.nan, None, error=str(exc))

    snr_c = snr_q = None
    qef_value = qef_err = math.nan
    try:
        snr_c = snr_from_counts(counts_in.n_signal_clicks, counts_out.n_signal_clicks)
    except ValueError as exc:
        problems.append(f"classical SNR: {exc}")
    try:
        snr_q = snr_from_counts(counts_in.n_coincidences, counts_out.n_coincidences)
    except ValueError as exc:
        problems.append(f"quantum SNR: {exc}")
    if snr_c is not None and snr_q is not None:
        try:
            qef_value = qef(snr_q.value, snr_c.value)
            qef_err = (
                math.sqrt(snr_q.std_err**2 + qef_value**2 * snr_c.std_err**2) / snr_c.value
            )
        except ValueError as exc:
            problems.append(str(exc))

    # Companion correlation measurement over half the dwell: jamming
    # blocked, target held in, same scattered-channel efficiencies and
    # detector noise.
    g2 = None
    try:
        blocked = replace(cfg, channel=replace(cfg.channel, background_per_bin=0.0))
        g2_counts = simulate_counts(blocked, True, dwell_pulses // 2, rng)
        g2 = estimate_g2(g2_counts)
    except ValueError as exc:
        problems.append(f"g2: {exc}")

    return SweepRow(
        value,
        counts_in,
        counts_out,
        snr_c,
        snr_q,
        qef_value,
        qef_err,
        g2,
        error="; ".join(problems) if problems else None,
    )


def run_sweep(
    config: ExperimentConfig,
    variable: str,
    values: Sequence[float],
    dwell_pulses: int,
    max_workers: int = 1,
) -> SweepTable:
    """Toggled in/out acquisition at each sweep value.

    Rows run in order in this process, each on its own generator keyed by
    (seed, row index), so a row's draws do not depend on the other rows.
    Failures are recorded per row without aborting the rest. max_workers
    is accepted for compatibility and has no effect.
    """
    validate_config(config)
    if variable not in SWEEP_VARIABLES:
        raise ValueError(f"unknown sweep variable {variable!r}")
    if not values:
        raise ValueError("empty sweep values")
    if dwell_pulses < 2 * config.toggle_period_pulses:
        raise ValueError("dwell_pulses must be at least two toggle periods")

    ordered = sorted(float(v) for v in values)
    rows = tuple(
        _run_sweep_row(config, variable, i, v, dwell_pulses) for i, v in enumerate(ordered)
    )
    return SweepTable(rows)


def sweep_to_csv(table: SweepTable, path: str) -> None:
    """Write the pinned column set; statistics a row could not form are nan."""

    def opt(obj, attr) -> str:
        return "nan" if obj is None else repr(getattr(obj, attr))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in table.rows:
            cells = [
                repr(row.value),
                opt(row.counts_in, "n_signal_clicks"),
                opt(row.counts_out, "n_signal_clicks"),
                opt(row.counts_in, "n_coincidences"),
                opt(row.counts_out, "n_coincidences"),
                opt(row.snr_classical, "value"),
                opt(row.snr_classical, "std_err"),
                opt(row.snr_quantum, "value"),
                opt(row.snr_quantum, "std_err"),
                repr(row.qef),
                opt(row.g2, "value"),
                opt(row.g2, "std_err"),
            ]
            fh.write(",".join(cells) + "\n")
