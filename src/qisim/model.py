"""Domain types and experiment configuration.

All quantities follow two conventions:

* Time is integer picoseconds everywhere. At the default 80 MHz repetition
  rate the pulse period is exactly 12500 ps, so pulse indexing and bin
  arithmetic are exact with no float drift.
* Noise and background intensities are expressed as mean detections per
  coincidence bin (the per-bin Poisson intensity), not per second. Helpers
  on the CLI convert seconds-denominated inputs.

Types are frozen dataclasses; after `validate_config` they are safe to
share across concurrent workers.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .source import POISSON_PAIRS, PairLaw, idler_wavelength

PS_PER_SECOND = 10**12

DEFAULT_REP_RATE_HZ = 80e6
DEFAULT_BIN_WIDTH_PS = 2000
# Detector dark rate assumption (counts/s); the per-bin value below follows
# from the 80 MHz bin grid. Configurable, see README.
DEFAULT_DARK_RATE_PER_S = 100.0
DEFAULT_DARK_PER_BIN = DEFAULT_DARK_RATE_PER_S / DEFAULT_REP_RATE_HZ
DEFAULT_JITTER_PS = 300.0


class ConfigError(ValueError):
    """A configuration value violates a type invariant."""


@dataclass(frozen=True)
class SourceParams:
    """Photon-pair source statistics and wavelength bookkeeping.

    mu is the mean number of pairs generated per pump pulse. eta_herald is
    the total herald-arm detection probability per idler photon (coupling,
    filtering and detector efficiency lumped together). noise_herald_per_bin
    is the mean rate of herald-channel detections per bin that have no
    partner signal photon (competing nonlinear processes plus dark counts).
    """

    mu: float = 5.8e-3
    rep_rate_hz: float = DEFAULT_REP_RATE_HZ
    pump_nm: float = 793.0
    signal_nm: float = 671.0
    herald_nm: Optional[float] = None  # derived from energy conservation if None
    eta_herald: float = 0.075
    noise_herald_per_bin: float = DEFAULT_DARK_PER_BIN

    def __post_init__(self) -> None:
        if self.herald_nm is None:
            try:
                herald = idler_wavelength(self.pump_nm, self.signal_nm)
            except ValueError:
                return  # left None, which validate_config rejects
            object.__setattr__(self, "herald_nm", herald)


@dataclass(frozen=True)
class ChannelParams:
    """Signal-arm geometry, efficiencies and noise.

    The signal arm keeps its loss factors separate (transmitter throughput,
    target reflectivity, collection fraction of the diffusely scattered
    light, detector efficiency); their product is the per-photon detection
    probability when the target is in place. background_per_bin is the
    jamming intensity; dark and stray light are target-independent and
    uniform in time.
    """

    d_m: float = 0.03
    dist_m: float = 0.32
    collection_fraction: float = 3e-4
    eta_signal_detector: float = 0.6
    eta_transmit: float = 0.8
    background_per_bin: float = 0.0
    dark_signal_per_bin: float = DEFAULT_DARK_PER_BIN
    stray_light_per_bin: float = 0.0
    bin_width_ps: int = DEFAULT_BIN_WIDTH_PS
    target_reflectivity: float = 1.0
    jitter_signal_ps: float = DEFAULT_JITTER_PS
    jitter_herald_ps: float = DEFAULT_JITTER_PS
    dead_time_ps: int = 0

    def signal_arm_efficiency(self, target_in: bool) -> float:
        """Per-photon detection probability through the full signal arm.

        With the target out a black absorber sits behind the target
        position, so the signal path efficiency is zero.
        """
        if not target_in:
            return 0.0
        return (
            self.eta_transmit
            * self.target_reflectivity
            * self.collection_fraction
            * self.eta_signal_detector
        )

    @property
    def signal_noise_per_bin(self) -> float:
        """Total target-independent signal-channel intensity per bin."""
        return self.background_per_bin + self.dark_signal_per_bin + self.stray_light_per_bin


@dataclass(frozen=True)
class ExperimentConfig:
    source: SourceParams = field(default_factory=SourceParams)
    channel: ChannelParams = field(default_factory=ChannelParams)
    n_pulses: int = 80_000_000
    seed: int = 1
    toggle_period_pulses: int = 80_000_000  # target shutter toggled every second

    @property
    def pulse_period_ps(self) -> int:
        # Non-integral periods are rounded to the nearest picosecond; exact
        # for the 80 MHz default (12500 ps).
        return int(round(PS_PER_SECOND / self.source.rep_rate_hz))

    def pulses_for_seconds(self, seconds: float) -> int:
        return int(round(seconds * self.source.rep_rate_hz))


@dataclass(frozen=True)
class ClickCounts:
    """Per-acquisition tallies with click-detector semantics.

    At most one click per channel per bin, so every tally is bounded by the
    pulse count and coincidences are bounded by both singles tallies.
    """

    n_pulses: int
    n_signal_clicks: int
    n_herald_clicks: int
    n_coincidences: int

    def __post_init__(self) -> None:
        if min(self.n_pulses, self.n_signal_clicks, self.n_herald_clicks, self.n_coincidences) < 0:
            raise ValueError("counts must be non-negative")
        if self.n_coincidences > min(self.n_signal_clicks, self.n_herald_clicks):
            raise ValueError("coincidences exceed a singles tally")
        if max(self.n_signal_clicks, self.n_herald_clicks) > self.n_pulses:
            raise ValueError("more clicks than pulses on one channel")


_FRECHET_TOL = 1e-9


@dataclass(frozen=True)
class BinProbabilities:
    """Per-bin click probabilities for one channel configuration."""

    p_signal: float
    p_herald: float
    p_coincidence: float
    p_background: float

    def __post_init__(self) -> None:
        for name in ("p_signal", "p_herald", "p_coincidence", "p_background"):
            p = getattr(self, name)
            if not (-_FRECHET_TOL <= p <= 1.0 + _FRECHET_TOL):
                raise ValueError(f"{name} out of [0, 1]")
        lo = max(0.0, self.p_signal + self.p_herald - 1.0)
        hi = min(self.p_signal, self.p_herald)
        if not (lo - _FRECHET_TOL <= self.p_coincidence <= hi + _FRECHET_TOL):
            raise ValueError("p_coincidence violates joint-probability bounds")


def click_pattern_probabilities(
    source: SourceParams, channel: ChannelParams, target_in: bool, pair_law: PairLaw = POISSON_PAIRS
):
    """Probabilities of the four per-pulse click patterns.

    The per-bin model: a pulse makes N pairs, from `pair_law` with mean mu
    (Poisson by default); each pair's signal photon is detected with the
    full arm efficiency eta_sig and its herald with eta_h, independently;
    jamming, dark and stray light add independent Poisson intensities.
    Click detectors fire on one or more photons. With G the pair law's
    generating function,

        P(no S) = G(1 - eta_sig) * exp(-(beta + delta_s)),  P_s = 1 - P(no S)
        P(no H) = G(1 - eta_h) * exp(-delta_h),             P_h = 1 - P(no H)
        P_sh = P_s*P_h + P(no S)*P(no H) * expm1(excess)

    where excess = `pair_law.log_pair_excess(mu, eta_sig, eta_h)` and the
    second P_sh term is the pair-correlation excess over independent
    channels. For Poisson pairs P_s = 1 - exp(-(mu*eta_sig + beta +
    delta_s)) and excess = mu*eta_sig*eta_h. These forms are exact for
    either law and are the oracle the Monte Carlo modes are tested against.

    Returned as (both, signal only, herald only, neither); each term is
    computed in a cancellation-free form so the tiny pattern probabilities
    keep full relative precision. Scalar parameters give four Python
    floats. Any numeric field may instead hold a numpy array (for example
    one target reflectivity per pixel); the four results are then arrays
    broadcast over those fields.
    """
    mu = source.mu
    eta_h = source.eta_herald
    eta_sig = channel.signal_arm_efficiency(target_in)

    log_no_s = pair_law.log_pgf(mu, eta_sig) - channel.signal_noise_per_bin
    log_no_h = pair_law.log_pgf(mu, eta_h) - source.noise_herald_per_bin
    p_s = -np.expm1(log_no_s)
    p_h = -np.expm1(log_no_h)
    excess = np.exp(log_no_s + log_no_h) * np.expm1(pair_law.log_pair_excess(mu, eta_sig, eta_h))
    p11 = p_s * p_h + excess
    p10 = np.maximum(0.0, p_s - p11)
    p01 = np.maximum(0.0, p_h - p11)
    p00 = np.maximum(0.0, 1.0 - p11 - p10 - p01)
    if np.ndim(p11) == 0:
        return float(p11), float(p10), float(p01), float(p00)
    return p11, p10, p01, p00


def _check_range(name: str, value: float, lo: float, hi: float) -> None:
    if not (lo <= value <= hi):
        raise ConfigError(f"{name} out of range")


def _check_nonneg(name: str, value: float) -> None:
    if value < 0:
        raise ConfigError(f"{name} out of range")


# (name, annotation) of each numeric field, read once from the dataclasses.
_NUMERIC_FIELDS = {
    cls: [(f.name, f.type) for f in fields(cls) if f.type in ("int", "float", "Optional[float]")]
    for cls in (SourceParams, ChannelParams, ExperimentConfig)
}


def _check_types(part) -> None:
    """Fields annotated `int` hold an integer, fields annotated `float` a
    finite real number (an `Optional[float]` may also be None). A bool is
    neither. The exact-type tests skip the slower abstract-class checks."""
    for name, kind in _NUMERIC_FIELDS[type(part)]:
        value = getattr(part, name)
        if kind == "int":
            if type(value) is not int and (
                isinstance(value, bool) or not isinstance(value, numbers.Integral)
            ):
                raise ConfigError(f"{name} must be an integer, not {value!r}")
        elif value is not None or kind == "float":
            if type(value) is not float and (
                isinstance(value, bool) or not isinstance(value, numbers.Real)
            ):
                raise ConfigError(f"{name} must be a real number, not {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{name} out of range")


def validate_config(raw: ExperimentConfig) -> ExperimentConfig:
    """Check every type invariant; return the config unchanged if all hold.

    Types come first: integer fields must hold integers and the other
    numeric fields finite real numbers. The first violated invariant is
    reported by field name.
    """
    s, c = raw.source, raw.channel
    for part in (s, c, raw):
        _check_types(part)

    _check_nonneg("mu", s.mu)
    if s.rep_rate_hz <= 0:
        raise ConfigError("rep_rate_hz out of range")
    for name in ("pump_nm", "signal_nm", "herald_nm"):
        v = getattr(s, name)
        if v is None or v <= 0:
            raise ConfigError(f"{name} out of range")
    try:
        idler_wavelength(s.pump_nm, s.signal_nm)
    except ValueError:
        raise ConfigError("no energy-conserving idler for pump_nm and signal_nm") from None
    _check_range("eta_herald", s.eta_herald, 0.0, 1.0)
    _check_nonneg("noise_herald_per_bin", s.noise_herald_per_bin)

    _check_nonneg("d_m", c.d_m)
    if c.dist_m <= 0:
        raise ConfigError("dist_m out of range")
    _check_range("collection_fraction", c.collection_fraction, 0.0, 1.0)
    _check_range("eta_signal_detector", c.eta_signal_detector, 0.0, 1.0)
    _check_range("eta_transmit", c.eta_transmit, 0.0, 1.0)
    _check_range("target_reflectivity", c.target_reflectivity, 0.0, 1.0)
    for name in ("background_per_bin", "dark_signal_per_bin", "stray_light_per_bin"):
        _check_nonneg(name, getattr(c, name))
    for name in ("jitter_signal_ps", "jitter_herald_ps"):
        _check_nonneg(name, getattr(c, name))
    if c.dead_time_ps < 0:
        raise ConfigError("dead_time_ps out of range")
    if c.bin_width_ps <= 0:
        raise ConfigError("bin_width_ps out of range")
    if c.bin_width_ps > raw.pulse_period_ps:
        raise ConfigError("bin exceeds pulse period")

    # Pulse counts are drawn and summed as int64.
    for name in ("n_pulses", "toggle_period_pulses"):
        _check_range(name, getattr(raw, name), 1, 2**63 - 1)
    if not (0 <= raw.seed < 2**64):
        raise ConfigError("seed out of range")

    return raw


# ---------------------------------------------------------------------------
# Serialization (JSON; keys match the field names exactly)
# ---------------------------------------------------------------------------


def config_from_dict(data: dict) -> ExperimentConfig:
    try:
        source = SourceParams(**data["source"])
        channel = ChannelParams(**data["channel"])
        return ExperimentConfig(
            source=source,
            channel=channel,
            n_pulses=data["n_pulses"],
            seed=data["seed"],
            toggle_period_pulses=data["toggle_period_pulses"],
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


def dumps_config(config: ExperimentConfig) -> str:
    return json.dumps(asdict(config), indent=2, sort_keys=True) + "\n"


def loads_config(text: str) -> ExperimentConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return config_from_dict(data)


def save_config(config: ExperimentConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_config(config))


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read())


def config_digest(config: ExperimentConfig) -> str:
    """Content hash of a config, stable under key reordering."""
    canonical = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def paper_default(seed: int = 1) -> ExperimentConfig:
    """Tabletop standoff preset.

    80 MHz source, 793/671/~969 nm wavelength triple, 2 ns bins, measured
    collection fraction 3e-4 at 32 cm, 60% signal detector, herald arm
    lumped to 7.5% so singles run about thirteen times the coincidences.
    Dark rates are an assumption (100 counts/s per detector); jamming is
    off until a sweep or the config turns it on.
    """
    return validate_config(ExperimentConfig(seed=seed))


def bare_channel(channel: ChannelParams) -> ChannelParams:
    """Channel as in source characterization: fibers straight onto the
    detectors, so no transmitter, target or collection losses and no
    jamming. Detector properties (efficiency, darks, jitter) persist."""
    return replace(
        channel,
        collection_fraction=1.0,
        eta_transmit=1.0,
        target_reflectivity=1.0,
        background_per_bin=0.0,
        stray_light_per_bin=0.0,
    )


def bare_source(seed: int = 1) -> ExperimentConfig:
    """Idealized direct characterization preset: bare channel and noiseless
    detectors. Its analytic pair correlation is the upper bound that the
    scattered-channel measurement degrades toward; it exceeds 1000 in the
    low-rate limit."""
    cfg = ExperimentConfig(seed=seed)
    source = replace(cfg.source, noise_herald_per_bin=0.0)
    channel = replace(bare_channel(cfg.channel), dark_signal_per_bin=0.0)
    return validate_config(replace(cfg, source=source, channel=channel))
