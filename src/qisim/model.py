"""Domain types and experiment configuration.

All quantities follow two conventions:

* Time is integer picoseconds everywhere. At the default 80 MHz repetition
  rate the pulse period is exactly 12500 ps, so pulse indexing and bin
  arithmetic are exact with no float drift.
* Noise and background intensities are expressed as mean detections per
  coincidence bin (the per-bin Poisson intensity), not per second. Helpers
  on the CLI convert seconds-denominated inputs.

Types are frozen dataclasses. An `ExperimentConfig` runs `validate_config`
when it is built, by any route, so every config that exists is valid; its
`SourceParams` and `ChannelParams` are checked when they go into one.
Each numeric field must lie in its closed interval in `_BOUNDS`; the only
other value rule is that the coincidence bin fits in the pulse period.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

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
    """Photon-pair source statistics.

    mu is the mean number of pairs generated per pump pulse. eta_herald is
    the total herald-arm detection probability per idler photon (coupling,
    filtering and detector efficiency lumped together). noise_herald_per_bin
    is the mean rate of herald-channel detections per bin that have no
    partner signal photon (competing nonlinear processes plus dark counts).
    """

    mu: float = 5.8e-3
    rep_rate_hz: float = DEFAULT_REP_RATE_HZ
    eta_herald: float = 0.075
    noise_herald_per_bin: float = DEFAULT_DARK_PER_BIN


@dataclass(frozen=True)
class ChannelParams:
    """Signal-arm efficiencies, noise and detector timing.

    The signal arm keeps its loss factors separate (transmitter throughput,
    target reflectivity, collection fraction of the diffusely scattered
    light, detector efficiency); their product is the per-photon detection
    probability when the target is in place. background_per_bin is the
    jamming intensity; dark and stray light are target-independent and
    uniform in time.
    """

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

    def __post_init__(self) -> None:
        validate_config(self)

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


@dataclass(frozen=True)
class Estimate:
    """A measured statistic (an SNR, a pair correlation g2) and its standard error."""

    value: float
    std_err: float


def count_variance(n: int) -> int:
    """Poisson variance of a numerator tally, floored at one count."""
    return max(n, 1)


class UndefinedStatistic(ValueError):
    """A statistic has a zero denominator (for the QEF, a classical SNR of
    zero or less) and cannot be formed; the message says which."""


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


def click_pattern_probabilities(source: SourceParams, channel: ChannelParams, target_in: bool):
    """Probabilities of the four per-pulse click patterns.

    The per-bin model: a pulse makes a Poisson number of pairs with mean
    mu; each pair's signal photon is detected with the full arm efficiency
    eta_sig and its herald with eta_h, independently; jamming, dark and
    stray light add independent Poisson intensities. Detected or lost
    photon by photon, the pulse holds three independent Poisson processes,
    with means

        s = mu*eta_sig*(1 - eta_h) + signal noise   (signal only)
        h = mu*eta_h*(1 - eta_sig) + herald noise   (herald only)
        b = mu*eta_sig*eta_h                        (both)

    Click detectors fire on one or more photons. With quiet(x) = exp(-x)
    and fired(x) = -expm1(-x), each pattern is one product of a factor per
    process, save that both channels click when the pair process fires or
    when it is quiet and the other two fire:

        both        fired(b) + quiet(b)*fired(s)*fired(h)
        signal only quiet(b)*fired(s)*quiet(h)
        herald only quiet(b)*quiet(s)*fired(h)
        neither     quiet(b)*quiet(s)*quiet(h)

    No probability is subtracted from another, so each keeps full relative
    precision however small it is. These forms are exact and are the
    oracle the Monte Carlo modes are tested against.

    Returned as (both, signal only, herald only, neither). Scalar
    parameters give four numpy float64 scalars, which are Python floats.
    Any numeric field may instead hold a numpy array (for example one
    target reflectivity per pixel); the four results are then arrays
    broadcast over those fields.
    """
    mu = source.mu
    eta_h = source.eta_herald
    eta_sig = channel.signal_arm_efficiency(target_in)

    # log quiet(x) = -x for each process. A log term below -float max is
    # -inf, its limit; numpy arrays would warn of the overflow where Python
    # floats do not.
    with np.errstate(over="ignore"):
        log_quiet_s = -mu * eta_sig * (1.0 - eta_h) - channel.signal_noise_per_bin
        log_quiet_h = -mu * eta_h * (1.0 - eta_sig) - source.noise_herald_per_bin
    log_quiet_b = -mu * eta_sig * eta_h
    quiet_b = np.exp(log_quiet_b)
    # quiet(b)*fired(s) and quiet(b)*quiet(s), each shared by two patterns
    fired_s, quiet_s = quiet_b * -np.expm1(log_quiet_s), quiet_b * np.exp(log_quiet_s)
    fired_h, quiet_h = -np.expm1(log_quiet_h), np.exp(log_quiet_h)
    p11 = -np.expm1(log_quiet_b) + fired_s * fired_h
    return p11, fired_s * quiet_h, quiet_s * fired_h, quiet_s * quiet_h


_FLOAT_MAX = sys.float_info.max

# The closed interval [lo, hi] of each numeric config field. Float fields end
# at the largest finite double, so NaN, the infinities and integers too large
# for a double fail the same comparison as any other value out of range.
_BOUNDS = {
    "mu": (0.0, _FLOAT_MAX),
    "rep_rate_hz": (1e-6, _FLOAT_MAX),  # a pulse period of at most 1e18 ps, inside int64
    "eta_herald": (0.0, 1.0),
    "noise_herald_per_bin": (0.0, _FLOAT_MAX),
    "collection_fraction": (0.0, 1.0),
    "eta_signal_detector": (0.0, 1.0),
    "eta_transmit": (0.0, 1.0),
    "background_per_bin": (0.0, _FLOAT_MAX),
    "dark_signal_per_bin": (0.0, _FLOAT_MAX),
    "stray_light_per_bin": (0.0, _FLOAT_MAX),
    "bin_width_ps": (1, math.inf),  # and at most the pulse period
    "target_reflectivity": (0.0, 1.0),
    "jitter_signal_ps": (0.0, _FLOAT_MAX),
    "jitter_herald_ps": (0.0, _FLOAT_MAX),
    "dead_time_ps": (0, math.inf),
    "n_pulses": (1, 2**63 - 1),  # pulse counts are drawn and summed as int64
    "seed": (0, 2**64 - 1),
    "toggle_period_pulses": (1, 2**63 - 1),
}

# Per config class, (name, exact types, number class, noun, lo, hi) of each
# field annotated `int` or `float`, in declaration order.
_KINDS = {
    "int": ((int,), numbers.Integral, "an integer"),
    "float": ((float, int), numbers.Real, "a real number"),
}
_NUMERIC_FIELDS = {
    cls: [(f.name, *_KINDS[f.type], *_BOUNDS[f.name]) for f in fields(cls) if f.type in _KINDS]
    for cls in (SourceParams, ChannelParams, ExperimentConfig)
}


def validate_config(raw: ExperimentConfig) -> ExperimentConfig:
    """Check every invariant; return the config unchanged if all hold.

    `source` and `channel` must be a `SourceParams` and a `ChannelParams`.
    Then each numeric field, in declaration order (source, channel, top
    level), must have its annotated type and lie in its `_BOUNDS`
    interval; last, the bin must fit in the pulse period. The first
    violated invariant is reported by part or field name.
    """
    s, c = raw.source, raw.channel
    for name, part, cls in (("source", s, SourceParams), ("channel", c, ChannelParams)):
        if type(part) is not cls:
            raise ConfigError(f"{name} must be a {cls.__name__}, not {type(part).__name__}")
    for part in (s, c, raw):
        for name, exact, number, noun, lo, hi in _NUMERIC_FIELDS[type(part)]:
            value = getattr(part, name)
            if type(value) not in exact:  # plain ints and floats skip the slower tests
                if isinstance(value, bool) or not isinstance(value, number):  # bool is neither
                    raise ConfigError(f"{name} must be {noun}, not {value!r}")
                if isinstance(value, np.floating):  # a float32 would compare in float32
                    value = float(value)
            if not lo <= value <= hi:
                raise ConfigError(f"{name} out of range")
    if c.bin_width_ps > raw.pulse_period_ps:
        raise ConfigError("bin exceeds pulse period")
    return raw


# ---------------------------------------------------------------------------
# Serialization (JSON; keys match the field names exactly)
# ---------------------------------------------------------------------------


def _exact_keys(cls, data, name: str) -> dict:
    """`data`, once it is a JSON object whose keys are exactly the fields
    of `cls`. `name` is its key in the file ("" at the top); an error names
    every unknown key of the object, or else every missing one."""
    if not isinstance(data, dict):
        raise ConfigError(f"malformed config: {name or 'the config'} is not a JSON object")
    names = [f.name for f in fields(cls)]
    for what, keys in (
        ("unknown", [k for k in data if k not in names]),
        ("missing", [k for k in names if k not in data]),
    ):
        if keys:
            dotted = ", ".join(f"{name}.{k}" if name else k for k in keys)
            raise ConfigError(f"malformed config: {what} key {dotted}")
    return data


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from parsed JSON. At every level the keys must be
    exactly the dataclass field names: an unknown or missing key, or a part
    that is not an object, raises `ConfigError` naming it."""
    top = dict(_exact_keys(ExperimentConfig, data, ""))
    for name, cls in (("source", SourceParams), ("channel", ChannelParams)):
        top[name] = cls(**_exact_keys(cls, top[name], name))
    return ExperimentConfig(**top)


def dumps_config(config: ExperimentConfig) -> str:
    return json.dumps(asdict(config), indent=2, sort_keys=True) + "\n"


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, unless a key appears in it twice."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"malformed config: duplicate key {key}")
        data[key] = value
    return data


def loads_config(text: str) -> ExperimentConfig:
    """Parse a config file's text; a key repeated in one object is an error."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
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
    collection fraction 3e-4 (3 cm collectable mode at 32 cm), 60% signal
    detector, herald arm lumped to 7.5% so singles run about thirteen
    times the coincidences.
    Dark rates are an assumption (100 counts/s per detector); jamming is
    off until a sweep or the config turns it on.
    """
    return ExperimentConfig(seed=seed)


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
    return replace(cfg, source=source, channel=channel)
