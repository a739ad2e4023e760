import copy
import dataclasses
import decimal
import json
import math
import numbers
import pathlib
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qisim.model import (
    _BOUNDS,
    BinProbabilities,
    ChannelParams,
    ClickCounts,
    ConfigError,
    ExperimentConfig,
    SourceParams,
    bare_channel,
    bare_source,
    click_pattern_probabilities,
    config_digest,
    config_from_dict,
    dumps_config,
    load_config,
    loads_config,
    paper_default,
    save_config,
    validate_config,
)

from . import conftest


def test_validate_accepts_defaults():
    cfg = ExperimentConfig(source=SourceParams(mu=0.005))
    assert validate_config(cfg) is cfg


def test_validate_rejects_negative_mu():
    with pytest.raises(ConfigError, match="mu out of range"):
        ExperimentConfig(source=SourceParams(mu=-0.001))


def test_validate_rejects_bin_wider_than_period():
    # 80 MHz means a 12500 ps period; a 20 ns bin cannot fit.
    with pytest.raises(ConfigError, match="bin exceeds pulse period"):
        ExperimentConfig(channel=ChannelParams(bin_width_ps=20000))


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("eta_herald", 1.5, "eta_herald out of range"),
        ("noise_herald_per_bin", -1e-9, "noise_herald_per_bin out of range"),
        ("rep_rate_hz", 0.0, "rep_rate_hz out of range"),
        ("rep_rate_hz", 1e-300, "rep_rate_hz out of range"),  # an infinite period
        ("rep_rate_hz", 0.99e-6, "rep_rate_hz out of range"),
    ],
)
def test_validate_reports_source_field(field, value, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(source=dataclasses.replace(SourceParams(), **{field: value}))


def test_lowest_rep_rate_has_an_int64_period():
    cfg = ExperimentConfig(source=dataclasses.replace(SourceParams(), rep_rate_hz=1e-6))
    assert cfg.pulse_period_ps == 10**18 < 2**63


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("background_per_bin", -0.1, "background_per_bin out of range"),
        ("collection_fraction", 1.1, "collection_fraction out of range"),
        ("bin_width_ps", 0, "bin_width_ps out of range"),
    ],
)
def test_validate_reports_channel_field(field, value, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(channel=dataclasses.replace(ChannelParams(), **{field: value}))


def _built_directly(part, name, value):
    params = {"source": SourceParams, "channel": ChannelParams}[part](**{name: value})
    return ExperimentConfig(**{part: params})


def _built_by_replace(part, name, value):
    cfg = paper_default()
    params = dataclasses.replace(getattr(cfg, part), **{name: value})
    return dataclasses.replace(cfg, **{part: params})


def _built_from_dict(part, name, value):
    data = dataclasses.asdict(paper_default())
    data[part][name] = value
    return config_from_dict(data)


@pytest.mark.parametrize("build", [_built_directly, _built_by_replace, _built_from_dict])
@pytest.mark.parametrize(
    "part,name,value,message",
    [
        ("source", "eta_herald", 1.5, "eta_herald out of range"),
        ("channel", "bin_width_ps", 20000, "bin exceeds pulse period"),
        ("channel", "bin_width_ps", 0, "bin_width_ps out of range"),
        ("source", "mu", math.nan, "mu out of range"),
        ("channel", "dead_time_ps", -5, "dead_time_ps out of range"),
        ("channel", "jitter_signal_ps", -300, "jitter_signal_ps out of range"),
    ],
)
def test_invalid_config_cannot_be_built(build, part, name, value, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        build(part, name, value)


@pytest.mark.parametrize(
    "parts,message",
    [
        ({"source": None}, "^source must be a SourceParams, not NoneType$"),
        ({"channel": {}}, "^channel must be a ChannelParams, not dict$"),
    ],
)
def test_config_parts_must_have_their_dataclass_type(parts, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**parts)


def test_validate_is_idempotent():
    cfg = validate_config(paper_default())
    assert validate_config(cfg) is cfg


def test_round_trip_identity(tmp_path):
    cfg = paper_default(seed=42)
    path = tmp_path / "config.json"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg


@settings(max_examples=25, deadline=None)
@given(conftest.experiment_configs())
def test_round_trip_identity_any_config(cfg):
    assert loads_config(dumps_config(cfg)) == cfg


def test_config_keys_match_field_names():
    data = json.loads(dumps_config(paper_default()))
    assert set(data) == {"source", "channel", "n_pulses", "seed", "toggle_period_pulses"}
    assert "eta_signal_detector" in data["channel"]
    assert "noise_herald_per_bin" in data["source"]


def paper_default_data() -> dict:
    return json.loads(dumps_config(paper_default()))


# (top-level key, None) and (part, key in it) of every key in a config file
PART_KEYS = [(key, None) for key in paper_default_data()] + [
    (part, key) for part in ("source", "channel") for key in paper_default_data()[part]
]


@pytest.mark.parametrize("part,key", PART_KEYS)
def test_missing_key_is_named(part, key):
    data = paper_default_data()
    if key is None:
        del data[part]
        name = part
    else:
        del data[part][key]
        name = f"{part}.{key}"
    with pytest.raises(ConfigError, match=f"^malformed config: missing key {name}$"):
        config_from_dict(data)


def test_every_unknown_key_of_an_object_is_named_before_missing_ones():
    data = paper_default_data()
    data["channel"]["d_m"] = data["channel"]["dist_m"] = 1.0
    del data["channel"]["dead_time_ps"]
    with pytest.raises(
        ConfigError, match="^malformed config: unknown key channel.d_m, channel.dist_m$"
    ):
        config_from_dict(data)


@pytest.mark.parametrize(
    "part,name", [(None, "the config"), ("source", "source"), ("channel", "channel")]
)
def test_object_that_is_a_list_is_named(part, name):
    data = paper_default_data()
    if part:
        data[part] = list(data[part].values())
    else:
        data = list(data.values())
    with pytest.raises(ConfigError, match=f"^malformed config: {name} is not a JSON object$"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "key,value", [('"seed": 3', '"seed": 3, "seed": 9'), ('"mu": ', '"mu": 1, "mu": ')]
)
def test_duplicate_key_is_named(key, value):
    text = dumps_config(paper_default(seed=3))
    assert text.count(key) == 1
    name = key.split('"')[1]
    with pytest.raises(ConfigError, match=f"^malformed config: duplicate key {name}$"):
        loads_config(text.replace(key, value))


def test_readme_config_example_is_paper_default():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert loads_config(example) == paper_default(seed=7)


def test_digest_stable_under_key_reordering():
    cfg = paper_default(seed=9)
    text = dumps_config(cfg)
    shuffled = json.dumps(json.loads(text), sort_keys=False)
    assert config_digest(loads_config(shuffled)) == config_digest(cfg)


def test_digest_changes_with_content():
    a = paper_default(seed=1)
    b = dataclasses.replace(a, seed=2)
    assert config_digest(a) != config_digest(b)


def test_click_counts_invariants():
    with pytest.raises(ValueError):
        ClickCounts(n_pulses=10, n_signal_clicks=1, n_herald_clicks=1, n_coincidences=2)
    with pytest.raises(ValueError):
        ClickCounts(n_pulses=10, n_signal_clicks=11, n_herald_clicks=0, n_coincidences=0)
    with pytest.raises(ValueError):
        ClickCounts(n_pulses=10, n_signal_clicks=-1, n_herald_clicks=0, n_coincidences=0)


def test_bin_probabilities_bounds():
    with pytest.raises(ValueError):
        BinProbabilities(p_signal=0.1, p_herald=0.1, p_coincidence=0.2, p_background=0.0)
    with pytest.raises(ValueError):
        BinProbabilities(p_signal=1.2, p_herald=0.1, p_coincidence=0.1, p_background=0.0)


def test_paper_default_preset():
    cfg = paper_default()
    assert cfg.pulse_period_ps == 12500
    assert cfg.channel.bin_width_ps == 2000
    assert cfg.source.eta_herald == pytest.approx(0.075)


def test_bare_presets_strip_losses_and_noise():
    cfg = bare_source()
    assert cfg.channel.collection_fraction == 1.0
    assert cfg.channel.dark_signal_per_bin == 0.0
    assert cfg.source.noise_herald_per_bin == 0.0
    ch = bare_channel(paper_default().channel)
    assert ch.eta_transmit == 1.0
    assert ch.background_per_bin == 0.0
    # detector properties persist
    assert ch.eta_signal_detector == pytest.approx(0.6)
    assert ch.dark_signal_per_bin > 0


@pytest.mark.parametrize("name", ["n_pulses", "toggle_period_pulses"])
def test_validate_bounds_pulse_counts_to_int64(name):
    cfg = ExperimentConfig(source=SourceParams(mu=0.005))
    assert validate_config(dataclasses.replace(cfg, **{name: 2**63 - 1}))
    for bad in (2**63, 2**64):
        with pytest.raises(ConfigError, match=f"{name} out of range"):
            validate_config(dataclasses.replace(cfg, **{name: bad}))


# --- the per-field checks that the bounds table replaced: the oracle -------

ORACLE_NUMERIC_FIELDS = {
    cls: [(f.name, f.type) for f in dataclasses.fields(cls) if f.type in ("int", "float")]
    for cls in (SourceParams, ChannelParams, ExperimentConfig)
}


def _check_range(name, value, lo, hi):
    if not (lo <= value <= hi):
        raise ConfigError(f"{name} out of range")


def _check_nonneg(name, value):
    if value < 0:
        raise ConfigError(f"{name} out of range")


def _check_types(part):
    for name, kind in ORACLE_NUMERIC_FIELDS[type(part)]:
        value = getattr(part, name)
        if kind == "int":
            if type(value) is not int and (
                isinstance(value, bool) or not isinstance(value, numbers.Integral)
            ):
                raise ConfigError(f"{name} must be an integer, not {value!r}")
        else:
            if type(value) is not float and (
                isinstance(value, bool) or not isinstance(value, numbers.Real)
            ):
                raise ConfigError(f"{name} must be a real number, not {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{name} out of range")


def written_out_validate_config(raw):
    """`validate_config` as each rule was written out before `_BOUNDS`."""
    s, c = raw.source, raw.channel
    for name, part, cls in (("source", s, SourceParams), ("channel", c, ChannelParams)):
        if type(part) is not cls:
            raise ConfigError(f"{name} must be a {cls.__name__}, not {type(part).__name__}")
    for part in (s, c, raw):
        _check_types(part)

    _check_nonneg("mu", s.mu)
    if s.rep_rate_hz <= 0:
        raise ConfigError("rep_rate_hz out of range")
    _check_range("eta_herald", s.eta_herald, 0.0, 1.0)
    _check_nonneg("noise_herald_per_bin", s.noise_herald_per_bin)

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

    for name in ("n_pulses", "toggle_period_pulses"):
        _check_range(name, getattr(raw, name), 1, 2**63 - 1)
    if not (0 <= raw.seed < 2**64):
        raise ConfigError("seed out of range")

    return raw


# (part, name, annotation) of every numeric field; part None is the top level
NUMERIC_FIELDS = [
    (part, name, kind)
    for part, cls in zip(("source", "channel", None), ORACLE_NUMERIC_FIELDS)
    for name, kind in ORACLE_NUMERIC_FIELDS[cls]
]
VALUE_POOL = [
    0, 1, -1, 0.5, 1.5, 0.0, -0.0, 5e-324, -5e-324, 1e308, math.nan, math.inf, -math.inf,
    True, "1", None, [1], np.int64(3), np.float64(0.2), np.float32(0.2),
    2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63), 10**400, 12500, 12501, 20000,
]


def substituted(part, name, value):
    """paper_default with one numeric field replaced, built without validation."""
    cfg = copy.copy(paper_default())
    if part is None:
        object.__setattr__(cfg, name, value)
    else:
        object.__setattr__(cfg, part, dataclasses.replace(getattr(cfg, part), **{name: value}))
    return cfg


def outcome(check, cfg):
    """"accepted", or the type and message of what `check(cfg)` raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            check(cfg)
        except Exception as exc:
            return type(exc).__name__, str(exc)
    return "accepted"


def differs_from_oracle(part, name, kind, value) -> bool:
    """Whether `validate_config` judges one substitution otherwise than the
    oracle. Two cases may differ, both as `<name> out of range`:

    * a Python int beyond the largest double in a float field, where the
      oracle's float conversion overflows (or, just above the largest
      double, where it rounds down and the oracle accepts);
    * a positive `rep_rate_hz` below 1e-6, whose pulse period the oracle
      accepts, or fails to convert with an `OverflowError` once it is
      infinite (below about 5.6e-297)."""
    cfg = substituted(part, name, value)
    new, old = outcome(validate_config, cfg), outcome(written_out_validate_config, cfg)
    if name == "rep_rate_hz" and type(value) in (int, float) and 0 < value < 1e-6:
        assert new == ("ConfigError", "rep_rate_hz out of range")
        assert old == "accepted" or old[0] == "OverflowError"
        return new != old
    if type(value) is int and kind == "float" and abs(value) > sys.float_info.max:
        assert new == ("ConfigError", f"{name} out of range")
        if abs(value) >= 2**1024 - 2**970:  # float(value) overflows
            assert old[0] == "OverflowError"
        return new != old
    assert new == old, (part, name, value)
    return False


class TestBoundsTable:
    def test_pool_substitutions_judged_as_by_the_oracle(self):
        differing = {
            (name, repr(value))
            for part, name, kind in NUMERIC_FIELDS
            for value in VALUE_POOL
            if differs_from_oracle(part, name, kind, value)
        }
        float_fields = {name for _, name, kind in NUMERIC_FIELDS if kind == "float"}
        assert len(float_fields) == 13
        # the oracle's pulse period overflows at 5e-324
        assert differing == {(name, repr(10**400)) for name in float_fields} | {
            ("rep_rate_hz", repr(5e-324))
        }

    @settings(max_examples=500, deadline=None)
    @given(
        field=st.sampled_from(NUMERIC_FIELDS),
        value=st.floats() | st.integers() | st.integers(-(2**1100), 2**1100),
    )
    def test_drawn_substitutions_judged_as_by_the_oracle(self, field, value):
        differs_from_oracle(*field, value)

    def test_first_invalid_field_in_declaration_order_is_named(self):
        # the oracle checked every type first, so it named seed here
        cfg = substituted("source", "mu", -1.0)
        object.__setattr__(cfg, "seed", "7")
        with pytest.raises(ConfigError, match="^mu out of range$"):
            validate_config(cfg)
        with pytest.raises(ConfigError, match="^seed must be an integer"):
            written_out_validate_config(cfg)

    def test_every_bound_names_one_numeric_field(self):
        names = [name for _, name, _ in NUMERIC_FIELDS]
        assert names == list(_BOUNDS)  # each field once, in declaration order
        for lo, hi in _BOUNDS.values():
            assert lo <= hi

    def test_readme_bounds_table_is_bounds(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("## Configuration", 1)[1]
        rows = [
            [cell.strip(" `") for cell in line.strip("|").split("|")]
            for line in section.split("\n## ", 1)[0].splitlines()
            if line.startswith("| `")
        ]

        def number(text):
            if text == "∞":
                return math.inf
            return float(text) if "." in text or "e" in text else int(text)

        table = {row[0]: (row[1], number(row[2]), number(row[3])) for row in rows}
        assert len(table) == len(rows)
        want = {
            f"{part}.{name}" if part else name: (kind, *_BOUNDS[name])
            for part, name, kind in NUMERIC_FIELDS
        }
        assert list(table) == list(want)
        assert table == want


def poisson_patterns_written_out(source, channel, target_in):
    """The Poisson patterns with the excess written as P(no S) P(no H) expm1(x):
    an independent reference for the model's three-process products."""
    mu = source.mu
    eta_h = source.eta_herald
    eta_sig = channel.signal_arm_efficiency(target_in)
    noise_s = channel.signal_noise_per_bin
    noise_h = source.noise_herald_per_bin
    p_s = -np.expm1(-(mu * eta_sig + noise_s))
    p_h = -np.expm1(-(mu * eta_h + noise_h))
    excess = np.exp(-(noise_s + noise_h + mu * (eta_sig + eta_h))) * np.expm1(mu * eta_sig * eta_h)
    p11 = p_s * p_h + excess
    p10 = np.maximum(0.0, p_s - p11)
    p01 = np.maximum(0.0, p_h - p11)
    return p11, p10, p01, np.maximum(0.0, 1.0 - p11 - p10 - p01)


def log_uniform(hi: float, *ends: float) -> st.SearchStrategy[float]:
    """0, one of `ends`, or 2**e for e uniform from the least subnormal up to hi."""
    spread = st.floats(-1074.0, math.log2(hi), exclude_max=True).map(lambda e: 2.0**e)
    return st.one_of(st.sampled_from((0.0, *ends)), spread)


EFFICIENCY_ENDS = (1.0, 2.0**-52, 1.0 - 2.0**-52)
SIGNAL_EFFICIENCIES = ("eta_transmit", "target_reflectivity", "collection_fraction", "eta_signal_detector")
SIGNAL_NOISES = ("background_per_bin", "dark_signal_per_bin", "stray_light_per_bin")


def reference_patterns(source, channel, target_in):
    """The four patterns and s + h + b in `decimal`, from the exact field values.

    The three processes' means are exact to 80 digits. 1 - e**-x is taken
    with 60 digits past its leading zeros: at a flat precision e**-x rounds
    to 1 for a small enough x, and the difference to 0."""
    D = decimal.Decimal
    with decimal.localcontext(prec=80):
        mu, eta_h = D(source.mu), D(source.eta_herald)
        eta_sig = D(int(target_in))
        for name in SIGNAL_EFFICIENCIES:
            eta_sig *= D(getattr(channel, name))
        noise_s = sum(D(getattr(channel, name)) for name in SIGNAL_NOISES)
        s = mu * eta_sig * (1 - eta_h) + noise_s
        h = mu * eta_h * (1 - eta_sig) + D(source.noise_herald_per_bin)
        b = mu * eta_sig * eta_h

        def fired(x):
            with decimal.localcontext(prec=60 + max(0, -x.adjusted())):
                return 1 - (-x).exp()

        quiet_b, quiet_s, quiet_h = ((-x).exp() for x in (b, s, h))
        fired_b, fired_s, fired_h = (fired(x) for x in (b, s, h))
        patterns = (
            fired_b + quiet_b * fired_s * fired_h,
            quiet_b * fired_s * quiet_h,
            quiet_b * quiet_s * fired_h,
            quiet_b * quiet_s * quiet_h,
        )
        return patterns, s + h + b


class TestClickPatternProbabilities:
    @settings(max_examples=300, deadline=None)
    @given(
        source=conftest.source_params(),
        channel=conftest.channel_params(),
        target_in=st.booleans(),
    )
    def test_poisson_matches_written_out_formula(self, source, channel, target_in):
        got = click_pattern_probabilities(source, channel, target_in)
        want = poisson_patterns_written_out(source, channel, target_in)
        # the reference's p10 and p01 are differences of a singles and the
        # coincidence probability, so its rounding is relative to the singles
        scale = max(want[0] + want[1], want[0] + want[2])
        for g, w in zip(got, want):
            assert g == pytest.approx(float(w), rel=1e-14, abs=1e-15 * scale)

    @pytest.mark.parametrize("mu", [0.02, 0.5])
    def test_matches_poisson_pmf_series(self, mu):
        # no noise: P(no S) = sum_n P(n) (1 - eta_sig)^n, and likewise for
        # the herald and for neither; the efficiencies are arrays, so the
        # broadcast path meets the oracle too
        eta_sig = np.array([0.3, 0.9, 1.0, 0.1, 0.0])
        eta_h = np.array([0.5, 0.2, 1.0, 0.9, 0.4])
        source = SourceParams(mu=mu, eta_herald=eta_h, noise_herald_per_bin=0.0)
        channel = ChannelParams(
            collection_fraction=eta_sig,
            eta_signal_detector=1.0,
            eta_transmit=1.0,
            dark_signal_per_bin=0.0,
        )
        p11, p10, p01, p00 = click_pattern_probabilities(source, channel, True)

        def series(z):
            return math.fsum(math.exp(-mu) * mu**n / math.factorial(n) * z**n for n in range(80))

        for i, (q_s, q_h) in enumerate(zip(eta_sig, eta_h)):
            for got, z in (
                (p01[i] + p00[i], 1 - q_s),
                (p10[i] + p00[i], 1 - q_h),
                (p00[i], (1 - q_s) * (1 - q_h)),
            ):
                assert got == pytest.approx(series(z), rel=1e-13, abs=0)

    @pytest.mark.parametrize("mu", [0.02, 0.5, 5.0])
    def test_log_excess_is_mu_eta_sig_eta_h(self, mu):
        # log P(neither) - log P(no S) - log P(no H) = mu eta_sig eta_h for
        # Poisson pairs; the noise factors cancel, so noise stays on
        eta_sig = np.array([0.3, 0.9, 1.0])
        eta_h = np.array([0.5, 0.2, 1.0])
        source = SourceParams(mu=mu, eta_herald=eta_h, noise_herald_per_bin=2e-3)
        channel = ChannelParams(
            collection_fraction=eta_sig,
            eta_signal_detector=1.0,
            eta_transmit=1.0,
            background_per_bin=1e-3,
            dark_signal_per_bin=1e-4,
        )
        _, p10, p01, p00 = click_pattern_probabilities(source, channel, True)
        got = np.log(p00) - np.log(p01 + p00) - np.log(p10 + p00)
        for g, want in zip(got, mu * eta_sig * eta_h):
            assert g == pytest.approx(want, rel=1e-9, abs=0)

    def test_mu_zero_channels_are_independent(self):
        # no pairs: each channel clicks on its own noise alone
        source = SourceParams(mu=0.0, eta_herald=0.5, noise_herald_per_bin=3e-3)
        channel = ChannelParams(background_per_bin=1e-3, dark_signal_per_bin=1e-4)
        p_s = -math.expm1(-channel.signal_noise_per_bin)
        p_h = -math.expm1(-3e-3)
        for target_in in (True, False):
            p11, p10, p01, p00 = click_pattern_probabilities(source, channel, target_in)
            assert p11 == pytest.approx(p_s * p_h, rel=1e-15, abs=0)
            assert p10 == pytest.approx(p_s * (1 - p_h), rel=1e-14, abs=0)
            assert p01 == pytest.approx(p_h * (1 - p_s), rel=1e-14, abs=0)
            assert p00 == pytest.approx((1 - p_s) * (1 - p_h), rel=1e-15, abs=0)

    def test_target_out_has_no_signal_pairs(self):
        # target out and no signal noise: the signal detector never fires,
        # and the herald clicks with P(N eta_h >= 1) = 1 - exp(-mu eta_h)
        source = SourceParams(mu=0.5, eta_herald=0.5, noise_herald_per_bin=0.0)
        channel = ChannelParams(
            eta_transmit=1.0, collection_fraction=0.5, eta_signal_detector=0.6, dark_signal_per_bin=0.0
        )
        p11, p10, p01, p00 = click_pattern_probabilities(source, channel, False)
        assert (p11, p10) == (0.0, 0.0)
        assert p01 == pytest.approx(-math.expm1(-0.25), rel=1e-15, abs=0)
        assert p00 == pytest.approx(math.exp(-0.25), rel=1e-15, abs=0)

    def test_stray_light_is_signal_channel_noise(self):
        # stray light ln 2 as the only signal-channel noise halves P(no S);
        # mu eta_sig = 0.15 with the target in, and P(no H) = exp(-mu eta_h)
        source = SourceParams(mu=0.5, eta_herald=0.5, noise_herald_per_bin=0.0)
        channel = ChannelParams(
            eta_transmit=1.0,
            collection_fraction=0.5,
            eta_signal_detector=0.6,
            dark_signal_per_bin=0.0,
            stray_light_per_bin=math.log(2.0),
        )
        no_h = math.exp(-0.25)
        # target state, P(no S), pair excess exp(mu eta_sig eta_h) of P(neither)
        for target_in, no_s, excess in (
            (False, 0.5, 1.0),
            (True, 0.5 * math.exp(-0.15), math.exp(0.075)),
        ):
            p00 = no_s * no_h * excess
            want = (1.0 - no_s - no_h + p00, no_h - p00, no_s - p00, p00)
            got = click_pattern_probabilities(source, channel, target_in)
            assert got == pytest.approx(want, rel=1e-14, abs=0), target_in

    def test_large_mu_unit_efficiencies_is_a_certain_coincidence(self):
        # mu eta_sig eta_h = 1200: expm1 of the excess exponent would be inf,
        # and P(no S) P(no H) * inf is NaN; every pulse clicks both channels
        source = SourceParams(mu=1200.0, eta_herald=1.0, noise_herald_per_bin=0.0)
        channel = ChannelParams(
            eta_transmit=1.0, collection_fraction=1.0, eta_signal_detector=1.0, dark_signal_per_bin=0.0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = click_pattern_probabilities(source, channel, True)
        assert got == (1.0, 0.0, 0.0, 0.0)

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(
        source=st.builds(
            SourceParams,
            **{n: st.floats(*_BOUNDS[n]) for n in ("mu", "eta_herald", "noise_herald_per_bin")},
        ),
        channel=st.builds(
            ChannelParams,
            **{
                n: st.floats(*_BOUNDS[n])
                for n in (
                    "collection_fraction",
                    "eta_signal_detector",
                    "eta_transmit",
                    "target_reflectivity",
                    "background_per_bin",
                    "dark_signal_per_bin",
                    "stray_light_per_bin",
                )
            },
        ),
        target_in=st.booleans(),
    )
    @example(  # P(S) rounds to 1, and 1 - p11 - p10 - p01 to -2**-54; p00 is a product
        source=SourceParams(mu=1e-3, eta_herald=0.2, noise_herald_per_bin=0.4),
        channel=ChannelParams(background_per_bin=37.0),
        target_in=True,
    )
    def test_patterns_are_probabilities_over_the_accepted_domain(self, source, channel, target_in):
        # every value _BOUNDS accepts, up to mu = float max: no overflow, no NaN
        got = click_pattern_probabilities(source, channel, target_in)
        assert all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in got), got
        assert math.fsum(got) == pytest.approx(1.0, rel=0, abs=1e-12)
        # the array path (one reflectivity per pixel) gives the same numbers, without a warning
        reflectivities = (channel.target_reflectivity, 1.0)
        each = [
            click_pattern_probabilities(
                source, dataclasses.replace(channel, target_reflectivity=r), target_in
            )
            for r in reflectivities
        ]
        pixels = dataclasses.replace(channel, target_reflectivity=np.array(reflectivities))
        for k, p in enumerate(click_pattern_probabilities(source, pixels, target_in)):
            assert np.array_equal(np.broadcast_to(p, 2), [e[k] for e in each]), (k, p, each)

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(
        source=st.builds(
            SourceParams,
            mu=log_uniform(_BOUNDS["mu"][1]),
            eta_herald=log_uniform(1.0, *EFFICIENCY_ENDS),
            noise_herald_per_bin=log_uniform(_BOUNDS["noise_herald_per_bin"][1]),
        ),
        channel=st.builds(
            ChannelParams,
            **{n: log_uniform(1.0, *EFFICIENCY_ENDS) for n in SIGNAL_EFFICIENCIES},
            **{n: log_uniform(_BOUNDS[n][1]) for n in SIGNAL_NOISES},
        ),
        target_in=st.booleans(),
    )
    @example(  # mu 19.1, every efficiency 1: p01 is 5.07e-32, far below P(H)'s rounding
        source=SourceParams(mu=19.1, eta_herald=1.0, noise_herald_per_bin=1e-23),
        channel=ChannelParams(
            eta_transmit=1.0, collection_fraction=1.0, eta_signal_detector=1.0, dark_signal_per_bin=0.0
        ),
        target_in=True,
    )
    @example(  # and herald efficiency 1 - 2**-52: p10 is 2.15e-23, far below P(S)'s rounding
        source=SourceParams(mu=19.1, eta_herald=1.0 - 2.0**-52),
        channel=ChannelParams(
            eta_transmit=1.0, collection_fraction=1.0, eta_signal_detector=1.0, dark_signal_per_bin=0.0
        ),
        target_in=True,
    )
    def test_patterns_keep_relative_precision(self, source, channel, target_in):
        # a few ulp of each pattern, times the conditioning of e**-x at the
        # processes' total mean, wherever the exact pattern is a normal double
        want, total = reference_patterns(source, channel, target_in)
        bound = 4 * decimal.Decimal(2.0**-52) * max(1, total)
        got = click_pattern_probabilities(source, channel, target_in)
        for k, (g, w) in enumerate(zip(got, want)):
            if w >= sys.float_info.min:
                assert abs(decimal.Decimal(float(g)) - w) <= bound * w, (k, float(g), float(w))
