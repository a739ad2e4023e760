import dataclasses
import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qisim.model import (
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

from qisim.source import THERMAL_PAIRS

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
    ],
)
def test_validate_reports_source_field(field, value, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(source=dataclasses.replace(SourceParams(), **{field: value}))


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


def poisson_patterns_written_out(source, channel, target_in):
    """The Poisson-only pattern formula that the pair-law form replaced."""
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
        # p10 and p01 are differences of a singles and the coincidence
        # probability, so their rounding is relative to the singles
        scale = max(want[0] + want[1], want[0] + want[2])
        for g, w in zip(got, want):
            assert g == pytest.approx(float(w), rel=1e-14, abs=1e-15 * scale)

    def test_thermal_hand_evaluated(self):
        # G(1 - q) = 1 / (1 + mu q) at mu = 1/2, eta_h = 1/2, eta_sig = 0.3, no
        # noise: P(no S) = 20/23, P(no H) = 4/5, P(neither) = 1/(1 + 0.325) = 40/53
        source = SourceParams(mu=0.5, eta_herald=0.5, noise_herald_per_bin=0.0)
        channel = ChannelParams(
            eta_transmit=1.0,
            collection_fraction=0.5,
            eta_signal_detector=0.6,
            dark_signal_per_bin=0.0,
        )
        assert channel.signal_arm_efficiency(True) == pytest.approx(0.3, rel=1e-15, abs=0)
        got = click_pattern_probabilities(source, channel, True, THERMAL_PAIRS)
        want = [Fraction(519, 6095), Fraction(12, 265), Fraction(140, 1219), Fraction(40, 53)]
        assert sum(want) == 1
        for g, w in zip(got, want):
            assert g == pytest.approx(float(w), rel=1e-14, abs=0)
        # target out: no pair reaches the signal detector, so the channels
        # are independent
        p11, p10, p01, p00 = click_pattern_probabilities(source, channel, False, THERMAL_PAIRS)
        assert (p11, p10, p01) == (0.0, 0.0, pytest.approx(0.2, rel=1e-15, abs=0))
        assert p00 == pytest.approx(0.8, rel=1e-15, abs=0)

    def test_thermal_forms_keep_their_digits_at_paper_default(self):
        # At paper_default mu*eta_sig is ~1e-6, and the excess is ~7000x
        # smaller than each of the three logs it is the difference of.
        # Fraction arithmetic, rounded once before the final log1p, is the oracle.
        cfg = paper_default()
        mu, eta_h = cfg.source.mu, cfg.source.eta_herald
        eta_sig = cfg.channel.signal_arm_efficiency(True)
        fm, fs, fh = Fraction(mu), Fraction(eta_sig), Fraction(eta_h)
        for q, fq in ((eta_sig, fs), (eta_h, fh)):
            exact = -math.log1p(float(fm * fq))
            assert THERMAL_PAIRS.log_pgf(mu, q) == pytest.approx(exact, rel=1e-14, abs=0)
        ratio = (1 + fm * fs) * (1 + fm * fh) / (1 + fm * (fs + fh - fs * fh))
        exact = math.log1p(float(ratio - 1))
        got = THERMAL_PAIRS.log_pair_excess(mu, eta_sig, eta_h)
        assert got == pytest.approx(exact, rel=1e-14, abs=0)

    def test_thermal_broadcasts(self):
        source = SourceParams(mu=0.5, eta_herald=0.5)
        reflectivity = np.array([0.0, 0.25, 1.0])
        channel = ChannelParams(target_reflectivity=reflectivity)
        arrays = click_pattern_probabilities(source, channel, True, THERMAL_PAIRS)
        for i, r in enumerate(reflectivity):
            one = dataclasses.replace(channel, target_reflectivity=float(r))
            scalars = click_pattern_probabilities(source, one, True, THERMAL_PAIRS)
            assert [a[i] for a in arrays] == list(scalars)
