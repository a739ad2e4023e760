"""Shared test helpers.

Statistical tolerance convention: automated checks on Monte Carlo output
use a 4 sigma band (about 6e-5 false-fail probability per check). All
random draws are seeded, so a passing suite is deterministic.
"""

from __future__ import annotations

import numpy as np
from hypothesis import Phase, settings
from hypothesis import strategies as st

from qisim import channel
from qisim.model import (
    ChannelParams,
    ClickCounts,
    ExperimentConfig,
    SourceParams,
    click_pattern_probabilities,
)

SIGMA = 4.0

# A mutant's test run stops at its first failure, and only whether one
# fails counts, so shrinking the failing example is wasted time there.
# `scripts/run_mutants.py` selects this profile; other runs keep the default.
settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink])


def assert_within_sigma(observed: float, expected: float, std: float, label: str = "") -> None:
    band = SIGMA * std
    assert abs(observed - expected) <= band, (
        f"{label or 'value'}: |{observed} - {expected}| > {SIGMA} sigma ({band})"
    )


def binomial_std(n: int, p: float) -> float:
    return float(np.sqrt(n * p * (1.0 - p)))


def script_draws(monkeypatch, *tallies) -> list:
    """Make each `channel.draw_counts` call return the next tally
    (n_signal, n_herald, n_coinc) over the pulses it was asked for. Every
    draw of `simulate_counts`, `run_sweep` and `run_characterize` goes
    through it, looked up at call time, so this reaches them all. Returns
    the list of calls made, as (patterns, n_pulses): the four pattern
    probabilities as floats, which show the target state and config drawn
    (see `patterns_of`)."""
    queue, calls = list(tallies), []

    def draw(patterns, n_pulses, rng):
        calls.append((tuple(float(p) for p in patterns), n_pulses))
        return ClickCounts(n_pulses, *queue.pop(0))

    monkeypatch.setattr(channel, "draw_counts", draw)
    return calls


def patterns_of(config: ExperimentConfig, target_in: bool) -> tuple:
    """The closed-form patterns a draw for config and target state is given."""
    return click_pattern_probabilities(config.source, config.channel, target_in)


# --- hypothesis strategies -------------------------------------------------

finite = dict(allow_nan=False, allow_infinity=False)


def source_params() -> st.SearchStrategy[SourceParams]:
    return st.builds(
        SourceParams,
        mu=st.floats(0.0, 0.05, **finite),
        eta_herald=st.floats(0.0, 1.0, **finite),
        noise_herald_per_bin=st.floats(0.0, 1e-3, **finite),
    )


def channel_params() -> st.SearchStrategy[ChannelParams]:
    return st.builds(
        ChannelParams,
        collection_fraction=st.floats(0.0, 1.0, **finite),
        eta_signal_detector=st.floats(0.0, 1.0, **finite),
        eta_transmit=st.floats(0.0, 1.0, **finite),
        background_per_bin=st.floats(0.0, 0.01, **finite),
        dark_signal_per_bin=st.floats(0.0, 1e-4, **finite),
        stray_light_per_bin=st.floats(0.0, 1e-4, **finite),
        bin_width_ps=st.integers(1, 12500),
        target_reflectivity=st.floats(0.0, 1.0, **finite),
        jitter_signal_ps=st.floats(0.0, 500.0, **finite),
        jitter_herald_ps=st.floats(0.0, 500.0, **finite),
        dead_time_ps=st.integers(0, 100_000),
    )


def experiment_configs() -> st.SearchStrategy[ExperimentConfig]:
    return st.builds(
        ExperimentConfig,
        source=source_params(),
        channel=channel_params(),
        n_pulses=st.integers(1, 10**9),
        seed=st.integers(0, 2**64 - 1),
        toggle_period_pulses=st.integers(1, 10**9),
    )
