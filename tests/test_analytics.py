import dataclasses
import math
import struct
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from qisim import analytics, channel
from qisim.analytics import (
    CSV_COLUMNS,
    analytic_g2,
    characterize_to_csv,
    click_pattern_probabilities,
    click_probabilities,
    expected_snr_classical,
    expected_snr_quantum,
    qef,
    run_characterize,
    run_sweep,
    snr_from_counts,
    sweep_to_csv,
)
from qisim.channel import simulate_counts
from qisim.correlator import estimate_g2
from qisim.model import (
    ChannelParams,
    ClickCounts,
    ConfigError,
    Estimate,
    ExperimentConfig,
    SourceParams,
    UndefinedStatistic,
    bare_channel,
    validate_config,
)
from qisim.rng import CHARACTERIZE_SPACE, SWEEP_SPACE, substream

from .conftest import assert_within_sigma, experiment_configs, patterns_of, script_draws


def bootstrap_snr_err(n_in, n_out, n_resamples, rng):
    """Poisson-resampled cross-check of the delta-method SNR uncertainty."""
    ins = rng.poisson(n_in, n_resamples)
    outs = np.maximum(rng.poisson(n_out, n_resamples), 1)
    return float(np.std(ins / outs - 1.0))


def params(mu=0.01, eta_h=0.075, eta_sig_parts=(0.9, 0.05, 0.6), beta=0.0, dark=0.0, noise_h=0.0):
    source = SourceParams(mu=mu, eta_herald=eta_h, noise_herald_per_bin=noise_h)
    channel = ChannelParams(
        eta_transmit=eta_sig_parts[0],
        collection_fraction=eta_sig_parts[1],
        eta_signal_detector=eta_sig_parts[2],
        background_per_bin=beta,
        dark_signal_per_bin=dark,
    )
    return source, channel


class TestClickProbabilities:
    def test_perfect_correlation_limit(self):
        source, channel = params(mu=0.01, eta_h=1.0, eta_sig_parts=(1.0, 1.0, 1.0))
        bp = click_probabilities(source, channel, True)
        expected = -math.expm1(-0.01)
        assert bp.p_signal == pytest.approx(expected, rel=1e-12)
        assert bp.p_herald == pytest.approx(expected, rel=1e-12)
        assert bp.p_coincidence == pytest.approx(expected, rel=1e-12)

    def test_no_pairs_means_independence(self):
        source, channel = params(mu=0.0, beta=2e-4, dark=1e-6, noise_h=1e-6)
        bp = click_probabilities(source, channel, True)
        assert bp.p_signal == pytest.approx(-math.expm1(-(2e-4 + 1e-6)), rel=1e-12)
        assert bp.p_coincidence == pytest.approx(bp.p_signal * bp.p_herald, rel=1e-12)

    def test_target_out_forces_factorization(self):
        source, channel = params(mu=0.02, beta=5e-4, dark=1e-6, noise_h=1e-5)
        bp = click_probabilities(source, channel, False)
        assert bp.p_coincidence == pytest.approx(bp.p_signal * bp.p_herald, rel=1e-12)
        assert bp.p_signal == pytest.approx(bp.p_background, rel=1e-12)

    def test_patterns_sum_to_one(self):
        source, channel = params(mu=0.03, beta=1e-3, dark=1e-5, noise_h=1e-4)
        patterns = click_pattern_probabilities(source, channel, True)
        assert math.fsum(patterns) == pytest.approx(1.0, abs=1e-15)
        assert all(p >= 0 for p in patterns)


class TestSnrFromCounts:
    def test_double_counts(self):
        assert snr_from_counts(200, 100).value == pytest.approx(1.0)

    def test_equal_counts(self):
        assert snr_from_counts(100, 100).value == pytest.approx(0.0)

    def test_delta_method_uncertainty(self):
        result = snr_from_counts(300, 100)
        assert result.value == pytest.approx(2.0)
        # independent-Poisson delta method: var = n_in/n_out^2 + n_in^2 n_out/n_out^4
        expected_err = math.sqrt(300 / 100**2 + 300**2 * 100 / 100**4)
        assert result.std_err == pytest.approx(expected_err, rel=1e-12)
        # cross-check against a Poisson resampling bootstrap
        boot = bootstrap_snr_err(300, 100, 10_000, substream(31, 0))
        assert abs(boot - expected_err) <= 0.05

    def test_zero_background_undefined(self):
        with pytest.raises(ValueError, match="SNR undefined"):
            snr_from_counts(10, 0)

    def test_zero_in_tally_takes_the_one_count_floor(self):
        # N_in = 0: SNR -1, and the error of one count over N_out, not 0
        result = snr_from_counts(0, 5)
        assert result.value == -1.0
        assert result.std_err == pytest.approx(1 / 5, rel=1e-12)


class TestExpectedSnr:
    def test_classical_substitution(self):
        assert expected_snr_classical(0.5, 1e-3, 1e-2) == pytest.approx(0.05, rel=1e-12)

    def test_classical_linearity(self):
        base = expected_snr_classical(0.4, 2e-4, 1e-3)
        assert expected_snr_classical(0.4, 4e-4, 1e-3) == pytest.approx(2 * base, rel=1e-12)

    def test_classical_symmetry(self):
        assert expected_snr_classical(1.0, 0.37, 0.37) == pytest.approx(1.0, rel=1e-12)

    def test_quantum_substitution(self):
        assert expected_snr_quantum(0.5, 1e-4, 1e-3, 1e-2) == pytest.approx(5.0, rel=1e-12)

    def test_quantum_reduces_to_classical_when_uncorrelated(self):
        p_s, p_h, p_b, eta = 3e-4, 5e-4, 1e-3, 0.7
        assert expected_snr_quantum(eta, p_s * p_h, p_h, p_b) == pytest.approx(
            expected_snr_classical(eta, p_s, p_b), rel=1e-12
        )

    def test_quantum_symmetry(self):
        p, q = 0.012, 0.034
        assert expected_snr_quantum(1.0, p * q, q, p) == pytest.approx(1.0, rel=1e-12)

    def test_zero_denominators(self):
        with pytest.raises(ValueError):
            expected_snr_classical(1.0, 0.1, 0.0)
        with pytest.raises(ValueError):
            expected_snr_quantum(1.0, 0.1, 0.0, 0.1)


class TestQef:
    def test_equal_snrs(self):
        assert qef(0.7, 0.7) == pytest.approx(1.0)

    def test_scattered_scale(self):
        assert qef(54.0, 0.9) == pytest.approx(60.0, rel=1e-12)

    def test_zero_classical_snr(self):
        with pytest.raises(ValueError, match="QEF undefined"):
            qef(1.0, 0.0)

    def test_algebraic_identity_from_probabilities(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            source, channel = params(
                mu=rng.uniform(1e-4, 0.05),
                eta_h=rng.uniform(0.01, 1.0),
                eta_sig_parts=(rng.uniform(0.1, 1.0), rng.uniform(0.001, 1.0), rng.uniform(0.1, 1.0)),
                beta=rng.uniform(1e-6, 1e-2),
                dark=rng.uniform(0, 1e-5),
                noise_h=rng.uniform(0, 1e-4),
            )
            bp = click_probabilities(source, channel, True)
            eta = rng.uniform(0.01, 1.0)
            ratio = qef(
                expected_snr_quantum(eta, bp.p_coincidence, bp.p_herald, bp.p_background),
                expected_snr_classical(eta, bp.p_signal, bp.p_background),
            )
            expected = bp.p_coincidence / (bp.p_signal * bp.p_herald)
            assert ratio == pytest.approx(expected, rel=1e-12)

    def test_invariant_under_eta_and_background_rescaling(self):
        source, channel = params(mu=0.005, beta=1e-4, dark=1e-6, noise_h=1e-6)
        bp = click_probabilities(source, channel, True)

        def enhancement(eta, p_b):
            return qef(
                expected_snr_quantum(eta, bp.p_coincidence, bp.p_herald, p_b),
                expected_snr_classical(eta, bp.p_signal, p_b),
            )

        reference = enhancement(0.5, bp.p_background)
        for eta_scale, pb_scale in [(10.0, 1.0), (1.0, 37.0), (0.01, 400.0)]:
            scaled = enhancement(0.5 * eta_scale, bp.p_background * pb_scale)
            assert scaled == pytest.approx(reference, rel=1e-12)

    def test_small_mu_limit(self):
        # ideal detectors, no noise: g2 * (1 - e^-mu) -> 1
        source, channel = params(mu=1e-4, eta_h=1.0, eta_sig_parts=(1.0, 1.0, 1.0))
        g2 = analytic_g2(source, channel, True)
        assert g2 * -math.expm1(-1e-4) == pytest.approx(1.0, abs=1e-6)


class TestOracleConsistency:
    def test_aggregate_mode_matches_closed_form(self):
        rng = np.random.default_rng(99)
        n = 10**7
        for trial in range(5):
            source, channel = params(
                mu=rng.uniform(5e-3, 0.03),
                eta_h=rng.uniform(0.1, 0.4),
                eta_sig_parts=(1.0, rng.uniform(0.02, 0.2), 0.6),
                beta=rng.uniform(1e-5, 1e-3),
                dark=rng.uniform(0, 1e-6),
                noise_h=rng.uniform(0, 1e-5),
            )
            cfg = validate_config(ExperimentConfig(source=source, channel=channel))
            counts = simulate_counts(cfg, True, n, substream(41, trial))
            p11, p10, p01, p00 = click_pattern_probabilities(source, channel, True)
            observed = {
                "p11": counts.n_coincidences,
                "p10": counts.n_signal_clicks - counts.n_coincidences,
                "p01": counts.n_herald_clicks - counts.n_coincidences,
            }
            observed["p00"] = n - sum(observed.values())
            for name, p in zip(("p11", "p10", "p01", "p00"), (p11, p10, p01, p00)):
                std = math.sqrt(n * p * (1 - p))
                assert_within_sigma(observed[name], n * p, std, f"{name} trial {trial}")


class TestMonteCarloConvergence:
    def test_mc_qef_converges_to_degraded_g2(self):
        # enhancement factor estimated from 1e9 toggled pulses against the
        # closed-form correlation of the jammer-blocked degraded channel
        source, channel = params(
            mu=1e-2, eta_h=0.075, beta=2e5 / 80e6, dark=0.0, noise_h=1e-5
        )
        cfg = validate_config(
            ExperimentConfig(source=source, channel=channel, seed=17, toggle_period_pulses=10**7)
        )
        table = run_sweep(cfg, "mu", [1e-2], dwell_pulses=10**9)
        row = table.rows[0]
        assert row.error is None
        blocked = dataclasses.replace(channel, background_per_bin=0.0)
        expected = analytic_g2(source, blocked, True)
        assert abs(row.qef - expected) / expected <= 0.10


class TestRunSweep:
    def small_config(self):
        # herald efficiency and jamming high enough that even the target-out
        # coincidence tally is populated at a 2e7-pulse dwell
        source, channel = params(mu=5e-3, eta_h=0.3, beta=1e-3, dark=0.0, noise_h=0.0)
        return validate_config(
            ExperimentConfig(source=source, channel=channel, seed=5, toggle_period_pulses=100_000)
        )

    def test_validations(self):
        cfg = self.small_config()
        with pytest.raises(ValueError, match="empty sweep values"):
            run_sweep(cfg, "mu", [], 10**6)
        with pytest.raises(ValueError, match="^dwell_pulses must be at least 2"):
            run_sweep(cfg, "mu", [1e-3], 1)
        with pytest.raises(ValueError, match="unknown sweep variable"):
            run_sweep(cfg, "reflectivity", [0.5], 10**6)

    def test_rows_sorted_and_complete(self):
        cfg = self.small_config()
        # a dwell that is not a whole number of toggle pairs: each target
        # state still gets half of it
        dwell = 20_050_001
        table = run_sweep(cfg, "mu", [0.02, 0.005, 0.01], dwell_pulses=dwell)
        values = [row.value for row in table.rows]
        assert values == sorted(values)
        for row in table.rows:
            assert row.error is None
            assert row.counts_in.n_pulses == row.counts_out.n_pulses == 10_025_000
            assert row.g2.value > 1.0
            assert row.qef > 0

    @pytest.mark.parametrize("dwell", [2, 3])
    def test_shortest_dwell_gives_each_state_one_pulse(self, dwell):
        (row,) = run_sweep(self.small_config(), "mu", [1e-3], dwell).rows
        assert row.counts_in.n_pulses == row.counts_out.n_pulses == 1
        assert row.snr_classical is None and row.g2 is None
        assert row.error is not None

    def test_background_sweep_moves_background(self):
        cfg = self.small_config()
        table = run_sweep(cfg, "background", [5e-4, 2e-3], dwell_pulses=20_000_000)
        # stronger jamming means more target-out singles
        assert table.rows[1].counts_out.n_signal_clicks > table.rows[0].counts_out.n_signal_clicks

    def test_background_sweep_structure(self):
        # growing jamming: the coincidence in/out gap persists while the
        # singles in/out curves merge into each other
        cfg = self.small_config()
        table = run_sweep(cfg, "background", [5e-4, 2e-3, 2e-2], dwell_pulses=80_000_000)
        singles_gap = []
        for row in table.rows:
            assert row.counts_in is not None
            # coincidences keep a resolvable target signature at every level
            assert row.snr_quantum is not None
            assert row.snr_quantum.value > 4.0 * row.snr_quantum.std_err
            singles_gap.append(
                (row.counts_in.n_signal_clicks - row.counts_out.n_signal_clicks)
                / row.counts_out.n_signal_clicks
            )
        # relative singles separation collapses as the background grows
        assert singles_gap[-1] < 0.05 * singles_gap[0]

    def test_row_failure_is_isolated(self):
        # zero background and zero dark: target-out singles are zero, the
        # SNR is undefined for that row, and the row records the failure
        source, channel = params(mu=5e-3, beta=0.0, dark=0.0)
        cfg = validate_config(
            ExperimentConfig(source=source, channel=channel, seed=6, toggle_period_pulses=50_000)
        )
        table = run_sweep(cfg, "background", [0.0, 1e-3], dwell_pulses=20_000_000)
        failed = {row.value: row for row in table.rows}
        assert failed[0.0].error is not None
        assert failed[1e-3].error is None

    def test_csv_columns_and_reproducibility(self, tmp_path):
        cfg = self.small_config()
        table = run_sweep(cfg, "mu", [0.005, 0.01], dwell_pulses=20_000_000)
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        sweep_to_csv(table, str(path_a))
        sweep_to_csv(run_sweep(cfg, "mu", [0.005, 0.01], dwell_pulses=20_000_000), str(path_b))
        header = path_a.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert path_a.read_bytes() == path_b.read_bytes()


def value_key(value: float, occurrence: int = 0) -> tuple[int, int, int]:
    """A point's key after (seed, space): the float64 bits of its value as
    (upper, lower) 32-bit words, then how many earlier points share them."""
    return (*struct.unpack(">II", struct.pack(">d", value)), occurrence)


class TestRunCharacterize:
    def test_points_sorted_keyed_by_value_and_undefined_g2_is_nan(self, tmp_path):
        # no darks: at mu = 0 both singles tallies are zero and g2 is undefined
        source, channel = params(mu=0.01, dark=0.0, noise_h=0.0)
        cfg = validate_config(ExperimentConfig(source=source, channel=channel, seed=8))
        points = run_characterize(cfg, [0.01, 0.0, 0.01], 10**6)
        mus = [mu for mu, _, _, _ in points]
        assert mus == [0.0, 0.01, 0.01]
        bare = dataclasses.replace(cfg, channel=bare_channel(channel))
        for i, (mu, counts, _, _) in enumerate(points):
            at_mu = dataclasses.replace(bare, source=dataclasses.replace(source, mu=mu))
            # a repeated mu draws its own stream, keyed by its occurrence
            rng = substream(8, CHARACTERIZE_SPACE, *value_key(mu, mus[:i].count(mu)))
            assert counts == simulate_counts(at_mu, True, 10**6, rng)
        assert points[1][1] != points[2][1]
        assert points[0][2:] == (None, "g2: g2 undefined: zero singles on a channel")
        assert points[1][2].value > 1.0 and points[1][3] is None
        path = tmp_path / "char.csv"
        characterize_to_csv(points, str(path))
        lines = path.read_text().splitlines()
        assert lines[:2] == [
            "mu,n_pulses,n_signal,n_herald,n_coinc,g2,g2_err",
            "0.0,1000000,0,0,0,nan,nan",
        ]


class TestPointKeys:
    """A row's or point's draws depend on (seed, space, value bits,
    occurrence) only: never on the other values of its grid."""

    CONFIG = TestRunSweep().small_config()
    DWELL = 200 * CONFIG.toggle_period_pulses  # every statistic is formed

    @pytest.mark.parametrize(
        "variable, values, more",
        [("mu", [5e-3, 0.02], [1e-3, 0.01, 0.03]), ("background", [1e-3, 4e-3], [5e-4, 2e-3])],
    )
    def test_sweep_rows_do_not_depend_on_the_other_values(self, variable, values, more):
        alone = run_sweep(self.CONFIG, variable, values, self.DWELL).rows
        mixed = run_sweep(self.CONFIG, variable, more + values, self.DWELL).rows
        assert all(row.error is None for row in alone)
        assert [row for row in mixed if row.value in values] == list(alone)
        split = [run_sweep(self.CONFIG, variable, [v], self.DWELL).rows[0] for v in values]
        assert split == list(alone)

    def test_characterize_points_do_not_depend_on_the_other_mus(self):
        alone = run_characterize(self.CONFIG, [5e-3, 0.02], 10**6)
        mixed = run_characterize(self.CONFIG, [0.03, 0.02, 1e-3, 5e-3], 10**6)
        assert [p for p in mixed if p[0] in (5e-3, 0.02)] == alone

    def test_a_repeated_sweep_value_draws_its_own_stream(self):
        rows = run_sweep(self.CONFIG, "mu", [0.01, 0.01], self.DWELL).rows
        assert rows[0].counts_in != rows[1].counts_in
        at = dataclasses.replace(
            self.CONFIG, source=dataclasses.replace(self.CONFIG.source, mu=0.01)
        )
        for k, row in enumerate(rows):
            rng = substream(self.CONFIG.seed, SWEEP_SPACE, *value_key(0.01, k))
            assert row.counts_in == simulate_counts(at, True, self.DWELL // 2, rng)
            assert row.counts_out == simulate_counts(at, False, self.DWELL // 2, rng)


FLOAT_MAX = sys.float_info.max


class TestVectorizedSweep:
    """A sweep evaluates the closed form once per target state over all its
    rows, then draws each row from its own generator: the same tallies as
    `simulate_counts` on that row's own configs."""

    @settings(max_examples=80, deadline=None)
    @given(
        config=experiment_configs(),
        variable=st.sampled_from(analytics.SWEEP_VARIABLES),
        # a small pool repeats values often; 0 and FLOAT_MAX are both fields' bounds
        values=st.lists(
            st.sampled_from([0.0, 2e-3, 0.01, FLOAT_MAX]) | st.floats(0.0, 0.05),
            min_size=1, max_size=6,
        ),
        dwell=st.integers(2, 10**9),
    )
    @example(
        config=ExperimentConfig(channel=ChannelParams(background_per_bin=1e-3)),
        variable="mu", values=[0.01, FLOAT_MAX, 0.0, 0.01], dwell=10**6,
    )
    @example(
        config=ExperimentConfig(), variable="background",
        values=[FLOAT_MAX, 1e-3, 0.0, 1e-3, 1e-3], dwell=10**6,
    )
    def test_each_row_draws_its_own_configs(self, config, variable, values, dwell):
        drawn, draw = [], channel.draw_counts

        def spy(patterns, n_pulses, rng):
            drawn.append(draw(patterns, n_pulses, rng))
            return drawn[-1]

        with mock.patch.object(channel, "draw_counts", spy):
            rows = run_sweep(config, variable, values, dwell).rows
        ordered = sorted(float(v) for v in values)
        keys = [value_key(v) for v in ordered]
        assert [row.value for row in rows] == ordered
        assert len(drawn) == 3 * len(rows)
        half = dwell // 2
        for k, (v, row) in enumerate(zip(ordered, rows)):
            if variable == "mu":
                at = dataclasses.replace(config, source=dataclasses.replace(config.source, mu=v))
            else:
                at = dataclasses.replace(
                    config, channel=dataclasses.replace(config.channel, background_per_bin=v)
                )
            blocked = dataclasses.replace(
                at, channel=dataclasses.replace(at.channel, background_per_bin=0.0)
            )
            rng = substream(config.seed, SWEEP_SPACE, *keys[k][:2], keys[:k].count(keys[k]))
            expected = [
                simulate_counts(at, True, half, rng),
                simulate_counts(at, False, half, rng),
                simulate_counts(blocked, True, half, rng),
            ]
            assert drawn[3 * k : 3 * k + 3] == expected
            assert (row.counts_in, row.counts_out) == tuple(expected[:2])

    def test_the_closed_form_is_evaluated_once_per_target_state(self, monkeypatch):
        calls = []

        def closed_form(source, channel, target_in):
            calls.append((np.shape(source.mu), np.shape(channel.background_per_bin), target_in))
            return click_pattern_probabilities(source, channel, target_in)

        monkeypatch.setattr(analytics, "click_pattern_probabilities", closed_form)
        values = [1e-3, 2e-3, 5e-3, 0.01, 0.02, 0.05, 0.1]
        rows = run_sweep(TestPointKeys.CONFIG, "background", values, 2000).rows
        assert len(rows) == 7
        assert calls == [((), (7,), True), ((), (7,), False), ((), (), True)]


ZERO_BACKGROUND = "SNR undefined: zero background counts"
ZERO_SINGLES = "g2 undefined: zero singles on a channel"
NONPOSITIVE_SNR_C = "QEF undefined: classical SNR must be positive"


class TestZeroTallies:
    """Each statistic with a zero tally in each position, on scripted draws
    (n_signal, n_herald, n_coinc): target in, target out, then the companion
    g2. A zero numerator takes the one-count variance floor; a zero
    denominator leaves the statistic unformed, with its reason in `error`."""

    CONFIG = validate_config(ExperimentConfig(seed=3, toggle_period_pulses=1000))
    DWELL = 4000  # 2000 pulses per target state, 2000 for the g2
    G2 = (40, 100, 8)

    def row(self, monkeypatch, tally_in, tally_out, tally_g2=G2):
        calls = script_draws(monkeypatch, tally_in, tally_out, tally_g2)
        (row,) = run_sweep(self.CONFIG, "mu", [0.01], self.DWELL).rows
        # target in, target out, then the companion: jamming blocked, target in
        at = dataclasses.replace(
            self.CONFIG, source=dataclasses.replace(self.CONFIG.source, mu=0.01)
        )
        blocked = dataclasses.replace(
            at, channel=dataclasses.replace(at.channel, background_per_bin=0.0)
        )
        states = [(at, True), (at, False), (blocked, True)]
        assert calls == [(patterns_of(c, t), self.DWELL // 2) for c, t in states]
        return row

    def test_zero_in_singles_take_the_floor(self, monkeypatch):
        row = self.row(monkeypatch, (0, 100, 0), (50, 100, 5))
        assert row.snr_classical.value == -1.0
        assert row.snr_classical.std_err == pytest.approx(1 / 50, rel=1e-12)
        # a negative classical SNR is a zero-or-less QEF denominator
        assert row.error == f"QEF: {NONPOSITIVE_SNR_C}"
        assert math.isnan(row.qef) and math.isnan(row.qef_err)

    def test_zero_out_singles_leave_both_snrs_unformed(self, monkeypatch):
        row = self.row(monkeypatch, (50, 100, 5), (0, 100, 0))
        assert row.snr_classical is None and row.snr_quantum is None
        assert row.error == f"classical SNR: {ZERO_BACKGROUND}; quantum SNR: {ZERO_BACKGROUND}"
        assert math.isnan(row.qef) and math.isnan(row.qef_err)
        assert row.g2 is not None

    def test_zero_in_coincidences_take_the_floor(self, monkeypatch):
        row = self.row(monkeypatch, (80, 100, 0), (40, 100, 4))
        assert row.snr_quantum.value == -1.0
        assert row.snr_quantum.std_err == pytest.approx(1 / 4, rel=1e-12)
        assert row.qef == -1.0 and math.isfinite(row.qef_err) and row.error is None

    def test_zero_out_coincidences_leave_the_quantum_snr_unformed(self, monkeypatch):
        row = self.row(monkeypatch, (80, 100, 8), (40, 100, 0))
        assert row.snr_quantum is None and row.snr_classical.value == 1.0
        assert row.error == f"quantum SNR: {ZERO_BACKGROUND}"
        assert math.isnan(row.qef) and math.isnan(row.qef_err)

    def test_zero_quantum_snr_is_a_zero_qef(self, monkeypatch):
        row = self.row(monkeypatch, (80, 100, 4), (40, 100, 4))
        assert row.snr_quantum.value == 0.0 and row.qef == 0.0
        assert row.qef_err == pytest.approx(row.snr_quantum.std_err / 1.0, rel=1e-12)
        assert row.error is None

    def test_zero_classical_snr_leaves_the_qef_unformed(self, monkeypatch):
        row = self.row(monkeypatch, (40, 100, 8), (40, 100, 4))
        assert row.snr_classical.value == 0.0
        assert row.error == f"QEF: {NONPOSITIVE_SNR_C}"
        assert math.isnan(row.qef) and math.isnan(row.qef_err)

    def test_zero_g2_coincidences_take_the_floor(self, monkeypatch):
        row = self.row(monkeypatch, (80, 100, 8), (40, 100, 4), (40, 100, 0))
        # g2 0, and one count's error: n / (N_s N_h) = 2000 / (40 * 100)
        assert row.g2 == Estimate(0.0, 0.5) and row.error is None

    @pytest.mark.parametrize("tally_g2", [(0, 100, 0), (40, 0, 0)])
    def test_zero_g2_singles_leave_g2_unformed(self, monkeypatch, tally_g2):
        row = self.row(monkeypatch, (80, 100, 8), (40, 100, 4), tally_g2)
        assert row.g2 is None and row.error == f"g2: {ZERO_SINGLES}"
        assert math.isfinite(row.qef)

    @pytest.mark.parametrize(
        "estimator, args",
        [
            (snr_from_counts, (5, 0)),
            (qef, (1.0, 0.0)),
            (estimate_g2, (ClickCounts(0, 0, 0, 0),)),
            (estimate_g2, (ClickCounts(10, 5, 0, 0),)),
            (analytic_g2, (SourceParams(mu=0.0, noise_herald_per_bin=0.0), ChannelParams())),
            (expected_snr_classical, (0.5, 0.1, 0.0)),
            (expected_snr_quantum, (0.5, 0.1, 0.2, 0.0)),
            (expected_snr_quantum, (0.5, 0.1, 0.0, 0.2)),
        ],
    )
    def test_every_zero_denominator_raises_undefined_statistic(self, estimator, args):
        with pytest.raises(UndefinedStatistic, match="undefined"):
            estimator(*args)

    def test_an_estimator_fault_is_no_unformed_statistic(self, monkeypatch):
        # only `UndefinedStatistic` leaves a statistic unformed; any other error propagates
        def boom(snr_q, snr_c):
            raise ValueError("boom")

        monkeypatch.setattr(analytics, "qef", boom)
        with pytest.raises(ValueError, match="^boom$"):
            self.row(monkeypatch, (80, 100, 8), (40, 100, 4))

    def test_zero_singles_leave_a_characterize_g2_unformed(self, monkeypatch):
        calls = script_draws(monkeypatch, (40, 100, 0), (0, 100, 0))
        points = run_characterize(self.CONFIG, [0.02, 0.01], 1000)
        bare = dataclasses.replace(self.CONFIG, channel=bare_channel(self.CONFIG.channel))
        at = [
            dataclasses.replace(bare, source=dataclasses.replace(bare.source, mu=mu))
            for mu in (0.01, 0.02)
        ]
        assert calls == [(patterns_of(c, True), 1000) for c in at]
        assert [p[2:] for p in points] == [
            (Estimate(0.0, 0.25), None),
            (None, f"g2: {ZERO_SINGLES}"),
        ]


class TestUndrawablePoints:
    """A value that makes the config invalid stops the run before any draw."""

    CONFIG = TestZeroTallies.CONFIG
    TALLIES = [(40, 100, 8)] * 6

    @pytest.mark.parametrize(
        "variable, values, message",
        [
            ("mu", [0.01, -0.001], "mu -0.001: mu out of range"),
            ("mu", [0.01, 0.02, math.inf], "mu inf: mu out of range"),
            ("background", [1e-3, math.inf], "background inf: background_per_bin out of range"),
        ],
    )
    def test_sweep_checks_every_value_first(self, monkeypatch, variable, values, message):
        calls = script_draws(monkeypatch, *self.TALLIES)
        with pytest.raises(ConfigError) as info:
            run_sweep(self.CONFIG, variable, values, 4000)
        assert str(info.value) == message
        assert calls == []

    @pytest.mark.parametrize(
        "mus, message",
        [([0.01, -0.5], "mu -0.5: mu out of range"), ([0.01, math.nan], "mu nan: mu out of range")],
    )
    def test_characterize_checks_every_mu_first(self, monkeypatch, mus, message):
        calls = script_draws(monkeypatch, *self.TALLIES)
        with pytest.raises(ConfigError) as info:
            run_characterize(self.CONFIG, mus, 1000)
        assert str(info.value) == message
        assert calls == []
