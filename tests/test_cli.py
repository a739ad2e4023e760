import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qisim import analytics, cli, imaging
from qisim.imaging import PixelImage, Scene, contrast, scene_to_pgm, two_level_scene, write_pgm
from qisim.model import (
    ChannelParams,
    ExperimentConfig,
    SourceParams,
    load_config,
    paper_default,
    save_config,
    validate_config,
)

from .conftest import script_draws


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    save_config(paper_default(seed=21), str(path))
    return str(path)


@pytest.fixture()
def fast_config_path(tmp_path):
    # bright channel and short toggles keep CLI runs quick
    cfg = validate_config(
        ExperimentConfig(
            source=SourceParams(mu=5e-3, eta_herald=0.3, noise_herald_per_bin=0.0),
            channel=ChannelParams(
                collection_fraction=0.05,
                eta_transmit=0.9,
                background_per_bin=1e-3,
                dark_signal_per_bin=0.0,
            ),
            seed=33,
            toggle_period_pulses=200_000,
        )
    )
    path = tmp_path / "fast.json"
    save_config(cfg, str(path))
    return str(path)


@pytest.fixture()
def scene_path(tmp_path):
    scene, _ = two_level_scene(8, 8)
    path = tmp_path / "scene.pgm"
    scene_to_pgm(scene, str(path))
    return str(path)


@pytest.fixture()
def imaging_config_path(tmp_path):
    dark = 1.0 / 80e6
    cfg = validate_config(
        ExperimentConfig(
            source=SourceParams(mu=7.9e-3, eta_herald=0.2, noise_herald_per_bin=dark),
            channel=ChannelParams(
                eta_transmit=1.0,
                collection_fraction=2e-5 / 0.6,
                background_per_bin=14000.0 / 80e6,
                dark_signal_per_bin=dark,
            ),
            seed=44,
        )
    )
    path = tmp_path / "imaging.json"
    save_config(cfg, str(path))
    return str(path)


RECIPES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "recipes")

# The examples of one hypothesis test share its tmp_path; each overwrites its files.
SHARED_TMP_PATH = HealthCheck.function_scoped_fixture


def run_cli(*argv) -> int:
    return cli.main(list(argv))


class TestCharacterize:
    def test_g2_strictly_decreasing_in_mu(self, config_path, tmp_path):
        out = tmp_path / "char.csv"
        code = run_cli(
            "characterize",
            "--config", config_path,
            "--mu", "0.001,0.0025,0.005,0.01,0.025",
            "--dwell-s", "0.25",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mu,n_pulses,n_signal,n_herald,n_coinc,g2,g2_err"
        g2s = [float(line.split(",")[5]) for line in lines[1:]]
        assert all(a > b for a, b in zip(g2s, g2s[1:]))

    def test_empty_mu_list_is_usage_error(self, config_path, tmp_path):
        code = run_cli(
            "characterize", "--config", config_path, "--mu", "", "--out", str(tmp_path / "x.csv")
        )
        assert code == cli.EXIT_USAGE

    def test_rerun_is_byte_identical(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert run_cli(
                "characterize",
                "--config", config_path,
                "--mu", "0.005,0.01",
                "--dwell-s", "0.05",
                "--out", str(out),
            ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_negative_mu_is_config_error(self, config_path, tmp_path):
        code = run_cli(
            "characterize",
            "--config", config_path,
            "--mu", "-0.001",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == cli.EXIT_CONFIG

    def test_nan_mu_is_config_error(self, config_path, tmp_path, capsys):
        code = run_cli(
            "characterize",
            "--config", config_path,
            "--mu", "0.01,nan",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == cli.EXIT_CONFIG
        assert "mu out of range" in capsys.readouterr().err

    def test_zero_singles_are_nan_g2_with_the_reason_on_stderr(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        script_draws(monkeypatch, (0, 100, 0), (40, 100, 0))
        out = tmp_path / "x.csv"
        code = run_cli(
            "characterize", "--config", config_path, "--mu", "0.01,0.02",
            "--dwell-s", "0.05", "--out", str(out),
        )
        assert code == 0
        assert out.read_text().splitlines()[1:] == [
            "0.01,4000000,0,100,0,nan,nan",
            "0.02,4000000,40,100,0,0.0,1000.0",
        ]
        assert capsys.readouterr().err == "point 0.01: g2: g2 undefined: zero singles on a channel\n"

    def test_large_mu_with_unit_herald_is_all_coincidences(self, tmp_path):
        # mu eta_sig eta_h above ~709.78 once made the patterns NaN, and
        # numpy's multinomial draw failed on a valid config
        config = write_config_with(tmp_path / "unit.json", "source", "eta_herald", 1.0)
        out = tmp_path / "x.csv"
        code = run_cli(
            "characterize", "--config", config, "--mu", "1200", "--dwell-s", "0.001",
            "--out", str(out),
        )
        assert code == 0
        header, row = out.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        n = int(fields["n_pulses"])
        assert n > 0
        assert [int(fields[k]) for k in ("n_signal", "n_herald", "n_coinc")] == [n, n, n]

    @pytest.mark.parametrize(
        "dwell, code, n_pulses",
        [
            ("0.57", cli.EXIT_OK, 45_600_000),  # rounded; truncation gives 45599999
            ("115292150460.68468", cli.EXIT_OK, 2**63 - 2048),
            ("115292150460.6847", cli.EXIT_USAGE, None),  # 2**63 pulses
        ],
    )
    def test_dwell_seconds_to_pulses(self, config_path, tmp_path, dwell, code, n_pulses):
        out = tmp_path / "x.csv"
        assert run_cli(
            "characterize", "--config", config_path, "--mu", "0.01", "--dwell-s", dwell,
            "--out", str(out),
        ) == code
        if n_pulses is None:
            assert not out.exists()
        else:
            assert out.read_text().splitlines()[1].split(",")[1] == str(n_pulses)

    def test_dwell_is_checked_before_mu(self, config_path, tmp_path, capsys):
        # the order sweep has: the dwell is converted before any point's config is built
        code = run_cli(
            "characterize", "--config", config_path, "--mu", "-0.001", "--dwell-s", "inf",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == cli.EXIT_USAGE
        assert "is not a finite number of seconds" in capsys.readouterr().err

    @pytest.mark.parametrize("dwell", ["inf", "1e30", "nan", "1e301"])
    def test_unusable_dwell_is_usage_error(self, config_path, tmp_path, dwell):
        out = tmp_path / "x.csv"
        code = run_cli(
            "characterize", "--config", config_path, "--mu", "0.01", "--dwell-s", dwell,
            "--out", str(out),
        )
        assert code == cli.EXIT_USAGE
        assert not out.exists()


def write_config_with(path, section, name, value) -> str:
    """paper_default as JSON with one field replaced; section None is the top level."""
    raw = json.loads(open_config_text(paper_default()))
    (raw[section] if section else raw)[name] = value
    path.write_text(json.dumps(raw))
    return str(path)


def characterize_with(config: str, out) -> int:
    return run_cli(
        "characterize", "--config", config, "--mu", "0.01", "--dwell-s", "0.001",
        "--out", str(out),
    )


class TestConfigTypes:
    @pytest.mark.parametrize(
        "section, name, value",
        [
            ("source", "mu", "0.01"),
            ("source", "mu", True),
            ("channel", "bin_width_ps", 2000.5),
            ("channel", "dead_time_ps", 10.5),
            ("channel", "stray_light_per_bin", math.nan),
            (None, "seed", 1.7),
            (None, "n_pulses", True),
        ],
    )
    def test_wrong_type_is_config_error(self, tmp_path, capsys, section, name, value):
        config = write_config_with(tmp_path / "bad.json", section, name, value)
        out = tmp_path / "char.csv"
        assert characterize_with(config, out) == cli.EXIT_CONFIG
        assert name in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "runs.jsonl").exists()

    @pytest.mark.parametrize("name", ["n_pulses", "toggle_period_pulses"])
    def test_pulse_count_beyond_int64_is_config_error(self, tmp_path, capsys, name):
        # without --dwell-s, characterize runs n_pulses pulses per point
        config = write_config_with(tmp_path / "big.json", None, name, 2**64)
        out = tmp_path / "char.csv"
        code = run_cli("characterize", "--config", config, "--mu", "0.01", "--out", str(out))
        assert code == cli.EXIT_CONFIG
        assert f"{name} out of range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, name, message",
        [
            (None, "n_pulse", "unknown key n_pulse"),  # a typo of n_pulses
            ("source", "pump_nm", "unknown key source.pump_nm"),
            ("channel", "dist_m", "unknown key channel.dist_m"),
            (None, "seed", "missing key seed"),
            ("source", "mu", "missing key source.mu"),
            ("channel", "dead_time_ps", "missing key channel.dead_time_ps"),
        ],
    )
    def test_unknown_or_missing_key_is_config_error(
        self, tmp_path, capsys, section, name, message
    ):
        raw = json.loads(open_config_text(paper_default()))
        part = raw[section] if section else raw
        if name in part:
            del part[name]
        else:
            part[name] = 5
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "char.csv"
        assert characterize_with(str(config), out) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: malformed config: {message}\n"
        assert not out.exists()

    def test_duplicate_key_is_config_error(self, tmp_path, capsys):
        text = open_config_text(paper_default(seed=3))
        config = tmp_path / "dup.json"
        config.write_text(text.replace('"seed": 3', '"seed": 3, "seed": 9'))
        out = tmp_path / "char.csv"
        assert characterize_with(str(config), out) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: malformed config: duplicate key seed\n"
        assert not out.exists()

    def test_integer_beyond_the_largest_double_is_out_of_range(self, tmp_path, capsys):
        config = write_config_with(tmp_path / "big.json", "source", "mu", 10**400)
        assert characterize_with(config, tmp_path / "char.csv") == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: mu out of range\n"

    def test_rate_with_an_infinite_pulse_period_is_out_of_range(self, tmp_path, capsys):
        config = write_config_with(tmp_path / "slow.json", "source", "rep_rate_hz", 1e-300)
        assert characterize_with(config, tmp_path / "char.csv") == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: rep_rate_hz out of range\n"

    def test_config_file_with_dropped_fields_names_them(self, tmp_path, capsys):
        # paper_default as save_config wrote it while the config carried the
        # wavelengths and the collection geometry
        raw = json.loads(open_config_text(paper_default()))
        raw["source"].update(pump_nm=793.0, signal_nm=671.0, herald_nm=969.2222222222223)
        raw["channel"].update(d_m=0.03, dist_m=0.32)
        config = tmp_path / "old.json"
        config.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
        assert characterize_with(str(config), tmp_path / "char.csv") == cli.EXIT_CONFIG
        assert "source.pump_nm" in capsys.readouterr().err

    @settings(max_examples=60, deadline=None, suppress_health_check=[SHARED_TMP_PATH])
    @given(data=st.data())
    def test_bad_values_never_give_a_traceback(self, tmp_path, data):
        # every numeric field of the config file; ints in the file are the integer fields
        raw = json.loads(open_config_text(paper_default()))
        fields = [(None, n, v) for n, v in raw.items() if not isinstance(v, dict)]
        fields += [(sec, n, v) for sec in ("source", "channel") for n, v in raw[sec].items()]
        section, name, default = data.draw(st.sampled_from(fields))
        bad = st.one_of(
            st.none(),
            st.text(max_size=5),
            st.booleans(),
            st.lists(st.integers(), max_size=2),
            st.sampled_from([math.nan, math.inf, -math.inf]),
        )
        if isinstance(default, int):
            bad |= st.floats()
        config = write_config_with(tmp_path / "bad.json", section, name, data.draw(bad))
        assert characterize_with(config, tmp_path / "char.csv") == cli.EXIT_CONFIG


class TestDeadTime:
    # The commands draw from the closed form, which has no dead time, so a
    # config with one is refused before anything is drawn or written.
    @pytest.mark.parametrize("command", ["characterize", "sweep", "image"])
    def test_dead_time_is_config_error(self, command, scene_path, tmp_path, capsys):
        config = write_config_with(tmp_path / "dead.json", "channel", "dead_time_ps", 1)
        out = tmp_path / "out"
        out.mkdir()
        own = {
            "characterize": ["--mu", "0.01", "--out", str(out / "char.csv")],
            "sweep": ["--variable", "mu", "--values", "0.01", "--out", str(out / "sweep.csv")],
            "image": ["--scene", scene_path, "--out-prefix", str(out / "img")],
        }[command]
        assert run_cli(command, "--config", config, *own) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: channel.dead_time_ps is 1, but the commands have no model of"
            " dead time; set it to 0\n"
        )
        assert not any(out.iterdir())


class TestSweep:
    def test_writes_pinned_columns(self, fast_config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep",
            "--config", fast_config_path,
            "--variable", "mu",
            "--values", "0.005,0.01,0.02",
            "--dwell-s", "0.25",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "value,n_in_singles,n_out_singles,n_in_coinc,n_out_coinc,"
            "snr_c,snr_c_err,snr_q,snr_q_err,qef,g2,g2_err"
        )
        assert len(lines) == 4

    @pytest.mark.parametrize("rep_rate_hz", [80e6, 40e6])
    def test_background_values_per_second(self, fast_config_path, tmp_path, rep_rate_hz):
        # counts/s over the config's own pulse rate, not over a fixed 80 MHz
        fast = load_config(fast_config_path)
        config = tmp_path / "rate.json"
        save_config(
            dataclasses.replace(
                fast, source=dataclasses.replace(fast.source, rep_rate_hz=rep_rate_hz)
            ),
            str(config),
        )
        out = tmp_path / "bg.csv"
        code = run_cli(
            "sweep",
            "--config", str(config),
            "--variable", "background",
            "--values", "5000,20000",
            "--values-per-s",
            "--dwell-s", "0.25",
            "--out", str(out),
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        values = [float(r.split(",")[0]) for r in rows]
        assert values == pytest.approx([5000 / rep_rate_hz, 20000 / rep_rate_hz])

    def test_missing_config_file_is_io_error(self, tmp_path):
        code = run_cli(
            "sweep",
            "--config", str(tmp_path / "nope.json"),
            "--variable", "mu",
            "--values", "0.01",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == cli.EXIT_IO

    def test_invalid_config_reports_field(self, tmp_path, capsys):
        # a config file with a negative mu
        path = tmp_path / "bad.json"
        raw = json.loads(open_config_text(paper_default()))
        raw["source"]["mu"] = -0.5
        path.write_text(json.dumps(raw))
        code = run_cli(
            "sweep",
            "--config", str(path),
            "--variable", "mu",
            "--values", "0.01",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == cli.EXIT_CONFIG
        assert "mu out of range" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "variable, value, field",
        [
            ("mu", "-0.001", "mu"),
            ("background", "-0.001", "background_per_bin"),
            ("mu", "1e400", "mu"),
            ("background", "1e400", "background_per_bin"),
        ],
    )
    def test_invalid_row_value_names_the_field(
        self, fast_config_path, tmp_path, capsys, variable, value, field
    ):
        out = tmp_path / "s.csv"
        code = run_cli(
            "sweep",
            "--config", fast_config_path,
            "--variable", variable,
            "--values", value,
            "--dwell-s", "0.25",
            "--out", str(out),
        )
        assert code == cli.EXIT_CONFIG
        row_value = repr(float(value))
        err = capsys.readouterr().err
        assert err == f"config error: {variable} {row_value}: {field} out of range\n"
        assert not out.exists() and not (tmp_path / "runs.jsonl").exists()

    @pytest.mark.parametrize("command", ["sweep", "characterize"])
    @pytest.mark.parametrize("values", ["0.005,-0.001", "0.005,0.01,1e400"])
    def test_invalid_value_anywhere_exits_before_any_draw(
        self, fast_config_path, tmp_path, capsys, monkeypatch, command, values
    ):
        # both commands: one message shape, no draw, no CSV, no ledger line
        calls = script_draws(monkeypatch, *[(40, 100, 8)] * 9)
        out = tmp_path / "s.csv"
        values_flag = ["--variable", "mu", "--values"] if command == "sweep" else ["--mu"]
        code = run_cli(
            command, "--config", fast_config_path, *values_flag, values,
            "--dwell-s", "0.25", "--out", str(out),
        )
        assert code == cli.EXIT_CONFIG
        bad = repr(float(values.split(",")[-1]))
        assert capsys.readouterr().err == f"config error: mu {bad}: mu out of range\n"
        assert calls == []
        assert not out.exists() and not (tmp_path / "runs.jsonl").exists()

    @pytest.mark.parametrize(
        "dwell, nearest", [("3", "2.0 s or 4.0 s"), ("1", "2.0 s"), ("5.5", "4.0 s or 6.0 s")]
    )
    def test_dwell_of_part_of_a_toggle_pair_is_usage_error(
        self, config_path, tmp_path, capsys, monkeypatch, dwell, nearest
    ):
        # paper_default toggles every second: each in/out pair is 2 s
        calls = script_draws(monkeypatch, *[(40, 100, 8)] * 3)
        out = tmp_path / "s.csv"
        code = run_cli(
            "sweep", "--config", config_path, "--variable", "mu", "--values", "0.005",
            "--dwell-s", dwell, "--out", str(out),
        )
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: sweep dwell {float(dwell)!r} s is not a whole number of target"
            f" in/out toggle pairs of 2.0 s; nearest accepted: {nearest}\n"
        )
        assert calls == []
        assert not out.exists() and not (tmp_path / "runs.jsonl").exists()

    def test_default_dwell_is_one_toggle_pair(self, tmp_path):
        # the recipe's n_pulses is one 1 s toggle period, half a pair
        out = tmp_path / "s.csv"
        code = run_cli(
            "sweep", "--config", os.path.join(RECIPES, "paper_jammed_10kcps.json"),
            "--variable", "mu", "--values", "1e-3", "--out", str(out),
        )
        assert code == 0
        (line,) = (tmp_path / "runs.jsonl").read_text().splitlines()
        assert json.loads(line)["summary"]["dwell_pulses"] == 160_000_000
        assert out.read_text().splitlines()[1].split(",")[1:3] != ["0", "0"]

    def test_default_dwell_past_int64_is_usage_error(self, tmp_path, capsys):
        cfg = validate_config(ExperimentConfig(toggle_period_pulses=2**62))
        path = tmp_path / "long.json"
        save_config(cfg, str(path))
        out = tmp_path / "s.csv"
        code = run_cli(
            "sweep", "--config", str(path), "--variable", "mu", "--values", "1e-3",
            "--out", str(out),
        )
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "usage error: dwell too long: more than 2**63 - 1 pulses\n"
        assert not out.exists() and not (tmp_path / "runs.jsonl").exists()

    def test_rows_with_counts_but_no_quantum_snr_are_not_failed(self, tmp_path, capsys):
        # the dark-box recipe on a short grid: no row has a target-out coincidence
        config = os.path.join(RECIPES, "paper_default.json")
        out = tmp_path / "dark.csv"
        code = run_cli(
            "sweep", "--config", config, "--seed", "1", "--variable", "mu",
            "--values", "1e-3,2.5e-3,5e-3", "--dwell-s", "2", "--out", str(out),
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == f"wrote {out} (3 rows)\n"
        assert captured.err.splitlines() == [
            f"row {v}: quantum SNR: SNR undefined: zero background counts"
            for v in ("0.001", "0.0025", "0.005")
        ]
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[4] for row in rows] == ["0", "0", "0"]  # n_out_coinc
        assert all(row[7:10] == ["nan"] * 3 for row in rows)  # snr_q, snr_q_err, qef
        (line,) = (tmp_path / "runs.jsonl").read_text().splitlines()
        assert json.loads(line)["summary"] == {
            "variable": "mu", "rows": 3, "dwell_pulses": 160_000_000,
        }

    def test_zero_denominators_are_nan_with_reasons_on_stderr(
        self, fast_config_path, tmp_path, capsys, monkeypatch
    ):
        # scripted tallies (n_signal, n_herald, n_coinc): in, out, companion g2
        script_draws(monkeypatch, (50, 100, 5), (0, 100, 0), (0, 100, 0))
        out = tmp_path / "s.csv"
        code = run_cli(
            "sweep", "--config", fast_config_path, "--variable", "mu", "--values", "0.005",
            "--dwell-s", "0.25", "--out", str(out),
        )
        assert code == 0
        assert out.read_text().splitlines()[1] == "0.005,50,0,5,0," + ",".join(["nan"] * 7)
        assert capsys.readouterr().err == (
            "row 0.005: classical SNR: SNR undefined: zero background counts; "
            "quantum SNR: SNR undefined: zero background counts; "
            "g2: g2 undefined: zero singles on a channel\n"
        )

    def test_a_fault_in_an_estimator_fails_the_run(
        self, fast_config_path, tmp_path, capsys, monkeypatch
    ):
        # only an undefined statistic is written as nan; any other error is no result
        def boom(snr_q, snr_c):
            raise ValueError("boom")

        monkeypatch.setattr(analytics, "qef", boom)
        script_draws(monkeypatch, (80, 100, 8), (40, 100, 4), (40, 100, 8))
        out = tmp_path / "s.csv"
        code = run_cli(
            "sweep", "--config", fast_config_path, "--variable", "mu", "--values", "0.005",
            "--dwell-s", "0.25", "--out", str(out),
        )
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "input error: boom\n"
        assert not out.exists() and not (tmp_path / "runs.jsonl").exists()

    def test_no_config_anywhere_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
        code = run_cli(
            "sweep", "--variable", "mu", "--values", "0.01", "--out", str(tmp_path / "s.csv")
        )
        assert code == cli.EXIT_USAGE

    def test_config_from_environment(self, fast_config_path, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, fast_config_path)
        code = run_cli(
            "sweep",
            "--variable", "mu",
            "--values", "0.005",
            "--dwell-s", "0.25",
            "--out", str(tmp_path / "env.csv"),
        )
        assert code == 0


def open_config_text(cfg) -> str:
    from qisim.model import dumps_config

    return dumps_config(cfg)


class TestImage:
    def test_writes_images_and_flips_contrast(
        self, imaging_config_path, scene_path, tmp_path, capsys
    ):
        prefix = str(tmp_path / "img")
        code = run_cli(
            "image",
            "--config", imaging_config_path,
            "--scene", scene_path,
            "--dwell-s", "10",
            "--out-prefix", prefix,
            "--smooth",
        )
        assert code == 0
        for suffix in ("_ci.pgm", "_ci.csv", "_qi.pgm", "_qi.csv", "_ci_smooth.pgm"):
            assert os.path.exists(prefix + suffix)
        out = capsys.readouterr().out
        summary = {}
        for token in out.split():
            if "=" in token:
                key, _, value = token.partition("=")
                summary[key] = value
        assert float(summary["qi_contrast"]) > float(summary["ci_contrast"])

    def test_level_exactly_midway_is_background(self, imaging_config_path, tmp_path):
        # levels 0, 0.5 and 1: only the brightest row is foreground
        scene = tmp_path / "three.pgm"
        scene.write_text("P2\n4 3\n2\n0 0 0 0\n1 1 1 1\n2 2 2 2\n")
        prefix = str(tmp_path / "img")
        code = run_cli(
            "image",
            "--config", imaging_config_path,
            "--scene", str(scene),
            "--dwell-s", "1",
            "--out-prefix", prefix,
        )
        assert code == 0
        mask = np.array([[False] * 4, [False] * 4, [True] * 4])
        summary = json.loads((tmp_path / "runs.jsonl").read_text())["summary"]
        for tag in ("ci", "qi"):
            grid = np.loadtxt(f"{prefix}_{tag}.csv", delimiter=",")
            assert summary[f"{tag}_contrast"] == contrast(PixelImage(grid), mask)

    @pytest.mark.parametrize("width, height", [(3, 1), (1, 3)])
    def test_smooth_on_a_thin_scene_is_input_error_and_writes_nothing(
        self, imaging_config_path, tmp_path, capsys, width, height
    ):
        scene = tmp_path / "thin.pgm"
        scene.write_text(f"P2\n{width} {height}\n1\n0 1 0\n")
        code = run_cli(
            "image", "--config", imaging_config_path, "--scene", str(scene),
            "--dwell-s", "1", "--out-prefix", str(tmp_path / "img"), "--smooth",
        )
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"input error: image of {height} x {width} pixels too small to interpolate:"
            " needs 2 x 2\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["imaging.json", "thin.pgm"]

    @pytest.mark.parametrize("blocked", ["img_qi.csv", "img_qi_smooth.pgm", "runs.jsonl"])
    def test_a_directory_at_an_output_or_the_ledger_leaves_nothing(
        self, imaging_config_path, scene_path, tmp_path, capsys, blocked
    ):
        (tmp_path / blocked).mkdir()
        code = run_cli(
            "image", "--config", imaging_config_path, "--scene", scene_path,
            "--dwell-s", "1", "--out-prefix", str(tmp_path / "img"), "--smooth",
        )
        assert code == cli.EXIT_IO
        out, err = capsys.readouterr()
        assert out == "" and err == f"io error: [Errno 21] Is a directory: '{tmp_path / blocked}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["imaging.json", "scene.pgm", blocked]
        )
        assert not any((tmp_path / blocked).iterdir())

    def test_a_failed_write_leaves_nothing(
        self, imaging_config_path, scene_path, tmp_path, capsys, monkeypatch
    ):
        # the third file fails half written, after two others are complete
        calls, write_pgm = [], imaging.write_pgm

        def failing(image, path):
            calls.append(path)
            write_pgm(image, path)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(imaging, "write_pgm", failing)
        code = run_cli(
            "image", "--config", imaging_config_path, "--scene", scene_path,
            "--dwell-s", "1", "--out-prefix", str(tmp_path / "img"), "--smooth",
        )
        assert code == cli.EXIT_IO
        assert capsys.readouterr() == ("", "io error: [Errno 28] No space left on device\n")
        assert [os.path.dirname(p) for p in calls] == [str(tmp_path)] * 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["imaging.json", "scene.pgm"]

    def test_missing_scene_is_io_error(self, imaging_config_path, tmp_path):
        code = run_cli(
            "image",
            "--config", imaging_config_path,
            "--scene", str(tmp_path / "missing.pgm"),
            "--out-prefix", str(tmp_path / "img"),
        )
        assert code == cli.EXIT_IO

    def test_malformed_scene_reports_bad_scene(
        self, imaging_config_path, tmp_path, capsys
    ):
        bad = tmp_path / "bad.pgm"
        bad.write_text("P5\n2 2\n255\nxx\n")
        code = run_cli(
            "image",
            "--config", imaging_config_path,
            "--scene", str(bad),
            "--out-prefix", str(tmp_path / "img"),
        )
        assert code == cli.EXIT_CONFIG
        assert "bad scene" in capsys.readouterr().err

    def test_short_scene_is_input_error(self, imaging_config_path, tmp_path, capsys):
        # a fault of the scene file, not of the config
        bad = tmp_path / "short.pgm"
        bad.write_text("P2\n2 2\n255\n0 255 0\n")
        code = run_cli(
            "image",
            "--config", imaging_config_path,
            "--scene", str(bad),
            "--out-prefix", str(tmp_path / "img"),
        )
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "input error: bad scene: sample count does not match dimensions\n"
        )


class TestRunLedger:
    def test_append_only(self, fast_config_path, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = [
            "sweep",
            "--config", fast_config_path,
            "--variable", "mu",
            "--values", "0.005",
            "--dwell-s", "0.25",
            "--out", str(out),
        ]
        assert run_cli(*argv) == 0
        ledger = tmp_path / "runs.jsonl"
        first = ledger.read_text().splitlines()
        assert len(first) == 1
        assert run_cli(*argv) == 0
        second = ledger.read_text().splitlines()
        assert len(second) == 2
        assert second[0] == first[0]
        record = json.loads(second[1])
        assert record["command"] == "sweep"
        assert record["seed"] == 33
        assert len(record["config_digest"]) == 64

    def test_sweep_summary_holds_the_dwell(self, fast_config_path, tmp_path):
        argv = ["--config", fast_config_path, "--dwell-s", "0.25", "--out", str(tmp_path / "s.csv")]
        assert run_cli("sweep", *argv, "--variable", "background", "--values", "1e-3,2e-3") == 0
        (line,) = (tmp_path / "runs.jsonl").read_text().splitlines()
        summary = json.loads(line)["summary"]
        assert summary == {"variable": "background", "rows": 2, "dwell_pulses": 20_000_000}

    def test_usage_error_on_unknown_command(self):
        assert run_cli("frobnicate") == cli.EXIT_USAGE

    def test_infinite_contrast_is_null_in_the_ledger(self, imaging_config_path, tmp_path, capsys):
        # one pixel per class: both classes have zero variance. The
        # foreground adds ~12.6 singles/s to a ~14,001/s background, so at
        # 1e5 s per pixel it wins by ~24 sigma; at 1 s either pixel may win.
        scene = tmp_path / "pair.pgm"
        scene_to_pgm(Scene(np.array([[0.0, 1.0]])), str(scene))
        code = run_cli(
            "image",
            "--config", imaging_config_path,
            "--scene", str(scene),
            "--dwell-s", "100000",
            "--out-prefix", str(tmp_path / "img"),
        )
        assert code == 0
        assert "ci_contrast=inf " in capsys.readouterr().out

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        lines = (tmp_path / "runs.jsonl").read_text().splitlines()
        records = [json.loads(line, parse_constant=reject) for line in lines]
        assert len(records) == 1
        assert records[0]["summary"]["ci_contrast"] is None

    def test_ledger_refuses_non_finite_values(self, tmp_path):
        ledger = tmp_path / "runs.jsonl"
        ledger.write_text('{"earlier": "record"}\n')
        writes = [(write_pgm, PixelImage(np.ones((2, 2))), str(tmp_path / "img_ci.pgm"))]
        with pytest.raises(ValueError):
            cli._record_run(paper_default(), "image", writes, {"qi_contrast": math.nan})
        assert ledger.read_text() == '{"earlier": "record"}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.jsonl"]

    def test_outputs_are_created_as_open_creates_them(self, fast_config_path, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["--config", fast_config_path, "--dwell-s", "0.25", "--out", str(out)]
        assert run_cli("sweep", *argv, "--variable", "mu", "--values", "1e-3") == 0
        umask = os.umask(0o022)
        os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask


# The front end's texts at 80 columns (argparse wraps help at the terminal
# width, which it reads from COLUMNS), as Python 3.11's argparse words them.
USAGE = {
    None: "usage: qisim [-h] {characterize,sweep,image} ...\n",
    "characterize": (
        "usage: qisim characterize [-h] [--config CONFIG] [--seed SEED]\n"
        "                          [--dwell-s DWELL_S] [--threads THREADS] --mu MU\n"
        "                          --out OUT\n"
    ),
    "sweep": (
        "usage: qisim sweep [-h] [--config CONFIG] [--seed SEED] [--dwell-s DWELL_S]\n"
        "                   [--threads THREADS] --variable {mu,background} --values\n"
        "                   VALUES [--values-per-s] --out OUT\n"
    ),
    "image": (
        "usage: qisim image [-h] [--config CONFIG] [--seed SEED] [--dwell-s DWELL_S]\n"
        "                   [--threads THREADS] --scene SCENE --out-prefix OUT_PREFIX\n"
        "                   [--smooth]\n"
    ),
}
COMMON_HELP = (
    "  --config CONFIG       config JSON path (default $QISIM_CONFIG)\n"
    "  --seed SEED           override the config seed\n"
    "  --dwell-s DWELL_S     seconds per point, sweep point or pixel (default:\n"
    "                        config n_pulses; for sweep, one target in/out toggle\n"
    "                        pair)\n"
    "  --threads THREADS     accepted for compatibility; has no effect (every run\n"
    "                        is one process)\n"
)
HELP = {
    None: USAGE[None] + (
        "\n"
        "Photon-pair standoff detection simulator and analytics.\n"
        "\n"
        "positional arguments:\n"
        "  {characterize,sweep,image}\n"
        "    characterize        source counts and correlation vs mu\n"
        "    sweep               toggled target in/out sweep\n"
        "    image               raster-scan a PGM reflectivity scene\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    "characterize": USAGE["characterize"] + (
        "\n"
        "options:\n"
        "  -h, --help         show this help message and exit\n"
        "  --config CONFIG    config JSON path (default $QISIM_CONFIG)\n"
        "  --seed SEED        override the config seed\n"
        "  --dwell-s DWELL_S  seconds per point, sweep point or pixel (default: config\n"
        "                     n_pulses; for sweep, one target in/out toggle pair)\n"
        "  --threads THREADS  accepted for compatibility; has no effect (every run is\n"
        "                     one process)\n"
        "  --mu MU            comma-separated mean photon numbers\n"
        "  --out OUT          output CSV path\n"
    ),
    "sweep": USAGE["sweep"] + (
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ) + COMMON_HELP + (
        "  --variable {mu,background}\n"
        "  --values VALUES       comma-separated sweep values\n"
        "  --values-per-s        interpret background values as counts/s instead of per\n"
        "                        bin\n"
        "  --out OUT             output CSV path\n"
    ),
    "image": USAGE["image"] + (
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ) + COMMON_HELP + (
        "  --scene SCENE         scene PGM (P2) path\n"
        "  --out-prefix OUT_PREFIX\n"
        "                        output path prefix\n"
        "  --smooth              also write 2x upsampled PGMs\n"
    ),
}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="texts as Python 3.11's argparse words them"
)
class TestFrontEnd:
    """Help, usage and parse errors, byte for byte, with their exit codes.
    Only the command that runs has its options declared, so these pin that
    no text shows which."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("command", [None, "characterize", "sweep", "image"])
    def test_help(self, command, capsys):
        argv = ["-h"] if command is None else [command, "-h"]
        assert run_cli(*argv) == cli.EXIT_OK
        assert capsys.readouterr() == (HELP[command], "")

    @pytest.mark.parametrize(
        "argv, usage, error",
        [
            ([], None, "the following arguments are required: command"),
            (
                ["swep"], None,
                "argument command: invalid choice: 'swep'"
                " (choose from 'characterize', 'sweep', 'image')",
            ),
            (
                ["sweep", "--mu", "1"], "sweep",
                "the following arguments are required: --variable, --values, --out",
            ),
            (
                ["--config", "x", "sweep"], None,
                "argument command: invalid choice: 'x'"
                " (choose from 'characterize', 'sweep', 'image')",
            ),
            (
                ["image", "--scene", "s.pgm"], "image",
                "the following arguments are required: --out-prefix",
            ),
            # an option before the command: argparse still runs the
            # command's parser, which must know its options
            (
                ["--seed=3", "sweep", "--variable", "mu", "--values", "1", "--out", "o.csv"],
                None, "unrecognized arguments: --seed=3",
            ),
        ],
    )
    def test_usage_errors(self, argv, usage, error, capsys):
        assert run_cli(*argv) == cli.EXIT_USAGE
        prog = "qisim" if usage is None else f"qisim {usage}"
        assert capsys.readouterr() == ("", f"{USAGE[usage]}{prog}: error: {error}\n")


def test_golden_output_digests(
    config_path, fast_config_path, imaging_config_path, scene_path, tmp_path
):
    """SHA-256 of every file the three commands leave, taken with numpy 2.4.6.

    The config and scene inputs are written by `save_config` and
    `scene_to_pgm`, so they are pinned too. Only the run ledger, which holds
    timestamps, is left out. Any change to what the commands compute or how
    they format it changes these bytes; such a change must say so and
    update the digests here.
    """
    out = tmp_path / "out"
    out.mkdir()
    argvs = [
        ["characterize", "--config", config_path, "--mu", "0.001,0.01",
         "--dwell-s", "0.05", "--out", str(out / "char.csv")],
        ["sweep", "--config", fast_config_path, "--variable", "mu",
         "--values", "0.005,0.01", "--dwell-s", "0.25", "--out", str(out / "mu.csv")],
        ["sweep", "--config", fast_config_path, "--variable", "background",
         "--values", "5000,20000", "--values-per-s", "--dwell-s", "0.25",
         "--out", str(out / "bg.csv")],
        ["image", "--config", imaging_config_path, "--scene", scene_path,
         "--dwell-s", "1", "--out-prefix", str(out / "img"), "--smooth"],
    ]
    for argv in argvs:
        assert run_cli(*argv) == 0
    files = sorted(p for p in (*tmp_path.iterdir(), *out.iterdir()) if p.is_file())
    digests = {
        str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files
        if p.name != "runs.jsonl"
    }
    assert digests == {
        "config.json": "d9d0f3f96cb7d93cc7c027df026ce0bf72ed6e894f4315d4f9f2da4b50732d52",
        "fast.json": "4dfbc7342d2cd04638aba6e2fa2db0276f022fd1b2a83d2c80f6fe1359d7619d",
        "imaging.json": "415994f764781daec1903e47dfd9e422af79920481ebc658bf019bff5d0f18ee",
        "scene.pgm": "3bf6b1be334521bc30aef4729c7a9f012c9eb755519982531a4cdf84eb026f62",
        "out/char.csv": "2deb70dfa52003b357d4a1b720e6a8b30217c20be802cb56d7a95778c4ac3438",
        "out/mu.csv": "3cdb9475c16b2091497d3b2ff4d6b4f599932ca0a3ca233e29d89239c7fd3710",
        "out/bg.csv": "8c058144213fd24dff7ec2d41bf6c45469ae7845ac3d9a88737db76f54d9c8d9",
        "out/img_ci.pgm": "c7365073c2b1f993c8d73480eba7ef749f281da1ec574731d8b7e4164ee28038",
        "out/img_ci.csv": "834b7811ff5ca777867577e7d4625737546f13ab2309228d2ded8c9e7d1aa7ec",
        "out/img_ci_smooth.pgm": "a8fdf9b2d79aeb2f1ece2851e05fb147583e4277be50bc259972a14aae627140",
        "out/img_qi.pgm": "3c10914e6b3284b49067ed770c1b4c535812f83a71ca4e0706ace551615881ad",
        "out/img_qi.csv": "411d0b8bfae495a3bee83fef321f275c92c061a440f33f480e267cbb54c82aeb",
        "out/img_qi_smooth.pgm": "5134ae22e8924d4dd4ee2843c01666d89e1ea17a70b4586de5ef37c374f4fed0",
    }
