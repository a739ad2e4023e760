import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qisim import cli
from qisim.imaging import scene_to_pgm, two_level_scene
from qisim.model import (
    ChannelParams,
    ExperimentConfig,
    SourceParams,
    paper_default,
    save_config,
    validate_config,
)


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

    @pytest.mark.parametrize("dwell", ["inf", "1e30", "nan"])
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
            ("channel", "dist_m", math.nan),
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

    @settings(max_examples=60, deadline=None, suppress_health_check=[SHARED_TMP_PATH])
    @given(data=st.data())
    def test_bad_values_never_give_a_traceback(self, tmp_path, data):
        # every numeric field of the config file; ints in the file are the integer fields
        raw = json.loads(open_config_text(paper_default()))
        fields = [(None, n, v) for n, v in raw.items() if not isinstance(v, dict)]
        fields += [(sec, n, v) for sec in ("source", "channel") for n, v in raw[sec].items()]
        section, name, default = data.draw(st.sampled_from(fields))
        bad = st.one_of(
            st.text(max_size=5),
            st.booleans(),
            st.lists(st.integers(), max_size=2),
            st.sampled_from([math.nan, math.inf, -math.inf]),
        )
        if name != "herald_nm":  # None means: derive it from the pump and signal
            bad |= st.none()
        if isinstance(default, int):
            bad |= st.floats()
        config = write_config_with(tmp_path / "bad.json", section, name, data.draw(bad))
        assert characterize_with(config, tmp_path / "char.csv") == cli.EXIT_CONFIG


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

    def test_background_values_per_second(self, fast_config_path, tmp_path):
        out = tmp_path / "bg.csv"
        code = run_cli(
            "sweep",
            "--config", fast_config_path,
            "--variable", "background",
            "--values", "5000,20000",
            "--values-per-s",
            "--dwell-s", "0.25",
            "--out", str(out),
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        values = [float(r.split(",")[0]) for r in rows]
        assert values == pytest.approx([5000 / 80e6, 20000 / 80e6])

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
    @pytest.fixture()
    def scene_path(self, tmp_path):
        scene, _ = two_level_scene(8, 8)
        path = tmp_path / "scene.pgm"
        scene_to_pgm(scene, str(path))
        return str(path)

    @pytest.fixture()
    def imaging_config_path(self, tmp_path):
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

    def test_usage_error_on_unknown_command(self):
        assert run_cli("frobnicate") == cli.EXIT_USAGE
