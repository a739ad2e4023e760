import hashlib
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

    @pytest.mark.parametrize("name", ["n_pulses", "toggle_period_pulses"])
    def test_pulse_count_beyond_int64_is_config_error(self, tmp_path, capsys, name):
        # without --dwell-s, characterize runs n_pulses pulses per point
        config = write_config_with(tmp_path / "big.json", None, name, 2**64)
        out = tmp_path / "char.csv"
        code = run_cli("characterize", "--config", config, "--mu", "0.01", "--out", str(out))
        assert code == cli.EXIT_CONFIG
        assert f"{name} out of range" in capsys.readouterr().err
        assert not out.exists()

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
        assert f"row {row_value} failed: {field} out of range\n" in capsys.readouterr().err
        assert out.read_text().splitlines()[1] == ",".join([row_value] + ["nan"] * 11)

    @pytest.mark.filterwarnings("error")
    def test_invalid_row_leaves_other_rows(self, fast_config_path, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run_cli(
            "sweep",
            "--config", fast_config_path,
            "--variable", "mu",
            "--values", "0.005,-0.001",
            "--dwell-s", "0.25",
            "--out", str(out),
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == "row -0.001 failed: mu out of range\n"
        assert "(1/2 rows ok)" in captured.out
        rows = out.read_text().splitlines()[1:]
        assert rows[0] == ",".join(["-0.001"] + ["nan"] * 11)
        assert rows[1].startswith("0.005,") and "nan" not in rows[1]

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
        "config.json": "b00755769ff5ff84aeabd7f1a6c95b2caa128952ef2fafbc7b02ee59d8d1e2d8",
        "fast.json": "3c791d5b863d0b43a8090b5da52438475dd79db9c96bb829bfb576b8d8d60a0a",
        "imaging.json": "b100d4bf0d9ac1752c591d25d5dcfcb504f5b425989aaf5dd32bee4766a28818",
        "scene.pgm": "3bf6b1be334521bc30aef4729c7a9f012c9eb755519982531a4cdf84eb026f62",
        "out/char.csv": "c4c83784dc21e421928da93824eda47968ca79c9c3dbec68d77921526dfdfc56",
        "out/mu.csv": "3f386747049fbf27a3abb37bc686758a954e0e6924e99ca71888f6222f607ea0",
        "out/bg.csv": "00d0e1347871b0a89bf084ee07258b2aea0970b9185dcf3dc2ec353fc0ea8536",
        "out/img_ci.pgm": "7318d8ac095d673a8401555bda09c85c4d3a045ad1d0a4ad659a373334a9dba2",
        "out/img_ci.csv": "854668493fbcba1eb2bd16c090eedaac6a91e347264a0d9c3cde605c64daf00d",
        "out/img_ci_smooth.pgm": "c1285a07e4d9e548a56df21abb73f4171880a5fc37c4d70dea6d782fded3dfce",
        "out/img_qi.pgm": "9c9ea1fbe6ffa60d4c3460f84d91e576104afb5b6d2a41f7ec01afe4527be41b",
        "out/img_qi.csv": "93cd69c2729a64a282f475720ca915173f3cb5448b6106dae297be4e4ff5b4dc",
        "out/img_qi_smooth.pgm": "d935b2356596bd2667d0be7b9e7d67fc520b17d37f3e6d06ca9d2207c5c006a3",
    }
