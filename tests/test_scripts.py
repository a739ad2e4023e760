"""The paper's figures: each command of the README's "Paper figures"
section, run through `cli.main` on the committed inputs in recipes/ at a
short dwell; a smoke test of the one driver left in scripts/; and the
data of the hand mutants that scripts/run_mutants.py applies."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qisim import cli
from qisim.imaging import scene_to_pgm, two_level_scene
from qisim.model import ChannelParams, ExperimentConfig, SourceParams, paper_default, save_config

ROOT = Path(__file__).resolve().parent.parent


def image_recipe(config: str, seed: str, dwell_s: str, prefix: str) -> list[str]:
    return [
        "image", "--config", f"recipes/{config}", "--scene", "recipes/two_level_16.pgm",
        "--smooth", "--seed", seed, "--dwell-s", dwell_s, "--out-prefix", prefix,
    ]


# The README's commands with a short dwell, and the SHA-256 of every file
# each writes but the run ledger, which holds timestamps. The jamming CSV
# and the twelve PGMs are the bytes that the driver scripts these commands
# replaced wrote at the same seed and dwell.
RECIPES = {
    "jamming": (
        ["sweep", "--config", "recipes/paper_default.json", "--seed", "2",
         "--variable", "background", "--values", "2e3,5e3,1e4,2e4,5e4,1e5,2e5",
         "--values-per-s", "--dwell-s", "3", "--out", "jamming.csv"],
        {"jamming.csv": "313d8438797ba64e673a7f7a189cc8f69588df06b1553def989c6a816ec037d9"},
    ),
    "dark_box": (
        ["sweep", "--config", "recipes/paper_default.json", "--seed", "1",
         "--variable", "mu", "--values", "1e-3,2.5e-3,5e-3,7.5e-3,1e-2,1.5e-2,2e-2,2.5e-2",
         "--dwell-s", "2", "--out", "dark_box.csv"],
        {"dark_box.csv": "d49a4299f0679f259dfb55266f303b3a027feeb313107445ba0763d5a9a829f0"},
    ),
    "quiet": (
        image_recipe("imaging_quiet.json", "4", "1", "quiet"),
        {
            "quiet_ci.pgm": "64a654f92f63f114838f497131b09c3b6b792c1c2a4bc6026dc2c864b65077b7",
            "quiet_ci_smooth.pgm": "985ab39fe4a9894bb975c959ab4959dd3b904c343bebc943a119c709049becf8",
            "quiet_qi.pgm": "60816903a84930d7249523b1d65568514ce68582295092a7ca0de2b6e53a93dd",
            "quiet_qi_smooth.pgm": "37482cd948720cbae1121caf2236ff8f937fde903e966767ea0f25b42c521e24",
            "quiet_ci.csv": "f9ba3bef74052872d020ab7fb5bc05c8e808be459b5d6e88b5d6d56da012a5d4",
            "quiet_qi.csv": "97fef5809a180a8599ca8d780bf49cf29c2818b7d767f2b3755abd9c5e172633",
        },
    ),
    "jammed": (
        image_recipe("imaging_jammed.json", "5", "1", "jammed"),
        {
            "jammed_ci.pgm": "d81d1055d91f8cccbbb9d9f21d8056c1807fb119ca2c09ae0265f17475271725",
            "jammed_ci_smooth.pgm": "aeb15f94ad30deedb3416a448b9fb9073895c6f94064010544c8c1594075b255",
            "jammed_qi.pgm": "a1c190a158c8fdd708a03dbb99f50ce554667da80a36dc42fa5026d93a688760",
            "jammed_qi_smooth.pgm": "bbce04f8175766c306bf5e4459a85fb479385e2067b53a4b12c30af6ea1a29df",
            "jammed_ci.csv": "82d31fa2fcf50420fac42636522b939e7c72c3d89ccb35d6448cdf2b27ebaeba",
            "jammed_qi.csv": "6d1e6e1cd43fff5a3fb800c6a5bcc137e293a60e0e58b5e836de9d895147c3c6",
        },
    ),
    "jammed_6x": (
        image_recipe("imaging_jammed.json", "6", "6", "jammed_6x"),
        {
            "jammed_6x_ci.pgm": "c9f161c3ad52664f0e3501247f808a9d58289ec2e1d03da64825c09bd9254d37",
            "jammed_6x_ci_smooth.pgm": "1dd95533995988e602de2661daba806a4a1b120efaf4077866efe26e3cb24838",
            "jammed_6x_qi.pgm": "68ac05aaad5ac3ccacd49b52fea9409a38d58f97be9ed2d1bd71f7f91686b403",
            "jammed_6x_qi_smooth.pgm": "9095b9eec793eba2a8e75cc3a885e1132c05a07dd10dba1145cf4dae1c59dd93",
            "jammed_6x_ci.csv": "d3f401e0ba9c5bf13a47a16c9eac1e296e824721dee20cbf4a2d82c6c8bfe692",
            "jammed_6x_qi.csv": "b6ede109c0105e146bba4311881148127d9b0edf19e4af2407488f302fbdbebd",
        },
    ),
}


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_recipe_output_digests(recipe, tmp_path, monkeypatch):
    argv, want = RECIPES[recipe]
    (tmp_path / "recipes").symlink_to(ROOT / "recipes")
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.iterdir()
        if p.name not in ("recipes", "runs.jsonl")
    }
    assert got == want


def test_readme_runs_the_tested_recipes():
    # the commands under "Paper figures" are the ones above, but for the dwell
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Paper figures")[1].split("```sh")[1].split("```")[0]
    commands = block.replace("\\\n", " ").splitlines()

    def undwelled(argv):
        i = argv.index("--dwell-s")
        return argv[:i] + argv[i + 2 :]

    readme = [undwelled(shlex.split(c)[1:]) for c in commands if c.startswith("qisim ")]
    assert readme == [undwelled(argv) for argv, _ in RECIPES.values()]


def imaging_config(background_cps: float) -> ExperimentConfig:
    dark = 1.0 / 80e6
    return ExperimentConfig(
        source=SourceParams(mu=7.9e-3, eta_herald=0.2, noise_herald_per_bin=dark),
        channel=ChannelParams(
            eta_transmit=1.0,
            collection_fraction=2e-5 / 0.6,
            eta_signal_detector=0.6,
            background_per_bin=background_cps / 80e6,
            dark_signal_per_bin=dark,
        ),
        seed=4,
    )


def test_recipe_inputs_are_the_configs_and_scene_they_name(tmp_path):
    save_config(paper_default(), str(tmp_path / "paper_default.json"))
    save_config(imaging_config(0.0), str(tmp_path / "imaging_quiet.json"))
    save_config(imaging_config(14000.0), str(tmp_path / "imaging_jammed.json"))
    scene_to_pgm(two_level_scene(16, 16)[0], str(tmp_path / "two_level_16.pgm"))
    assert sorted(os.listdir(ROOT / "recipes")) == sorted(os.listdir(tmp_path))
    for path in tmp_path.iterdir():
        assert (ROOT / "recipes" / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("script", ["snr_vs_brightness.py"])
def test_script_runs_with_defaults(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out-dir", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert os.listdir(tmp_path) == [Path(script).stem + ".csv"]


def test_mutants_data_is_well_formed():
    # what scripts/run_mutants.py needs of each entry; the runner itself,
    # a test run per mutant, is not part of this suite
    mutants = json.loads((ROOT / "scripts" / "mutants.json").read_text(encoding="utf-8"))
    assert len(mutants) >= 40
    assert len({m["id"] for m in mutants}) == len(mutants)
    for m in mutants:
        assert set(m) <= {"id", "file", "old", "new", "tests", "expect", "why"}, m["id"]
        assert (ROOT / m["file"]).read_text(encoding="utf-8").count(m["old"]) == 1, m["id"]
        assert m["new"] != m["old"], m["id"]
        assert m["tests"] and all((ROOT / t).exists() for t in m["tests"]), m["id"]
        assert m["expect"] in ("killed", "survives"), m["id"]
        assert m["expect"] == "killed" or m.get("why"), m["id"]
