"""The paper's figures: each command of the README's "Paper figures"
section, run through `cli.main` on the committed inputs in recipes/ at a
short dwell; and the data of the hand mutants that scripts/run_mutants.py
applies, and how it scores a mutant whose tests hang."""

import hashlib
import importlib.util
import json
import os
import shlex
import subprocess
from dataclasses import replace
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
# each writes but the run ledger, which holds timestamps. A sweep's dwell is
# a whole number of in/out toggle pairs, 2 s each for these configs.
RECIPES = {
    "jamming": (
        ["sweep", "--config", "recipes/paper_default.json", "--seed", "2",
         "--variable", "background", "--values", "2e3,5e3,1e4,2e4,5e4,1e5,2e5",
         "--values-per-s", "--dwell-s", "2", "--out", "jamming.csv"],
        {"jamming.csv": "b84cb5b0fde44b5f2f815e338454ac81bcb9208598952001c0b0bda882f1dcf3"},
    ),
    "dark_box": (
        ["sweep", "--config", "recipes/paper_default.json", "--seed", "1",
         "--variable", "mu", "--values", "1e-3,2.5e-3,5e-3,7.5e-3,1e-2,1.5e-2,2e-2,2.5e-2",
         "--dwell-s", "2", "--out", "dark_box.csv"],
        {"dark_box.csv": "7959ea33ab9c078e8ce7d7390955b1d4df1b3c874b22e2f76090c1e8b51a6c02"},
    ),
    "brightness": (
        ["sweep", "--config", "recipes/paper_jammed_10kcps.json", "--seed", "3",
         "--variable", "mu", "--values", "1e-3,2.5e-3,5e-3,7.5e-3,1e-2,1.5e-2,2e-2,2.5e-2",
         "--dwell-s", "2", "--out", "brightness.csv"],
        {"brightness.csv": "16aae8499e971621161a87082d1d5ea303c2804dedb62700344a83494262e9dc"},
    ),
    "quiet": (
        image_recipe("imaging_quiet.json", "4", "1", "quiet"),
        {
            "quiet_ci.pgm": "97045279c16aee4edd21bf30848e0475debb78b4d744dec507f731989b020db3",
            "quiet_ci_smooth.pgm": "18bd9dc3fae8c9d59677a551626ad11c7f66fb6613b5197c41845f42755be27b",
            "quiet_qi.pgm": "0159d29c56e073a03fc2deb5330e0b5e8d05cd9cfebc4fa71ee26b05a7301602",
            "quiet_qi_smooth.pgm": "ff742b722d2b9780bee151f8e581e290b37741ae9df2a9573b23b220eb924cb3",
            "quiet_ci.csv": "f330158fdcd7e6e2eab89f9bb9eaeb8e0220e56f2118af065dbccc417c584c4e",
            "quiet_qi.csv": "564b447ddc0d228ea78c56a33523933890dc458c1b176399fb07bc0d7e05c2a6",
        },
    ),
    "jammed": (
        image_recipe("imaging_jammed.json", "5", "1", "jammed"),
        {
            "jammed_ci.pgm": "1b7324f8af4765f4512ee0a6e751e5ab59e45c59ae74c5e6cc42be6f4c1f93a0",
            "jammed_ci_smooth.pgm": "3e0b7e3d9cba15610aa9ae54cef292293558981200c5478c55f5990930c8e909",
            "jammed_qi.pgm": "c1e12c2372ad7b2a08a710292b1ec57e69ea2f69c30af4a15d70b4a60a18c2b3",
            "jammed_qi_smooth.pgm": "d746c2f276b551485941029fe2893515a6601a3cea1deb644c34e373a1395d81",
            "jammed_ci.csv": "1ea10a87c555054a5285ed88fe4b793617c27a524c7ab1edeb5bacbe34813702",
            "jammed_qi.csv": "e0c9a79bb08f57c54fb60600c3ac37fcec90f0ec70b9a293924e211c6c5cbce4",
        },
    ),
    "jammed_6x": (
        image_recipe("imaging_jammed.json", "6", "6", "jammed_6x"),
        {
            "jammed_6x_ci.pgm": "0b2bbda999fef993daace5aef7d079281b849eb331ca83733c4fff91d9ce341c",
            "jammed_6x_ci_smooth.pgm": "d170182ba2a1ac224689727592ac565b52fd73b1cc6a7fcfb7e6453c7457894d",
            "jammed_6x_qi.pgm": "bfad87ba2958841c055105bcd7600b4f001090422b3e55b1c461c906deb5a961",
            "jammed_6x_qi_smooth.pgm": "18ee1b76f43dd84231258da20fb351781dcd6bdf67885d9cd6bd40b6f9be5a74",
            "jammed_6x_ci.csv": "7a30208e1e9907cd013ad3803ce04927c42a979f168e4c83585365168e81ca12",
            "jammed_6x_qi.csv": "c22a60fbe6dd478b4f6fffaa7fb4beb3e4de01a15648d946ef94255861e43a17",
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
    jammed = paper_default()
    jammed = replace(jammed, channel=replace(jammed.channel, background_per_bin=1e4 / 8e7))
    save_config(jammed, str(tmp_path / "paper_jammed_10kcps.json"))
    save_config(imaging_config(0.0), str(tmp_path / "imaging_quiet.json"))
    save_config(imaging_config(14000.0), str(tmp_path / "imaging_jammed.json"))
    scene_to_pgm(two_level_scene(16, 16)[0], str(tmp_path / "two_level_16.pgm"))
    assert sorted(os.listdir(ROOT / "recipes")) == sorted(os.listdir(tmp_path))
    for path in tmp_path.iterdir():
        assert (ROOT / "recipes" / path.name).read_bytes() == path.read_bytes(), path.name


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


def load_runner():
    spec = importlib.util.spec_from_file_location("run_mutants", ROOT / "scripts" / "run_mutants.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    return runner


def test_mutant_that_hangs_its_tests_is_killed(monkeypatch):
    runner = load_runner()
    timeouts = []

    def hang(cmd, **kwargs):
        timeouts.append(kwargs.get("timeout"))
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    monkeypatch.setattr(runner.subprocess, "run", hang)
    mutant = json.loads((ROOT / "scripts" / "mutants.json").read_text(encoding="utf-8"))[0]
    assert runner.run(mutant) == "killed"
    assert timeouts == [runner.TIMEOUT_S]


def test_mutant_ids_select_a_subset(monkeypatch, capsys):
    runner = load_runner()
    mutants = json.loads((ROOT / "scripts" / "mutants.json").read_text(encoding="utf-8"))
    ran = []
    monkeypatch.setattr(runner, "run", lambda m: ran.append(m["id"]) or m["expect"])
    ids = [mutants[5]["id"], mutants[2]["id"]]
    assert runner.main(ids) == 0
    assert ran == [mutants[2]["id"], mutants[5]["id"]]  # in the order of the file
    assert capsys.readouterr().out.endswith("2/2 as expected\n")

    ran.clear()
    assert runner.main([mutants[0]["id"], "no-such-mutant"]) == 2
    assert not ran and "no-such-mutant" in capsys.readouterr().err

    assert runner.main([]) == 0
    assert ran == [m["id"] for m in mutants]
