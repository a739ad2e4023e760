"""Smoke test of the experiment drivers in scripts/: each runs with its
default arguments and writes its outputs; the imaging demo also reports the
dwell it scans."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXPECTED = {
    "imaging_demo.py": [
        "scene.pgm",
        *(
            f"{label}_{kind}{smooth}.pgm"
            for label in ("quiet", "jammed", "jammed_6x")
            for kind in ("ci", "qi")
            for smooth in ("", "_smooth")
        ),
    ],
    "isolated_comparison.py": ["isolated_comparison.csv"],
    "jamming_sweep.py": ["jamming_sweep.csv"],
    "snr_vs_brightness.py": ["snr_vs_brightness.csv"],
}


@pytest.mark.parametrize("script", sorted(EXPECTED))
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
    assert sorted(os.listdir(tmp_path)) == sorted(EXPECTED[script])


def test_imaging_demo_prints_the_dwell_it_scans(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "imaging_demo.py"),
            "--dwell-s",
            "0.57",
            "--out-dir",
            str(tmp_path),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    labels = [line.split(":")[0].strip() for line in done.stdout.splitlines()[:3]]
    assert labels == ["quiet (0.57 s/px)", "jammed (0.57 s/px)", "jammed_6x (3.42 s/px)"]
