"""Run the hand mutants of `scripts/mutants.json` and check that each
outcome is the one recorded.

    python3 scripts/run_mutants.py [MUTANT_ID ...]

With ids, only those mutants run, in the order of the file; an unknown id
is an error (exit status 2).

Each entry names a file, an `old` text that occurs in it exactly once, the
`new` text that replaces it, the test files to run, and the expected
outcome: `killed` (some test fails) or `survives` (all pass; `why` says
why that is acceptable). For each entry the repository is copied into a
temporary directory, without `.git` and the ignored output directories,
the copy is mutated, and `python -m pytest -q -x -p no:cacheprovider
--hypothesis-profile mutants <tests>` runs there with
`PYTHONPATH=<copy>/src`; that profile, registered in `tests/conftest.py`,
skips shrinking a failing example, which only slows a kill. It leaves out
`DATA_TEST`, which checks each old text against the source and so fails
in every mutated copy, and, where libcst is installed, loads hypothesis's
patch writer as a plugin (`PRELOAD`). A test run that takes more than
`TIMEOUT_S` seconds is stopped and counts as `killed`: a mutant that hangs
the tests (a loop that never ends, say) is detected. The working tree is never
written to. One line is printed per mutant; the exit status is 1 if any
outcome differs from its `expect`.

The standard library is all this script uses. Each mutant costs a run of
its test files, so the full list takes several minutes.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "scripts" / "mutants.json"
DATA_TEST = "tests/test_scripts.py::test_mutants_data_is_well_formed"
TIMEOUT_S = 300  # per mutant; each runs in well under a minute
SKIP = shutil.ignore_patterns(
    ".git", ".hypothesis", ".pytest_cache", ".benchmarks", "__pycache__", "*.egg-info",
    "build", "results", "out",
)
# Hypothesis imports its patch writer, and so libcst, when it reports a
# failing example. That import raises a DeprecationWarning (libcst uses
# mypy_extensions.TypedDict). Met first in the report hook of a test marked
# filterwarnings("error"), it aborts pytest with INTERNALERROR, exit status 3,
# although the test has just failed. Loaded as a plugin, the writer is
# imported at start-up, where the default filters ignore that warning.
PRELOAD = ["-p", "hypothesis.extra._patching"] if importlib.util.find_spec("libcst") else []


def run(mutant: dict) -> str:
    """Apply one mutant to a fresh copy and return its outcome."""
    with tempfile.TemporaryDirectory(prefix="qisim-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        target = copy / mutant["file"]
        text = target.read_text(encoding="utf-8")
        if text.count(mutant["old"]) != 1:
            return "stale"  # the old text is gone or ambiguous
        target.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *PRELOAD]
        cmd += ["--hypothesis-profile", "mutants"]
        cmd += [*mutant["tests"], "--deselect", DATA_TEST]
        try:
            done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"
    return {0: "survives", 1: "killed"}.get(done.returncode, f"error{done.returncode}")


def main(ids: list[str]) -> int:
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    unknown = set(ids) - {m["id"] for m in mutants}
    if unknown:
        print(f"unknown mutant ids: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    if ids:
        mutants = [m for m in mutants if m["id"] in ids]
    wrong = 0
    for m in mutants:
        start = time.perf_counter()
        outcome = run(m)
        ok = outcome == m["expect"]
        wrong += not ok
        mark = "ok" if ok else f"UNEXPECTED (expected {m['expect']})"
        print(f"{outcome:9} {mark:<2} {m['id']} [{m['file']}] {time.perf_counter() - start:.0f} s",
              flush=True)
    print(f"{len(mutants) - wrong}/{len(mutants)} as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
