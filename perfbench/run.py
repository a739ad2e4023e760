#!/usr/bin/env python3
"""qisim benchmark: end-to-end and per-layer numbers at pinned workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; the program is imported from ./src. One
client in one process runs one op at a time (closed loop), each op with a
fresh workload seed derived from --seed, with no worker pool. After one
untimed warm-up op, ops run until --seconds have passed.

--trace 0 reports the end-to-end metrics: setup_s (fresh interpreters that
import numpy and qisim and load and validate the workload config), wall_s
and cpu_s (per op; cpu includes child processes), each the median after
rescaling by a host-speed probe taken right after the sample (see
README.md), and peak_rss_mb (ru_maxrss of this process). fail_frac =
failed / attempted is printed beside them; an op fails if it raises, exits
non-zero, fails an output check, or its output digest differs from an
earlier run's at the same op seed.

--trace 1 alternates untraced and traced ops at the same op seed (their
output digests must match), then times poisson_pair_counts directly, takes
a tracemalloc peak of simulate_tags, runs a small traced coverage pass, and
compares raster_scan and run_sweep at one and two workers. It reports the
per-layer metrics and trace.overhead_frac.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the full report, also
written under perfbench/out/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOAD_NAMES = ("tag_acquire", "tag_replay", "cli_sweep", "cli_image")


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so setup_s and peak_rss_mb are its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return fail(f"{name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print(lines[-2])
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="qisim benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if not os.path.isfile(os.path.join(SRC, "qisim", "__init__.py")):
        return fail(f"no qisim sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import bench  # needs ./src on the path

    if not os.path.abspath(bench.qisim.__file__).startswith(SRC + os.sep):
        return fail(f"imported qisim from {bench.qisim.__file__}, not from {SRC}")
    return bench.run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
