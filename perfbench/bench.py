"""Measurement for perfbench/run.py: op loop, set-up probes, digests, traced run.

Imported only after run.py has put ./src on the path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback

import numpy as np

import qisim
import workloads
from qisim import analytics, channel, imaging, model, rng, source
from spans import COVERAGE_OP, SETUP_OP, LayerView, Tracer
from workloads import CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

SETUP_REPS = 11
LOAD_REPS = 25
POISSON_REPS = 20
TAG_CHUNK = 1 << 20  # simulate_tags draws pair numbers in chunks of this size
# Nominal time of host_probe() on an idle 2-vCPU Intel Xeon VM. It only sets
# the scale of the rescaled times; parent and change share it.
PROBE_NOMINAL_S = 0.020


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def op_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qisim": qisim.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "workload_seed": seed,
    }


def source_hash() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qisim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def output_digest(opdir: str, summary: dict) -> str:
    """SHA-256 over the op's output files (not the run ledger) and results."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(opdir):
        dirnames.sort()
        for name in sorted(filenames):
            if name == "runs.jsonl":
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, opdir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    h.update(json.dumps(summary, sort_keys=True).encode())
    return h.hexdigest()


class Ledger:
    """Ops attempted and failed, op timings, and the digest store."""

    def __init__(self, name: str, seed: int) -> None:
        self.attempted = 0
        self.failures: list[dict] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.digests: dict[str, str] = {}
        os.makedirs(os.path.join(OUT, "digests"), exist_ok=True)
        self.store_path = os.path.join(OUT, "digests", f"{name}-{source_hash()}-s{seed}.json")
        self.stored: dict[str, str] = {}
        if os.path.isfile(self.store_path):
            with open(self.store_path, encoding="utf-8") as fh:
                self.stored = json.load(fh)

    def record_failure(self, i: int, seed: int, why: str) -> None:
        self.failures.append({"op": i, "op_seed": seed, "error": why})

    def save_digests(self) -> None:
        merged = {**self.digests, **self.stored}
        tmp = self.store_path + f".{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, sort_keys=True)
        os.replace(tmp, self.store_path)


def run_op(wl, workdir: str, ledger: Ledger, i: int, seed: int, tracer=None, timed=True):
    """One checked op; returns (wall_s, cpu_s, digest), digest None on failure."""
    s = op_seed(seed, i)
    opdir = os.path.join(workdir, f"op{i}-{'t' if tracer else 'u'}")
    os.makedirs(opdir)
    ledger.attempted += 1
    error = None
    ctx = tracer.installed() if tracer is not None else contextlib.nullcontext()
    try:
        with ctx:
            if tracer is not None:
                tracer.op_id = i
            w0, c0 = time.perf_counter(), cpu_now()
            try:
                res = wl.op(opdir, s)
            finally:
                wall, cpu = time.perf_counter() - w0, cpu_now() - c0
        wl.check(opdir, res)
        digest = output_digest(opdir, res["summary"])
    except CheckFailed as exc:
        error = f"check: {exc}"
    except Exception:  # an op that raises is a failed op; keep running
        error = traceback.format_exc(limit=4)
    finally:
        shutil.rmtree(opdir, ignore_errors=True)
    if error is None:
        known = ledger.digests.get(str(s)) or ledger.stored.get(str(s))
        if known is not None and known != digest:
            error = "output digest differs from an earlier op at this seed"
    if error is not None:
        ledger.record_failure(i, s, error)
        return wall, cpu, None
    ledger.digests[str(s)] = digest
    if timed:
        ledger.wall.append(wall)
        ledger.cpu.append(cpu)
    return wall, cpu, digest


def setup_time(config_path: str) -> float:
    """Seconds from spawning a fresh interpreter until its first op could begin."""
    t0 = time.time()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, config_path],
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1]) - t0


def host_slowdown() -> float:
    """How many times slower than nominal the host runs right now.

    Times a fixed mix of interpreter and numpy work that does not touch
    qisim. On a shared host, other tenants slow this probe and the ops alike,
    so a time divided by the slowdown measured right after it is far steadier
    than the time itself, while a change to qisim moves it in full.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(100_000):
        x += i * i % 7
    g = np.random.default_rng(12345)
    a = g.random(500_000)
    a.sort()
    np.flatnonzero(g.poisson(0.01, 500_000))
    return (time.perf_counter() - t0) / PROBE_NOMINAL_S


def rescaled_median(times: list[float], slowdowns: list[float]) -> float:
    return statistics.median(t / s for t, s in zip(times, slowdowns))


def tail(values: list[float]) -> dict | None:
    """Highest whole percentile with at least ten ops beyond it."""
    n = len(values)
    if n < 11:
        return None
    pct = int(100 * (n - 10) / n)
    return {"percentile": pct, "value_s": float(np.percentile(values, pct)), "ops": n}


def timed_loop(seconds: float, on_op) -> None:
    """Call on_op(1), on_op(2), ... until `seconds` have passed."""
    i = 1
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        on_op(i)
        i += 1


def untraced_run(wl, workdir: str, seed: int, seconds: float, report: dict) -> tuple[Ledger, dict]:
    ledger = Ledger(wl.name, seed)
    run_op(wl, workdir, ledger, 0, seed, timed=False)
    # Set-up probes are spread over the run, between ops, so that a slow
    # spell on a shared machine moves the median of few of them. Every timed
    # op and set-up probe is followed by a host-speed probe.
    setups: list[float] = []
    setup_slow: list[float] = []
    op_slow: list[float] = []
    t0 = time.perf_counter()

    def op_then_probe(i):
        done = len(ledger.wall)
        run_op(wl, workdir, ledger, i, seed)
        if len(ledger.wall) > done:
            op_slow.append(host_slowdown())
        if len(setups) < SETUP_REPS and time.perf_counter() - t0 >= len(setups) * seconds / SETUP_REPS:
            setups.append(setup_time(wl.config_path))
            setup_slow.append(host_slowdown())

    timed_loop(seconds, op_then_probe)
    while len(setups) < SETUP_REPS:
        setups.append(setup_time(wl.config_path))
        setup_slow.append(host_slowdown())
    if not ledger.wall:
        return ledger, {}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (rescaled_median(setups, setup_slow), "s"),
        "wall_s": (rescaled_median(ledger.wall, op_slow), "s"),
        "cpu_s": (rescaled_median(ledger.cpu, op_slow), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    report.update(
        raw_medians={
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(ledger.wall),
            "cpu_s": statistics.median(ledger.cpu),
        },
        setup_s_samples=setups,
        wall_s_samples=ledger.wall,
        cpu_s_samples=ledger.cpu,
        setup_slowdown=setup_slow,
        op_slowdown=op_slow,
        wall_s_tail=tail(ledger.wall),
    )
    return ledger, metrics


def pool_comparison(seed: int) -> dict:
    """raster_scan and run_sweep timed whole at one and at two workers."""
    img = workloads.CliImage()
    cfg = dataclasses.replace(img.config, seed=seed)
    scene, _ = imaging.two_level_scene(img.size, img.size)
    dwell = cfg.pulses_for_seconds(img.dwell_s)
    out, same = {}, True
    results = {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        results[workers] = imaging.raster_scan(scene, cfg, dwell, max_workers=workers)
        out[f"raster_scan.w{workers}_s"] = time.perf_counter() - t0
    same &= all(np.array_equal(a.grid, b.grid) for a, b in zip(results[1], results[2]))

    sw = workloads.CliSweep()
    cfg = dataclasses.replace(sw.config, seed=seed)
    dwell = cfg.pulses_for_seconds(sw.dwell_s)
    for workers in (1, 2):
        t0 = time.perf_counter()
        results[workers] = analytics.run_sweep(cfg, "background", sw.values, dwell, max_workers=workers)
        out[f"run_sweep.w{workers}_s"] = time.perf_counter() - t0
    same &= [(r.counts_in, r.counts_out) for r in results[1].rows] == [
        (r.counts_in, r.counts_out) for r in results[2].rows
    ]
    out["same_results"] = bool(same)
    return out


def poisson_probe(mu: float, seed: int) -> tuple[float, float]:
    """poisson_pair_counts timed by direct calls at simulate_tags' chunk size."""
    gen = rng.substream(seed, 0)
    busy, useful = 0.0, 0
    for _ in range(POISSON_REPS):
        t0 = time.perf_counter()
        draws = source.poisson_pair_counts(mu, gen, TAG_CHUNK)
        busy += time.perf_counter() - t0
        useful += int((draws > 0).sum())
    total = POISSON_REPS * TAG_CHUNK
    return total / busy / 1e6, useful / total


def alloc_peak_mb(config, n_pulses: int, seed: int) -> float:
    tracemalloc.start()
    try:
        channel.simulate_tags(config, True, n_pulses, rng.substream(seed, 0))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def layer_metrics(view, extra: dict, rep_rate_hz: float) -> dict:
    """The per-layer metrics listed in BENCHMARK.json, from spans and probes."""

    def mean_us(name):
        return float(view.dur(name).mean() * 1e6)

    def mean_ms(name):
        return float(view.dur(name).mean() * 1e3)

    sweep_rows = view.work("analytics.run_sweep", "rows")
    tags_pulses = view.work("channel.simulate_tags", "pulses")
    m = {
        "model.load_config.ms": (float(np.median(view.dur("model.load_config", True)) * 1e3), "ms"),
        "model.validate_config.us": (
            float(np.median(view.dur("model.validate_config", True)) * 1e6),
            "us",
        ),
        "rng.substream.us_per_call": (mean_us("rng.substream"), "us"),
        "rng.substream.calls": (view.calls_per_op("rng.substream"), "count"),
        "source.poisson_pair_counts.mpulses_per_s": (extra["poisson_mpulses_per_s"], "Mpulse/s"),
        "source.poisson_pair_counts.useful_frac": (extra["poisson_useful_frac"], "1"),
        "channel.simulate_tags.self_s": (float(view.self_time("channel.simulate_tags").mean()), "s"),
        "channel.simulate_tags.mpulses_per_s": (view.rate("channel.simulate_tags", "pulses"), "Mpulse/s"),
        "channel.simulate_tags.realtime_x": (
            view.rate("channel.simulate_tags", "pulses", 1.0) / rep_rate_hz,
            "x",
        ),
        "channel.simulate_tags.tags_per_mpulse": (
            view.work("channel.simulate_tags", "tags") / tags_pulses * 1e6,
            "count",
        ),
        "channel.simulate_tags.alloc_peak_mb": (extra["alloc_peak_mb"], "MB"),
        "channel.simulate_counts.calls": (view.calls_per_op("channel.simulate_counts"), "count"),
        "channel.simulate_counts.us_per_call": (mean_us("channel.simulate_counts"), "us"),
        "analytics.click_pattern_probabilities.us_per_call": (
            mean_us("analytics.click_pattern_probabilities"),
            "us",
        ),
    }
    for name in ("channel.write_qitt", "channel.write_tags_csv", "channel.read_qitt",
                 "channel.read_tags_csv", "correlator.bin_and_count",
                 "correlator.windowed_coincidences"):
        m[f"{name}.mtags_per_s"] = (view.rate(name, "tags"), "Mtag/s")
    m["correlator.stream_order_errors"] = (
        view.error_count("correlator.", "StreamOrderError"),
        "count",
    )
    sweep_s = float(view.dur("analytics.run_sweep").sum())
    m.update({
        "analytics.run_sweep.ms_per_row": (sweep_s / sweep_rows * 1e3, "ms"),
        "analytics.run_sweep.us_per_toggle_pair": (
            sweep_s / view.work("analytics.run_sweep", "toggle_pairs") * 1e6,
            "us",
        ),
        "analytics.run_sweep.calls_per_row": (
            view.children_named("analytics.run_sweep", "channel.simulate_counts") / sweep_rows,
            "count",
        ),
        "analytics.run_sweep.rows_undefined": (view.work("analytics.run_sweep", "rows_undefined"), "count"),
        "analytics.sweep_to_csv.ms": (mean_ms("analytics.sweep_to_csv"), "ms"),
        "imaging.raster_scan.us_per_pixel": (
            float(view.dur("imaging.raster_scan").sum()) / view.work("imaging.raster_scan", "pixels") * 1e6,
            "us",
        ),
    })
    for name in ("imaging.write_pgm", "imaging.image_to_csv", "imaging.interpolate4",
                 "imaging.scene_from_pgm"):
        m[f"{name}.ms"] = (mean_ms(name), "ms")
    m["imaging.raster_scan.pool2_speedup"] = (
        extra["pool"]["raster_scan.w1_s"] / extra["pool"]["raster_scan.w2_s"],
        "x",
    )
    m["analytics.run_sweep.pool2_speedup"] = (
        extra["pool"]["run_sweep.w1_s"] / extra["pool"]["run_sweep.w2_s"],
        "x",
    )
    m["cli.main.self_ms"] = (float(view.self_time("cli.main").mean() * 1e3), "ms")
    m["trace.overhead_frac"] = (extra["overhead_frac"], "1")
    return m


def traced_run(wl, workdir: str, seed: int, seconds: float, report: dict) -> tuple[Ledger, dict]:
    ledger = Ledger(wl.name, seed)
    tracer = Tracer()
    with tracer.installed():
        tracer.op_id = SETUP_OP
        for _ in range(LOAD_REPS):
            model.validate_config(model.load_config(wl.config_path))
    run_op(wl, workdir, ledger, 0, seed, timed=False)

    plain, traced = [], []

    def pair(i):
        # Both ops share op seed i, so run_op's digest comparison checks that
        # tracing changes no output.
        runs = [(plain, None), (traced, tracer)]
        if i % 2:
            runs.reverse()
        for bucket, tr in runs:
            wall, _, digest = run_op(wl, workdir, ledger, i, seed, tracer=tr, timed=False)
            if digest is not None:
                bucket.append(wall)

    timed_loop(seconds, pair)
    if not plain or not traced:
        return ledger, {}

    extra = {"overhead_frac": (statistics.median(traced) - statistics.median(plain)) / statistics.median(plain)}
    tag_cfg = workloads.jammed_paper_default()
    extra["poisson_mpulses_per_s"], extra["poisson_useful_frac"] = poisson_probe(tag_cfg.source.mu, seed)
    probe_pulses = wl.n_pulses if isinstance(wl, workloads.TagAcquire) else workloads.COVERAGE_TAG_PULSES
    extra["alloc_peak_mb"] = alloc_peak_mb(tag_cfg, probe_pulses, seed)

    cover = os.path.join(workdir, "coverage")
    os.makedirs(cover)
    ledger.attempted += 1
    try:
        with tracer.installed():
            tracer.op_id = COVERAGE_OP
            workloads.coverage_pass(cover, seed)
    except Exception:  # a failing coverage pass is a failed op; keep running
        ledger.record_failure(-1, seed, traceback.format_exc(limit=4))
        return ledger, {}
    extra["pool"] = pool_comparison(seed)
    ledger.attempted += 1
    if not extra["pool"]["same_results"]:
        ledger.record_failure(-1, seed, "pool and serial results differ")

    view = LayerView(tracer)
    metrics = layer_metrics(view, extra, tag_cfg.source.rep_rate_hz)
    tracer.save(os.path.join(OUT, f"spans-{wl.name}-s{seed}.npz"))
    report.update(
        untraced_wall_s=plain,
        traced_wall_s=traced,
        pool=extra["pool"],
        layer_source={name: view.source(name) for name in sorted(tracer.names)},
        spans=len(tracer.start),
    )
    return ledger, metrics


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[name]()
    workdir = os.path.join(OUT, f"run-{name}-s{seed}-t{trace}-{os.getpid()}")
    os.makedirs(workdir)
    report = {"workload": name, "why": wl.why, "trace": trace, "seconds": seconds,
              "environment": environment(seed)}
    try:
        t0 = time.perf_counter()
        wl.prepare(workdir, seed)
        report["prepare_s"] = time.perf_counter() - t0
        run = traced_run if trace else untraced_run
        ledger, metrics = run(wl, workdir, seed, seconds, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ledger.save_digests()

    failed = len(ledger.failures)
    report.update(attempted=ledger.attempted, failed=failed, failures=ledger.failures,
                  fail_frac=failed / ledger.attempted)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(OUT, f"report-{name}-s{seed}-t{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for f in ledger.failures:
        print(f"perfbench: {name} op {f['op']} failed: {f['error']}", file=sys.stderr)
    if not metrics:
        print(f"perfbench: {name}: no op completed", file=sys.stderr)
        return 2
    print(json.dumps(report))
    shown = " ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items() if not trace)
    print(f"{name}: {shown} fail_frac={report['fail_frac']:.3g} (attempted {ledger.attempted}, failed {failed})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0
