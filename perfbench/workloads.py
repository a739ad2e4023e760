"""The four benchmark workloads: what one op does and how its output is checked.

Every op gets a fresh workload seed; the program sees only generated inputs.
The program is driven through its public functions and `qisim.cli.main`,
always looked up on the module at call time, so that the traced run's
wrappers see every call. Each workload's `why` says what it is for;
README.md maps layer metrics to the end-to-end metrics they move.

Output checks compare tallies with the closed forms at 5 sigma. The
tolerance adds the first skewness term of the Poisson quantile, (z^2-1)/6,
so that tallies of a few counts keep the same ~3e-7 tail as large ones.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

from qisim import analytics, channel, cli, correlator, imaging, model, rng

Z = 5.0
SWEEP_COLUMNS = [
    "value", "n_in_singles", "n_out_singles", "n_in_coinc", "n_out_coinc",
    "snr_c", "snr_c_err", "snr_q", "snr_q_err", "qef", "g2", "g2_err",
]
JAMMING_CPS = [2000, 5000, 10000, 20000, 50000, 100000, 200000]
CHARACTERIZE_MU = [0.001, 0.005, 0.01, 0.025]
COVERAGE_TAG_PULSES = 2_000_000
HERE = os.path.dirname(os.path.abspath(__file__))


class CheckFailed(Exception):
    """An op's output disagrees with what the benchmark expects."""


def within(label: str, observed: float, n: int, p: float) -> None:
    mean = n * p
    tol = Z * math.sqrt(n * p * (1.0 - p)) + (Z * Z - 1.0) / 6.0
    if abs(observed - mean) > tol:
        raise CheckFailed(f"{label}: {observed} not within {mean:.2f} +- {tol:.2f}")


def patterns(config, target_in: bool) -> dict:
    p11, p10, p01, _ = analytics.click_pattern_probabilities(config.source, config.channel, target_in)
    return {"signal": p11 + p10, "herald": p11 + p01, "coinc": p11}


def jammed_paper_default():
    """`paper_default` under 80 kcps pulse-locked jamming (1e-3 per bin)."""
    cfg = model.paper_default()
    return model.validate_config(
        dataclasses.replace(cfg, channel=dataclasses.replace(cfg.channel, background_per_bin=1e-3))
    )


def imaging_config():
    """The jammed 14 kcps raster-scan config of scripts/imaging_demo.py."""
    rep = 80e6
    dark = 1.0 / rep
    return model.validate_config(
        model.ExperimentConfig(
            source=model.SourceParams(mu=7.9e-3, eta_herald=0.2, noise_herald_per_bin=dark),
            channel=model.ChannelParams(
                eta_transmit=1.0,
                collection_fraction=2e-5 / 0.6,
                eta_signal_detector=0.6,
                background_per_bin=14000.0 / rep,
                dark_signal_per_bin=dark,
            ),
        )
    )


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def replay(qitt_path: str, csv_path: str, config) -> dict:
    """Read one stream both ways, then bin, window and estimate g2."""
    q = channel.read_qitt(qitt_path)
    c = channel.read_tags_csv(csv_path)
    counts = correlator.bin_and_count(q, config.channel.bin_width_ps, config.pulse_period_ps)
    pairs = correlator.windowed_coincidences(q, 1000)
    g2 = correlator.estimate_g2(counts)
    return {"qitt": q, "csv": c, "counts": counts, "windowed": pairs, "g2": g2}


def counts_dict(c) -> dict:
    return {
        "n_pulses": c.n_pulses,
        "n_signal_clicks": c.n_signal_clicks,
        "n_herald_clicks": c.n_herald_clicks,
        "n_coincidences": c.n_coincidences,
    }


class Workload:
    name: str
    why: str
    config: model.ExperimentConfig

    def prepare(self, workdir: str, seed: int) -> None:
        """Build the inputs under workdir; the workload config goes to config.json."""
        self.config_path = os.path.join(workdir, "config.json")
        model.save_config(self.config, self.config_path)


def same_stream(a, b) -> bool:
    return (
        a.duration_ps == b.duration_ps
        and np.array_equal(a.channels, b.channels)
        and np.array_equal(a.times_ps, b.times_ps)
    )


class TagAcquire(Workload):
    name = "tag_acquire"
    why = "simulate_tags per-pulse sampling is ~95% of the op, so an event-driven sampler shows here, then the exports"

    def __init__(self, n_pulses: int = 20_000_000) -> None:
        self.n_pulses = n_pulses
        self.config = jammed_paper_default()

    def prepare(self, workdir: str, seed: int) -> None:
        super().prepare(workdir, seed)
        self.expect = {s: patterns(self.config, s) for s in (True, False)}

    def op(self, opdir: str, op_seed: int) -> dict:
        cfg, n = self.config, self.n_pulses
        s_in = channel.simulate_tags(cfg, True, n, rng.substream(op_seed, 0))
        s_out = channel.simulate_tags(cfg, False, n, rng.substream(op_seed, 1))
        bw, period = cfg.channel.bin_width_ps, cfg.pulse_period_ps
        c_in = correlator.bin_and_count(s_in, bw, period)
        c_out = correlator.bin_and_count(s_out, bw, period)
        g2 = correlator.estimate_g2(c_in)
        snr_c = analytics.snr_from_counts(c_in.n_signal_clicks, c_out.n_signal_clicks)
        # An empty target-out coincidence tally leaves the quantum SNR
        # undefined; that is a statistical outcome, not a failure.
        snr_q = (
            analytics.snr_from_counts(c_in.n_coincidences, c_out.n_coincidences)
            if c_out.n_coincidences
            else None
        )
        channel.write_qitt(s_in, os.path.join(opdir, "in.qitt"))
        channel.write_tags_csv(s_in, os.path.join(opdir, "in.csv"))
        return {
            "stream": s_in,
            "summary": {
                "in": counts_dict(c_in),
                "out": counts_dict(c_out),
                "g2": g2.value,
                "snr_c": snr_c.value,
                "snr_q": None if snr_q is None else snr_q.value,
            },
        }

    def check(self, opdir: str, res: dict) -> None:
        for state, key in ((True, "in"), (False, "out")):
            got, p = res["summary"][key], self.expect[state]
            within(f"{key} signal", got["n_signal_clicks"], self.n_pulses, p["signal"])
            within(f"{key} herald", got["n_herald_clicks"], self.n_pulses, p["herald"])
            within(f"{key} coinc", got["n_coincidences"], self.n_pulses, p["coinc"])
        if not same_stream(channel.read_qitt(os.path.join(opdir, "in.qitt")), res["stream"]):
            raise CheckFailed("QITT round trip differs from the in-memory stream")
        if not same_stream(channel.read_tags_csv(os.path.join(opdir, "in.csv")), res["stream"]):
            raise CheckFailed("CSV round trip differs from the in-memory stream")


class TagReplay(Workload):
    name = "tag_replay"
    why = "stream readers and correlator do all the work, no sampling; reads the formats tag_acquire writes"

    def __init__(self) -> None:
        self.config = jammed_paper_default()

    def prepare(self, workdir: str, seed: int) -> None:
        super().prepare(workdir, seed)
        src = os.path.join(os.path.dirname(HERE), "src")
        subprocess.run(
            [sys.executable, os.path.join(HERE, "replay_input.py"), src, workdir, str(seed)],
            check=True,
            timeout=120,
        )
        self.qitt = os.path.join(workdir, "stream.qitt")
        self.csv = os.path.join(workdir, "stream.csv")
        with open(os.path.join(workdir, "reference.json"), encoding="utf-8") as fh:
            self.reference = json.load(fh)

    def op(self, opdir: str, op_seed: int) -> dict:
        r = replay(self.qitt, self.csv, self.config)
        r["summary"] = {"counts": counts_dict(r["counts"]), "windowed": r["windowed"], "g2": r["g2"].value}
        return r

    def check(self, opdir: str, res: dict) -> None:
        if not same_stream(res["qitt"], res["csv"]):
            raise CheckFailed("QITT and CSV reads differ")
        if len(res["qitt"]) != self.reference["n_tags"]:
            raise CheckFailed("tag count differs from the recorded stream")
        if res["summary"]["counts"] != self.reference["bin_and_count"]:
            raise CheckFailed(f"bin_and_count {res['summary']['counts']} != reference")
        if res["windowed"] != self.reference["windowed_coincidences"]:
            raise CheckFailed(f"windowed_coincidences {res['windowed']} != reference")


class CliSweep(Workload):
    name = "cli_sweep"
    why = "21,007 simulate_counts calls per op and no tags or pixels; isolates per-toggle orchestration"

    def __init__(self, dwell_s: float = 3000.0, char_dwell_s: float = 10.0) -> None:
        self.dwell_s, self.char_dwell_s = dwell_s, char_dwell_s
        self.config = model.paper_default()
        self.values = [v / self.config.source.rep_rate_hz for v in JAMMING_CPS]

    def prepare(self, workdir: str, seed: int) -> None:
        super().prepare(workdir, seed)
        cfg = self.config
        bare = dataclasses.replace(cfg, channel=model.bare_channel(cfg.channel))
        self.char_pulses = bare.pulses_for_seconds(self.char_dwell_s)
        self.char_expect = [
            patterns(dataclasses.replace(bare, source=dataclasses.replace(bare.source, mu=m)), True)
            for m in CHARACTERIZE_MU
        ]
        toggle = cfg.toggle_period_pulses
        self.exposure = cfg.pulses_for_seconds(self.dwell_s) // (2 * toggle) * toggle
        self.sweep_expect = []
        for v in self.values:
            row = dataclasses.replace(cfg, channel=dataclasses.replace(cfg.channel, background_per_bin=v))
            self.sweep_expect.append((patterns(row, True), patterns(row, False)))

    def op(self, opdir: str, op_seed: int) -> dict:
        common = ["--config", self.config_path, "--seed", str(op_seed), "--threads", "1"]
        char_csv = os.path.join(opdir, "char.csv")
        sweep_csv = os.path.join(opdir, "sweep.csv")
        code1, log1 = run_cli(
            ["characterize", *common, "--mu", ",".join(map(str, CHARACTERIZE_MU)),
             "--dwell-s", str(self.char_dwell_s), "--out", char_csv]
        )
        code2, log2 = run_cli(
            ["sweep", *common, "--variable", "background", "--values",
             ",".join(map(str, JAMMING_CPS)), "--values-per-s", "--dwell-s", str(self.dwell_s),
             "--out", sweep_csv]
        )
        return {"codes": (code1, code2), "log": log1 + log2, "summary": {}}

    def check(self, opdir: str, res: dict) -> None:
        if res["codes"] != (0, 0):
            raise CheckFailed(f"exit codes {res['codes']}: {res['log'][-300:]}")
        with open(os.path.join(opdir, "char.csv"), encoding="utf-8") as fh:
            char = [line.split(",") for line in fh.read().splitlines()]
        if len(char) != 1 + len(CHARACTERIZE_MU):
            raise CheckFailed("characterize CSV row count")
        for cells, p in zip(char[1:], self.char_expect):
            n = int(cells[1])
            if n != self.char_pulses:
                raise CheckFailed("characterize dwell")
            within("char signal", int(cells[2]), n, p["signal"])
            within("char herald", int(cells[3]), n, p["herald"])
            within("char coinc", int(cells[4]), n, p["coinc"])
        with open(os.path.join(opdir, "sweep.csv"), encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        if rows[0] != SWEEP_COLUMNS:
            raise CheckFailed(f"sweep columns {rows[0]}")
        if len(rows) != 1 + len(self.values):
            raise CheckFailed("sweep row count")
        for cells, v, (p_in, p_out) in zip(rows[1:], self.values, self.sweep_expect):
            if float(cells[0]) != v:
                raise CheckFailed(f"sweep value {cells[0]} != {v!r}")
            try:
                n_in_s, n_out_s, n_in_c, n_out_c = (int(x) for x in cells[1:5])
            except ValueError:
                raise CheckFailed(f"sweep row {cells[0]} has no raw counts") from None
            within("sweep in singles", n_in_s, self.exposure, p_in["signal"])
            within("sweep out singles", n_out_s, self.exposure, p_out["signal"])
            within("sweep in coinc", n_in_c, self.exposure, p_in["coinc"])
            within("sweep out coinc", n_out_c, self.exposure, p_out["coinc"])


class CliImage(Workload):
    name = "cli_image"
    why = "16,384 pixels of replace+substream+simulate_counts plus six image files; shows per-pixel vectorization"

    def __init__(self, size: int = 128, dwell_s: float = 25.0) -> None:
        self.size, self.dwell_s = size, dwell_s
        self.config = imaging_config()

    def prepare(self, workdir: str, seed: int) -> None:
        super().prepare(workdir, seed)
        scene, self.mask = imaging.two_level_scene(self.size, self.size)
        self.scene_path = os.path.join(workdir, "scene.pgm")
        imaging.scene_to_pgm(scene, self.scene_path)
        self.dwell = self.config.pulses_for_seconds(self.dwell_s)
        ch = self.config.channel
        self.expect = {
            fg: patterns(
                dataclasses.replace(
                    self.config, channel=dataclasses.replace(ch, target_reflectivity=float(fg))
                ),
                True,
            )
            for fg in (True, False)
        }

    def op(self, opdir: str, op_seed: int) -> dict:
        code, log = run_cli(
            ["image", "--config", self.config_path, "--seed", str(op_seed), "--threads", "1",
             "--scene", self.scene_path, "--dwell-s", str(self.dwell_s), "--smooth",
             "--out-prefix", os.path.join(opdir, "img")]
        )
        return {"codes": code, "log": log, "summary": {}}

    def check(self, opdir: str, res: dict) -> None:
        if res["codes"] != 0:
            raise CheckFailed(f"exit code {res['codes']}: {res['log'][-300:]}")
        for tag in ("ci", "qi"):
            for suffix in (".pgm", "_smooth.pgm"):
                if not os.path.isfile(os.path.join(opdir, f"img_{tag}{suffix}")):
                    raise CheckFailed(f"missing img_{tag}{suffix}")
        ci = np.loadtxt(os.path.join(opdir, "img_ci.csv"), delimiter=",", ndmin=2)
        qi = np.loadtxt(os.path.join(opdir, "img_qi.csv"), delimiter=",", ndmin=2)
        if ci.shape != self.mask.shape or qi.shape != self.mask.shape:
            raise CheckFailed("image shape")
        for fg in (True, False):
            sel = self.mask if fg else ~self.mask
            n = int(sel.sum()) * self.dwell
            within(f"ci {'fg' if fg else 'bg'} total", ci[sel].sum(), n, self.expect[fg]["signal"])
            within(f"qi {'fg' if fg else 'bg'} total", qi[sel].sum(), n, self.expect[fg]["coinc"])
        c_ci, c_qi = separation(ci, self.mask), separation(qi, self.mask)
        if not c_qi > c_ci:
            raise CheckFailed(f"QI contrast {c_qi:.3g} does not exceed CI contrast {c_ci:.3g}")


def separation(grid: np.ndarray, mask: np.ndarray) -> float:
    """Foreground/background mean difference in pooled-noise units."""
    fg, bg = grid[mask], grid[~mask]
    return float((fg.mean() - bg.mean()) / math.sqrt(0.5 * (fg.var() + bg.var())))


WORKLOADS = {w.name: w for w in (TagAcquire, TagReplay, CliSweep, CliImage)}


def coverage_pass(workdir: str, seed: int) -> None:
    """One small op of every kind, so a traced run reaches every layer.

    Layers that the workload's own ops never call take their figures from
    these spans.
    """
    small = (
        TagAcquire(n_pulses=COVERAGE_TAG_PULSES),
        CliSweep(dwell_s=30.0, char_dwell_s=1.0),
        CliImage(size=16, dwell_s=1.0),
    )
    for wl in small:
        sub = os.path.join(workdir, wl.name)
        os.makedirs(sub)
        wl.prepare(sub, seed)
        res = wl.op(sub, seed)
        if wl.name == TagAcquire.name:
            replay(os.path.join(sub, "in.qitt"), os.path.join(sub, "in.csv"), wl.config)
            continue
        if res["codes"] not in (0, (0, 0)):
            raise CheckFailed(f"coverage pass {wl.name}: {res['log'][-300:]}")
