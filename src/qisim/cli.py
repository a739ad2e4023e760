"""Command-line front end.

Three commands mirror the measurement campaigns:

* ``characterize`` - source characterization through a bare channel:
  singles, coincidences and pair correlation versus mean photon number,
  no background.
* ``sweep`` - toggled target in/out acquisition against mean photon number
  or jamming level, with SNR, enhancement factor and companion correlation
  per row.
* ``image`` - raster scan of a PGM reflectivity scene producing CI and QI
  images.

Dwell times are given in seconds and converted to pulses through the
repetition rate; all internal arithmetic is pulse- and bin-indexed.
Every command appends a run record (timestamp, config digest, seed,
command, outputs, summary) to an append-only JSON-lines ledger next to
its outputs. Output files themselves carry no timestamps, so a rerun with
the same config, seed and arguments is byte-identical.

Exit codes: 0 success, 2 usage error, 3 config error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import analytics, imaging, model
from .channel import simulate_counts
from .correlator import estimate_g2
from .model import ConfigError, ExperimentConfig
from .rng import CHARACTERIZE_SPACE, substream

CONFIG_ENV_VAR = "QISIM_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_IO = 4


class UsageError(Exception):
    pass


@dataclasses.dataclass(frozen=True)
class RunRecord:
    timestamp: str
    config_digest: str
    seed: int
    command: str
    outputs: tuple[str, ...]
    summary: dict

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


def append_run_record(ledger_path: str, record: RunRecord) -> None:
    # Append-only by construction; existing records are never touched.
    with open(ledger_path, "a", encoding="utf-8") as fh:
        fh.write(record.to_json() + "\n")


def _record_run(
    out_path: str, config: ExperimentConfig, command: str, outputs: list[str], summary: dict
) -> None:
    ledger = os.path.join(os.path.dirname(os.path.abspath(out_path)), "runs.jsonl")
    append_run_record(
        ledger,
        RunRecord(
            timestamp=datetime.now(timezone.utc).isoformat(),
            config_digest=model.config_digest(config),
            seed=config.seed,
            command=command,
            outputs=tuple(outputs),
            summary=summary,
        ),
    )


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        raise UsageError(f"no config given (use --config or ${CONFIG_ENV_VAR})")
    config = model.load_config(path)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return model.validate_config(config)


def _dwell_pulses(config: ExperimentConfig, dwell_s) -> int:
    """Seconds flag converted through the repetition rate; when absent the
    config's per-acquisition pulse count is the dwell."""
    if dwell_s is None:
        return config.n_pulses
    if not math.isfinite(dwell_s):
        raise UsageError(f"dwell {dwell_s} s is not a finite number of seconds")
    dwell = config.pulses_for_seconds(dwell_s)
    if dwell < 1:
        raise UsageError("dwell too short for one pulse")
    if dwell > np.iinfo(np.int64).max:
        raise UsageError("dwell too long: more than 2**63 - 1 pulses")
    return dwell


def _parse_floats(text: str) -> list[float]:
    items = [t for t in text.replace(",", " ").split() if t]
    try:
        return [float(t) for t in items]
    except ValueError as exc:
        raise UsageError(f"bad numeric list {text!r}") from exc


def cmd_characterize(args: argparse.Namespace) -> int:
    config = _load_config(args)
    mus = _parse_floats(args.mu)
    if not mus:
        raise UsageError("empty mu list")
    bare = dataclasses.replace(config, channel=model.bare_channel(config.channel))
    points = [
        model.validate_config(
            dataclasses.replace(bare, source=dataclasses.replace(bare.source, mu=mu))
        )
        for mu in sorted(mus)
    ]
    dwell = _dwell_pulses(bare, args.dwell_s)

    lines = ["mu,n_pulses,n_signal,n_herald,n_coinc,g2,g2_err"]
    for i, cfg in enumerate(points):
        counts = simulate_counts(cfg, True, dwell, substream(cfg.seed, CHARACTERIZE_SPACE, i))
        try:
            g2 = estimate_g2(counts)
            g2_val, g2_err = repr(g2.value), repr(g2.std_err)
        except ValueError:
            g2_val = g2_err = "nan"
        lines.append(
            f"{cfg.source.mu!r},{counts.n_pulses},{counts.n_signal_clicks},"
            f"{counts.n_herald_clicks},{counts.n_coincidences},{g2_val},{g2_err}"
        )
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    _record_run(
        args.out,
        config,
        "characterize",
        [args.out],
        {"points": len(mus), "dwell_pulses": dwell},
    )
    print(f"wrote {args.out} ({len(mus)} points)")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    values = _parse_floats(args.values)
    if not values:
        raise UsageError("empty sweep values")
    if args.values_per_s:
        if args.variable != "background":
            raise UsageError("--values-per-s applies to the background variable only")
        values = [v / config.source.rep_rate_hz for v in values]
    dwell = _dwell_pulses(config, args.dwell_s)
    table = analytics.run_sweep(config, args.variable, values, dwell)
    analytics.sweep_to_csv(table, args.out)
    failed = [row.value for row in table.rows if row.error is not None]
    _record_run(
        args.out,
        config,
        "sweep",
        [args.out],
        {"variable": args.variable, "rows": len(table.rows), "failed_rows": len(failed)},
    )
    for row in table.rows:
        if row.error is not None:
            print(f"row {row.value!r} failed: {row.error}", file=sys.stderr)
    if len(failed) == len(table.rows):
        print("all sweep rows failed", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {args.out} ({len(table.rows) - len(failed)}/{len(table.rows)} rows ok)")
    return EXIT_OK


def cmd_image(args: argparse.Namespace) -> int:
    config = _load_config(args)
    scene = imaging.scene_from_pgm(args.scene)
    dwell = _dwell_pulses(config, args.dwell_s)
    ci, qi = imaging.raster_scan(scene, config, dwell)

    outputs = []
    for img, tag in ((ci, "ci"), (qi, "qi")):
        pgm_path = f"{args.out_prefix}_{tag}.pgm"
        csv_path = f"{args.out_prefix}_{tag}.csv"
        imaging.write_pgm(pgm_path, img.grid)
        imaging.image_to_csv(img, csv_path)
        outputs += [pgm_path, csv_path]
        if args.smooth and min(img.grid.shape) >= 2:
            smooth_path = f"{args.out_prefix}_{tag}_smooth.pgm"
            imaging.write_pgm(smooth_path, imaging.interpolate4(img).grid)
            outputs.append(smooth_path)

    summary: dict = {"dwell_pulses": dwell, "shape": list(scene.grid.shape)}
    levels = np.unique(scene.grid)
    if levels.size >= 2:
        mask = scene.grid > 0.5 * (levels.min() + levels.max())
        summary["ci_contrast"] = imaging.contrast(ci, mask)
        summary["qi_contrast"] = imaging.contrast(qi, mask)
        print(
            f"ci_contrast={summary['ci_contrast']:.4g} "
            f"qi_contrast={summary['qi_contrast']:.4g}"
        )
    _record_run(args.out_prefix + "_ci.pgm", config, "image", outputs, summary)
    print(f"wrote {', '.join(outputs)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qisim",
        description="Photon-pair standoff detection simulator and analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help=f"config JSON path (default ${CONFIG_ENV_VAR})")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--threads", type=int, default=1,
            help="accepted for compatibility; has no effect (every run is one process)",
        )

    p = sub.add_parser("characterize", help="source counts and correlation vs mu")
    common(p)
    p.add_argument("--mu", required=True, help="comma-separated mean photon numbers")
    p.add_argument("--dwell-s", type=float, default=None,
                   help="seconds per point (default: config n_pulses)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("sweep", help="toggled target in/out sweep")
    common(p)
    p.add_argument("--variable", choices=analytics.SWEEP_VARIABLES, required=True)
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.add_argument(
        "--values-per-s",
        action="store_true",
        help="interpret background values as counts/s instead of per bin",
    )
    p.add_argument("--dwell-s", type=float, default=None,
                   help="seconds per sweep point (default: config n_pulses)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("image", help="raster-scan a PGM reflectivity scene")
    common(p)
    p.add_argument("--scene", required=True, help="scene PGM (P2) path")
    p.add_argument("--dwell-s", type=float, default=None,
                   help="seconds per pixel (default: config n_pulses)")
    p.add_argument("--out-prefix", required=True, help="output path prefix")
    p.add_argument("--smooth", action="store_true", help="also write 2x upsampled PGMs")
    p.set_defaults(func=cmd_image)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
