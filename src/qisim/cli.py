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
its outputs, once every output is written and in place; a failed run
leaves no output and no record. Output files themselves carry no
timestamps, so a rerun with the same config, seed and arguments is
byte-identical.

Exit codes: 0 success, 2 usage error, 3 config or input error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import analytics, imaging, model
from .model import ExperimentConfig

CONFIG_ENV_VAR = "QISIM_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_IO = 4


class UsageError(Exception):
    pass


def _record_run(config: ExperimentConfig, command: str, writes: list, summary: dict) -> list[str]:
    """Write a run's outputs, then append its record to `runs.jsonl` beside
    the first; return the output paths.

    The record is serialized first. Each `(write, obj, path)` in writes
    calls `write(obj, tmp)`, tmp being `.NAME.PID.tmp` in path's directory.
    Once every output is written, each goes into place with `os.replace`,
    and only then is the record appended. A directory at a target or at the ledger, the
    one thing that could fail a replace after another has succeeded, is
    refused before anything is written, and any failure removes the
    temporaries: a failed run leaves no output and no record.
    """
    paths = [path for _, _, path in writes]
    ledger = os.path.join(os.path.dirname(os.path.abspath(paths[0])), "runs.jsonl")
    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config_digest": model.config_digest(config),
        "seed": config.seed,
        "command": command,
        "outputs": paths,
        "summary": summary,
    }
    # RFC 8259 JSON has no NaN or Infinity; a summary holds null instead
    line = json.dumps(record, sort_keys=True, allow_nan=False)
    for path in (*paths, ledger):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    # The writer creates its temporary as it would the output: one made by
    # mkstemp, then reopened, cost about 75 us more per file (ext4, 2 vCPUs).
    temps = [os.path.join(d, f".{name}.{os.getpid()}.tmp") for d, name in map(os.path.split, paths)]
    try:
        for (write, obj, _), tmp in zip(writes, temps):
            write(obj, tmp)
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise
    # Append-only by construction; existing records are never touched.
    with open(ledger, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return paths


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        raise UsageError(f"no config given (use --config or ${CONFIG_ENV_VAR})")
    config = model.load_config(path)
    # Every command draws from the closed form, which has no dead time yet;
    # `validate_config` accepts one, since `simulate_tags` applies it.
    if config.channel.dead_time_ps > 0:
        raise model.ConfigError(
            f"channel.dead_time_ps is {config.channel.dead_time_ps}, but the commands"
            " have no model of dead time; set it to 0"
        )
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _dwell_pulses(config: ExperimentConfig, dwell_s, default: int) -> int:
    """Seconds flag converted through the repetition rate; when absent the
    dwell is `default` pulses."""
    if dwell_s is not None and not math.isfinite(dwell_s):
        raise UsageError(f"dwell {dwell_s} s is not a finite number of seconds")
    try:
        dwell = default if dwell_s is None else config.pulses_for_seconds(dwell_s)
    except OverflowError:  # the pulse count is +-inf
        dwell = math.copysign(math.inf, dwell_s)
    if dwell < 1:
        raise UsageError("dwell too short for one pulse")
    if dwell > np.iinfo(np.int64).max:
        raise UsageError("dwell too long: more than 2**63 - 1 pulses")
    return dwell


def _whole_toggle_pairs(config: ExperimentConfig, dwell_s) -> int:
    """The sweep dwell in pulses, one in/out toggle pair without a seconds
    flag. A sweep exposes each target state for whole toggle periods, so its
    dwell must be a whole number of in/out toggle pairs. The error names the
    nearest dwells that are, up to 2**63 - 1 pulses."""
    pair, rate = 2 * config.toggle_period_pulses, config.source.rep_rate_hz
    dwell = _dwell_pulses(config, dwell_s, pair)
    if dwell % pair:
        whole = (k * pair for k in (dwell // pair, dwell // pair + 1))
        near = [f"{n / rate!r} s" for n in whole if 0 < n <= np.iinfo(np.int64).max]
        raise UsageError(
            f"sweep dwell {dwell / rate!r} s is not a whole number of target in/out toggle"
            f" pairs of {pair / rate!r} s; nearest accepted: {' or '.join(near) or 'none'}"
        )
    return dwell


def _report_unformed(kind: str, points: list[tuple[float, Optional[str]]]) -> None:
    """One stderr line per point with a statistic it could not form."""
    for value, error in points:
        if error is not None:
            print(f"{kind} {value!r}: {error}", file=sys.stderr)


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
    dwell = _dwell_pulses(config, args.dwell_s, config.n_pulses)
    points = analytics.run_characterize(config, mus, dwell)
    summary = {"points": len(points), "dwell_pulses": dwell}
    _record_run(config, "characterize", [(analytics.characterize_to_csv, points, args.out)], summary)
    _report_unformed("point", [(mu, error) for mu, _, _, error in points])
    print(f"wrote {args.out} ({len(points)} points)")
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
    dwell = _whole_toggle_pairs(config, args.dwell_s)
    table = analytics.run_sweep(config, args.variable, values, dwell)
    summary = {"variable": args.variable, "rows": len(table.rows), "dwell_pulses": dwell}
    _record_run(config, "sweep", [(analytics.sweep_to_csv, table, args.out)], summary)
    _report_unformed("row", [(row.value, row.error) for row in table.rows])
    print(f"wrote {args.out} ({len(table.rows)} rows)")
    return EXIT_OK


def cmd_image(args: argparse.Namespace) -> int:
    config = _load_config(args)
    scene = imaging.scene_from_pgm(args.scene)
    dwell = _dwell_pulses(config, args.dwell_s, config.n_pulses)
    ci, qi = imaging.raster_scan(scene, config, dwell)

    writes = []  # every image is built before the first file is written
    for img, tag in ((ci, "ci"), (qi, "qi")):
        prefix = f"{args.out_prefix}_{tag}"
        writes += [
            (imaging.write_pgm, img, prefix + ".pgm"), (imaging.image_to_csv, img, prefix + ".csv")
        ]
        if args.smooth:
            writes.append((imaging.write_pgm, imaging.interpolate4(img), prefix + "_smooth.pgm"))

    summary: dict = {"dwell_pulses": dwell, "shape": list(scene.grid.shape)}
    levels, report = np.unique(scene.grid), ""
    if levels.size >= 2:
        mask = scene.grid > 0.5 * (levels.min() + levels.max())
        ci_contrast, qi_contrast = imaging.contrast(ci, mask), imaging.contrast(qi, mask)
        report = f"ci_contrast={ci_contrast:.4g} qi_contrast={qi_contrast:.4g}\n"
        for key, value in (("ci_contrast", ci_contrast), ("qi_contrast", qi_contrast)):
            summary[key] = value if math.isfinite(value) else None
    outputs = _record_run(config, "image", writes, summary)
    print(f"{report}wrote {', '.join(outputs)}")
    return EXIT_OK


def _common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help=f"config JSON path (default ${CONFIG_ENV_VAR})")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument(
        "--dwell-s", type=float, default=None,
        help="seconds per point, sweep point or pixel (default: config n_pulses;"
        " for sweep, one target in/out toggle pair)",
    )
    p.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility; has no effect (every run is one process)",
    )


def _characterize_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", required=True, help="comma-separated mean photon numbers")
    p.add_argument("--out", required=True, help="output CSV path")


def _sweep_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variable", choices=analytics.SWEEP_VARIABLES, required=True)
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.add_argument(
        "--values-per-s",
        action="store_true",
        help="interpret background values as counts/s instead of per bin",
    )
    p.add_argument("--out", required=True, help="output CSV path")


def _image_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scene", required=True, help="scene PGM (P2) path")
    p.add_argument("--out-prefix", required=True, help="output path prefix")
    p.add_argument("--smooth", action="store_true", help="also write 2x upsampled PGMs")


_COMMANDS = {  # name: (help, own options, handler)
    "characterize": ("source counts and correlation vs mu", _characterize_options, cmd_characterize),
    "sweep": ("toggled target in/out sweep", _sweep_options, cmd_sweep),
    "image": ("raster-scan a PGM reflectivity scene", _image_options, cmd_image),
}


def build_parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The `qisim` parser. Every command is listed, so the top-level help,
    usage and errors name them all, but only `command`'s options, `-h`
    among them, are declared: a run parses one command's, and each
    `add_argument` builds a help formatter, which reads the terminal size."""
    parser = argparse.ArgumentParser(
        prog="qisim",
        description="Photon-pair standoff detection simulator and analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, options, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, add_help=name == command)
        if name == command:
            _common_options(p)
            options(p)
            p.set_defaults(func=func)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse runs the command that the first positional argument names, or
    # fails before any command parses. The top-level parser has no option
    # that takes a value, so every argument before that one is an option
    # string, which no command name is: the first command name in argv is
    # the command that runs. (Not argv[0]: `--seed=3 sweep ...` runs sweep.)
    parser = build_parser(next((arg for arg in argv if arg in _COMMANDS), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except model.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
