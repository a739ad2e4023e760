#!/usr/bin/env python3
"""Raster-scan imaging demo: singles versus coincidence images.

Scans a two-level scene four ways: jamming off, jamming on at equal dwell,
and jamming on with a six-fold dwell for the singles image. Without
background the singles (CI) image is sharper; under jamming the
coincidence (QI) image wins, and a short QI scan rivals a much longer CI
scan.

Writes scene and image PGMs (plus smoothed versions) and prints contrasts.
"""

import argparse
import os

from qisim.imaging import (
    contrast,
    interpolate4,
    raster_scan,
    scene_to_pgm,
    two_level_scene,
    write_pgm,
)
from qisim.model import ChannelParams, ExperimentConfig, SourceParams


def imaging_config(background_cps: float, seed: int) -> ExperimentConfig:
    rep = 80e6
    dark = 1.0 / rep
    return ExperimentConfig(
        source=SourceParams(mu=7.9e-3, eta_herald=0.2, noise_herald_per_bin=dark),
        channel=ChannelParams(
            eta_transmit=1.0,
            collection_fraction=2e-5 / 0.6,
            eta_signal_detector=0.6,
            background_per_bin=background_cps / rep,
            dark_signal_per_bin=dark,
        ),
        seed=seed,
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=4)
    ap.add_argument("--dwell-s", type=float, default=25.0, help="seconds per pixel")
    ap.add_argument("--background-cps", type=float, default=14000.0)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    scene, mask = two_level_scene(16, 16)
    scene_to_pgm(scene, os.path.join(args.out_dir, "scene.pgm"))
    quiet = imaging_config(0.0, args.seed)
    dwell = quiet.pulses_for_seconds(args.dwell_s)

    runs = [
        ("quiet", quiet, dwell),
        ("jammed", imaging_config(args.background_cps, args.seed + 1), dwell),
        ("jammed_6x", imaging_config(args.background_cps, args.seed + 2), 6 * dwell),
    ]
    for label, cfg, pulses in runs:
        ci, qi = raster_scan(scene, cfg, pulses)
        for img, tag in ((ci, "ci"), (qi, "qi")):
            write_pgm(os.path.join(args.out_dir, f"{label}_{tag}.pgm"), img.grid)
            write_pgm(
                os.path.join(args.out_dir, f"{label}_{tag}_smooth.pgm"),
                interpolate4(img).grid,
            )
        print(
            f"{label:>10} ({pulses / cfg.source.rep_rate_hz:g} s/px): "
            f"CI contrast {contrast(ci, mask):6.2f}, QI contrast {contrast(qi, mask):6.2f}"
        )
    print(f"images under {args.out_dir}/")


if __name__ == "__main__":
    main()
