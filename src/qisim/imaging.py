"""Raster-scan imaging of a reflectivity scene.

The beam stays fixed and the target moves; one acquisition per pixel
builds the image. Singles and coincidences come from the same simulated
acquisition per pixel, so the classical (CI) and pair-correlated (QI)
images are noise-correlated exactly as when both statistics are recorded
simultaneously. The background stays on for every pixel. The whole scan
is one multinomial draw over per-pixel click-pattern probabilities.

Scenes load from plain-text portable graymaps (PGM P2) with reflectivity
gray/maxval; images export to PGM P2 rescaled to maxval 65535 plus a raw
CSV of unscaled counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ExperimentConfig, click_pattern_probabilities, validate_config
from .rng import PIXEL_SPACE, substream


@dataclass
class Scene:
    """Reflectivity map in [0, 1]."""

    grid: np.ndarray

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=np.float64)
        if self.grid.ndim != 2 or min(self.grid.shape) < 1:
            raise ValueError("scene grid must be a 2-D array")
        if np.any(self.grid < 0) or np.any(self.grid > 1):
            raise ValueError("scene reflectivity must lie in [0, 1]")


@dataclass
class PixelImage:
    grid: np.ndarray  # counts (or rates), non-negative

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=np.float64)
        if self.grid.ndim != 2:
            raise ValueError("image grid must be a 2-D array")
        if np.any(self.grid < 0):
            raise ValueError("image values must be non-negative")


def two_level_scene(height: int, width: int) -> tuple[Scene, np.ndarray]:
    """Centered block of reflectivity 1 on a field of 0; returns (scene, foreground mask)."""
    mask = np.zeros((height, width), dtype=bool)
    mask[height // 4 : height - height // 4, width // 4 : width - width // 4] = True
    return Scene(mask.astype(np.float64)), mask


def raster_scan(
    scene: Scene,
    config: ExperimentConfig,
    dwell_pulses: int,
    max_workers: int = 1,
) -> tuple[PixelImage, PixelImage]:
    """Acquire CI (singles) and QI (coincidence) images of the scene.

    Each pixel is an independent acquisition with the scene's reflectivity
    at that pixel. The scan runs in this process and draws all pixels at
    once from one generator keyed by (seed, PIXEL_SPACE), so a rerun with
    the same seed is identical. max_workers is accepted for compatibility
    and has no effect.
    """
    validate_config(config)
    if dwell_pulses < 1:
        raise ValueError("dwell_pulses must be at least 1")
    pixels = replace(config.channel, target_reflectivity=scene.grid.ravel())
    patterns = np.stack(click_pattern_probabilities(config.source, pixels, True), axis=-1)
    counts = substream(config.seed, PIXEL_SPACE).multinomial(dwell_pulses, patterns)
    n11, n10 = counts[:, 0], counts[:, 1]
    shape = scene.grid.shape
    return (
        PixelImage((n11 + n10).reshape(shape)),
        PixelImage(n11.reshape(shape)),
    )


def interpolate4(image: PixelImage) -> PixelImage:
    """Bilinear 2x upsampling used to smooth the pixelated scans.

    Output is (2H-1) x (2W-1): original samples sit at even indices,
    inserted samples average their 2 (edge) or 4 (face) nearest originals.
    """
    g = image.grid
    h, w = g.shape
    if h < 2 or w < 2:
        raise ValueError("image too small to interpolate")
    out = np.zeros((2 * h - 1, 2 * w - 1), dtype=np.float64)
    out[::2, ::2] = g
    out[::2, 1::2] = 0.5 * (g[:, :-1] + g[:, 1:])
    out[1::2, ::2] = 0.5 * (g[:-1, :] + g[1:, :])
    out[1::2, 1::2] = 0.25 * (g[:-1, :-1] + g[:-1, 1:] + g[1:, :-1] + g[1:, 1:])
    return PixelImage(out)


def contrast(image: PixelImage, foreground_mask: np.ndarray) -> float:
    """Separation of foreground from background in pooled-noise units.

    (mean_fg - mean_bg) / sqrt((var_fg + var_bg)/2). Zero when both
    classes are identical constants; infinite when the classes separate
    with zero variance. May be negative.
    """
    mask = np.asarray(foreground_mask, dtype=bool)
    if mask.shape != image.grid.shape:
        raise ValueError("mask shape must match image shape")
    fg = image.grid[mask]
    bg = image.grid[~mask]
    if fg.size == 0 or bg.size == 0:
        raise ValueError("mask must select at least one pixel of each class")
    delta = float(np.mean(fg) - np.mean(bg))
    pooled = 0.5 * (float(np.var(fg)) + float(np.var(bg)))
    if pooled == 0.0:
        if delta == 0.0:
            return 0.0
        return math.inf if delta > 0 else -math.inf
    return delta / math.sqrt(pooled)


# ---------------------------------------------------------------------------
# Plain-text portable graymap (PGM P2) I/O
# ---------------------------------------------------------------------------


def read_pgm(path: str) -> tuple[np.ndarray, int]:
    """Read a P2 graymap; returns (values, maxval). Comments are skipped."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        tokens: list[str] = []
        for line in fh:
            body = line.split("#", 1)[0]
            tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError("bad scene: not a plain PGM (P2) file")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
        values = np.array([int(t) for t in tokens[4:]], dtype=np.int64)
    except (ValueError, IndexError) as exc:
        raise ValueError("bad scene: malformed PGM header or samples") from exc
    if width < 1 or height < 1 or maxval < 1:
        raise ValueError("bad scene: non-positive PGM dimensions")
    if values.size != width * height:
        raise ValueError("bad scene: sample count does not match dimensions")
    if np.any(values < 0) or np.any(values > maxval):
        raise ValueError("bad scene: sample out of range")
    return values.reshape(height, width), maxval


def _write_p2(path: str, values: np.ndarray, maxval: int) -> None:
    h, w = values.shape
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"P2\n{w} {h}\n{maxval}\n")
        for row in values:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def write_pgm(path: str, grid: np.ndarray) -> None:
    """Write counts as P2, linearly rescaled so the peak maps to 65535."""
    g = np.asarray(grid, dtype=np.float64)
    peak = float(g.max()) if g.size else 0.0
    scaled = np.zeros_like(g, dtype=np.int64) if peak <= 0 else np.rint(g * (65535 / peak)).astype(np.int64)
    _write_p2(path, scaled, 65535)


def scene_from_pgm(path: str) -> Scene:
    values, maxval = read_pgm(path)
    return Scene(values.astype(np.float64) / maxval)


def scene_to_pgm(scene: Scene, path: str) -> None:
    """Write a scene as P2 with maxval 255."""
    _write_p2(path, np.rint(scene.grid * 255).astype(np.int64), 255)


def image_to_csv(image: PixelImage, path: str) -> None:
    """Raw unscaled counts, one CSV row per image row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in image.grid:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
