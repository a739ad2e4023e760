"""Raster-scan imaging of a reflectivity scene.

The beam stays fixed and the target moves; one acquisition per pixel
builds the image. Singles and coincidences come from the same simulated
acquisition per pixel, so the classical (CI) and pair-correlated (QI)
images are noise-correlated exactly as when both statistics are recorded
simultaneously. The background stays on for every pixel. The whole scan
is two vectorized binomial draws over the grid: each pixel's singles,
then the coincidences among them.

Scenes load from plain-text portable graymaps (PGM P2) with reflectivity
gray/maxval; images export to PGM P2 rescaled to maxval 65535 plus a raw
CSV of unscaled counts. The CSV holds integral counts below 1e16, each
written as `repr(float(count))`, that is its digits and `.0`; any other
grid (an `interpolate4` output, say) is rejected with a `ValueError`.
Scenes and images hold finite, non-empty grids in read-only arrays of
their own, and are frozen; two of them are equal only if they are the same
object, so they hash.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .channel import DIGIT_BOUNDS, put_digits
from .model import ExperimentConfig, click_pattern_probabilities
from .rng import PIXEL_SPACE, substream


def _owned(grid, kind: str) -> np.ndarray:
    """grid as a non-empty 2-D read-only float64 copy, which no caller can
    write through. The one copy is made here: a list or tuple is converted
    once, into an array of its own; anything else by the conversion or else
    by `copy`, as an array-like's `__array__` may ignore `copy=True` and
    hand over its own memory."""
    if isinstance(grid, (list, tuple)):
        g = np.array(grid, dtype=np.float64)
    else:
        g = np.asarray(grid)
        g = g.astype(np.float64) if g.dtype != np.float64 else g.copy()
    if g.ndim != 2 or min(g.shape) < 1:
        raise ValueError(f"{kind} grid must be a non-empty 2-D array")
    g.flags.writeable = False
    return g


@dataclass(frozen=True, eq=False)
class Scene:
    """Reflectivity map in [0, 1], held in a read-only array of its own."""

    grid: np.ndarray

    def __post_init__(self) -> None:
        grid = _owned(self.grid, "scene")
        if not np.all((grid >= 0) & (grid <= 1)):  # NaN fails too
            raise ValueError("scene reflectivity must lie in [0, 1]")
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True, eq=False)
class PixelImage:
    """Counts (or rates), finite and non-negative, held in a read-only
    array of its own."""

    grid: np.ndarray

    def __post_init__(self) -> None:
        grid = _owned(self.grid, "image")
        if not np.all((grid >= 0) & (grid < np.inf)):  # NaN fails too
            raise ValueError("image values must be finite and non-negative")
        object.__setattr__(self, "grid", grid)


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

    Of a pixel's four click patterns only two tallies make images: the
    singles CI = n11 + n10 and the coincidences QI = n11. They are drawn
    as the first two links of the multinomial's chain of conditional
    binomials (Devroye, Non-Uniform Random Variate Generation, 1986,
    ch. XI), CI ~ Bin(dwell, p_s) with p_s = p11 + p10, then
    QI ~ Bin(CI, p11 / p_s), so (CI, QI) has the multinomial's joint law
    and QI <= CI holds by construction. A pixel with p_s = 0 has CI = 0
    and takes the share as 0.
    """
    if dwell_pulses < 1:
        raise ValueError("dwell_pulses must be at least 1")
    pixels = replace(config.channel, target_reflectivity=scene.grid)
    p11, p10, _, _ = click_pattern_probabilities(config.source, pixels, True)
    p_s = p11 + p10
    share = np.divide(p11, p_s, out=np.zeros_like(p_s), where=p_s > 0)
    rng = substream(config.seed, PIXEL_SPACE)
    ci = rng.binomial(dwell_pulses, p_s)
    return PixelImage(ci), PixelImage(rng.binomial(ci, share))


def interpolate4(image: PixelImage) -> PixelImage:
    """Bilinear 2x upsampling used to smooth the pixelated scans.

    Output is (2H-1) x (2W-1): original samples sit at even indices,
    inserted samples average their 2 (edge) or 4 (face) nearest originals.
    An image of one row or one column raises `ValueError`.
    """
    g = image.grid
    h, w = g.shape
    if h < 2 or w < 2:
        raise ValueError(f"image of {h} x {w} pixels too small to interpolate: needs 2 x 2")
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


_PGM_COMMENT = rb"#[^\r\n]*"  # to the end of its line; compiled on first use
_PGM_ALLOWED = b"0123456789 \t\n\r\v\f"  # digits and the six bytes split() and fromstring split on


def read_pgm(path: str) -> tuple[np.ndarray, int]:
    """Read a P2 graymap; returns (values, maxval). Comments are skipped.
    Every other token must be ASCII digits, and maxval lies in [1, 65535].
    Samples may carry leading zeros. numpy's text parser reads them into
    int64, where a value too large to hold saturates at 2**63 - 1, so a
    sample above maxval, of any length, is out of range."""
    with open(path, "rb") as fh:
        data = re.sub(_PGM_COMMENT, b"", fh.read())
    tokens = data.split(None, 4)  # magic, width, height, maxval, samples
    if not tokens or tokens[0] != b"P2":
        raise ValueError("bad scene: not a plain PGM (P2) file")
    samples = tokens[4] if len(tokens) == 5 else b""
    # int() would also take signs and underscores; bytes.isdigit is ASCII only
    header_ok = len(tokens) >= 4 and b"".join(tokens[1:4]).isdigit()
    if not header_ok or samples.translate(None, _PGM_ALLOWED):
        raise ValueError("bad scene: malformed PGM header or samples")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError as exc:  # a header token of over 4300 digits
        raise ValueError("bad scene: malformed PGM header or samples") from exc
    if width < 1 or height < 1 or maxval < 1:
        raise ValueError("bad scene: non-positive PGM dimensions")
    if maxval > 65535:
        raise ValueError("bad scene: malformed PGM header or samples")
    # split() leaves no whitespace-only section, which fromstring would read as [0]
    values = np.fromstring(samples, dtype=np.int64, sep=" ")
    if values.size != width * height:
        raise ValueError("bad scene: sample count does not match dimensions")
    if np.any(values > maxval):
        raise ValueError("bad scene: sample out of range")
    return values.reshape(height, width), maxval


_ROW_BLOCK = 1 << 14  # samples per formatted block


def _row_blocks(grid: np.ndarray):
    """Slices of whole rows of grid, about `_ROW_BLOCK` samples each."""
    step = max(1, _ROW_BLOCK // grid.shape[1])
    return (grid[s : s + step] for s in range(0, grid.shape[0], step))


def _write_rows(fh, grid: np.ndarray, tail: bytes, sep: bytes) -> None:
    """Write a non-empty grid of integers in [0, 1e16) as one text line
    per row: each sample is its digits, then tail, then sep, with a
    newline in place of each row's last sep.

    Each block of whole rows becomes one uint8 matrix, a matrix row per
    sample holding its right-aligned digits, tail and sep, as wide as the
    block's largest sample needs. When the block's samples differ in digit
    count, one boolean compaction then drops each sample's unused leading
    columns; otherwise the matrix is written as it is.
    """
    w, end = grid.shape[1], np.frombuffer(tail + sep, np.uint8)
    for block in _row_blocks(grid):
        v = block.astype(np.int64).ravel()
        d = len(b"%d" % v.max())
        m = np.empty((v.size, d + end.size), np.uint8)
        put_digits(m[:, :d], v)
        m[:, d:] = end
        m[w - 1 :: w, -1] = ord("\n")
        if len(b"%d" % v.min()) < d:
            short = np.searchsorted(DIGIT_BOUNDS, v, side="right")  # digit count - 1
            m = m[np.arange(m.shape[1]) >= (d - 1 - short)[:, None]]
        fh.write(m)


def _write_p2(path: str, values: np.ndarray, maxval: int) -> None:
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(b"P2\n%d %d\n%d\n" % (w, h, maxval))
        _write_rows(fh, values, b"", b" ")


def write_pgm(image: PixelImage, path: str) -> None:
    """Write counts as P2, linearly rescaled so the peak maps to 65535
    (any positive peak, subnormal ones included)."""
    g = image.grid
    mant, e = math.frexp(float(g.max()))  # apart: 65535 / peak overflows at a subnormal peak
    scaled = np.ldexp(g, -e)
    scaled *= 65535 / mant if mant else 0.0
    _write_p2(path, np.rint(scaled, out=scaled), 65535)


def scene_from_pgm(path: str) -> Scene:
    values, maxval = read_pgm(path)
    return Scene(values.astype(np.float64) / maxval)


def scene_to_pgm(scene: Scene, path: str) -> None:
    """Write a scene as P2 with maxval 255."""
    _write_p2(path, np.rint(scene.grid * 255), 255)


def image_to_csv(image: PixelImage, path: str) -> None:
    """Raw unscaled counts, one CSV row per image row, each count written
    as `repr(float(count))`: its digits and `.0`.

    Only integral counts below 1e16 are written; from 1e16 on `repr`
    switches to exponent form. Any other grid raises `ValueError` before
    the file is opened.
    """
    for block in _row_blocks(image.grid):
        if not (block.max() < 1e16 and np.array_equal(block, np.floor(block))):
            raise ValueError("image CSV holds integral counts below 1e16 only")
    with open(path, "wb") as fh:
        _write_rows(fh, image.grid, b".0", b",")
