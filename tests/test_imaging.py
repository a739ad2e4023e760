import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qisim.imaging import (
    PixelImage,
    Scene,
    contrast,
    interpolate4,
    raster_scan,
    read_pgm,
    scene_from_pgm,
    scene_to_pgm,
    two_level_scene,
    write_pgm,
)
from qisim.model import (
    ChannelParams,
    ExperimentConfig,
    SourceParams,
    click_pattern_probabilities,
    validate_config,
)
from qisim.rng import substream

from .conftest import assert_within_sigma, binomial_std


def imaging_config(mu=7.9e-3, beta=0.0, seed=1, eta_sig=2e-5, eta_h=0.2, dark_per_s=1.0):
    # eta_sig is the full signal-arm product at unit reflectivity
    dark = dark_per_s / 80e6
    source = SourceParams(mu=mu, eta_herald=eta_h, noise_herald_per_bin=dark)
    channel = ChannelParams(
        eta_transmit=1.0,
        collection_fraction=eta_sig / 0.6,
        eta_signal_detector=0.6,
        background_per_bin=beta,
        dark_signal_per_bin=dark,
    )
    return validate_config(ExperimentConfig(source=source, channel=channel, seed=seed))


def image(grid):
    return PixelImage(np.asarray(grid, dtype=float))


class TestInterpolate4:
    def test_preserves_constants(self):
        out = interpolate4(image(np.full((3, 5), 2.5)))
        assert out.grid.shape == (5, 9)
        assert np.all(out.grid == 2.5)

    def test_hand_evaluated_stencil(self):
        out = interpolate4(image([[0.0, 2.0], [2.0, 4.0]]))
        expected = np.array([[0, 1, 2], [1, 2, 3], [2, 3, 4]], dtype=float)
        assert np.array_equal(out.grid, expected)

    def test_output_shape(self):
        out = interpolate4(image(np.zeros((3, 4))))
        assert out.grid.shape == (5, 7)

    def test_original_samples_preserved(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(0, 10, (4, 6))
        out = interpolate4(image(g))
        assert np.array_equal(out.grid[::2, ::2], g)

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            interpolate4(image(np.zeros((1, 5))))

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0, 1e6, allow_nan=False, allow_infinity=False))
    def test_constant_property(self, c):
        out = interpolate4(image(np.full((2, 2), c)))
        assert np.allclose(out.grid, c)


class TestContrast:
    def mask(self, shape):
        m = np.zeros(shape, dtype=bool)
        m[:, : shape[1] // 2] = True
        return m

    def test_identical_classes_is_zero(self):
        img = image(np.full((4, 4), 3.0))
        assert contrast(img, self.mask((4, 4))) == 0.0

    def test_zero_variance_separation_is_infinite(self):
        g = np.zeros((4, 4))
        g[:, :2] = 10.0
        assert contrast(image(g), self.mask((4, 4))) == math.inf
        assert contrast(image(-g + 10), self.mask((4, 4))) == -math.inf

    def test_poisson_separation(self):
        rng = np.random.default_rng(8)
        fg = rng.poisson(20.0, 1000)
        bg = rng.poisson(10.0, 1000)
        g = np.concatenate([fg, bg]).reshape(2, 1000).astype(float)
        mask = np.zeros((2, 1000), dtype=bool)
        mask[0] = True
        expected = 10.0 / math.sqrt(15.0)
        # estimator noise ~ sqrt(2/N) scale at contrast ~ 2.6
        assert_within_sigma(contrast(image(g), mask), expected, 0.07, "poisson contrast")

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            contrast(image(np.ones((2, 2))), np.ones((2, 2), dtype=bool))

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(5)
        g = rng.uniform(1, 10, (4, 4))
        m = self.mask((4, 4))
        base = contrast(image(g), m)
        scaled = contrast(image(g * scale), m)
        assert scaled == pytest.approx(base, rel=1e-9)


class TestRasterScan:
    def test_silent_scene_is_all_zero(self):
        cfg = imaging_config(mu=0.0, beta=0.0, dark_per_s=0.0)
        scene = Scene(np.ones((4, 4)))
        ci, qi = raster_scan(scene, cfg, dwell_pulses=10_000)
        assert not ci.grid.any()
        assert not qi.grid.any()

    def test_black_scene_accidentals(self):
        # reflectivity zero everywhere: QI pixels hold only herald-background
        # accidentals, whose per-pixel mean is P_h * P_b * dwell
        from qisim.analytics import click_probabilities

        beta = 14000.0 / 80e6
        cfg = imaging_config(beta=beta, seed=3)
        scene = Scene(np.zeros((8, 8)))
        dwell = 4_000_000
        _, qi = raster_scan(scene, cfg, dwell)
        bp = click_probabilities(cfg.source, cfg.channel, True)
        expected = bp.p_herald * bp.p_background * dwell
        observed = qi.grid.mean()
        assert_within_sigma(
            observed, expected, math.sqrt(expected / qi.grid.size), "accidental mean"
        )

    def test_determinism_and_kinds(self):
        cfg = imaging_config(beta=1e-4)
        scene, _ = two_level_scene(4, 4)
        a_ci, a_qi = raster_scan(scene, cfg, 100_000)
        b_ci, b_qi = raster_scan(scene, cfg, 100_000)
        assert np.array_equal(a_ci.grid, b_ci.grid)
        assert np.array_equal(a_qi.grid, b_qi.grid)
        # coincidences are a filtration of the singles from the same pass
        assert np.all(a_qi.grid <= a_ci.grid)

    def test_class_totals_match_closed_form(self):
        # non-square scene: a reshape or transpose error moves pixels between
        # classes, and a reflectivity applied twice shifts both class means
        _, mask = two_level_scene(6, 10)
        scene = Scene(np.where(mask, 0.6, 0.1))
        cfg = imaging_config(mu=0.025, eta_sig=6e-3, beta=1e-4, seed=21)
        dwell = 10_000_000
        ci, qi = raster_scan(scene, cfg, dwell)
        assert ci.grid.shape == qi.grid.shape == (6, 10)
        for label, level, sel in (("fg", 0.6, mask), ("bg", 0.1, ~mask)):
            channel = dataclasses.replace(cfg.channel, target_reflectivity=level)
            p11, p10, _, _ = click_pattern_probabilities(cfg.source, channel, True)
            n = int(sel.sum()) * dwell
            for name, img, p in (("CI", ci, p11 + p10), ("QI", qi, p11)):
                assert_within_sigma(img.grid[sel].sum(), n * p, binomial_std(n, p), f"{label} {name}")

    def test_contrast_flip_under_jamming(self):
        scene, mask = two_level_scene(8, 8)
        dwell = 800_000_000  # 10 s per pixel
        quiet = imaging_config(beta=0.0, seed=11)
        ci_q, qi_q = raster_scan(scene, quiet, dwell)
        assert contrast(ci_q, mask) >= contrast(qi_q, mask)

        jammed = imaging_config(beta=14000.0 / 80e6, seed=12)
        ci_j, qi_j = raster_scan(scene, jammed, dwell)
        assert contrast(qi_j, mask) > contrast(ci_j, mask)

    def test_converges_to_scene_without_background(self):
        # bright channel, long dwell: both images correlate with the scene
        scene = Scene(np.where(np.indices((16, 16)).sum(axis=0) % 2 == 0, 1.0, 0.2))
        cfg = imaging_config(mu=0.025, eta_sig=6e-3, eta_h=0.2, beta=0.0, dark_per_s=0.0, seed=13)
        ci, qi = raster_scan(scene, cfg, 10_000_000)
        for img in (ci, qi):
            corr = np.corrcoef(img.grid.ravel(), scene.grid.ravel())[0, 1]
            assert corr >= 0.99


class TestPgmIo:
    def test_scene_round_trip(self, tmp_path):
        scene, _ = two_level_scene(5, 7)
        path = tmp_path / "scene.pgm"
        scene_to_pgm(scene, str(path))
        back = scene_from_pgm(str(path))
        assert np.array_equal(back.grid, scene.grid)

    def test_image_rescaled_to_maxval(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(str(path), np.array([[0.0, 5.0], [10.0, 20.0]]))
        values, maxval = read_pgm(str(path))
        assert maxval == 65535
        assert values.max() == 65535
        assert values[0, 0] == 0

    def test_all_zero_image(self, tmp_path):
        path = tmp_path / "zero.pgm"
        write_pgm(str(path), np.zeros((2, 2)))
        values, _ = read_pgm(str(path))
        assert not values.any()

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_text("P2\n# a comment\n2 2\n255\n0 128\n255 64\n")
        values, maxval = read_pgm(str(path))
        assert values[1, 0] == 255 and maxval == 255

    @pytest.mark.parametrize(
        "content",
        [
            "P5\n2 2\n255\n0 0 0 0\n",  # binary magic
            "P2\n2 2\n255\n0 0 0\n",  # too few samples
            "P2\n2 2\n255\n0 0 0 999\n",  # out of range
            "hello\n",
        ],
    )
    def test_malformed_scene_rejected(self, tmp_path, content):
        path = tmp_path / "bad.pgm"
        path.write_text(content)
        with pytest.raises(ValueError, match="bad scene"):
            read_pgm(str(path))

    def test_scene_reflectivity_bounds(self):
        with pytest.raises(ValueError):
            Scene(np.array([[0.5, 1.5]]))
