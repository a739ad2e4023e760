import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qisim import imaging
from qisim.imaging import (
    PixelImage,
    Scene,
    contrast,
    image_to_csv,
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

    def test_one_pulse_dwell_is_the_shortest(self):
        cfg = imaging_config(mu=0.5, eta_sig=0.5, eta_h=0.5, beta=0.05, seed=2)
        ci, qi = raster_scan(Scene(np.full((16, 16), 0.8)), cfg, dwell_pulses=1)
        assert set(np.unique(ci.grid)) == {0.0, 1.0} and np.all(qi.grid <= ci.grid)
        with pytest.raises(ValueError, match="dwell_pulses must be at least 1"):
            raster_scan(Scene(np.ones((2, 2))), cfg, dwell_pulses=0)

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

    def test_joint_law_of_singles_and_coincidences(self):
        # Per pixel, (CI, QI) = (n11 + n10, n11) of one multinomial over
        # dwell pulses. On a uniform 128x128 scene each sample moment over
        # the pixels must lie within SIGMA of its own standard error
        # (normal-order forms) of N p_s (1 - p_s), N p11 (1 - p11) and, for
        # the covariance, N p11 (1 - p_s).
        cfg = imaging_config(mu=0.5, eta_sig=0.5, eta_h=0.5, beta=0.05, seed=26)
        dwell = 1000
        ci, qi = raster_scan(Scene(np.full((128, 128), 0.8)), cfg, dwell)
        channel = dataclasses.replace(cfg.channel, target_reflectivity=0.8)
        p11, p10, _, _ = click_pattern_probabilities(cfg.source, channel, True)
        p_s = p11 + p10
        x, y = ci.grid.ravel(), qi.grid.ravel()
        n = x.size
        var_x, var_y = dwell * p_s * (1 - p_s), dwell * p11 * (1 - p11)
        cov = dwell * p11 * (1 - p_s)
        assert_within_sigma(x.mean(), dwell * p_s, math.sqrt(var_x / n), "CI mean")
        assert_within_sigma(y.mean(), dwell * p11, math.sqrt(var_y / n), "QI mean")
        assert_within_sigma(x.var(ddof=1), var_x, var_x * math.sqrt(2 / n), "CI variance")
        assert_within_sigma(y.var(ddof=1), var_y, var_y * math.sqrt(2 / n), "QI variance")
        cov_std = math.sqrt((var_x * var_y + cov**2) / n)
        assert_within_sigma(np.cov(x, y)[0, 1], cov, cov_std, "CI-QI covariance")

    def test_large_mu_with_unit_herald_is_all_coincidences(self):
        # every pulse clicks both detectors; mu eta_sig eta_h = 720 is past
        # exp's overflow at ~709.78, so the patterns must not go NaN there
        cfg = imaging_config(mu=1200.0, eta_sig=0.6, eta_h=1.0)
        dwell = 10**12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ci, qi = raster_scan(Scene(np.ones((3, 4))), cfg, dwell)
        assert np.all(ci.grid == dwell)
        assert np.all(qi.grid == dwell)

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
        write_pgm(image(np.array([[0.0, 5.0], [10.0, 20.0]])), str(path))
        values, maxval = read_pgm(str(path))
        assert maxval == 65535
        assert values.max() == 65535
        assert values[0, 0] == 0

    @pytest.mark.parametrize(
        "grid", [[[0.0, 5e-324]], [[2e-310, 1e-310]], [[1e-320, 3e-321], [0.0, 2.5e-315]]]
    )
    def test_subnormal_peak_scales_like_a_normal_one(self, tmp_path, grid):
        # 65535 / peak overflowed for such peaks, and the samples were
        # written from NaN and inf cast to int64
        g = np.array(grid)
        tiny, normal = tmp_path / "tiny.pgm", tmp_path / "normal.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_pgm(image(g), str(tiny))
            write_pgm(image(g * 2.0**1000), str(normal))
        assert tiny.read_bytes() == normal.read_bytes()
        assert read_pgm(str(tiny))[0].max() == 65535

    def test_all_zero_image(self, tmp_path):
        path = tmp_path / "zero.pgm"
        write_pgm(image(np.zeros((2, 2))), str(path))
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

    @pytest.mark.parametrize(
        "content,message",
        [
            ("P2\n2 1\n255\n+5 0\n", "malformed"),  # int() takes a sign,
            ("P2\n2 1\n255\n1_0 0\n", "malformed"),  # underscores
            ("P2\n2 1\n255\n-0 0\n", "malformed"),  # and a negative zero
            ("P2\n2 1\n2_55\n5 0\n", "malformed"),
            ("P2\n2 1\n65536\n5 0\n", "malformed"),  # the Netpbm maxval limit
            ("P2\n2 1\n0\n0 0\n", "non-positive"),
            ("P2\n2 1\n255\n%s 0\n" % ("9" * 30), "sample out of range"),  # past int64
            pytest.param(f"P2 2 1 255 {2**63} 0", "sample out of range", id="2**63"),
            pytest.param(f"P2 2 1 255 {2**64 + 5} 0", "sample out of range", id="2**64+5"),
            # past int()'s 4300-digit limit
            pytest.param("P2 2 1 255 %s 0" % ("9" * 5000), "sample out of range", id="9*5000"),
            pytest.param("P2\n2 1\n255\n", "sample count does not", id="no samples"),
            pytest.param("", "not a plain PGM", id="empty file"),
        ],
    )
    def test_tokens_pgm_does_not_allow_rejected(self, tmp_path, content, message):
        path = tmp_path / "bad.pgm"
        path.write_text(content)
        with pytest.raises(ValueError, match=f"^bad scene: {message}"):
            read_pgm(str(path))

    def test_samples_are_separated_by_ascii_whitespace(self, tmp_path):
        path = tmp_path / "ws.pgm"
        path.write_bytes(b"P2 4 1 255\t1\v2\f3\r\n4")
        assert read_pgm(str(path))[0].tolist() == [[1, 2, 3, 4]]
        path.write_bytes(b"P2 2 1 255 1\x1c2")  # a separator to str.split, not to PGM
        with pytest.raises(ValueError, match="^bad scene: malformed"):
            read_pgm(str(path))

    def test_largest_maxval_read(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_text("P2\n2 1\n65535\n65535 00007\n")
        values, maxval = read_pgm(str(path))
        assert maxval == 65535 and values.tolist() == [[65535, 7]]

    def test_leading_zeros_of_any_length_are_read(self, tmp_path):
        path = tmp_path / "zeros.pgm"
        path.write_text("P2\n2 1\n255\n" + "0" * 5000 + "7 0\n")
        assert read_pgm(str(path))[0].tolist() == [[7, 0]]

    @settings(
        max_examples=300, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        maxval=st.integers(1, 65535),
        samples=st.lists(
            st.tuples(
                st.builds(lambda z, v: "0" * z + str(v), st.integers(0, 20), st.integers(0, 65535))
                | st.text("0123456789", min_size=1, max_size=25),
                st.text(" \t\n\r\v\f", min_size=1, max_size=3),
                st.none() | st.text("# 0123456789P\t", max_size=6),  # a comment to line end
            ),
            min_size=1, max_size=12,
        ),
    )
    def test_samples_read_like_int_of_each_token(self, tmp_path, maxval, samples):
        # Oracle: int() of each whitespace-separated token, with comments
        # cut; a value above maxval, however many digits, is out of range.
        text = "".join(t + sep + ("" if c is None else f"#{c}\n") for t, sep, c in samples)
        clean = "".join(t + sep + ("" if c is None else "\n") for t, sep, c in samples)
        expected = [int(t) for t in clean.split()]
        path = tmp_path / "oracle.pgm"
        path.write_text(f"P2\n{len(expected)} 1\n{maxval}\n{text}", newline="")
        if max(expected) <= maxval:
            values, got_maxval = read_pgm(str(path))
            assert values.tolist() == [expected] and got_maxval == maxval
        else:
            with pytest.raises(ValueError, match="^bad scene: sample out of range$"):
                read_pgm(str(path))

    def test_scene_reflectivity_bounds(self):
        with pytest.raises(ValueError):
            Scene(np.array([[0.5, 1.5]]))

    def test_scene_rejects_nan(self):
        with pytest.raises(ValueError, match="reflectivity"):
            Scene(np.array([[math.nan, 0.5]]))

    @pytest.mark.parametrize(
        "grid,message",
        [
            ([[math.nan, 1.0]], "finite and non-negative"),
            ([[math.inf, 1.0]], "finite and non-negative"),
            ([[-math.inf, 1.0]], "finite and non-negative"),
            (np.zeros((0, 3)), "non-empty"),
        ],
    )
    def test_image_rejects_non_finite_and_empty_grids(self, grid, message):
        with pytest.raises(ValueError, match=message):
            PixelImage(np.asarray(grid, dtype=float))


@pytest.mark.parametrize("kind", [Scene, PixelImage])
class TestOwnedGrids:
    def test_caller_mutation_leaves_the_object_unchanged(self, kind):
        values = np.array([[0.0, 0.5], [1.0, 0.25]])
        whole, column = kind(values), kind(values[:, :1])
        values[:] = 0.75
        assert whole.grid.tolist() == [[0.0, 0.5], [1.0, 0.25]]
        assert column.grid.tolist() == [[0.0], [1.0]]

        class Holder:
            """An array-like that hands out its own float64 array unless asked for a copy."""

            values = np.ones((2, 2))

            def __array__(self, dtype=None, copy=None):
                return self.values.copy() if copy else self.values

        holder = Holder()
        obj = kind(holder)
        holder.values[0, 0] = 7.0
        assert obj.grid.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    @pytest.mark.parametrize("source_dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("wrap", [False, True], ids=["array", "ignores-copy"])
    def test_every_grid_becomes_an_unshared_read_only_float64(self, kind, source_dtype, wrap):
        class Holder:
            """An array-like that hands out its own array even when asked for a copy."""

            values = np.ones((2, 2), dtype=source_dtype)

            def __array__(self, dtype=None, copy=None):
                return self.values

        holder = Holder()
        obj = kind(holder if wrap else holder.values)
        assert obj.grid.dtype == np.float64 and not obj.grid.flags.writeable
        assert not np.shares_memory(obj.grid, holder.values)
        assert holder.values.flags.writeable
        holder.values[0, 0] = 0
        assert obj.grid.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    @pytest.mark.parametrize("source_dtype", [np.int64, np.float64])
    def test_one_copy_is_made(self, kind, source_dtype):
        # the copy, then the value check's masks: about 1.38 grids; a second
        # copy of a converted grid made it 2.0
        grid = np.ones((128, 128), dtype=source_dtype)
        tracemalloc.start()
        try:
            kind(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * grid.size * 8

    def test_a_list_is_converted_once(self, kind):
        # the conversion, then the value check's masks: about 1.4 grids;
        # converted and then copied, 2.0
        grid = [[1.0] * 128 for _ in range(128)]
        tracemalloc.start()
        try:
            kind(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * 128 * 128 * 8

    def test_writing_into_the_grid_raises(self, kind):
        obj = kind(np.ones((2, 2)))
        with pytest.raises(ValueError, match="read-only"):
            obj.grid[0, 0] = 0.5
        assert obj.grid.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_assigning_the_grid_raises(self, kind):
        obj = kind(np.ones((2, 2)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.grid = np.zeros((2, 2))

    def test_equal_only_to_itself_and_hashable(self, kind):
        # a dataclass __eq__ over the array field raised ValueError, and its
        # __hash__ TypeError
        obj, twin = kind(np.ones((2, 2))), kind(np.ones((2, 2)))
        assert obj == obj and obj != twin and not obj == twin
        assert len({obj, twin, obj}) == 2 and hash(obj) == hash(obj)


SHARED_TMP_PATH = HealthCheck.function_scoped_fixture
P2_TOP = 65535
CSV_TOP = 9999999999999998  # the largest float64 below 1e16


def count_grids(top):
    """Integral float64 grids of 1-40 x 1-40 counts in [0, top], rich in
    the values where the digit count changes."""
    edges = [v for k in range(1, 17) for v in (10**k - 1, 10**k) if v < top]
    values = st.sampled_from([0, *edges, top]) | st.integers(0, top)
    shapes = st.tuples(st.integers(1, 40), st.integers(1, 40))
    return hnp.arrays(np.int64, shapes, elements=values).map(lambda a: a.astype(np.float64))


# Row blocks of 1-64 samples cut grids of 1-40 columns at every row count,
# including widths that do not divide the block; the default takes a whole grid.
ROW_BLOCKS = st.integers(1, 64) | st.just(imaging._ROW_BLOCK)


def join_write_pgm(path, grid):
    """The former writer, one `str` per sample: the oracle for `write_pgm`."""
    g = np.asarray(grid, dtype=np.float64)
    peak = float(g.max())
    scaled = np.zeros_like(g, dtype=np.int64) if peak <= 0 else np.rint(g * (65535 / peak)).astype(np.int64)
    h, w = scaled.shape
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"P2\n{w} {h}\n65535\n")
        for row in scaled:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def repr_image_to_csv(image, path):
    """The former writer, one `repr` per sample: the oracle for `image_to_csv`."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in image.grid:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


class TestImageWriters:
    @settings(max_examples=150, deadline=None, suppress_health_check=[SHARED_TMP_PATH])
    @given(grid=count_grids(P2_TOP), block=ROW_BLOCKS)
    def test_pgm_matches_join_writer_and_reads_back(self, grid, block, tmp_path):
        grid[-1, -1] = P2_TOP  # peak 65535: every drawn count is written unscaled
        new, old = tmp_path / "new.pgm", tmp_path / "old.pgm"
        with mock.patch.object(imaging, "_ROW_BLOCK", block):
            write_pgm(image(grid), str(new))
        join_write_pgm(str(old), grid)
        assert new.read_bytes() == old.read_bytes()
        values, maxval = read_pgm(str(new))
        assert maxval == P2_TOP
        assert np.array_equal(values, grid)

    @settings(max_examples=150, deadline=None, suppress_health_check=[SHARED_TMP_PATH])
    @given(grid=count_grids(CSV_TOP), block=ROW_BLOCKS)
    def test_csv_matches_repr_writer(self, grid, block, tmp_path):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        with mock.patch.object(imaging, "_ROW_BLOCK", block):
            image_to_csv(PixelImage(grid), str(new))
        repr_image_to_csv(PixelImage(grid), str(old))
        assert new.read_bytes() == old.read_bytes()

    def test_one_width_blocks_are_written_without_compaction(self, tmp_path):
        # every sample has 5 digits, so no block looks up digit counts
        grid = np.random.default_rng(5).integers(10**4, P2_TOP, (30, 40)).astype(np.float64)
        grid[0, 0] = P2_TOP
        new, old = tmp_path / "new.pgm", tmp_path / "old.pgm"
        with mock.patch.object(imaging.np, "searchsorted", side_effect=AssertionError):
            write_pgm(image(grid), str(new))
        join_write_pgm(str(old), grid)
        assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize(
        "block, compacted",
        [
            (imaging._ROW_BLOCK, 1),  # one block holding 1- and 5-digit samples
            (3, 1),  # a block per row: 5 digits, mixed, 1 digit, 5 digits
        ],
    )
    def test_mixed_width_blocks_are_compacted(self, block, compacted, tmp_path):
        grid = np.array(
            [[P2_TOP, 10**4, 54321], [0, P2_TOP, 9], [1, 2, 3], [P2_TOP, P2_TOP, P2_TOP]], float
        )
        new, old = tmp_path / "new.pgm", tmp_path / "old.pgm"
        with (
            mock.patch.object(imaging, "_ROW_BLOCK", block),
            mock.patch.object(imaging.np, "searchsorted", wraps=np.searchsorted) as lookup,
        ):
            write_pgm(image(grid), str(new))
        join_write_pgm(str(old), grid)
        assert new.read_bytes() == old.read_bytes()
        assert lookup.call_count == compacted

    def test_csv_exact_bytes(self, tmp_path):
        path = tmp_path / "img.csv"
        image_to_csv(image([[0, 12], [345, 6789]]), str(path))
        assert path.read_bytes() == b"0.0,12.0\n345.0,6789.0\n"

    @pytest.mark.parametrize(
        "grid",
        [
            interpolate4(image([[0.0, 1.0], [2.0, 4.0]])).grid,  # holds 0.5 and 1.75
            [[1e16]],  # repr writes 1e+16
            [[float(10**16 - 1)]],  # rounds to 1e16 in float64
            [[3.0, 2.0**70]],
        ],
    )
    def test_csv_rejects_non_integral_and_huge_counts(self, tmp_path, grid):
        path = tmp_path / "img.csv"
        with pytest.raises(ValueError, match="integral counts below 1e16"):
            image_to_csv(image(grid), str(path))
        assert not path.exists()

    def test_writers_hold_no_whole_grid_temporaries(self, tmp_path):
        # On a 1024 x 1024 grid the CSV writer holds one row block at a time,
        # and the PGM writer one rescaled 8 MB copy of the grid plus a block.
        grid = np.random.default_rng(4).integers(0, 10**6, (1024, 1024)).astype(np.float64)
        img = PixelImage(grid)
        for write, limit_mb in (
            (lambda: image_to_csv(img, str(tmp_path / "img.csv")), 2),
            (lambda: write_pgm(img, str(tmp_path / "img.pgm")), 12),
        ):
            tracemalloc.start()
            try:
                write()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit_mb * 2**20
