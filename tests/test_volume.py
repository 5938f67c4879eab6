"""Grid types, interpolation, smoothing, and downsampling."""

import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cineprop.errors import InvalidParameterError
from cineprop.volume import (
    CineSeries,
    LabelMap,
    ScalarVolume,
    _BLOCK_POINTS,
    _trilinear,
    downsample2x,
    gaussian_kernel,
    gaussian_smooth_array,
    nearest_sample_many,
    trilinear_sample,
    trilinear_sample_many,
)
from helpers import (
    dense_gaussian_oracle,
    random_volume,
    sampled_gaussian_oracle,
    separable_smooth_oracle,
    trilinear_long_hand,
    trilinear_oracle,
)


class TestScalarVolume:
    def test_rejects_nan(self):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        data[0, 0, 0] = np.nan
        with pytest.raises(InvalidParameterError):
            ScalarVolume(data)

    def test_rejects_bad_spacing(self):
        with pytest.raises(InvalidParameterError):
            ScalarVolume(np.zeros((2, 2, 2)), (1.0, 0.0, 1.0))

    def test_rejects_non_3d(self):
        with pytest.raises(InvalidParameterError):
            ScalarVolume(np.zeros((2, 2)))

    def test_immutable(self):
        vol = ScalarVolume(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 1.0

    def test_voxels_are_x_fastest(self):
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        vol = ScalarVolume(data)
        # flat[i + nx*j + nx*ny*k]
        assert vol.voxels[1] == data[1, 0, 0]
        assert vol.voxels[2] == data[0, 1, 0]
        assert vol.voxels[4] == data[0, 0, 1]


class TestLabelMap:
    def test_rejects_out_of_range_code(self):
        with pytest.raises(InvalidParameterError):
            LabelMap(np.full((2, 2, 2), 4, dtype=np.uint8))

    def test_accepts_all_codes(self):
        lm = LabelMap(np.arange(4, dtype=np.uint8).reshape(4, 1, 1))
        assert sorted(np.unique(lm.data)) == [0, 1, 2, 3]


class TestCineSeries:
    def _frames(self, n):
        rng = np.random.default_rng(0)
        return tuple(ScalarVolume(rng.normal(size=(4, 4, 4))) for _ in range(n))

    def test_rejects_equal_template_indices(self):
        lab = LabelMap(np.zeros((4, 4, 4), dtype=np.uint8))
        with pytest.raises(InvalidParameterError):
            CineSeries(self._frames(4), 1, 1, lab, lab)

    def test_rejects_mismatched_label_grid(self):
        lab = LabelMap(np.zeros((3, 3, 3), dtype=np.uint8))
        with pytest.raises(InvalidParameterError):
            CineSeries(self._frames(4), 0, 3, lab, lab)


class TestTrilinear:
    def test_constant_field(self):
        vol = ScalarVolume(np.full((4, 4, 4), 5.0, dtype=np.float32))
        for p in [(0.3, 1.7, 2.2), (-1.0, 0.0, 9.0), (3.0, 3.0, 3.0)]:
            assert trilinear_sample(vol, p) == 5.0

    def test_lattice_points_exact(self):
        rng = np.random.default_rng(1)
        vol = ScalarVolume(rng.normal(100, 20, size=(5, 4, 3)).astype(np.float32))
        for i in range(5):
            for j in range(4):
                for k in range(3):
                    assert trilinear_sample(vol, (i, j, k)) == float(vol.data[i, j, k])

    def test_linear_blend(self):
        vol = ScalarVolume(np.array([0.0, 10.0], dtype=np.float32).reshape(2, 1, 1))
        assert trilinear_sample(vol, (0.25, 0, 0)) == pytest.approx(2.5, abs=1e-12)

    def test_matches_long_hand_oracle(self):
        # float64 data is interpolated in float64; a volume's float32 result is pinned bit for bit by the oracle below
        rng = np.random.default_rng(2)
        vol = random_volume(rng, max_dim=6)
        data = vol.data.astype(np.float64)
        for _ in range(50):
            p = rng.uniform(-2, 8, size=3)
            expected = trilinear_long_hand(vol, *p)
            assert float(_trilinear(data, *p[:, None])[0]) == pytest.approx(expected, abs=1e-9)

    def test_convex_bounds(self):
        rng = np.random.default_rng(3)
        vol = random_volume(rng, max_dim=5)
        lo, hi = float(vol.data.min()), float(vol.data.max())
        pts = rng.uniform(-1, 6, size=(200, 3))
        vals = trilinear_sample_many(vol, pts[:, 0], pts[:, 1], pts[:, 2])
        assert vals.dtype == np.float32  # the volume's own precision
        assert np.all(vals >= lo - 1e-9) and np.all(vals <= hi + 1e-9)

    @pytest.mark.parametrize("shape", [(5, 4, 3), (5, 4, 1)])
    def test_channels_match_per_channel_calls(self, shape):
        # one call over channel-major planes shares cell indices and weights, bit for bit
        rng = np.random.default_rng(4)
        data = rng.normal(size=(4, *shape)).astype(np.float32)
        pts = rng.uniform(-1.5, 6.5, size=(3, 300))
        out = _trilinear(data, *pts)
        assert out.shape == (4, 300) and out.dtype == np.float32
        for c in range(4):
            assert np.array_equal(out[c], _trilinear(data[c], *pts))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_channels", [1, 3, 4])
    @pytest.mark.parametrize("shape", [(5, 4, 3), (1, 4, 3), (5, 1, 3), (5, 4, 1)])
    def test_matches_fancy_index_oracle(self, shape, n_channels, dtype):
        # raw bits, not values: every float32 fraction, corner difference and lerp must round as the oracle's
        rng = np.random.default_rng(5)
        # mixed signs: a float32 difference of two corners then rounds, so float64 differences would show
        data = rng.normal(0.0, 100.0, size=shape if n_channels == 1 else (n_channels, *shape)).astype(dtype)
        # inside and beyond every face, plus integers: lattice points, the faces and one voxel past them
        scattered = [np.concatenate([rng.uniform(-2.0, n + 1.0, 250), rng.integers(-1, n + 1, 50)]) for n in shape]
        # every point of a grid at half-voxel steps, raveled: fine index i at coarse position i/2
        dense = [g.ravel() for g in np.meshgrid(*[np.arange(2 * n + 1) * 0.5 for n in shape], indexing="ij")]
        # one position, past the upper face along a length-1 axis
        single = [np.array([0.75 * n + 0.5]) for n in shape]
        for pts in (scattered, dense, single):
            out = _trilinear(data, *pts)
            expected = trilinear_oracle(data, *pts)
            assert out.shape == expected.shape and out.dtype == expected.dtype == dtype
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype, n_channels", [(np.float32, 3), (np.float64, 1), (np.float64, 3)])
    def test_blocks_match_fancy_index_oracle(self, dtype, n_channels):
        # calls of several blocks, the last one partial: which block a position falls in must not change a bit
        rng = np.random.default_rng(8)
        shape = (30, 20, 6)
        data = rng.normal(0.0, 100.0, size=shape if n_channels == 1 else (n_channels, *shape)).astype(dtype)
        n = 2 * _BLOCK_POINTS + 123
        scattered = [np.concatenate([rng.uniform(-2.0, d + 1.0, n - 50), rng.integers(-1, d + 1, 50)]) for d in shape]
        # every point of a grid at half-voxel steps, raveled: the block edges fall inside its rows
        row = (2 * shape[1]) * (2 * shape[2])
        rows = _BLOCK_POINTS // row
        fine = (2 * rows + rows // 2 + 1, 2 * shape[1], 2 * shape[2])
        dense = [g.ravel() for g in np.meshgrid(*[np.arange(m) * 0.5 - 0.25 for m in fine], indexing="ij")]
        assert 2 * _BLOCK_POINTS < len(dense[0]) < 3 * _BLOCK_POINTS  # three blocks, the last partial
        for pts in (scattered, dense):
            out = _trilinear(data, *pts)
            expected = trilinear_oracle(data, *pts)
            assert out.shape == expected.shape and out.dtype == expected.dtype == dtype
            assert out.tobytes() == expected.tobytes()

    def test_leaves_positions_unchanged(self):
        # _level_objective's gradient reads its positions again after the call, for the clamp mask
        rng = np.random.default_rng(6)
        data = rng.normal(size=(4, 5, 4, 3)).astype(np.float32)
        pts = [rng.uniform(-3.0, n + 3.0, 200) for n in data.shape[1:]]
        before = [p.copy() for p in pts]
        for p in pts:
            p.flags.writeable = False  # an in-place write raises instead of passing unnoticed
        _trilinear(data, *pts)
        for p, b in zip(pts, before):
            assert np.array_equal(p, b)

    @pytest.mark.parametrize("sampler", ["trilinear", "nearest"])
    @pytest.mark.parametrize(
        "pts",
        [
            ([0.0, 1.0], [0.0, 1.0], [0.0]),  # unequal lengths
            ([[0.0, 1.0]], [[0.0, 1.0]], [[0.0, 1.0]]),  # 2-D arrays
            (0.5, 0.5, 0.5),  # scalars
        ],
        ids=["unequal-lengths", "2d", "scalars"],
    )
    def test_rejects_positions_that_are_not_flat_arrays_of_one_length(self, sampler, pts):
        if sampler == "trilinear":
            sample, grid = trilinear_sample_many, ScalarVolume(np.zeros((2, 2, 2)))
        else:
            sample, grid = nearest_sample_many, LabelMap(np.zeros((2, 2, 2), dtype=np.uint8))
        with pytest.raises(InvalidParameterError, match="1-D arrays of one length"):
            sample(grid, *pts)

    def test_rejects_non_finite_point(self):
        vol = ScalarVolume(np.zeros((2, 2, 2)))
        with pytest.raises(InvalidParameterError):
            trilinear_sample(vol, (np.nan, 0, 0))


class TestNearest:
    def test_on_center(self):
        lm = LabelMap(np.array([[[0, 1], [2, 3]], [[3, 2], [1, 0]]], dtype=np.uint8))
        assert nearest_sample_many(lm, [0, 1], [1, 0], [1, 0]).tolist() == [3, 3]

    def test_tie_breaks_toward_lower_index(self):
        lm = LabelMap(np.array([1, 3], dtype=np.uint8).reshape(2, 1, 1))
        assert nearest_sample_many(lm, [0.5, 1.5], [0, 0], [0, 0]).tolist() == [1, 3]

    def test_out_of_bounds_clamps(self):
        lm = LabelMap(np.array([2, 3], dtype=np.uint8).reshape(2, 1, 1))
        assert nearest_sample_many(lm, [-2.0, 9.0], [0, 0], [0, 0]).tolist() == [2, 3]

    def test_output_in_label_set(self):
        rng = np.random.default_rng(4)
        lm = LabelMap(rng.integers(0, 3, size=(4, 4, 4)).astype(np.uint8))
        pts = rng.uniform(-2, 6, size=(3, 100))
        assert set(nearest_sample_many(lm, *pts).tolist()) <= set(np.unique(lm.data).tolist())

    def test_rejects_non_finite_point(self):
        lm = LabelMap(np.zeros((2, 2, 2), dtype=np.uint8))
        with pytest.raises(InvalidParameterError):
            nearest_sample_many(lm, [0.0, np.inf], [0, 0], [0, 0])


class TestGaussianSmooth:
    def test_negative_sigma_rejected(self):
        vol = random_volume(np.random.default_rng(6), max_dim=4)
        with pytest.raises(InvalidParameterError):
            gaussian_smooth_array(vol.data, -0.5)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(InvalidParameterError):
            gaussian_kernel(sigma)
        with pytest.raises(InvalidParameterError):
            gaussian_smooth_array(np.zeros((3, 3, 3)), sigma)

    def test_underflowing_sigma_is_identity(self):
        # below about 1.5e-162, 2*sigma*sigma is 0 and the sampled kernel would be 0/0
        data = np.random.default_rng(5).normal(size=(4, 5, 3))
        data[0, 0, 0] = -0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sigma in (1e-200, 5e-324):
                assert gaussian_kernel(sigma).tolist() == [1.0]
                assert gaussian_smooth_array(data, sigma).tobytes() == gaussian_smooth_array(data, 0.0).tobytes()
            for sigma in (1.6e-162, 1e-155):  # 2*sigma*sigma > 0: off-centre samples are exp(-inf) = 0
                assert gaussian_kernel(sigma).tolist() == [0.0, 1.0, 0.0]

    def test_kernel_weights_unchanged(self):
        for sigma in (1e-150, 1e-3, 0.4, 1.0, 1.5, 3.0, 7.3):
            assert gaussian_kernel(sigma).tobytes() == sampled_gaussian_oracle(sigma).tobytes()

    def test_constant_preserved_exactly(self):
        data = np.full((6, 6, 6), 42.0, dtype=np.float32)
        assert np.array_equal(gaussian_smooth_array(data, 2.0), data)

    def test_kernel_radius_and_normalization(self):
        k = gaussian_kernel(1.0)
        assert len(k) == 2 * 3 + 1
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        k = gaussian_kernel(0.4)  # ceil(1.2) = 2
        assert len(k) == 2 * 2 + 1

    def test_impulse_matches_sampled_kernel(self):
        data = np.zeros((9, 9, 9), dtype=np.float32)
        data[4, 4, 4] = 1.0
        out = gaussian_smooth_array(data, 1.0)
        k = gaussian_kernel(1.0)
        expected = k[:, None, None] * k[None, :, None] * k[None, None, :]
        assert np.allclose(out[1:8, 1:8, 1:8], expected, atol=1e-6)

    def test_matches_dense_convolution_oracle(self):
        rng = np.random.default_rng(7)
        data = rng.normal(100, 20, size=(5, 4, 3)).astype(np.float32)
        out = gaussian_smooth_array(data, 0.8)
        expected = dense_gaussian_oracle(data, 0.8)
        assert np.allclose(out, expected, atol=1e-4)

    def test_mean_preserved(self):
        # image-like content: structured interior, constant near the boundary
        # (where edge replication is exact), as for any in-FOV acquisition
        rng = np.random.default_rng(8)
        for sigma in (0.5, 1.0, 2.0):
            data = np.full((24, 24, 24), 50.0, dtype=np.float32)
            data[8:16, 8:16, 8:16] = rng.uniform(50, 150, size=(8, 8, 8)).astype(np.float32)
            out = gaussian_smooth_array(data, sigma)
            rel = abs(float(out.mean()) - float(data.mean())) / float(data.mean())
            assert rel < 1e-4


class TestSmoothingMatchesPadOracle:
    """Bit for bit against the ``np.pad`` convolution that the leading-axis passes replaced."""

    # length-1 axes, and axes of 2 and 3 voxels: shorter than the radius 9 of sigma 3
    SHAPES = [(1, 1, 1), (1, 6, 1), (7, 1, 4), (2, 3, 9), (3, 2, 5), (9, 8, 3), (12, 10, 6)]

    @pytest.mark.parametrize("sigma", [0.4, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gaussian_smooth_array(self, sigma, dtype):
        rng = np.random.default_rng(12)
        for shape in self.SHAPES:
            data = rng.normal(100.0, 30.0, size=shape).astype(dtype)
            field = rng.normal(0.0, 2.0, size=(*shape, 3)).astype(dtype)
            negative_zeros = np.full(shape, -0.0, dtype=dtype)  # the sums start from +0.0: these smooth to +0.0
            # contiguous, a strided field component as the demons pass it, and a Fortran-ordered copy
            for arr in (data, field[..., 1], np.asfortranarray(data), negative_zeros):
                before = arr.copy()
                out = gaussian_smooth_array(arr, sigma)
                want = separable_smooth_oracle(arr, sigma, dtype)
                assert out.dtype == dtype and out.flags.c_contiguous
                assert out.shape == want.shape and out.tobytes() == want.tobytes()
                assert not np.shares_memory(out, arr)
                assert np.array_equal(arr, before)

    @pytest.mark.parametrize("shape", [(2, 1, 1), (1, 3, 1), (1, 1, 2), (5, 4, 3), (8, 7, 2), (12, 10, 6)])
    def test_downsample2x(self, shape):
        data = np.random.default_rng(13).normal(100.0, 30.0, size=shape).astype(np.float32)
        vol = ScalarVolume(data, (1.5, 1.5, 8.0))
        slices = tuple(slice(None, None, 2) if n >= 2 else slice(None) for n in shape)
        want = separable_smooth_oracle(vol.data, 1.0)[slices].astype(np.float32)
        out = downsample2x(vol)
        assert out.dims == want.shape and out.data.tobytes() == want.tobytes()


class TestFloat32Smoothing:
    """Float32 input (the demons field) is smoothed in float32, as the deviation from its first element."""

    @pytest.mark.parametrize("value", [0.1, -3.7e5, 42.0])
    def test_constants_exact(self, value):
        for shape in [(12, 10, 6), (1, 6, 1), (2, 3, 9)]:
            data = np.full(shape, value, dtype=np.float32)
            for sigma in (0.4, 1.5, 3.0):
                out = gaussian_smooth_array(data, sigma)
                assert out.dtype == np.float32 and np.array_equal(out, data)

    def test_empty_input(self):
        for dtype in (np.float32, np.float64):
            out = gaussian_smooth_array(np.zeros((0, 4, 5), dtype=dtype), 1.5)
            assert out.shape == (0, 4, 5) and out.dtype == dtype

    def test_negative_zeros_smooth_to_positive_zero(self):
        out = gaussian_smooth_array(np.full((9, 8, 3), -0.0, dtype=np.float32), 1.5)
        assert out.dtype == np.float32 and np.all(out == 0.0) and not np.any(np.signbit(out))

    @pytest.mark.parametrize("sigma", [0.4, 1.5, 3.0])
    def test_close_to_float64(self, sigma):
        rng = np.random.default_rng(15)
        for shape in [(96, 96, 12), (12, 10, 6), (2, 3, 9)]:
            for mean in (0.0, 30.0):
                field = rng.normal(mean, 2.0, size=(*shape, 3)).astype(np.float32)
                for c in range(3):
                    out = gaussian_smooth_array(field[..., c], sigma)
                    want = gaussian_smooth_array(field[..., c].astype(np.float64), sigma)
                    assert out.dtype == np.float32 and want.dtype == np.float64
                    assert np.max(np.abs(out - want)) <= 1e-5 * np.max(np.abs(field[..., c]))


class TestDownsample2x:
    def test_shape_and_spacing(self):
        vol = ScalarVolume(np.zeros((8, 8, 8)), (1.0, 2.0, 0.5))
        out = downsample2x(vol)
        assert out.dims == (4, 4, 4)
        assert out.spacing == (2.0, 4.0, 1.0)

    def test_odd_dims_ceil(self):
        vol = ScalarVolume(np.zeros((5, 7, 9)))
        assert downsample2x(vol).dims == (3, 4, 5)

    def test_constant_preserved(self):
        vol = ScalarVolume(np.full((8, 8, 8), 3.5, dtype=np.float32))
        out = downsample2x(vol)
        assert np.allclose(out.data, 3.5, atol=1e-6)

    def test_size_one_axes_pass_through(self):
        ramp = np.arange(8, dtype=np.float32).reshape(8, 1, 1)
        out = downsample2x(ScalarVolume(ramp, (1.0, 1.0, 1.0)))
        assert out.dims == (4, 1, 1)
        assert out.spacing == (2.0, 1.0, 1.0)

    def test_ramp_matches_dense_oracle(self):
        ramp = np.arange(8, dtype=np.float32).reshape(8, 1, 1)
        out = downsample2x(ScalarVolume(ramp))
        k = gaussian_kernel(1.0)
        radius = len(k) // 2
        padded = np.pad(ramp[:, 0, 0].astype(np.float64), radius, mode="edge")
        smoothed = np.array([float(np.dot(k, padded[i : i + len(k)])) for i in range(8)])
        assert np.allclose(out.data[:, 0, 0], smoothed[::2], atol=1e-6)

    def test_half_is_cached_downsample(self):
        vol = ScalarVolume(np.random.default_rng(9).normal(size=(6, 5, 3)).astype(np.float32), (1.0, 2.0, 0.5))
        half = vol.half
        assert half is vol.half
        want = downsample2x(vol)
        assert np.array_equal(half.data, want.data) and half.spacing == want.spacing

    def test_half_under_concurrent_first_use(self):
        # more threads than cores, switching often: every thread gets an equal half, and it then stays put
        vol = ScalarVolume(np.random.default_rng(10).normal(size=(16, 12, 6)).astype(np.float32))
        want = downsample2x(vol).data
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                halves = list(pool.map(lambda _: vol.half, range(32), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(h.data, want) for h in halves)
        assert vol.half is vol.half

    def test_all_dims_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            downsample2x(ScalarVolume(np.zeros((1, 1, 1))))
