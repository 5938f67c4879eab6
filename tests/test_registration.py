"""Similarity measures, warping, and the three registration stages."""

import math
import pickle
import re

import numpy as np
import pytest

from cineprop import registration
from cineprop.errors import DegenerateInputError, InvalidParameterError
from cineprop.phantom import PhantomSpec, generate_cine
from cineprop.registration import (
    AffineTransform,
    DisplacementField,
    RegistrationParams,
    _affine_columns,
    _affine_params_jacobian,
    _affine_params_to_transform,
    _center_mm,
    _centred,
    _d_ncc,
    _descend,
    _gradient_images,
    _level_objective,
    _ncc,
    _pose_jacobian,
    _pose_to_transform,
    _upsample_field,
    _warp_data,
    affine_to_field,
    register_deformable,
    register_rigid,
    warp_label,
)
from cineprop.volume import LV, LabelMap, ScalarVolume, _trilinear, gaussian_smooth_array, trilinear_sample_many
from helpers import (
    affine_stage,
    fd_gradient,
    phantom_frame,
    resample_affine,
    shift_volume,
    thick_slice_series,
    trilinear_long_hand,
)

SMALL_SPEC = PhantomSpec(
    dims=(32, 32, 32),
    lv_radius_es=8.0,
    lv_radius_ed=6.5,
    myo_thickness=3.0,
    rv_offset=(-9.0, 0.0, 0.0),
    rv_radius=6.0,
    frames=3,
    es_index=0,
    ed_index=2,
)

TINY_SPEC = PhantomSpec(
    dims=(20, 20, 20),
    lv_radius_es=5.0,
    lv_radius_ed=4.2,
    myo_thickness=2.0,
    rv_offset=(-6.0, 0.0, 0.0),
    rv_radius=3.0,
    frames=3,
    es_index=0,
    ed_index=2,
)


@pytest.fixture(scope="module")
def small_phantom():
    vol, lab = phantom_frame(SMALL_SPEC, 0)
    return vol, lab


def _smooth_random(seed, dims=(12, 12, 12)):
    rng = np.random.default_rng(seed)
    return ScalarVolume(gaussian_smooth_array(rng.normal(100, 30, size=dims).astype(np.float32), 1.5))


class TestSimilarity:
    def test_identical_ncc_minus_one(self):
        vol = _smooth_random(1)
        assert _ncc(_centred(vol.data), _centred(vol.data)) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_ncc_is_zero(self):
        a = ScalarVolume(np.full((3, 3, 3), 5.0))
        b = _smooth_random(2, dims=(3, 3, 3))
        assert _ncc(_centred(a.data), _centred(b.data)) == 0.0


class TestAffineTransform:
    def test_identity(self):
        tf = AffineTransform.identity()
        assert np.array_equal(tf.matrix, np.eye(3)) and not np.any(tf.translation)

    def test_singular_rejected(self):
        m = np.eye(3)
        m[2, 2] = 0.0
        with pytest.raises(InvalidParameterError):
            AffineTransform(m, np.zeros(3))


class TestDisplacementField:
    def test_shape_validation(self):
        with pytest.raises(InvalidParameterError):
            DisplacementField(np.zeros((2, 2, 2)), (1, 1, 1))

    def test_channel_last_rejected(self):
        with pytest.raises(InvalidParameterError, match=re.escape("(3, nx, ny, nz)")):
            DisplacementField(np.zeros((5, 6, 4, 3)), (1, 1, 1))

    def test_non_finite_rejected(self):
        v = np.zeros((3, 5, 6, 4))
        v[0, 0, 0, 0] = np.inf
        with pytest.raises(InvalidParameterError):
            DisplacementField(v, (1, 1, 1))


class TestParams:
    def test_iterations_must_match_levels(self):
        with pytest.raises(InvalidParameterError):
            RegistrationParams(pyramid_levels=2, iterations_per_level=(10, 10, 10))

    @pytest.mark.parametrize(
        "levels, iters",
        [
            (1, (math.nan,)),
            (1, (math.inf,)),
            (1, (2.7,)),
            (1, ("5",)),
            (1, (None,)),
            (1, 5),
            (1, None),
            ("2", (1, 1)),
            (math.nan, (1,)),
            (1.5, (1,)),
        ],
    )
    def test_non_whole_or_non_sequence_values_rejected(self, levels, iters):
        with pytest.raises(InvalidParameterError):
            RegistrationParams(pyramid_levels=levels, iterations_per_level=iters)

    def test_whole_values_stored_as_ints(self):
        params = RegistrationParams(pyramid_levels=np.int64(2), iterations_per_level=np.array([3.0, 4.0]))
        assert params == RegistrationParams(pyramid_levels=2, iterations_per_level=(3, 4))
        assert {type(v) for v in (params.pyramid_levels, *params.iterations_per_level)} == {int}


class TestWarpImage:
    def test_zero_field_identity(self):
        vol = _smooth_random(3, dims=(7, 6, 5))
        out = _warp_data(vol.data, np.zeros((3, *vol.dims)), vol.spacing)
        assert np.array_equal(out, vol.data)

    def test_uniform_shift_one_voxel(self):
        vol = _smooth_random(4, dims=(7, 6, 5))
        u = np.zeros((3, *vol.dims))
        u[0] = vol.spacing[0]  # +1 voxel along x in mm
        out = _warp_data(vol.data, u, vol.spacing)
        assert np.array_equal(out[:-1], vol.data[1:])

    def test_matches_per_voxel_oracle(self):
        vol = _smooth_random(5, dims=(7, 6, 5))
        rng = np.random.default_rng(6)
        u = rng.normal(0, 0.8, size=(3, *vol.dims))
        out = _warp_data(vol.data, u, vol.spacing)
        for _ in range(60):
            i, j, k = (int(rng.integers(0, n)) for n in vol.dims)
            expected = trilinear_long_hand(
                vol,
                i + u[0, i, j, k] / vol.spacing[0],
                j + u[1, i, j, k] / vol.spacing[1],
                k + u[2, i, j, k] / vol.spacing[2],
            )
            assert float(out[i, j, k]) == pytest.approx(expected, abs=1e-5)


class TestWarpLabel:
    def test_zero_field_identity(self):
        rng = np.random.default_rng(7)
        lm = LabelMap(rng.integers(0, 4, size=(7, 6, 5)).astype(np.uint8))
        field = DisplacementField(np.zeros((3, 7, 6, 5)), lm.spacing)
        assert np.array_equal(warp_label(lm, field).data, lm.data)

    def test_uniform_shift_preserves_interior(self):
        rng = np.random.default_rng(8)
        lm = LabelMap(rng.integers(0, 4, size=(8, 6, 5)).astype(np.uint8))
        u = np.zeros((3, 8, 6, 5))
        u[0] = 1.0
        out = warp_label(lm, DisplacementField(u, lm.spacing))
        assert np.array_equal(out.data[:-1], lm.data[1:])

    def test_never_emits_absent_label(self):
        rng = np.random.default_rng(9)
        lm = LabelMap((rng.integers(0, 2, size=(7, 6, 5)) * 3).astype(np.uint8))  # only {0, 3}
        u = rng.normal(0, 2.0, size=(3, 7, 6, 5))
        out = warp_label(lm, DisplacementField(u, lm.spacing))
        assert set(np.unique(out.data)) <= {0, 3}


class TestDescend:
    def test_monotone_trace_on_quadratic(self):
        target = np.array([2.0, -1.0, 0.5])

        def objective(theta):
            d = theta - target
            return float(d @ d), None

        def gradient(theta, record):
            return 2.0 * (theta - target)

        theta, trace = _descend(objective, gradient, np.zeros(3), np.ones(3), 100)
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert np.allclose(theta, target, atol=0.05)

    def test_one_gradient_per_iteration(self):
        # far from the target every first candidate of 0.5 is accepted: the
        # start value, then per iteration one gradient and one line-search value
        target = np.array([6.0, -3.0, 2.0])
        calls = []

        def objective(theta):
            calls.append("f")
            d = theta - target
            return float(d @ d), theta.copy()

        def gradient(theta, record):
            calls.append("g")
            assert np.array_equal(record, theta)  # the record of the theta the gradient is asked for
            return 2.0 * (theta - target)

        _, trace = _descend(objective, gradient, np.zeros(3), np.ones(3), 7)
        assert len(trace) == 8
        assert calls == ["f"] + ["g", "f"] * 7

    def test_restart_keeps_the_record_of_its_theta(self):
        # the conjugate direction overshoots a narrow valley and its search fails; the plain-gradient
        # restart starts from the same theta, and its gradient gets that theta's record, not a rejected one
        records = []

        def objective(theta):
            return float(theta[0] ** 2 + 100.0 * theta[1] ** 2), theta.copy()

        def gradient(theta, record):
            records.append(record)
            assert np.array_equal(record, theta)
            return np.array([2.0 * theta[0], 200.0 * theta[1]])

        _descend(objective, gradient, np.array([3.0, 0.05]), np.ones(2), 20)
        # a restart asks for the gradient at the theta of the failed search: two calls in a row, one record
        assert any(a is b for a, b in zip(records, records[1:]))

    @pytest.mark.parametrize("fail", ["flat", "singular", "steep"])
    def test_failing_search_stops_at_the_step_floor(self, fail):
        # the steepest direction finds nothing, so the descent is its start value plus one search: at most
        # 6 candidates from 0.5 down to the 1/64 floor, whether the model asks for halving, 0.1x steps or neither
        calls = []
        lowest = {"flat": 1.0, "singular": math.inf, "steep": 1e6}[fail]

        def objective(theta):
            calls.append(theta[0])
            return (1.0 if theta[0] == 0.0 else lowest), None

        theta, trace = _descend(objective, lambda theta, record: np.array([-1.0]), np.zeros(1), np.ones(1), 10)
        assert trace == [1.0] and theta[0] == 0.0
        assert 2 <= len(calls) <= 1 + 6
        assert min(calls[1:]) >= registration._STEP_SIZE / 64


class TestLineSearch:
    """One backtracking search along a 1-D quadratic ``(x - m)^2`` from x = 0, first candidate 0.5."""

    @staticmethod
    def _search(m, slope=None, values=None):
        lams = []

        def objective(theta):
            lams.append(float(theta[0]))
            if values is not None:
                return values(theta[0]), None
            return float((theta[0] - m) ** 2), None

        slope = -2.0 * m if slope is None else slope
        return registration._line_search(objective, np.zeros(1), np.ones(1), m * m, 0.5, slope), lams

    def test_overshoot_steps_to_the_interpolated_minimizer(self):
        # 0.5 overshoots m = 0.2; the quadratic through f(0), f'(0) and f(0.5) is the objective itself
        step, lams = self._search(0.2)
        assert lams == pytest.approx([0.5, 0.2], abs=1e-12)
        theta, score, _, next_lam = step
        assert theta[0] == pytest.approx(0.2, abs=1e-12)
        assert score == pytest.approx(0.0, abs=1e-20)
        assert next_lam == pytest.approx(0.3, abs=1e-12)

    def test_interpolated_step_is_at_least_a_tenth(self):
        # the minimizer 0.02 is below 0.1 * 0.5: the second candidate is 0.05, then 0.02 is within bounds
        step, lams = self._search(0.02)
        assert lams == pytest.approx([0.5, 0.05, 0.02], abs=1e-12)
        assert step[0][0] == pytest.approx(0.02, abs=1e-12)

    @pytest.mark.parametrize("slope", [0.0, 0.1], ids=["flat-slope", "ascent-slope"])
    def test_non_descent_slope_halves(self, slope):
        _, lams = self._search(0.1, slope=slope)
        assert lams[:2] == [0.5, 0.25]

    def test_infinite_candidate_halves(self):
        # a singular candidate scores inf; the next one is half as far, not the model's 0.1 floor
        step, lams = self._search(0.2, values=lambda x: math.inf if x > 0.3 else float((x - 0.2) ** 2))
        assert lams == [0.5, 0.25]
        assert step[0][0] == 0.25


def _ncc_by_dot(a, b) -> float:
    """Reference: negative NCC in its BLAS form, as ``np.dot`` reductions."""
    ac = np.asarray(a, dtype=np.float64).ravel()
    bc = np.asarray(b, dtype=np.float64).ravel()
    ac, bc = ac - ac.mean(), bc - bc.mean()
    va, vb = float(np.dot(ac, ac)), float(np.dot(bc, bc))
    if va == 0.0 or vb == 0.0:
        return 0.0
    return -float(np.dot(ac, bc) / math.sqrt(va * vb))


class TestBlasFreeArithmetic:
    """The multiply-add point transform and pairwise-sum NCC against the BLAS forms they replaced.

    Inputs have 96*96*12 = 110,592 points, the thick-slice grid size, where
    BLAS would thread.  The summation order differs, so results agree to a
    float64 tolerance fixed beforehand, not bit for bit.
    """

    N = 96 * 96 * 12
    RTOL = 1e-12

    def test_point_transform_matches_matmul(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-150.0, 150.0, size=(self.N, 3))
        m = rng.normal(size=(3, 3))
        t = rng.normal(scale=20.0, size=3)
        ref = pts @ m.T + t
        # relative to the magnitude of the summed terms, so cancellation near 0 is allowed for
        bound = self.RTOL * (np.abs(pts) @ np.abs(m).T + np.abs(t))
        cols = np.stack(_affine_columns(m, t, pts[:, 0], pts[:, 1], pts[:, 2]), axis=1)
        assert np.all(np.abs(cols - ref) <= bound)

    def test_similarity_matches_dot_forms(self):
        rng = np.random.default_rng(1)
        fixed = rng.normal(100.0, 30.0, size=self.N).astype(np.float32)
        fixed_ncc = _centred(fixed)
        for sign in (1.0, -1.0):  # the fixed-side terms are reused across calls
            warped = sign * fixed + rng.normal(0.0, 20.0, size=self.N)
            ref = _ncc_by_dot(fixed, warped)
            assert abs(ref) > 0.5
            assert math.isclose(_ncc(fixed_ncc, _centred(warped)), ref, rel_tol=self.RTOL, abs_tol=0.0)

    def test_level_objective_matches_matmul_form(self):
        rng = np.random.default_rng(2)
        spacing = (1.5, 1.5, 8.0)
        fixed = ScalarVolume(gaussian_smooth_array(rng.normal(100, 30, size=(96, 96, 12)).astype(np.float32), 3.0), spacing)
        moving = fixed  # a near-identity affine of itself keeps |NCC| well away from 0
        center = _center_mm(fixed)
        jacobian = _affine_params_jacobian(center)
        objective, _ = _level_objective(
            fixed, moving, lambda th: _affine_params_to_transform(th, center), lambda th: jacobian
        )
        theta = np.concatenate([(np.eye(3) + rng.normal(scale=0.005, size=(3, 3))).ravel(), [0.5, -0.4, 1.0]])
        tf = _affine_params_to_transform(theta, center)
        # the reference strides the 110k-voxel grid exactly as the objective does, by its own formula
        stride = max(1, round(np.cbrt(self.N / registration._MAX_OBJECTIVE_SAMPLES) + 0.49999))
        axes = [np.arange(0, n, stride, dtype=np.float64) * s for n, s in zip(fixed.dims, spacing)]
        grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        pts = grid @ tf.matrix.T + tf.translation
        warped = trilinear_sample_many(moving, pts[:, 0] / 1.5, pts[:, 1] / 1.5, pts[:, 2] / 8.0)
        ref = _ncc_by_dot(fixed.data[::stride, ::stride, ::stride], warped)
        assert abs(ref) > 0.5
        assert math.isclose(objective(theta)[0], ref, rel_tol=self.RTOL, abs_tol=0.0)
        assert objective(np.zeros(12)) == (math.inf, None)  # singular candidate: the line search must back off


def _ramped_blob(shape, spacing, offset=(0.0, 0.0)):
    """Gaussian blob in x-y whose brightness ramps linearly along z, on a thick-slice grid.

    Linear along z, so trilinear interpolation across 8 mm slices is exact
    in z, and the finite-difference chord slope and the sampled
    central-difference image agree there.  On a Gaussian z profile
    (sigma 30 mm) the two differ by up to 7% of the largest component, an
    interpolation difference that would hide errors in the chain rule.
    """
    axes = [np.arange(n) * s for n, s in zip(shape, spacing)]
    x, y, z = np.meshgrid(*axes, indexing="ij")
    cx, cy, cz = ((n - 1) / 2.0 * s for n, s in zip(shape, spacing))
    x, y = x - cx - offset[0], y - cy - offset[1]
    in_plane = np.exp(-(x**2) / (2 * 18.0**2) - y**2 / (2 * 14.0**2))
    return ScalarVolume((100.0 + 200.0 * in_plane * (1.0 + (z - cz) / 60.0)).astype(np.float32), spacing)


class TestAnalyticGradient:
    """The level objective's analytic gradient against central finite differences of the objective.

    96x96x12 voxels at 1.5x1.5x8 mm: the full-resolution level of the
    thick-slice workload, whose objective strides its grid by 3.  Gradients
    are compared per parameter unit, the scale the descent steps in; the
    probe is 0.1 unit.
    """

    SHAPE, SPACING = (96, 96, 12), (1.5, 1.5, 8.0)
    DEG = math.pi / 180.0

    def _setup(self, stage, moving_offset):
        fixed = _ramped_blob(self.SHAPE, self.SPACING)
        moving = _ramped_blob(self.SHAPE, self.SPACING, moving_offset)
        center = _center_mm(fixed)
        if stage == "rigid":
            to_transform, jacobian = (lambda th: _pose_to_transform(th, center)), (lambda th: _pose_jacobian(th, center))
            units = np.array([self.DEG] * 3 + list(self.SPACING))
        else:
            jac = _affine_params_jacobian(center)
            to_transform, jacobian = (lambda th: _affine_params_to_transform(th, center)), (lambda th: jac)
            units = np.array([min(self.SPACING) / float(np.linalg.norm(center))] * 9 + list(self.SPACING))
        return fixed, moving, to_transform, jacobian, units

    def _errors(self, stage, theta, moving_offset):
        """Cosine and largest error relative to the largest oracle component; ``moving_offset`` is in mm."""
        fixed, moving, to_transform, jacobian, units = self._setup(stage, moving_offset)
        objective, gradient = _level_objective(fixed, moving, to_transform, jacobian)
        analytic = gradient(theta, objective(theta)[1]) * units
        oracle = fd_gradient(lambda th: objective(th)[0], theta, units) * units
        cosine = float(analytic @ oracle) / float(np.linalg.norm(analytic) * np.linalg.norm(oracle))
        return cosine, float(np.max(np.abs(analytic - oracle)) / np.max(np.abs(oracle)))

    def test_gradient_images_zero_along_single_slice(self):
        data = np.arange(20, dtype=np.float32).reshape(5, 4, 1) ** 2
        channels = _gradient_images(data)
        assert channels.shape == (3, 5, 4, 1) and channels.dtype == np.float32
        assert np.array_equal(channels[0], np.gradient(data, axis=0))
        assert np.array_equal(channels[1], np.gradient(data, axis=1))
        assert not np.any(channels[2])

    @pytest.mark.parametrize("stage", ["rigid", "affine"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences_at_random_theta(self, stage, seed):
        rng = np.random.default_rng(seed)
        if stage == "rigid":
            theta = np.concatenate([rng.uniform(-3.0, 3.0, 3) * self.DEG, rng.uniform(-3.0, 3.0, 3)])
        else:
            theta = np.concatenate([(np.eye(3) + rng.normal(scale=0.02, size=(3, 3))).ravel(), rng.uniform(-3, 3, 3)])
        cosine, rel = self._errors(stage, theta, (2.0, -3.0))
        # z translations up to 3 mm clamp part of the bottom sampled slice;
        # the probes straddling that kink read cosine down to 0.99990 on seed 1
        assert cosine >= 0.9995
        assert rel <= 0.04

    @pytest.mark.parametrize("stage", ["rigid", "affine"])
    def test_z_clamped_samples_do_not_move(self, stage):
        # a 9 mm z shift plus a tilt pushes part of the top sampled slice
        # (z = 80 mm) past the last slice (z = 88 mm), where sampling clamps
        if stage == "rigid":
            theta = np.array([6.0 * self.DEG, 0.0, 0.0, 0.0, 0.0, 9.0])
        else:
            theta = np.concatenate([np.eye(3).ravel(), [0.0, 0.0, 9.0]])
            theta[7] = 0.1  # z moves with y
        cosine, rel = self._errors(stage, theta, (0.0, 0.0))
        # read 0.99990-1 and 0.003-0.016; without the clamp mask 0.9950-0.99985 and 0.063-0.29
        assert cosine >= 0.9999
        assert rel <= 0.03


class TestSharedPlan:
    """The gradient samples through the plan of the candidate the objective scored at the same theta."""

    SHAPE, SPACING = TestAnalyticGradient.SHAPE, TestAnalyticGradient.SPACING

    def _level(self):
        fixed = _ramped_blob(self.SHAPE, self.SPACING)
        moving = _ramped_blob(self.SHAPE, self.SPACING, (2.0, -3.0))
        center = _center_mm(fixed)
        jac = _affine_params_jacobian(center)
        return fixed, moving, (lambda th: _affine_params_to_transform(th, center)), (lambda th: jac)

    def test_gradient_works_out_no_positions(self, monkeypatch):
        # one descent on one level: every position set comes from an objective evaluation, none from a gradient
        fixed, moving, to_transform, jacobian = self._level()
        positions, evals, grads = [], [], []
        affine_positions = registration._affine_positions
        monkeypatch.setattr(registration, "_affine_positions", lambda *a: positions.append(1) or affine_positions(*a))
        objective, gradient = _level_objective(fixed, moving, to_transform, jacobian)

        def counted_objective(theta):
            evals.append(1)
            return objective(theta)

        def counted_gradient(theta, record):
            grads.append(1)
            return gradient(theta, record)

        theta0 = registration._transform_to_affine_params(AffineTransform.identity(), _center_mm(fixed))
        units = np.array([0.05] * 9 + list(self.SPACING))
        _descend(counted_objective, counted_gradient, theta0, units, 5)
        assert len(grads) >= 3
        assert len(positions) == len(evals)

    def test_gradient_matches_the_four_plane_form(self):
        # the form the shared plan replaced: the value and the three gradient images stacked and sampled
        # together at freshly computed positions.  A 9 mm z shift and a tilt clamp part of the top
        # sampled slice, and a 20 mm x shift part of the last columns, so the clamp mask takes effect.
        fixed, moving, to_transform, jacobian = self._level()
        theta = np.concatenate([np.eye(3).ravel(), [20.0, 0.0, 9.0]])
        theta[7] = 0.1
        objective, gradient = _level_objective(fixed, moving, to_transform, jacobian)
        score, record = objective(theta)

        n = math.prod(fixed.dims)
        stride = max(1, round(np.cbrt(n / registration._MAX_OBJECTIVE_SAMPLES) + 0.49999))
        grid = registration._grid_axes(fixed.dims, fixed.spacing, stride)
        fixed_sample = fixed.data[::stride, ::stride, ::stride]
        fixed_ncc = _centred(fixed_sample)
        pos = registration._affine_positions(to_transform(theta), grid, moving.spacing)
        samples = _trilinear(np.stack([moving.data, *_gradient_images(moving.data)]), *pos)
        axes = [g.ravel() for g in grid]
        dw = _d_ncc(fixed_ncc, _centred(samples[0]))
        d_affine = np.empty(12)
        clamped = 0
        for r in range(3):
            inside = (pos[r] >= 0.0) & (pos[r] <= moving.dims[r] - 1.0)
            clamped += int(np.count_nonzero(~inside))
            v = ((dw * samples[1 + r]) * inside).reshape(fixed_sample.shape) / moving.spacing[r]
            v_xy = np.sum(v, axis=2)
            d_affine[3 * r] = np.sum(np.sum(v_xy, axis=1) * axes[0])
            d_affine[3 * r + 1] = np.sum(np.sum(v_xy, axis=0) * axes[1])
            d_affine[3 * r + 2] = np.sum(np.sum(v, axis=(0, 1)) * axes[2])
            d_affine[9 + r] = np.sum(v_xy)
        want = np.sum(d_affine[:, None] * jacobian(theta), axis=0)
        assert clamped > 0
        assert record.sample.ac.tobytes() == _centred(samples[0]).ac.tobytes()
        assert record.sample.va == _centred(samples[0]).va
        assert score == _ncc(fixed_ncc, _centred(samples[0]))
        assert gradient(theta, record).tobytes() == want.tobytes()


class TestRigid:
    def test_self_registration_identity(self, small_phantom):
        vol, _ = small_phantom
        tf = register_rigid(vol, vol, RegistrationParams())
        assert np.abs(tf.matrix - np.eye(3)).max() < 1e-3
        assert np.abs(tf.translation).max() < 1e-3

    def test_constant_input_degenerate(self):
        flat = ScalarVolume(np.full((8, 8, 8), 7.0))
        other = _smooth_random(10, dims=(8, 8, 8))
        with pytest.raises(DegenerateInputError):
            register_rigid(flat, other, RegistrationParams())
        with pytest.raises(DegenerateInputError):
            register_rigid(other, flat, RegistrationParams())

    def test_spacing_mismatch_rejected(self):
        a = _smooth_random(11, dims=(8, 8, 8))
        b = ScalarVolume(a.data, (2.0, 1.0, 1.0))
        with pytest.raises(InvalidParameterError):
            register_rigid(a, b, RegistrationParams())

    def test_pyramids_of_different_depth_pair_from_the_fine_end(self, monkeypatch):
        # a 16^3 fixed image halves twice and a 6^3 moving image once: the two finest levels pair up
        levels = []
        level_objective, descend = registration._level_objective, registration._descend

        def spy_objective(fixed_level, moving_level, *args):
            levels.append((fixed_level.dims, moving_level.dims))
            return level_objective(fixed_level, moving_level, *args)

        def spy_descend(*args):
            levels[-1] += (args[-1],)  # the iteration count
            return descend(*args)

        monkeypatch.setattr(registration, "_level_objective", spy_objective)
        monkeypatch.setattr(registration, "_descend", spy_descend)
        params = RegistrationParams(pyramid_levels=3, iterations_per_level=(50, 50, 30))
        register_rigid(_smooth_random(12, dims=(16, 16, 16)), _smooth_random(13, dims=(6, 6, 6)), params)
        assert levels == [((8, 8, 8), (3, 3, 3), 50), ((16, 16, 16), (6, 6, 6), 30)]

    def test_translation_recovery(self, small_phantom):
        vol, _ = small_phantom
        moving = shift_volume(vol, (2, -1, 1))
        tf = register_rigid(vol, moving, RegistrationParams())
        shift_mm = np.array([2.0, -1.0, 1.0]) * np.asarray(vol.spacing)
        assert np.abs(tf.translation - shift_mm).max() < 0.5
        assert np.abs(tf.matrix - np.eye(3)).max() < 0.02

    def test_result_stays_orthonormal(self, small_phantom):
        vol, _ = small_phantom
        moving = shift_volume(vol, (1, 2, 0))
        tf = register_rigid(vol, moving, RegistrationParams())
        assert np.abs(tf.matrix.T @ tf.matrix - np.eye(3)).max() <= 1e-6


class TestAffine:
    def test_self_with_identity_init(self, small_phantom):
        vol, _ = small_phantom
        tf = affine_stage(vol, vol, AffineTransform.identity(), RegistrationParams())
        assert np.abs(tf.matrix - np.eye(3)).max() < 1e-3
        assert np.abs(tf.translation).max() < 1e-3

    def test_objective_never_worse_than_init(self, small_phantom):
        vol, _ = small_phantom
        moving = shift_volume(vol, (1, 1, 0))
        init = AffineTransform.identity()
        params = RegistrationParams()
        tf = affine_stage(vol, moving, init, params)
        fixed_ncc = _centred(vol.data)
        f_init = _ncc(fixed_ncc, _centred(resample_affine(moving, init, vol).data))
        f_final = _ncc(fixed_ncc, _centred(resample_affine(moving, tf, vol).data))
        assert f_final <= f_init

    def test_scale_recovery(self, small_phantom):
        vol, _ = small_phantom
        center = _center_mm(vol)
        s = 1.0 / 1.08
        pullback = AffineTransform(np.eye(3) * s, center - s * center)
        moving = resample_affine(vol, pullback, vol)
        tf = affine_stage(vol, moving, AffineTransform.identity(), RegistrationParams())
        scale = np.linalg.det(tf.matrix) ** (1.0 / 3.0)
        assert 1.05 < scale < 1.11


class TestDeformable:
    def test_self_registration_near_zero_field(self, small_phantom):
        vol, _ = small_phantom
        field = register_deformable(vol, vol, AffineTransform.identity(), RegistrationParams())
        mags = np.sqrt((field.vectors**2).sum(axis=0))
        assert float(mags.mean()) < 0.05 * min(vol.spacing)

    def test_constant_fixed_degenerate(self):
        flat = ScalarVolume(np.full((8, 8, 8), 1.0))
        other = _smooth_random(12, dims=(8, 8, 8))
        with pytest.raises(DegenerateInputError):
            register_deformable(flat, other, AffineTransform.identity(), RegistrationParams())

    def test_stage_chaining_monotone(self):
        cine = generate_cine(SMALL_SPEC)
        fixed, moving = cine.series.frames[2], cine.series.frames[0]
        params = RegistrationParams()
        rigid = register_rigid(fixed, moving, params)
        affine = affine_stage(fixed, moving, rigid, params)
        field = register_deformable(fixed, moving, affine, params)
        fixed_ncc = _centred(fixed.data)
        f_before = _ncc(fixed_ncc, _centred(resample_affine(moving, AffineTransform.identity(), fixed).data))
        f_rigid = _ncc(fixed_ncc, _centred(resample_affine(moving, rigid, fixed).data))
        f_affine = _ncc(fixed_ncc, _centred(resample_affine(moving, affine, fixed).data))
        f_deform = _ncc(fixed_ncc, _centred(_warp_data(moving.data, field.vectors, moving.spacing)))
        assert f_rigid <= f_before
        assert f_affine <= f_rigid
        assert f_deform <= f_affine

    def test_no_field_warped_twice(self, monkeypatch):
        # the demons loop carries the warp of each accepted field into its next iteration
        cine = generate_cine(TINY_SPEC)
        fixed, moving = cine.series.frames[2], cine.series.frames[0]
        warped = []
        warp_data = registration._warp_data

        def recording(moving_data, u, spacing):
            warped.append((u.shape, u.tobytes()))
            return warp_data(moving_data, u, spacing)

        monkeypatch.setattr(registration, "_warp_data", recording)
        params = RegistrationParams(pyramid_levels=2, iterations_per_level=(10, 10))
        register_deformable(fixed, moving, AffineTransform.identity(), params)
        assert len(warped) > 2
        assert len(set(warped)) == len(warped)

    def test_fields_smoothed_in_float32(self, monkeypatch):
        cine = generate_cine(TINY_SPEC)
        fixed, moving = cine.series.frames[2], cine.series.frames[0]
        seen = []
        smooth = registration.gaussian_smooth_array

        def spy(arr, sigma_vox):
            out = smooth(arr, sigma_vox)
            seen.append((arr.dtype, out.dtype))
            return out

        monkeypatch.setattr(registration, "gaussian_smooth_array", spy)
        params = RegistrationParams(pyramid_levels=2, iterations_per_level=(10, 10))
        register_deformable(fixed, moving, AffineTransform.identity(), params)
        assert len(seen) > 3
        assert set(seen) == {(np.dtype(np.float32), np.dtype(np.float32))}

    def test_identical_images_one_candidate_per_level(self, monkeypatch):
        # the first full update of an exact match is zero, smooths to zero and does not improve: each level ends there
        vol = _smooth_random(13, dims=(16, 16, 16))
        smoothed = []
        smooth = registration.gaussian_smooth_array

        def spy(arr, sigma_vox):
            smoothed.append(arr.shape)
            return smooth(arr, sigma_vox)

        monkeypatch.setattr(registration, "gaussian_smooth_array", spy)
        params = RegistrationParams(pyramid_levels=3, iterations_per_level=(5, 5, 5))
        field = register_deformable(vol, vol, AffineTransform.identity(), params)
        assert smoothed == [(4, 4, 4)] * 3 + [(8, 8, 8)] * 3 + [(16, 16, 16)] * 3
        assert np.all(field.vectors == 0.0)

    def test_thick_slices_at_most_one_rejected_candidate_per_level(self, monkeypatch):
        series = thick_slice_series()
        fixed, moving = series.frames[1], series.frames[series.es_index]
        levels = []  # per demons level: (iteration count, every NCC score in call order)
        open_levels = []
        demons_level, ncc = registration._demons_level, registration._ncc

        def recording_level(fixed_level, moving_level, u, n_iter):
            open_levels.append([])
            try:
                return demons_level(fixed_level, moving_level, u, n_iter)
            finally:
                levels.append((n_iter, open_levels.pop()))

        def recording_ncc(fixed, warped):
            score = ncc(fixed, warped)
            if open_levels:
                open_levels[-1].append(score)
            return score

        monkeypatch.setattr(registration, "_demons_level", recording_level)
        monkeypatch.setattr(registration, "_ncc", recording_ncc)
        register_deformable(fixed, moving, AffineTransform.identity(), RegistrationParams())
        assert len(levels) == 3
        accepted = 0
        for n_iter, (f_start, *candidates) in levels:
            assert 1 <= len(candidates) <= n_iter
            improved = [f < f_prev for f_prev, f in zip([f_start, *candidates], candidates)]
            assert all(improved[:-1])  # only a level's last candidate may be rejected
            accepted += sum(improved)
        assert accepted > 0

    def test_worse_field_falls_back_to_the_affine(self, monkeypatch):
        # a field 4 mm off everywhere scores worse than the affine's own sample, so the affine's field is returned
        series = thick_slice_series()
        fixed, moving = series.frames[1], series.frames[0]
        params = RegistrationParams(pyramid_levels=2, iterations_per_level=(3, 3))
        init = AffineTransform.identity()
        fallback = affine_to_field(init, fixed.dims, fixed.spacing).vectors.tobytes()
        assert register_deformable(fixed, moving, init, params).vectors.tobytes() != fallback
        monkeypatch.setattr(registration, "_demons_level", lambda fixed_level, moving_level, u, n_iter: u + 4.0)
        assert register_deformable(fixed, moving, init, params).vectors.tobytes() == fallback

    def test_contraction_boundary_accuracy(self):
        # LV radius 12 -> 10 contraction: the propagated contour must stay
        # within 1 voxel of the analytic boundary for at least 95% of points
        spec = PhantomSpec(
            dims=(48, 48, 48),
            lv_radius_es=12.0,
            lv_radius_ed=10.0,
            myo_thickness=4.0,
            rv_offset=(-13.0, 0.0, 0.0),
            rv_radius=10.0,
            frames=3,
            es_index=0,
            ed_index=2,
        )
        cine = generate_cine(spec)
        fixed, moving = cine.series.frames[2], cine.series.frames[0]
        params = RegistrationParams()
        rigid = register_rigid(fixed, moving, params)
        affine = affine_stage(fixed, moving, rigid, params)
        field = register_deformable(fixed, moving, affine, params)
        pseudo = warp_label(cine.series.es_label, field)
        gt = cine.ground_truth[2]

        def boundary(mask):
            edge = np.zeros_like(mask)
            for axis in range(3):
                for shift in (1, -1):
                    edge |= mask & ~np.roll(mask, shift, axis=axis)
            return edge

        pb = np.argwhere(boundary(pseudo.data == LV)).astype(float)
        gb = np.argwhere(boundary(gt.data == LV)).astype(float)
        nearest = np.sqrt(((pb[:, None, :] - gb[None, :, :]) ** 2).sum(-1)).min(axis=1)
        assert float((nearest <= 1.0).mean()) >= 0.95


class TestStageRecord:
    """The stages pass each judged transform on as a ``_Stage``; the public functions judge their own ``init``."""

    PARAMS = RegistrationParams(pyramid_levels=2, iterations_per_level=(3, 3))

    def test_stages_match_the_public_chain(self):
        series = thick_slice_series()
        fixed, moving = series.frames[1], series.frames[0]
        rigid = register_rigid(fixed, moving, self.PARAMS)
        affine = affine_stage(fixed, moving, rigid, self.PARAMS)
        want = register_deformable(fixed, moving, affine, self.PARAMS)
        got = registration._register_stages(registration._target(fixed, self.PARAMS), moving, self.PARAMS)
        assert got.vectors.tobytes() == want.vectors.tobytes()

    def test_affine_fallback_returns_init_itself(self, monkeypatch):
        series = thick_slice_series()
        fixed, moving = series.frames[1], series.frames[0]
        init = register_rigid(fixed, moving, self.PARAMS)
        # a descent that ends far off scores worse than init at full resolution
        descend = registration._descend
        monkeypatch.setattr(registration, "_descend", lambda *a: (descend(*a)[0] + 0.5, None))
        assert affine_stage(fixed, moving, init, self.PARAMS) is init


@pytest.mark.parametrize(
    "make",
    [
        lambda: ScalarVolume(np.arange(64, dtype=np.float32).reshape(4, 4, 4), (1.0, 1.5, 2.0)),
        lambda: LabelMap(np.arange(64).reshape(4, 4, 4) % 4, (1.0, 1.5, 2.0)),
        lambda: AffineTransform(np.diag([1.0, 2.0, 0.5]), np.array([1.0, -2.0, 3.0])),
        lambda: DisplacementField(np.linspace(-1.0, 1.0, 360).reshape(3, 5, 6, 4), (1.0, 1.5, 2.0)),
    ],
    ids=["ScalarVolume", "LabelMap", "AffineTransform", "DisplacementField"],
)
def test_pickling_rebuilds_through_the_constructor(make):
    original = make()
    if isinstance(original, ScalarVolume):
        original.half.half  # a cached pyramid stays behind
    copy = pickle.loads(pickle.dumps(original))
    arrays = {k: v for k, v in vars(original).items() if isinstance(v, np.ndarray)}
    assert arrays
    for name, array in arrays.items():
        assert not getattr(copy, name).flags.writeable
        assert getattr(copy, name).tobytes() == array.tobytes()
    assert "half" not in vars(copy)


class TestAffineToField:
    def test_identity_gives_zero_field(self):
        field = affine_to_field(AffineTransform.identity(), (5, 6, 4), (1.0, 1.5, 2.0))
        assert field.vectors.shape == (3, 5, 6, 4)
        assert np.all(field.vectors == 0.0)

    def test_translation_field(self):
        tf = AffineTransform(np.eye(3), np.array([1.5, 0.0, -2.0]))
        field = affine_to_field(tf, (5, 6, 4), (1.0, 1.5, 2.0))
        assert field.vectors.shape == (3, 5, 6, 4)
        assert np.all(field.vectors[0] == 1.5)
        assert np.all(field.vectors[1] == 0.0)
        assert np.all(field.vectors[2] == -2.0)


class TestUpsampleField:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "coarse_dims, fine_dims",
        [
            ((48, 48, 6), (96, 96, 12)),
            ((24, 24, 3), (48, 48, 6)),
            ((24, 24, 3), (47, 48, 5)),
            ((5, 1, 4), (10, 1, 8)),
            ((7, 6, 5), (13, 11, 9)),
        ],
    )
    def test_separable_passes_equal_the_kernel(self, coarse_dims, fine_dims, dtype):
        # bit for bit the trilinear kernel at coarse position i/2, including the last fine index of an even
        # axis, which lerps from cell n-2 at fraction 1, and a -0.0 that the lerp turns into 0.0
        u = np.random.default_rng(5).normal(size=(3, *coarse_dims)).astype(dtype)
        u[0, 0, 0, 0] = -0.0
        grid = np.broadcast_arrays(*registration._grid_axes(fine_dims, (0.5, 0.5, 0.5)))
        want = _trilinear(u, *[g.ravel() for g in grid]).reshape(3, *fine_dims)
        got = _upsample_field(u, fine_dims)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fine_dims", [(10, 8, 6), (9, 7, 5)])
    def test_linear_field_reproduced_and_clamped(self, fine_dims):
        coarse_dims = (5, 4, 3)
        rng = np.random.default_rng(4)
        offset, slope = rng.normal(size=3), rng.normal(size=(3, 3))

        def linear(positions):  # a channel-major (3, nx, ny, nz) field
            grid = np.meshgrid(*positions, indexing="ij")
            return offset[:, None, None, None] + sum(slope[:, a, None, None, None] * grid[a] for a in range(3))

        u = linear([np.arange(n, dtype=np.float64) for n in coarse_dims])
        out = _upsample_field(u, fine_dims)
        # fine index i sits at coarse position i/2; positions past the last coarse voxel clamp to it
        coarse_pos = [np.minimum(np.arange(n) / 2.0, c - 1.0) for n, c in zip(fine_dims, coarse_dims)]
        assert out.shape == (3, *fine_dims)
        np.testing.assert_allclose(out, linear(coarse_pos), rtol=0, atol=1e-12)
        assert np.array_equal(out[:, -1, -1, -1], u[:, -1, -1, -1])
