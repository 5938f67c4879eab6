"""Similarity measures, warping, and the three registration stages."""

import math

import numpy as np
import pytest

from cineprop import registration
from cineprop.errors import DegenerateInputError, InvalidParameterError
from cineprop.phantom import PhantomSpec, generate_cine, generate_frame
from cineprop.registration import (
    AffineTransform,
    DisplacementField,
    RegistrationParams,
    _affine_columns,
    _affine_params_to_transform,
    _center_mm,
    _descend,
    _dissimilarity_to,
    _level_objective,
    _upsample_field,
    affine_to_field,
    register_affine,
    register_deformable,
    register_rigid,
    resample_affine,
    similarity,
    warp_image,
    warp_label,
)
from cineprop.volume import LV, LabelMap, ScalarVolume, gaussian_smooth, trilinear_sample_many
from helpers import shift_volume, trilinear_oracle

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


@pytest.fixture(scope="module")
def small_phantom():
    vol, lab = generate_frame(SMALL_SPEC, 0)
    return vol, lab


def _smooth_random(seed, dims=(12, 12, 12)):
    rng = np.random.default_rng(seed)
    raw = ScalarVolume(rng.normal(100, 30, size=dims).astype(np.float32))
    return gaussian_smooth(raw, 1.5)


class TestSimilarity:
    def test_identical_mse_zero(self):
        vol = _smooth_random(0)
        assert similarity(vol, vol, "mse") == 0.0

    def test_identical_ncc_minus_one(self):
        vol = _smooth_random(1)
        assert similarity(vol, vol, "ncc") == pytest.approx(-1.0, abs=1e-12)

    def test_constant_mse_closed_form(self):
        a = ScalarVolume(np.zeros((3, 3, 3)))
        b = ScalarVolume(np.full((3, 3, 3), 2.0))
        assert similarity(a, b, "mse") == 4.0

    def test_constant_ncc_is_zero(self):
        a = ScalarVolume(np.full((3, 3, 3), 5.0))
        b = _smooth_random(2, dims=(3, 3, 3))
        assert similarity(a, b, "ncc") == 0.0

    def test_dims_mismatch(self):
        with pytest.raises(InvalidParameterError):
            similarity(ScalarVolume(np.zeros((2, 2, 2))), ScalarVolume(np.zeros((3, 2, 2))), "mse")

    def test_unknown_kind(self):
        vol = ScalarVolume(np.zeros((2, 2, 2)))
        with pytest.raises(InvalidParameterError):
            similarity(vol, vol, "mutual_information")


class TestAffineTransform:
    def test_identity(self):
        tf = AffineTransform.identity()
        pts = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(tf.apply(pts), pts)

    def test_singular_rejected(self):
        m = np.eye(3)
        m[2, 2] = 0.0
        with pytest.raises(InvalidParameterError):
            AffineTransform(m, np.zeros(3))

    def test_is_rigid(self):
        assert AffineTransform.identity().is_rigid()
        assert not AffineTransform(np.eye(3) * 1.1, np.zeros(3)).is_rigid()


class TestDisplacementField:
    def test_shape_validation(self):
        with pytest.raises(InvalidParameterError):
            DisplacementField(np.zeros((2, 2, 2)), (1, 1, 1))

    def test_non_finite_rejected(self):
        v = np.zeros((2, 2, 2, 3))
        v[0, 0, 0, 0] = np.inf
        with pytest.raises(InvalidParameterError):
            DisplacementField(v, (1, 1, 1))


class TestParams:
    def test_iterations_must_match_levels(self):
        with pytest.raises(InvalidParameterError):
            RegistrationParams(pyramid_levels=2, iterations_per_level=(10, 10, 10))

    def test_bad_similarity(self):
        with pytest.raises(InvalidParameterError):
            RegistrationParams(similarity="ssd")

    def test_bad_step(self):
        with pytest.raises(InvalidParameterError):
            RegistrationParams(step_size=0.0)


class TestWarpImage:
    def test_zero_field_identity(self):
        vol = _smooth_random(3)
        field = DisplacementField(np.zeros((*vol.dims, 3)), vol.spacing)
        out = warp_image(vol, field)
        assert np.array_equal(out.data, vol.data)

    def test_uniform_shift_one_voxel(self):
        vol = _smooth_random(4)
        u = np.zeros((*vol.dims, 3))
        u[..., 0] = vol.spacing[0]  # +1 voxel along x in mm
        out = warp_image(vol, DisplacementField(u, vol.spacing))
        assert np.array_equal(out.data[:-1], vol.data[1:])

    def test_matches_per_voxel_oracle(self):
        vol = _smooth_random(5, dims=(7, 6, 5))
        rng = np.random.default_rng(6)
        u = rng.normal(0, 0.8, size=(*vol.dims, 3))
        out = warp_image(vol, DisplacementField(u, vol.spacing))
        for _ in range(60):
            i, j, k = (int(rng.integers(0, n)) for n in vol.dims)
            expected = trilinear_oracle(
                vol,
                i + u[i, j, k, 0] / vol.spacing[0],
                j + u[i, j, k, 1] / vol.spacing[1],
                k + u[i, j, k, 2] / vol.spacing[2],
            )
            assert float(out.data[i, j, k]) == pytest.approx(expected, abs=1e-5)


class TestWarpLabel:
    def test_zero_field_identity(self):
        rng = np.random.default_rng(7)
        lm = LabelMap(rng.integers(0, 4, size=(6, 6, 6)).astype(np.uint8))
        field = DisplacementField(np.zeros((6, 6, 6, 3)), lm.spacing)
        assert np.array_equal(warp_label(lm, field).data, lm.data)

    def test_uniform_shift_preserves_interior(self):
        rng = np.random.default_rng(8)
        lm = LabelMap(rng.integers(0, 4, size=(8, 8, 8)).astype(np.uint8))
        u = np.zeros((8, 8, 8, 3))
        u[..., 0] = 1.0
        out = warp_label(lm, DisplacementField(u, lm.spacing))
        assert np.array_equal(out.data[:-1], lm.data[1:])

    def test_never_emits_absent_label(self):
        rng = np.random.default_rng(9)
        lm = LabelMap((rng.integers(0, 2, size=(6, 6, 6)) * 3).astype(np.uint8))  # only {0, 3}
        u = rng.normal(0, 2.0, size=(6, 6, 6, 3))
        out = warp_label(lm, DisplacementField(u, lm.spacing))
        assert set(np.unique(out.data)) <= {0, 3}


class TestDescend:
    def test_monotone_trace_on_quadratic(self):
        target = np.array([2.0, -1.0, 0.5])

        def objective(theta):
            d = theta - target
            return float(d @ d)

        theta, trace = _descend(objective, np.zeros(3), np.ones(3), 100, 0.5, 1e-8)
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert np.allclose(theta, target, atol=0.05)


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
        assert np.all(np.abs(AffineTransform(m, t).apply(pts) - ref) <= bound)

    def test_similarity_matches_dot_forms(self):
        rng = np.random.default_rng(1)
        fixed = rng.normal(100.0, 30.0, size=self.N).astype(np.float32)
        score_ncc = _dissimilarity_to(fixed, "ncc")
        score_mse = _dissimilarity_to(fixed, "mse")
        for sign in (1.0, -1.0):  # the fixed-side terms are reused across calls
            warped = sign * fixed + rng.normal(0.0, 20.0, size=self.N)
            ref = _ncc_by_dot(fixed, warped)
            assert abs(ref) > 0.5
            assert math.isclose(score_ncc(warped), ref, rel_tol=self.RTOL, abs_tol=0.0)
            d = fixed.astype(np.float64) - warped
            assert score_mse(warped) == float(np.mean(d * d))

    def test_level_objective_matches_matmul_form(self):
        rng = np.random.default_rng(2)
        spacing = (1.5, 1.5, 8.0)
        fixed = gaussian_smooth(ScalarVolume(rng.normal(100, 30, size=(96, 96, 12)).astype(np.float32), spacing), 3.0)
        moving = fixed  # a near-identity affine of itself keeps |NCC| well away from 0
        center = _center_mm(fixed)
        objective = _level_objective(fixed, moving, "ncc", lambda th: _affine_params_to_transform(th, center))
        theta = np.concatenate([(np.eye(3) + rng.normal(scale=0.005, size=(3, 3))).ravel(), [0.5, -0.4, 1.0]])
        tf = _affine_params_to_transform(theta, center)
        # the reference strides the 110k-voxel grid exactly as the objective does (stride 2)
        axes = [np.arange(0, n, 2, dtype=np.float64) * s for n, s in zip(fixed.dims, spacing)]
        grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        pts = grid @ tf.matrix.T + tf.translation
        warped = trilinear_sample_many(moving, pts[:, 0] / 1.5, pts[:, 1] / 1.5, pts[:, 2] / 8.0)
        ref = _ncc_by_dot(fixed.data[::2, ::2, ::2], warped)
        assert abs(ref) > 0.5
        assert math.isclose(objective(theta), ref, rel_tol=self.RTOL, abs_tol=0.0)
        assert objective(np.zeros(12)) == math.inf  # singular candidate: the line search must back off


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
        tf = register_affine(vol, vol, AffineTransform.identity(), RegistrationParams())
        assert np.abs(tf.matrix - np.eye(3)).max() < 1e-3
        assert np.abs(tf.translation).max() < 1e-3

    def test_objective_never_worse_than_init(self, small_phantom):
        vol, _ = small_phantom
        moving = shift_volume(vol, (1, 1, 0))
        init = AffineTransform.identity()
        params = RegistrationParams()
        tf = register_affine(vol, moving, init, params)
        f_init = similarity(vol, resample_affine(moving, init, vol), params.similarity)
        f_final = similarity(vol, resample_affine(moving, tf, vol), params.similarity)
        assert f_final <= f_init

    def test_scale_recovery(self, small_phantom):
        vol, _ = small_phantom
        center = _center_mm(vol)
        s = 1.0 / 1.08
        pullback = AffineTransform(np.eye(3) * s, center - s * center)
        moving = resample_affine(vol, pullback, vol)
        tf = register_affine(vol, moving, AffineTransform.identity(), RegistrationParams())
        scale = np.linalg.det(tf.matrix) ** (1.0 / 3.0)
        assert 1.05 < scale < 1.11


class TestDeformable:
    def test_self_registration_near_zero_field(self, small_phantom):
        vol, _ = small_phantom
        field = register_deformable(vol, vol, AffineTransform.identity(), RegistrationParams())
        mags = np.sqrt((field.vectors**2).sum(axis=-1))
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
        affine = register_affine(fixed, moving, rigid, params)
        field = register_deformable(fixed, moving, affine, params)
        kind = params.similarity

        def score(tf):
            return similarity(fixed, resample_affine(moving, tf, fixed), kind)

        f_before = score(AffineTransform.identity())
        f_rigid = score(rigid)
        f_affine = score(affine)
        f_deform = similarity(fixed, warp_image(moving, field), kind)
        assert f_rigid <= f_before
        assert f_affine <= f_rigid
        assert f_deform <= f_affine

    def test_no_field_warped_twice(self, monkeypatch):
        # the demons loop carries the warp of each accepted field into its next iteration
        spec = PhantomSpec(
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
        cine = generate_cine(spec)
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
        affine = register_affine(fixed, moving, rigid, params)
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


class TestAffineToField:
    def test_identity_gives_zero_field(self):
        field = affine_to_field(AffineTransform.identity(), (4, 4, 4), (1.0, 1.0, 1.0))
        assert np.all(field.vectors == 0.0)

    def test_translation_field(self):
        tf = AffineTransform(np.eye(3), np.array([1.5, 0.0, -2.0]))
        field = affine_to_field(tf, (3, 3, 3), (1.0, 1.0, 1.0))
        assert np.all(field.vectors[..., 0] == 1.5)
        assert np.all(field.vectors[..., 2] == -2.0)


class TestUpsampleField:
    @pytest.mark.parametrize("fine_dims", [(10, 8, 6), (9, 7, 5)])
    def test_linear_field_reproduced_and_clamped(self, fine_dims):
        coarse_dims = (5, 4, 3)
        rng = np.random.default_rng(4)
        offset, slope = rng.normal(size=3), rng.normal(size=(3, 3))

        def linear(positions):
            grid = np.meshgrid(*positions, indexing="ij")
            return offset + sum(slope[:, a] * grid[a][..., None] for a in range(3))

        u = linear([np.arange(n, dtype=np.float64) for n in coarse_dims])
        out = _upsample_field(u, fine_dims)
        # fine index i sits at coarse position i/2; positions past the last coarse voxel clamp to it
        coarse_pos = [np.minimum(np.arange(n) / 2.0, c - 1.0) for n, c in zip(fine_dims, coarse_dims)]
        assert out.shape == (*fine_dims, 3)
        np.testing.assert_allclose(out, linear(coarse_pos), rtol=0, atol=1e-12)
        assert np.array_equal(out[-1, -1, -1], u[-1, -1, -1])
