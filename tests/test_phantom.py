"""Phantom geometry, determinism, and analytic-label consistency."""

import math

import numpy as np
import pytest

from cineprop.errors import InvalidParameterError
from cineprop.phantom import PhantomCine, PhantomSpec, _blend_weight, generate_cine
from cineprop.volume import BACKGROUND, LV, MYO, RV
from helpers import phantom_frame

SMALL = PhantomSpec(
    dims=(32, 32, 32),
    lv_radius_es=8.0,
    lv_radius_ed=6.5,
    myo_thickness=3.0,
    rv_offset=(-9.0, 0.0, 0.0),
    rv_radius=6.0,
    frames=5,
    es_index=0,
    ed_index=4,
)


class TestSpecValidation:
    def test_defaults_valid(self):
        PhantomSpec()

    def test_geometry_out_of_bounds(self):
        with pytest.raises(InvalidParameterError, match="bounds"):
            PhantomSpec(dims=(24, 24, 24))  # default radii exceed a 24-voxel grid

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParameterError, match="seed"):
            PhantomSpec(seed=-1)

    def test_equal_templates_rejected(self):
        with pytest.raises(InvalidParameterError):
            PhantomSpec(es_index=2, ed_index=2)

    def test_duplicate_intensities_rejected(self):
        with pytest.raises(InvalidParameterError):
            PhantomSpec(intensities=(0.0, 100.0, 100.0, 200.0))


class TestBlendWeight:
    def test_endpoints_and_clamp(self):
        spec = PhantomSpec(frames=11, es_index=2, ed_index=8)
        assert _blend_weight(spec, 2) == 0.0
        assert _blend_weight(spec, 8) == 1.0
        assert _blend_weight(spec, 0) == 0.0
        assert _blend_weight(spec, 10) == 1.0

    def test_monotone_between_templates(self):
        spec = PhantomSpec(frames=11, es_index=0, ed_index=10)
        alphas = [_blend_weight(spec, t) for t in range(11)]
        assert all(b >= a for a, b in zip(alphas, alphas[1:]))
        assert alphas[5] == pytest.approx(0.5, abs=1e-12)

    def test_reversed_template_order(self):
        spec = PhantomSpec(frames=11, es_index=10, ed_index=0)
        assert _blend_weight(spec, 10) == 0.0
        assert _blend_weight(spec, 0) == 1.0


class TestGenerateFrame:
    def test_labels_match_analytic_oracle(self):
        vol, lab = phantom_frame(SMALL, 2)
        alpha = _blend_weight(SMALL, 2)
        lv_r = SMALL.lv_radius_es + alpha * (SMALL.lv_radius_ed - SMALL.lv_radius_es)
        outer = lv_r + SMALL.myo_thickness
        c = (np.asarray(SMALL.dims) - 1) / 2
        c_rv = c + np.asarray(SMALL.rv_offset)
        for i in range(0, 32, 3):
            for j in range(0, 32, 3):
                for k in range(0, 32, 3):
                    d_lv = math.dist((i, j, k), c)
                    d_rv = math.dist((i, j, k), c_rv)
                    if d_lv <= lv_r:
                        expected = LV
                    elif d_lv <= outer:
                        expected = MYO
                    elif d_rv <= SMALL.rv_radius:
                        expected = RV
                    else:
                        expected = BACKGROUND
                    assert lab.data[i, j, k] == expected

    def test_endpoint_radii(self):
        _, lab_es = phantom_frame(SMALL, SMALL.es_index)
        _, lab_mid = phantom_frame(SMALL, 2)
        _, lab_ed = phantom_frame(SMALL, SMALL.ed_index)
        n_es = int((lab_es.data == LV).sum())
        n_mid = int((lab_mid.data == LV).sum())
        n_ed = int((lab_ed.data == LV).sum())
        assert n_es > n_mid > n_ed  # radius shrinks ES -> ED

    def test_class_means_exact_when_noiseless(self):
        vol, lab = phantom_frame(SMALL, 1)
        for code, level in zip((BACKGROUND, LV, MYO, RV), SMALL.intensities):
            values = vol.data[lab.data == code]
            assert values.size > 0
            assert np.all(values == np.float32(level))

    def test_deterministic_with_noise(self):
        spec = PhantomSpec(
            dims=(32, 32, 32),
            lv_radius_es=8.0,
            lv_radius_ed=6.5,
            myo_thickness=3.0,
            rv_offset=(-9.0, 0.0, 0.0),
            rv_radius=6.0,
            frames=5,
            es_index=0,
            ed_index=4,
            noise_sigma=10.0,
            seed=42,
        )
        v1, l1 = phantom_frame(spec, 2)
        v2, l2 = phantom_frame(spec, 2)
        assert v1.data.tobytes() == v2.data.tobytes()
        assert np.array_equal(l1.data, l2.data)

    def test_noise_does_not_touch_labels(self):
        noisy = PhantomSpec(
            dims=(32, 32, 32),
            lv_radius_es=8.0,
            lv_radius_ed=6.5,
            myo_thickness=3.0,
            rv_offset=(-9.0, 0.0, 0.0),
            rv_radius=6.0,
            frames=5,
            es_index=0,
            ed_index=4,
            noise_sigma=25.0,
        )
        _, lab_noisy = phantom_frame(noisy, 2)
        _, lab_clean = phantom_frame(SMALL, 2)
        assert np.array_equal(lab_noisy.data, lab_clean.data)


class TestGenerateCine:
    def test_cardinality_and_templates(self):
        cine = generate_cine(SMALL)
        assert isinstance(cine, PhantomCine)
        assert cine.series.n_frames == 5
        assert len(cine.ground_truth) == 5
        assert np.array_equal(cine.series.es_label.data, cine.ground_truth[0].data)
        assert np.array_equal(cine.series.ed_label.data, cine.ground_truth[4].data)

    def test_lv_counts_monotone_and_near_analytic_volume(self):
        cine = generate_cine(SMALL)
        counts = [int((g.data == LV).sum()) for g in cine.ground_truth]
        assert all(b <= a for a, b in zip(counts, counts[1:]))  # shrinking LV
        for t, count in enumerate(counts):
            alpha = _blend_weight(SMALL, t)
            r = SMALL.lv_radius_es + alpha * (SMALL.lv_radius_ed - SMALL.lv_radius_es)
            volume = 4.0 / 3.0 * math.pi * r**3
            surface = 4.0 * math.pi * r**2
            # lattice count deviates from the ball volume by at most O(surface)
            assert abs(count - volume) <= 2.0 * surface

    def test_deformation_magnitude_monotone_in_alpha(self):
        cine = generate_cine(SMALL)
        ref = cine.ground_truth[0].data
        mismatch = [int((g.data != ref).sum()) for g in cine.ground_truth]
        assert all(b >= a for a, b in zip(mismatch, mismatch[1:]))
