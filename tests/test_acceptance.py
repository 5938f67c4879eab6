"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.  The registration-quality criteria drive full pipelines on
synthetic beating-heart phantoms with analytic ground truth.
"""

import math
import time

import numpy as np
import pytest

from cineprop import io
from cineprop.cli import EXIT_OK, run
from cineprop.metrics import dice, hausdorff
from cineprop.phantom import PhantomSpec, generate_cine
from cineprop.propagation import Template, propagate_frame, propagate_series
from cineprop.registration import (
    AffineTransform,
    RegistrationParams,
    _center_mm,
    register_rigid,
    _rotation_matrix,
)
from cineprop.style import SOURCE_BINS, build_reference, histogram_match, ks_statistic, vendor_transfer
from cineprop.volume import CineSeries, LabelMap, ScalarVolume
from helpers import (
    affine_stage,
    build_nifti_bytes,
    dice_oracle,
    hausdorff_oracle,
    phantom_frame,
    random_volume,
    resample_affine,
    shift_volume,
    write_cine_dir,
)

STAGE_TIME_LIMIT_S = 30.0

# 11-frame beating phantom: ES at 0, ED at 10, cosine ramp in between.
# Noise sigma is 10% of the smallest gap between class intensity levels.
CINE_SPEC = PhantomSpec(
    dims=(48, 48, 48),
    lv_radius_es=12.0,
    lv_radius_ed=10.0,
    myo_thickness=4.0,
    rv_offset=(-13.0, 0.0, 0.0),
    rv_radius=10.0,
    frames=11,
    es_index=0,
    ed_index=10,
    intensities=(0.0, 300.0, 100.0, 200.0),
    noise_sigma=10.0,
    seed=3,
)


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


@pytest.fixture(scope="module")
def phantom64():
    vol, _ = phantom_frame(PhantomSpec(), 0)  # 64^3, noiseless
    return vol


@pytest.fixture(scope="module")
def cine():
    return generate_cine(CINE_SPEC)


@pytest.fixture(scope="module")
def cine_results(cine):
    return propagate_series(cine.series, RegistrationParams(), workers=4)


class TestCriterion1RegistrationRecovery:
    def test_recovery_within_tolerance_and_time(self, phantom64):
        params = RegistrationParams()
        spacing = np.asarray(phantom64.spacing)

        t0 = time.perf_counter()
        tf = register_rigid(phantom64, shift_volume(phantom64, (3, -2, 1)), params)
        t_translation = time.perf_counter() - t0
        shift_mm = np.array([3.0, -2.0, 1.0]) * spacing
        err_vox = np.abs(tf.translation - shift_mm) / spacing
        assert np.all(err_vox <= 0.5), f"translation error {err_vox} voxels"
        assert t_translation <= STAGE_TIME_LIMIT_S

        center = _center_mm(phantom64)
        angle = math.radians(5.0)
        pullback = _rotation_matrix(0.0, 0.0, -angle)
        rotated = resample_affine(
            phantom64, AffineTransform(pullback, center - pullback @ center), phantom64
        )
        t0 = time.perf_counter()
        tf = register_rigid(phantom64, rotated, params)
        t_rotation = time.perf_counter() - t0
        recovered_deg = math.degrees(math.atan2(tf.matrix[1, 0], tf.matrix[0, 0]))
        assert abs(recovered_deg - 5.0) <= 1.0, f"rotation recovered {recovered_deg} deg"
        assert t_rotation <= STAGE_TIME_LIMIT_S

        s = 1.0 / 1.10
        scaled = resample_affine(
            phantom64, AffineTransform(np.eye(3) * s, center - s * center), phantom64
        )
        t0 = time.perf_counter()
        tf = affine_stage(phantom64, scaled, AffineTransform.identity(), params)
        t_scale = time.perf_counter() - t0
        recovered_scale = float(np.linalg.det(tf.matrix)) ** (1.0 / 3.0)
        assert abs(recovered_scale - 1.10) <= 0.02, f"scale recovered {recovered_scale}"
        assert t_scale <= STAGE_TIME_LIMIT_S

        _passed(1, "registration recovery")


class TestCriterion2SelfPropagation:
    def test_duplicate_es_frame(self, cine):
        frames = list(cine.series.frames)
        frames[5] = frames[0]  # exact duplicate of the ES frame, unlabeled slot
        series = CineSeries(
            frames=tuple(frames),
            es_index=0,
            ed_index=10,
            es_label=cine.series.es_label,
            ed_label=cine.series.ed_label,
        )
        res = propagate_frame(series, 5, RegistrationParams())
        assert res.chosen_template is Template.ES
        agreement = float(np.mean(res.pseudo_label.data == series.es_label.data))
        assert agreement >= 0.99, f"agreement {agreement}"
        _passed(2, "self-propagation identity")


class TestCriterion3WarpNormSelection:
    def test_single_switch_and_edge_frames(self, cine_results):
        chosen = {r.frame_index: r.chosen_template for r in cine_results}
        sequence = [chosen[t] for t in range(1, 10)]
        switches = sum(1 for a, b in zip(sequence, sequence[1:]) if a is not b)
        assert switches <= 1, f"template switched {switches} times: {[c.value for c in sequence]}"
        assert chosen[1] is Template.ES and chosen[2] is Template.ES
        assert chosen[8] is Template.ED and chosen[9] is Template.ED
        _passed(3, "warp-norm template selection")


class TestCriterion4PseudoLabelQuality:
    def test_mean_dice_per_class(self, cine, cine_results):
        sums = {1: [], 2: [], 3: []}
        for res in cine_results:
            gt = cine.ground_truth[res.frame_index]
            for label in (1, 2, 3):
                sums[label].append(dice(res.pseudo_label, gt, label))
        means = {label: float(np.mean(vals)) for label, vals in sums.items()}
        for label, name in ((1, "LV"), (2, "MYO"), (3, "RV")):
            assert means[label] >= 0.90, f"mean {name} dice {means[label]:.4f}"
        _passed(4, f"pseudo-label quality (LV {means[1]:.3f}, MYO {means[2]:.3f}, RV {means[3]:.3f})")


class TestCriterion5HistogramMatching:
    def test_ks_bound_self_match_and_monotonicity(self):
        rng = np.random.default_rng(40)
        vol = ScalarVolume(rng.normal(100.0, 25.0, size=(16, 16, 16)).astype(np.float32))
        ref_vol = ScalarVolume(rng.normal(170.0, 40.0, size=(24, 24, 24)).astype(np.float32))
        ref = build_reference([ref_vol], 1, seed=41)

        matched, degenerate = histogram_match(vol, ref)
        assert not degenerate
        n = matched.data.size
        bound = 2.0 / SOURCE_BINS + 2.0 / math.sqrt(n)
        stat = ks_statistic(matched.data.ravel(), ref.intensities)
        assert stat <= bound, f"KS {stat} > bound {bound}"

        plate = rng.uniform(0.0, 200.0, size=(16, 16)).astype(np.float32)
        homogeneous = ScalarVolume(np.repeat(plate[:, :, None], 12, axis=2))
        self_ref = build_reference([homogeneous], 1, seed=42)
        self_matched, _ = histogram_match(homogeneous, self_ref)
        step = (float(homogeneous.data.max()) - float(homogeneous.data.min())) / SOURCE_BINS
        delta = float(np.abs(self_matched.data - homogeneous.data).max())
        assert delta <= step + 1e-5, f"self-match moved values by {delta} > {step}"

        order = np.argsort(vol.data.ravel())  # every voxel, in ascending input order
        assert np.all(np.diff(matched.data.ravel()[order]) >= 0), "matching reordered the voxel ranks"

        _passed(5, "histogram matching")


class TestCriterion6VendorTransfer:
    def test_moment_recovery(self):
        rng = np.random.default_rng(43)
        dataset = [(ScalarVolume(rng.normal(100, 10, size=(24, 24, 24)).astype(np.float32)), "A") for _ in range(4)]
        dataset += [(ScalarVolume(rng.normal(200, 20, size=(24, 24, 24)).astype(np.float32)), "B") for _ in range(4)]
        out = vendor_transfer(dataset, "A", "B", seed=44)
        values = np.concatenate([v.data.ravel() for v in out]).astype(np.float64)
        mean, std = float(values.mean()), float(values.std())
        assert abs(mean - 200.0) <= 5.0, f"mean {mean}"
        assert abs(std - 20.0) <= 5.0, f"std {std}"
        _passed(6, f"vendor transfer moments (mean {mean:.1f}, std {std:.1f})")


class TestCriterion7MetricOracles:
    def test_brute_force_agreement_and_scaling(self):
        rng = np.random.default_rng(45)
        pairs_checked = 0
        while pairs_checked < 200:
            dims = tuple(int(rng.integers(2, 9)) for _ in range(3))
            spacing = tuple(float(s) for s in rng.choice([0.5, 1.0, 2.0], size=3))
            a = LabelMap(rng.integers(0, 4, size=dims).astype(np.uint8), spacing)
            b = LabelMap(rng.integers(0, 4, size=dims).astype(np.uint8), spacing)
            label = int(rng.integers(1, 4))
            assert dice(a, b, label) == dice_oracle(a, b, label)
            if (a.data == label).any() and (b.data == label).any():
                assert hausdorff(a, b, label) == hausdorff_oracle(a, b, label)
            pairs_checked += 1

        for base_spacing in ((1.0, 1.0, 1.0), (2.0, 1.0, 1.0)):
            data_a = rng.integers(0, 2, size=(6, 6, 6)).astype(np.uint8)
            data_b = rng.integers(0, 2, size=(6, 6, 6)).astype(np.uint8)
            a1 = LabelMap(data_a, base_spacing)
            b1 = LabelMap(data_b, base_spacing)
            hd_base = hausdorff(a1, b1, 1)
            dice_base = dice(a1, b1, 1)
            for s in (0.5, 2.0, 3.0):
                scaled = tuple(sp * s for sp in base_spacing)
                a2 = LabelMap(data_a, scaled)
                b2 = LabelMap(data_b, scaled)
                assert hausdorff(a2, b2, 1) == s * hd_base
                assert dice(a2, b2, 1) == dice_base

        _passed(7, "metric oracles and spacing scaling")


class TestCriterion8IO:
    def test_mvol_round_trips_and_nifti_fixtures(self, tmp_path):
        rng = np.random.default_rng(46)
        for i in range(100):
            vol = random_volume(rng, max_dim=16)
            path = tmp_path / "roundtrip.mvol"
            io.write_mvol(vol, path)
            back = io.read_mvol(path)
            assert back.dims == vol.dims
            assert back.spacing == vol.spacing
            assert back.data.tobytes() == vol.data.tobytes()

        data = np.arange(24, dtype=np.float32).reshape(2, 3, 4) * 1.5 - 4.0
        nii = tmp_path / "fixture.nii"
        nii.write_bytes(build_nifti_bytes(data, spacing=(0.8, 1.2, 2.5)))
        vol = io.read_nifti1(nii)
        assert np.array_equal(vol.data, data)
        assert vol.spacing == pytest.approx((0.8, 1.2, 2.5), abs=1e-6)

        raw = np.full((3, 3, 3), 3, dtype=np.int16)
        nii.write_bytes(build_nifti_bytes(raw, scl_slope=2.0, scl_inter=1.0))
        assert np.all(io.read_nifti1(nii).data == 7.0)

        _passed(8, "I/O round trips and NIfTI ingestion")


class TestCriterion9Determinism:
    def test_cli_runs_are_reproducible(self, tmp_path):
        def tree(root):
            return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}

        ph1, ph2 = tmp_path / "ph1", tmp_path / "ph2"
        for out in (ph1, ph2):
            assert run(["phantom", "--frames", "5", "--out", str(out), "--seed", "9"]) == EXIT_OK
        assert tree(ph1) == tree(ph2)

        hm1, hm2 = tmp_path / "hm1", tmp_path / "hm2"
        for out in (hm1, hm2):
            code = run(["histmatch", "--manifest", str(ph1 / "manifest.txt"), "--out", str(out), "--seed", "5"])
            assert code == EXIT_OK
        assert tree(hm1) == tree(hm2)

        spec_b = PhantomSpec(
            dims=(20, 20, 20),
            lv_radius_es=5.0,
            lv_radius_ed=4.2,
            myo_thickness=2.0,
            rv_offset=(-6.0, 0.0, 0.0),
            rv_radius=3.0,
            frames=4,
            es_index=0,
            ed_index=3,
            intensities=(10.0, 400.0, 150.0, 260.0),
            noise_sigma=4.0,
            seed=77,
        )
        m_a, _ = write_cine_dir(tmp_path / "va", vendor="A", subject="sa")
        m_b, _ = write_cine_dir(tmp_path / "vb", spec=spec_b, vendor="B", subject="sb")
        tr1, tr2 = tmp_path / "tr1", tmp_path / "tr2"
        for out in (tr1, tr2):
            code = run(
                [
                    "transfer",
                    "--manifest", str(m_a),
                    "--manifest", str(m_b),
                    "--from-vendor", "A",
                    "--to-vendor", "B",
                    "--out", str(out),
                    "--seed", "13",
                ]
            )
            assert code == EXIT_OK
        assert tree(tr1) == tree(tr2)

        reports = []
        for workers, out in (("1", tmp_path / "pw1"), ("4", tmp_path / "pw4")):
            code = run(
                [
                    "propagate",
                    "--manifest", str(m_a),
                    "--out", str(out),
                    "--workers", workers,
                    "--iters", "30,20",
                ]
            )
            assert code == EXIT_OK
            reports.append(io.read_propagation_report(out / "propagation_report.txt"))
        assert len(reports[0]) == len(reports[1])
        for rec1, rec4 in zip(reports[0], reports[1]):
            assert rec1["frame"] == rec4["frame"]
            assert rec1["chosen"] == rec4["chosen"]
            assert rec1["es_norm_mm"] == pytest.approx(rec4["es_norm_mm"], abs=1e-6)
            assert rec1["ed_norm_mm"] == pytest.approx(rec4["ed_norm_mm"], abs=1e-6)

        _passed(9, "seeded determinism and worker stability")
