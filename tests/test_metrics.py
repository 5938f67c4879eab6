"""Dice and Hausdorff against brute-force oracles and closed forms."""

import math
import tracemalloc

import numpy as np
import pytest

from cineprop import metrics
from cineprop.errors import DegenerateInputError, InvalidParameterError
from cineprop.metrics import dice, evaluate_case, hausdorff
from cineprop.volume import LV, MYO, RV, LabelMap
from helpers import dice_oracle, hausdorff_oracle, random_label_map


def _mask_map(mask: np.ndarray, label=1, spacing=(1.0, 1.0, 1.0)) -> LabelMap:
    return LabelMap((mask.astype(np.uint8) * label), spacing)


class TestDice:
    def test_identical(self):
        lm = random_label_map(np.random.default_rng(0), max_dim=6)
        for label in (1, 2, 3):
            assert dice(lm, lm, label) == 1.0

    def test_disjoint_equal_size(self):
        a = np.zeros((4, 4, 1), dtype=bool)
        b = np.zeros((4, 4, 1), dtype=bool)
        a[0:2, 0:2, 0] = True
        b[2:4, 2:4, 0] = True
        assert dice(_mask_map(a), _mask_map(b), 1) == 0.0

    def test_shifted_block_half_overlap(self):
        a = np.zeros((4, 3, 1), dtype=bool)
        b = np.zeros((4, 3, 1), dtype=bool)
        a[0:2, 0:2, 0] = True  # 2x2 block
        b[1:3, 0:2, 0] = True  # shifted by 1 along x, overlap 2 of 4
        assert dice(_mask_map(a), _mask_map(b), 1) == 0.5

    def test_empty_conventions(self):
        empty = _mask_map(np.zeros((3, 3, 3), dtype=bool))
        full = _mask_map(np.ones((3, 3, 3), dtype=bool))
        assert dice(empty, empty, 1) == 1.0
        assert dice(empty, full, 1) == 0.0
        assert dice(full, empty, 1) == 0.0

    def test_dims_mismatch(self):
        with pytest.raises(InvalidParameterError):
            dice(_mask_map(np.zeros((2, 2, 2), dtype=bool)), _mask_map(np.zeros((3, 2, 2), dtype=bool)), 1)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = random_label_map(rng, max_dim=6)
            b = LabelMap(rng.integers(0, 4, size=a.dims).astype(np.uint8), a.spacing)
            for label in (1, 2, 3):
                d_ab = dice(a, b, label)
                assert d_ab == dice(b, a, label)
                assert 0.0 <= d_ab <= 1.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_label_map(rng, max_dim=5)
            b = LabelMap(rng.integers(0, 4, size=a.dims).astype(np.uint8), a.spacing)
            for label in (1, 2, 3):
                assert dice(a, b, label) == dice_oracle(a, b, label)


class TestHausdorff:
    def test_identical_zero(self):
        rng = np.random.default_rng(3)
        lm = random_label_map(rng, max_dim=5)
        while not (lm.data == 1).any():
            lm = random_label_map(rng, max_dim=5)
        assert hausdorff(lm, lm, 1) == 0.0

    def test_single_voxel_closed_form(self):
        a = np.zeros((4, 1, 1), dtype=bool)
        b = np.zeros((4, 1, 1), dtype=bool)
        a[0, 0, 0] = True
        b[3, 0, 0] = True
        spacing = (2.0, 1.0, 1.0)
        assert hausdorff(_mask_map(a, spacing=spacing), _mask_map(b, spacing=spacing), 1) == 6.0

    def test_empty_mask_raises(self):
        empty = _mask_map(np.zeros((3, 3, 3), dtype=bool))
        full = _mask_map(np.ones((3, 3, 3), dtype=bool))
        with pytest.raises(DegenerateInputError, match="empty in pred"):
            hausdorff(empty, full, 1)
        with pytest.raises(DegenerateInputError, match="empty in gt"):
            hausdorff(full, empty, 1)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 50:
            a = random_label_map(rng, max_dim=5)
            b = LabelMap(rng.integers(0, 4, size=a.dims).astype(np.uint8), a.spacing)
            for label in (1, 2, 3):
                if (a.data == label).any() and (b.data == label).any():
                    assert hausdorff(a, b, label) == hausdorff_oracle(a, b, label)
                    checked += 1

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = random_label_map(rng, max_dim=6)
        b = LabelMap(rng.integers(0, 4, size=a.dims).astype(np.uint8), a.spacing)
        for label in (1, 2, 3):
            if (a.data == label).any() and (b.data == label).any():
                assert hausdorff(a, b, label) == hausdorff(b, a, label)

    @pytest.mark.parametrize("scale", [0.5, 2.0, 3.0])
    def test_spacing_scaling_exact(self, scale):
        rng = np.random.default_rng(6)
        base_spacing = (2.0, 1.0, 1.0)
        a_data = rng.integers(0, 2, size=(5, 5, 5)).astype(np.uint8)
        b_data = rng.integers(0, 2, size=(5, 5, 5)).astype(np.uint8)
        a1, b1 = LabelMap(a_data, base_spacing), LabelMap(b_data, base_spacing)
        scaled = tuple(s * scale for s in base_spacing)
        a2, b2 = LabelMap(a_data, scaled), LabelMap(b_data, scaled)
        assert hausdorff(a2, b2, 1) == scale * hausdorff(a1, b1, 1)
        assert dice(a2, b2, 1) == dice(a1, b1, 1)


class TestHausdorffExactness:
    """Exact agreement with the brute-force oracle beyond dyadic spacings."""

    KINDS = {"float-spacing": 20, "clinical-spacing": 21, "thin-grid": 22, "nested": 23, "edge-voxel": 24}

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_matches_brute_force_exactly(self, kind):
        # "nested": each class of a lies inside the same class of b, so one
        # direction has no voxel outside the other mask; "edge-voxel": a and b
        # differ in one voxel on the grid's boundary, so every class has at
        # most one such voxel in all
        rng = np.random.default_rng(self.KINDS[kind])
        checked = 0
        while checked < 600:
            dims = [int(rng.integers(1, 11)) for _ in range(3)]
            spacing = (1.25, 1.25, 8.0)
            if kind in ("float-spacing", "nested"):
                spacing = tuple(float(s) for s in rng.uniform(0.2, 10.0, size=3))
            elif kind == "thin-grid":
                for axis in rng.choice(3, size=int(rng.integers(1, 3)), replace=False):
                    dims[axis] = 1
                spacing = tuple(float(s) for s in rng.uniform(0.2, 10.0, size=3))
            a = LabelMap(rng.integers(0, 4, size=dims).astype(np.uint8), spacing)
            b = LabelMap(rng.integers(0, 4, size=dims).astype(np.uint8), spacing)
            if kind == "nested":
                a = LabelMap(np.where(rng.random(dims) < 0.6, b.data, 0).astype(np.uint8), spacing)
            elif kind == "edge-voxel":
                voxel = [int(rng.integers(0, n)) for n in dims]
                axis = int(rng.integers(0, 3))
                voxel[axis] = int(rng.choice([0, dims[axis] - 1]))
                changed = a.data.copy()
                changed[tuple(voxel)] = (changed[tuple(voxel)] + rng.integers(1, 4)) % 4
                b = LabelMap(changed, spacing)
            for label in (1, 2, 3):
                if (a.data == label).any() and (b.data == label).any():
                    assert hausdorff(a, b, label) == hausdorff_oracle(a, b, label)
                    assert hausdorff(b, a, label) == hausdorff_oracle(b, a, label)
                    checked += 1

    def test_sum_grouping_follows_oracle(self):
        # one pair of voxels, where (d0² + d1²) + d2² and d0² + (d1² + d2²)
        # round to different distances: the oracle's grouping must win
        spacing = (1.0, 1.3, 2.9)
        a = np.zeros((2, 2, 2), dtype=bool)
        b = np.zeros((2, 2, 2), dtype=bool)
        a[0, 0, 0] = True
        b[1, 1, 1] = True
        pred, gt = _mask_map(a, spacing=spacing), _mask_map(b, spacing=spacing)
        d0, d1, d2 = 1.0, 1.3**2, 2.9**2
        assert math.sqrt((d0 + d1) + d2) != math.sqrt(d0 + (d1 + d2))
        assert hausdorff(pred, gt, 1) == hausdorff_oracle(pred, gt, 1) == math.sqrt((d0 + d1) + d2)

    @pytest.mark.parametrize("seed", [30, 31, 32])
    def test_far_islands_spanning_grid(self, seed):
        # false positives in two opposite corners stretch the bounding box of
        # P∪G over the whole grid while the masks stay small
        rng = np.random.default_rng(seed)
        dims, spacing = (40, 48, 6), (1.25, 1.25, 8.0)
        gt = np.zeros(dims, dtype=bool)
        gt[14:24, 18:30, 2:5] = rng.random((10, 12, 3)) < 0.7
        pred = np.roll(gt, 1, axis=0) | (rng.random(dims) < 0.002)
        pred[0, 0, 0] = pred[-1, -1, -1] = True
        p, g = _mask_map(pred, label=2, spacing=spacing), _mask_map(gt, label=2, spacing=spacing)
        assert hausdorff(p, g, 2) == hausdorff_oracle(p, g, 2)
        assert hausdorff(g, p, 2) == hausdorff_oracle(g, p, 2)


class TestHausdorffClinicalGrid:
    """256×256×12 masks at 1.25×1.25×8 mm: closed forms in bounded memory."""

    SPACING = (1.25, 1.25, 8.0)
    PEAK_LIMIT = 64 * 2**20  # bytes; the pairwise brute force peaked near 900 MiB on this grid

    @classmethod
    def _myocardium(cls, shift: int) -> LabelMap:
        x, y = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        r = np.hypot(x - 120 - shift, y - 130)
        data = np.zeros((256, 256, 12), dtype=np.uint8)
        data[:, :, 2:10] = ((r >= 20) & (r < 26))[:, :, None] * MYO
        return LabelMap(data, cls.SPACING)

    def _traced(self, pred: LabelMap, gt: LabelMap, label: int) -> float:
        tracemalloc.start()
        try:
            hd = hausdorff(pred, gt, label)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_LIMIT
        return hd

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_shifted_myocardium(self, k):
        # every voxel is k voxels from its own preimage, and the outermost one
        # along the shift is at least k from all of them
        assert self._traced(self._myocardium(k), self._myocardium(0), MYO) == k * 1.25

    def test_opposite_corners(self):
        a = np.zeros((256, 256, 12), dtype=bool)
        b = np.zeros((256, 256, 12), dtype=bool)
        a[0, 0, 0] = True
        b[255, 255, 11] = True
        pred, gt = _mask_map(a, spacing=self.SPACING), _mask_map(b, spacing=self.SPACING)
        expected = 1.25 * math.sqrt((255.0**2 + 255.0**2) + (11 * (8.0 / 1.25)) ** 2)
        assert self._traced(pred, gt, 1) == expected


class TestEvaluateCase:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 4, size=(6, 6, 6)).astype(np.uint8)
        lm = LabelMap(data)
        report = evaluate_case(lm, lm)
        for name in ("LV", "MYO", "RV"):
            assert report.entries[name].dice == 1.0
            assert report.entries[name].hausdorff_mm == 0.0

    def test_all_background_prediction(self):
        rng = np.random.default_rng(8)
        gt = LabelMap(rng.integers(0, 4, size=(5, 5, 5)).astype(np.uint8))
        pred = LabelMap(np.zeros((5, 5, 5), dtype=np.uint8))
        report = evaluate_case(pred, gt)
        for name in ("LV", "MYO", "RV"):
            assert report.entries[name].dice == 0.0
            assert report.entries[name].hausdorff_mm is None
            assert report.entries[name].pred_voxels == 0

    def test_matches_per_class_oracle(self):
        rng = np.random.default_rng(9)
        gt = LabelMap(rng.integers(0, 4, size=(6, 6, 6)).astype(np.uint8))
        pred = LabelMap(rng.integers(0, 4, size=(6, 6, 6)).astype(np.uint8))
        report = evaluate_case(pred, gt)
        for label, name in ((LV, "LV"), (MYO, "MYO"), (RV, "RV")):
            assert report.entries[name].dice == dice_oracle(pred, gt, label)
            assert type(report.entries[name].dice) is float and type(report.entries[name].pred_voxels) is int
            if report.entries[name].hausdorff_mm is not None:
                assert report.entries[name].hausdorff_mm == hausdorff_oracle(pred, gt, label)

    def test_grids_checked_once_per_case(self, monkeypatch):
        # each class mask is built once and handed to the private Dice and Hausdorff helpers
        rng = np.random.default_rng(10)
        gt = LabelMap(rng.integers(0, 4, size=(6, 6, 6)).astype(np.uint8), (1.0, 1.5, 4.0))
        pred = LabelMap(rng.integers(0, 4, size=(6, 6, 6)).astype(np.uint8), (1.0, 1.5, 4.0))
        expected = {label: (dice(pred, gt, label), hausdorff(pred, gt, label)) for label in (LV, MYO, RV)}
        calls = []
        check_grids = metrics._check_grids
        monkeypatch.setattr(metrics, "_check_grids", lambda *grids: calls.append(1) or check_grids(*grids))
        report = evaluate_case(pred, gt)
        assert len(calls) == 1  # not once more in each class's Dice and Hausdorff
        assert {label: (report.entries[name].dice, report.entries[name].hausdorff_mm)
                for label, name in ((LV, "LV"), (MYO, "MYO"), (RV, "RV"))} == expected
