"""Seeded benchmark inputs, written to disk the way a user would hand them to the CLI.

Three families, one per workload:

* ``write_iso48`` — isotropic 48^3 phantom series built with the library's own
  ``PhantomSpec`` (the acceptance-criterion-4 geometry, noise sigma 10).
* ``write_thick`` — clinical-shape thick-slice series (96x96x12 voxels at
  1.5x1.5x8 mm).  ``PhantomSpec`` measures geometry in voxels and cannot
  express anisotropic spacing, so the heart is generated here in mm.
* ``write_clinical`` — 256x256x12 label masks at 1.25x1.25x8 mm plus two
  vendors' intensity series on the same grid.

The seed changes only the noise (and, for the clinical masks, the size and
direction of the known shift); every shape, grid and file name is the same
for every seed, so runs on different seeds do the same amount of work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cineprop import io
from cineprop.phantom import PhantomSpec, generate_cine
from cineprop.volume import BACKGROUND, LV, MYO, RV, LabelMap, ScalarVolume

ISO48_FRAMES = 3  # per series: ES, one target, ED
ISO48_SERIES = 1
THICK_FRAMES = 4  # ES, two targets, ED: one target per worker
THICK_SERIES = 1
CLINICAL_CASES = 2
CLINICAL_VENDOR_FRAMES = 6


def iso48_spec(seed: int, series: int) -> PhantomSpec:
    return PhantomSpec(
        dims=(48, 48, 48),
        lv_radius_es=12.0,
        lv_radius_ed=10.0,
        myo_thickness=4.0,
        rv_offset=(-13.0, 0.0, 0.0),
        rv_radius=10.0,
        frames=ISO48_FRAMES,
        es_index=0,
        ed_index=ISO48_FRAMES - 1,
        noise_sigma=10.0,
        seed=seed * 1000 + series,
    )


@dataclass(frozen=True)
class Heart:
    """Prolate LV/MYO/RV geometry in mm; ``alpha`` 0 is ES, 1 is ED."""

    lv_inplane_es: float = 16.0
    lv_inplane_ed: float = 23.0
    lv_long_es: float = 26.0
    lv_long_ed: float = 31.0
    myo_mm: float = 8.0
    rv_offset_mm: tuple[float, float, float] = (-34.0, 4.0, 0.0)
    rv_inplane: float = 21.0
    rv_long: float = 30.0

    def labels(self, dims, spacing, alpha: float) -> np.ndarray:
        """Class codes at the voxel centres of a grid, heart centred in the field of view."""
        axes = [np.arange(n, dtype=np.float64) * s for n, s in zip(dims, spacing)]
        x, y, z = np.meshgrid(*axes, indexing="ij")
        center = [(n - 1) * s / 2.0 for n, s in zip(dims, spacing)]
        a = self.lv_inplane_es + alpha * (self.lv_inplane_ed - self.lv_inplane_es)
        c = self.lv_long_es + alpha * (self.lv_long_ed - self.lv_long_es)
        dx, dy, dz = x - center[0], y - center[1], z - center[2]
        lv = (dx / a) ** 2 + (dy / a) ** 2 + (dz / c) ** 2 <= 1.0
        a_out, c_out = a + self.myo_mm, c + self.myo_mm
        myo_outer = (dx / a_out) ** 2 + (dy / a_out) ** 2 + (dz / c_out) ** 2 <= 1.0
        rx, ry, rz = (dx - self.rv_offset_mm[0], dy - self.rv_offset_mm[1], dz - self.rv_offset_mm[2])
        rv = (rx / self.rv_inplane) ** 2 + (ry / self.rv_inplane) ** 2 + (rz / self.rv_long) ** 2 <= 1.0
        out = np.full(dims, BACKGROUND, dtype=np.uint8)
        out[myo_outer] = MYO
        out[lv] = LV
        out[rv & ~myo_outer] = RV
        return out


def _cosine_alpha(t: int, frames: int) -> float:
    return (1.0 - math.cos(math.pi * t / (frames - 1))) / 2.0


def _intensities(labels: np.ndarray, levels, noise: float, rng) -> np.ndarray:
    values = np.asarray(levels, dtype=np.float64)[labels]
    return (values + rng.normal(0.0, noise, size=labels.shape)).astype(np.float32)


def _write_series(out: Path, frames, labels, spacing, subject: str, vendor: str) -> Path:
    """Frames + per-frame ground-truth labels + manifest (ES first, ED last)."""
    out.mkdir(parents=True, exist_ok=True)
    frame_paths = []
    for t, (vol, lab) in enumerate(zip(frames, labels)):
        frame_paths.append(out / f"frame_{t:03d}.mvol")
        io.write_mvol(ScalarVolume(vol, spacing), frame_paths[-1])
        io.write_mvol(LabelMap(lab, spacing), out / f"label_{t:03d}.mvol")
    last = len(frames) - 1
    manifest = io.CineManifest(
        subject_id=subject,
        frame_paths=tuple(frame_paths),
        es_index=0,
        ed_index=last,
        es_label_path=out / "label_000.mvol",
        ed_label_path=out / f"label_{last:03d}.mvol",
        vendor=vendor,
        center="bench",
    )
    io.write_manifest(manifest, out / "manifest.txt")
    return out / "manifest.txt"


def write_iso48(root: Path, seed: int) -> list[Path]:
    """ISO48_SERIES independent 48^3 series; returns their manifests."""
    manifests = []
    for s in range(ISO48_SERIES):
        cine = generate_cine(iso48_spec(seed, s))
        frames = [f.data for f in cine.series.frames]
        labels = [lab.data for lab in cine.ground_truth]
        manifests.append(_write_series(root / f"series_{s}", frames, labels, (1.0, 1.0, 1.0), f"iso{s}", "synthetic"))
    return manifests


THICK_DIMS = (96, 96, 12)
THICK_SPACING = (1.5, 1.5, 8.0)
THICK_LEVELS = (20.0, 300.0, 110.0, 230.0)


def write_thick(root: Path, seed: int) -> list[Path]:
    """THICK_SERIES thick-slice series of THICK_FRAMES frames; returns their manifests."""
    heart = Heart()
    labels = [heart.labels(THICK_DIMS, THICK_SPACING, _cosine_alpha(t, THICK_FRAMES)) for t in range(THICK_FRAMES)]
    manifests = []
    for s in range(THICK_SERIES):
        rng = np.random.default_rng([seed, 2, s])
        frames = [_intensities(lab, THICK_LEVELS, 10.0, rng) for lab in labels]
        manifests.append(_write_series(root / f"series_{s}", frames, labels, THICK_SPACING, f"thick{s}", "synthetic"))
    return manifests


CLINICAL_DIMS = (256, 256, 12)
CLINICAL_SPACING = (1.25, 1.25, 8.0)
VENDOR_LEVELS = {"A": (30.0, 320.0, 120.0, 260.0), "B": (60.0, 520.0, 180.0, 430.0)}
VENDOR_NOISE = {"A": 14.0, "B": 30.0}


@dataclass(frozen=True)
class ClinicalInputs:
    pred_dir: Path
    gt_dir: Path
    shifts: tuple[tuple[int, int], ...]  # per case: (axis, whole voxels)
    manifests: dict[str, Path]  # vendor -> manifest


def clinical_shift(seed: int, case: int) -> tuple[int, int]:
    """Known in-plane shift of case ``case``: (axis 0 or 1, 1..3 voxels)."""
    rng = np.random.default_rng([seed, 3, case])
    return int(rng.integers(0, 2)), int(rng.integers(1, 4))


def shift_labels(labels: np.ndarray, axis: int, k: int) -> np.ndarray:
    """Move a label grid by ``k`` whole voxels; the vacated border is background."""
    out = np.zeros_like(labels)
    src = [slice(None)] * 3
    dst = [slice(None)] * 3
    src[axis] = slice(0, labels.shape[axis] - k)
    dst[axis] = slice(k, None)
    out[tuple(dst)] = labels[tuple(src)]
    return out


def write_clinical(root: Path, seed: int) -> ClinicalInputs:
    heart = Heart()
    pred_dir, gt_dir = root / "pred", root / "gt"
    pred_dir.mkdir(parents=True, exist_ok=True)
    gt_dir.mkdir(parents=True, exist_ok=True)
    shifts = []
    for c in range(CLINICAL_CASES):
        gt = heart.labels(CLINICAL_DIMS, CLINICAL_SPACING, alpha=c / max(1, CLINICAL_CASES - 1))
        axis, k = clinical_shift(seed, c)
        shifts.append((axis, k))
        io.write_mvol(LabelMap(gt, CLINICAL_SPACING), gt_dir / f"case_{c:03d}.mvol")
        io.write_mvol(LabelMap(shift_labels(gt, axis, k), CLINICAL_SPACING), pred_dir / f"case_{c:03d}.mvol")
    manifests = {}
    for v, vendor in enumerate(("A", "B")):
        rng = np.random.default_rng([seed, 4, v])
        frames, labels = [], []
        for t in range(CLINICAL_VENDOR_FRAMES):
            lab = heart.labels(CLINICAL_DIMS, CLINICAL_SPACING, _cosine_alpha(t, CLINICAL_VENDOR_FRAMES))
            labels.append(lab)
            frames.append(_intensities(lab, VENDOR_LEVELS[vendor], VENDOR_NOISE[vendor], rng))
        manifests[vendor] = _write_series(
            root / f"vendor_{vendor}", frames, labels, CLINICAL_SPACING, f"subj{vendor}", vendor
        )
    return ClinicalInputs(pred_dir, gt_dir, tuple(shifts), manifests)
