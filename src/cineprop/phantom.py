"""Synthetic beating-heart phantom: cine frames with analytic ground-truth labels.

The left ventricle is a sphere whose radius interpolates between its ES and ED
values through a cosine ramp, the myocardium is the concentric shell around
it, and the right ventricle is a crescent: an offset sphere minus everything
within the myocardial outer boundary.  Labels are the exact noiseless
geometry evaluated at voxel centers; intensities add seeded Gaussian noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .volume import BACKGROUND, LV, MYO, RV, CineSeries, LabelMap, ScalarVolume


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int] = (64, 64, 64)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    lv_radius_es: float = 12.0
    lv_radius_ed: float = 10.0
    myo_thickness: float = 4.0
    rv_offset: tuple[float, float, float] = (-16.0, 0.0, 0.0)
    rv_radius: float = 11.0
    frames: int = 11
    es_index: int = 0
    ed_index: int = 10
    # intensity level per class code: (background, LV blood, MYO, RV blood)
    intensities: tuple[float, float, float, float] = (0.0, 300.0, 100.0, 200.0)
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.frames < 3:
            raise InvalidParameterError("a phantom cine needs at least 3 frames")
        if not (0 <= self.es_index < self.frames and 0 <= self.ed_index < self.frames):
            raise InvalidParameterError("template indices out of range")
        if self.es_index == self.ed_index:
            raise InvalidParameterError("es_index and ed_index must differ")
        if min(self.lv_radius_es, self.lv_radius_ed) <= 0 or self.myo_thickness <= 0:
            raise InvalidParameterError("radii and myo_thickness must be positive")
        if self.rv_radius <= 0:
            raise InvalidParameterError("rv_radius must be positive")
        if self.noise_sigma < 0:
            raise InvalidParameterError("noise_sigma must be >= 0")
        if self.seed < 0:
            raise InvalidParameterError("seed must be >= 0")
        if len(set(self.intensities)) != 4:
            raise InvalidParameterError("class intensity levels must be pairwise distinct")
        self._check_bounds()

    def _check_bounds(self):
        center = np.asarray(self.dims, dtype=np.float64)
        center = (center - 1) / 2
        rv_center = center + np.asarray(self.rv_offset, dtype=np.float64)
        outer = max(self.lv_radius_es, self.lv_radius_ed) + self.myo_thickness
        for c, radius in ((center, outer), (rv_center, self.rv_radius)):
            lo = c - radius
            hi = c + radius
            if np.any(lo < 0) or np.any(hi > np.asarray(self.dims) - 1):
                raise InvalidParameterError(
                    f"phantom geometry exceeds grid bounds (center {tuple(c)}, radius {radius})"
                )


def _blend_weight(spec: PhantomSpec, t: int) -> float:
    """Cosine ramp alpha(t): 0 at ES, 1 at ED, clamped outside the span."""
    es, ed = spec.es_index, spec.ed_index
    lo, hi = (es, ed) if es < ed else (ed, es)
    if t <= lo:
        phase = 0.0
    elif t >= hi:
        phase = 1.0
    else:
        phase = (1.0 - math.cos(math.pi * (t - lo) / (hi - lo))) / 2.0
    return phase if es < ed else 1.0 - phase


def _label_grid(spec: PhantomSpec, lv_radius: float) -> np.ndarray:
    nx, ny, nz = spec.dims
    center = (np.asarray(spec.dims, dtype=np.float64) - 1) / 2
    rv_center = center + np.asarray(spec.rv_offset, dtype=np.float64)
    ii, jj, kk = np.meshgrid(
        np.arange(nx, dtype=np.float64),
        np.arange(ny, dtype=np.float64),
        np.arange(nz, dtype=np.float64),
        indexing="ij",
    )
    d_lv = np.sqrt((ii - center[0]) ** 2 + (jj - center[1]) ** 2 + (kk - center[2]) ** 2)
    d_rv = np.sqrt((ii - rv_center[0]) ** 2 + (jj - rv_center[1]) ** 2 + (kk - rv_center[2]) ** 2)
    labels = np.full(spec.dims, BACKGROUND, dtype=np.uint8)
    outer = lv_radius + spec.myo_thickness
    labels[d_lv <= outer] = MYO
    labels[d_lv <= lv_radius] = LV
    labels[(d_rv <= spec.rv_radius) & (d_lv > outer)] = RV
    return labels


@dataclass(frozen=True, eq=False)
class PhantomCine:
    """A generated series plus the full ground-truth label set for oracle use."""

    series: CineSeries
    ground_truth: tuple[LabelMap, ...]


def generate_cine(spec: PhantomSpec) -> PhantomCine:
    """Every frame of a phantom cine, noisy intensities and exact noiseless labels; ES/ED labels act as manual ones."""
    levels = np.asarray(spec.intensities, dtype=np.float64)
    volumes, labels = [], []
    for t in range(spec.frames):
        alpha = _blend_weight(spec, t)
        grid = _label_grid(spec, spec.lv_radius_es + alpha * (spec.lv_radius_ed - spec.lv_radius_es))
        values = levels[grid]
        if spec.noise_sigma > 0:
            values = values + np.random.default_rng([spec.seed, t]).normal(0.0, spec.noise_sigma, size=spec.dims)
        volumes.append(ScalarVolume(values.astype(np.float32), spec.spacing))
        labels.append(LabelMap(grid, spec.spacing))
    series = CineSeries(
        frames=tuple(volumes),
        es_index=spec.es_index,
        ed_index=spec.ed_index,
        es_label=labels[spec.es_index],
        ed_label=labels[spec.ed_index],
    )
    return PhantomCine(series=series, ground_truth=tuple(labels))
