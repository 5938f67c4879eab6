"""Histogram-matching style harmonization across scanner vendors.

A reference distribution is pooled from one random z-slice of each of ``n``
randomly drawn volumes (seeded, without replacement).  Matching replaces each
voxel value by the reference quantile at that value's own cumulative
probability; the source CDF is quantized to 256 bins with a mid-rank
convention for ties, so constant regions map to stable values and rank order
is never inverted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .volume import ScalarVolume

SOURCE_BINS = 256
MAX_BINS = 65_536  # histogram_report's largest bin count: its text holds one line per bin per tag
_KS_STEP = 256  # pool values from one KS checkpoint to the next
_KS_BLOCK = 1 << 16  # pool values per ECDF evaluation in a refined KS run
_KS_JOIN = 4  # kept KS intervals this close (1: adjacent) are refined as one run


@dataclass(frozen=True, eq=False)
class ReferenceHistogram:
    """Pooled reference intensity sample, sorted."""

    intensities: np.ndarray  # sorted, float64

    def __post_init__(self):
        values = np.sort(np.asarray(self.intensities, dtype=np.float64).ravel())
        if values.size == 0:
            raise InvalidParameterError("reference sample is empty")
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError("reference sample contains non-finite values")
        values.flags.writeable = False
        object.__setattr__(self, "intensities", values)

    def quantile(self, q) -> np.ndarray:
        """Monotone lookup from cumulative probability to reference intensity.

        Linear interpolation between order statistics at mid-rank positions
        (i + 0.5)/N, clamped to the sample extremes.
        """
        n = self.intensities.size
        positions = (np.arange(n, dtype=np.float64) + 0.5) / n
        return np.interp(np.asarray(q, dtype=np.float64), positions, self.intensities)

    @property
    def median(self) -> float:
        return float(self.quantile(0.5))


def build_reference(corpus: list[ScalarVolume], n: int, seed: int) -> ReferenceHistogram:
    """Pool one random z-slice from each of ``n`` volumes drawn without replacement."""
    if len(corpus) == 0:
        raise InvalidParameterError("corpus is empty")
    if not 1 <= n <= len(corpus):
        raise InvalidParameterError(f"n must be in [1, {len(corpus)}], got {n}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(corpus), size=n, replace=False)
    slices = []
    for idx in chosen:
        vol = corpus[int(idx)]
        k = int(rng.integers(0, vol.dims[2]))
        slices.append(np.asarray(vol.data[:, :, k], dtype=np.float64).ravel())
    return ReferenceHistogram(np.concatenate(slices))


class MatchResult(NamedTuple):
    volume: ScalarVolume
    degenerate: bool


def histogram_match(vol: ScalarVolume, ref: ReferenceHistogram) -> MatchResult:
    """Replace each voxel value by the reference quantile at its source CDF value.

    Rank order is preserved (ties may merge, never reorder).  A constant
    input has no usable CDF: it returns a volume filled with the reference
    median and the ``degenerate`` flag set.
    """
    if vol.is_constant():
        filled = np.full(vol.dims, ref.median, dtype=np.float32)
        return MatchResult(ScalarVolume(filled, vol.spacing), True)
    # the source CDF, quantized to SOURCE_BINS bins over the volume's own range, at mid-rank per bin
    lo, hi = float(vol.data.min()), float(vol.data.max())
    bins = ((vol.data.astype(np.float64) - lo) / (hi - lo) * SOURCE_BINS).astype(np.int64)
    bins = np.minimum(bins, SOURCE_BINS - 1)  # the maximum closes the last bin
    cum = np.cumsum(np.bincount(bins.ravel(), minlength=SOURCE_BINS), dtype=np.float64)
    midrank = (np.concatenate([[0.0], cum[:-1]]) + cum) / (2.0 * cum[-1])
    matched = ref.quantile(midrank)[bins].astype(np.float32)
    return MatchResult(ScalarVolume(matched, vol.spacing), False)


def vendor_transfer(
    dataset: list[tuple[ScalarVolume, str]],
    from_vendor: str,
    to_vendor: str,
    seed: int,
    n_ref: int = 100,
) -> list[ScalarVolume]:
    """Match every ``from_vendor`` volume to a reference built from ``to_vendor``.

    Returns new volumes in dataset order; inputs are untouched (augmentation
    adds, never replaces).  ``n_ref`` caps at the target-vendor subset size.
    """
    tags = {tag for _, tag in dataset}
    for tag in (from_vendor, to_vendor):
        if tag not in tags:
            raise InvalidParameterError(f"vendor {tag!r} absent from dataset (present: {sorted(tags)})")
    target_corpus = [vol for vol, tag in dataset if tag == to_vendor]
    ref = build_reference(target_corpus, min(n_ref, len(target_corpus)), seed)
    return [histogram_match(vol, ref).volume for vol, tag in dataset if tag == from_vendor]


def ks_statistic(sample_a, sample_b) -> float:
    """Exact Kolmogorov-Smirnov statistic between two empirical distributions.

    The statistic is the largest gap between the two right-continuous ECDFs at
    the distinct values of both sorted pools; the left limits at a value equal
    the right-side ECDFs at the previous distinct value of either pool (or both
    zero), so they never raise the maximum.  Each gap is computed as
    ``abs(count_a / n_a - count_b / n_b)``, so the result equals evaluating
    every distinct value, bit for bit, but only the values that can hold the
    maximum are searched:

    * **checkpoints** are every ``_KS_STEP``-th value of each pool and both
      maxima; both ECDFs are counted there with one search per pool;
    * **bounds**: between two neighbouring checkpoints each count lies between
      its two end counts, which bounds ``abs(A * n_b - B * n_a)`` over the
      interval in exact integers.  An interval whose bound falls below the best
      checkpoint's exact value, less a margin far wider than float rounding,
      cannot hold the maximum and is skipped;
    * **refinement**: consecutive kept intervals form runs, and each run is
      evaluated at the last copy of each of its distinct values, where the
      pool's own count is its index plus one and the other pool's count is one
      binary search, ``_KS_BLOCK`` values at a time.

    Identical pools keep every interval: one run, every distinct value.
    """
    return _ks_sorted(*(np.sort(np.asarray(s, dtype=np.float64).ravel()) for s in (sample_a, sample_b)))


def _ks_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """``ks_statistic`` of two pools already sorted, as float32 or float64."""
    if a.size == 0 or b.size == 0:
        raise InvalidParameterError("KS statistic needs non-empty samples")
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # the sort puts NaN last
        raise InvalidParameterError("KS statistic needs samples without NaN")
    na, nb = a.size, b.size
    # each pool's first value is a checkpoint, so no value lies below the first one, nor above the last
    checkpoints = np.unique(np.concatenate([a[::_KS_STEP], a[-1:], b[::_KS_STEP], b[-1:]]))
    count_a = np.searchsorted(a, checkpoints, side="right")
    count_b = np.searchsorted(b, checkpoints, side="right")
    gap = float(np.max(np.abs(count_a / na - count_b / nb)))
    if checkpoints.size == 1:  # both pools hold one value, the same one
        return gap
    keep = np.ones(checkpoints.size - 1, dtype=bool)
    if na * nb < 1 << 63:  # the products below are exact in int64
        best = int(np.max(np.abs(count_a * nb - count_b * na)))
        bound = np.maximum(count_a[1:] * nb - count_b[:-1] * na, count_b[1:] * na - count_a[:-1] * nb)
        keep = bound >= best - ((na * nb >> 40) + 1)  # the margin is far wider than float rounding
    # interval k lies between checkpoints k and k + 1; kept intervals fewer than _KS_JOIN apart are refined
    # as one run, since a short gap costs less to evaluate than a run's set-up
    kept = np.flatnonzero(keep)
    cuts = np.flatnonzero(np.diff(kept) > _KS_JOIN)
    for i, j in zip(kept[np.r_[0, cuts + 1]].tolist(), (kept[np.r_[cuts, -1]] + 1).tolist()):
        ai, aj, bi, bj = int(count_a[i]), int(count_a[j]), int(count_b[i]), int(count_b[j])
        gap = max(gap, _ks_run(a, ai, aj, b, bi, bj), _ks_run(b, bi, bj, a, ai, aj))
    return gap


def _ks_run(pool: np.ndarray, start: int, stop: int, other: np.ndarray, other_start: int, other_stop: int) -> float:
    """The largest ECDF gap at the distinct values of ``pool[start:stop]``.

    Both slices hold whole runs of ties, and every value of ``pool[start:stop]``
    lies above ``other[other_start - 1]`` and below ``other[other_stop]``, so
    the other pool's counts are searched in ``other[other_start:other_stop]``.
    """
    gap = 0.0
    window = other[other_start:other_stop]
    for lo in range(start, stop, _KS_BLOCK):
        points = pool[lo : min(lo + _KS_BLOCK, stop)]
        following = pool[lo + 1 : min(lo + 1 + points.size, stop)]  # one short at the end of the run
        last = np.ones(points.size, dtype=bool)
        last[: following.size] = points[: following.size] != following
        ends = np.flatnonzero(last)
        f_pool = (lo + 1 + ends) / pool.size
        f_other = (other_start + np.searchsorted(window, points[ends], side="right")) / other.size
        gap = max(gap, float(np.max(np.abs(f_pool - f_other), initial=0.0)))  # a block of ties has no end
    return gap


@dataclass(frozen=True, eq=False)
class HistogramReport:
    """Per-tag normalized histograms over a shared range plus pairwise KS."""

    bins: int
    range_min: float
    range_max: float
    densities: dict[str, np.ndarray]  # per tag, sums to 1
    ks: dict[tuple[str, str], float]

    def to_text(self) -> str:
        lines = [
            f"bins = {self.bins}",
            f"range_min = {self.range_min!r}",
            f"range_max = {self.range_max!r}",
        ]
        edges = np.linspace(self.range_min, self.range_max, self.bins + 1)
        for tag in sorted(self.densities):
            dens = self.densities[tag]
            for b in range(self.bins):
                lines.append(
                    f"hist {tag} {b} {float(edges[b])!r} {float(edges[b + 1])!r} {float(dens[b])!r}"
                )
        for (ta, tb), stat in sorted(self.ks.items()):
            lines.append(f"ks {ta} {tb} {stat!r}")
        return "\n".join(lines) + "\n"


def histogram_report(groups: dict[str, list[ScalarVolume]], bins: int) -> HistogramReport:
    """Compare intensity distributions across tagged groups of volumes.

    ``bins`` is in [2, ``MAX_BINS``].  Each tag is a non-empty string without
    whitespace, so that the ``hist`` and ``ks`` lines of ``to_text`` split
    back into their fields.  Each tag's values are pooled and sorted once, as
    the float32 that volumes hold; every pair of tags gets ``ks_statistic``'s
    exact value, and a zero range end is written as ``0.0``, never ``-0.0``.
    """
    if not 2 <= bins <= MAX_BINS:
        raise InvalidParameterError(f"bins must be in [2, {MAX_BINS}], got {bins}")
    if not groups:
        raise InvalidParameterError("no groups given")
    for tag in groups:
        if tag.split() != [tag]:
            raise InvalidParameterError(f"tag {tag!r} is empty or holds whitespace: its lines would not split back")
    pooled: dict[str, np.ndarray] = {}
    for tag, vols in groups.items():
        if not vols:
            raise InvalidParameterError(f"group {tag!r} is empty")
        # float32, as every volume holds it; private, so sorted in place: the range is its ends, each
        # histogram two searches (the pool upcast, exactly, to the float64 edges), KS no copy
        values = np.concatenate([v.data.ravel() for v in vols], dtype=np.float32)
        values.sort()
        pooled[tag] = values

    # + 0.0 turns -0.0 into 0.0: the sort may put either zero at an end, and they print differently
    lo = min(float(p[0]) for p in pooled.values()) + 0.0
    hi = max(float(p[-1]) for p in pooled.values()) + 0.0
    if hi <= lo:
        hi = lo + 1.0  # all values identical: everything lands in bin 0
    edges = np.linspace(lo, hi, bins + 1)
    densities = {}
    for tag, values in pooled.items():
        cum = np.searchsorted(values, edges, side="left")
        cum[-1] = np.searchsorted(values, edges[-1], side="right")  # np.histogram closes the last bin
        densities[tag] = np.diff(cum) / values.size

    ks: dict[tuple[str, str], float] = {}
    tags = sorted(pooled)
    for i, ta in enumerate(tags):
        for tb in tags[i + 1 :]:
            ks[(ta, tb)] = _ks_sorted(pooled[ta], pooled[tb])
    return HistogramReport(bins=bins, range_min=lo, range_max=hi, densities=densities, ks=ks)
