"""Segmentation quality metrics: per-class Dice and symmetric Hausdorff distance.

Hausdorff distances are exact maxima over class-voxel-center point sets,
measured in physical millimeters.  Distances are computed in spacing units
normalized by the smallest spacing component and scaled back at the end, so
scaling all spacing components by a common factor scales the result by exactly
that factor.

Each directed distance comes from a separable squared Euclidean distance
transform (Saito & Toriwaki 1994; Felzenszwalb & Huttenlocher 2012) of the
other mask, read at the query voxels; it equals the pairwise brute force
``((p - g) ** 2).sum(axis=-1)`` bit for bit at any spacing:

* the per-axis term is ``(c[i] - c[j]) ** 2`` with ``c = arange(lo, hi) *
  ratio[k]`` over absolute voxel indices, the same floats the brute force
  subtracts;
* the min-plus passes run in axis order 0, 1, 2, so every candidate is summed
  as ``(d0² + d1²) + d2²``, the grouping of numpy's sum over the last axis;
* rounded addition is monotone, so ``min(a) + b == min(a + b)`` and taking
  the minimum after each pass loses nothing.

The first pass takes the nearest site before and after each voxel of a line
(linear time); the second runs only on the site-holding lines and the
query-holding columns, the third only at the query voxels.  All passes work on
the bounding box of P∪G.  A voxel inside the other mask is at distance 0, so
the queries are only the voxels of P∖G (toward G) and of G∖P (toward P).  The
box, and the lines that hold a site, come from reductions along contiguous
memory: ``any(axis=0)`` gives the extents along axes 1 and 2, and
``reshape(n0, -1).any(axis=1)`` the extent along axis 0.  Apart from the
first pass's result (one float per voxel of the box), its table of squared
gaps and the flat indices of the queries, each temporary holds at most
``_BLOCK`` floats or one cross-section of the box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidParameterError
from .volume import CLASS_NAMES, FOREGROUND_CLASSES, LabelMap

_BLOCK = 1 << 18  # float64 elements in one min-plus temporary (2 MiB)


def _check_grids(pred: LabelMap, gt: LabelMap) -> None:
    if pred.dims != gt.dims:
        raise InvalidParameterError(f"dims mismatch: {pred.dims} vs {gt.dims}")
    if pred.spacing != gt.spacing:
        raise InvalidParameterError(f"spacing mismatch: {pred.spacing} vs {gt.spacing}")


def dice(pred: LabelMap, gt: LabelMap, label: int) -> float:
    """Dice overlap 2|P∩G|/(|P|+|G|) for one class.

    Both masks empty -> 1.0; exactly one empty -> 0.0.
    """
    _check_grids(pred, gt)
    p, g = pred.data == label, gt.data == label
    return _dice(p, g, int(np.count_nonzero(p)) + int(np.count_nonzero(g)))


def _dice(p: np.ndarray, g: np.ndarray, total: int) -> float:
    """Dice of the masks ``p`` and ``g``, which hold ``total`` voxels between them."""
    return 1.0 if total == 0 else 2.0 * int(np.count_nonzero(p & g)) / total


def _nearest_along_first(sites: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared gap from each voxel to the nearest site on its line along axis 0.

    ``c`` holds the scaled position of every index along that axis; a line
    without sites gives ``inf``.  The nearest site is the last one at or before
    the voxel or the first one at or after it, because ``c`` is sorted and
    rounding keeps ``(c[i] - c[j])**2`` monotone in ``|i - j|``.
    """
    n = len(sites)
    idx = np.arange(n)[:, None]
    gaps = np.full((n, n + 1), np.inf)  # column n, also reached as -1, means "no site"
    gaps[:, :n] = (c[:, None] - c[None, :]) ** 2
    lines = sites.reshape(n, -1)
    out = np.empty(lines.shape)
    step = max(1, _BLOCK // n)
    for s in range(0, lines.shape[1], step):
        block = lines[:, s : s + step]
        before = np.maximum.accumulate(np.where(block, idx, -1), axis=0)
        after = np.minimum.accumulate(np.where(block, idx, n)[::-1], axis=0)[::-1]
        np.minimum(gaps[idx, before], gaps[idx, after], out=out[:, s : s + step])
    return out.reshape(sites.shape)


def _held(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices along axes 1 and 2 at which ``mask`` holds a voxel.

    One reduction over the leading axis runs along contiguous rows; the two
    reductions of its (n1, n2) result are small.
    """
    plane = mask.any(axis=0)
    return np.flatnonzero(plane.any(axis=1)), np.flatnonzero(plane.any(axis=0))


def _farthest_sq(queries: np.ndarray, sites: np.ndarray, coords: list[np.ndarray]) -> float:
    """Max over the ``queries`` voxels of the squared distance to the nearest ``sites`` voxel.

    ``coords[k]`` holds the scaled absolute position of every index along axis k.
    """
    c0, c1, c2 = coords
    cols, slices = _held(sites)
    near = _nearest_along_first(sites[:, cols][:, :, slices], c0)  # d0²

    # axis 1, only at the (i0, i1) columns that hold a query: d0² + d1²
    n1, n2 = queries.shape[1:]
    columns = np.flatnonzero(queries.reshape(-1, n2).any(axis=1))  # as i0 * n1 + i1
    row0, row1 = np.divmod(columns, n1)
    through = np.empty((len(columns), len(slices)))
    step = max(1, _BLOCK // near[0].size)
    for s in range(0, len(columns), step):
        block = near[row0[s : s + step]]
        block += ((c1[row1[s : s + step]][:, None] - c1[cols][None, :]) ** 2)[:, :, None]
        through[s : s + step] = block.min(axis=1)

    # axis 2, at each query voxel: (d0² + d1²) + d2²
    rank = np.zeros(len(queries) * n1, dtype=np.intp)  # each query column's row of ``through``
    rank[columns] = np.arange(len(columns))
    flat = np.flatnonzero(queries)
    worst = 0.0
    step = max(1, _BLOCK // len(slices))
    for s in range(0, len(flat), step):
        column, q2 = np.divmod(flat[s : s + step], n2)
        block = through[rank[column]]
        block += (c2[q2][:, None] - c2[slices][None, :]) ** 2
        worst = max(worst, float(block.min(axis=1).max()))
    return worst


def hausdorff(pred: LabelMap, gt: LabelMap, label: int) -> float:
    """Symmetric Hausdorff distance between class-voxel centers, in mm.

    Equal bit for bit to the pairwise brute force.  A voxel of P inside G is
    at distance 0 from G, so the distance from P to G is read only at the
    voxels of P∖G, and from G to P only at G∖P; a direction without such
    voxels adds 0 and runs no distance transform.  Both are measured on the
    bounding box of P∪G.
    """
    _check_grids(pred, gt)
    p, g = pred.data == label, gt.data == label
    if not p.any() or not g.any():
        raise DegenerateInputError(f"class {label} empty in {'pred' if not p.any() else 'gt'}")
    return _hausdorff(p, g, pred.spacing)


def _hausdorff(p: np.ndarray, g: np.ndarray, spacing) -> float:
    """``hausdorff`` of two non-empty masks on one grid of ``spacing``."""
    both = p | g
    held = (np.flatnonzero(both.reshape(len(both), -1).any(axis=1)), *_held(both))
    box = tuple(slice(hit[0], hit[-1] + 1) for hit in held)
    p, g = p[box], g[box]
    base = min(spacing)
    ratio = np.asarray(spacing, dtype=np.float64) / base
    coords = [np.arange(b.start, b.stop, dtype=np.float64) * r for b, r in zip(box, ratio)]
    worst_sq = 0.0
    for queries, sites in ((p & ~g, g), (g & ~p, p)):
        if queries.any():
            worst_sq = max(worst_sq, _farthest_sq(queries, sites, coords))
    return base * float(np.sqrt(worst_sq))


@dataclass(frozen=True)
class ClassReport:
    dice: float
    hausdorff_mm: float | None  # None when either mask is empty
    pred_voxels: int
    gt_voxels: int


@dataclass(frozen=True)
class CaseReport:
    """Per-class metrics for one prediction/ground-truth pair."""

    entries: dict[str, ClassReport]


def evaluate_case(pred: LabelMap, gt: LabelMap) -> CaseReport:
    """Dice and Hausdorff for each foreground class (LV, MYO, RV); each class mask is built once."""
    _check_grids(pred, gt)
    entries: dict[str, ClassReport] = {}
    for label in FOREGROUND_CLASSES:
        p, g = pred.data == label, gt.data == label
        n_pred, n_gt = int(np.count_nonzero(p)), int(np.count_nonzero(g))
        hd = None if n_pred == 0 or n_gt == 0 else _hausdorff(p, g, pred.spacing)
        entries[CLASS_NAMES[label]] = ClassReport(_dice(p, g, n_pred + n_gt), hd, n_pred, n_gt)
    return CaseReport(entries)
