"""Core 3D grid types plus interpolation, smoothing, and pyramid downsampling.

Volumes are immutable.  A ``ScalarVolume`` keeps one lazily computed value,
its ``half`` (``downsample2x`` of itself): registration walks that chain as
its pyramid, so each volume is downsampled once per level, however often used.

Trilinear sampling takes its positions as three flat float64 arrays of one
length, and has two halves: a plan (``_trilinear_plan``), which works out each
position's flat cell index and fractions, and an apply step
(``_trilinear_apply``), which gathers 8 corners and runs 7 lerps per plane
through it.  ``_trilinear`` is one plan applied once; registration's linear
objectives apply one plan to the moving image and again to its gradient
images.  Both halves run in slices of ``_BLOCK_POINTS`` positions, so a
full-grid call works on cache-sized temporaries.  Each position goes through
the same operations in the same order whichever block holds it, so the bytes
do not depend on the blocking.  It interpolates in the data's precision: a
``ScalarVolume`` (float32) samples to float32, float64 data to float64.
Multi-channel data (gradient images, displacement fields inside
registration) is channel-major, ``(C, nx, ny, nz)``, so each channel is
gathered and interpolated as one contiguous plane.

Conventions used throughout the package:

* Grids are indexed ``(i, j, k)`` along ``(x, y, z)``; flat (on-disk) order is
  row-major with x fastest, i.e. ``flat[i + nx*j + nx*ny*k]``.  In numpy terms
  the canonical array has shape ``(nx, ny, nz)`` and serializes with
  ``ravel(order="F")``.
* ``spacing`` is mm per voxel along each axis; physical coordinates of voxel
  ``(i, j, k)`` are ``(i*sx, j*sy, k*sz)``.
* Continuous sample positions are given in voxel-index units; positions
  outside the grid are clamped to the boundary voxel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import InvalidParameterError

BACKGROUND = 0
LV = 1
MYO = 2
RV = 3
LABEL_CODES = (BACKGROUND, LV, MYO, RV)
CLASS_NAMES = {LV: "LV", MYO: "MYO", RV: "RV"}
FOREGROUND_CLASSES = (LV, MYO, RV)

# positions per _trilinear block, tuned on single-channel float64 data: its dozen 128 KiB temporaries fit a 2 MiB
# L2 cache.  On 96x96x12 grids (2-vCPU VM), 8k-point blocks ran about 10% slower and 32k-point blocks no faster.
# A block's index and fraction arrays serve every channel plane, so the block size ignores the channel count.
_BLOCK_POINTS = 16_384

def _check_spacing(spacing) -> tuple[float, float, float]:
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3 or any(not math.isfinite(s) or s <= 0 for s in spacing):
        raise InvalidParameterError(f"spacing must be 3 positive finite values, got {spacing}")
    return spacing


@dataclass(frozen=True, eq=False)
class ScalarVolume:
    """A 3D scalar grid with physical spacing.

    ``data`` is float32 with shape ``(nx, ny, nz)``; it is made read-only on
    construction, so one volume and its cached pyramid serve every registration.
    """

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 3 or any(n < 1 for n in arr.shape):
            raise InvalidParameterError(f"volume must be 3D with positive dims, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError("volume contains non-finite values")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "spacing", _check_spacing(self.spacing))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def voxels(self) -> np.ndarray:
        """Flat voxel array in row-major x-fastest order (the on-disk layout)."""
        return self.data.ravel(order="F")

    def is_constant(self) -> bool:
        return bool(self.data.max() == self.data.min())

    @cached_property
    def half(self) -> "ScalarVolume":
        """``downsample2x(self)``, computed on first use and kept, so each process builds it once per volume."""
        return downsample2x(self)

    def __reduce__(self):  # through the constructor: ``data`` read-only again, the cached ``half`` chain left behind
        return type(self), (self.data, self.spacing)


@dataclass(frozen=True, eq=False)
class LabelMap:
    """A 3D grid of class codes {0=background, 1=LV, 2=MYO, 3=RV}."""

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3 or any(n < 1 for n in arr.shape):
            raise InvalidParameterError(f"label map must be 3D with positive dims, got shape {arr.shape}")
        if arr.dtype != np.uint8:
            if not np.all(np.isin(arr, LABEL_CODES)):
                raise InvalidParameterError("label map contains codes outside {0,1,2,3}")
            arr = arr.astype(np.uint8)
        elif arr.max(initial=0) > RV:
            raise InvalidParameterError("label map contains codes outside {0,1,2,3}")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "spacing", _check_spacing(self.spacing))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def voxels(self) -> np.ndarray:
        return self.data.ravel(order="F")

    def __reduce__(self):  # unpickled through the constructor, so ``data`` is checked and read-only again
        return type(self), (self.data, self.spacing)


@dataclass(frozen=True, eq=False)
class CineSeries:
    """Ordered timeframes of one subject with manual labels at ES and ED."""

    frames: tuple[ScalarVolume, ...]
    es_index: int
    ed_index: int
    es_label: LabelMap
    ed_label: LabelMap

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        n = len(self.frames)
        if n < 2:
            raise InvalidParameterError("a cine series needs at least 2 frames")
        if not (0 <= self.es_index < n and 0 <= self.ed_index < n):
            raise InvalidParameterError(
                f"template indices ({self.es_index}, {self.ed_index}) out of range for {n} frames"
            )
        if self.es_index == self.ed_index:
            raise InvalidParameterError("es_index and ed_index must differ")
        dims, spacing = self.frames[0].dims, self.frames[0].spacing
        for t, f in enumerate(self.frames):
            if f.dims != dims or f.spacing != spacing:
                raise InvalidParameterError(f"frame {t} grid differs from frame 0")
        for name, lab in (("es_label", self.es_label), ("ed_label", self.ed_label)):
            if lab.dims != dims or lab.spacing != spacing:
                raise InvalidParameterError(f"{name} grid does not match the frames")

    @property
    def n_frames(self) -> int:
        return len(self.frames)


def _check_points(xs, ys, zs):
    """The positions as three flat float64 arrays of one length; anything else is an ``InvalidParameterError``."""
    pos = tuple(np.asarray(p, dtype=np.float64) for p in (xs, ys, zs))
    if any(p.ndim != 1 for p in pos) or not len(pos[0]) == len(pos[1]) == len(pos[2]):
        raise InvalidParameterError(f"positions must be 1-D arrays of one length, got shapes {[p.shape for p in pos]}")
    if not all(np.all(np.isfinite(p)) for p in pos):
        raise InvalidParameterError("sample positions must be finite")
    return pos


class _Plan(NamedTuple):
    """Where a trilinear sampling reads ``size`` flat positions on a ``dims`` grid: the set-up half of ``_trilinear``.

    ``blocks`` holds, per slice of at most ``_BLOCK_POINTS`` positions,
    ``(block, base, fx, fy, fz)``: the slice, each position's flat cell index
    ``(x0*ny + y0)*nz + z0``, and its three fractions in ``dtype``, the
    precision every lerp runs in.  One plan serves any number of planes.
    """

    dims: tuple[int, int, int]
    dtype: np.dtype
    size: int
    blocks: Iterable


def _cells(pos, n: int):
    """Float64 lower cell index and fraction of voxel-unit positions along an axis of ``n`` voxels (clamped).

    The cell is at most ``n - 2``, so its upper neighbour exists (the cell
    is 0 when ``n`` is 1): a position on the last voxel has fraction 1.
    ``pos`` is never written.
    """
    frac = np.clip(pos, 0.0, n - 1.0)  # a fresh array, so the caller's positions stay as they are
    cell = np.minimum(np.floor(frac), n - 2 if n > 1 else 0)
    frac -= cell
    return cell, frac


def _plan_blocks(dims, dtype, xs, ys, zs) -> Iterator[tuple]:
    """``_Plan.blocks`` of three flat float64 position arrays of one length, one slice at a time.

    Each fraction is cast once to ``dtype``.  The positions are never
    written (callers read them again).
    """
    for start in range(0, len(xs), _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        base, fracs = 0, []
        for p, n in zip((xs, ys, zs), dims):
            cell, frac = _cells(p[block], n)
            base = base * n + cell  # whole numbers, exact in float64: cast to indices once, below
            fracs.append(frac.astype(dtype, copy=False))
        yield (block, base.astype(np.intp), *fracs)


def _trilinear_plan(dims, dtype, xs, ys, zs) -> _Plan:
    """The ``_Plan`` of flat float64 positions (voxel units, clamped) on a ``dims`` grid: one set-up, many images."""
    return _Plan(tuple(dims), dtype, len(xs), tuple(_plan_blocks(dims, dtype, xs, ys, zs)))


def _trilinear_apply(plan: _Plan, data: np.ndarray) -> np.ndarray:
    """Sample ``data``, ``(nx, ny, nz)`` or channel-major ``(C, nx, ny, nz)``, through ``plan``: the lerp half.

    ``data`` has the plan's dims and is gathered into the plan's dtype.
    The result is ``(size,)``, or ``(C, size)`` for channel-major data, each
    block written into one preallocated result, so a full-grid call's
    temporaries stay in cache instead of being a dozen fresh full-size
    arrays.  Each element sees the same operations in the same order in
    whichever block it falls, so the bytes do not depend on the blocking.
    """
    planes = data if data.ndim == 4 else data[None]
    if planes.shape[1:] != plan.dims:
        raise InvalidParameterError(f"a plan on a {plan.dims} grid cannot sample data of shape {data.shape}")
    out = np.empty((len(planes), plan.size), dtype=plan.dtype)
    for block, base, fx, fy, fz in plan.blocks:
        _lerp_block(planes, base, fx, fy, fz, out[:, block])
    return out if data.ndim == 4 else out[0]


def _trilinear(data: np.ndarray, xs, ys, zs) -> np.ndarray:
    """Trilinear interpolation of a raw 3D array at flat float64 positions (voxel units, clamped), in its dtype.

    A plan applied once, so its blocks are a generator: a full-grid call
    holds one block's indices at a time.  Float32 for float32 data and
    float64 otherwise; every channel plane shares the cell indices and weights.
    """
    dims, dtype = data.shape[-3:], np.float32 if data.dtype == np.float32 else np.float64
    return _trilinear_apply(_Plan(dims, dtype, len(xs), _plan_blocks(dims, dtype, xs, ys, zs)), data)


def _lerp_block(planes: np.ndarray, base, fx, fy, fz, result: np.ndarray) -> None:
    """One block of ``_trilinear_apply``: every plane of ``planes`` (C, nx, ny, nz) into ``result`` (C, block length).

    Every corner difference and lerp runs in ``result``'s dtype.  Each
    plane's 8 corners are taken from its flat ``(nx*ny*nz,)`` view at
    ``base`` plus one offset per corner (0 along a length-1 axis), and the
    7 lerps run in place.
    """
    nx, ny, nz = planes.shape[1:]
    dtype = result.dtype
    dx, dy, dz = (ny * nz if nx > 1 else 0), (nz if ny > 1 else 0), (1 if nz > 1 else 0)  # one step along each axis
    c1, hi, tmp = (np.empty(base.shape, dtype=dtype) for _ in range(3))

    def lerp(a, b, f):  # a + f * (b - a) into a; nested lerps are exact on lattice points and on constant volumes
        b -= a
        b *= f
        return np.add(a, b, out=a)

    def x_lerp(flat, offset, out):  # c + fx * (c' - c) into out, c at offset and c' at offset + dx in flat
        # flat[offset:] adds offset to each index; all are in range, and "clip" skips a bounds-check buffer
        np.take(flat[offset:], base, out=out, mode="clip")
        return lerp(out, np.take(flat[offset + dx :], base, out=hi, mode="clip"), fx)

    for c, plane in enumerate(planes):
        flat, c0 = plane.reshape(-1), result[c]
        lerp(x_lerp(flat, 0, c0), x_lerp(flat, dy, c1), fy)  # c0, from c00 and c10
        lerp(x_lerp(flat, dz, c1), x_lerp(flat, dy + dz, tmp), fy)  # c1, from c01 and c11
        lerp(c0, c1, fz)


def trilinear_sample_many(vol: ScalarVolume, xs, ys, zs) -> np.ndarray:
    """Trilinear interpolation at three flat position arrays of one length (voxel units, clamped), in float32."""
    return _trilinear(vol.data, *_check_points(xs, ys, zs))


def trilinear_sample(vol: ScalarVolume, p: tuple[float, float, float]) -> float:
    """Trilinear interpolation of the 8 surrounding voxels at one position."""
    return float(trilinear_sample_many(vol, [p[0]], [p[1]], [p[2]])[0])


def nearest_sample_many(lm: LabelMap, xs, ys, zs) -> np.ndarray:
    """Nearest-voxel label lookup at three flat position arrays of one length; half-way ties go to the lower index."""
    # ceil(x - 0.5) is the nearest integer with ties resolved downward
    index = [np.clip(np.ceil(p - 0.5), 0, n - 1).astype(np.intp) for p, n in zip(_check_points(xs, ys, zs), lm.dims)]
    return lm.data[tuple(index)]


def _gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized sampled Gaussian with radius ceil(3*sigma); the one sigma check of the smoothing.

    Sigma 0, and any sigma so small that ``2*sigma*sigma`` underflows to 0
    (below about 1.5e-162, where the samples would be 0/0), give the identity
    kernel ``[1.0]``.  Below about 7e-155 the off-centre samples are
    ``exp(-inf)``, exactly 0, and that overflow is not worth a warning.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise InvalidParameterError(f"sigma must be finite and >= 0, got {sigma}")
    two_var = 2.0 * sigma * sigma
    if two_var == 0:
        return np.array([1.0])
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        w = np.exp(-(offsets**2) / two_var)
    return w / w.sum()


def _convolve1d_replicate(arr: np.ndarray, kernel: np.ndarray, axis: int, offset=0) -> np.ndarray:
    """1D convolution of ``arr - offset`` along ``axis`` with edge replication, accumulated in ``kernel``'s dtype.

    ``arr - offset`` is written with ``axis`` moved to the front into one
    buffer padded along that leading axis, and the edges are replicated by
    slice assignment.  Each tap is then one long contiguous multiply-add,
    ``out += w_k * padded[k:k+n]``, through one reused tap buffer, whichever
    axis is smoothed: along a short, fastest-varying axis (12 thick slices) a
    tap would otherwise be thousands of 12-element loops.  Every output
    element is ``0 + w_0*p_0 + w_1*p_1 + ...`` in that order, as with
    ``np.pad`` along ``axis``, so the bytes do not depend on the layout.
    Returns a view with ``axis`` moved back.
    """
    src = np.moveaxis(arr, axis, 0)
    n, radius = src.shape[0], len(kernel) // 2
    padded = np.empty((n + 2 * radius, *src.shape[1:]), dtype=kernel.dtype)
    if offset:
        np.subtract(src, offset, out=padded[radius : radius + n])
    else:  # a plain copy is faster, and subtracting 0 or -0.0 changes no output byte
        padded[radius : radius + n] = src
    padded[:radius] = padded[radius]
    padded[radius + n :] = padded[radius + n - 1]
    out = np.zeros(src.shape, dtype=kernel.dtype)
    tap = np.empty_like(out)
    for start, weight in enumerate(kernel):
        out += np.multiply(weight, padded[start : start + n], out=tap)
    return np.moveaxis(out, 0, axis)


def _separable_smooth(arr: np.ndarray, sigma_vox: float, dtype) -> np.ndarray:
    """Gaussian convolution along every axis longer than 1, accumulated in ``dtype`` (a fresh C-contiguous result).

    The one smoothing loop behind gaussian_smooth_array and downsample2x; the
    axes are smoothed in the order x, y, z, and an identity kernel copies.
    Float32 weights do not sum to exactly 1, so in float32 the passes smooth
    the deviation from the first element, which the first pass subtracts and
    the final copy adds back: a constant comes back exactly, at no extra pass.
    """
    kernel = _gaussian_kernel(sigma_vox).astype(dtype)
    axes = [axis for axis in range(3) if arr.shape[axis] > 1] if len(kernel) > 1 and arr.size else []
    if not axes:
        return np.array(arr, dtype=dtype, order="C")
    base = arr.flat[0] if dtype == np.float32 else 0
    out = _convolve1d_replicate(arr, kernel, axes[0], base)
    for axis in axes[1:]:
        out = _convolve1d_replicate(out, kernel, axis)
    # the passes return views; the final C-contiguous copy adds the first element back
    if base:
        return np.add(out, base, out=np.empty(out.shape, dtype))
    return np.array(out, dtype=dtype, order="C")


def gaussian_smooth_array(arr: np.ndarray, sigma_vox: float) -> np.ndarray:
    """Separable Gaussian smoothing of a raw 3D array: float32 for float32 input, otherwise float64.

    Like ``scipy.ndimage.gaussian_filter``, it keeps float32 input in float32
    (the demons field: half the memory traffic of float64).  A constant
    float32 input comes back exactly.
    """
    return _separable_smooth(arr, sigma_vox, np.float32 if arr.dtype == np.float32 else np.float64)


def downsample2x(vol: ScalarVolume) -> ScalarVolume:
    """Gaussian pre-smooth (sigma 1 voxel) then 2x decimation.

    Axes of size 1 pass through untouched; every axis of size >= 2 is
    decimated to ceil(n/2) samples (even indices) with its spacing doubled.
    """
    dims = vol.dims
    if all(n < 2 for n in dims):
        raise InvalidParameterError(f"nothing to decimate: dims {dims}")
    # not gaussian_smooth_array: wrappers of that public name (perfbench/tracing.py) count it as field smoothing,
    # and it would smooth the float32 volume in float32; the pyramids accumulate in float64
    out = _separable_smooth(vol.data, 1.0, np.float64)
    slices = tuple(slice(None, None, 2) if n >= 2 else slice(None) for n in dims)
    spacing = tuple(s * 2 if n >= 2 else s for s, n in zip(vol.spacing, dims))
    return ScalarVolume(out[slices], spacing)
