"""Core 3D grid types plus interpolation, smoothing, and pyramid downsampling.

Volumes are immutable.  A ``ScalarVolume`` keeps one lazily computed value,
its ``half`` (``downsample2x`` of itself): registration walks that chain as
its pyramid, so each volume is downsampled once per level, however often used.

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

import numpy as np

from .errors import InvalidParameterError

BACKGROUND = 0
LV = 1
MYO = 2
RV = 3
LABEL_CODES = (BACKGROUND, LV, MYO, RV)
CLASS_NAMES = {LV: "LV", MYO: "MYO", RV: "RV"}
FOREGROUND_CLASSES = (LV, MYO, RV)

def _check_spacing(spacing) -> tuple[float, float, float]:
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3 or any(not math.isfinite(s) or s <= 0 for s in spacing):
        raise InvalidParameterError(f"spacing must be 3 positive finite values, got {spacing}")
    return spacing


@dataclass(frozen=True, eq=False)
class ScalarVolume:
    """A 3D scalar grid with physical spacing.

    ``data`` is float32 with shape ``(nx, ny, nz)``; it is made read-only on
    construction so volumes can be shared freely between threads.
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
        """``downsample2x(self)``, computed on first use and kept; racing threads may each compute it, equally."""
        return downsample2x(self)


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
    subject: str = ""
    vendor: str = ""
    center: str = ""

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
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    zs = np.asarray(zs, dtype=np.float64)
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys)) and np.all(np.isfinite(zs))):
        raise InvalidParameterError("sample positions must be finite")
    return xs, ys, zs


def _trilinear(data: np.ndarray, xs, ys, zs) -> np.ndarray:
    """Trilinear interpolation of a raw 3D array at float64 positions (voxel units, clamped).

    The one lerp kernel behind volume and field sampling.  Trailing channel
    axes of ``data``, ``(nx, ny, nz, ...)``, share one set of cell indices and
    weights, and follow the positions' broadcast shape in the float64 result.
    The 8 corners are taken from a flat ``(nx*ny*nz, ...)`` view at index
    ``(x0*ny + y0)*nz + z0`` plus one offset per corner (0 along a length-1
    axis), and the 7 lerps run in place.  Only ``c000`` is cast to float64, so
    on float32 data ``c110-c010``, ``c101-c001`` and ``c111-c011`` are taken in
    float32: byte-identical outputs depend on that rounding.  The positions
    are never written (callers read them again).
    """
    nx, ny, nz = data.shape[:3]
    flat = data.reshape(nx * ny * nz, *data.shape[3:])
    channels = (..., *(None,) * (data.ndim - 3))  # broadcast the weights over channel axes
    base, fracs = 0, []
    for pos, n in zip((xs, ys, zs), (nx, ny, nz)):
        frac = np.clip(pos, 0.0, n - 1.0)  # a fresh array, so the caller's positions stay as they are
        cell = np.minimum(np.floor(frac), n - 2 if n > 1 else 0)
        frac -= cell
        base = base * n + cell  # whole numbers, exact in float64: cast to indices once, below
        fracs.append(frac[channels])
    base, (fx, fy, fz) = base.astype(np.intp), fracs
    dx, dy, dz = (ny * nz if nx > 1 else 0), (nz if ny > 1 else 0), (1 if nz > 1 else 0)  # one step along each axis
    lo, hi = (np.empty(base.shape + data.shape[3:], dtype=data.dtype) for _ in range(2))

    def corner(offset, out):  # flat[offset:] adds offset to each index; all are in range, "clip" skips a buffer
        return np.take(flat[offset:], base, axis=0, out=out, mode="clip")

    def x_lerp(offset, out):  # c + fx * (c' - c) into out, c at offset, c' at offset + dx, c' - c in data's dtype
        np.multiply(fx, np.subtract(corner(offset + dx, hi), corner(offset, lo), out=hi), out=out)
        return np.add(out, lo, out=out)

    def lerp(a, b, f):  # a + f * (b - a) into a; nested lerps are exact on lattice points and on constant volumes
        b -= a
        b *= f
        return np.add(a, b, out=a)

    c0, c1 = corner(0, lo).astype(np.float64), corner(dx, hi).astype(np.float64)
    lerp(c0, c1, fx)  # c00
    lerp(c0, x_lerp(dy, c1), fy)  # c0, from c00 and c10
    lerp(x_lerp(dz, c1), x_lerp(dy + dz, np.empty_like(c1)), fy)  # c1, from c01 and c11
    return lerp(c0, c1, fz)


def trilinear_sample_many(vol: ScalarVolume, xs, ys, zs) -> np.ndarray:
    """Trilinear interpolation at arrays of positions (voxel units, clamped)."""
    return _trilinear(vol.data, *_check_points(xs, ys, zs))


def trilinear_sample(vol: ScalarVolume, p: tuple[float, float, float]) -> float:
    """Trilinear interpolation of the 8 surrounding voxels at one position."""
    return float(trilinear_sample_many(vol, [p[0]], [p[1]], [p[2]])[0])


def nearest_sample_many(lm: LabelMap, xs, ys, zs) -> np.ndarray:
    """Nearest-voxel label lookup; half-way ties go to the lower index per axis."""
    xs, ys, zs = _check_points(xs, ys, zs)
    nx, ny, nz = lm.dims
    # ceil(x - 0.5) is the nearest integer with ties resolved downward
    ix = np.clip(np.ceil(xs - 0.5), 0, nx - 1).astype(np.intp)
    iy = np.clip(np.ceil(ys - 0.5), 0, ny - 1).astype(np.intp)
    iz = np.clip(np.ceil(zs - 0.5), 0, nz - 1).astype(np.intp)
    return lm.data[ix, iy, iz]


def gaussian_kernel(sigma: float) -> np.ndarray:
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


def _convolve1d_replicate(arr: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """1D convolution along ``axis`` with edge replication, float64 accumulation.

    ``arr`` is written with ``axis`` moved to the front into one float64
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
    padded = np.empty((n + 2 * radius, *src.shape[1:]))
    padded[radius : radius + n] = src
    padded[:radius] = padded[radius]
    padded[radius + n :] = padded[radius + n - 1]
    out = np.zeros(src.shape)
    tap = np.empty_like(out)
    for offset, weight in enumerate(kernel):
        out += np.multiply(weight, padded[offset : offset + n], out=tap)
    return np.moveaxis(out, 0, axis)


def _separable_smooth(arr: np.ndarray, sigma_vox: float) -> np.ndarray:
    """Gaussian convolution along every axis longer than 1 (a fresh C-contiguous float64 result).

    The one smoothing loop behind gaussian_smooth_array and downsample2x; the
    axes are smoothed in the order x, y, z, and an identity kernel copies.
    """
    kernel = gaussian_kernel(sigma_vox)
    out = arr
    for axis in range(3):
        if arr.shape[axis] > 1 and len(kernel) > 1:
            out = _convolve1d_replicate(out, kernel, axis)
    return np.array(out, dtype=np.float64, order="C")  # the passes return views; an identity kernel makes none


def gaussian_smooth_array(arr: np.ndarray, sigma_vox: float) -> np.ndarray:
    """Separable Gaussian smoothing of a raw 3D array (float64 result)."""
    return _separable_smooth(arr, sigma_vox)


def downsample2x(vol: ScalarVolume) -> ScalarVolume:
    """Gaussian pre-smooth (sigma 1 voxel) then 2x decimation.

    Axes of size 1 pass through untouched; every axis of size >= 2 is
    decimated to ceil(n/2) samples (even indices) with its spacing doubled.
    """
    dims = vol.dims
    if all(n < 2 for n in dims):
        raise InvalidParameterError(f"nothing to decimate: dims {dims}")
    # not gaussian_smooth_array: wrappers of that public name (perfbench/tracing.py) count it as field smoothing
    out = _separable_smooth(vol.data, 1.0)
    slices = tuple(slice(None, None, 2) if n >= 2 else slice(None) for n in dims)
    spacing = tuple(s * 2 if n >= 2 else s for s, n in zip(vol.spacing, dims))
    return ScalarVolume(out[slices], spacing)
