"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import dataclasses
import struct

import numpy as np

from cineprop import io
from cineprop.phantom import PhantomSpec, generate_cine
from cineprop.registration import AffineTransform, _grid_axes, _sample_affine
from cineprop.volume import CineSeries, LabelMap, ScalarVolume

TINY_CINE_SPEC = PhantomSpec(
    dims=(20, 20, 20),
    lv_radius_es=5.0,
    lv_radius_ed=4.2,
    myo_thickness=2.0,
    rv_offset=(-6.0, 0.0, 0.0),
    rv_radius=3.0,
    frames=4,
    es_index=0,
    ed_index=3,
    noise_sigma=4.0,
    seed=11,
)


def thick_slice_series() -> CineSeries:
    """A 4-frame 32x32x6 series at 1.5x1.5x8 mm: every fifth slice of a 32^3 phantom."""
    spec = dataclasses.replace(
        TINY_CINE_SPEC,
        dims=(32, 32, 32),
        lv_radius_es=8.0,
        lv_radius_ed=6.5,
        myo_thickness=3.0,
        rv_offset=(-9.0, 0.0, 0.0),
        rv_radius=5.0,
        noise_sigma=5.0,
        seed=4,
    )
    cine = generate_cine(spec)
    spacing, keep = (1.5, 1.5, 8.0), (..., slice(3, None, 5))
    return CineSeries(
        frames=[ScalarVolume(f.data[keep], spacing) for f in cine.series.frames],
        es_index=spec.es_index,
        ed_index=spec.ed_index,
        es_label=LabelMap(cine.ground_truth[spec.es_index].data[keep], spacing),
        ed_label=LabelMap(cine.ground_truth[spec.ed_index].data[keep], spacing),
    )


def resample_affine(moving: ScalarVolume, transform: AffineTransform, like: ScalarVolume) -> ScalarVolume:
    """Pull-back resampling of ``moving`` through an affine onto ``like``'s grid, as the registration stages sample."""
    data = _sample_affine(moving, transform, _grid_axes(like.dims, like.spacing)).reshape(like.dims)
    return ScalarVolume(data.astype(np.float32), like.spacing)


def write_cine_dir(out, spec=TINY_CINE_SPEC, vendor="A", subject="subj"):
    """Write a phantom cine as MVOL frames + labels + manifest; returns (manifest_path, cine)."""
    out.mkdir(parents=True, exist_ok=True)
    cine = generate_cine(spec)
    frame_paths = []
    for t, frame in enumerate(cine.series.frames):
        p = out / f"frame_{t:03d}.mvol"
        io.write_mvol(frame, p)
        frame_paths.append(p)
    for t, lab in enumerate(cine.ground_truth):
        io.write_mvol(lab, out / f"label_{t:03d}.mvol")
    manifest = io.CineManifest(
        subject_id=subject,
        frame_paths=tuple(frame_paths),
        es_index=spec.es_index,
        ed_index=spec.ed_index,
        es_label_path=out / f"label_{spec.es_index:03d}.mvol",
        ed_label_path=out / f"label_{spec.ed_index:03d}.mvol",
        vendor=vendor,
        center="1",
    )
    mpath = out / "manifest.txt"
    io.write_manifest(manifest, mpath)
    return mpath, cine


def build_nifti_bytes(
    data: np.ndarray,
    spacing=(1.0, 1.0, 1.0),
    datatype: int | None = None,
    scl_slope: float = 0.0,
    scl_inter: float = 0.0,
    magic: bytes = b"n+1\x00",
    vox_offset: float = 352.0,
    ndim: int = 3,
) -> bytes:
    """Hand-assemble a single-file NIfTI-1 byte stream at the standard offsets."""
    codes = {np.uint8: 2, np.int16: 4, np.float32: 16, np.float64: 64, np.uint16: 512}
    data = np.asarray(data)
    if datatype is None:
        datatype = codes[data.dtype.type]
    bitpix = data.dtype.itemsize * 8

    header = bytearray(348)
    struct.pack_into("<i", header, 0, 348)
    dim = [ndim, *data.shape] + [1] * (7 - data.ndim)
    struct.pack_into("<8h", header, 40, *dim)
    struct.pack_into("<h", header, 70, datatype)
    struct.pack_into("<h", header, 72, bitpix)
    pixdim = [1.0, *spacing] + [0.0] * (7 - len(spacing))
    struct.pack_into("<8f", header, 76, *pixdim)
    struct.pack_into("<f", header, 108, vox_offset)
    struct.pack_into("<2f", header, 112, scl_slope, scl_inter)
    header[344:348] = magic

    offset = int(vox_offset)
    payload = data.ravel(order="F").tobytes()
    return bytes(header) + b"\x00" * (offset - 348) + payload


def random_volume(rng: np.random.Generator, max_dim: int = 16, spacing=None) -> ScalarVolume:
    dims = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(3))
    if spacing is None:
        spacing = tuple(float(s) for s in rng.choice([0.5, 1.0, 1.25, 2.0], size=3))
    data = rng.normal(100.0, 25.0, size=dims).astype(np.float32)
    return ScalarVolume(data, spacing)


def random_label_map(rng: np.random.Generator, max_dim: int = 8, spacing=(1.0, 1.0, 1.0)) -> LabelMap:
    dims = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(3))
    return LabelMap(rng.integers(0, 4, size=dims).astype(np.uint8), spacing)


def dice_oracle(pred: LabelMap, gt: LabelMap, label: int) -> float:
    """Dice by explicit voxel enumeration."""
    n_pred = n_gt = n_both = 0
    nx, ny, nz = pred.dims
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                p = pred.data[i, j, k] == label
                g = gt.data[i, j, k] == label
                n_pred += p
                n_gt += g
                n_both += p and g
    if n_pred + n_gt == 0:
        return 1.0
    return 2.0 * n_both / (n_pred + n_gt)


def hausdorff_oracle(pred: LabelMap, gt: LabelMap, label: int) -> float:
    """Symmetric Hausdorff via the full O(N^2) pairwise distance matrix."""
    base = min(pred.spacing)
    ratio = np.asarray(pred.spacing, dtype=np.float64) / base
    p = np.argwhere(pred.data == label).astype(np.float64) * ratio
    g = np.argwhere(gt.data == label).astype(np.float64) * ratio
    assert len(p) > 0 and len(g) > 0
    dist = np.sqrt(((p[:, None, :] - g[None, :, :]) ** 2).sum(axis=2))
    directed_pg = dist.min(axis=1).max()
    directed_gp = dist.min(axis=0).max()
    return base * float(max(directed_pg, directed_gp))


def trilinear_long_hand(vol: ScalarVolume, x: float, y: float, z: float) -> float:
    """Scalar trilinear interpolation written out long-hand (clamped)."""
    nx, ny, nz = vol.dims
    x = min(max(x, 0.0), nx - 1.0)
    y = min(max(y, 0.0), ny - 1.0)
    z = min(max(z, 0.0), nz - 1.0)
    x0 = min(int(np.floor(x)), max(nx - 2, 0))
    y0 = min(int(np.floor(y)), max(ny - 2, 0))
    z0 = min(int(np.floor(z)), max(nz - 2, 0))
    x1, y1, z1 = min(x0 + 1, nx - 1), min(y0 + 1, ny - 1), min(z0 + 1, nz - 1)
    fx, fy, fz = x - x0, y - y0, z - z0
    d = vol.data
    val = 0.0
    for ci, wi in ((x0, 1 - fx), (x1, fx)):
        for cj, wj in ((y0, 1 - fy), (y1, fy)):
            for ck, wk in ((z0, 1 - fz), (z1, fz)):
                val += wi * wj * wk * float(d[ci, cj, ck])
    return val


def trilinear_oracle(data: np.ndarray, xs, ys, zs) -> np.ndarray:
    """The fancy-index trilinear kernel that ``volume._trilinear`` replaced, kept bit for bit as its oracle.

    Same clamping, broadcasting, channel axes and rounding: only ``c000`` is
    cast to float64, so on float32 data the other corner differences are taken
    in float32.
    """
    nx, ny, nz = data.shape[:3]
    xs = np.clip(xs, 0.0, nx - 1.0)
    ys = np.clip(ys, 0.0, ny - 1.0)
    zs = np.clip(zs, 0.0, nz - 1.0)
    x0 = np.minimum(np.floor(xs), nx - 2 if nx > 1 else 0).astype(np.intp)
    y0 = np.minimum(np.floor(ys), ny - 2 if ny > 1 else 0).astype(np.intp)
    z0 = np.minimum(np.floor(zs), nz - 2 if nz > 1 else 0).astype(np.intp)
    x1 = np.minimum(x0 + 1, nx - 1)
    y1 = np.minimum(y0 + 1, ny - 1)
    z1 = np.minimum(z0 + 1, nz - 1)
    channels = (..., *(None,) * (data.ndim - 3))  # broadcast the weights over channel axes
    fx = (xs - x0)[channels]
    fy = (ys - y0)[channels]
    fz = (zs - z0)[channels]
    del xs, ys, zs  # callers still hold the unclipped positions: free the clipped copies before the lerps

    c000 = data[x0, y0, z0].astype(np.float64)
    c100 = data[x1, y0, z0]
    c010 = data[x0, y1, z0]
    c110 = data[x1, y1, z0]
    c001 = data[x0, y0, z1]
    c101 = data[x1, y0, z1]
    c011 = data[x0, y1, z1]
    c111 = data[x1, y1, z1]

    # nested lerps: exact on lattice points and on constant volumes
    c00 = c000 + fx * (c100 - c000)
    c10 = c010 + fx * (c110 - c010)
    c01 = c001 + fx * (c101 - c001)
    c11 = c011 + fx * (c111 - c011)
    c0 = c00 + fy * (c10 - c00)
    c1 = c01 + fy * (c11 - c01)
    return c0 + fz * (c1 - c0)


def ks_eight_search_oracle(sample_a, sample_b) -> float:
    """The eight-search KS statistic that ``style.ks_statistic`` replaced, kept bit for bit as its oracle.

    Both ECDFs are evaluated from each side at every value of each sorted pool
    by binary search: ``count / n`` per sample, then ``abs(fa - fb)``.
    """
    a = np.sort(np.asarray(sample_a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(sample_b, dtype=np.float64).ravel())
    gap = 0.0
    for pool in (a, b):
        for side in ("right", "left"):
            fa = np.searchsorted(a, pool, side=side) / a.size
            fb = np.searchsorted(b, pool, side=side) / b.size
            gap = max(gap, float(np.max(np.abs(fa - fb))))
    return gap


def ks_brute_force(a, b) -> float:
    """KS statistic by definition: both ECDFs and both left limits, compared at every pooled value."""
    a, b = np.ravel(a), np.ravel(b)
    gap = 0.0
    for p in np.concatenate([a, b]):
        right = abs(np.count_nonzero(a <= p) / a.size - np.count_nonzero(b <= p) / b.size)
        left = abs(np.count_nonzero(a < p) / a.size - np.count_nonzero(b < p) / b.size)
        gap = max(gap, right, left)
    return gap


def sampled_gaussian_oracle(sigma: float) -> np.ndarray:
    """The normalized sampled Gaussian, radius ceil(3*sigma), as written before any sigma guard."""
    radius = int(np.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return k1 / k1.sum()


def dense_gaussian_oracle(data: np.ndarray, sigma: float) -> np.ndarray:
    """Full 3D convolution with the normalized sampled Gaussian, edge replication."""
    k1 = sampled_gaussian_oracle(sigma)
    radius = len(k1) // 2
    kernel = k1[:, None, None] * k1[None, :, None] * k1[None, None, :]
    nx, ny, nz = data.shape
    out = np.zeros(data.shape, dtype=np.float64)
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                acc = 0.0
                for di in range(-radius, radius + 1):
                    for dj in range(-radius, radius + 1):
                        for dk in range(-radius, radius + 1):
                            ii = min(max(i + di, 0), nx - 1)
                            jj = min(max(j + dj, 0), ny - 1)
                            kk = min(max(k + dk, 0), nz - 1)
                            acc += kernel[di + radius, dj + radius, dk + radius] * float(data[ii, jj, kk])
                out[i, j, k] = acc
    return out


def convolve1d_pad_oracle(arr: np.ndarray, kernel: np.ndarray, axis: int, offset=0) -> np.ndarray:
    """The ``np.pad`` convolution that ``volume._convolve1d_replicate`` replaced, kept bit for bit as its oracle.

    Pads ``arr - offset``, taken in ``kernel``'s dtype, along ``axis`` with
    ``np.pad(mode="edge")`` and accumulates ``out += w_k * padded[k:k+n]``
    into zeros of that dtype, each tap strided along ``axis``.
    """
    radius = len(kernel) // 2
    pad = [(radius, radius) if ax == axis else (0, 0) for ax in range(arr.ndim)]
    padded = np.pad(np.subtract(arr, offset, dtype=kernel.dtype), pad, mode="edge")
    out = np.zeros(arr.shape, dtype=kernel.dtype)
    index = [slice(None)] * arr.ndim
    for start, weight in enumerate(kernel):
        index[axis] = slice(start, start + arr.shape[axis])
        out += weight * padded[tuple(index)]
    return out


def separable_smooth_oracle(arr: np.ndarray, sigma: float, dtype=np.float64) -> np.ndarray:
    """``convolve1d_pad_oracle`` along x, y, z in turn, skipping axes of length 1, accumulated in ``dtype``.

    In float32 the weights are float32, and the passes smooth the deviation
    from the first element, which is added back at the end.
    """
    kernel = sampled_gaussian_oracle(sigma).astype(dtype)
    axes = [axis for axis in range(3) if arr.shape[axis] > 1]
    if not axes:
        return np.array(arr, dtype=dtype)
    base = arr.flat[0] if dtype == np.float32 else 0
    out = np.subtract(arr, base, dtype=dtype)
    for axis in axes:
        out = convolve1d_pad_oracle(out, kernel, axis)
    return out + base


def shift_volume(vol: ScalarVolume, shift: tuple[int, int, int]) -> ScalarVolume:
    """Integer-voxel content shift with edge clamping: out(v) = in(v - shift)."""
    nx, ny, nz = vol.dims
    ii = np.clip(np.arange(nx) - shift[0], 0, nx - 1)
    jj = np.clip(np.arange(ny) - shift[1], 0, ny - 1)
    kk = np.clip(np.arange(nz) - shift[2], 0, nz - 1)
    return ScalarVolume(vol.data[np.ix_(ii, jj, kk)], vol.spacing)


def fd_gradient(objective, theta, units, fraction: float = 0.1) -> np.ndarray:
    """Central finite-difference gradient of ``objective`` at ``theta``, probing ``fraction`` of each unit.

    The oracle for the analytic registration gradients: one pair of
    objective evaluations per parameter, at theta +/- fraction * units[i].
    """
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for i, probe in enumerate(fraction * np.asarray(units, dtype=np.float64)):
        step = np.zeros_like(theta)
        step[i] = probe
        grad[i] = (objective(theta + step) - objective(theta - step)) / (2.0 * probe)
    return grad
