"""Three-stage intra-subject registration: rigid, affine, then deformable.

The rigid and affine stages run one linear driver over different
parametrizations: coarse-to-fine over Gaussian pyramids, conjugate-gradient
descent over unit-normalized parameters, step halving on non-improvement,
and a stop on small relative improvement.  Gradients are analytic: the
NCC's derivative with respect to each warped sample, times the
moving image's central-difference gradient sampled at the warped point,
times the derivative of that point with respect to the parameters
(dS/dw . grad M(T(x)) . dT/dtheta, as in elastix).  The result never scores
worse at full resolution than the stage's fallback (the identity for rigid,
the initial transform for affine).  Each stage passes its full-resolution
sample on to the next as a ``_Stage``; a public stage function samples its
own ``init``.
The deformable stage is demons-style: on each pyramid level it moves a dense
displacement field along the fixed-image gradient, scaled by the intensity
difference, smooths the field with a Gaussian, and ends the level at the
first such update that does not improve the NCC.  Each field is built,
smoothed and warped in float32, which halves the memory traffic of the
smoothing, the stage's largest cost; the NCC sums over the warped image stay
float64.  Its output folds the affine initialization into one total field.
Each pyramid level is the finer level's cached ``ScalarVolume.half``: the
target's pyramid is built once per frame and each template's once per
series; only the deformable stage's affine-resampled moving image gets a
fresh pyramid.

Conventions:

* ``AffineTransform`` maps fixed-image physical points (mm) to moving-image
  physical points: ``p_moving = matrix @ p_fixed + translation``.
* ``DisplacementField`` lives on the fixed grid; ``vectors[i,j,k]`` is the
  mm offset added to voxel ``(i,j,k)``'s position before sampling the moving
  image (pull-back convention).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, InvalidParameterError
from .volume import (
    LabelMap,
    ScalarVolume,
    _trilinear,
    gaussian_smooth_array,
    nearest_sample_many,
    trilinear_sample_many,
)

_STEP_SIZE = 0.5  # rigid/affine: largest step per iteration, in parameter units (voxels, degrees)
_DEMONS_SIGMA_VOX = 1.5  # Gaussian smoothing of each demons candidate field, in voxels
_MIN_STEP_FRACTION = 1e-3  # line search gives up below this fraction of its largest step
_CONVERGENCE_WINDOW = 5  # iterations over which relative improvement is measured
_CONVERGENCE_TOL = 1e-4  # converged once a window improves by less than this, relative
_MAX_OBJECTIVE_SAMPLES = 48_000  # rigid/affine objectives subsample above this


@dataclass(frozen=True, eq=False)
class AffineTransform:
    """Invertible affine map of physical coordinates (mm)."""

    matrix: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64).reshape(3, 3).copy()
        t = np.asarray(self.translation, dtype=np.float64).reshape(3).copy()
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(t))):
            raise InvalidParameterError("affine transform must be finite")
        if abs(np.linalg.det(m)) < 1e-12:
            raise InvalidParameterError("affine matrix is singular")
        m.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "AffineTransform":
        return cls(np.eye(3), np.zeros(3))

    def __reduce__(self):  # unpickled through the constructor, so the arrays are checked and read-only again
        return type(self), (self.matrix, self.translation)


@dataclass(frozen=True, eq=False)
class DisplacementField:
    """Per-voxel mm displacements on the fixed grid."""

    vectors: np.ndarray
    spacing: tuple[float, float, float]

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 4 or v.shape[3] != 3:
            raise InvalidParameterError(f"field must have shape (nx, ny, nz, 3), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("field contains non-finite components")
        v = np.ascontiguousarray(v)
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.vectors.shape[:3]

    def __reduce__(self):  # unpickled through the constructor, so ``vectors`` is checked and read-only again
        return type(self), (self.vectors, self.spacing)


@dataclass(frozen=True)
class RegistrationParams:
    pyramid_levels: int = 3
    iterations_per_level: tuple[int, ...] = (50, 50, 30)  # coarse -> fine

    def __post_init__(self):
        try:
            values = (self.pyramid_levels, *self.iterations_per_level)
        except TypeError:
            raise InvalidParameterError("iterations_per_level must be a sequence") from None
        if not all(isinstance(v, numbers.Real) and math.isfinite(v) and v == int(v) for v in values):
            raise InvalidParameterError(f"pyramid_levels and iteration counts must be whole numbers, got {values}")
        levels, *iters = (int(v) for v in values)
        if levels < 1:
            raise InvalidParameterError("pyramid_levels must be >= 1")
        if len(iters) != levels:
            raise InvalidParameterError(f"iterations_per_level has {len(iters)} entries for {levels} levels")
        if min(iters) < 1:
            raise InvalidParameterError("iteration counts must be >= 1")
        object.__setattr__(self, "pyramid_levels", levels)
        object.__setattr__(self, "iterations_per_level", tuple(iters))


def _affine_columns(m: np.ndarray, t: np.ndarray, x, y, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``m @ p + t`` for point coordinates x, y, z, as explicit multiply-adds.

    A BLAS ``(N,3) @ (3,3)`` product would start BLAS threads inside each
    worker process and make the rounding depend on the BLAS thread count.
    x, y, z may be the broadcastable axes of a grid (``_grid_axes``): the
    products are then taken per axis and only the sums are full size.
    """
    return tuple(m[r, 0] * x + m[r, 1] * y + m[r, 2] * z + t[r] for r in range(3))


def _ncc(fixed: np.ndarray):
    """``(score, d_score)`` against one fixed sample: ``score(warped)``, lower is better, and its gradient per sample.

    The score is the negative normalized cross-correlation in [-1, 1], 0 when
    either image is constant.  The fixed side's float64 cast, centring and sum
    of squares are computed once.  Sums are numpy's pairwise ``np.sum``, not
    BLAS dot products, so they run on the calling thread and round the same
    way every time.
    """
    a = np.asarray(fixed, dtype=np.float64).ravel()
    ac = a - a.mean()
    va = float(np.sum(ac * ac))

    def score(warped) -> float:
        b = np.asarray(warped, dtype=np.float64).ravel()
        bc = b - b.mean()
        vb = float(np.sum(bc * bc))
        if va == 0.0 or vb == 0.0:
            return 0.0
        return -float(np.sum(ac * bc)) / math.sqrt(va * vb)

    def d_score(warped) -> np.ndarray:
        bc = warped - warped.mean()
        vb = float(np.sum(bc * bc))
        if va == 0.0 or vb == 0.0:
            return np.zeros_like(bc)  # the score is the constant 0 here
        return (-ac + (float(np.sum(ac * bc)) / vb) * bc) / math.sqrt(va * vb)

    return score, d_score


def _grid_axes(dims, spacing, stride: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, y, z coordinates of every ``stride``-th voxel center at ``spacing``, as broadcastable axes."""
    axes = [np.arange(0, n, stride, dtype=np.float64) * s for n, s in zip(dims, spacing)]
    return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))


def _sample_affine(moving: ScalarVolume, transform: AffineTransform, grid) -> np.ndarray:
    """Moving intensities at the affine images of fixed-grid mm points, flat in C-index order."""
    ms = moving.spacing
    x, y, z = _affine_columns(transform.matrix, transform.translation, *grid)
    return trilinear_sample_many(moving, (x / ms[0]).ravel(), (y / ms[1]).ravel(), (z / ms[2]).ravel())


def affine_to_field(transform: AffineTransform, dims, spacing) -> DisplacementField:
    """The displacement field realizing an affine on a given fixed grid."""
    grid = _grid_axes(dims, spacing)
    moved = _affine_columns(transform.matrix, transform.translation, *grid)
    return DisplacementField(np.stack([p - g for p, g in zip(moved, grid)], axis=-1), tuple(spacing))


def _warp_positions(u: np.ndarray, spacing) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat voxel-unit sample positions: every voxel of ``u``'s grid moved by its mm offset.

    ``spacing`` is the sampled image's, which converts the offsets to voxels.
    """
    grid = _grid_axes(u.shape[:3], (1.0, 1.0, 1.0))
    return tuple((g + u[..., c] / spacing[c]).ravel() for c, g in enumerate(grid))


def warp_image(moving: ScalarVolume, field: DisplacementField) -> ScalarVolume:
    """Sample the moving image at each fixed-grid point offset by the field."""
    vals = trilinear_sample_many(moving, *_warp_positions(field.vectors, moving.spacing))
    return ScalarVolume(vals.reshape(field.dims).astype(np.float32), field.spacing)


def warp_label(moving: LabelMap, field: DisplacementField) -> LabelMap:
    """As warp_image but with nearest-neighbor lookup, so class codes never blend."""
    labels = nearest_sample_many(moving, *_warp_positions(field.vectors, moving.spacing))
    return LabelMap(labels.reshape(field.dims), field.spacing)


def _warp_data(moving_data: np.ndarray, u: np.ndarray, spacing) -> np.ndarray:
    """warp_image on a raw float64 moving array and a float32 or float64 field, for the demons iterations."""
    return _trilinear(moving_data, *_warp_positions(u, spacing)).reshape(u.shape[:3])


def _check_pair(fixed: ScalarVolume, moving: ScalarVolume) -> None:
    if not np.allclose(fixed.spacing, moving.spacing):
        raise InvalidParameterError(f"spacing mismatch: {fixed.spacing} vs {moving.spacing}")
    if fixed.is_constant():
        raise DegenerateInputError("fixed image is constant; no gradient signal")
    if moving.is_constant():
        raise DegenerateInputError("moving image is constant; no gradient signal")


def _pyramid_levels(fixed: ScalarVolume, moving: ScalarVolume, params: RegistrationParams) -> list:
    """Coarse-to-fine (fixed, moving, iterations) levels of cached halves, stopping when too small to halve."""
    pyramids = []
    for vol in (fixed, moving):
        pyramid = [vol]
        while len(pyramid) < params.pyramid_levels and max(pyramid[-1].dims) >= 4:
            pyramid.append(pyramid[-1].half)
        pyramids.append(pyramid[::-1])
    return list(zip(*pyramids, params.iterations_per_level[-len(pyramids[0]) :]))


def _line_search(objective, theta, direction, f_cur: float, lam: float):
    """The first ``theta + lam * direction`` that scores below ``f_cur``, halving ``lam`` after each that does not.

    Returns ``(theta, score, next_lam)``, the next step being the accepted one
    grown by 1.5 up to ``_STEP_SIZE``; or None once ``lam`` falls below
    ``_MIN_STEP_FRACTION * _STEP_SIZE``.
    """
    while lam >= _MIN_STEP_FRACTION * _STEP_SIZE:
        moved = theta + lam * direction
        f_cand = objective(moved)
        if f_cand < f_cur:
            return moved, f_cand, min(lam * 1.5, _STEP_SIZE)
        lam *= 0.5
    return None


def _converged(window: list, f_cur: float) -> bool:
    """Append ``f_cur`` to ``window``; True once a whole window of iterations improves by less than the tolerance."""
    window.append(f_cur)
    if len(window) <= _CONVERGENCE_WINDOW:
        return False
    start = window.pop(0)
    return (start - f_cur) / max(abs(start), 1e-12) < _CONVERGENCE_TOL


def _descend(objective, gradient, theta0, units, iterations):
    """Descent over unit-normalized parameters with step halving on non-improvement.

    ``gradient(theta)`` is the objective's gradient with respect to theta; it
    is called once per iteration, and ``objective`` only at the start and in
    the line search.  Search directions are conjugate-gradient
    (Polak-Ribiere) combinations of the gradients per parameter unit, which
    follow the curved valleys that couple rotation/scale with translation far
    better than raw steepest descent.  Failed line searches restart from the
    plain gradient direction.  Returns (theta, trace); trace holds the
    accepted objective values and is non-increasing by construction.
    """
    theta = np.asarray(theta0, dtype=np.float64).copy()
    units = np.asarray(units, dtype=np.float64)
    f_cur = objective(theta)
    trace = [f_cur]
    lam = _STEP_SIZE
    g_prev = None
    d_prev = None
    window = [f_cur]
    for _ in range(iterations):
        grad_units = gradient(theta) * units  # change per unit step of each parameter
        if g_prev is not None:
            beta = max(0.0, float(grad_units @ (grad_units - g_prev)) / float(g_prev @ g_prev))
            d = -grad_units + beta * d_prev
        else:
            d = -grad_units
        norm = float(np.linalg.norm(d))
        if norm == 0.0:
            break
        direction = (d / norm) * units
        step = _line_search(objective, theta, direction, f_cur, lam)
        if step is None:
            if d_prev is None:
                break  # even the steepest direction fails: converged
            g_prev = d_prev = None  # restart from the plain gradient
            lam = 0.25 * _STEP_SIZE
            continue
        theta, f_cur, lam = step
        trace.append(f_cur)
        g_prev, d_prev = grad_units, d
        if _converged(window, f_cur):
            break
    return theta, trace


def _center_mm(vol: ScalarVolume) -> np.ndarray:
    return (np.asarray(vol.dims, dtype=np.float64) - 1.0) / 2.0 * np.asarray(vol.spacing)


def _axis_rotation(axis: int, angle: float, derivative: bool = False) -> np.ndarray:
    """Right-handed rotation by ``angle`` about coordinate ``axis``, or its derivative in ``angle``."""
    c, s = math.cos(angle), math.sin(angle)
    m = np.eye(3)
    if derivative:
        m[axis, axis] = 0.0
        c, s = -s, c
    j, k = (axis + 1) % 3, (axis + 2) % 3
    m[j, j], m[j, k], m[k, j], m[k, k] = c, -s, s, c
    return m


def _rotation_matrix(rx: float, ry: float, rz: float) -> np.ndarray:
    return _axis_rotation(2, rz) @ _axis_rotation(1, ry) @ _axis_rotation(0, rx)


def _pose_to_transform(theta, center) -> AffineTransform:
    """6-parameter pose (rx, ry, rz, tx, ty, tz) rotating about ``center``."""
    rot = _rotation_matrix(theta[0], theta[1], theta[2])
    translation = center - rot @ center + np.asarray(theta[3:6], dtype=np.float64)
    return AffineTransform(rot, translation)


def _pose_jacobian(theta, center) -> np.ndarray:
    """12x6 derivative of ``_pose_to_transform``'s (matrix entries, translation) with respect to theta."""
    jac = np.zeros((12, 6))
    for axis in range(3):
        # R = Rz Ry Rx, differentiated in one factor: dR/drx = Rz Ry dRx, and so on
        mx, my, mz = (_axis_rotation(a, theta[a], derivative=a == axis) for a in range(3))
        d_rot = mz @ my @ mx
        jac[:9, axis] = d_rot.ravel()
        jac[9:, axis] = -(d_rot @ center)  # t = c - R c + theta_t
    jac[9:, 3:] = np.eye(3)
    return jac


def _affine_params_to_transform(theta, center) -> AffineTransform:
    matrix = np.asarray(theta[:9], dtype=np.float64).reshape(3, 3)
    t_center = np.asarray(theta[9:12], dtype=np.float64)
    return AffineTransform(matrix, t_center + center - matrix @ center)


def _affine_params_jacobian(center) -> np.ndarray:
    """12x12 derivative of ``_affine_params_to_transform``'s (matrix entries, translation); constant."""
    jac = np.eye(12)
    for r in range(3):
        jac[9 + r, 3 * r : 3 * r + 3] = -center  # t = t_center + c - A c
    return jac


def _transform_to_affine_params(transform: AffineTransform, center) -> np.ndarray:
    t_center = transform.matrix @ center + transform.translation - center
    return np.concatenate([transform.matrix.ravel(), t_center])


def _value_and_gradient_images(data: np.ndarray) -> np.ndarray:
    """``data`` and its central-difference gradient along each axis (voxel units), as 4 trailing channels.

    The gradient along an axis of length 1 is zero.
    """
    grads = [np.gradient(data, axis=a) if n > 1 else np.zeros_like(data) for a, n in enumerate(data.shape)]
    return np.stack([data, *grads], axis=-1)


def _level_objective(fixed_level: ScalarVolume, moving_level: ScalarVolume, to_transform, jacobian):
    """``(objective, gradient)`` over a deterministic sample of the fixed grid.

    Above _MAX_OBJECTIVE_SAMPLES voxels the grid is strided, which keeps one
    evaluation cheap at fine pyramid levels without giving up determinism.
    ``jacobian(theta)`` is the 12xP derivative of ``to_transform(theta)``'s
    (row-major matrix entries, translation) with respect to theta.

    The gradient samples the moving image and its gradient images at the
    warped points with one trilinear pass.  A point clamped along an axis
    does not move with the transform along that axis, so its gradient
    component there is zero.  The sums over the sparse grid are taken per
    axis: ``sum(v * x)`` over the grid is ``sum(x * (v summed over y, z))``.
    """
    dims, spacing = fixed_level.dims, fixed_level.spacing
    n_total = dims[0] * dims[1] * dims[2]
    stride = max(1, round(np.cbrt(n_total / _MAX_OBJECTIVE_SAMPLES) + 0.49999))
    grid = _grid_axes(dims, spacing, stride)
    fixed_sample = fixed_level.data[::stride, ::stride, ::stride]
    score, d_score = _ncc(fixed_sample)
    channels = _value_and_gradient_images(moving_level.data)
    axes = [g.ravel() for g in grid]
    ms, m_dims = moving_level.spacing, moving_level.dims

    def objective(theta) -> float:
        try:
            tf = to_transform(theta)
        except InvalidParameterError:
            return math.inf  # singular candidate: reject, the line search backs off
        return score(_sample_affine(moving_level, tf, grid))

    def gradient(theta) -> np.ndarray:
        tf = to_transform(theta)
        points = _affine_columns(tf.matrix, tf.translation, *grid)
        pos = [(p / s).ravel() for p, s in zip(points, ms)]
        samples = _trilinear(channels, *pos)
        dw = d_score(samples[:, 0])
        d_affine = np.empty(12)  # d score / d (matrix entries, translation)
        for r in range(3):
            inside = (pos[r] >= 0.0) & (pos[r] <= m_dims[r] - 1.0)
            # d score / d point_r (mm) per sample, on the sample grid
            v = ((dw * samples[:, 1 + r]) * inside).reshape(fixed_sample.shape) / ms[r]
            v_xy = np.sum(v, axis=2)
            d_affine[3 * r] = np.sum(np.sum(v_xy, axis=1) * axes[0])
            d_affine[3 * r + 1] = np.sum(np.sum(v_xy, axis=0) * axes[1])
            d_affine[3 * r + 2] = np.sum(np.sum(v, axis=(0, 1)) * axes[2])
            d_affine[9 + r] = np.sum(v_xy)
        return np.sum(d_affine[:, None] * jacobian(theta), axis=0)

    return objective, gradient


class _Stage(NamedTuple):
    """A stage's transform, the full-grid float64 sample of ``moving`` through it, and that sample's NCC."""

    transform: AffineTransform
    sample: np.ndarray
    score: float


def _judge(fixed: ScalarVolume, moving: ScalarVolume, transform: AffineTransform) -> _Stage:
    """Sample ``moving`` through ``transform`` on the full fixed grid and score it against ``fixed``."""
    sample = _sample_affine(moving, transform, _grid_axes(fixed.dims, fixed.spacing))
    return _Stage(transform, sample, _ncc(fixed.data)[0](sample))


def _register_linear(fixed, moving, params, theta, to_transform, jacobian, level_units, fallback: _Stage) -> _Stage:
    """Coarse-to-fine descent of ``theta``, shared by the rigid and affine stages.

    ``to_transform(theta)`` builds the candidate transform, ``jacobian(theta)``
    its derivative (see ``_level_objective``), and ``level_units(spacing)``
    gives the parameter units of one pyramid level.  Returns ``fallback``
    itself when the result scores worse at full resolution.
    """
    for f_l, m_l, n_iter in _pyramid_levels(fixed, moving, params):
        obj, grad = _level_objective(f_l, m_l, to_transform, jacobian)
        units = level_units(f_l.spacing)
        theta, _ = _descend(obj, grad, theta, units, n_iter)
    result = _judge(fixed, moving, to_transform(theta))
    return fallback if result.score > fallback.score else result


def _rigid(fixed: ScalarVolume, moving: ScalarVolume, params: RegistrationParams) -> _Stage:
    center = _center_mm(fixed)
    deg = math.pi / 180.0
    return _register_linear(
        fixed,
        moving,
        params,
        np.zeros(6),
        lambda th: _pose_to_transform(th, center),
        lambda th: _pose_jacobian(th, center),
        lambda spacing: np.array([deg, deg, deg, *spacing]),
        _judge(fixed, moving, AffineTransform.identity()),
    )


def _affine(fixed: ScalarVolume, moving: ScalarVolume, init: _Stage, params: RegistrationParams) -> _Stage:
    center = _center_mm(fixed)
    half_diag = float(np.linalg.norm(center)) or 1.0
    jacobian = _affine_params_jacobian(center)
    return _register_linear(
        fixed,
        moving,
        params,
        _transform_to_affine_params(init.transform, center),
        lambda th: _affine_params_to_transform(th, center),
        lambda th: jacobian,
        # a unit step of a matrix entry displaces the half-radius shell by ~1 voxel
        lambda spacing: np.array([min(spacing) / half_diag] * 9 + list(spacing)),
        init,
    )


def register_rigid(fixed: ScalarVolume, moving: ScalarVolume, params: RegistrationParams) -> AffineTransform:
    """Recover a 6-DOF rigid transform (rotation about the fixed center + translation).

    The result never scores worse than the identity transform at full
    resolution; the rotation block is orthonormal by parametrization.
    """
    _check_pair(fixed, moving)
    return _rigid(fixed, moving, params).transform


def register_affine(
    fixed: ScalarVolume, moving: ScalarVolume, init: AffineTransform, params: RegistrationParams
) -> AffineTransform:
    """12-DOF refinement of an initial transform; where the refinement scores worse, ``init`` itself is returned."""
    _check_pair(fixed, moving)
    return _affine(fixed, moving, _judge(fixed, moving, init), params).transform


def _upsample_field(u: np.ndarray, new_dims) -> np.ndarray:
    """Resample a (nx,ny,nz,3) mm-valued field onto a finer grid (fine = coarse*2)."""
    return _trilinear(u, *_grid_axes(new_dims, (0.5, 0.5, 0.5)))


def _demons_level(fixed_level: ScalarVolume, moving_level: ScalarVolume, u: np.ndarray, n_iter: int) -> np.ndarray:
    """Iterate intensity-difference updates on one pyramid level.

    Each candidate is ``u`` plus the full update, rounded once to a float32
    field, then smoothed in float32 and warped; the level ends at the first
    one that does not improve the NCC.  The images, the gradients, the update
    and the NCC sums stay float64.
    """
    fdata = fixed_level.data.astype(np.float64)
    spacing = fixed_level.spacing
    mdata = moving_level.data.astype(np.float64)
    grads = np.gradient(fdata, *spacing) if min(fdata.shape) > 1 else None
    if grads is None:
        return u
    g2 = grads[0] ** 2 + grads[1] ** 2 + grads[2] ** 2
    mean_sq_spacing = float(np.mean(np.square(spacing)))

    score = _ncc(fdata)[0]
    grad_stack = np.stack(grads, axis=-1)
    # the warp of the accepted field is carried into the next iteration, so no field is warped twice
    warped = _warp_data(mdata, u, spacing)
    f_cur = score(warped)
    window = [f_cur]
    for _ in range(n_iter):
        diff = warped - fdata
        denom = g2 + diff * diff / mean_sq_spacing
        scale = np.where(denom > 1e-12, -diff / np.maximum(denom, 1e-12), 0.0)
        field = np.add(u, scale[..., None] * grad_stack, out=np.empty(u.shape, np.float32))
        for c in range(3):
            field[..., c] = gaussian_smooth_array(field[..., c], _DEMONS_SIGMA_VOX)
        warped_field = _warp_data(mdata, field, spacing)
        f_field = score(warped_field)
        if f_field >= f_cur:
            break
        u, warped, f_cur = field, warped_field, f_field
        if _converged(window, f_cur):
            break
    return u


def _deformable(
    fixed: ScalarVolume, moving: ScalarVolume, init: _Stage, params: RegistrationParams
) -> DisplacementField:
    """``register_deformable`` from a judged ``init``: its sample is the affine-resampled moving image."""
    affine = init.transform
    moving_affine = ScalarVolume(init.sample.reshape(fixed.dims).astype(np.float32), fixed.spacing)
    u: np.ndarray | None = None
    for f_l, m_l, n_iter in _pyramid_levels(fixed, moving_affine, params):
        u = np.zeros((*f_l.dims, 3)) if u is None else _upsample_field(u, f_l.dims)
        u = _demons_level(f_l, m_l, u, n_iter)

    # total(v) = A(v_mm + u(v)) + b - v_mm : exact composition with the affine
    grid = _grid_axes(fixed.dims, fixed.spacing)
    moved = _affine_columns(affine.matrix, affine.translation, *(g + u[..., c] for c, g in enumerate(grid)))
    total_field = DisplacementField(np.stack([p - g for p, g in zip(moved, grid)], axis=-1), fixed.spacing)

    affine_field = affine_to_field(affine, fixed.dims, fixed.spacing)
    score = _ncc(fixed.data)[0]
    if score(warp_image(moving, total_field).data) > score(warp_image(moving, affine_field).data):
        return affine_field
    return total_field


def register_deformable(
    fixed: ScalarVolume, moving: ScalarVolume, init: AffineTransform, params: RegistrationParams
) -> DisplacementField:
    """Dense displacement field refining an affine initialization.

    The affine is applied first (one resampling of the moving image), the
    residual deformation is optimized coarse-to-fine, and the returned field
    is the algebraic composition of both, mapping fixed-grid points to
    moving-image sample positions.  The result never scores worse than the
    affine-initialized warp.
    """
    _check_pair(fixed, moving)
    return _deformable(fixed, moving, _judge(fixed, moving, init), params)


def _register_stages(fixed: ScalarVolume, moving: ScalarVolume, params: RegistrationParams) -> DisplacementField:
    """``register_rigid``, ``register_affine`` and ``register_deformable`` chained, each stage's sample passed on."""
    _check_pair(fixed, moving)
    rigid = _rigid(fixed, moving, params)
    return _deformable(fixed, moving, _affine(fixed, moving, rigid, params), params)
