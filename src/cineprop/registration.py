"""Three-stage intra-subject registration: rigid, affine, then deformable.

The rigid and affine stages run one linear driver over different
parametrizations: coarse-to-fine over Gaussian pyramids, conjugate-gradient
descent over unit-normalized parameters, a backtracking line search that
interpolates its next step from a quadratic model and gives up at a 64th of a
voxel or degree, and a stop on small relative improvement.  Gradients are
analytic: the NCC's derivative with respect to each warped sample, times the
moving image's central-difference gradient sampled at the warped point, times
the derivative of that point with respect to the parameters (dS/dw . grad
M(T(x)) . dT/dtheta, as in elastix).  Each level's objective scores a strided
sample of about ``_MAX_OBJECTIVE_SAMPLES`` fixed voxels or fewer (4,096 at the
finest level of a 96x96x12 or 48^3 grid), a few thousand being enough for a
linear registration objective (Klein et al. 2007, *IEEE TIP* 16(12)).
Scoring a candidate keeps its positions and their trilinear plan, and the
gradient at that candidate samples the moving image's gradient images through
the same plan.  The result never scores worse at full resolution than the
stage's fallback (the identity for rigid, the initial transform for affine).
Each stage passes its full-resolution sample on to the next as a ``_Stage``;
a public stage function samples its own ``init``.  Images are sampled in
their own precision, float32, and the NCC sums over a sample are float64.
The identity on the fixed image's own grid needs no sampling: its sample is
the moving image's voxels.
The deformable stage is demons-style: on each pyramid level it moves a dense
displacement field along the fixed-image gradient, scaled by the intensity
difference, smooths the field with a Gaussian, and ends the level at the
first such update that does not improve the NCC.  Its level images,
gradients, update and field are float32 (half the memory traffic of float64
in the smoothing, the stage's largest cost), both level images scaled by one
power of two so that every float32 square stays in range and the update does
not depend on the intensity scale; the NCC sums stay float64.  The output
folds the affine initialization into one total ``DisplacementField``.  Each
pyramid level is the finer level's cached ``ScalarVolume.half``: the target's
pyramid is built once per frame and each template's once per series; only
the deformable stage's affine-resampled moving image gets a fresh pyramid.
What every registration to one target reads of it (its full-resolution NCC
statistics and its demons levels, ``_Target``) is built once, and
``propagate_frame`` shares it between the ES and the ED template.

Conventions:

* ``AffineTransform`` maps fixed-image physical points (mm) to moving-image
  physical points: ``p_moving = matrix @ p_fixed + translation``.
* ``DisplacementField`` lives on the fixed grid; ``vectors[:, i, j, k]`` is
  the mm offset added to voxel ``(i, j, k)``'s position before sampling the
  moving image (pull-back convention).  Every field, inside the stages and
  out, is channel-major: ``(3, nx, ny, nz)``.
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
    _cells,
    _Plan,
    _trilinear,
    _trilinear_apply,
    _trilinear_plan,
    gaussian_smooth_array,
    nearest_sample_many,
    trilinear_sample_many,
)

_STEP_SIZE = 0.5  # rigid/affine: largest step per iteration, in parameter units (voxels, degrees)
_DEMONS_SIGMA_VOX = 1.5  # Gaussian smoothing of each demons candidate field, in voxels
_MIN_STEP_FRACTION = 1 / 32  # line search gives up below this fraction of its largest step
_CONVERGENCE_WINDOW = 5  # iterations over which relative improvement is measured
_CONVERGENCE_TOL = 1e-4  # converged once a window improves by less than this, relative
_MAX_OBJECTIVE_SAMPLES = 12_000  # rigid/affine objectives subsample above this


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
    """Per-voxel mm displacements on the fixed grid, channel-major: ``vectors`` is ``(3, nx, ny, nz)``."""

    vectors: np.ndarray
    spacing: tuple[float, float, float]

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 4 or v.shape[0] != 3:
            raise InvalidParameterError(f"field must have shape (3, nx, ny, nz), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError("field contains non-finite components")
        v = np.ascontiguousarray(v)
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.vectors.shape[1:]

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


class _Centred(NamedTuple):
    """One side of an NCC: a sample's flat float64 deviations from its mean, and their sum of squares.

    The sample is cast to float64 first: a float32 square overflows above about 1.8e19.
    """

    ac: np.ndarray
    va: float


def _centred(sample) -> _Centred:
    a = np.asarray(sample, dtype=np.float64).ravel()
    ac = a - a.mean()
    return _Centred(ac, float(np.sum(ac * ac)))


def _ncc(fixed: _Centred, warped: _Centred) -> float:
    """The negative normalized cross-correlation of two ``_centred`` samples in [-1, 1], 0 if either is constant.

    Sums are numpy's pairwise ``np.sum``, not BLAS dot products, so they run
    on the calling thread and round the same way every time.
    """
    if fixed.va == 0.0 or warped.va == 0.0:
        return 0.0
    return -float(np.sum(fixed.ac * warped.ac)) / math.sqrt(fixed.va * warped.va)


def _d_ncc(fixed: _Centred, warped: _Centred) -> np.ndarray:
    """``_ncc``'s gradient with respect to each sample of ``warped``, from the statistics scoring computed."""
    if fixed.va == 0.0 or warped.va == 0.0:
        return np.zeros_like(warped.ac)  # the score is the constant 0 here
    scale = float(np.sum(fixed.ac * warped.ac)) / warped.va
    return (-fixed.ac + scale * warped.ac) / math.sqrt(fixed.va * warped.va)


def _grid_axes(dims, spacing, stride: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, y, z coordinates of every ``stride``-th voxel center at ``spacing``, as broadcastable axes."""
    axes = [np.arange(0, n, stride, dtype=np.float64) * s for n, s in zip(dims, spacing)]
    return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))


def _affine_positions(transform: AffineTransform, grid, spacing) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat voxel-unit positions, in an image of ``spacing``, of the affine images of fixed-grid mm points."""
    points = _affine_columns(transform.matrix, transform.translation, *grid)
    return tuple((p / s).ravel() for p, s in zip(points, spacing))


def _sample_affine(moving: ScalarVolume, transform: AffineTransform, grid) -> np.ndarray:
    """Moving intensities (float32) at the affine images of fixed-grid mm points, flat in C-index order."""
    return trilinear_sample_many(moving, *_affine_positions(transform, grid, moving.spacing))


def _composed_field(transform: AffineTransform, u, dims, spacing) -> DisplacementField:
    """The field of ``transform`` applied after the mm offsets ``u``: ``A(v + u(v)) + b - v`` at each grid point v."""
    grid = _grid_axes(dims, spacing)
    moved = _affine_columns(transform.matrix, transform.translation, *(g + u[c] for c, g in enumerate(grid)))
    return DisplacementField(np.stack([p - g for p, g in zip(moved, grid)]), tuple(spacing))


def affine_to_field(transform: AffineTransform, dims, spacing) -> DisplacementField:
    """The displacement field realizing an affine on a given fixed grid."""
    return _composed_field(transform, np.zeros(3), dims, spacing)


def _warp_positions(u, spacing) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat voxel-unit sample positions: every voxel of the grid moved by its mm offset.

    ``u`` holds the three offset components of a ``(3, nx, ny, nz)`` field;
    ``spacing`` is the sampled image's, which converts the offsets to voxels.
    """
    grid = _grid_axes(u[0].shape, (1.0, 1.0, 1.0))
    return tuple((g + u[c] / spacing[c]).ravel() for c, g in enumerate(grid))


def warp_image(moving: ScalarVolume, field: DisplacementField) -> ScalarVolume:
    """Sample the moving image at each fixed-grid point offset by the field."""
    vals = trilinear_sample_many(moving, *_warp_positions(field.vectors, moving.spacing))
    return ScalarVolume(vals.reshape(field.dims), field.spacing)


def warp_label(moving: LabelMap, field: DisplacementField) -> LabelMap:
    """As warp_image but with nearest-neighbor lookup, so class codes never blend."""
    labels = nearest_sample_many(moving, *_warp_positions(field.vectors, moving.spacing))
    return LabelMap(labels.reshape(field.dims), field.spacing)


def _warp_data(moving_data: np.ndarray, u: np.ndarray, spacing) -> np.ndarray:
    """warp_image on a raw moving array and a channel-major ``(3, nx, ny, nz)`` field, in the moving array's dtype."""
    return _trilinear(moving_data, *_warp_positions(u, spacing)).reshape(u.shape[1:])


def _check_pair(fixed: ScalarVolume, moving: ScalarVolume) -> None:
    if not np.allclose(fixed.spacing, moving.spacing):
        raise InvalidParameterError(f"spacing mismatch: {fixed.spacing} vs {moving.spacing}")
    if fixed.is_constant():
        raise DegenerateInputError("fixed image is constant; no gradient signal")
    if moving.is_constant():
        raise DegenerateInputError("moving image is constant; no gradient signal")


def _pyramid(vol: ScalarVolume, params: RegistrationParams) -> list[ScalarVolume]:
    """Coarse-to-fine cached halves of ``vol``, at most ``params.pyramid_levels``, stopping when too small to halve."""
    pyramid = [vol]
    while len(pyramid) < params.pyramid_levels and max(pyramid[-1].dims) >= 4:
        pyramid.append(pyramid[-1].half)
    return pyramid[::-1]


def _pyramid_levels(fixed: ScalarVolume, moving: ScalarVolume, params: RegistrationParams) -> list:
    """Coarse-to-fine (fixed, moving, iterations) levels of the two ``_pyramid``s."""
    pyramids = [_pyramid(fixed, params), _pyramid(moving, params)]
    return list(zip(*pyramids, params.iterations_per_level[-len(pyramids[0]) :]))


def _line_search(objective, theta, direction, f_cur: float, lam: float, slope: float):
    """The first ``theta + lam * direction`` that scores below ``f_cur``, backtracking after each that does not.

    ``objective(theta)`` returns ``(score, record)`` (see ``_descend``).

    ``slope`` is the objective's derivative per unit ``lam`` along
    ``direction``.  After a rejected candidate scoring ``f_cand``, the next
    ``lam`` is the minimizer of the quadratic through ``f_cur``, ``slope`` and
    ``f_cand``, but at least 0.1 of the rejected ``lam`` (safeguarded
    quadratic backtracking, Nocedal & Wright, *Numerical Optimization*, 2nd
    ed., section 3.5).  It is at most half of the rejected ``lam``, because
    ``f_cand`` is no lower than ``f_cur``.  Where that quadratic has no
    minimizer ahead (an infinite ``f_cand`` from a singular candidate, or a
    direction that does not descend) ``lam`` is halved.  Returns
    ``(theta, score, record, next_lam)``, the next step being the accepted
    one grown by 1.5 up to ``_STEP_SIZE``; or None once ``lam`` falls below
    ``_MIN_STEP_FRACTION * _STEP_SIZE``, a 64th of a voxel or degree.
    """
    while lam >= _MIN_STEP_FRACTION * _STEP_SIZE:
        moved = theta + lam * direction
        f_cand, record = objective(moved)
        if f_cand < f_cur:
            return moved, f_cand, record, min(lam * 1.5, _STEP_SIZE)
        curv = f_cand - f_cur - slope * lam
        if slope < 0.0 and curv > 0.0 and math.isfinite(f_cand):
            lam = max(-slope * lam * lam / (2.0 * curv), 0.1 * lam)
        else:
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
    """Descent over unit-normalized parameters with quadratic backtracking on non-improvement.

    ``objective(theta)`` returns ``(score, record)``, and
    ``gradient(theta, record)`` is the objective's gradient with respect to
    theta, given the record of the same theta, so it can reuse what scoring
    it computed.  The descent holds the record of its current theta: from
    the start or from the last accepted search.  The gradient is called once
    per iteration, and ``objective`` only at the start and in the line
    search.  Search directions are conjugate-gradient
    (Polak-Ribiere) combinations of the gradients per parameter unit, which
    follow the curved valleys that couple rotation/scale with translation far
    better than raw steepest descent.  The gradient also gives the
    directional derivative from which ``_line_search`` interpolates each
    backtracking step (Nocedal & Wright, *Numerical Optimization*, 2nd ed.,
    section 3.5): the minimizer of a quadratic model, 0.1-0.5 of the rejected
    step, or half of it where the model has no minimizer ahead.  A search
    gives up below a 64th of a voxel or degree.  A failed conjugate-gradient
    search restarts from the plain gradient direction at a quarter of the
    largest step; a failed plain-gradient search ends the descent.  Returns
    (theta, trace); trace holds the accepted objective values and is
    non-increasing by construction.
    """
    theta = np.asarray(theta0, dtype=np.float64).copy()
    units = np.asarray(units, dtype=np.float64)
    f_cur, record = objective(theta)
    trace = [f_cur]
    lam = _STEP_SIZE
    g_prev = None
    d_prev = None
    window = [f_cur]
    for _ in range(iterations):
        grad_units = gradient(theta, record) * units  # change per unit step of each parameter
        if g_prev is not None:
            beta = max(0.0, float(grad_units @ (grad_units - g_prev)) / float(g_prev @ g_prev))
            d = -grad_units + beta * d_prev
        else:
            d = -grad_units
        norm = float(np.linalg.norm(d))
        if norm == 0.0:
            break
        direction = (d / norm) * units
        step = _line_search(objective, theta, direction, f_cur, lam, float(grad_units @ d) / norm)
        if step is None:
            if d_prev is None:
                break  # even the steepest direction fails: converged
            g_prev = d_prev = None  # restart from the plain gradient, at the same theta and record
            lam = 0.25 * _STEP_SIZE
            continue
        theta, f_cur, record, lam = step
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


def _gradient_images(data: np.ndarray, spacing=(1.0, 1.0, 1.0)) -> np.ndarray:
    """``data``'s central-difference gradient per unit of ``spacing`` (voxels), channel-major: ``(3, nx, ny, nz)``.

    The gradient along an axis of length 1 is zero.
    """
    axes = enumerate(zip(data.shape, spacing))
    return np.stack([np.gradient(data, s, axis=a) if n > 1 else np.zeros_like(data) for a, (n, s) in axes])


class _Candidate(NamedTuple):
    """What a level objective computed to score one theta, kept for the gradient at that theta.

    ``positions`` are the flat voxel-unit sample positions in the moving
    level, ``plan`` the ``_Plan`` that samples them, and ``sample`` the
    ``_centred`` moving level's values there, read by the score and the gradient.
    """

    positions: tuple
    plan: _Plan
    sample: _Centred


def _level_objective(fixed_level: ScalarVolume, moving_level: ScalarVolume, to_transform, jacobian):
    """``(objective, gradient)`` over a deterministic sample of the fixed grid.

    Above _MAX_OBJECTIVE_SAMPLES voxels the grid is strided by the smallest
    whole stride that brings the sample to about that count or below: on
    96x96x12 and 48^3 grids the finest level strides 3 (4,096 points) and
    the next strides 2 (1,728 points).  This keeps one evaluation cheap
    without giving up determinism.  ``jacobian(theta)`` is the 12xP
    derivative of ``to_transform(theta)``'s (row-major matrix entries,
    translation) with respect to theta.

    ``objective(theta)`` returns ``(score, candidate)``: the score and a
    ``_Candidate`` holding the positions, their trilinear plan and the
    centred value sample, or ``(inf, None)`` for a singular transform.  The
    positions come from a finite transform, so they skip
    ``trilinear_sample_many``'s finite check.  ``gradient(theta, candidate)`` samples the moving image's three
    gradient images through the candidate's plan, so it works out no
    position or cell again.  A point clamped along an axis does not move
    with the transform along that axis, so its gradient component there is
    zero.  The sums over the sparse grid are taken per axis: ``sum(v * x)``
    over the grid is ``sum(x * (v summed over y, z))``.
    """
    dims, spacing = fixed_level.dims, fixed_level.spacing
    n_total = dims[0] * dims[1] * dims[2]
    stride = max(1, round(np.cbrt(n_total / _MAX_OBJECTIVE_SAMPLES) + 0.49999))
    grid = _grid_axes(dims, spacing, stride)
    fixed_sample = fixed_level.data[::stride, ::stride, ::stride]
    fixed_ncc = _centred(fixed_sample)
    moving = moving_level.data
    grads = _gradient_images(moving)
    axes = [g.ravel() for g in grid]
    ms, m_dims = moving_level.spacing, moving_level.dims

    def objective(theta):
        try:
            tf = to_transform(theta)
        except InvalidParameterError:
            return math.inf, None  # singular candidate: reject, the line search backs off
        pos = _affine_positions(tf, grid, ms)
        plan = _trilinear_plan(m_dims, moving.dtype, *pos)
        sample = _centred(_trilinear_apply(plan, moving))
        return _ncc(fixed_ncc, sample), _Candidate(pos, plan, sample)

    def gradient(theta, candidate: _Candidate) -> np.ndarray:
        pos, samples = candidate.positions, _trilinear_apply(candidate.plan, grads)
        dw = _d_ncc(fixed_ncc, candidate.sample)
        d_affine = np.empty(12)  # d score / d (matrix entries, translation)
        for r in range(3):
            inside = (pos[r] >= 0.0) & (pos[r] <= m_dims[r] - 1.0)
            # d score / d point_r (mm) per sample, on the sample grid
            v = ((dw * samples[r]) * inside).reshape(fixed_sample.shape) / ms[r]
            v_xy = np.sum(v, axis=2)
            d_affine[3 * r] = np.sum(np.sum(v_xy, axis=1) * axes[0])
            d_affine[3 * r + 1] = np.sum(np.sum(v_xy, axis=0) * axes[1])
            d_affine[3 * r + 2] = np.sum(np.sum(v, axis=(0, 1)) * axes[2])
            d_affine[9 + r] = np.sum(v_xy)
        return np.sum(d_affine[:, None] * jacobian(theta), axis=0)

    return objective, gradient


class _Stage(NamedTuple):
    """A stage's transform, the full-grid float32 sample of ``moving`` through it, and that sample's NCC."""

    transform: AffineTransform
    sample: np.ndarray
    score: float


class _DemonsLevel(NamedTuple):
    """One pyramid level of the fixed image as every demons iteration on it reads it.

    ``data`` is the level image times ``scale``, the power of two ``2**-e``
    with ``e`` the ``frexp`` exponent of its largest magnitude, so ``data``
    lies within [-1, 1].  A power of two changes no rounding, keeps every
    float32 square and product of the iterations in range, and makes the
    update's absolute ``1e-12`` floor independent of the intensity scale.
    ``grads`` is ``data``'s central-difference gradient per mm,
    channel-major ``(3, nx, ny, nz)``, and ``g2`` its squared magnitude;
    these three are float32.  ``ncc`` holds ``data``'s float64 NCC
    statistics.
    """

    data: np.ndarray
    spacing: tuple[float, float, float]
    scale: float
    grads: np.ndarray
    g2: np.ndarray
    ncc: _Centred


def _demons_level_data(level: ScalarVolume) -> _DemonsLevel | None:
    """``level`` as the demons reads it; None when an axis is shorter than 2 voxels (no gradient: skip the level)."""
    if min(level.dims) < 2:
        return None
    scale = math.ldexp(1.0, -math.frexp(float(np.max(np.abs(level.data))))[1])
    data = level.data * np.float32(scale)
    grads = _gradient_images(data, level.spacing)
    g2 = grads[0] ** 2 + grads[1] ** 2 + grads[2] ** 2
    return _DemonsLevel(data, level.spacing, scale, grads, g2, _centred(data))


class _Target(NamedTuple):
    """A fixed image and what every registration to it reads of it, built once per frame for both templates.

    ``ncc`` holds the full-resolution image's NCC statistics, against which
    every stage is judged; ``demons`` holds one ``_DemonsLevel`` (or None)
    per pyramid level, coarse to fine.
    """

    volume: ScalarVolume
    ncc: _Centred
    demons: tuple


def _target(fixed: ScalarVolume, params: RegistrationParams) -> _Target:
    return _Target(fixed, _centred(fixed.data), tuple(_demons_level_data(f_l) for f_l in _pyramid(fixed, params)))


def _judge(target: _Target, moving: ScalarVolume, transform: AffineTransform) -> _Stage:
    """Sample ``moving`` through ``transform`` on the full fixed grid and score it against the target.

    The identity on the fixed image's own grid (equal dims and spacing, as
    between the frames of a series) lands on every voxel, so its sample is
    ``moving``'s voxels themselves, with no pass through the kernel.
    """
    fixed = target.volume
    identity = np.array_equal(transform.matrix, np.eye(3)) and not transform.translation.any()
    if identity and fixed.dims == moving.dims and fixed.spacing == moving.spacing:
        sample = moving.data.ravel()
    else:
        sample = _sample_affine(moving, transform, _grid_axes(fixed.dims, fixed.spacing))
    return _Stage(transform, sample, _ncc(target.ncc, _centred(sample)))


def _register_linear(target, moving, params, theta, to_transform, jacobian, level_units, fallback: _Stage) -> _Stage:
    """Coarse-to-fine descent of ``theta``, shared by the rigid and affine stages.

    ``to_transform(theta)`` builds the candidate transform, ``jacobian(theta)``
    its derivative (see ``_level_objective``), and ``level_units(spacing)``
    gives the parameter units of one pyramid level.  Returns ``fallback``
    itself when the result scores worse at full resolution.
    """
    for f_l, m_l, n_iter in _pyramid_levels(target.volume, moving, params):
        obj, grad = _level_objective(f_l, m_l, to_transform, jacobian)
        units = level_units(f_l.spacing)
        theta, _ = _descend(obj, grad, theta, units, n_iter)
    result = _judge(target, moving, to_transform(theta))
    return fallback if result.score > fallback.score else result


def _rigid(target: _Target, moving: ScalarVolume, params: RegistrationParams) -> _Stage:
    center = _center_mm(target.volume)
    deg = math.pi / 180.0
    return _register_linear(
        target,
        moving,
        params,
        np.zeros(6),
        lambda th: _pose_to_transform(th, center),
        lambda th: _pose_jacobian(th, center),
        lambda spacing: np.array([deg, deg, deg, *spacing]),
        _judge(target, moving, AffineTransform.identity()),
    )


def _affine(target: _Target, moving: ScalarVolume, init: _Stage, params: RegistrationParams) -> _Stage:
    center = _center_mm(target.volume)
    half_diag = float(np.linalg.norm(center)) or 1.0
    jacobian = _affine_params_jacobian(center)
    return _register_linear(
        target,
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
    return _rigid(_target(fixed, params), moving, params).transform


def register_affine(
    fixed: ScalarVolume, moving: ScalarVolume, init: AffineTransform, params: RegistrationParams
) -> AffineTransform:
    """12-DOF refinement of an initial transform; where the refinement scores worse, ``init`` itself is returned."""
    _check_pair(fixed, moving)
    target = _target(fixed, params)
    return _affine(target, moving, _judge(target, moving, init), params).transform


def _upsample_field(u: np.ndarray, new_dims) -> np.ndarray:
    """Resample a channel-major ``(3, nx, ny, nz)`` mm field onto a finer grid (fine = coarse*2), in its dtype.

    Fine index i samples coarse position i/2 (clamped), trilinearly, as
    ``_trilinear`` at the raveled dense grid of those positions does and bit
    for bit: three separable lerp passes, along x, then y, then z, with the
    kernel's cells and fractions and its lerp ``a + f * (b - a)``.  The
    kernel lerps x first, then y, then z, so each output sees the same
    operations in the same order, and no point is gathered 8 times.
    """
    for axis, n_fine in enumerate(new_dims, start=1):
        n = u.shape[axis]
        cell, frac = _cells(np.arange(n_fine, dtype=np.float64) * 0.5, n)
        lo = cell.astype(np.intp)
        lower, upper = np.take(u, lo, axis=axis), np.take(u, lo + 1 if n > 1 else lo, axis=axis)
        upper -= lower
        upper *= frac.astype(u.dtype).reshape([-1 if a == axis else 1 for a in range(u.ndim)])
        u = np.add(lower, upper, out=lower)
    return u


def _demons_level(fixed_level: _DemonsLevel, moving_level: ScalarVolume, u: np.ndarray, n_iter: int) -> np.ndarray:
    """Iterate intensity-difference updates on one pyramid level; ``u`` is a channel-major float32 field.

    ``fixed_level`` is the target's level, shared by both templates; the
    moving level is scaled by the same power of two.  Each candidate is
    ``u`` plus the full update, smoothed and warped; the level ends at the
    first one that does not improve the NCC.  The images, gradients,
    update, field and warp are float32; the NCC sums are float64.
    """
    fdata, spacing = fixed_level.data, fixed_level.spacing
    mdata = moving_level.data * np.float32(fixed_level.scale)
    mean_sq_spacing = float(np.mean(np.square(spacing)))
    # the warp of the accepted field is carried into the next iteration, so no field is warped twice
    warped = _warp_data(mdata, u, spacing)
    f_cur = _ncc(fixed_level.ncc, _centred(warped))
    window = [f_cur]
    for _ in range(n_iter):
        diff = warped - fdata
        denom = fixed_level.g2 + diff * diff / mean_sq_spacing
        scale = np.where(denom > 1e-12, -diff / np.maximum(denom, 1e-12), 0.0)
        field = u + scale * fixed_level.grads
        for c in range(3):
            field[c] = gaussian_smooth_array(field[c], _DEMONS_SIGMA_VOX)
        warped_field = _warp_data(mdata, field, spacing)
        f_field = _ncc(fixed_level.ncc, _centred(warped_field))
        if f_field >= f_cur:
            break
        u, warped, f_cur = field, warped_field, f_field
        if _converged(window, f_cur):
            break
    return u


def _deformable(target: _Target, moving: ScalarVolume, init: _Stage, params: RegistrationParams) -> DisplacementField:
    """``register_deformable`` from a judged ``init``: its sample is the affine-resampled moving image."""
    fixed, affine = target.volume, init.transform
    moving_affine = ScalarVolume(init.sample.reshape(fixed.dims), fixed.spacing)
    u: np.ndarray | None = None
    for level, (_, m_l, n_iter) in zip(target.demons, _pyramid_levels(fixed, moving_affine, params)):
        u = np.zeros((3, *m_l.dims), np.float32) if u is None else _upsample_field(u, m_l.dims)
        if level is not None:
            u = _demons_level(level, m_l, u, n_iter)

    total_field = _composed_field(affine, u, fixed.dims, fixed.spacing)
    if _ncc(target.ncc, _centred(warp_image(moving, total_field).data)) > init.score:
        return affine_to_field(affine, fixed.dims, fixed.spacing)  # the affine's own sample scored better
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
    target = _target(fixed, params)
    return _deformable(target, moving, _judge(target, moving, init), params)


def _register_stages(target: _Target, moving: ScalarVolume, params: RegistrationParams) -> DisplacementField:
    """``register_rigid``, ``register_affine`` and ``register_deformable`` chained, each stage's sample passed on.

    ``target`` is ``_target(fixed, params)``, which a caller registering
    several templates to one fixed image builds once and shares.
    """
    _check_pair(target.volume, moving)
    rigid = _rigid(target, moving, params)
    return _deformable(target, moving, _affine(target, moving, rigid, params), params)
