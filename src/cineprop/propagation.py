"""Label propagation: register both templates to a target frame, keep the
less-deformed warp, and emit the warped template label as the pseudo-label.

Both the ES and the ED template are pushed through the full three-stage
registration toward each unlabeled frame; the candidate whose total field has
the smaller mean per-voxel displacement magnitude wins (ES wins exact ties).
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidTargetError, SeriesPropagationError
from .registration import (
    DisplacementField,
    RegistrationParams,
    register_affine,
    register_deformable,
    register_rigid,
    warp_label,
)
from .volume import CineSeries, LabelMap


class Template(enum.Enum):
    ES = "ES"
    ED = "ED"


def field_norm(field: DisplacementField) -> float:
    """Mean per-voxel Euclidean displacement magnitude, in mm."""
    v = field.vectors.reshape(-1, 3)
    return float(np.mean(np.sqrt(np.sum(v * v, axis=1))))


@dataclass(frozen=True)
class PropagationResult:
    frame_index: int
    pseudo_label: LabelMap
    chosen_template: Template
    es_norm: float
    ed_norm: float

    def __post_init__(self):
        expected = Template.ES if self.es_norm <= self.ed_norm else Template.ED
        if self.chosen_template is not expected:
            raise InvalidParameterError(
                f"chosen template {self.chosen_template} contradicts norms "
                f"(es={self.es_norm}, ed={self.ed_norm})"
            )


def _register_template(series: CineSeries, template_index: int, target: int, params) -> DisplacementField:
    """Total field of the three-stage registration of one template frame to the target."""
    fixed = series.frames[target]
    moving = series.frames[template_index]
    rigid = register_rigid(fixed, moving, params)
    affine = register_affine(fixed, moving, rigid, params)
    return register_deformable(fixed, moving, affine, params)


def propagate_frame(series: CineSeries, target: int, params: RegistrationParams | None = None) -> PropagationResult:
    """Propagate the template labels to one unlabeled frame.

    Registers both templates to the target, compares the field norms, and
    warps the winning template's label map onto the target grid.
    """
    params = params or RegistrationParams()
    if not 0 <= target < series.n_frames:
        raise InvalidParameterError(f"frame index {target} out of range for {series.n_frames} frames")
    if target in (series.es_index, series.ed_index):
        raise InvalidTargetError(f"frame {target} is a template frame and already has a manual label")

    es_field = _register_template(series, series.es_index, target, params)
    ed_field = _register_template(series, series.ed_index, target, params)
    es_norm, ed_norm = field_norm(es_field), field_norm(ed_field)
    chosen = Template.ES if es_norm <= ed_norm else Template.ED
    label, field = (series.es_label, es_field) if chosen is Template.ES else (series.ed_label, ed_field)
    return PropagationResult(
        frame_index=target,
        pseudo_label=warp_label(label, field),
        chosen_template=chosen,
        es_norm=es_norm,
        ed_norm=ed_norm,
    )


def propagate_series(
    series: CineSeries, params: RegistrationParams | None = None, workers: int = 1
) -> list[PropagationResult]:
    """Propagate to every non-template frame, in frame order.

    Frames are independent and run on a thread pool of ``workers`` threads.
    Per-frame failures are collected and raised together with their indices.
    """
    params = params or RegistrationParams()
    if workers < 1:
        raise InvalidParameterError("workers must be >= 1")
    targets = [t for t in range(series.n_frames) if t not in (series.es_index, series.ed_index)]

    results: dict[int, PropagationResult] = {}
    failures: list[tuple[int, Exception]] = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {t: pool.submit(propagate_frame, series, t, params) for t in targets}
    for t in targets:
        try:
            results[t] = futures[t].result()
        except Exception as exc:  # noqa: BLE001 - aggregated and re-raised below
            failures.append((t, exc))
    if failures:
        raise SeriesPropagationError(failures)
    return [results[t] for t in targets]
