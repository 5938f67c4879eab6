"""Label propagation: register both templates to a target frame, keep the
less-deformed warp, and emit the warped template label as the pseudo-label.

Both the ES and the ED template are pushed through the full three-stage
registration toward each unlabeled frame; the candidate whose total field has
the smaller mean per-voxel displacement magnitude wins (ES wins exact ties).
Frames are independent: with ``workers > 1`` they run in forked worker
processes, each of which inherits the series and returns only its results.
"""

from __future__ import annotations

import enum
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError, InvalidTargetError, SeriesPropagationError
from .registration import DisplacementField, RegistrationParams, _register_stages, warp_label
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
    es_norm: float
    ed_norm: float

    @property
    def chosen_template(self) -> Template:
        """The template whose field has the smaller norm; ES wins exact ties."""
        return Template.ES if self.es_norm <= self.ed_norm else Template.ED


def _register_template(series: CineSeries, template_index: int, target: int, params) -> DisplacementField:
    """Total field of the three-stage registration of one template frame to the target."""
    return _register_stages(series.frames[target], series.frames[template_index], params)


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
    result = PropagationResult(target, None, field_norm(es_field), field_norm(ed_field))  # label set below
    es_chosen = result.chosen_template is Template.ES
    label, field = (series.es_label, es_field) if es_chosen else (series.ed_label, ed_field)
    return replace(result, pseudo_label=warp_label(label, field))


_worker_series: tuple[CineSeries, RegistrationParams] | None = None  # set in each forked worker


def _exit_with_parent(parent_sentinel) -> None:
    from multiprocessing.connection import wait

    wait([parent_sentinel])  # readable once the parent process is gone
    os._exit(1)


def _init_worker(series: CineSeries, params: RegistrationParams) -> None:
    """Keep the (fork-inherited) series for every frame this worker runs; exit when the parent dies."""
    from multiprocessing import parent_process

    global _worker_series
    _worker_series = (series, params)
    threading.Thread(target=_exit_with_parent, args=(parent_process().sentinel,), daemon=True).start()


def _propagate_in_worker(target: int) -> PropagationResult:
    series, params = _worker_series
    return propagate_frame(series, target, params)


def propagate_series(
    series: CineSeries, params: RegistrationParams | None = None, workers: int = 1
) -> list[PropagationResult]:
    """Propagate to every non-template frame, in frame order.

    With one worker, or one frame to propagate, the frames run in this
    process.  Otherwise ``min(workers, frames)`` worker processes are forked;
    each inherits the series without pickling it, builds the template pyramids
    once for all the frames it runs, and sends back only its results, so
    memory is per worker.  Because it forks, a caller that runs threads of its
    own should use ``workers=1`` or call this from a single-threaded process.
    Per-frame failures are collected and raised together with their indices;
    a worker that dies fails every frame still without a result.
    """
    params = params or RegistrationParams()
    if workers < 1:
        raise InvalidParameterError("workers must be >= 1")
    targets = [t for t in range(series.n_frames) if t not in (series.es_index, series.ed_index)]
    processes = min(workers, len(targets))
    if processes <= 1:
        return _collect(targets, lambda t: propagate_frame(series, t, params))
    # imported on this path only: these modules add about 15 ms to every command's start (2-vCPU VM)
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    # fork: the workers inherit the series unpickled, and a pool starts in about 15 ms
    # where spawn or forkserver take 0.2-0.5 s (2-vCPU VM)
    fork = get_context("fork")
    with ProcessPoolExecutor(processes, fork, initializer=_init_worker, initargs=(series, params)) as pool:
        futures = {t: pool.submit(_propagate_in_worker, t) for t in targets}
        return _collect(targets, lambda t: futures[t].result())


def _collect(targets: list[int], outcome) -> list[PropagationResult]:
    """``outcome(t)`` for every target, in order; every failure is raised together with its frame index."""
    results, failures = [], []
    for t in targets:
        try:
            results.append(outcome(t))
        except Exception as exc:  # noqa: BLE001 - aggregated and re-raised below
            failures.append((t, exc))
    if failures:
        raise SeriesPropagationError(failures)
    return results
