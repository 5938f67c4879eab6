"""Per-layer metrics computed from the span traces that ``tracing.py`` writes.

A span's self time is its duration minus the part of it that its direct
children cover; children on the span's own thread run one after another, but
frames that a ``--workers`` pool runs are children of ``propagate_series`` on
other threads and overlap, so their intervals are merged first.  Busy times
(``*.s``) add up spans of concurrent frames, so they are CPU-side busy time,
not wall time.  A layer the workload never calls reads zero.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

LAYERS = ("registration", "volume", "propagation", "metrics", "style", "io", "cli")
STAGES = {
    "registration.register_rigid": "rigid",
    "registration.register_affine": "affine",
    "registration.register_deformable": "deformable",
}
SMOOTH = ("volume.gaussian_smooth", "volume.gaussian_smooth_array")


class SpanTable:
    """Spans of several traced processes, keyed (trace index, span id)."""

    def __init__(self, traces: list[dict]):
        self.spans = {}
        self.counts = {}
        self.intervals = {}
        for i, trace in enumerate(traces):
            for sid, name, start, end, parent, _thread in trace["spans"]:
                self.spans[(i, sid)] = (name, end - start, (i, parent) if parent else None)
                self.intervals[(i, sid)] = (start, end)
            for sid, values in trace["counts"].items():
                self.counts[(i, int(sid))] = values

    def named(self, *names: str):
        return [key for key, (name, _, _) in self.spans.items() if name in names]

    def ancestors(self, key):
        parent = self.spans[key][2]
        while parent is not None and parent in self.spans:
            yield parent
            parent = self.spans[parent][2]

    def busy(self, *names: str) -> float:
        """Summed duration of ``names`` spans not nested in another span of ``names``."""
        return sum(
            self.spans[k][1]
            for k in self.named(*names)
            if not any(self.spans[a][0] in names for a in self.ancestors(k))
        )

    def calls(self, *names: str) -> int:
        return len(self.named(*names))

    def count(self, name: str, field: str) -> float:
        return sum(self.counts.get(k, {}).get(field, 0) for k in self.named(name))

    def stage_of(self, key) -> str | None:
        for a in self.ancestors(key):
            if self.spans[a][0] in STAGES:
                return STAGES[self.spans[a][0]]
        return None

    def self_time_by_layer(self) -> dict[str, float]:
        children = defaultdict(list)
        for key, (_, _, parent) in self.spans.items():
            if parent is not None:
                children[parent].append(self.intervals[key])
        out = dict.fromkeys(LAYERS, 0.0)
        for key, (name, duration, _) in self.spans.items():
            out[name.split(".", 1)[0]] += duration - _covered(children[key])
        return out

    def durations(self, name: str) -> list[float]:
        return [self.spans[k][1] for k in self.named(name)]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def parallel_efficiency(table: SpanTable, workers: int) -> float:
    """Summed frame busy time / (workers x series wall time); 0 when nothing propagated."""
    series = table.busy("propagation.propagate_series")
    return table.busy("propagation.propagate_frame") / (workers * series) if series else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(table: SpanTable, workers: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric that the trace alone determines, as name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {}
    frames = table.calls("propagation.propagate_frame")

    sampler_by_stage = defaultdict(int)
    smooth_by_stage = defaultdict(int)
    for key in table.named("volume.trilinear_sample_many"):
        sampler_by_stage[table.stage_of(key)] += 1
    for key in table.named("volume.gaussian_smooth_array"):
        smooth_by_stage[table.stage_of(key)] += 1
    for fn, stage in STAGES.items():
        m[f"registration.{stage}.s"] = (table.busy(fn), "s")
        m[f"registration.{stage}.fallback_frac"] = (_ratio(table.count(fn, "fell_back"), table.calls(fn)), "1")
    for stage in ("rigid", "affine"):
        m[f"registration.{stage}.evals"] = (sampler_by_stage[stage], "count")
    m["registration.deformable.smooth_calls"] = (smooth_by_stage["deformable"], "count")
    m["registration.pyramid.downsample_calls"] = (_ratio(table.calls("volume.downsample2x"), frames), "count/frame")

    tri = "volume.trilinear_sample_many"
    tri_s = table.busy(tri)
    samples = table.count(tri, "samples")
    m["volume.trilinear.calls"] = (table.calls(tri), "count")
    m["volume.trilinear.samples"] = (samples, "count")
    m["volume.trilinear.s"] = (tri_s, "s")
    m["volume.trilinear.samples_per_s"] = (_ratio(samples, tri_s), "1/s")
    m["volume.trilinear.computed_bytes"] = (table.count(tri, "computed_bytes"), "B")
    m["volume.smooth.s"] = (table.busy(*SMOOTH), "s")
    m["volume.downsample.s"] = (table.busy("volume.downsample2x"), "s")
    m["volume.nearest.s"] = (table.busy("volume.nearest_sample_many", "volume.nearest_sample"), "s")

    frame_s = table.durations("propagation.propagate_frame")
    m["propagation.frame.s_p50"] = (statistics.median(frame_s) if frame_s else 0.0, "s")
    m["propagation.frame.s_max"] = (max(frame_s, default=0.0), "s")
    m["propagation.parallel_eff"] = (parallel_efficiency(table, workers), "1")

    m["metrics.hausdorff.calls"] = (table.calls("metrics.hausdorff"), "count")
    m["metrics.hausdorff.s"] = (table.busy("metrics.hausdorff"), "s")
    m["metrics.hausdorff.pairs"] = (table.count("metrics.hausdorff", "pairs"), "count")
    m["metrics.dice.s"] = (table.busy("metrics.dice"), "s")

    m["style.histogram_match.calls"] = (table.calls("style.histogram_match"), "count")
    m["style.histogram_match.s"] = (table.busy("style.histogram_match"), "s")
    m["style.build_reference.s"] = (table.busy("style.build_reference"), "s")
    m["style.ks.s"] = (table.busy("style.ks_statistic"), "s")
    m["style.ks.values"] = (table.count("style.ks_statistic", "values"), "count")
    m["style.histogram_report.s"] = (table.busy("style.histogram_report"), "s")

    for op in ("read", "write"):
        m[f"io.{op}_mvol.s"] = (table.busy(f"io.{op}_mvol"), "s")
        m[f"io.{op}_mvol.bytes"] = (table.count(f"io.{op}_mvol", "bytes"), "B")

    m["cli.run.s"] = (table.busy("cli.run"), "s")
    for layer, seconds in table.self_time_by_layer().items():
        m[f"{layer}.self_s"] = (seconds, "s")
    return m
