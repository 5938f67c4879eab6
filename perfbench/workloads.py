"""The three benchmark workloads: their inputs, CLI commands and output checks.

Each workload runs in *rounds*.  A round runs the workload's CLI commands
once, each in its own process, then checks every output.  Timings cover the
child processes only (interpreter start included); checks and the KS gap are
computed outside them.

* ``cine-iso48`` — ``propagate --workers 1 --iters 5,5,5`` on one 48^3 phantom
  series (one target frame), BLAS pinned to one thread.  Registration and the
  ``volume`` kernels do the work; ``metrics`` and ``style`` do none.  The
  1-worker control for pool changes.  With the default iteration caps, work
  depended on the noise: one seed's rounds took 6.1 s, another's 9.7 s.
* ``cine-thick-w2`` — ``propagate --workers 2 --iters 5,5,5`` on one 96x96x12,
  1.5x1.5x8 mm series with two target frames, under the inherited BLAS
  environment.  The pyramid collapses to 3 slices, the linear-stage objectives
  stride their samples, and the two frames contend on the thread pool.  With
  the default iteration caps, convergence depends on the noise, and per-frame
  work varied from 3.4k to 5.0k sampler calls between seeds; the wall time of
  a two-frame run follows its slower frame.  Five iterations per level fix the
  work (1.27k-1.32k calls, same Dice), so this workload measures contention,
  not luck.
* ``clinical-post`` — ``evaluate`` on two 256x256x12 prediction/ground-truth
  pairs, ``transfer`` of six vendor-A volumes to vendor B, ``report`` on both
  vendors.  ``metrics``, ``style`` and ``io`` do the work; registration none.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import synth
import verify


@dataclass
class RoundResult:
    """What one round attempted, what failed, and its named values (name -> (value, unit))."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    values: dict[str, tuple[float, str]] = field(default_factory=dict)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)


class Workload:
    name = ""
    workers = 1
    pin_blas = False  # run the children with OMP/OPENBLAS/MKL_NUM_THREADS=1
    extra_args: tuple[str, ...] = ()

    def __init__(self):
        self.first: dict[str, bytes] = {}  # output bytes of the first round, by relative path

    def setup(self, root: Path, seed: int) -> None:
        raise NotImplementedError

    def commands(self, out: Path) -> list[tuple[str, list[str]]]:
        """(stage, CLI argv) pairs, run in order."""
        raise NotImplementedError

    def check(self, out: Path, walls: dict[str, float], codes: dict[str, int]) -> RoundResult:
        raise NotImplementedError

    def same_as_first(self, key: str, raw: bytes) -> None:
        """Outputs are seeded, so every round must reproduce the first one's bytes."""
        if self.first.setdefault(key, raw) != raw:
            raise verify.CheckError(f"{key}: bytes differ from the first run")


class CineWorkload(Workload):
    """``propagate`` on each series; one operation per propagated frame."""

    def setup(self, root: Path, seed: int) -> None:
        self.manifests = self.write_inputs(root, seed)

    def commands(self, out: Path) -> list[tuple[str, list[str]]]:
        return [
            (f"propagate{s}", ["propagate", "--manifest", str(m), "--out", str(out / f"series_{s}"),
                               "--workers", str(self.workers), *self.extra_args])
            for s, m in enumerate(self.manifests)
        ]

    def targets(self) -> list[int]:
        return list(range(1, self.frames - 1))

    def check(self, out: Path, walls: dict[str, float], codes: dict[str, int]) -> RoundResult:
        result = RoundResult()
        dice = {name: [] for name in verify.CLASSES}
        chosen = []
        targets = self.targets()
        for s, manifest in enumerate(self.manifests):
            result.attempted += len(targets)
            series_out = out / f"series_{s}"
            if codes[f"propagate{s}"] != 0:
                result.fail(len(targets), f"series {s}: propagate exited {codes[f'propagate{s}']}")
                continue
            try:
                report = series_out / "propagation_report.txt"
                chosen += verify.check_propagation_report(report, targets)
                self.same_as_first(f"series_{s}/report", report.read_bytes())
            except verify.CheckError as exc:
                result.fail(len(targets), str(exc))
                continue
            for t in targets:
                key = f"series_{s}/pseudo_label_{t:03d}"
                try:
                    raw, scores = verify.check_pseudo_label(series_out, manifest.parent, t, self.first.get(key))
                except verify.CheckError as exc:
                    result.fail(1, f"series {s}: {exc}")
                    continue
                self.first.setdefault(key, raw)
                for name, value in scores.items():
                    dice[name].append(value)
        wall = sum(walls.values())
        frame_s = statistics.median(w / len(targets) for w in walls.values())
        mean_dice = {name: statistics.fmean(v) if v else 0.0 for name, v in dice.items()}
        result.values = {
            "wall_s": (wall, "s"),
            "frame_s": (frame_s, "s"),
            "op_s": (frame_s, "s"),
            "dice_lv": (mean_dice["LV"], "1"),
            "dice_myo": (mean_dice["MYO"], "1"),
            "dice_rv": (mean_dice["RV"], "1"),
            "accuracy": (statistics.fmean(mean_dice.values()), "1"),
            "es_chosen_frac": (chosen.count("ES") / len(chosen) if chosen else 0.0, "1"),
        }
        return result


class Iso48(CineWorkload):
    name = "cine-iso48"
    workers = 1
    # With one worker, BLAS threads do not shorten a frame but spin on the second CPU, doubling the
    # CPU time and exposing the run to load on both CPUs.  BLAS threading is cine-thick-w2's subject.
    pin_blas = True
    extra_args = ("--iters", "5,5,5")
    frames = synth.ISO48_FRAMES
    write_inputs = staticmethod(synth.write_iso48)


class ThickW2(CineWorkload):
    name = "cine-thick-w2"
    workers = 2
    extra_args = ("--iters", "5,5,5")
    frames = synth.THICK_FRAMES
    write_inputs = staticmethod(synth.write_thick)


class ClinicalPost(Workload):
    """``evaluate`` + ``transfer`` + ``report``; operations are cases, volumes and the report."""

    name = "clinical-post"
    bins = 64

    def __init__(self):
        super().__init__()
        # set-up rewrites identical bytes (run.py checks), so what is read from the inputs stays valid
        self.ks_gap = None
        self.frames: dict[str, list[np.ndarray]] = {}
        self.pools: dict[str, np.ndarray] = {}
        self.pool_ks = 0.0

    def setup(self, root: Path, seed: int) -> None:
        self.inputs = synth.write_clinical(root, seed)

    def commands(self, out: Path) -> list[tuple[str, list[str]]]:
        m = self.inputs.manifests
        both = ["--manifest", str(m["A"]), "--manifest", str(m["B"])]
        return [
            ("evaluate", ["evaluate", "--pred", str(self.inputs.pred_dir), "--gt", str(self.inputs.gt_dir),
                          "--out", str(out / "evaluate")]),
            # a fixed transfer seed keeps the reference slices, and so ks_gap, the same for every input seed
            ("transfer", ["transfer", *both, "--from-vendor", "A", "--to-vendor", "B",
                          "--out", str(out / "transfer"), "--seed", "0"]),
            ("report", ["report", *both, "--bins", str(self.bins), "--out", str(out / "report")]),
        ]

    def vendor_frames(self, vendor: str) -> list[np.ndarray]:
        """The vendor's input volumes, read once (outside any timed region)."""
        if vendor not in self.frames:
            series = self.inputs.manifests[vendor].parent
            self.frames[vendor] = [verify.read_mvol(series / f"frame_{t:03d}.mvol", verify.KIND_SCALAR)[0]
                                   for t in range(synth.CLINICAL_VENDOR_FRAMES)]
        return self.frames[vendor]

    def check(self, out: Path, walls: dict[str, float], codes: dict[str, int]) -> RoundResult:
        result = RoundResult()
        cases, volumes = len(self.inputs.shifts), synth.CLINICAL_VENDOR_FRAMES

        result.attempted += cases
        report = out / "evaluate" / "evaluation_report.txt"
        try:
            if codes["evaluate"] != 0:
                raise verify.CheckError(f"evaluate exited {codes['evaluate']}")
            verify.check_evaluation(report, self.inputs.pred_dir, self.inputs.gt_dir, self.inputs.shifts)
            self.same_as_first("evaluation_report", report.read_bytes())
        except verify.CheckError as exc:
            result.fail(cases, str(exc))

        result.attempted += volumes
        sources = self.vendor_frames("A")
        transferred = []
        for t, source in enumerate(sources):
            try:
                if codes["transfer"] != 0:
                    raise verify.CheckError(f"transfer exited {codes['transfer']}")
                path = out / "transfer" / f"transfer_subjA_{t:03d}.mvol"
                matched, _, raw = verify.read_mvol(path, verify.KIND_SCALAR)
                verify.check_monotone(source, matched, path.name)
                self.same_as_first(path.name, raw)
                transferred.append(matched)
            except verify.CheckError as exc:
                result.fail(1, str(exc))

        result.attempted += 1
        if not self.pools:
            self.pools = {v: np.concatenate([f.ravel() for f in self.vendor_frames(v)]).astype(np.float64)
                          for v in "AB"}
            self.pool_ks = verify.ks_oracle(self.pools["A"], self.pools["B"])
        pools = self.pools
        try:
            if codes["report"] != 0:
                raise verify.CheckError(f"report exited {codes['report']}")
            path = out / "report" / "histogram_report.txt"
            verify.check_histogram_report(path, pools, self.bins, self.pool_ks)
            self.same_as_first("histogram_report", path.read_bytes())
        except verify.CheckError as exc:
            result.fail(1, str(exc))

        if self.ks_gap is None and len(transferred) == volumes:
            self.ks_gap = verify.ks_oracle(np.concatenate([v.ravel() for v in transferred]), pools["B"])
        ks_gap = self.ks_gap if self.ks_gap is not None else 1.0
        result.values = {
            "wall_s": (sum(walls.values()), "s"),
            "case_s": (walls["evaluate"] / cases, "s"),
            "op_s": (walls["evaluate"] / cases, "s"),
            "volume_s": ((walls["transfer"] + walls["report"]) / volumes, "s"),
            "ks_gap": (ks_gap, "1"),
            "accuracy": (1.0 - ks_gap, "1"),
        }
        return result


WORKLOADS = {w.name: w for w in (Iso48, ThickW2, ClinicalPost)}
