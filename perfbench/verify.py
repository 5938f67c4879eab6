"""Output checks for the benchmark, independent of the code under test.

MVOL files are parsed here with ``struct`` and numpy rather than
``cineprop.io``, and every expected value is computed from the inputs the
benchmark wrote: Dice by numpy set counts, Hausdorff from the known whole-voxel
shift, histogram densities by ``np.histogram``, KS statistics by ``ks_oracle``.  A check that fails raises
``CheckError``; callers count it as one failed operation.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MVOL_HEADER = struct.Struct("<4sB3I3f")
KIND_SCALAR, KIND_LABEL = 0, 1
CLASSES = {"LV": 1, "MYO": 2, "RV": 3}
TOLERANCE = 1e-9


class CheckError(Exception):
    """An output is missing, malformed or wrong."""


def read_mvol(path: Path, kind: int) -> tuple[np.ndarray, tuple[float, float, float], bytes]:
    """(array shaped (nx, ny, nz), spacing, raw bytes) of an MVOL file of ``kind``."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckError(f"{path}: unreadable ({exc})") from None
    if len(raw) < MVOL_HEADER.size:
        raise CheckError(f"{path}: shorter than the MVOL header")
    magic, file_kind, nx, ny, nz, sx, sy, sz = MVOL_HEADER.unpack_from(raw)
    if magic != b"MVL1" or file_kind != kind:
        raise CheckError(f"{path}: magic {magic!r} kind {file_kind}, expected kind {kind}")
    dtype = "<f4" if kind == KIND_SCALAR else "u1"
    body = np.frombuffer(raw, dtype=dtype, offset=MVOL_HEADER.size)
    if body.size != nx * ny * nz:
        raise CheckError(f"{path}: payload holds {body.size} voxels, header says {nx * ny * nz}")
    return body.reshape((nx, ny, nz), order="F"), (sx, sy, sz), raw


def read_key_values(path: Path) -> list[tuple[str, str]]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CheckError(f"{path}: unreadable ({exc})") from None
    pairs = []
    for line in text.splitlines():
        if "=" not in line:
            raise CheckError(f"{path}: malformed line {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        pairs.append((key, value))
    return pairs


def dice_by_class(pred: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    out = {}
    for name, code in CLASSES.items():
        p, g = pred == code, truth == code
        total = int(p.sum()) + int(g.sum())
        out[name] = 1.0 if total == 0 else 2.0 * int(np.logical_and(p, g).sum()) / total
    return out


def check_pseudo_label(out_dir: Path, series_dir: Path, t: int, reference: bytes | None) -> tuple[bytes, dict]:
    """Check one propagated frame; returns its bytes and its Dice against the analytic labels."""
    pred, spacing, raw = read_mvol(out_dir / f"pseudo_label_{t:03d}.mvol", KIND_LABEL)
    truth, truth_spacing, _ = read_mvol(series_dir / f"label_{t:03d}.mvol", KIND_LABEL)
    if pred.shape != truth.shape or spacing != truth_spacing:
        raise CheckError(f"frame {t}: grid {pred.shape} {spacing}, expected {truth.shape} {truth_spacing}")
    if pred.max(initial=0) > 3:
        raise CheckError(f"frame {t}: label code {int(pred.max())} outside 0..3")
    if reference is not None and raw != reference:
        raise CheckError(f"frame {t}: pseudo-label bytes differ from the first run")
    return raw, dice_by_class(pred, truth)


def check_propagation_report(path: Path, targets: list[int]) -> list[str]:
    """Chosen template per target, after checking it agrees with the reported norms."""
    frames, chosen, norms = [], [], {}
    for key, value in read_key_values(path):
        if key == "frame":
            frames.append(int(value))
        elif key == "chosen":
            chosen.append(value)
        elif key in ("es_norm_mm", "ed_norm_mm"):
            norms.setdefault(key, []).append(float(value))
    if frames != targets or len(chosen) != len(targets):
        raise CheckError(f"{path}: frames {frames}, expected {targets}")
    for c, es, ed in zip(chosen, norms.get("es_norm_mm", []), norms.get("ed_norm_mm", [])):
        if c != ("ES" if es <= ed else "ED"):
            raise CheckError(f"{path}: chose {c} with es_norm {es} and ed_norm {ed}")
    return chosen


def expected_case(truth: np.ndarray, pred: np.ndarray, spacing, axis: int, k: int) -> dict[str, tuple]:
    """(dice, hausdorff_mm, voxels) per class for a prediction shifted by ``k`` voxels.

    Every voxel of P lies k*spacing from its copy in G, and the extreme voxel
    of P along the shift has no G voxel nearer, so the Hausdorff distance is
    exactly ``k * spacing[axis]``.
    """
    dice = dice_by_class(pred, truth)
    return {
        name: (dice[name], k * float(spacing[axis]), int((truth == code).sum()))
        for name, code in CLASSES.items()
    }


def check_evaluation(report: Path, pred_dir: Path, gt_dir: Path, shifts) -> int:
    """Check evaluate's report against the known shifts; returns the number of cases."""
    pairs = read_key_values(report)
    values = dict(pairs)
    cases = [v for k, v in pairs if k == "case"]
    if int(values.get("cases", -1)) != len(shifts) or len(cases) != len(shifts):
        raise CheckError(f"{report}: {len(cases)} cases, expected {len(shifts)}")
    per_case: dict[str, dict[str, str]] = {}
    current = None
    for key, value in pairs:
        if key == "case":
            current = per_case.setdefault(value, {})
        elif current is not None:
            current[key] = value
    for c, (axis, k) in enumerate(shifts):
        name = f"case_{c:03d}"
        if name not in per_case:
            raise CheckError(f"{report}: case {name} missing")
        truth, spacing, _ = read_mvol(gt_dir / f"{name}.mvol", KIND_LABEL)
        pred, _, _ = read_mvol(pred_dir / f"{name}.mvol", KIND_LABEL)
        for cls, (dice, hd, voxels) in expected_case(truth, pred, spacing, axis, k).items():
            got = per_case[name]
            try:
                got_dice = float(got[f"{cls}.dice"])
                got_hd = float(got[f"{cls}.hausdorff_mm"])
                got_voxels = int(got[f"{cls}.gt_voxels"])
            except (KeyError, ValueError) as exc:
                raise CheckError(f"{report}: {name} {cls} malformed ({exc})") from None
            if abs(got_dice - dice) > TOLERANCE or abs(got_hd - hd) > TOLERANCE or got_voxels != voxels:
                raise CheckError(
                    f"{report}: {name} {cls} dice {got_dice} hd {got_hd} voxels {got_voxels}, "
                    f"expected {dice} {hd} {voxels}"
                )
    return len(shifts)


def check_monotone(source: np.ndarray, matched: np.ndarray, what: str) -> None:
    """``matched`` must be a non-decreasing function of ``source``, voxel by voxel."""
    if source.shape != matched.shape:
        raise CheckError(f"{what}: shape {matched.shape}, expected {source.shape}")
    order = np.argsort(source, axis=None)
    src = source.ravel()[order]
    out = matched.ravel()[order]
    step = np.diff(out)
    if np.any(step < 0):
        raise CheckError(f"{what}: harmonized values reverse the input order")
    if np.any(step[np.diff(src) == 0] != 0):
        raise CheckError(f"{what}: equal inputs map to different values")


def check_histogram_report(path: Path, pools: dict[str, np.ndarray], bins: int, expected_ks: float) -> None:
    """Check densities against ``np.histogram`` of the pooled inputs, and the one KS line.

    ``expected_ks`` is ``ks_oracle`` of the two pools; the caller computes it
    once, since the pools are the same in every round.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise CheckError(f"{path}: unreadable ({exc})") from None
    lo = min(float(p.min()) for p in pools.values())
    hi = max(float(p.max()) for p in pools.values())
    edges = np.linspace(lo, hi, bins + 1)
    dens = {tag: [] for tag in pools}
    ks = []
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "hist" and len(parts) == 6 and parts[1] in dens:
            dens[parts[1]].append(float(parts[5]))
        elif parts and parts[0] == "ks" and len(parts) == 4:
            ks.append(float(parts[3]))
    for tag, values in pools.items():
        expected = np.histogram(values, bins=edges)[0] / values.size
        if len(dens[tag]) != bins or np.max(np.abs(np.asarray(dens[tag]) - expected)) > TOLERANCE:
            raise CheckError(f"{path}: densities of {tag} differ from the pooled inputs")
    if len(ks) != 1 or abs(ks[0] - expected_ks) > TOLERANCE:
        raise CheckError(f"{path}: KS statistics {ks}, expected one of {expected_ks}")


def ks_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS statistic by a merged walk with exact integer counts.

    Walking the pooled values in order, each value of ``a`` adds ``len(b)`` and
    each of ``b`` subtracts ``len(a)``, so the running sum is
    ``len(a) * len(b) * (F_a - F_b)``.  The empirical CDFs are right-continuous,
    so the supremum is reached at the end of a group of equal values.
    """
    a, b = np.ravel(a), np.ravel(b)
    values = np.concatenate([a, b])
    steps = np.concatenate([np.full(a.size, b.size, dtype=np.int64), np.full(b.size, -a.size, dtype=np.int64)])
    order = np.argsort(values)
    walk = np.cumsum(steps[order])
    ordered = values[order]
    group_end = np.append(ordered[1:] != ordered[:-1], True)
    return float(np.abs(walk[group_end]).max()) / (a.size * b.size)
