"""Tests of the benchmark itself: its checks reject corrupted outputs, its tracing
changes no result, and a second seed gives new noise on the same shapes.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import synth  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from cineprop import cli, io, metrics, registration, style, volume  # noqa: E402
from cineprop.volume import LabelMap, ScalarVolume  # noqa: E402


def _flip_one_voxel(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[verify.MVOL_HEADER.size + 5] ^= 1
    path.write_bytes(bytes(raw))


def test_flipped_pseudo_label_voxel_is_rejected(tmp_path):
    labels = synth.Heart().labels(synth.THICK_DIMS, synth.THICK_SPACING, alpha=0.5)
    io.write_mvol(LabelMap(labels, synth.THICK_SPACING), tmp_path / "label_001.mvol")
    io.write_mvol(LabelMap(labels, synth.THICK_SPACING), tmp_path / "pseudo_label_001.mvol")
    raw, dice = verify.check_pseudo_label(tmp_path, tmp_path, 1, None)
    assert dice == {"LV": 1.0, "MYO": 1.0, "RV": 1.0}
    assert verify.check_pseudo_label(tmp_path, tmp_path, 1, raw)[0] == raw

    _flip_one_voxel(tmp_path / "pseudo_label_001.mvol")
    with pytest.raises(verify.CheckError, match="differ from the first run"):
        verify.check_pseudo_label(tmp_path, tmp_path, 1, raw)


def _small_case(tmp_path: Path, axis: int, k: int):
    spacing = (1.25, 1.25, 8.0)
    heart = synth.Heart(lv_inplane_es=5, lv_inplane_ed=6, lv_long_es=9, lv_long_ed=10, myo_mm=3,
                        rv_offset_mm=(-9.0, 1.0, 0.0), rv_inplane=5, rv_long=9)
    gt = heart.labels((32, 32, 5), spacing, alpha=1.0)
    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    io.write_mvol(LabelMap(gt, spacing), gt_dir / "case_000.mvol")
    io.write_mvol(LabelMap(synth.shift_labels(gt, axis, k), spacing), pred_dir / "case_000.mvol")
    return pred_dir, gt_dir


def test_wrong_hausdorff_is_rejected(tmp_path):
    pred_dir, gt_dir = _small_case(tmp_path, axis=1, k=2)
    assert cli.run(["evaluate", "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(tmp_path / "ev")]) == 0
    report = tmp_path / "ev" / "evaluation_report.txt"
    assert verify.check_evaluation(report, pred_dir, gt_dir, [(1, 2)]) == 1
    assert "MYO.hausdorff_mm = 2.5" in report.read_text()

    report.write_text(report.read_text().replace("MYO.hausdorff_mm = 2.5", "MYO.hausdorff_mm = 2.5000001"))
    with pytest.raises(verify.CheckError, match="MYO"):
        verify.check_evaluation(report, pred_dir, gt_dir, [(1, 2)])


def test_non_monotone_harmonized_volume_is_rejected():
    source = np.arange(64, dtype=np.float32).reshape(4, 4, 4)[::-1]
    source[0, 0, 1] = source[0, 0, 0]  # a tie must stay a tie
    matched = 2.0 * source + 5.0
    verify.check_monotone(source, matched, "ok")

    swapped = matched.copy()
    swapped[1, 2, 3], swapped[2, 1, 0] = matched[2, 1, 0], matched[1, 2, 3]
    with pytest.raises(verify.CheckError, match="reverse"):
        verify.check_monotone(source, swapped, "swapped")

    split_tie = matched.copy()
    split_tie[0, 0, 1] += 0.5
    with pytest.raises(verify.CheckError, match="equal inputs"):
        verify.check_monotone(source, split_tie, "split tie")


def test_ks_oracle_matches_the_definition():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 6, size=40).astype(np.float64)  # small integers, so ties within and across samples
    b = rng.integers(2, 9, size=25).astype(np.float64)
    points = np.union1d(a, b)
    by_definition = max(abs(np.mean(a <= x) - np.mean(b <= x)) for x in points)
    assert verify.ks_oracle(a, b) == pytest.approx(by_definition, abs=1e-15)
    assert verify.ks_oracle(a, a) == 0.0
    assert verify.ks_oracle(np.zeros(3), np.ones(4)) == 1.0


def test_wrong_ks_statistic_is_rejected(tmp_path):
    rng = np.random.default_rng(4)
    pools = {"A": rng.normal(0.0, 1.0, 500), "B": rng.normal(0.3, 1.2, 700)}
    volumes = {tag: [ScalarVolume(v.reshape(10, 10, -1).astype(np.float32), (1.0, 1.0, 1.0))]
               for tag, v in pools.items()}
    pools = {tag: vols[0].data.ravel().astype(np.float64) for tag, vols in volumes.items()}
    report = tmp_path / "histogram_report.txt"
    text = style.histogram_report(volumes, bins=8).to_text()
    report.write_text(text)
    expected = verify.ks_oracle(pools["A"], pools["B"])
    verify.check_histogram_report(report, pools, 8, expected)

    ks_line = next(line for line in text.splitlines() if line.startswith("ks "))
    wrong = f"ks A B {float(ks_line.split()[3]) + 1e-6!r}"
    report.write_text(text.replace(ks_line, wrong))
    with pytest.raises(verify.CheckError, match="KS"):
        verify.check_histogram_report(report, pools, 8, expected)


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    patched = tracing.install(t)
    try:
        yield t
    finally:
        for mod, attr, original in patched:
            setattr(mod, attr, original)


def test_wrapper_returns_the_wrapped_functions_result():
    sentinel = object()
    t = tracing.Tracer()
    assert t.wrap("x.f", lambda: sentinel)() is sentinel
    assert [s[1] for s in t.spans] == ["x.f"]


def test_traced_functions_return_identical_results(tracer):
    rng = np.random.default_rng(1)
    fixed = ScalarVolume(rng.normal(100, 10, size=(12, 12, 12)).astype(np.float32))
    moving = ScalarVolume(np.roll(fixed.data, 1, axis=0))
    params = registration.RegistrationParams(pyramid_levels=2, iterations_per_level=(3, 2))
    pts = [rng.uniform(0, 11, size=50) for _ in range(3)]
    calls = [
        (volume.trilinear_sample_many, (fixed, *pts)),
        (registration.trilinear_sample_many, (fixed, *pts)),
        (volume.gaussian_smooth_array, (fixed.data, 1.5)),
        (style.ks_statistic, (fixed.data, moving.data)),
    ]
    for fn, args in calls:
        got, want = fn(*args), fn.__wrapped__(*args)
        assert np.array_equal(got, want) and np.asarray(got).dtype == np.asarray(want).dtype

    rigid = registration.register_rigid(fixed, moving, params)
    want = registration.register_rigid.__wrapped__(fixed, moving, params)
    assert np.array_equal(rigid.matrix, want.matrix) and np.array_equal(rigid.translation, want.translation)
    field = registration.register_deformable(fixed, moving, rigid, params)
    want_field = registration.register_deformable.__wrapped__(fixed, moving, rigid, params)
    assert np.array_equal(field.vectors, want_field.vectors)

    a = LabelMap((fixed.data > 100).astype(np.uint8))
    b = LabelMap((moving.data > 100).astype(np.uint8))
    assert metrics.hausdorff(a, b, 1) == metrics.hausdorff.__wrapped__(a, b, 1)

    names = {s[1] for s in tracer.spans}
    assert {"volume.trilinear_sample_many", "registration.register_rigid", "metrics.hausdorff"} <= names
    counted = [tracer.counts[s[0]] for s in tracer.spans if s[1] == "metrics.hausdorff"]
    assert counted == [{"pairs": 2 * int((a.data == 1).sum()) * int((b.data == 1).sum())}]


def test_spans_nest_per_thread(tracer):
    vol = ScalarVolume(np.arange(64, dtype=np.float32).reshape(4, 4, 4))
    threads = [threading.Thread(target=volume.trilinear_sample, args=(vol, (1.5, 1.5, 1.5))) for _ in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30)
        assert not th.is_alive()
    spans = {s[0]: s for s in tracer.spans}
    inner = [s for s in tracer.spans if s[1] == "volume.trilinear_sample_many"]
    assert len(inner) == 4
    for sid, _, _, _, parent, thread in inner:
        assert spans[parent][1] == "volume.trilinear_sample" and spans[parent][5] == thread


def test_pool_frames_are_children_of_the_series(tracer):
    from concurrent.futures import ThreadPoolExecutor

    vol = ScalarVolume(np.arange(64, dtype=np.float32).reshape(4, 4, 4))

    def series():
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(volume.trilinear_sample, vol, (0.5, 1.0, 2.0)) for _ in range(3)]
        return [f.result() for f in futures]

    assert tracer.wrap("propagation.propagate_series", series)() == [volume.trilinear_sample.__wrapped__(vol, (0.5, 1.0, 2.0))] * 3
    spans = {s[0]: s for s in tracer.spans}
    (root,) = [s for s in tracer.spans if s[1] == "propagation.propagate_series"]
    frames = [s for s in tracer.spans if s[1] == "volume.trilinear_sample"]
    assert len(frames) == 3 and all(s[4] == root[0] and s[5] != root[5] for s in frames)

    table = layers.SpanTable([tracer.to_json()])
    covered = layers._covered([(s[2], s[3]) for s in frames])
    assert table.self_time_by_layer()["propagation"] == pytest.approx(root[3] - root[2] - covered)
    assert covered <= root[3] - root[2]
    assert spans[root[0]][4] == 0


def test_covered_merges_overlapping_intervals():
    assert layers._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == pytest.approx(4.0)
    assert layers._covered([]) == 0.0


def test_steal_share_is_stolen_over_all_cpu_time():
    before = [100, 0, 50, 800, 0, 0, 0, 50]
    after = [200, 0, 100, 850, 0, 0, 0, 100]  # 250 ticks pass, 50 of them stolen
    assert run.steal_share(before, after) == pytest.approx(0.2)
    assert run.steal_share([], after) == 0.0
    assert run.steal_share(after, after) == 0.0


def test_disturbed_rounds_are_left_out():
    def rounds(*steals):
        return [workloads.RoundResult(values={"steal_frac": (s, "1")}) for s in steals]

    assert run.undisturbed(rounds(0.0, 0.3, run.STEAL_MAX)) == [0, 2]
    assert run.undisturbed(rounds(0.3, 0.2, 0.25)) == [1]  # all disturbed: the least stolen one


@pytest.mark.parametrize(
    "write",
    [synth.write_iso48, synth.write_thick, lambda root, seed: list(synth.write_clinical(root, seed).manifests.values())],
)
def test_second_seed_changes_noise_not_shapes(tmp_path, write):
    first = write(tmp_path / "s1", 1)
    second = write(tmp_path / "s2", 2)
    assert [m.relative_to(tmp_path / "s1") for m in first] == [m.relative_to(tmp_path / "s2") for m in second]
    files1 = sorted(p.relative_to(tmp_path / "s1") for p in (tmp_path / "s1").rglob("*.mvol"))
    files2 = sorted(p.relative_to(tmp_path / "s2") for p in (tmp_path / "s2").rglob("*.mvol"))
    assert files1 == files2
    for rel in files1:
        kind = verify.KIND_LABEL if "frame_" not in rel.name else verify.KIND_SCALAR
        a, spacing_a, _ = verify.read_mvol(tmp_path / "s1" / rel, kind)
        b, spacing_b, _ = verify.read_mvol(tmp_path / "s2" / rel, kind)
        assert a.shape == b.shape and spacing_a == spacing_b
        if kind == verify.KIND_SCALAR:
            assert not np.array_equal(a, b)
        elif rel.parts[0] != "pred":  # predictions carry the seeded shift
            assert np.array_equal(a, b)
