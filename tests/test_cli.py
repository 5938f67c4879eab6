"""CLI subcommands: artifacts on disk, exit codes, determinism."""

import dataclasses
import json
import os
import re
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cineprop
from cineprop import io
from cineprop import cli, propagation
from cineprop.cli import EXIT_DEGENERATE, EXIT_IO, EXIT_OK, EXIT_USAGE, run
from cineprop.phantom import PhantomSpec
from cineprop.registration import RegistrationParams
from cineprop.volume import LabelMap, ScalarVolume
from helpers import TINY_CINE_SPEC, build_nifti_bytes
from helpers import write_cine_dir as _write_cine_dir


def _tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def _src_env():
    """This environment, with the imported cineprop's source directory on PYTHONPATH for child processes."""
    src = str(Path(cineprop.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _proc_stat(pid):
    """The fields of ``/proc/<pid>/stat`` after the command name (state, ppid, ...); None once it is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def _running(pid):
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def _children(pid):
    stats = {int(p.name): _proc_stat(p.name) for p in Path("/proc").iterdir() if p.name.isdigit()}
    return sorted(child for child, stat in stats.items() if stat is not None and int(stat[1]) == pid)


def _assert_usage_error(err, message):
    """``err`` is argparse's usage error: the usage, then ``cineprop <command>: error: <message>...``."""
    assert err.startswith("usage: cineprop"), err
    assert re.search(rf"^cineprop( \w+)?: error: {re.escape(message)}", err, flags=re.M), err


def _write_off_grid_series(root, change):
    """A 4-frame series with frame 2 at 10^3 voxels or the ES label at 2x1x1 mm; returns (manifest, that file)."""
    mpath, _ = _write_cine_dir(root)
    if change == "frame-dims":
        bad = root / "frame_002.mvol"
        io.write_mvol(ScalarVolume(np.ones((10, 10, 10), dtype=np.float32)), bad)
    else:
        bad = io.read_manifest(mpath).es_label_path
        io.write_mvol(LabelMap(io.read_labels(bad).data, (2.0, 1.0, 1.0)), bad)
    return mpath, bad


class TestPhantomCommand:
    def test_generates_expected_artifacts(self, tmp_path):
        out = tmp_path / "ph"
        code = run(["phantom", "--frames", "5", "--out", str(out), "--seed", "3"])
        assert code == EXIT_OK
        assert len(list(out.glob("frame_*.mvol"))) == 5
        assert len(list(out.glob("label_*.mvol"))) == 5
        manifest = io.read_manifest(out / "manifest.txt")
        assert len(manifest.frame_paths) == 5
        assert (out / "summary.txt").is_file()
        series = io.load_series(manifest)
        assert series.n_frames == 5

    def test_invalid_frame_count_makes_no_directory(self, tmp_path):
        out = tmp_path / "ph"
        assert run(["phantom", "--frames", "2", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()


class TestPropagateCommand:
    def test_propagates_and_reports(self, tmp_path):
        mpath, _ = _write_cine_dir(tmp_path / "cine")
        out = tmp_path / "prop"
        code = run(
            [
                "propagate",
                "--manifest",
                str(mpath),
                "--out",
                str(out),
                "--iters",
                "30,20",
            ]
        )
        assert code == EXIT_OK
        pseudo = sorted(out.glob("pseudo_label_*.mvol"))
        assert [p.name for p in pseudo] == ["pseudo_label_001.mvol", "pseudo_label_002.mvol"]
        records = io.read_propagation_report(out / "propagation_report.txt")
        assert [r["frame"] for r in records] == [1, 2]
        for r in records:
            assert r["chosen"] in ("ES", "ED")
            assert r["es_norm_mm"] >= 0 and r["ed_norm_mm"] >= 0

    def test_missing_manifest_is_io_error(self, tmp_path):
        code = run(["propagate", "--manifest", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")])
        assert code == EXIT_IO

    def test_frame_name_too_long_is_io_error(self, tmp_path, capsys):
        mpath, _ = _write_cine_dir(tmp_path / "cine")
        name = "x" * 300 + ".mvol"
        mpath.write_text(mpath.read_text().replace("frame = frame_002.mvol", f"frame = {name}"))
        assert run(["propagate", "--manifest", str(mpath), "--out", str(tmp_path / "o")]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: frame: ") and name in err
        assert not (tmp_path / "o").exists()

    def test_undecodable_manifest_is_io_error(self, tmp_path, capsys):
        # a byte that is not UTF-8, whatever the locale's encoding: an error naming the file, not a traceback
        mpath = tmp_path / "m.txt"
        mpath.write_bytes(b"subject = a\xff\n")
        assert run(["propagate", "--manifest", str(mpath), "--out", str(tmp_path / "o")]) == EXIT_IO
        assert "m.txt" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("change", ["frame-dims", "label-spacing"])
    def test_grid_mismatch_is_io_error(self, tmp_path, capsys, change):
        # a file off the first frame's grid is a bad input file, not a bad flag: exit 3, naming the file
        mpath, bad = _write_off_grid_series(tmp_path / "cine", change)
        assert run(["propagate", "--manifest", str(mpath), "--out", str(tmp_path / "o")]) == EXIT_IO
        assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_finite_vox_offset_is_io_error(self, tmp_path):
        mpath, _ = _write_cine_dir(tmp_path / "cine")
        raw = bytearray(build_nifti_bytes(np.ones((20, 20, 20), dtype=np.float32)))
        struct.pack_into("<f", raw, 108, float("nan"))
        (tmp_path / "cine" / "frame_bad.nii").write_bytes(bytes(raw))
        mpath.write_text(mpath.read_text().replace("frame_001.mvol", "frame_bad.nii"))
        assert run(["propagate", "--manifest", str(mpath), "--out", str(tmp_path / "o")]) == EXIT_IO

    def test_default_flags_build_default_params(self, tmp_path, monkeypatch):
        mpath, _ = _write_cine_dir(tmp_path / "cine")
        seen = []

        def capture(series, params, workers):
            seen.append(params)
            return []

        monkeypatch.setattr(propagation, "propagate_series", capture)
        assert run(["propagate", "--manifest", str(mpath), "--out", str(tmp_path / "prop")]) == EXIT_OK
        assert seen == [RegistrationParams()]

    def test_env_var_sets_default_workers(self, tmp_path, monkeypatch):
        mpath, _ = _write_cine_dir(tmp_path / "cine")
        monkeypatch.setenv("CINEPROP_WORKERS", "3")
        out = tmp_path / "prop_env"
        code = run(
            [
                "propagate",
                "--manifest",
                str(mpath),
                "--out",
                str(out),
                "--iters",
                "30,20",
            ]
        )
        assert code == EXIT_OK
        assert len(list(out.glob("pseudo_label_*.mvol"))) == 2

    @pytest.mark.parametrize(
        "raw, flag",
        [("abc", None), ("0", None), ("-2", None), ("1", "0"), ("1", "-2")],
        ids=["abc", "0", "-2", "flag-0", "flag--2"],
    )
    def test_invalid_env_var_workers_is_usage_error(self, tmp_path, monkeypatch, capsys, raw, flag):
        mpath, _ = _write_cine_dir(tmp_path / "cine")
        monkeypatch.setenv("CINEPROP_WORKERS", raw)
        out = tmp_path / "prop_bad_env"
        argv = ["propagate", "--manifest", str(mpath), "--out", str(out)]
        if flag is not None:
            # a missing manifest: the flag must be rejected before the manifest is read
            argv = ["propagate", "--manifest", str(tmp_path / "nope.txt"), "--out", str(out), "--workers", flag]
        code = run(argv)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        _assert_usage_error(err, "argument --workers: must be an integer >= 1")
        assert ("CINEPROP_WORKERS" in err) == (flag is None)
        assert not out.exists()

    @pytest.mark.parametrize(
        "iters",
        [",", "5,x,5", "0,5", "5,-1", "5,,5", "5,5,"],
        ids=["iters-empty", "iters-malformed", "iters-zero", "iters-negative", "iters-empty-entry", "iters-trailing-comma"],
    )
    def test_invalid_registration_flag_is_usage_error(self, tmp_path, capsys, iters):
        # a missing manifest: the flag must be rejected before the manifest is read
        out = tmp_path / "prop_bad_flag"
        code = run(["propagate", "--manifest", str(tmp_path / "nope.txt"), "--out", str(out), "--iters", iters])
        assert code == EXIT_USAGE
        message = f"argument --iters: must be a non-empty comma list of integers >= 1, got {iters!r}"
        _assert_usage_error(capsys.readouterr().err, message)
        assert not out.exists()

    def test_outputs_independent_of_blas_threads(self, tmp_path):
        # 24^3 voxels: NCC sums run over 13.8k samples, above the size where BLAS dot products thread
        mpath, _ = _write_cine_dir(tmp_path / "cine", dataclasses.replace(TINY_CINE_SPEC, dims=(24, 24, 24)))
        # set explicitly: the CLI runs BLAS on one thread only where none of the three variables is set
        threaded = dict(_src_env(), OMP_NUM_THREADS="2", OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="2")
        pinned = dict(threaded, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        trees = []
        for name, env in (("threaded", threaded), ("pinned", pinned)):
            out = tmp_path / name
            argv = ["propagate", "--manifest", str(mpath), "--out", str(out), "--workers", "2"]
            argv += ["--iters", "2,2"]
            subprocess.run([sys.executable, "-m", "cineprop.cli", *argv], env=env, check=True, timeout=300)
            trees.append(_tree_bytes(out))
        assert sorted(trees[0]) == [
            "propagation_report.txt",
            "pseudo_label_001.mvol",
            "pseudo_label_002.mvol",
            "summary.txt",
        ]
        assert [name for name in trees[0] if trees[0][name] != trees[1].get(name)] == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="finds the worker processes in /proc")
    def test_workers_exit_when_the_cli_is_killed(self, tmp_path):
        spec = dataclasses.replace(TINY_CINE_SPEC, dims=(32, 32, 32), frames=6, ed_index=5)
        mpath, _ = _write_cine_dir(tmp_path / "cine", spec)
        argv = ["propagate", "--manifest", str(mpath), "--out", str(tmp_path / "out"), "--workers", "2"]
        proc = subprocess.Popen([sys.executable, "-m", "cineprop.cli", *argv], env=_src_env())
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
                workers = _children(proc.pid)
            assert len(workers) == 2, "the CLI did not start two workers"
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 5
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert [w for w in workers if _running(w)] == []
        finally:
            proc.kill()
            proc.wait()
            for w in filter(_running, workers):
                os.kill(w, signal.SIGKILL)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_constant_frame_fails_alone(self, tmp_path, workers):
        # frame 1 is written as in a clean run; frame 2, constant, is an error record, and the exit code is 4
        mpath, _ = _write_cine_dir(tmp_path / "cine")
        clean, out = tmp_path / "clean", tmp_path / "out"
        argv = ["propagate", "--manifest", str(mpath), "--iters", "5,5", "--workers", workers, "--out"]
        assert run([*argv, str(clean)]) == EXIT_OK
        frame_path = tmp_path / "cine" / "frame_002.mvol"
        frame = io.read_volume(frame_path)
        io.write_mvol(ScalarVolume(np.full(frame.dims, 5.0, np.float32), frame.spacing), frame_path)
        assert run([*argv, str(out)]) == EXIT_DEGENERATE
        assert (out / "pseudo_label_001.mvol").read_bytes() == (clean / "pseudo_label_001.mvol").read_bytes()
        assert not (out / "pseudo_label_002.mvol").exists()
        first, second = io.read_propagation_report(out / "propagation_report.txt")
        assert first == io.read_propagation_report(clean / "propagation_report.txt")[0]
        assert first["chosen"] in ("ES", "ED") and first["es_norm_mm"] >= 0 and first["ed_norm_mm"] >= 0
        assert second["frame"] == 2 and set(second) == {"frame", "error"} and "constant" in second["error"]
        assert "propagated = 1\nreport = propagation_report.txt\nfailed = 1\n" in (out / "summary.txt").read_text()
        assert "failed" not in (clean / "summary.txt").read_text()

    def test_constant_frames_degenerate(self, tmp_path):
        out = tmp_path / "flat"
        out.mkdir()
        flat = ScalarVolume(np.full((8, 8, 8), 5.0, dtype=np.float32))
        from cineprop.volume import LabelMap

        lab = LabelMap(np.zeros((8, 8, 8), dtype=np.uint8))
        paths = []
        for t in range(3):
            p = out / f"frame_{t}.mvol"
            io.write_mvol(flat, p)
            paths.append(p)
        io.write_mvol(lab, out / "lab.mvol")
        manifest = io.CineManifest("s", tuple(paths), 0, 2, out / "lab.mvol", out / "lab.mvol", "A", "1")
        io.write_manifest(manifest, out / "manifest.txt")
        code = run(["propagate", "--manifest", str(out / "manifest.txt"), "--out", str(tmp_path / "o2")])
        assert code == EXIT_DEGENERATE


class TestHistmatchCommand:
    def test_outputs_and_determinism(self, tmp_path):
        mpath, _ = _write_cine_dir(tmp_path / "cine")
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        for out in (out1, out2):
            code = run(["histmatch", "--manifest", str(mpath), "--out", str(out), "--seed", "5"])
            assert code == EXIT_OK
        assert len(list(out1.glob("matched_*.mvol"))) == 4
        assert _tree_bytes(out1) == _tree_bytes(out2)

    @pytest.mark.parametrize("change", ["frame-dims", "label-spacing"])
    def test_grid_mismatch_is_io_error(self, tmp_path, capsys, change):
        mpath, bad = _write_off_grid_series(tmp_path / "cine", change)
        assert run(["histmatch", "--manifest", str(mpath), "--out", str(tmp_path / "m")]) == EXIT_IO
        assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("what", ["voxel", "pixdim"])
    def test_non_finite_nifti_is_io_error(self, tmp_path, what):
        # one frame of the series is a NIfTI file with a NaN voxel or a NaN slice thickness
        mpath, _ = _write_cine_dir(tmp_path / "cine")
        data = np.ones((20, 20, 20), dtype=np.float32)
        spacing = (1.0, 1.0, float("nan") if what == "pixdim" else 1.0)
        if what == "voxel":
            data[3, 4, 5] = np.nan
        (tmp_path / "cine" / "frame_bad.nii").write_bytes(build_nifti_bytes(data, spacing=spacing))
        mpath.write_text(mpath.read_text().replace("frame_001.mvol", "frame_bad.nii"))
        assert run(["histmatch", "--manifest", str(mpath), "--out", str(tmp_path / "m")]) == EXIT_IO

    @pytest.mark.parametrize("dtype, big, slope", [(np.float64, 1e300, 0.0), (np.float32, 2.0, 3e38)])
    def test_voxel_beyond_float32_is_io_error(self, tmp_path, capsys, dtype, big, slope):
        # frame 1 is a NIfTI file with one voxel, as stored or once scaled, past the float32 range
        mpath, _ = _write_cine_dir(tmp_path / "cine")
        data = np.ones((20, 20, 20), dtype=dtype)
        data[3, 4, 5] = big
        (tmp_path / "cine" / "frame_big.nii").write_bytes(build_nifti_bytes(data, scl_slope=slope))
        mpath.write_text(mpath.read_text().replace("frame_001.mvol", "frame_big.nii"))
        assert run(["histmatch", "--manifest", str(mpath), "--out", str(tmp_path / "m")]) == EXIT_IO
        assert "payload: voxel values beyond the float32 range" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()


class TestTransferCommand:
    def test_transfer_between_vendors(self, tmp_path):
        spec_b = PhantomSpec(
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
            seed=21,
            intensities=(10.0, 400.0, 150.0, 260.0),
        )
        m_a, _ = _write_cine_dir(tmp_path / "a", vendor="A", subject="sa")
        m_b, _ = _write_cine_dir(tmp_path / "b", spec=spec_b, vendor="B", subject="sb")
        out = tmp_path / "tr"
        code = run(
            [
                "transfer",
                "--manifest",
                str(m_a),
                "--manifest",
                str(m_b),
                "--from-vendor",
                "A",
                "--to-vendor",
                "B",
                "--out",
                str(out),
                "--seed",
                "7",
            ]
        )
        assert code == EXIT_OK
        assert len(list(out.glob("transfer_sa_*.mvol"))) == 4

    def test_missing_vendor_usage_error(self, tmp_path):
        m_a, _ = _write_cine_dir(tmp_path / "a", vendor="A")
        code = run(
            [
                "transfer",
                "--manifest",
                str(m_a),
                "--from-vendor",
                "A",
                "--to-vendor",
                "Z",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("subjects", [("sa", "sa"), ("sa", "s/a")], ids=["repeated", "path-separator"])
    def test_from_vendor_subject_names_one_series(self, tmp_path, capsys, monkeypatch, subjects):
        # output files are named by subject: a second series of one subject would overwrite the first
        manifests = []
        for n, subject in enumerate(subjects):
            manifests += ["--manifest", str(_write_cine_dir(tmp_path / f"s{n}", vendor="A", subject=subject)[0])]
        m_b, _ = _write_cine_dir(tmp_path / "b", vendor="B", subject="sb")

        def no_volumes(manifest):
            raise AssertionError("a volume was read")

        monkeypatch.setattr(io, "load_series", no_volumes)
        out = tmp_path / "tr"
        argv = ["transfer", *manifests, "--manifest", str(m_b), "--from-vendor", "A", "--to-vendor", "B"]
        assert run([*argv, "--out", str(out)]) == EXIT_IO
        assert repr(subjects[1]) in capsys.readouterr().err
        assert not out.exists()


class TestEvaluateCommand:
    def test_identical_dirs_all_dice_one(self, tmp_path, capsys):
        _write_cine_dir(tmp_path / "cine")
        labels = tmp_path / "labels"
        labels.mkdir()
        for p in (tmp_path / "cine").glob("label_*.mvol"):
            labels.joinpath(p.name).write_bytes(p.read_bytes())
        code = run(["evaluate", "--pred", str(labels), "--gt", str(labels)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "cases = 4" in text
        for line in text.splitlines():
            if ".dice = " in line and not line.startswith("mean"):
                assert line.endswith("= 1.0")

    @pytest.mark.parametrize("out", [True, False], ids=["out", "stdout"])
    def test_case_name_that_would_not_read_back_is_usage_error(self, tmp_path, capsys, out):
        labels = tmp_path / "labels"
        labels.mkdir()
        io.write_mvol(LabelMap(np.ones((3, 3, 3), dtype=np.uint8)), labels / "a#1.mvol")
        args = ["evaluate", "--pred", str(labels), "--gt", str(labels)] + (["--out", str(tmp_path / "e")] if out else [])
        assert run(args) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "'a#1'" in captured.err and captured.out == ""
        assert not (tmp_path / "e").exists()

    def test_stdout_is_the_written_report(self, tmp_path, capsys):
        _, cine = _write_cine_dir(tmp_path / "cine")
        pred = tmp_path / "pred"
        pred.mkdir()
        for t, label in enumerate(cine.ground_truth):  # one frame off by a voxel, so the means are not all 1.0
            data = np.roll(label.data, 1, axis=0) if t == 1 else label.data
            io.write_mvol(LabelMap(data, label.spacing), pred / f"label_{t:03d}.mvol")
        argv = ["evaluate", "--pred", str(pred), "--gt", str(tmp_path / "cine")]
        assert run(argv + ["--out", str(tmp_path / "eval")]) == EXIT_OK
        capsys.readouterr()
        assert run(argv) == EXIT_OK
        written = (tmp_path / "eval" / "evaluation_report.txt").read_bytes()
        assert b"\nmean.LV.dice = " in written
        assert capsys.readouterr().out.encode() == written

    def test_pairs_by_index_when_names_differ(self, tmp_path):
        _, cine = _write_cine_dir(tmp_path / "cine")
        pred = tmp_path / "pred"
        gt = tmp_path / "gt"
        pred.mkdir()
        gt.mkdir()
        for t, lab in enumerate(cine.ground_truth[:2]):
            io.write_mvol(lab, pred / f"pseudo_label_{t:03d}.mvol")
            io.write_mvol(lab, gt / f"label_{t:03d}.mvol")
        out = tmp_path / "eval"
        code = run(["evaluate", "--pred", str(pred), "--gt", str(gt), "--out", str(out)])
        assert code == EXIT_OK
        text = (out / "evaluation_report.txt").read_text()
        assert "mean.LV.dice = 1.0" in text

    @pytest.mark.parametrize("gt_names", [("x_001", "y_001"), ("label_001",)], ids=["both-dirs", "pred-dir"])
    def test_shared_trailing_index_is_io_error(self, tmp_path, capsys, gt_names):
        # pairing by index would give a_001 and b_001 one ground truth, and ignore x_001
        _, cine = _write_cine_dir(tmp_path / "cine")
        pred, gt = tmp_path / "pred", tmp_path / "gt"
        pred.mkdir()
        gt.mkdir()
        for name in ("a_001", "b_001"):
            io.write_mvol(cine.ground_truth[1], pred / f"{name}.mvol")
        for name in gt_names:
            io.write_mvol(cine.ground_truth[1], gt / f"{name}.mvol")
        assert run(["evaluate", "--pred", str(pred), "--gt", str(gt)]) == EXIT_IO
        err = capsys.readouterr().err
        assert "a_001.mvol and b_001.mvol" in err and "index 1" in err

    @pytest.mark.parametrize("change", ["dims", "spacing"])
    def test_grid_mismatch_is_io_error(self, tmp_path, capsys, change):
        pred, gt = tmp_path / "pred", tmp_path / "gt"
        pred.mkdir()
        gt.mkdir()
        data = np.zeros((8, 8, 4), dtype=np.uint8)
        data[2:6, 2:6, 1:3] = 1
        io.write_mvol(LabelMap(data), pred / "case_000.mvol")
        if change == "dims":
            other = LabelMap(np.concatenate([data, data[:, :, :1]], axis=2))
        else:
            other = LabelMap(data, (1.0, 1.0, 2.0))
        io.write_mvol(other, gt / "case_000.mvol")
        assert run(["evaluate", "--pred", str(pred), "--gt", str(gt)]) == EXIT_IO
        err = capsys.readouterr().err
        assert str(pred / "case_000.mvol") in err and str(gt / "case_000.mvol") in err

    def test_empty_dir_is_io_error(self, tmp_path):
        empty = tmp_path / "e"
        empty.mkdir()
        code = run(["evaluate", "--pred", str(empty), "--gt", str(empty)])
        assert code == EXIT_IO

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_corrupt_spacing_is_io_error(self, tmp_path, capsys, bad):
        labels = tmp_path / "labels"
        labels.mkdir()
        header = struct.pack("<4sB3I3f", b"MVL1", 1, 2, 1, 1, 1.0, bad, 1.0)
        (labels / "label_000.mvol").write_bytes(header + bytes([1, 2]))
        code = run(["evaluate", "--pred", str(labels), "--gt", str(labels)])
        assert code == EXIT_IO
        assert "spacing" in capsys.readouterr().err


class TestReportCommand:
    def test_report_to_stdout(self, tmp_path, capsys):
        m_a, _ = _write_cine_dir(tmp_path / "a", vendor="A")
        m_b, _ = _write_cine_dir(tmp_path / "b", vendor="B", subject="sb")
        code = run(["report", "--manifest", str(m_a), "--manifest", str(m_b), "--bins", "8"])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert text.startswith("bins = 8")
        assert "ks A B " in text

    def test_report_to_file(self, tmp_path):
        m_a, _ = _write_cine_dir(tmp_path / "a", vendor="A")
        out = tmp_path / "rep"
        code = run(["report", "--manifest", str(m_a), "--bins", "4", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "histogram_report.txt").read_text().startswith("bins = 4")

    @pytest.mark.parametrize("vendor", ["GE Medical", ""])
    def test_vendor_that_would_not_split_back_is_usage_error(self, tmp_path, capsys, vendor):
        m_a, _ = _write_cine_dir(tmp_path / "a", vendor="A")
        m_b, _ = _write_cine_dir(tmp_path / "b", vendor="B", subject="sb")
        m_b.write_text(m_b.read_text().replace("vendor = B\n", f"vendor = {vendor}\n"))
        out = tmp_path / "rep"
        assert run(["report", "--manifest", str(m_a), "--manifest", str(m_b), "--out", str(out)]) == EXIT_USAGE
        assert repr(vendor) in capsys.readouterr().err
        assert not out.exists()

    def test_report_written_atomically(self, tmp_path, monkeypatch):
        m_a, _ = _write_cine_dir(tmp_path / "a", vendor="A")
        out = tmp_path / "rep"
        written = []
        atomic_write = io._atomic_write

        def spy(path, payload):
            written.append(Path(path).name)
            atomic_write(path, payload)

        monkeypatch.setattr(io, "_atomic_write", spy)
        assert run(["report", "--manifest", str(m_a), "--bins", "4", "--out", str(out)]) == EXIT_OK
        assert written == ["histogram_report.txt", "summary.txt"]


def _no_input(*args, **kwargs):
    raise AssertionError("an input was read before --out was checked")


class TestOutChecked:
    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["propagate", "evaluate"])
    def test_out_at_or_under_a_file_is_io_error_before_input(self, tmp_path, capsys, monkeypatch, command, under_file):
        # a bad --out used to surface only after all the work, as "[Errno 17] File exists" without the flag
        mpath, cine = _write_cine_dir(tmp_path / "cine")
        pred = tmp_path / "pred"
        pred.mkdir()
        for t, label in enumerate(cine.ground_truth):
            io.write_mvol(label, pred / f"label_{t:03d}.mvol")
        taken = tmp_path / "taken"
        taken.write_text("a file")
        out = taken / "sub" if under_file else taken
        if command == "propagate":
            argv = ["propagate", "--manifest", str(mpath), "--out", str(out)]
        else:
            argv = ["evaluate", "--pred", str(pred), "--gt", str(tmp_path / "cine"), "--out", str(out)]
        monkeypatch.setattr(io, "read_manifest", _no_input)
        monkeypatch.setattr(io, "read_labels", _no_input)
        assert run(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: --out ") and f"{taken} is not a directory" in err
        assert taken.read_text() == "a file"

    @pytest.mark.parametrize("command", ["phantom", "propagate", "histmatch", "transfer", "evaluate", "report"])
    def test_empty_out_is_usage_error(self, tmp_path, capsys, monkeypatch, command):
        # taken as given, it would write into the current directory, or (evaluate, report) print to stdout
        mpath, _ = _write_cine_dir(tmp_path / "cine")
        inputs = {
            "phantom": ["--frames", "3"],
            "propagate": ["--manifest", str(mpath)],
            "histmatch": ["--manifest", str(mpath)],
            "transfer": ["--manifest", str(mpath), "--from-vendor", "A", "--to-vendor", "A"],
            "evaluate": ["--pred", str(mpath.parent), "--gt", str(mpath.parent)],
            "report": ["--manifest", str(mpath)],
        }[command]
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.setattr(io, "read_manifest", _no_input)
        monkeypatch.setattr(io, "read_labels", _no_input)
        assert run([command, *inputs, "--out", ""]) == EXIT_USAGE
        out, err = capsys.readouterr()
        _assert_usage_error(err, "argument --out: must not be empty")
        assert out == ""
        assert list(cwd.iterdir()) == []


class TestUsageErrors:
    def test_unknown_flag(self, tmp_path, capsys):
        assert run(["phantom", "--bogus", "1", "--out", str(tmp_path / "ph")]) == EXIT_USAGE
        _assert_usage_error(capsys.readouterr().err, "unrecognized arguments: --bogus 1")
        assert not (tmp_path / "ph").exists()

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == EXIT_USAGE
        _assert_usage_error(capsys.readouterr().err, "argument subcommand: invalid choice: 'frobnicate'")

    def test_missing_required_flag(self, capsys):
        assert run(["propagate"]) == EXIT_USAGE
        _assert_usage_error(capsys.readouterr().err, "the following arguments are required: --manifest, --out")

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("histmatch", "--n-ref-volumes", "0"),
            ("histmatch", "--n-ref-volumes", "-3"),
            ("transfer", "--n-ref-volumes", "0"),
            ("report", "--bins", "0"),
            ("report", "--bins", "1"),
            ("report", "--bins", "1000000000000"),
            ("phantom", "--seed", "-1"),
            ("histmatch", "--seed", "-1"),
            ("transfer", "--seed", "-1"),
            ("transfer", "--n-ref-volumes", "x"),
            ("report", "--bins", "2.5"),
            ("phantom", "--seed", ""),
            ("phantom", "--frames", "2"),
            ("phantom", "--frames", "x"),
        ],
        ids=[
            "histmatch-n-ref-0",
            "histmatch-n-ref--3",
            "transfer-n-ref-0",
            "report-bins-0",
            "report-bins-1",
            "report-bins-1e12",
            "phantom-seed--1",
            "histmatch-seed--1",
            "transfer-seed--1",
            "transfer-n-ref-x",
            "report-bins-2.5",
            "phantom-seed-empty",
            "phantom-frames-2",
            "phantom-frames-x",
        ],
    )
    def test_reference_and_bin_counts_checked_before_input(self, tmp_path, capsys, command, flag, value):
        # a missing manifest: the flag must be rejected, by name, before the manifest is read
        out = tmp_path / "out"
        argv = [command, "--out", str(out), flag, value]
        if command != "phantom":  # phantom reads no input, so it must fail before making its directory
            argv += ["--manifest", str(tmp_path / "nope.txt")]
        if command == "transfer":
            argv += ["--from-vendor", "A", "--to-vendor", "B"]
        assert run(argv) == EXIT_USAGE
        bounds = {"--n-ref-volumes": ">= 1", "--seed": ">= 0", "--bins": "in [2, 65536]", "--frames": ">= 3"}[flag]
        _assert_usage_error(capsys.readouterr().err, f"argument {flag}: must be an integer {bounds}, got {value!r}")
        assert not out.exists()


_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _python(script, env):
    """Run ``script`` in a fresh interpreter with ``env``; its stdout parsed as JSON."""
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestStartup:
    def test_startup_and_usage_errors_load_no_numpy(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        library = readme.split("## Library", 1)[1]
        example = re.search(r"from cineprop import \((.*?)\)", library, flags=re.S).group(1)
        listed = re.search(r"`import cineprop` provides(.*?)Everything else", library, flags=re.S).group(1)
        names = re.findall(r"\w+", example) + re.findall(r"`([A-Z]\w*)`", listed)
        assert {"evaluate_case", "ScalarVolume", "SeriesPropagationError"} <= set(names)
        script = f"""
import json, sys
import cineprop, cineprop.cli
at_import = "numpy" in sys.modules
code = cineprop.cli.run(["propagate", "--manifest", "m", "--out", "o", "--workers", "0"])
after_usage_error = "numpy" in sys.modules
missing = [n for n in {names!r} if not hasattr(cineprop, n)]
print(json.dumps([at_import, code, after_usage_error, missing]))
"""
        assert _python(script, _src_env()) == [False, EXIT_USAGE, False, []]

    @pytest.mark.parametrize("preset", _BLAS_VARS)
    def test_main_pins_unset_blas_threads_and_run_does_not(self, preset):
        script = f"""
import json, os, sys
from cineprop import cli
cli.run([])
after_run = [os.environ.get(v) for v in {_BLAS_VARS!r}]
sys.argv = ["cineprop"]
try:
    cli.main()
except SystemExit as exc:
    code = exc.code
print(json.dumps([after_run, code, [os.environ.get(v) for v in {_BLAS_VARS!r}]]))
"""
        env = {k: v for k, v in _src_env().items() if k not in _BLAS_VARS}
        env[preset] = "3"
        after_run, code, after_main = _python(script, env)
        assert after_run == [("3" if v == preset else None) for v in _BLAS_VARS]
        assert code == EXIT_USAGE
        assert after_main == [("3" if v == preset else "1") for v in _BLAS_VARS]
