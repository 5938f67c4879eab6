"""MVOL round trips, NIfTI-1 ingestion, manifests, and report formats."""

import dataclasses
import os
import random
import stat
import struct
from pathlib import Path

import numpy as np
import pytest

from cineprop import io
from cineprop.errors import DegenerateInputError, FormatError, InvalidParameterError
from cineprop.volume import LabelMap, ScalarVolume
from helpers import build_nifti_bytes, random_volume


class TestMvol:
    def test_header_is_29_bytes(self):
        assert io.MVOL_HEADER.size == 29

    def test_scalar_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        vol = random_volume(rng, max_dim=9)
        path = tmp_path / "v.mvol"
        io.write_mvol(vol, path)
        back = io.read_mvol(path)
        assert isinstance(back, ScalarVolume)
        assert back.dims == vol.dims
        assert back.spacing == vol.spacing
        assert back.data.tobytes() == vol.data.tobytes()

    def test_label_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        lm = LabelMap(rng.integers(0, 4, size=(5, 3, 4)).astype(np.uint8), (1.0, 2.0, 0.5))
        path = tmp_path / "l.mvol"
        io.write_mvol(lm, path)
        back = io.read_mvol(path)
        assert isinstance(back, LabelMap)
        assert np.array_equal(back.data, lm.data)
        assert back.spacing == lm.spacing

    def test_round_trip_property(self, tmp_path):
        rng = np.random.default_rng(12)
        for i in range(25):
            vol = random_volume(rng, max_dim=16)
            path = tmp_path / f"v{i}.mvol"
            io.write_mvol(vol, path)
            back = io.read_mvol(path)
            assert back.data.tobytes() == vol.data.tobytes()
            assert back.dims == vol.dims and back.spacing == vol.spacing

    def test_payload_is_x_fastest(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        path = tmp_path / "v.mvol"
        io.write_mvol(ScalarVolume(data), path)
        raw = path.read_bytes()
        payload = np.frombuffer(raw[29:], dtype="<f4")
        assert payload[0] == data[0, 0, 0]
        assert payload[1] == data[1, 0, 0]
        assert payload[2] == data[0, 1, 0]
        assert payload[4] == data[0, 0, 1]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mvol"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(FormatError, match="magic"):
            io.read_mvol(path)

    def test_truncated_payload(self, tmp_path):
        vol = ScalarVolume(np.zeros((4, 4, 4)))
        path = tmp_path / "v.mvol"
        io.write_mvol(vol, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError, match="payload"):
            io.read_mvol(path)

    def test_label_out_of_range(self, tmp_path):
        header = struct.pack("<4sB3I3f", b"MVL1", 1, 2, 1, 1, 1.0, 1.0, 1.0)
        path = tmp_path / "bad_label.mvol"
        path.write_bytes(header + bytes([1, 4]))
        with pytest.raises(FormatError, match="label range"):
            io.read_mvol(path)

    def test_bad_kind(self, tmp_path):
        header = struct.pack("<4sB3I3f", b"MVL1", 7, 1, 1, 1, 1.0, 1.0, 1.0)
        path = tmp_path / "bad_kind.mvol"
        path.write_bytes(header + b"\x00")
        with pytest.raises(FormatError, match="kind"):
            io.read_mvol(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_bad_spacing_is_format_error(self, tmp_path, bad):
        header = struct.pack("<4sB3I3f", b"MVL1", 1, 2, 1, 1, 1.0, bad, 1.0)
        path = tmp_path / "bad_spacing.mvol"
        path.write_bytes(header + bytes([1, 2]))
        with pytest.raises(FormatError, match="spacing"):
            io.read_mvol(path)

    @pytest.mark.parametrize("bad", [1e-46, 1e39])  # valid in float64, 0 or inf in the float32 header
    def test_spacing_outside_float32_not_written(self, tmp_path, bad):
        path = tmp_path / "v.mvol"
        with pytest.raises(FormatError) as excinfo:
            io.write_mvol(ScalarVolume(np.zeros((2, 2, 2)), (bad, 1.0, 1.0)), path)
        assert excinfo.value.field == "spacing"
        assert list(tmp_path.iterdir()) == []


class TestNifti:
    def test_float32_values_and_spacing(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2) + 0.5
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti_bytes(data, spacing=(1.5, 2.0, 2.5)))
        vol = io.read_nifti1(path)
        assert isinstance(vol, ScalarVolume)
        assert np.array_equal(vol.data, data)
        assert vol.spacing == (1.5, 2.0, 2.5)

    def test_scl_slope_and_inter(self, tmp_path):
        data = np.full((2, 2, 2), 3, dtype=np.int16)
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti_bytes(data, scl_slope=2.0, scl_inter=1.0))
        vol = io.read_nifti1(path)
        assert np.all(vol.data == 7.0)

    def test_zero_slope_leaves_values(self, tmp_path):
        data = np.full((2, 2, 2), 3, dtype=np.int16)
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti_bytes(data, scl_slope=0.0, scl_inter=9.0))
        assert np.all(io.read_nifti1(path).data == 3.0)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint16, np.float32, np.float64])
    def test_supported_datatypes(self, tmp_path, dtype):
        data = np.arange(8).astype(dtype).reshape(2, 2, 2)
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti_bytes(data))
        vol = io.read_nifti1(path)
        assert np.array_equal(vol.data, data.astype(np.float32))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_pixdim_is_format_error(self, tmp_path, bad):
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti_bytes(np.zeros((2, 2, 2), dtype=np.float32), spacing=(1.0, 1.0, bad)))
        with pytest.raises(FormatError, match="pixdim"):
            io.read_nifti1(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 352.5])
    def test_bad_vox_offset_is_format_error(self, tmp_path, bad):
        raw = bytearray(build_nifti_bytes(np.zeros((2, 2, 2), dtype=np.float32)))
        struct.pack_into("<f", raw, 108, bad)  # build_nifti_bytes itself needs a whole offset
        path = tmp_path / "v.nii"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as excinfo:
            io.read_nifti1(path)
        assert excinfo.value.field == "vox_offset"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_voxels_are_format_error(self, tmp_path, bad):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        data[1, 0, 1] = bad
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti_bytes(data))
        with pytest.raises(FormatError, match="non-finite"):
            io.read_nifti1(path)

    @pytest.mark.parametrize("dtype, big, slope", [(np.float64, 1e300, 0.0), (np.float32, 2.0, 3e38)])
    def test_voxels_beyond_float32_are_format_error(self, tmp_path, dtype, big, slope):
        data = np.ones((2, 2, 2), dtype=dtype)
        data[1, 0, 1] = big
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti_bytes(data, scl_slope=slope))
        with pytest.raises(FormatError, match="float32 range") as excinfo:  # and no overflow warning
            io.read_nifti1(path)
        assert excinfo.value.field == "payload"

    def test_rgb_datatype_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.uint8)
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti_bytes(data, datatype=128))
        with pytest.raises(FormatError, match="datatype"):
            io.read_nifti1(path)

    def test_wrong_magic_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti_bytes(data, magic=b"XXXX"))
        with pytest.raises(FormatError, match="magic"):
            io.read_nifti1(path)

    def test_pair_magic_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti_bytes(data, magic=b"ni1\x00"))
        with pytest.raises(FormatError, match="magic"):
            io.read_nifti1(path)

    def test_gzip_rejected(self, tmp_path):
        import gzip

        data = np.zeros((2, 2, 2), dtype=np.float32)
        path = tmp_path / "v.nii"
        path.write_bytes(gzip.compress(build_nifti_bytes(data)))
        with pytest.raises(FormatError, match="magic"):
            io.read_nifti1(path)

    def test_4d_with_real_time_axis_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        raw = bytearray(build_nifti_bytes(data, ndim=4))
        struct.pack_into("<8h", raw, 40, 4, 2, 2, 2, 3, 1, 1, 1)  # dim[4] = 3 frames
        path = tmp_path / "v.nii"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="dim"):
            io.read_nifti1(path)

    def test_4d_with_singleton_time_accepted(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        path = tmp_path / "v.nii"
        path.write_bytes(build_nifti_bytes(data, ndim=4))
        assert io.read_nifti1(path).dims == (2, 2, 2)

    def test_big_endian_header(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        raw = bytearray(348)
        struct.pack_into(">i", raw, 0, 348)
        struct.pack_into(">8h", raw, 40, 3, 2, 2, 2, 1, 1, 1, 1)
        struct.pack_into(">h", raw, 70, 16)
        struct.pack_into(">h", raw, 72, 32)
        struct.pack_into(">8f", raw, 76, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        struct.pack_into(">f", raw, 108, 352.0)
        raw[344:348] = b"n+1\x00"
        payload = data.ravel(order="F").astype(">f4").tobytes()
        path = tmp_path / "v.nii"
        path.write_bytes(bytes(raw) + b"\x00" * 4 + payload)
        vol = io.read_nifti1(path)
        assert np.array_equal(vol.data, data)

    def test_labels_validated(self, tmp_path):
        good = np.array([0, 1, 2, 3, 0, 1, 2, 3], dtype=np.uint8).reshape(2, 2, 2)
        path = tmp_path / "l.nii"
        path.write_bytes(build_nifti_bytes(good))
        lm = io.read_nifti1(path, as_labels=True)
        assert isinstance(lm, LabelMap)
        assert np.array_equal(lm.data, good)

        bad = np.full((2, 2, 2), 4, dtype=np.uint8)
        path.write_bytes(build_nifti_bytes(bad))
        with pytest.raises(FormatError, match="label range"):
            io.read_nifti1(path, as_labels=True)


def _write_series(tmp_path, n_frames=4, es=0, ed=3):
    rng = np.random.default_rng(13)
    frames = []
    for t in range(n_frames):
        vol = ScalarVolume(rng.normal(100, 10, size=(4, 4, 4)).astype(np.float32))
        p = tmp_path / f"frame_{t:03d}.mvol"
        io.write_mvol(vol, p)
        frames.append(p)
    lab = LabelMap(rng.integers(0, 4, size=(4, 4, 4)).astype(np.uint8))
    es_p = tmp_path / "label_es.mvol"
    ed_p = tmp_path / "label_ed.mvol"
    io.write_mvol(lab, es_p)
    io.write_mvol(lab, ed_p)
    lines = [
        "subject = subj01",
        "vendor = A",
        "center = 1",
        f"es_index = {es}",
        f"ed_index = {ed}",
        f"es_label = {es_p.name}",
        f"ed_label = {ed_p.name}",
    ]
    lines += [f"frame = {p.name}" for p in frames]
    mpath = tmp_path / "manifest.txt"
    mpath.write_text("\n".join(lines) + "\n")
    return mpath


class TestManifest:
    def test_valid_manifest(self, tmp_path):
        mpath = _write_series(tmp_path, n_frames=10, es=3, ed=8)
        m = io.read_manifest(mpath)
        assert len(m.frame_paths) == 10
        assert (m.es_index, m.ed_index) == (3, 8)
        assert m.vendor == "A" and m.center == "1" and m.subject_id == "subj01"

    def test_equal_indices_rejected(self, tmp_path):
        mpath = _write_series(tmp_path, es=3, ed=3)
        with pytest.raises(FormatError, match="es_index"):
            io.read_manifest(mpath)

    @pytest.mark.parametrize("key", ["es_index", "ed_index"])
    def test_non_integer_index_names_its_key(self, tmp_path, key):
        mpath = _write_series(tmp_path)
        text = "\n".join(f"{key} = two" if l.startswith(key) else l for l in mpath.read_text().splitlines())
        mpath.write_text(text + "\n")
        with pytest.raises(FormatError) as excinfo:
            io.read_manifest(mpath)
        assert excinfo.value.field == key

    def test_out_of_range_index(self, tmp_path):
        mpath = _write_series(tmp_path, n_frames=10, es=3, ed=12)
        with pytest.raises(FormatError, match="out of range"):
            io.read_manifest(mpath)

    def test_missing_key(self, tmp_path):
        mpath = _write_series(tmp_path)
        text = "\n".join(l for l in mpath.read_text().splitlines() if not l.startswith("vendor"))
        mpath.write_text(text)
        with pytest.raises(FormatError, match="vendor"):
            io.read_manifest(mpath)

    def test_missing_file(self, tmp_path):
        mpath = _write_series(tmp_path)
        (tmp_path / "frame_002.mvol").unlink()
        with pytest.raises(FormatError, match="missing"):
            io.read_manifest(mpath)

    @pytest.mark.parametrize("key, field", [("frame", "frame"), ("es_label", "label")])
    def test_file_name_too_long_names_its_key(self, tmp_path, key, field):
        # Path.is_file returns False only for a missing file: a name past the file system's limit raises OSError
        mpath = _write_series(tmp_path)
        name = "x" * 300 + ".mvol"
        lines = mpath.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(f"{key} = "))
        lines[at] = f"{key} = {name}"
        mpath.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=name) as excinfo:
            io.read_manifest(mpath)
        assert excinfo.value.field == field

    def test_unknown_key_rejected(self, tmp_path):
        mpath = _write_series(tmp_path)
        mpath.write_text(mpath.read_text() + "bogus = 1\n")
        with pytest.raises(FormatError, match="bogus"):
            io.read_manifest(mpath)

    def test_write_read_round_trip(self, tmp_path):
        mpath = _write_series(tmp_path)
        m = io.read_manifest(mpath)
        out = tmp_path / "copy.txt"
        io.write_manifest(m, out)
        m2 = io.read_manifest(out)
        assert m2.frame_paths == m.frame_paths
        assert (m2.es_index, m2.ed_index) == (m.es_index, m.ed_index)

    def test_load_series(self, tmp_path):
        mpath = _write_series(tmp_path)
        series = io.load_series(io.read_manifest(mpath))
        assert series.n_frames == 4
        assert series.es_index == 0 and series.ed_index == 3


class TestFileModes:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
    def test_outputs_follow_the_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            io.write_mvol(LabelMap(np.zeros((2, 2, 2), dtype=np.uint8)), tmp_path / "a.mvol")
            io.write_text("key = value\n", tmp_path / "a.txt")
        finally:
            os.umask(old)
        # and no temporary file is left beside them
        assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()} == {"a.mvol": mode, "a.txt": mode}


class TestReports:
    def test_propagation_report_round_trip(self, tmp_path):
        from cineprop.propagation import PropagationResult

        lab = LabelMap(np.zeros((2, 2, 2), dtype=np.uint8))
        results = [
            PropagationResult(1, lab, 0.25, 0.75),
            PropagationResult(2, lab, 0.8, 0.3),
        ]
        failures = [(3, DegenerateInputError("moving image\nis constant"))]
        path = tmp_path / "prop.txt"
        io.write_propagation_report(results, {"subject": "s", "frames": 5}, path, failures)
        records = io.read_propagation_report(path)
        assert [r["frame"] for r in records] == [1, 2, 3]
        assert records[0]["chosen"] == "ES" and records[1]["chosen"] == "ED"
        assert records[0]["es_norm_mm"] == 0.25
        assert records[1]["ed_norm_mm"] == 0.3
        assert records[2] == {"frame": 3, "error": "moving image is constant"}

    def test_report_line_without_equals_is_format_error(self, tmp_path):
        path = tmp_path / "prop.txt"
        path.write_text("frame = 1\nchosen ES\n")
        with pytest.raises(FormatError, match="prop.txt:2"):
            io.read_propagation_report(path)

    def test_case_report_format(self):
        from cineprop.metrics import CaseReport, ClassReport

        report = CaseReport(
            {
                "LV": ClassReport(1.0, 0.0, 10, 10),
                "MYO": ClassReport(0.5, 2.25, 4, 4),
                "RV": ClassReport(0.0, None, 0, 7),
            }
        )
        lines = io.evaluation_report([("case0", report)]).splitlines()
        assert lines[:3] == ["cases = 1", "case = case0", "classes = LV,MYO,RV"]
        assert "LV.dice = 1.0" in lines
        assert "RV.hausdorff_mm = absent" in lines
        assert "mean.LV.dice = 1.0" in lines
        assert "mean.RV.hausdorff_mm = absent" in lines


# blanks, comment and separator characters and line breaks as str.splitlines sees them, among plain letters
_TEXT_ALPHABET = "abcdefgh7_.-é  =#\t\n\r\x0b\x0c\x1c\x85\u2028"


def _random_text(rng: random.Random, max_len: int = 5) -> str:
    return "".join(rng.choice(_TEXT_ALPHABET) for _ in range(rng.randrange(max_len + 1)))


class TestTextRoundTrip:
    def test_text_refuses_exactly_what_pairs_cannot_read_back(self):
        rng = random.Random(26)
        path = Path("t.txt")
        written = refused = 0
        for _ in range(3000):
            key, value = _random_text(rng), _random_text(rng)
            try:  # the oracle: the reader's view of the line written as is
                readable = list(io._pairs(path, f"{key} = {value}\n")) == [(1, key, value)]
            except FormatError:
                readable = False
            if readable:
                assert list(io._pairs(path, io._text([(key, value)]))) == [(1, key, value)]
                written += 1
            else:
                with pytest.raises(InvalidParameterError, match="would not read back"):
                    io._text([("k", 1), (key, value)])
                refused += 1
        assert written > 200 and refused > 200

    def test_manifest_reads_back_or_is_refused(self, tmp_path):
        rng = random.Random(27)
        base = io.read_manifest(_write_series(tmp_path))
        out = tmp_path / "copy.txt"
        written = 0
        for _ in range(300):
            m = dataclasses.replace(base, **{rng.choice(["subject_id", "vendor", "center"]): _random_text(rng)})
            try:
                io.write_manifest(m, out)
            except InvalidParameterError:
                assert not out.exists()
                continue
            assert io.read_manifest(out) == m
            out.unlink()
            written += 1
        assert written > 30

    def test_propagation_report_reads_back_or_is_refused(self, tmp_path):
        from cineprop.propagation import PropagationResult

        rng = random.Random(28)
        result = PropagationResult(1, LabelMap(np.zeros((2, 2, 2), dtype=np.uint8)), 0.5, 1.5)
        path = tmp_path / "prop.txt"
        written = 0
        for _ in range(300):
            subject, message = _random_text(rng), _random_text(rng, max_len=12)
            try:
                io.write_propagation_report([result], {"subject": subject}, path, [(2, DegenerateInputError(message))])
            except InvalidParameterError:  # only the subject can be refused: error messages are made safe
                assert not path.exists()
                with pytest.raises(InvalidParameterError):
                    io._text([("subject", subject)])
                continue
            assert next(io._pairs(path, path.read_text(encoding="utf-8")))[1:] == ("subject", subject)
            records = io.read_propagation_report(path)
            assert records[1] == {"frame": 2, "error": " ".join(message.split()).replace("#", "%23")}
            path.unlink()
            written += 1
        assert written > 30

    def test_error_message_hash_is_written_escaped(self, tmp_path):
        path = tmp_path / "prop.txt"
        io.write_propagation_report([], {"subject": "s"}, path, [(2, DegenerateInputError("bad # thing"))])
        assert io.read_propagation_report(path) == [{"frame": 2, "error": "bad %23 thing"}]
