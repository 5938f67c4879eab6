"""Bit-exact persistence: MVOL volumes, NIfTI-1 ingestion, manifests, reports.

MVOL is the canonical interchange format of this package::

    offset  size  field
    0       4     magic "MVL1"
    4       1     kind: 0 = scalar float32, 1 = label uint8
    5       12    dims: three uint32, little-endian (nx, ny, nz)
    17      12    spacing: three float32, little-endian, mm per voxel
    29      ...   payload, row-major x-fastest; float32 LE (kind 0) or uint8 (kind 1)

NIfTI-1 is ingestion-only: uncompressed single-file ``.nii`` with the standard
348-byte header.  There is deliberately no NIfTI writer.

Manifests, reports and summaries are line-oriented ``key = value`` text,
written by ``_text`` and read by ``_pairs``; ``#`` starts a comment.  So that
every line reads back as written, ``_text`` refuses, with an
``InvalidParameterError`` and before anything is written, a key or value that
holds a ``#`` or a line break (any that ``str.splitlines`` splits at, carriage
return and NEL included) or that begins or ends with a blank, and a key that
holds ``=``.  Manifest keys: ``subject``, ``vendor``, ``center``,
``es_index``, ``ed_index``, ``es_label``, ``ed_label``, and one ``frame`` line
per timeframe (in temporal order).  Paths are taken relative to the
manifest's directory.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidParameterError
from .volume import CineSeries, LabelMap, ScalarVolume

MVOL_MAGIC = b"MVL1"
MVOL_HEADER = struct.Struct("<4sB3I3f")
KIND_SCALAR = 0
KIND_LABEL = 1

NIFTI_HEADER_SIZE = 348
NIFTI_MAGIC_SINGLE = b"n+1\x00"
NIFTI_MAGIC_PAIR = b"ni1\x00"
# NIfTI-1 datatype code -> numpy dtype (unsupported codes are rejected)
NIFTI_DTYPES = {
    2: np.dtype(np.uint8),
    4: np.dtype(np.int16),
    16: np.dtype(np.float32),
    64: np.dtype(np.float64),
    512: np.dtype(np.uint16),
}


def _atomic_write(path, payload: bytes) -> None:
    """Write bytes via a temp file + rename so no partial file is ever visible.

    The file gets mode 0666 less the process umask, as ``open`` would give it:
    0644 under the usual umask 0022.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp"  # a sibling, so the rename stays on one file system
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(text: str, path) -> None:
    """Write a text report atomically, UTF-8 encoded."""
    _atomic_write(path, text.encode())


def write_mvol(obj, path) -> None:
    """Write a ScalarVolume or LabelMap to ``path`` in MVOL format."""
    if isinstance(obj, ScalarVolume):
        kind, payload = KIND_SCALAR, obj.voxels.astype("<f4").tobytes()
    elif isinstance(obj, LabelMap):
        kind, payload = KIND_LABEL, obj.voxels.tobytes()
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    with np.errstate(over="ignore"):  # a spacing past the float32 range becomes inf, rejected below
        spacing32 = tuple(np.float32(s) for s in obj.spacing)
    if not all(math.isfinite(s) and s > 0 for s in spacing32):
        raise FormatError("spacing", f"spacing {obj.spacing} does not fit the float32 header")
    _atomic_write(path, MVOL_HEADER.pack(MVOL_MAGIC, kind, *obj.dims, *spacing32) + payload)


def read_mvol(path) -> ScalarVolume | LabelMap:
    """Read an MVOL file; the header's kind decides the returned type."""
    raw = Path(path).read_bytes()
    if len(raw) < MVOL_HEADER.size:
        raise FormatError("header", f"file too short for header ({len(raw)} bytes)")
    magic, kind, nx, ny, nz, sx, sy, sz = MVOL_HEADER.unpack_from(raw)
    if magic != MVOL_MAGIC:
        raise FormatError("magic", f"expected {MVOL_MAGIC!r}, got {magic!r}")
    if kind not in (KIND_SCALAR, KIND_LABEL):
        raise FormatError("kind", f"unknown kind {kind}")
    if min(nx, ny, nz) < 1:
        raise FormatError("dims", f"non-positive dims ({nx}, {ny}, {nz})")
    if not all(math.isfinite(s) and s > 0 for s in (sx, sy, sz)):
        raise FormatError("spacing", f"spacing must be positive and finite, got ({sx}, {sy}, {sz})")
    dims, spacing = (nx, ny, nz), (sx, sy, sz)
    count = nx * ny * nz
    body = raw[MVOL_HEADER.size :]
    itemsize = 4 if kind == KIND_SCALAR else 1
    if len(body) != count * itemsize:
        raise FormatError("payload", f"expected {count * itemsize} bytes, got {len(body)}")
    if kind == KIND_SCALAR:
        flat = np.frombuffer(body, dtype="<f4")
        if not np.all(np.isfinite(flat)):
            raise FormatError("payload", "non-finite voxel values")
        return ScalarVolume(flat.reshape(dims, order="F"), spacing)
    flat = np.frombuffer(body, dtype=np.uint8)
    if flat.max(initial=0) > 3:
        raise FormatError("label range", f"label code {int(flat.max())} outside {{0,1,2,3}}")
    return LabelMap(flat.reshape(dims, order="F"), spacing)


def read_nifti1(path, *, as_labels: bool = False) -> ScalarVolume | LabelMap:
    """Read an uncompressed single-file NIfTI-1 volume.

    Values are converted to float32 with scl_slope/scl_inter applied when
    slope is nonzero; spacing comes from pixdim[1..3].  With ``as_labels``
    the (scaled) values must be exact codes in {0,1,2,3}.
    """
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raise FormatError("magic", "compressed NIfTI is not supported; decompress first")
    if len(raw) < NIFTI_HEADER_SIZE:
        raise FormatError("header", f"file too short for NIfTI-1 header ({len(raw)} bytes)")
    magic = raw[344:348]
    if magic == NIFTI_MAGIC_PAIR:
        raise FormatError("magic", "two-file NIfTI (.hdr/.img) is not supported")
    if magic != NIFTI_MAGIC_SINGLE:
        raise FormatError("magic", f"expected {NIFTI_MAGIC_SINGLE!r}, got {magic!r}")

    endian = "<"
    (sizeof_hdr,) = struct.unpack_from("<i", raw, 0)
    if sizeof_hdr != NIFTI_HEADER_SIZE:
        (sizeof_hdr,) = struct.unpack_from(">i", raw, 0)
        if sizeof_hdr != NIFTI_HEADER_SIZE:
            raise FormatError("sizeof_hdr", "not a NIfTI-1 header (sizeof_hdr != 348)")
        endian = ">"

    dim = struct.unpack_from(endian + "8h", raw, 40)
    (datatype,) = struct.unpack_from(endian + "h", raw, 70)
    pixdim = struct.unpack_from(endian + "8f", raw, 76)
    (vox_offset,) = struct.unpack_from(endian + "f", raw, 108)
    scl_slope, scl_inter = struct.unpack_from(endian + "2f", raw, 112)

    ndim = dim[0]
    if ndim < 3 or ndim > 7:
        raise FormatError("dim", f"expected a 3D volume, got dim[0]={ndim}")
    if any(dim[d] != 1 for d in range(4, ndim + 1)):
        raise FormatError("dim", f"trailing dims must be 1 for 3D data, got {dim[1:ndim + 1]}")
    dims = tuple(int(n) for n in dim[1:4])
    if min(dims) < 1:
        raise FormatError("dim", f"non-positive dims {dims}")

    if datatype not in NIFTI_DTYPES:
        raise FormatError("datatype", f"unsupported datatype code {datatype}")
    dtype = NIFTI_DTYPES[datatype].newbyteorder(endian)

    if not (math.isfinite(vox_offset) and vox_offset == int(vox_offset)):
        raise FormatError("vox_offset", f"vox_offset must be a finite whole number, got {vox_offset}")
    offset = int(vox_offset)
    if offset < NIFTI_HEADER_SIZE:
        raise FormatError("vox_offset", f"vox_offset {vox_offset} precedes the header end")
    count = dims[0] * dims[1] * dims[2]
    body = raw[offset : offset + count * dtype.itemsize]
    if len(body) != count * dtype.itemsize:
        raise FormatError("payload", f"expected {count * dtype.itemsize} bytes, got {len(body)}")

    values = np.frombuffer(body, dtype=dtype).astype(np.float64)
    if scl_slope != 0.0 and np.isfinite(scl_slope):
        values = values * np.float64(scl_slope) + np.float64(scl_inter)
    if not np.all(np.isfinite(values)):
        raise FormatError("payload", "non-finite voxel values")
    grid = values.reshape(dims, order="F")
    spacing = tuple(float(p) for p in pixdim[1:4])
    if not all(math.isfinite(s) and s > 0 for s in spacing):
        raise FormatError("pixdim", f"voxel spacing must be positive and finite, got {spacing}")

    if not as_labels:
        with np.errstate(over="ignore"):  # a value past the float32 range becomes inf, rejected below
            voxels = grid.astype(np.float32)
        if not np.all(np.isfinite(voxels)):
            raise FormatError("payload", "voxel values beyond the float32 range")
        return ScalarVolume(voxels, spacing)
    rounded = np.rint(grid)
    if not np.array_equal(rounded, grid) or grid.min() < 0 or grid.max() > 3:
        raise FormatError("label range", "values are not label codes in {0,1,2,3}")
    return LabelMap(rounded.astype(np.uint8), spacing)


def _read_grid(path, kind: type, mismatch: str) -> ScalarVolume | LabelMap:
    """Read a ``kind`` grid by extension (.mvol or .nii); an MVOL of the other kind ``holds {mismatch}``."""
    path = Path(path)
    if path.suffix == ".nii":
        return read_nifti1(path, as_labels=kind is LabelMap)
    grid = read_mvol(path)
    if not isinstance(grid, kind):
        raise FormatError("kind", f"{path.name} holds {mismatch}")
    return grid


def read_volume(path) -> ScalarVolume:
    """Read a scalar volume, dispatching on extension (.mvol or .nii)."""
    return _read_grid(path, ScalarVolume, "labels, expected a scalar volume")


def read_labels(path) -> LabelMap:
    """Read a label map, dispatching on extension (.mvol or .nii)."""
    return _read_grid(path, LabelMap, "scalars, expected a label map")


def holds_scalars(path) -> bool:
    """Whether ``path`` begins as an MVOL scalar volume (kind 0) does; only its first five bytes are read."""
    with open(path, "rb") as f:
        return f.read(len(MVOL_MAGIC) + 1) == MVOL_MAGIC + bytes([KIND_SCALAR])


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def _text(pairs) -> str:
    """One ``key = value`` line per ``(key, value)`` pair; ``None`` is written ``absent``.

    A pair that ``_pairs`` would not read back as itself is an ``InvalidParameterError`` naming it.
    """
    lines = []
    for key, value in pairs:
        text = _fmt(value)
        if "=" in key or any("#" in s or s != s.strip() or len(s.splitlines()) > 1 for s in (key, text)):
            raise InvalidParameterError(f"{key!r} = {text!r} would not read back from a 'key = value' line")
        lines.append(f"{key} = {text}\n")
    return "".join(lines)


def _pairs(path: Path, text: str):
    """``(lineno, key, value)`` per ``key = value`` line of ``text`` (read from ``path``); ``#`` starts a comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError("syntax", f"{path.name}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, key, value


@dataclass(frozen=True)
class CineManifest:
    """On-disk description of one subject's cine series."""

    subject_id: str
    frame_paths: tuple[Path, ...]
    es_index: int
    ed_index: int
    es_label_path: Path
    ed_label_path: Path
    vendor: str
    center: str


_MANIFEST_KEYS = ("subject", "vendor", "center", "es_index", "ed_index", "es_label", "ed_label")


def read_manifest(path) -> CineManifest:
    """Parse and validate a cine manifest file, UTF-8 encoded as ``write_manifest`` writes it."""
    path = Path(path)
    values: dict[str, str] = {}
    frames: list[str] = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError("encoding", f"{path}: not valid UTF-8 (byte {exc.start})") from None
    for lineno, key, value in _pairs(path, text):
        if key == "frame":
            frames.append(value)
        elif key in _MANIFEST_KEYS:
            if key in values:
                raise FormatError(key, f"{path.name}:{lineno}: duplicate key")
            values[key] = value
        else:
            raise FormatError(key, f"{path.name}:{lineno}: unknown key")

    for key in _MANIFEST_KEYS:
        if key not in values:
            raise FormatError(key, f"{path.name}: missing key")
    if not frames:
        raise FormatError("frame", f"{path.name}: no frames listed")

    indices = []
    for key in ("es_index", "ed_index"):
        try:
            indices.append(int(values[key]))
        except ValueError as exc:
            raise FormatError(key, f"{path.name}: {key} must be an integer, got {values[key]!r}") from exc
    es_index, ed_index = indices
    if es_index == ed_index:
        raise FormatError("es_index", f"{path.name}: es_index and ed_index are both {es_index}")
    for name, idx in (("es_index", es_index), ("ed_index", ed_index)):
        if not 0 <= idx < len(frames):
            raise FormatError(name, f"{path.name}: frame index {idx} out of range for {len(frames)} frames")

    base = path.parent
    frame_paths = tuple(base / f for f in frames)
    es_label = base / values["es_label"]
    ed_label = base / values["ed_label"]
    for p in (*frame_paths, es_label, ed_label):
        key = "frame" if p in frame_paths else "label"
        try:
            found = p.is_file()
        except OSError as exc:  # is_file reports only a missing file as False: a name too long, say, raises
            raise FormatError(key, f"referenced file unreadable: {p}: {exc.strerror}") from None
        if not found:
            raise FormatError(key, f"referenced file missing: {p}")

    return CineManifest(
        subject_id=values["subject"],
        frame_paths=frame_paths,
        es_index=es_index,
        ed_index=ed_index,
        es_label_path=es_label,
        ed_label_path=ed_label,
        vendor=values["vendor"],
        center=values["center"],
    )


def write_manifest(manifest: CineManifest, path) -> None:
    """Write a manifest; paths are recorded relative to the manifest directory."""
    path = Path(path)
    base = path.parent

    def rel(p: Path) -> str:
        try:
            return os.path.relpath(p, base)
        except ValueError:
            return str(p)

    m = manifest
    values = (m.subject_id, m.vendor, m.center, m.es_index, m.ed_index, rel(m.es_label_path), rel(m.ed_label_path))
    write_text(_text([*zip(_MANIFEST_KEYS, values), *(("frame", rel(p)) for p in m.frame_paths)]), path)


def load_series(manifest: CineManifest) -> CineSeries:
    """Load every file a manifest references into an in-memory series; a file off frame 0's grid is a FormatError."""
    frames = tuple(read_volume(p) for p in manifest.frame_paths)
    labels = read_labels(manifest.es_label_path), read_labels(manifest.ed_label_path)
    paths = (*manifest.frame_paths, manifest.es_label_path, manifest.ed_label_path)
    grid = (frames[0].dims, frames[0].spacing)
    for path, vol in zip(paths, (*frames, *labels)):
        if (vol.dims, vol.spacing) != grid:
            raise FormatError("grid", f"{path} has dims and spacing {(vol.dims, vol.spacing)}, {paths[0]} has {grid}")
    return CineSeries(
        frames=frames,
        es_index=manifest.es_index,
        ed_index=manifest.ed_index,
        es_label=labels[0],
        ed_label=labels[1],
    )


def evaluation_report(cases) -> str:
    """The text of ``evaluation_report.txt``: per-case metric reports as ``key = value`` lines, then per-class means.

    ``cases`` is a sequence of ``(name, CaseReport)`` pairs.  A class's keys are
    the ``ClassReport`` field names, in field order; ``absent`` is a Hausdorff
    distance that is undefined.
    """
    pairs: list = [("cases", len(cases))]
    for name, report in cases:
        pairs += [("case", name), ("classes", ",".join(report.entries))]
        for cls, entry in report.entries.items():
            pairs += [(f"{cls}.{f.name}", getattr(entry, f.name)) for f in fields(entry)]
    for cls in cases[0][1].entries if cases else ():
        dices = [rep.entries[cls].dice for _, rep in cases]
        defined = [rep.entries[cls].hausdorff_mm for _, rep in cases if rep.entries[cls].hausdorff_mm is not None]
        pairs.append((f"mean.{cls}.dice", sum(dices) / len(dices)))
        pairs.append((f"mean.{cls}.hausdorff_mm", sum(defined) / len(defined) if defined else None))
    return _text(pairs)


def write_propagation_report(results, series_info: dict, path, failures=()) -> None:
    """Write one record per frame, in frame order.

    A propagated frame's record holds the chosen template and both norms; a failed frame's, given as a
    ``(frame_index, exception)`` of ``failures``, holds its message on one line as ``error``, each ``#``
    written ``%23``.
    """
    records = [(t, [("error", " ".join(str(exc).split()).replace("#", "%23"))]) for t, exc in failures]
    for res in results:
        norms = [("es_norm_mm", float(res.es_norm)), ("ed_norm_mm", float(res.ed_norm))]
        records.append((res.frame_index, [("chosen", res.chosen_template.value), *norms]))
    pairs = [*series_info.items(), ("propagated_frames", len(results))]
    for t, record in sorted(records, key=lambda r: r[0]):
        pairs += [("frame", t), *record]
    write_text(_text(pairs), path)


def read_propagation_report(path) -> list[dict]:
    """Per-frame records of a report, one per ``frame`` key: ``frame`` an int, ``*_mm`` a float, others strings."""
    path = Path(path)
    records: list[dict] = []
    for _, key, value in _pairs(path, path.read_text(encoding="utf-8")):
        if key == "frame":
            records.append({})
        if records:
            records[-1][key] = int(value) if key == "frame" else float(value) if key.endswith("_mm") else value
    return records


def write_summary(info: dict, path) -> None:
    """Write the machine-readable run summary (``key = value`` lines)."""
    write_text(_text(info.items()), path)
