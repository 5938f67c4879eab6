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

Cine manifests are line-oriented ``key = value`` text; ``#`` starts a comment.
Required keys: ``subject``, ``vendor``, ``center``, ``es_index``, ``ed_index``,
``es_label``, ``ed_label``, and one ``frame`` line per timeframe (in temporal
order).  Paths are taken relative to the manifest's directory.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ManifestError
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
    """Write bytes via a temp file + rename so no partial file is ever visible."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", suffix=".tmp")
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
        return ScalarVolume(grid.astype(np.float32), spacing)
    rounded = np.rint(grid)
    if not np.array_equal(rounded, grid) or grid.min() < 0 or grid.max() > 3:
        raise FormatError("label range", "values are not label codes in {0,1,2,3}")
    return LabelMap(rounded.astype(np.uint8), spacing)


def read_volume(path) -> ScalarVolume:
    """Read a scalar volume, dispatching on extension (.mvol or .nii)."""
    path = Path(path)
    if path.suffix == ".nii":
        vol = read_nifti1(path)
    else:
        vol = read_mvol(path)
    if not isinstance(vol, ScalarVolume):
        raise FormatError("kind", f"{path.name} holds labels, expected a scalar volume")
    return vol


def read_labels(path) -> LabelMap:
    """Read a label map, dispatching on extension (.mvol or .nii)."""
    path = Path(path)
    if path.suffix == ".nii":
        return read_nifti1(path, as_labels=True)
    lm = read_mvol(path)
    if not isinstance(lm, LabelMap):
        raise FormatError("kind", f"{path.name} holds scalars, expected a label map")
    return lm


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
        raise ManifestError("encoding", f"{path}: not valid UTF-8 (byte {exc.start})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ManifestError("syntax", f"{path.name}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "frame":
            frames.append(value)
        elif key in _MANIFEST_KEYS:
            if key in values:
                raise ManifestError(key, f"{path.name}:{lineno}: duplicate key")
            values[key] = value
        else:
            raise ManifestError(key, f"{path.name}:{lineno}: unknown key")

    for key in _MANIFEST_KEYS:
        if key not in values:
            raise ManifestError(key, f"{path.name}: missing key")
    if not frames:
        raise ManifestError("frame", f"{path.name}: no frames listed")

    indices = []
    for key in ("es_index", "ed_index"):
        try:
            indices.append(int(values[key]))
        except ValueError as exc:
            raise ManifestError(key, f"{path.name}: {key} must be an integer, got {values[key]!r}") from exc
    es_index, ed_index = indices
    if es_index == ed_index:
        raise ManifestError("es_index", f"{path.name}: es_index and ed_index are both {es_index}")
    for name, idx in (("es_index", es_index), ("ed_index", ed_index)):
        if not 0 <= idx < len(frames):
            raise ManifestError(name, f"{path.name}: frame index {idx} out of range for {len(frames)} frames")

    base = path.parent
    frame_paths = tuple(base / f for f in frames)
    es_label = base / values["es_label"]
    ed_label = base / values["ed_label"]
    for p in (*frame_paths, es_label, ed_label):
        if not p.is_file():
            raise ManifestError("frame" if p in frame_paths else "label", f"referenced file missing: {p}")

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

    lines = [
        f"subject = {manifest.subject_id}",
        f"vendor = {manifest.vendor}",
        f"center = {manifest.center}",
        f"es_index = {manifest.es_index}",
        f"ed_index = {manifest.ed_index}",
        f"es_label = {rel(manifest.es_label_path)}",
        f"ed_label = {rel(manifest.ed_label_path)}",
    ]
    lines += [f"frame = {rel(p)}" for p in manifest.frame_paths]
    write_text("\n".join(lines) + "\n", path)


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
        subject=manifest.subject_id,
        vendor=manifest.vendor,
        center=manifest.center,
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def evaluation_report(cases) -> str:
    """The text of ``evaluation_report.txt``: per-case metric reports as ``key = value`` lines, then per-class means.

    ``cases`` is a sequence of ``(name, CaseReport)`` pairs.
    """
    lines: list[str] = [f"cases = {len(cases)}"]
    for name, report in cases:
        lines += [f"case = {name}", f"classes = {','.join(report.class_names())}"]
        for cls in report.class_names():
            entry = report.entries[cls]
            hd = "absent" if entry.hausdorff_mm is None else _fmt(entry.hausdorff_mm)
            lines.append(f"{cls}.dice = {_fmt(entry.dice)}")
            lines.append(f"{cls}.hausdorff_mm = {hd}")
            lines.append(f"{cls}.pred_voxels = {entry.pred_voxels}")
            lines.append(f"{cls}.gt_voxels = {entry.gt_voxels}")
    if cases:
        class_names = cases[0][1].class_names()
        for cls in class_names:
            dices = [rep.entries[cls].dice for _, rep in cases]
            lines.append(f"mean.{cls}.dice = {_fmt(sum(dices) / len(dices))}")
            hds = [rep.entries[cls].hausdorff_mm for _, rep in cases]
            defined = [h for h in hds if h is not None]
            mean_hd = repr(sum(defined) / len(defined)) if defined else "absent"
            lines.append(f"mean.{cls}.hausdorff_mm = {mean_hd}")
    return "\n".join(lines) + "\n"


def write_propagation_report(results, series_info: dict, path) -> None:
    """Write one record per propagated frame: chosen template and both norms."""
    lines = [f"{k} = {_fmt(v)}" for k, v in series_info.items()]
    lines.append(f"propagated_frames = {len(results)}")
    for res in results:
        lines.append(f"frame = {res.frame_index}")
        lines.append(f"chosen = {res.chosen_template.value}")
        lines.append(f"es_norm_mm = {_fmt(float(res.es_norm))}")
        lines.append(f"ed_norm_mm = {_fmt(float(res.ed_norm))}")
    write_text("\n".join(lines) + "\n", path)


def read_propagation_report(path) -> list[dict]:
    """Parse a propagation report back into per-frame records (for tooling/tests)."""
    records: list[dict] = []
    current: dict | None = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or "=" not in line:
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "frame":
            current = {"frame": int(value)}
            records.append(current)
        elif current is not None and key == "chosen":
            current["chosen"] = value
        elif current is not None and key in ("es_norm_mm", "ed_norm_mm"):
            current[key] = float(value)
    return records


def write_summary(info: dict, path) -> None:
    """Write the machine-readable run summary (``key = value`` lines)."""
    lines = [f"{k} = {_fmt(v)}" for k, v in info.items()]
    write_text("\n".join(lines) + "\n", path)
