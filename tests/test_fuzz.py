"""Reader fuzz: every corrupted input either reads or raises ``FormatError``, and warns nothing.

Seeded stdlib ``random`` corrupts valid MVOL, NIfTI-1 and manifest files:
bytes overwritten in header fields and payload, lines dropped or repeated,
files cut short or extended.  The whole module runs in well under 2 s.
"""

import random
import warnings
from collections import Counter

import numpy as np
import pytest

from cineprop import io
from cineprop.errors import FormatError
from cineprop.volume import LabelMap, ScalarVolume
from helpers import build_nifti_bytes

# the bytes of the NIfTI-1 header fields read_nifti1 reads: sizeof_hdr, dim, datatype, pixdim[0..3],
# vox_offset, scl_slope, scl_inter and magic
NIFTI_FIELD_BYTES = [*range(0, 4), *range(40, 56), *range(70, 72), *range(76, 92), *range(108, 120), *range(344, 348)]


def _corrupt(rng: random.Random, raw: bytes, spots, values=range(256)) -> bytes:
    """``raw`` cut short, extended by random bytes, or with one to four bytes at ``spots`` set to one of ``values``."""
    data = bytearray(raw)
    roll = rng.random()
    if roll < 0.1:
        del data[rng.randrange(len(data)) :]
    elif roll < 0.2:
        data += rng.randbytes(rng.randint(1, 8))
    else:
        for _ in range(rng.randint(1, 4)):
            data[rng.choice(spots)] = rng.choice(values)
    return bytes(data)


def _outcomes(read, path, variants) -> Counter:
    """How many ``variants``, written to ``path``, ``read`` reads and how many it refuses; anything else fails."""
    seen = Counter()
    for raw in variants:
        path.write_bytes(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                read(path)
            except FormatError:
                seen["refused"] += 1
            else:
                seen["read"] += 1
    return seen


@pytest.mark.parametrize("kind", ["scalar", "label"])
def test_mvol(tmp_path, kind):
    rng = random.Random(f"mvol-{kind}")
    data = np.random.default_rng(1).normal(100.0, 25.0, size=(3, 4, 2))
    if kind == "scalar":
        vol = ScalarVolume(data.astype(np.float32), (1.25, 1.25, 8.0))
    else:
        vol = LabelMap((np.abs(data) % 4).astype(np.uint8), (1.25, 1.25, 8.0))
    path = tmp_path / "v.mvol"
    io.write_mvol(vol, path)
    raw = path.read_bytes()
    spots = [*range(io.MVOL_HEADER.size)] * 2 + [*range(io.MVOL_HEADER.size, len(raw))]
    seen = _outcomes(io.read_mvol, path, (_corrupt(rng, raw, spots) for _ in range(600)))
    assert seen["read"] > 30 and seen["refused"] > 300


@pytest.mark.parametrize("endian", ["<", ">"], ids=["little-endian", "big-endian"])
@pytest.mark.parametrize("dtype", [np.int16, np.float32, np.float64])
def test_nifti1(tmp_path, dtype, endian):
    rng = random.Random(f"nifti-{np.dtype(dtype).name}-{endian}")
    data = np.random.default_rng(2).normal(100.0, 25.0, size=(3, 3, 2)).astype(dtype)
    raw = build_nifti_bytes(data, spacing=(1.25, 1.25, 8.0), endian=endian)
    spots = NIFTI_FIELD_BYTES + [*range(352, len(raw))]
    seen = _outcomes(io.read_nifti1, tmp_path / "v.nii", (_corrupt(rng, raw, spots) for _ in range(300)))
    assert seen["read"] > 30 and seen["refused"] > 100


def test_manifest(tmp_path):
    rng = random.Random("manifest")
    for name in ("f0.mvol", "f1.mvol", "f2.mvol", "es.mvol", "ed.mvol"):
        (tmp_path / name).write_bytes(b"")  # read_manifest checks that each exists, and reads none
    lines = [
        b"subject = s1\n",
        b"vendor = A\n",
        b"center = 1\n",
        b"es_index = 0\n",
        b"ed_index = 2\n",
        b"es_label = es.mvol\n",
        b"ed_label = ed.mvol\n",
        *(b"frame = f%d.mvol\n" % t for t in range(3)),
    ]
    path = tmp_path / "manifest.txt"

    def variant() -> bytes:
        edited = list(lines)
        if rng.random() < 0.3:  # a key dropped or repeated
            line = edited.pop(rng.randrange(len(edited)))
            if rng.random() < 0.5:
                edited.insert(rng.randrange(len(edited) + 1), line)
                edited.insert(rng.randrange(len(edited) + 1), line)
        raw = b"".join(edited)
        return _corrupt(rng, raw, range(len(raw)), values=b"=#  \n\r\t0129-xa\xff\x85") if rng.random() < 0.8 else raw

    seen = _outcomes(io.read_manifest, path, (variant() for _ in range(1500)))
    assert seen["read"] > 100 and seen["refused"] > 500
