"""Golden pseudo-labels: sha256 digests of the label bytes on small seeded inputs.

A change that means to keep every pseudo-label must pass this file unchanged;
one that changes labels on purpose updates the digests and lists the changed
files. The digests were recorded before the demons field moved to float32,
which changed no label.

The ES/ED norms are compared at 1e-6 relative, not byte for byte. They are
float means over the total displacement field and are printed with ``repr``,
so any change in how the field is rounded moves their last digits while no
label changes: storing the demons field in float32 moved them by up to about
6e-8 relative.
"""

import hashlib

import pytest

from cineprop import cli, io
from cineprop.propagation import Template, propagate_frame
from cineprop.registration import RegistrationParams
from helpers import thick_slice_series

NORM_RTOL = 1e-6

# propagate_frame(thick_slice_series(), 1, iterations (2, 2, 2)): label-byte digest, template, ES and ED norms
THICK_FRAME = (
    "bec4efb69abef10669518619f749e83e6d2e511c6cf1d936cf1c8b3af0834f07",
    Template.ES,
    1.2991502316360313,
    1.7193584946364542,
)

# `phantom --frames 4`, then `propagate --iters 5,5,5`: file digest, template, ES and ED norms per pseudo-label
CLI_PHANTOM = {
    "pseudo_label_001.mvol": (
        "aa689717a5267e315b194b12269298e273270dcc2a53aa568f524d12cc8a56ca",
        "ED",
        1.2278121818418233,
        1.0155640347966821,
    ),
    "pseudo_label_002.mvol": (
        "9bb540b1fe61b768e54fe2ed0f5410a0b474225a9f686b312959eec79c46bbf5",
        "ED",
        2.657962042524813,
        0.4372210163609655,
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_thick_slice_frame():
    params = RegistrationParams(pyramid_levels=3, iterations_per_level=(2, 2, 2))
    result = propagate_frame(thick_slice_series(), 1, params)
    digest, template, es_norm, ed_norm = THICK_FRAME
    assert _sha256(result.pseudo_label.data.tobytes()) == digest
    assert result.chosen_template is template
    assert result.es_norm == pytest.approx(es_norm, rel=NORM_RTOL)
    assert result.ed_norm == pytest.approx(ed_norm, rel=NORM_RTOL)


@pytest.fixture(scope="module")
def cli_phantom(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "ph"
    assert cli.run(["phantom", "--frames", "4", "--out", str(out)]) == cli.EXIT_OK
    return out / "manifest.txt"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_phantom(cli_phantom, tmp_path, workers):
    out = tmp_path / "pseudo"
    argv = ["propagate", "--manifest", str(cli_phantom), "--out", str(out), "--iters", "5,5,5", "--workers", workers]
    assert cli.run(argv) == cli.EXIT_OK
    digests = {p.name: _sha256(p.read_bytes()) for p in sorted(out.glob("pseudo_label_*.mvol"))}
    assert digests == {name: want[0] for name, want in CLI_PHANTOM.items()}
    records = io.read_propagation_report(out / "propagation_report.txt")
    for record, (name, (_, template, es_norm, ed_norm)) in zip(records, CLI_PHANTOM.items(), strict=True):
        assert f"pseudo_label_{record['frame']:03d}.mvol" == name
        assert record["chosen"] == template
        assert record["es_norm_mm"] == pytest.approx(es_norm, rel=NORM_RTOL)
        assert record["ed_norm_mm"] == pytest.approx(ed_norm, rel=NORM_RTOL)
