"""Golden outputs: sha256 digests of pseudo-labels and of every other subcommand's files on small seeded inputs.

A change that means to keep every output must pass this file unchanged;
one that changes outputs on purpose updates the digests and lists the changed
files. The pseudo-label digests were recorded before the demons field moved
to float32, which changed no label.

The ES/ED norms are compared at 1e-6 relative, not byte for byte. They are
float means over the total displacement field and are printed with ``repr``,
so any change in how the field is rounded moves their last digits while no
label changes: storing the demons field in float32 moved them by up to about
6e-8 relative.
"""

import hashlib
import re
import shutil

import pytest

from cineprop import cli, io
from cineprop.propagation import Template, propagate_frame
from cineprop.registration import RegistrationParams
from helpers import thick_slice_series

NORM_RTOL = 1e-6

# propagate_frame(thick_slice_series(), 1, iterations (2, 2, 2)): label-byte digest, template, ES and ED norms
THICK_FRAME = (
    "e016fd5eb357f40ee0f28676cd67b6e35c9d377b73b1f6aa0dec6d989d9a0f69",
    Template.ED,
    1.5366267624344434,
    0.9759891032452229,
)

# `phantom --frames 4`, then `propagate --iters 5,5,5`: file digest, template, ES and ED norms per pseudo-label
CLI_PHANTOM = {
    "pseudo_label_001.mvol": (
        "63f2120e9e77352fda79b6d95435f0c60f93f3927992cce0d7fdc77ee77d681d",
        "ED",
        1.7357399649918839,
        1.1696229943734333,
    ),
    "pseudo_label_002.mvol": (
        "9bb540b1fe61b768e54fe2ed0f5410a0b474225a9f686b312959eec79c46bbf5",
        "ED",
        2.6005432779418904,
        0.44236338497326216,
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


# every output file of `evaluate --out`, `histmatch`, and the two-vendor `transfer` and `report --out`
# on the `phantom --frames 4` series, the second vendor being a copy with `vendor = B`, `subject = other`.
# Vendor B's frames are the series' own, so its reference is the one `histmatch` builds and the
# transferred volumes equal the matched ones.
EVALUATE = {
    "evaluation_report.txt": "1e717e5d6a090eaa3f52fda40e77994f3b0bc3d0db00f0e5787436de0fcdf242",
    "summary.txt": "39bc4c849d4577307075066da2966ff7447dfe45653115ebf4867b5f7f8046e0",
}
HISTMATCH = {
    "matched_000.mvol": "528ab53ad5a93588dcc04fa9806d544c9fdf804ced1c71dade4936a204d0f20c",
    "matched_001.mvol": "de66b8c24190d6b2f82e1c5baa5b96bff88d649b56a1f782a1fad0901a563e78",
    "matched_002.mvol": "c4f64595496f8edabaa3620eca3fe618da82cc9a027fa609fa9e0b98fdc0ce80",
    "matched_003.mvol": "1e124a7e99f19a492b1f4572b8ac392095f4db8438699e1823c435de746eb560",
    "summary.txt": "e69c4be5cf03e797b36619db583e52cc6b86a4df42b7327c3a1debaf5b07906d",
}
TRANSFER = {
    "summary.txt": "99c88d3f748114c403e9cdea5ace8a6030080883e67749f709294621adfcdaa3",
    "transfer_phantom_000.mvol": "528ab53ad5a93588dcc04fa9806d544c9fdf804ced1c71dade4936a204d0f20c",
    "transfer_phantom_001.mvol": "de66b8c24190d6b2f82e1c5baa5b96bff88d649b56a1f782a1fad0901a563e78",
    "transfer_phantom_002.mvol": "c4f64595496f8edabaa3620eca3fe618da82cc9a027fa609fa9e0b98fdc0ce80",
    "transfer_phantom_003.mvol": "1e124a7e99f19a492b1f4572b8ac392095f4db8438699e1823c435de746eb560",
}
REPORT = {
    "histogram_report.txt": "5892f89d1065fb7efc5e605eaf3e3e73bf89ef12ab98d4357951be626b8e9e38",
    "summary.txt": "0c029749e957f697b1347b6b9fab0533b073bbc85f20bdb5f7c625562fbb31d6",
}


def _digests(directory) -> dict:
    return {p.name: _sha256(p.read_bytes()) for p in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def vendor_b_manifest(cli_phantom):
    text = re.sub(r"(?m)^vendor = .*$", "vendor = B", cli_phantom.read_text())
    path = cli_phantom.with_name("manifest_b.txt")
    path.write_text(re.sub(r"(?m)^subject = .*$", "subject = other", text))
    return path


def test_evaluate(cli_phantom, tmp_path):
    # each target predicted by a template's label unwarped: ES for frame 1, ED for frame 2
    pred = tmp_path / "pred"
    pred.mkdir()
    for target, template in ((1, 0), (2, 3)):
        shutil.copy(cli_phantom.with_name(f"label_{template:03d}.mvol"), pred / f"pseudo_label_{target:03d}.mvol")
    out = tmp_path / "eval"
    argv = ["evaluate", "--pred", str(pred), "--gt", str(cli_phantom.parent), "--out", str(out)]
    assert cli.run(argv) == cli.EXIT_OK
    assert _digests(out) == EVALUATE


def test_histmatch(cli_phantom, tmp_path):
    out = tmp_path / "matched"
    assert cli.run(["histmatch", "--manifest", str(cli_phantom), "--out", str(out)]) == cli.EXIT_OK
    assert _digests(out) == HISTMATCH


def test_transfer_and_report(cli_phantom, vendor_b_manifest, tmp_path):
    manifests = ["--manifest", str(cli_phantom), "--manifest", str(vendor_b_manifest)]
    out = tmp_path / "transfer"
    argv = ["transfer", *manifests, "--from-vendor", "synthetic", "--to-vendor", "B", "--out", str(out)]
    assert cli.run(argv) == cli.EXIT_OK
    assert _digests(out) == TRANSFER
    out = tmp_path / "report"
    assert cli.run(["report", *manifests, "--out", str(out)]) == cli.EXIT_OK
    assert _digests(out) == REPORT


# the same two commands with vendor B a second phantom, `phantom --frames 4 --seed 1` with `vendor = B`:
# B's reference has other intensities, so the transfer differs from `histmatch` and the KS is not 0
TRANSFER_TWO_PHANTOMS = {
    "summary.txt": "99c88d3f748114c403e9cdea5ace8a6030080883e67749f709294621adfcdaa3",
    "transfer_phantom_000.mvol": "d9b415bc98fdecc0dbf1b6907bf31360fb99a7af99cf8ed79f2694dfdb979980",
    "transfer_phantom_001.mvol": "470b3f032744201c25423f41b07dc62f41ea60c41247273124b981e3c1345a98",
    "transfer_phantom_002.mvol": "bfc96e89c4c5c1972adfb92f99864fcdc440703bbd5b6682171b936f4ab77294",
    "transfer_phantom_003.mvol": "895abc6af0b9072d2a81cf2ad7185732272ee7808374205797e5d7810cd03f0f",
}
REPORT_TWO_PHANTOMS = {
    "histogram_report.txt": "2b7f0c082cc57b4873a904466f708c760a99723322cb8ac7306b336aadf1099a",
    "summary.txt": "0c029749e957f697b1347b6b9fab0533b073bbc85f20bdb5f7c625562fbb31d6",
}


@pytest.fixture(scope="module")
def second_phantom_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_b") / "ph_b"
    assert cli.run(["phantom", "--frames", "4", "--seed", "1", "--out", str(out)]) == cli.EXIT_OK
    path = out / "manifest.txt"
    path.write_text(re.sub(r"(?m)^vendor = .*$", "vendor = B", path.read_text()))
    return path


def test_transfer_and_report_two_phantoms(cli_phantom, second_phantom_manifest, tmp_path):
    manifests = ["--manifest", str(cli_phantom), "--manifest", str(second_phantom_manifest)]
    out = tmp_path / "transfer"
    argv = ["transfer", *manifests, "--from-vendor", "synthetic", "--to-vendor", "B", "--out", str(out)]
    assert cli.run(argv) == cli.EXIT_OK
    transfer = _digests(out)
    assert transfer == TRANSFER_TWO_PHANTOMS
    assert all(transfer[f"transfer_phantom_{t:03d}.mvol"] != HISTMATCH[f"matched_{t:03d}.mvol"] for t in range(4))
    out = tmp_path / "report"
    assert cli.run(["report", *manifests, "--out", str(out)]) == cli.EXIT_OK
    assert _digests(out) == REPORT_TWO_PHANTOMS
    (ks,) = re.findall(r"(?m)^ks \S+ \S+ (\S+)$", (out / "histogram_report.txt").read_text())
    assert float(ks) > 0.0
