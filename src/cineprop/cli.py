"""Command-line pipeline: phantom generation, propagation, harmonization, evaluation.

Subcommands::

    phantom    generate a synthetic beating-heart cine series (MVOL + manifest)
    propagate  propagate template labels to unlabeled frames of a series
    histmatch  match every frame of a series to its own pooled reference
    transfer   re-style volumes from one vendor to another vendor's reference
    evaluate   per-class Dice/Hausdorff between two directories of label maps
    report     per-group intensity histograms and pairwise KS statistics

Exit codes: 0 success, 2 usage error, 3 I/O or file-format error,
4 algorithmic degeneracy (constant images, empty masks where forbidden).
``propagate --iters``, its one registration flag, gives the iterations of
each pyramid level, coarse to fine, so its length sets the number of levels.
Every stage scores with NCC.  The ``CINEPROP_WORKERS`` environment variable
sets the default worker count; the ``--workers`` flag overrides it.  A worker
count from either that is not an integer >= 1, an ``--iters`` that is empty,
malformed, has an empty entry or has a count below 1, an ``--n-ref-volumes``
below 1, a ``--seed`` below 0 and a ``--bins`` below 2 are usage errors (exit
code 2) that name the flag, found before any input is read or any directory
made.  ``--n-ref-volumes`` above the number of reference volumes is capped to
it.  ``transfer`` exits 3 before reading any volume when a from-vendor
subject, which names its output files, is in two manifests or contains a path
separator; ``evaluate``, pairing by trailing index, exits 3 when two label
files of one directory share an index, and exits 3 naming both files when a
pair differs in dims or spacing; a series whose frames or labels differ from
its first frame in dims or spacing exits 3 too, naming both files.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from . import io
from .errors import (
    CinepropError,
    DegenerateInputError,
    EmptyMaskError,
    FormatError,
    InvalidParameterError,
    InvalidTargetError,
    MissingVendorError,
    SeriesPropagationError,
)
from .metrics import evaluate_case
from .phantom import PhantomSpec, generate_cine
from .propagation import propagate_series
from .registration import RegistrationParams
from .style import build_reference, histogram_match, histogram_report, vendor_transfer

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DEGENERATE = 4


def _integer_at_least(raw, minimum: int, source: str) -> int:
    """``raw`` as an integer >= ``minimum``; ``source`` names the flag or variable it came from."""
    invalid = InvalidParameterError(f"{source} must be an integer >= {minimum}, got {raw!r}")
    try:
        value = int(raw)
    except ValueError:
        raise invalid from None
    if value < minimum:
        raise invalid
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cineprop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_phantom = sub.add_parser("phantom", help="generate a synthetic cine series")
    p_phantom.add_argument("--frames", type=int, default=11)
    p_phantom.add_argument("--out", required=True)
    p_phantom.add_argument("--seed", type=int, default=0)

    p_prop = sub.add_parser("propagate", help="propagate template labels to unlabeled frames")
    p_prop.add_argument("--manifest", required=True)
    p_prop.add_argument("--out", required=True)
    p_prop.add_argument("--workers", type=int, default=None)
    default_iters = ",".join(map(str, RegistrationParams().iterations_per_level))
    p_prop.add_argument("--iters", default=default_iters, help="comma list, coarse to fine")

    p_match = sub.add_parser("histmatch", help="match each frame to the series' pooled reference")
    p_match.add_argument("--manifest", required=True)
    p_match.add_argument("--out", required=True)
    p_match.add_argument("--n-ref-volumes", type=int, default=100)
    p_match.add_argument("--seed", type=int, default=0)

    p_transfer = sub.add_parser("transfer", help="re-style one vendor's volumes to another's")
    p_transfer.add_argument("--manifest", action="append", required=True)
    p_transfer.add_argument("--from-vendor", required=True)
    p_transfer.add_argument("--to-vendor", required=True)
    p_transfer.add_argument("--out", required=True)
    p_transfer.add_argument("--n-ref-volumes", type=int, default=100)
    p_transfer.add_argument("--seed", type=int, default=0)

    p_eval = sub.add_parser("evaluate", help="Dice/Hausdorff between two label directories")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--gt", required=True)
    p_eval.add_argument("--out", default=None)

    p_report = sub.add_parser("report", help="histogram report across manifests")
    p_report.add_argument("--manifest", action="append", required=True)
    p_report.add_argument("--bins", type=int, default=64)
    p_report.add_argument("--out", default=None)

    return parser


def _cmd_phantom(args) -> int:
    seed = _integer_at_least(args.seed, 0, "--seed")
    spec = PhantomSpec(  # validated before the output directory is made
        frames=args.frames,
        es_index=0,
        ed_index=args.frames - 1,
        seed=seed,
        noise_sigma=10.0,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cine = generate_cine(spec)
    frame_paths = []
    for t, frame in enumerate(cine.series.frames):
        p = out / f"frame_{t:03d}.mvol"
        io.write_mvol(frame, p)
        frame_paths.append(p)
    for t, label in enumerate(cine.ground_truth):
        io.write_mvol(label, out / f"label_{t:03d}.mvol")
    manifest = io.CineManifest(
        subject_id=cine.series.subject,
        frame_paths=tuple(frame_paths),
        es_index=spec.es_index,
        ed_index=spec.ed_index,
        es_label_path=out / f"label_{spec.es_index:03d}.mvol",
        ed_label_path=out / f"label_{spec.ed_index:03d}.mvol",
        vendor=cine.series.vendor,
        center=cine.series.center,
    )
    io.write_manifest(manifest, out / "manifest.txt")
    io.write_summary(
        {
            "command": "phantom",
            "frames": spec.frames,
            "seed": seed,
            "dims": "x".join(str(d) for d in spec.dims),
            "manifest": "manifest.txt",
        },
        out / "summary.txt",
    )
    return EXIT_OK


def _registration_params(args) -> RegistrationParams:
    try:
        iters = tuple(int(x) for x in str(args.iters).split(","))
    except ValueError:  # also an empty entry, as in "5,,5" or "5,5,"
        iters = ()
    if not iters or min(iters) < 1:
        raise InvalidParameterError(f"--iters must be a non-empty comma list of integers >= 1, got {args.iters!r}")
    return RegistrationParams(pyramid_levels=len(iters), iterations_per_level=iters)


def _cmd_propagate(args) -> int:
    if args.workers is not None:
        workers = _integer_at_least(args.workers, 1, "--workers")
    else:
        workers = _integer_at_least(os.environ.get("CINEPROP_WORKERS", "1"), 1, "CINEPROP_WORKERS")
    params = _registration_params(args)
    manifest = io.read_manifest(args.manifest)
    series = io.load_series(manifest)
    results = propagate_series(series, params, workers=workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for res in results:
        io.write_mvol(res.pseudo_label, out / f"pseudo_label_{res.frame_index:03d}.mvol")
    info = {
        "subject": manifest.subject_id,
        "frames": len(series.frames),
        "es_index": series.es_index,
        "ed_index": series.ed_index,
    }
    io.write_propagation_report(results, info, out / "propagation_report.txt")
    io.write_summary(
        {
            "command": "propagate",
            "subject": manifest.subject_id,
            "propagated": len(results),
            "report": "propagation_report.txt",
        },
        out / "summary.txt",
    )
    return EXIT_OK


def _cmd_histmatch(args) -> int:
    n_ref = _integer_at_least(args.n_ref_volumes, 1, "--n-ref-volumes")
    seed = _integer_at_least(args.seed, 0, "--seed")
    manifest = io.read_manifest(args.manifest)
    series = io.load_series(manifest)
    corpus = list(series.frames)
    n = min(n_ref, len(corpus))
    ref = build_reference(corpus, n, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    degenerate = 0
    for t, frame in enumerate(series.frames):
        matched, flag = histogram_match(frame, ref)
        degenerate += int(flag)
        io.write_mvol(matched, out / f"matched_{t:03d}.mvol")
    io.write_summary(
        {
            "command": "histmatch",
            "subject": manifest.subject_id,
            "matched": len(series.frames),
            "n_ref_volumes": n,
            "seed": seed,
            "degenerate": degenerate,
        },
        out / "summary.txt",
    )
    return EXIT_OK


def _check_transfer_subjects(manifests, from_vendor: str) -> None:
    """Each from-vendor subject names its own output files: reject a repeated one, or one holding a path separator."""
    seen = set()
    for manifest in manifests:
        if manifest.vendor != from_vendor:
            continue
        subject = manifest.subject_id
        if any(sep and sep in subject for sep in (os.sep, os.altsep)):
            raise FormatError("subject", f"from-vendor subject {subject!r} contains a path separator")
        if subject in seen:
            raise FormatError("subject", f"from-vendor subject {subject!r} is in more than one manifest")
        seen.add(subject)


def _cmd_transfer(args) -> int:
    n_ref = _integer_at_least(args.n_ref_volumes, 1, "--n-ref-volumes")
    seed = _integer_at_least(args.seed, 0, "--seed")
    manifests = [io.read_manifest(mpath) for mpath in args.manifest]
    _check_transfer_subjects(manifests, args.from_vendor)  # before any volume is read
    volumes = []
    sources = []  # (subject, frame_index) per from-vendor volume, in order
    for manifest in manifests:
        series = io.load_series(manifest)
        for t, frame in enumerate(series.frames):
            volumes.append((frame, manifest.vendor))
            if manifest.vendor == args.from_vendor:
                sources.append((manifest.subject_id, t))
    transferred = vendor_transfer(volumes, args.from_vendor, args.to_vendor, seed, n_ref=n_ref)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for (subject, t), vol in zip(sources, transferred):
        io.write_mvol(vol, out / f"transfer_{subject}_{t:03d}.mvol")
    io.write_summary(
        {
            "command": "transfer",
            "from_vendor": args.from_vendor,
            "to_vendor": args.to_vendor,
            "transferred": len(transferred),
            "seed": seed,
        },
        out / "summary.txt",
    )
    return EXIT_OK


def _pair_label_files(pred_dir: Path, gt_dir: Path) -> list[tuple[str, Path, Path]]:
    pred_files = sorted(pred_dir.glob("*.mvol"))
    gt_files = sorted(gt_dir.glob("*.mvol"))
    if not pred_files or not gt_files:
        raise FormatError("payload", f"no .mvol files in {pred_dir if not pred_files else gt_dir}")
    gt_by_name = {p.name: p for p in gt_files}
    if all(p.name in gt_by_name for p in pred_files):
        return [(p.stem, p, gt_by_name[p.name]) for p in pred_files]

    def index_of(path: Path) -> int | None:
        matches = re.findall(r"(\d+)", path.stem)
        return int(matches[-1]) if matches else None

    def by_index(files) -> dict:  # two files of one directory with one index would pair with one partner
        found = {}
        for p in files:
            idx = index_of(p)
            if idx is not None and found.setdefault(idx, p) is not p:
                raise FormatError("payload", f"{found[idx].name} and {p.name} in {p.parent} share the index {idx}")
        return found

    def holds_scalars(path: Path) -> bool:  # an intensity frame (MVOL kind 0), as beside the labels of a series
        with path.open("rb") as f:
            head = f.read(len(io.MVOL_MAGIC) + 1)
        return head == io.MVOL_MAGIC + bytes([io.KIND_SCALAR])

    by_index(pred_files)
    gt_by_index = by_index([p for p in gt_files if not holds_scalars(p)])
    pairs = []
    for p in pred_files:
        idx = index_of(p)
        if idx is None or idx not in gt_by_index:
            raise FormatError("payload", f"no ground-truth match for {p.name}")
        pairs.append((p.stem, p, gt_by_index[idx]))
    return pairs


def _cmd_evaluate(args) -> int:
    pairs = _pair_label_files(Path(args.pred), Path(args.gt))
    cases = []
    for name, pred_path, gt_path in pairs:
        pred, gt = io.read_labels(pred_path), io.read_labels(gt_path)
        if (pred.dims, pred.spacing) != (gt.dims, gt.spacing):
            raise FormatError(
                "grid",
                f"{pred_path} has dims {pred.dims} and spacing {pred.spacing}, "
                f"{gt_path} has dims {gt.dims} and spacing {gt.spacing}",
            )
        cases.append((name, evaluate_case(pred, gt)))
    text = io.evaluation_report(cases)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        io.write_text(text, out / "evaluation_report.txt")
        io.write_summary(
            {"command": "evaluate", "cases": len(cases), "report": "evaluation_report.txt"},
            out / "summary.txt",
        )
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_report(args) -> int:
    bins = _integer_at_least(args.bins, 2, "--bins")
    groups: dict[str, list] = {}
    for mpath in args.manifest:
        manifest = io.read_manifest(mpath)
        series = io.load_series(manifest)
        groups.setdefault(manifest.vendor, []).extend(series.frames)
    report = histogram_report(groups, bins)
    text = report.to_text()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        io.write_text(text, out / "histogram_report.txt")
        io.write_summary(
            {"command": "report", "groups": len(groups), "bins": bins},
            out / "summary.txt",
        )
    else:
        sys.stdout.write(text)
    return EXIT_OK


_HANDLERS = {
    "phantom": _cmd_phantom,
    "propagate": _cmd_propagate,
    "histmatch": _cmd_histmatch,
    "transfer": _cmd_transfer,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
}


def run(argv: list[str]) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.subcommand](args)
    except (DegenerateInputError, EmptyMaskError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except SeriesPropagationError as exc:
        degenerate = all(isinstance(e, DegenerateInputError) for _, e in exc.failures)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE if degenerate else EXIT_IO
    except (InvalidParameterError, InvalidTargetError, MissingVendorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CinepropError, OSError) as exc:  # FormatError and any other package error: I/O exit
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
