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
sets the default worker count; the ``--workers`` flag overrides it.  argparse
checks every flag, and ``CINEPROP_WORKERS`` as the default of ``--workers``: a
missing or unknown flag, a worker count below 1, an ``--iters`` that is not a
comma list of integers >= 1, an ``--n-ref-volumes`` below 1, a ``--seed``
below 0, a ``--bins`` outside [2, 65536] and an empty ``--out`` are usage
errors (exit code 2), printed as the usage and ``error: argument <flag>``.  An
``--out`` that is a file, or lies under one, then exits 3 naming ``--out``.
Both come before any input is read or any directory made.  A ``report`` vendor
tag that is empty or holds whitespace, which would not split back out of its
``hist`` and ``ks`` lines, is a usage error found before anything is written.
``phantom`` writes the subject ``phantom``, vendor and center ``synthetic``
into its manifest.  ``--n-ref-volumes`` above the number of reference volumes
is capped to it.  ``transfer`` exits 3 before reading any volume when a
from-vendor subject, which names its output files, is in two manifests or
contains a path separator; ``evaluate``, pairing by trailing index, exits 3
when two label files of one directory share an index, and exits 3 naming both
files when a pair differs in dims or spacing; a series whose frames or labels
differ from its first frame in dims or spacing exits 3 too, naming both files.
When some frames of a series fail to propagate, ``propagate`` still writes the
frames that succeeded, an ``error`` record per failed frame in its report and
``failed = <n>`` in its summary, then exits 4 if every failure is a
degeneracy, else 3.

The console script runs BLAS on one thread unless ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` or ``MKL_NUM_THREADS`` is set; a value the user sets
is kept, and no output byte depends on it.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

# each command imports the modules it runs, so a command, or a usage error, loads no numpy it does not need
from .errors import (
    CinepropError,
    DegenerateInputError,
    FormatError,
    InvalidParameterError,
    SeriesPropagationError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DEGENERATE = 4
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class _EnvDefault(str):
    """A flag's default read from the environment variable ``var``, which its type's error then names."""

    def __new__(cls, var: str, fallback: str):
        self = super().__new__(cls, os.environ.get(var, fallback))
        self.var = var
        return self


def _bounded_integer(minimum: int, maximum: int | None = None):
    """An argparse type: an integer >= ``minimum`` and, if given, <= ``maximum``."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = minimum - 1
        if value >= minimum and (maximum is None or value <= maximum):
            return value
        bounds = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        source = f" from {raw.var}" if isinstance(raw, _EnvDefault) else ""
        raise argparse.ArgumentTypeError(f"must be an integer {bounds}, got {raw!r}{source}")

    return parse


def _bins(raw: str) -> int:
    from .style import MAX_BINS  # the bound's one owner, which loads numpy: imported only to parse a --bins

    return _bounded_integer(2, MAX_BINS)(raw)


def _iteration_schedule(raw: str) -> tuple[int, ...]:
    """The argparse type of ``--iters``: a comma list of integers >= 1, coarse to fine."""
    try:
        return tuple(map(_bounded_integer(1), raw.split(",")))
    except argparse.ArgumentTypeError:  # also an empty entry, as in "", ",", "5,,5" or "5,5,"
        raise argparse.ArgumentTypeError(f"must be a non-empty comma list of integers >= 1, got {raw!r}") from None


def _nonempty(raw: str) -> str:
    """The argparse type of ``--out``; an empty one would write into the current directory, or to stdout."""
    if not raw:
        raise argparse.ArgumentTypeError("must not be empty")
    return raw


def _check_out(path) -> None:
    """Raise ``OSError`` naming ``--out`` unless ``path``, or its nearest existing ancestor, is a directory."""
    if path is None:  # evaluate and report print to stdout
        return
    for part in (Path(path), *Path(path).parents):
        if os.path.lexists(part):
            if not part.is_dir():
                raise NotADirectoryError(f"--out {path}: {part} is not a directory")
            return


def _out_dir(path) -> Path:
    """The output directory ``path``, made with its parents if it is missing."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(text: str, out, name: str, summary: dict) -> None:
    """Write ``text`` as ``out/name`` and ``summary`` as ``out/summary.txt``; without ``out``, ``text`` to stdout."""
    if out is None:
        sys.stdout.write(text)
        return
    from . import io

    out = _out_dir(out)
    io.write_text(text, out / name)
    io.write_summary(summary, out / "summary.txt")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cineprop", description=__doc__.splitlines()[0])
    count, seed = _bounded_integer(1), _bounded_integer(0)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_phantom = sub.add_parser("phantom", help="generate a synthetic cine series")
    p_phantom.add_argument("--frames", type=int, default=11)
    p_phantom.add_argument("--seed", type=seed, default=0)

    p_prop = sub.add_parser("propagate", help="propagate template labels to unlabeled frames")
    p_prop.add_argument("--manifest", required=True)
    # a string default runs through the type too, so CINEPROP_WORKERS is checked as the flag is
    p_prop.add_argument("--workers", type=count, default=_EnvDefault("CINEPROP_WORKERS", "1"))
    p_prop.add_argument("--iters", type=_iteration_schedule, default=None, help="comma list, coarse to fine")

    p_match = sub.add_parser("histmatch", help="match each frame to the series' pooled reference")
    p_match.add_argument("--manifest", required=True)
    p_match.add_argument("--n-ref-volumes", type=count, default=100)
    p_match.add_argument("--seed", type=seed, default=0)

    p_transfer = sub.add_parser("transfer", help="re-style one vendor's volumes to another's")
    p_transfer.add_argument("--manifest", action="append", required=True)
    p_transfer.add_argument("--from-vendor", required=True)
    p_transfer.add_argument("--to-vendor", required=True)
    p_transfer.add_argument("--n-ref-volumes", type=count, default=100)
    p_transfer.add_argument("--seed", type=seed, default=0)

    p_eval = sub.add_parser("evaluate", help="Dice/Hausdorff between two label directories")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--gt", required=True)

    p_report = sub.add_parser("report", help="histogram report across manifests")
    p_report.add_argument("--manifest", action="append", required=True)
    p_report.add_argument("--bins", type=_bins, default=64)

    for name, command in sub.choices.items():  # evaluate and report print to stdout without --out
        command.add_argument("--out", type=_nonempty, required=name not in ("evaluate", "report"))
    return parser


def _cmd_phantom(args) -> int:
    from . import io
    from .phantom import PhantomSpec, generate_cine

    spec = PhantomSpec(  # validated before the output directory is made
        frames=args.frames,
        es_index=0,
        ed_index=args.frames - 1,
        seed=args.seed,
        noise_sigma=10.0,
    )
    out = _out_dir(args.out)
    cine = generate_cine(spec)
    frame_paths = []
    for t, frame in enumerate(cine.series.frames):
        p = out / f"frame_{t:03d}.mvol"
        io.write_mvol(frame, p)
        frame_paths.append(p)
    for t, label in enumerate(cine.ground_truth):
        io.write_mvol(label, out / f"label_{t:03d}.mvol")
    manifest = io.CineManifest(
        subject_id="phantom",
        frame_paths=tuple(frame_paths),
        es_index=spec.es_index,
        ed_index=spec.ed_index,
        es_label_path=out / f"label_{spec.es_index:03d}.mvol",
        ed_label_path=out / f"label_{spec.ed_index:03d}.mvol",
        vendor="synthetic",
        center="synthetic",
    )
    io.write_manifest(manifest, out / "manifest.txt")
    io.write_summary(
        {
            "command": "phantom",
            "frames": spec.frames,
            "seed": spec.seed,
            "dims": "x".join(str(d) for d in spec.dims),
            "manifest": "manifest.txt",
        },
        out / "summary.txt",
    )
    return EXIT_OK


def _cmd_propagate(args) -> int:
    from . import io
    from .propagation import propagate_series
    from .registration import RegistrationParams

    schedule = {} if args.iters is None else {"pyramid_levels": len(args.iters), "iterations_per_level": args.iters}
    manifest = io.read_manifest(args.manifest)
    series = io.load_series(manifest)
    failed = None
    try:
        results = propagate_series(series, RegistrationParams(**schedule), workers=args.workers)
    except SeriesPropagationError as exc:  # the frames that succeeded are written, then it is raised
        failed, results = exc, exc.results
    failures = [] if failed is None else failed.failures
    out = _out_dir(args.out)
    for res in results:
        io.write_mvol(res.pseudo_label, out / f"pseudo_label_{res.frame_index:03d}.mvol")
    info = {
        "subject": manifest.subject_id,
        "frames": len(series.frames),
        "es_index": series.es_index,
        "ed_index": series.ed_index,
    }
    io.write_propagation_report(results, info, out / "propagation_report.txt", failures)
    summary = {
        "command": "propagate",
        "subject": manifest.subject_id,
        "propagated": len(results),
        "report": "propagation_report.txt",
    }
    if failures:
        summary["failed"] = len(failures)
    io.write_summary(summary, out / "summary.txt")
    if failed is not None:
        raise failed
    return EXIT_OK


def _cmd_histmatch(args) -> int:
    from . import io
    from .style import build_reference, histogram_match

    manifest = io.read_manifest(args.manifest)
    series = io.load_series(manifest)
    corpus = list(series.frames)
    n = min(args.n_ref_volumes, len(corpus))
    ref = build_reference(corpus, n, args.seed)
    out = _out_dir(args.out)
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
            "seed": args.seed,
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
    from . import io
    from .style import vendor_transfer

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
    transferred = vendor_transfer(volumes, args.from_vendor, args.to_vendor, args.seed, n_ref=args.n_ref_volumes)
    out = _out_dir(args.out)
    for (subject, t), vol in zip(sources, transferred):
        io.write_mvol(vol, out / f"transfer_{subject}_{t:03d}.mvol")
    io.write_summary(
        {
            "command": "transfer",
            "from_vendor": args.from_vendor,
            "to_vendor": args.to_vendor,
            "transferred": len(transferred),
            "seed": args.seed,
        },
        out / "summary.txt",
    )
    return EXIT_OK


def _pair_label_files(pred_dir: Path, gt_dir: Path) -> list[tuple[str, Path, Path]]:
    from . import io

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

    by_index(pred_files)
    # an intensity frame, as beside the labels of a series, is no ground truth
    gt_by_index = by_index([p for p in gt_files if not io.holds_scalars(p)])
    pairs = []
    for p in pred_files:
        idx = index_of(p)
        if idx is None or idx not in gt_by_index:
            raise FormatError("payload", f"no ground-truth match for {p.name}")
        pairs.append((p.stem, p, gt_by_index[idx]))
    return pairs


def _cmd_evaluate(args) -> int:
    from . import io
    from .metrics import evaluate_case

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
    summary = {"command": "evaluate", "cases": len(cases), "report": "evaluation_report.txt"}
    _emit(io.evaluation_report(cases), args.out, "evaluation_report.txt", summary)
    return EXIT_OK


def _cmd_report(args) -> int:
    from . import io
    from .style import histogram_report

    groups: dict[str, list] = {}
    for mpath in args.manifest:
        manifest = io.read_manifest(mpath)
        series = io.load_series(manifest)
        groups.setdefault(manifest.vendor, []).extend(series.frames)
    summary = {"command": "report", "groups": len(groups), "bins": args.bins}
    _emit(histogram_report(groups, args.bins).to_text(), args.out, "histogram_report.txt", summary)
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
        _check_out(args.out)  # after the flags, before any command reads input: a bad --out costs no work
        return _HANDLERS[args.subcommand](args)
    except (CinepropError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        causes = [e for _, e in exc.failures] if isinstance(exc, SeriesPropagationError) else [exc]
        if all(isinstance(e, DegenerateInputError) for e in causes):
            return EXIT_DEGENERATE
        return EXIT_USAGE if isinstance(exc, InvalidParameterError) else EXIT_IO  # FormatError, OSError and the rest


def main() -> None:
    """The console script: BLAS on one thread unless the environment says otherwise, then ``run``.

    cineprop's largest BLAS calls are 3x3 products and 12-element dot products, too small to thread,
    while an idle OpenBLAS pool costs about 0.17 s of CPU per command.  The defaults are set here, before
    a command first imports numpy, and not in ``run``, which callers share with their own processes.
    """
    for var in _BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
