"""In-memory span tracing of the cineprop modules, installed from outside the package.

``install(tracer)`` replaces every public function of the traced modules with
a wrapper that records one span per call: ``(id, name, start, end, parent,
thread)``.  A function imported by name into another traced module (for
example ``registration.trilinear_sample_many``) is replaced there too, by the
same wrapper, so every call path is seen exactly once under the name of the
module that defines it.  Each thread keeps its own span stack, so frames run
on a ``--workers`` pool nest correctly.  A span that starts on an empty stack
in another thread (a task of the pool) gets as parent the innermost span open
on the main thread, which is the call that submitted it.  Some wrappers also
attach per-call counts (samples, bytes, point pairs, fallbacks) to their span.

Run as a script it executes one CLI command in-process, traced::

    python3 perfbench/tracing.py TRACE.json propagate --manifest m.txt --out o

and writes the spans, counts, exit code and wall time to ``TRACE.json``.
Nothing is written until the command has finished.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

import numpy as np

TRACED_MODULES = ("volume", "registration", "propagation", "metrics", "style", "io", "cli")

# Bytes a trilinear sample touches, computed from array sizes (not measured):
# three float64 coordinates in, eight float32 corner voxels gathered, one float64 out.
TRILINEAR_BYTES_PER_SAMPLE = 3 * 8 + 8 * 4 + 8


class Tracer:
    """Collects spans and per-span counts in memory; safe to use from many threads."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.originals: dict[str, object] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if is_main else []
        return stack

    def wrap(self, name: str, fn, count=None):
        """Wrap ``fn`` so each call records a span; ``count`` adds counts after the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = next(self._ids)
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if stack is not self._main_stack and self._main_stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((sid, name, start, end, parent, threading.get_ident()))
            if count is not None:
                values = count(self, args, kwargs, result)
                with self._lock:
                    self.counts[sid] = values
            return result

        return traced

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": {str(k): v for k, v in self.counts.items()}}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_samples(tracer, args, kwargs, result):
    n = int(np.size(_arg(args, kwargs, 1, "xs")))
    return {"samples": n, "computed_bytes": n * TRILINEAR_BYTES_PER_SAMPLE}


def _count_pairs(tracer, args, kwargs, result):
    pred, gt, label = (_arg(args, kwargs, i, n) for i, n in enumerate(("pred", "gt", "label")))
    p, g = int(np.count_nonzero(pred.data == label)), int(np.count_nonzero(gt.data == label))
    return {"pairs": 2 * p * g}  # both directed passes of the brute force


def _count_ks(tracer, args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "sample_a"), _arg(args, kwargs, 1, "sample_b")
    return {"values": int(np.size(a)) + int(np.size(b))}


def _count_read(tracer, args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _count_write(tracer, args, kwargs, result):
    return {"bytes": 29 + int(_arg(args, kwargs, 0, "obj").data.nbytes)}  # 29-byte MVOL header


def _count_rigid(tracer, args, kwargs, result):
    identity = np.array_equal(result.matrix, np.eye(3)) and not np.any(result.translation)
    return {"fell_back": int(identity)}


def _count_affine(tracer, args, kwargs, result):
    return {"fell_back": int(result is _arg(args, kwargs, 2, "init"))}


def _count_deformable(tracer, args, kwargs, result):
    fixed, init = _arg(args, kwargs, 0, "fixed"), _arg(args, kwargs, 2, "init")
    affine_field = tracer.originals["registration.affine_to_field"](init, fixed.dims, fixed.spacing)
    return {"fell_back": int(np.array_equal(result.vectors, affine_field.vectors))}


COUNTERS = {
    "volume.trilinear_sample_many": _count_samples,
    "metrics.hausdorff": _count_pairs,
    "style.ks_statistic": _count_ks,
    "io.read_mvol": _count_read,
    "io.write_mvol": _count_write,
    "registration.register_rigid": _count_rigid,
    "registration.register_affine": _count_affine,
    "registration.register_deformable": _count_deformable,
}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap the public functions of TRACED_MODULES everywhere they are bound.

    Returns ``(module, attribute, original)`` for every replaced binding, so a
    caller that shares the process can put the originals back.
    """
    modules = {m: importlib.import_module(f"cineprop.{m}") for m in TRACED_MODULES}
    names = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                names[obj] = f"{short}.{attr}"
    tracer.originals = {name: fn for fn, name in names.items()}
    wrappers = {fn: tracer.wrap(name, fn, COUNTERS.get(name)) for fn, name in names.items()}
    patched = []
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                patched.append((mod, attr, obj))
    return patched


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("cineprop.cli")
    code = cli.run(cli_argv)
    record = {"argv": cli_argv, "exit_code": code, "start": start, "end": time.perf_counter()}
    record.update(tracer.to_json())
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
