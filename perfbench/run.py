"""cineprop benchmark: one command, three workloads, checked outputs, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cine-thick-w2 --seed 1 --seconds 55 --trace 0

``--trace 0`` measures end-to-end metrics: it runs rounds of the workload's CLI
commands as child processes (``python3 -m cineprop.cli``), at least two and
then more until ``--seconds`` would be exceeded, and reports medians over
rounds.  Rounds during which the hypervisor ran other guests on the machine's
CPUs for more than ``STEAL_MAX`` of its CPU time are left out of the medians;
if every round was, the medians are the least disturbed round's values.
Before each round it writes the seeded inputs again, a few times, so
``setup_s`` is a median over set-ups spread across the run.
``--trace 1`` runs one untraced round, then the same round with every command
traced in-process by ``tracing.py``, and reports per-layer metrics from the
trace.  On ``cine-thick-w2`` it traces a third round with BLAS pinned to one
thread (``propagation.parallel_eff_blas1``).

Every output is checked (see ``verify.py``).  The second-to-last stdout line
is a ``{"record": ...}`` object holding the machine context, every named
metric and the per-round values; the last line is the result::

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}, ...}}

See README.md for each metric's unit, direction and meaning.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(SRC))

SETUP_SLICE_S = 0.25  # before each round, repeat set-up until this much time is spent ...
SETUP_SLICE_REPEATS = 10  # ... or this many set-ups are done; at least one
MIN_ROUNDS = 2
# Other guests' load on a shared host shows as CPU steal time, and slows both wall and CPU time of
# the children by 20-30% for a minute or two at a time; rounds with more steal than this are disturbed.
STEAL_MAX = 0.02
CHILD_TIMEOUT_S = 150.0
IMPORT_REPEATS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_BLAS = dict.fromkeys(BLAS_VARS, "1")


def child_env(**overrides: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env.update(overrides)
    return env


def workload_env(workload) -> dict[str, str]:
    """The children's environment: inherited, with BLAS pinned to one thread if the workload asks."""
    return child_env(**(PINNED_BLAS if workload.pin_blas else {}))


def run_child(argv: list[str], env: dict[str, str], log: Path) -> tuple[float, float, float, int]:
    """Run one child to completion: (wall seconds, CPU seconds, peak RSS in MB, exit code)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def cpu_counters() -> list[int]:
    """The machine's CPU time counters (user ... steal) from /proc/stat; empty where unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return []
    return [int(f) for f in fields[1:9]] if fields[:1] == ["cpu"] and len(fields) >= 9 else []


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of the machine's CPU time between two ``cpu_counters`` samples that was stolen."""
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta)
    return delta[7] / total if len(delta) == 8 and total > 0 else 0.0


def undisturbed(rounds) -> list[int]:
    """Indices of the rounds with at most STEAL_MAX steal; if there are none, of the least stolen."""
    steal = [r.values["steal_frac"][0] for r in rounds]
    limit = max(STEAL_MAX, min(steal))
    return [i for i, s in enumerate(steal) if s <= limit]


def run_round(workload, out: Path, env, traces: Path | None = None):
    """Run every command of the workload once; traced in-process when ``traces`` is a directory."""
    out.mkdir(parents=True)
    walls, cpus, codes, rss = {}, {}, {}, 0.0
    counters = cpu_counters()
    for stage, argv in workload.commands(out):
        if traces is None:
            cmd = [sys.executable, "-m", "cineprop.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(traces / f"{stage}.json"), *argv]
        walls[stage], cpus[stage], peak, codes[stage] = run_child(cmd, env, out / f"{stage}.log")
        rss = max(rss, peak)
    steal = steal_share(counters, cpu_counters())
    result = workload.check(out, walls, codes)
    for stage, code in codes.items():
        if code != 0:
            result.errors.append(f"{stage}: {(out / f'{stage}.log').read_text()[-400:]}")
    result.values["peak_rss_mb"] = (rss, "MB")
    result.values["cpu_s"] = (sum(cpus.values()), "s")
    result.values["steal_frac"] = (steal, "1")
    shutil.rmtree(out)
    return result


class SetUp:
    """Writes the seeded inputs and times each write; every write must give the same bytes."""

    def __init__(self, workload, root: Path, seed: int):
        self.workload, self.root, self.seed = workload, root, seed
        self.times: list[float] = []
        self.digest = None

    def once(self) -> float:
        shutil.rmtree(self.root, ignore_errors=True)
        start = time.perf_counter()
        self.workload.setup(self.root, self.seed)
        self.times.append(time.perf_counter() - start)
        h = hashlib.sha256()
        for path in sorted(self.root.rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(self.root)).encode() + path.read_bytes())
        if self.digest not in (None, h.hexdigest()):
            raise RuntimeError("seeded inputs differ between repetitions")
        self.digest = h.hexdigest()
        return self.times[-1]

    def slice(self) -> None:
        """Set up at least once, then again until SETUP_SLICE_S is spent or SETUP_SLICE_REPEATS are done."""
        spent = self.once()
        for _ in range(SETUP_SLICE_REPEATS - 1):
            if spent >= SETUP_SLICE_S:
                break
            spent += self.once()


def machine_context(seed: int, env: dict[str, str]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {v: env.get(v) for v in BLAS_VARS},
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def median_values(rounds) -> dict[str, tuple[float, str]]:
    names = rounds[0].values.keys()
    return {n: (statistics.median(r.values[n][0] for r in rounds), rounds[0].values[n][1]) for n in names}


def measure(workload, work: Path, seed: int, seconds: float):
    """End-to-end pass: at least MIN_ROUNDS whole rounds, more while ``seconds`` allows.

    Set-up is timed in slices before every round, so its median samples the
    machine over the same span as the rounds do.  Medians, set-up's too, are
    over the undisturbed rounds; every round's outputs are checked.
    """
    setup = SetUp(workload, work / "inputs", seed)
    env = workload_env(workload)
    rounds, setups = [], []  # setups[i]: the set-up times taken just before round i
    start = time.perf_counter()
    while True:
        done = len(setup.times)
        setup.slice()
        setups.append(setup.times[done:])
        rounds.append(run_round(workload, work / f"round_{len(rounds)}", env))
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / len(rounds) > seconds:
            break
    used = undisturbed(rounds)
    values = median_values([rounds[i] for i in used])
    # the run's peak: with two workers it depends on how the frames' allocations happen to overlap
    values["peak_rss_mb"] = (max(r.values["peak_rss_mb"][0] for r in rounds), "MB")
    values["setup_s"] = (statistics.median(t for i in used for t in setups[i]), "s")
    values["rounds_used"] = (len(used), "count")
    return rounds, values


def import_seconds(env) -> float:
    code = "import time; t = time.perf_counter(); import cineprop.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def load_traces(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]


def traced(workload, work: Path, seed: int):
    """Per-layer pass: untraced round, traced round, and (2 workers) a BLAS-pinned traced round."""
    import layers

    SetUp(workload, work / "inputs", seed).once()
    env = workload_env(workload)
    plain = run_round(workload, work / "plain", env)
    trace_dir = work / "trace"
    trace_dir.mkdir()
    trace_round = run_round(workload, work / "traced", env, traces=trace_dir)
    rounds = [plain, trace_round]
    table = layers.SpanTable(load_traces(trace_dir))
    values = layers.per_layer_metrics(table, workload.workers)
    blas1_eff, blas1_frame, notes = 0.0, 0.0, {}
    if workload.workers > 1:
        # Checked like any round, but against its own bytes: results that change with the BLAS
        # thread count are a known defect, listed in the record rather than counted as failures.
        pinned_dir = work / "trace_blas1"
        pinned_dir.mkdir()
        default_bytes, workload.first = workload.first, {}
        pinned = run_round(workload, work / "blas1", child_env(**PINNED_BLAS), traces=pinned_dir)
        notes["differs_with_blas1"] = sorted(k for k, raw in workload.first.items() if default_bytes.get(k) != raw)
        workload.first = default_bytes
        rounds.append(pinned)
        pinned_table = layers.SpanTable(load_traces(pinned_dir))
        blas1_eff = layers.parallel_efficiency(pinned_table, workload.workers)
        frames = pinned_table.durations("propagation.propagate_frame")
        blas1_frame = statistics.median(frames) if frames else 0.0
    values["propagation.parallel_eff_blas1"] = (blas1_eff, "1")
    values["propagation.frame.s_p50_blas1"] = (blas1_frame, "s")
    # a guard without a direction: in the record, not in BENCHMARK.json
    values["propagation.es_chosen_frac"] = plain.values.get("es_chosen_frac", (0.0, "1"))
    values["cli.import_s"] = (import_seconds(env), "s")
    untraced_wall = plain.values["wall_s"][0]
    values["trace.overhead_frac"] = ((trace_round.values["wall_s"][0] - untraced_wall) / untraced_wall, "1")
    return rounds, values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running child is killed and reaped and the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "cineprop" / "cli.py").is_file():
        print(f"error: no cineprop sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            rounds, values, notes = traced(workload, work, args.seed)
        else:
            rounds, values = measure(workload, work, args.seed, args.seconds)
            notes = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    values["success_rate"] = (1.0 - failed / attempted, "1")
    values["error_rate"] = (failed / attempted, "1")
    named = {n: {"value": v, "unit": u} for n, (v, u) in sorted(values.items())}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "context": machine_context(args.seed, workload_env(workload)),
        "metrics": named,
        "rounds": [{n: v for n, (v, _) in r.values.items()} for r in rounds],
        "errors": [e for r in rounds for e in r.errors],
        "notes": notes,
    }
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: named[n] for n in wanted},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
