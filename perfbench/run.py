"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload extract-blockwise --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` is the separate traced run: it alternates an untraced and a
traced unit of work (one batch, the load that follows it and one item
cycle), reports the per-layer
metrics of the traced units and ``trace.overhead_s``, checks that traced
outputs equal untraced ones, and writes the spans as JSONL under
``.perfbench/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--update-reference`` (default seed only) stores the first batch's outputs
in ``reference/seed0.json`` instead of comparing with them.

The program is imported from ``src/``; nothing is installed.  BLAS is pinned
to one thread and the program's ``--jobs`` stays at its default of 1, so a
run keeps to one busy core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference", "seed0.json")

BLAS_THREADS = "1"  # set before numpy loads; inherited by the import-timing children
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_ROUNDS = 3
IMPORT_SAMPLES = 7

E2E_UNITS = {
    "setup_s": "s",
    "batch_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv, workloads):
    p = argparse.ArgumentParser(description="csomtex benchmark: one workload per run")
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--update-reference", action="store_true")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    if args.update_reference and args.seed != 0:
        p.error("--update-reference stores the default seed (0) only")
    return args


class Ops:
    """Operations attempted and failed; a failure is an exception or a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, problem: str | None) -> bool:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return not problem

    def run(self, fn, check):
        """Time ``fn()``, then check its output.  Returns (seconds, output, ok)."""
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            dt = time.perf_counter() - t0
            self.check(f"{type(exc).__name__}: {exc}")
            return dt, None, False
        dt = time.perf_counter() - t0
        return dt, out, self.check(check(out))


def import_time() -> float:
    """Wall time of a fresh interpreter importing csomtex.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import csomtex.cli"], env=env, cwd=ROOT, capture_output=True, timeout=60)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        _fail(f"importing csomtex.cli failed: {proc.stderr.decode(errors='replace').strip()}")
    return dt


def _reference_check(wl, ops: Ops, update: bool) -> None:
    """Compare (or store) the first batch's outputs on the default seed."""
    import workloads

    if wl.seed != workloads.DEFAULT_SEED or wl.ref is None:
        return
    stored = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="ascii") as fh:
            stored = json.load(fh)
    view = json.loads(json.dumps(wl.reference_view()))
    if update:
        stored[wl.name] = view
        stored["tolerance"] = {"rtol": workloads.RTOL, "atol": workloads.ATOL}
        os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
        with open(REFERENCE, "w", encoding="ascii") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return
    if wl.name not in stored:
        ops.check(f"{wl.name}: no stored reference for seed {wl.seed}")
        return
    ops.check(workloads.compare(stored[wl.name], view, wl.name))


def _item_cycle(wl, ops: Ops, penalty_s: float) -> tuple[list[float], list]:
    """One pass over the items; a failed item counts as missing any latency limit."""
    times, outs = [], []
    for i in range(wl.n_items):
        dt, out, ok = ops.run(lambda: wl.item(i), lambda o: wl.check_item(i, o))
        times.append(dt if ok else penalty_s)
        outs.append(out)
    return times, outs


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    With ten samples or fewer this is the maximum, at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(wl, ops: Ops, seconds: float, update: bool) -> dict:
    """The untraced run: rounds of one batch and ``wl.cycles_per_round`` item
    cycles, for ``seconds``.  A failed batch counts at ``seconds``.

    The ``IMPORT_SAMPLES`` import timings are spread evenly over the run, one
    between two rounds, after one warm-up import: import time drifts with the
    machine for seconds at a time, and a run's median should not rest on one
    such moment.
    """
    import_time()  # warm-up: fills the page cache
    imports: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    batch_times, cycle_rates = [], []
    item_times: list[list[float]] = []  # per item, one time per cycle
    while True:
        r0 = time.perf_counter()
        if r0 >= start + seconds * len(imports) / IMPORT_SAMPLES and len(imports) < IMPORT_SAMPLES:
            imports.append(import_time())
            r0 = time.perf_counter()
        dt, _, ok = ops.run(wl.batch, wl.check_batch)
        batch_times.append(dt if ok else seconds)
        if wl.ref is None:  # the first batch failed: nothing to check items against
            break
        if len(batch_times) == 1:
            _reference_check(wl, ops, update)
            item_times = [[] for _ in range(wl.n_items)]
        for _ in range(wl.cycles_per_round):
            c0 = time.perf_counter()
            times, _ = _item_cycle(wl, ops, seconds)
            cycle_rates.append(len(times) / (time.perf_counter() - c0))
            for per_item, dt in zip(item_times, times):
                per_item.append(dt)
        now = time.perf_counter()
        if len(batch_times) >= MIN_ROUNDS and now + (now - r0) > deadline:
            break
    while len(imports) < IMPORT_SAMPLES:
        imports.append(import_time())
    return {
        "batch_times": batch_times,
        "item_times": item_times,
        "cycle_rates": cycle_rates,
        "imports": imports,
        "extra_setup_s": wl.extra_setup_s() if wl.ref is not None else 0.0,
    }


def e2e_metrics(m: dict, penalty_s: float) -> tuple[dict, dict]:
    """End-to-end metrics plus the facts printed beside them.

    A shared 2-core virtual machine can run 1.8x slower for seconds or
    minutes at a time, so a timing is the fastest of its repetitions in the
    run, which repeats from run to run where medians do not: the fastest
    batch, and for each item its fastest repetition, over which the median
    and the tail are taken.  An item that failed in any repetition counts at
    ``penalty_s``.  The plain median and tail of every item sample, and the
    fastest item cycle as a throughput, are printed beside them.
    """
    best = [penalty_s if penalty_s in ts else min(ts) for ts in m["item_times"]] or [penalty_s]
    samples = [t for ts in m["item_times"] for t in ts] or [penalty_s]
    tail_s, tail_pct = tail(best)
    raw_tail_s, raw_tail_pct = tail(samples)
    values = {
        "setup_s": statistics.median(m["imports"]) + m["extra_setup_s"],
        "batch_s": min(m["batch_times"]),
        "item_p50_ms": 1000.0 * statistics.median(best),
        "item_tail_ms": 1000.0 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    facts = {
        "items_per_s": max(m["cycle_rates"] or [0.0]),
        "rounds": len(m["batch_times"]),
        "items": len(best),
        "item_samples": len(samples),
        "item_tail_percentile": round(tail_pct, 3),
        "batch_median_s": statistics.median(m["batch_times"]),
        "sample_p50_ms": 1000.0 * statistics.median(samples),
        "sample_tail_ms": 1000.0 * raw_tail_s,
        "sample_tail_percentile": round(raw_tail_pct, 3),
        "import_s_samples": m["imports"],
        "extra_setup_s": m["extra_setup_s"],
    }
    return values, facts


def _unit(wl, ops: Ops, penalty_s: float):
    """One unit of work for the traced run: a batch, its load and one item cycle.

    Returns the summed time of those operations, without the output checks
    (the first batch's check runs extra CLI commands), and their outputs.
    """
    batch_s, batch_out, _ = ops.run(wl.batch, wl.check_batch)
    if wl.ref is None:
        return batch_s, (batch_out, [])
    load_s, _, _ = ops.run(wl.load, lambda _: None)
    item_times, item_outs = _item_cycle(wl, ops, penalty_s)
    return batch_s + load_s + sum(item_times), (batch_out, item_outs)


def traced_run(wl, ops: Ops, seconds: float, update: bool, spans_path: str) -> dict:
    """Alternate untraced and traced units; per-layer metrics are medians over traced units."""
    import layers

    tracer = layers.Tracer()
    deadline = time.perf_counter() + seconds
    plain_walls, traced_walls, samples = [], [], []
    while True:
        p0 = time.perf_counter()
        plain_wall, plain_out = _unit(wl, ops, seconds)
        if not samples:
            _reference_check(wl, ops, update)
        tracer.reset()
        with tracer:
            traced_wall, traced_out = _unit(wl, ops, seconds)
        plain_walls.append(plain_wall)
        traced_walls.append(traced_wall)
        samples.append(layers.layer_metrics(tracer))
        ops.check(None if traced_out == plain_out else f"{wl.name}: traced outputs differ from untraced outputs")
        now = time.perf_counter()
        if wl.ref is None or now + (now - p0) > deadline:
            break
    tracer.write_jsonl(spans_path)  # the last traced unit; one unit of extract is ~20 MB
    print("facts " + json.dumps({"untraced_unit_s": plain_walls, "traced_unit_s": traced_walls}))
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["trace.overhead_s"] = min(traced_walls) - min(plain_walls)  # fastest, as in e2e_metrics
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def _source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "csomtex")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(filenames):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    git_rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_rev = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "program_jobs": 1,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_rev": git_rev,
        "source_digest": _source_digest(),
    }


def main(argv=None) -> int:
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SRC, "csomtex", "cli.py")):
        _fail(f"no csomtex package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import workloads

    args = _parse_args(argv, workloads.WORKLOADS)
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    work_dir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    ops = Ops()
    try:
        wl = workloads.WORKLOADS[args.workload](work_dir, args.seed)
        try:
            wl.prepare()
        except Exception as exc:  # no inputs, no run: stop without a result
            _fail(f"{args.workload}: preparing inputs failed: {type(exc).__name__}: {exc}")
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            values = traced_run(wl, ops, args.seconds, args.update_reference, spans_path)
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
            print(f"spans {spans_path}")
        else:
            m = measure(wl, ops, args.seconds, args.update_reference)
            values, facts = e2e_metrics(m, args.seconds)
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
            print("facts " + json.dumps(facts, sort_keys=True))
            for line in workloads.command_metrics(wl, values, facts):
                print(line)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in ops.problems:
        print(f"problem {problem}", file=sys.stderr)
    print(f"ops_failed_ratio {ops.failed / max(ops.attempted, 1):.6g} ({ops.failed}/{ops.attempted})")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="ascii") as fh:
        json.dump(dict(result, env=env), fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
