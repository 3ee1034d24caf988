"""Benchmark for cpcomplete: four workloads timed end to end, and a traced
run that takes per-layer spans from outside the package.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 bench/run.py --workload rank5_masked --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run together with its overhead.  The last line of
standard output is the result object; the line before it is the run record
(versions, BLAS, threads, per-task quality outputs).  ``--size tiny`` shrinks
every workload so the benchmark's own tests run in seconds.

BLAS and OpenMP are pinned to one thread before numpy loads: results depend
on the thread count, and the benchmark starts no threads or processes.
"""

import os

# Before numpy is imported anywhere: the pools are sized when BLAS loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9


def import_package():
    """Import cpcomplete afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "cpcomplete" or n.startswith("cpcomplete.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cpcomplete")
    importlib.import_module("cpcomplete.cli")
    if Path(pkg.__file__).resolve().parent != (SRC / "cpcomplete").resolve():
        raise ImportError(f"cpcomplete was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def set_up(workload_cls, seed, size, workdir):
    """Import the package and build the inputs, several times; keep the last.

    Returns (pkg, workload, seconds per repeat).  Each repeat drops the
    package's modules so their import is paid again; numpy and scipy stay
    loaded after the first.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pkg = import_package()
        wl = workload_cls(seed, size, str(workdir))
        wl.prepare(pkg)
        samples.append(time.perf_counter() - start)
    return pkg, wl, samples


def run_tasks(wl, seconds, same_input, sampler=None):
    """Tasks until ``seconds`` have passed (at least one); stops at an exception.

    With a ``sampler``, each task also records ``kernel_s``, the kernel time
    inside its timed call, and ``ref_seconds``, the mean kernel repetition
    before, during and after it.
    """
    tasks = []
    start = time.perf_counter()
    while not tasks or time.perf_counter() - start < seconds:
        if sampler is not None:
            sampler.reset()
            sampler.sample()
            outside = sampler.spent
        try:
            task = wl.run_task(len(tasks), same_input)
        except Exception as exc:  # a task that raises is a failed task
            traceback.print_exc(file=sys.stderr)
            tasks.append(workloads.failed_task([f"raised {type(exc).__name__}: {exc}"]))
            break
        if sampler is not None:
            task["kernel_s"] = sampler.spent - outside
            sampler.sample()
            task["ref_seconds"] = statistics.fmean(sampler.reps)
            task["ref_samples"] = len(sampler.reps)
        tasks.append(task)
    return tasks


def check_same_quality(tasks):
    # Same input, same seed, pinned threads: every quality output must repeat.
    for task in tasks[1:]:
        if task["quality"] != tasks[0]["quality"] and not task["problems"]:
            task["problems"].append("quality outputs differ from the first task on the same input")


def iter_cost(tasks):
    """Lower quartile over tasks of one outer iteration's time in kernel repetitions.

    Interference from the host only ever slows a task, and the kernel tracks
    it only in part, so the lower quartile, not the median, is the estimate
    that repeats across runs.
    """
    costs = [(t["seconds"] - t["kernel_s"]) / t["iters"] / t["ref_seconds"]
             for t in tasks if t["iters"] and not t["problems"]]
    if len(costs) < 2:
        return costs[0] if costs else None
    return statistics.quantiles(costs, n=4, method="inclusive")[0]


def iter_ms(tasks):
    per_iter = [(t["seconds"] - t.get("kernel_s", 0.0)) / t["iters"] * 1e3
                for t in tasks if t["iters"] and not t["problems"]]
    return statistics.median(per_iter) if per_iter else None


def solve_s(tasks):
    ok = [t["seconds"] - t.get("kernel_s", 0.0) for t in tasks if not t["problems"]]
    return statistics.median(ok) if ok else None


def per_layer_metrics(rec, traced, untraced):
    """Per-task means of every span and counter, plus the tracing overhead."""
    n = len(traced)
    totals = rec.layer_totals()
    out = {}
    for name in spans.LAYERS:
        calls, busy, self_s = totals.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.busy_s"] = (busy / n, "s")
        out[f"{name}.self_s"] = (self_s / n, "s")
    solves = totals.get("hybrid_l1.solve_l1_hybrid", (0,))[0]
    expands = totals.get("hybrid_l1.fgk_expand", (0,))[0]
    out["hybrid_l1.inner_steps"] = (expands / solves if solves else 0.0, "count")
    for name, unit in spans.COUNTS.items():
        out[name] = (rec.counts.get(name, 0) / n, unit)

    def mean_quality(key):
        vals = [t["quality"][key] for t in traced if key in t["quality"]]
        return float(np.mean(vals)) if vals else 0.0

    out["completion.outer_iters"] = (mean_quality("outer_iters"), "count")
    out["quality.rel_error"] = (mean_quality("rel_error"), "1")
    out["quality.final_residual"] = (mean_quality("final_residual"), "1")
    out["bench.claims_missed"] = (sum(len(t["claims_missed"]) for t in traced) / n, "count")
    plain, with_spans = solve_s(untraced), solve_s(traced)
    out["bench.untraced_solve_s"] = (plain, "s")
    out["bench.traced_solve_s"] = (with_spans, "s")
    out["bench.trace_overhead_s"] = (
        with_spans - plain if plain is not None and with_spans is not None else None, "s"
    )
    return out


def git_commit():
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "cpcomplete").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(args, setup_samples, tasks):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "threads": {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "setup_s_samples": setup_samples,
        "solve_s": solve_s(tasks),
        "iter_ms": iter_ms(tasks),
        "tasks": tasks,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "cpcomplete" / "__init__.py").is_file():
        print(f"error: no cpcomplete package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            pkg, wl, setup_samples = set_up(workloads.WORKLOADS[args.workload], args.seed, args.size, workdir)
        except ImportError as exc:
            print(f"error: cannot import cpcomplete: {exc}", file=sys.stderr)
            return 2

        if args.trace:
            # Same input in both halves so traced and untraced calls compare.
            untraced = run_tasks(wl, args.seconds / 2, True)
            rec = spans.Recorder()
            spans.install(rec, pkg)
            try:
                traced = run_tasks(wl, args.seconds / 2, True)
            finally:
                rec.restore()
            tasks = untraced + traced
            check_same_quality(tasks)
            rec.write_csv(WORK / f"spans-{args.workload}-{args.seed}.csv")
            metrics = per_layer_metrics(rec, traced, untraced)
        else:
            sampler = reference.Sampler()
            sampler.install(pkg)
            try:
                tasks = run_tasks(wl, args.seconds, False, sampler)
            finally:
                sampler.restore()
            metrics = {
                "iter_cost": (iter_cost(tasks), "ref"),
                "setup_s": (statistics.median(setup_samples) * reference.NOMINAL_REP_S
                            / statistics.fmean(sampler.all_reps), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for t in tasks if t["problems"])
    correct = failed == 0 and all(value is not None for value, _ in metrics.values())
    record = run_record(args, setup_samples, tasks)
    if not args.trace:
        record["kernel_rep_s"] = statistics.fmean(sampler.all_reps)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(tasks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
