"""Compare a git revision with this checkout by alternating benchmark pairs.

    python scripts/bench_pairs.py REV [--workload W ...] [--pairs N] [--seed S ...] [--seconds S]

Extracts REV with ``git archive`` into ``base/`` in a temporary directory,
and copies this checkout's tracked files, and its untracked files that git
does not ignore, into ``this/`` beside it, so uncommitted edits are measured
and both sides run from paths that differ in nothing but that name. Then,
for each workload and seed, it runs ``bench/run.py --trace 0`` N times in
each tree, one process at a time, and prints one report block.
``--workload`` may be repeated; without it every workload in
``BENCHMARK.json`` runs, in its order.  ``--seed`` may be repeated too, so
one export covers a claim seed and a held-out one; each workload then runs
at every seed, in the order given (seed 0 without it).
Each tree runs its own ``bench/run.py``; a note is printed when the two
trees' ``bench/`` directories differ, since the comparison then mixes
benchmark code. The first tree to run alternates from pair to pair, so a
slow or fast spell of the host falls on both sides.

For every end-to-end metric that ``BENCHMARK.json`` lists, it prints each
pair, each tree's median and quartiles, and how many pairs the checkout won
(a tie counts for neither). It then says whether the pairs support a gain:
the checkout wins at least nine tenths of the pairs and the medians differ by
more than the distance between the revision's own quartiles. The mirror rule
says whether the checkout is worse: the revision wins at least nine tenths of
the pairs and the medians differ, the other way, by more than that distance.
Last, it sets the relative change of the medians against the metric's
``bound`` from ``BENCHMARK.json``: the change is "worse by more than the
bound" or "within the bound", or "unresolved" when the revision's quartile
spread, relative to its median, is wider than the bound, so that the
revision's own runs cannot tell a change of that size, unless every run of
the checkout beats every run of the revision.
The revision's side is labelled ``base`` and the checkout's ``this``.
Nothing in the checkout is written: each ``bench/run.py`` keeps its scratch
files in its own copy.
"""

import argparse
import filecmp
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export_tree(rev, dest):
    """Write the files of ``rev`` into ``dest`` with ``git archive``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, filter="data")


def copy_checkout(dest):
    """Copy the checkout's tracked files, and its untracked files that git does
    not ignore, into ``dest``; a tracked file deleted from the checkout is skipped."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True).stdout
    for name in map(os.fsdecode, filter(None, listed.split(b"\0"))):
        if (ROOT / name).is_file():
            (Path(dest) / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, Path(dest) / name)


def run_bench(tree, workload, seed, seconds):
    """One ``bench/run.py --trace 0`` process in ``tree``; returns its result object."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def benchmark_spec(tree):
    """The tree's BENCHMARK.json."""
    return json.loads((Path(tree) / "BENCHMARK.json").read_text())


def end_to_end_metrics(tree):
    """[(name, better, bound)] for each end-to-end metric the tree's BENCHMARK.json lists."""
    return [(m["name"], m["better"], m["bound"]) for m in benchmark_spec(tree)["end_to_end"]]


def bench_differs(a, b):
    """True when the ``bench/`` directories of two trees hold different files."""
    def differ(cmp):
        return bool(cmp.left_only or cmp.right_only or cmp.diff_files or cmp.funny_files) or any(
            differ(sub) for sub in cmp.subdirs.values()
        )

    return differ(filecmp.dircmp(Path(a) / "bench", Path(b) / "bench", ignore=["__pycache__", ".bench_work"]))


def quartiles(values):
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(name, better, base, this):
    """Lines reporting one metric over the pairs, ending with the gain and the worse verdicts."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for b, t in zip(base, this) if sign * (t - b) > 0)
    losses = sum(1 for b, t in zip(base, this) if sign * (t - b) < 0)
    b1, b2, b3 = quartiles(base)
    t1, t2, t3 = quartiles(this)
    change = f"{(t2 - b2) / b2:+.1%}" if b2 else "n/a"
    gain = wins * 10 >= 9 * len(base) and sign * (t2 - b2) > b3 - b1
    worse = losses * 10 >= 9 * len(base) and sign * (b2 - t2) > b3 - b1
    return [
        f"{name}: base median {b2:.6g} (quartiles {b1:.6g}-{b3:.6g}), "
        f"this median {t2:.6g} (quartiles {t1:.6g}-{t3:.6g}), {change}",
        f"{name}: this wins {wins}/{len(base)} pairs, medians differ by {abs(t2 - b2):.6g} "
        f"against a base quartile spread of {b3 - b1:.6g}: gain {'supported' if gain else 'not supported'}",
        f"{name}: base wins {losses}/{len(base)} pairs: this is {'worse' if worse else 'not worse'}",
    ]


def bound_verdict(name, better, bound, base, this):
    """A line setting the relative change of the medians against the metric's bound:
    worse by more than it, within it, or unresolved when the base's quartile
    spread is wider than the bound and some base run beats or ties some run
    of this side."""
    sign = -1.0 if better == "lower" else 1.0
    b1, b2, b3 = quartiles(base)
    if not b2:
        return f"{name}: base median 0, so no relative change to set against the bound of {bound:.0%}"
    t2 = quartiles(this)[1]
    head = f"{name}: median change {(t2 - b2) / b2:+.1%} against a bound of {bound:.0%}"
    spread = (b3 - b1) / abs(b2)
    if spread > bound and not min(sign * t for t in this) > max(sign * b for b in base):
        return f"{head}: unresolved, the base quartile spread is {spread:.1%} of its median"
    worse = sign * (b2 - t2) / abs(b2) > bound
    return f"{head}: {'worse by more than the bound' if worse else 'within the bound'}"


def run_pairs(base_tree, this_tree, workload, pairs, seed, seconds):
    """Run the pairs and print the report."""
    metrics = end_to_end_metrics(this_tree)
    results = {"base": [], "this": []}
    trees = {"base": base_tree, "this": this_tree}
    for i in range(pairs):
        order = ("base", "this") if i % 2 == 0 else ("this", "base")
        for side in order:
            results[side].append(run_bench(trees[side], workload, seed, seconds))
        values = "; ".join(
            f"{name} {results['base'][-1]['metrics'][name]['value']:.6g}/{results['this'][-1]['metrics'][name]['value']:.6g}"
            for name, *_ in metrics
        )
        print(f"pair {i + 1} ({order[0]} first), base/this: {values}", flush=True)
    for side in ("base", "this"):
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        print(f"{side}: {failed} of {attempted} tasks failed")
    for name, better, bound in metrics:
        base = [r["metrics"][name]["value"] for r in results["base"]]
        this = [r["metrics"][name]["value"] for r in results["this"]]
        for line in summarize(name, better, base, this):
            print(line)
        print(bound_verdict(name, better, bound, base, this))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against, for example HEAD~1")
    parser.add_argument("--workload", action="append",
                        help="a workload of BENCHMARK.json; repeat for more (default: every one)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, action="append",
                        help="the workload seed; repeat for more (default: 0)")
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    known = [w["name"] for w in benchmark_spec(ROOT)["workloads"]]
    unknown = [w for w in args.workload or () if w not in known]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; BENCHMARK.json lists {', '.join(known)}")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        base, this = Path(tmp) / "base", Path(tmp) / "this"
        export_tree(args.rev, base)
        copy_checkout(this)
        differs = bench_differs(base, this)
        blocks = [(w, seed) for w in args.workload or known for seed in args.seed or [0]]
        for i, (workload, seed) in enumerate(blocks):
            if i:
                print()
            print(f"{workload}, seed {seed}, {args.seconds:g} s per run: "
                  f"base = {args.rev}, this = {ROOT} with its uncommitted edits")
            if differs:
                print("note: bench/ differs between the two trees, so each side runs different benchmark code")
            run_pairs(base, this, workload, args.pairs, seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
