"""Run the benchmark over several seeds and write one BENCH file.

    python3 bench/collect.py --seeds 1-10 --out bench/results/BENCH_0.json
    python3 bench/collect.py --seeds 2718 --trace 1 --out held_out.json

Each run is ``bench/run.py`` in its own process, one after another, so the
runs never compete for the machine.  The file holds every run's result and
record.  For each workload and end-to-end metric it also holds the median,
the quartiles and the spread, which is the quartile distance divided by the
median.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"])
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 0,5,9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    runs = {}
    for name in args.workloads.split(","):
        runs[name] = []
        for seed in parse_seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
            lines = proc.stdout.splitlines()
            result, record = json.loads(lines[-1]), json.loads(lines[-2])["record"]
            runs[name].append({"seed": seed, "wall_s": time.perf_counter() - start,
                               "result": result, "record": record})
            shown = {k: round(v["value"], 6) for k, v in result["metrics"].items()
                     if k in {m["name"] for m in spec["end_to_end"]}}
            print(name, seed, result["correct"], result["attempted"], result["failed"], shown, flush=True)

    group = "per_layer" if args.trace else "end_to_end"
    summary = {
        name: {
            m["name"]: summarize([r["result"]["metrics"][m["name"]]["value"] for r in rs])
            for m in spec[group]
            if all(r["result"]["metrics"][m["name"]]["value"] is not None for r in rs)
        }
        for name, rs in runs.items()
    }
    if not args.trace:
        for name, metrics in summary.items():
            print(name, {k: round(v["spread"], 4) for k, v in metrics.items() if "spread" in v})
    Path(args.out).write_text(json.dumps({"seconds": args.seconds, "trace": args.trace,
                                          "summary": summary, "runs": runs}, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
