"""Run every workload on several seeds and summarise the runs as JSON.

    python3 perfbench/baseline.py --first-seed 601 --out perfbench/baseline.json

Each workload runs on RUNS consecutive seeds, each run a separate
process, as the benchmark is meant to be run.  For every end-to-end metric
the summary holds the median of the runs and the spread, which is the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  One
traced run per workload, on the first seed, adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    descriptor = next(json.loads(line[len("descriptor "):]) for line in lines
                      if line.startswith("descriptor "))
    return json.loads(lines[-1]), descriptor


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True, check=False)
    commit = git.stdout.strip() if git.returncode == 0 else None
    summary = {
        "commit": commit,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "processor": platform.processor() or platform.machine()},
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            result, descriptor = one_run(name, seed, spec["run_seconds"], 0)
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
            if seed == seeds[0]:
                first_descriptor = descriptor
        traced, _ = one_run(name, seeds[0], spec["run_seconds"], 1)
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "end_to_end": {}, "per_layer": {}, "descriptor": first_descriptor}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][metric["name"]] = {
                "median": median, "spread": (q3 - q1) / median, "bound": metric["bound"],
                "unit": metric["unit"], "values": values,
            }
        for key, metric in traced["metrics"].items():
            entry["per_layer"][key] = metric
        summary["workloads"][name] = entry
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    for name, entry in summary["workloads"].items():
        print(name)
        for key, m in entry["end_to_end"].items():
            flag = "" if m["spread"] < m["bound"] / 3 else "  (spread >= bound/3)"
            print(f"  {key:24s} median {m['median']:12.5g} {m['unit']:5s} "
                  f"spread {m['spread']:.4f} bound {m['bound']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
