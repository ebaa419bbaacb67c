"""Paired A/B runner: run the benchmark on two commits in alternating pairs
and compare each end-to-end metric.

    python3 tools/ab.py --base HEAD~1 --head HEAD --workload corpus-sweep --pairs 10
    python3 tools/ab.py --base HEAD --head HEAD --workload corpus-sweep   # A against A

Both commits are exported with ``git archive`` into temporary directories,
so the checkout is not written to.  Pair i runs
``perfbench/run.py --workload W --seed <first seed + i> --seconds S --trace 0``
once on each side, S being ``run_seconds`` of ``BENCHMARK.json``, and the
side that runs first alternates from pair to pair, so a drift in machine
speed falls on both sides alike.  For each end-to-end metric of
``BENCHMARK.json`` the table gives each side's median and quartiles
[q1, q3], how many pairs the head side won (ties count for
neither), and the median of the paired ratios head/base with a 95%
bootstrap interval.  The verdict is ``worse`` when the head median is
worse than the base median by more than the metric's bound, ``unresolved``
when either side's interquartile range exceeds the bound (as a share of
the base median), and ``ok`` otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one benchmark run, as {name: value}."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed "
                         f"{result['failed']} of {result['attempted']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def bootstrap_median(ratios, rng, reps=2000):
    """95% percentile interval of the median of ``ratios``, resampled."""
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(reps))
    return medians[int(0.025 * reps)], medians[int(0.975 * reps) - 1]


def compare(metric: dict, base: list[float], head: list[float], rng) -> str:
    lower = metric["better"] == "lower"
    b1, bm, b3 = statistics.quantiles(base, n=4)
    h1, hm, h3 = statistics.quantiles(head, n=4)
    wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
    ratios = [h / b for b, h in zip(base, head)]
    lo, hi = bootstrap_median(ratios, rng)
    bound = metric["bound"]
    change = (hm - bm) / bm
    if (change if lower else -change) > bound:
        verdict = "worse"
    elif max(b3 - b1, h3 - h1) > bound * bm:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return (f"{metric['name']:22s} {bm:10.4g} [{b1:.4g}, {b3:.4g}]  "
            f"{hm:10.4g} [{h1:.4g}, {h3:.4g}]  {wins:2d}/{len(base):<2d}  "
            f"{statistics.median(ratios):.4f} [{lo:.4f}, {hi:.4f}]  {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the A side")
    parser.add_argument("--head", required=True, help="git revision of the B side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    with tempfile.TemporaryDirectory(prefix="milnor-ab-") as tmp:
        sides = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        export(args.base, sides["base"])
        export(args.head, sides["head"])
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(
                    run_once(sides[side], args.workload, seed, benchmark["run_seconds"]))
            print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first) done",
                  file=sys.stderr)

    rng = random.Random(0)
    print(f"{args.workload}: base {args.base}, head {args.head}, {args.pairs} pairs, "
          f"seeds {args.first_seed}-{args.first_seed + args.pairs - 1}")
    print(f"{'metric':22s} {'base median [q1, q3]':>26s}  {'head median [q1, q3]':>26s}  "
          f"wins   head/base [95% CI]  verdict")
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        print(compare(metric, [r[name] for r in runs["base"]],
                      [r[name] for r in runs["head"]], rng))
    return 0


if __name__ == "__main__":
    sys.exit(main())
