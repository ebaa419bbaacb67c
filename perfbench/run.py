"""milnor-lab benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload corpus-sweep --seed 1 --seconds 20 --trace 0

The program is driven only through public entry points: ``cli.main`` in
process with stdout captured, and, in the traced run, timing wrappers
around the public functions of each module.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones, from one untraced and one traced pass over the
same inputs.

A run always measures whole operations.  A corpus workload runs whole
verifies until --seconds have passed, so at least one; an analyze
workload runs whole passes of its draw for about --seconds, and at least
enough passes for 100 samples.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 16            # half before the plain run, half after it
MIN_ANALYZE_SAMPLES = 100   # so p90 has at least ten samples beyond it
OUT_DIR = ROOT / ".perfbench"


class ProgramMissing(Exception):
    pass


def import_program():
    """Import milnor_lab from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("milnor_lab.cli")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import milnor_lab from {SRC}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"milnor_lab was imported from {cli.__file__}, not {SRC}")
    return cli


def load_golden() -> dict:
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)


def corpus_key(bounds) -> str:
    return ",".join(str(b) for b in bounds)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

class Inputs:
    """Everything a run feeds the program, made from the seed."""

    def __init__(self, wl: workloads.Workload, seed: int, smoke: bool, golden: dict):
        self.bounds = workloads.SMOKE_CORPUS if smoke else wl.verify_bounds
        ref = golden["verify"][corpus_key(self.bounds)]
        self.verify_checked = ref["checked"]
        self.verify_sha256 = ref["stdout_sha256"]
        self.verify_argv = ["verify",
                            "--max-branches", str(self.bounds[0]),
                            "--max-mult", str(self.bounds[1]),
                            "--max-delta", str(self.bounds[2]),
                            "--max-int", str(self.bounds[3]),
                            "--jobs", "1"]
        specs = workloads.pool(wl.pool)
        pool_ref = golden["pools"][wl.pool]
        if workloads.pool_sha(specs) != pool_ref["pool_sha"]:
            raise RuntimeError(f"pool {wl.pool!r} no longer matches its reference digests")
        size = 12 if smoke else wl.draw_size
        picked = workloads.draw(pool_ref["order"], size, seed, smoke)
        # (spec, inline JSON, reference digest) per analyze call
        self.items = [(specs[n], workloads.spec_text(specs[n]), pool_ref["digests"][n])
                      for n in picked]


def measure_setup(wl, seed, smoke, golden, reps) -> tuple[list[float], Inputs]:
    """Times of ``reps`` set-ups, each a fresh interpreter importing the
    program plus making this workload's inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    inputs = None
    for _ in range(reps):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import milnor_lab.cli"],
                       cwd=ROOT, env=env, check=True)
        inputs = Inputs(wl, seed, smoke, golden)
        times.append(perf_counter() - start)
    return times, inputs


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.stdout_bytes = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)


def call_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def run_verify(cli, inputs: Inputs, tally: Tally) -> float:
    tally.attempted += 1
    start = perf_counter()
    try:
        code, text = call_cli(cli, inputs.verify_argv)
    except Exception as exc:  # a crash is a failed operation, not a crashed run
        tally.fail(f"verify raised {exc!r}")
        return perf_counter() - start
    wall = perf_counter() - start
    tally.stdout_bytes += len(text.encode("utf-8"))
    if code != 0:
        tally.fail(f"verify exited {code}")
        return wall
    try:
        bad = workloads.check_verify(text, inputs.verify_checked, inputs.verify_sha256)
    except (ValueError, KeyError, TypeError) as exc:
        bad = [f"unreadable stdout: {exc!r}"]
    if bad:
        tally.fail("verify: " + "; ".join(bad))
    return wall


def run_analyze(cli, items, tally: Tally, latencies: list[float]) -> None:
    """Analyze each item once, appending each call's latency."""
    for spec, text, digest in items:
        tally.attempted += 1
        start = perf_counter()
        try:
            code, out = call_cli(cli, ["analyze", text])
        except Exception as exc:
            tally.fail(f"analyze {text} raised {exc!r}")
            continue
        latencies.append(perf_counter() - start)
        tally.stdout_bytes += len(out.encode("utf-8"))
        if code != 0:
            tally.fail(f"analyze {text} exited {code}")
            continue
        try:
            bad = workloads.check_report(spec, out, digest)
        except (ValueError, KeyError, TypeError) as exc:
            bad = [f"unreadable report: {exc!r}"]
        if bad:
            tally.fail(f"analyze {text}: " + "; ".join(bad))


def percentile(sorted_vals, pct):
    """Nearest-rank percentile."""
    rank = -(-pct * len(sorted_vals) // 100)
    return sorted_vals[max(rank, 1) - 1]


def highest_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    best = 50
    for pct in range(50, 100):
        if n - -(-pct * n // 100) >= 10:
            best = pct
    return best


# ---------------------------------------------------------------------------
# the plain run: end-to-end metrics
# ---------------------------------------------------------------------------

def plain_run(cli, wl, inputs, seconds, smoke):
    """Run the workload's two phases."""
    tally = Tally()
    verify_walls: list[float] = []
    latencies: list[float] = []
    items = inputs.items
    min_passes = 1 if smoke else -(-MIN_ANALYZE_SAMPLES // len(items))

    if wl.main == "verify":
        before = max(wl.side // 2, min_passes)
        for _ in range(before):
            run_analyze(cli, items, tally, latencies)
        start = perf_counter()
        while True:
            verify_walls.append(run_verify(cli, inputs, tally))
            if perf_counter() - start > seconds:
                break
        for _ in range(wl.side - before):
            run_analyze(cli, items, tally, latencies)
    else:
        chunks = [items[k * len(items) // wl.side:(k + 1) * len(items) // wl.side]
                  for k in range(wl.side)]
        start = perf_counter()
        passes = 0
        while True:
            pass_start = perf_counter()
            for chunk in chunks:
                run_analyze(cli, chunk, tally, latencies)
                verify_walls.append(run_verify(cli, inputs, tally))
            passes += 1
            now = perf_counter()
            if passes >= min_passes and now - start + (now - pass_start) > seconds:
                break

    lat_ms = sorted(x * 1000 for x in latencies)
    verify_wall = statistics.median(verify_walls)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "verify_wall_s": (verify_wall, "s"),
        "verify_datums_per_s": (inputs.verify_checked / verify_wall, "1/s"),
        "analyze_ms_p50": (percentile(lat_ms, 50), "ms"),
        "analyze_ms_p90": (percentile(lat_ms, 90), "ms"),
        "analyze_datums_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    top = highest_percentile(len(lat_ms))
    info = {
        "verify_runs": len(verify_walls),
        "analyze_samples": len(lat_ms),
        f"analyze_ms_p{top}": percentile(lat_ms, top),
    }
    return tally, metrics, info


# ---------------------------------------------------------------------------
# the traced run: per-layer metrics
# ---------------------------------------------------------------------------

def traced_work(cli, wl, inputs, tally, tracer=None):
    """The fixed work of a traced run: one analyze pass, then as many
    verifies as one pass of a plain run makes.  Returns (wall time, the
    tracer's aggregates after the analyze pass)."""
    start = perf_counter()
    run_analyze(cli, inputs.items, tally, [])
    analyze_agg = tracer.snapshot() if tracer else None
    for _ in range(wl.side if wl.main == "analyze" else 1):
        run_verify(cli, inputs, tally)
    return perf_counter() - start, analyze_agg


def traced_run(cli, wl, inputs, seed):
    tally = Tally()
    untraced, _ = traced_work(cli, wl, inputs, tally)
    tally.stdout_bytes = 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, analyze_agg = traced_work(cli, wl, inputs, tally, tracer)
    finally:
        tracer.remove()
    spans_file = OUT_DIR / f"spans-{wl.name}-seed{seed}.json.gz"
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(spans_file)
    datums = len(inputs.items) + tracer.agg["sweep.check_datum"][0]
    metrics = layer_metrics(tracer, analyze_agg, datums, tally.stdout_bytes)
    # One traced minus one untraced pass is within the machine's drift and
    # can even be negative, so the overhead is the span count times the
    # measured cost of one span.
    overhead = tracer.span_count() * tracing.span_cost_s()
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / untraced, "ratio")
    metrics["trace.spans"] = (tracer.span_count(), "count")
    info = {"missing_hooks": tracer.missing, "size_errors": sorted(tracer.size_errors),
            "traced_minus_untraced_s": traced - untraced,
            "spans_file": str(spans_file.relative_to(ROOT))}
    return tally, metrics, info


def layer_metrics(tracer, analyze_agg, datums, stdout_bytes):
    agg, c = tracer.agg, tracer.counters
    ns = 1e-9

    def count(name):
        return agg[name][0]

    def total(name):
        return agg[name][1] * ns

    def self_time(name):
        return agg[name][2] * ns

    enum_s = total("datum.enumerate")
    analyze_s = analyze_agg["cli.main"][1] * ns
    return {
        "datum.enumerate_s": (enum_s, "s"),
        "datum.enumerate_per_s": (c["datum.enumerated"] / enum_s if enum_s else 0.0, "1/s"),
        "datum.parse_s": (total("datum.parse"), "s"),
        "datum.validate_calls": (count("datum.validate"), "count"),
        "network.build_calls": (count("network.build"), "count"),
        "network.build_s": (total("network.build"), "s"),
        "network.nodes": (c["network.nodes"], "count"),
        "fibre.graph_builds": (count("fibre.graph_build"), "count"),
        "fibre.graph_builds_per_datum": (count("fibre.graph_build") / datums, "ratio"),
        "fibre.graph_build_s": (total("fibre.graph_build"), "s"),
        "fibre.graph_vertices": (c["fibre.graph_vertices"], "count"),
        "fibre.graph_edges": (c["fibre.graph_edges"], "count"),
        "fibre.union_find_s": (total("fibre.union_find"), "s"),
        "fibre.monodromy_s": (total("fibre.monodromy"), "s"),
        "fibre.summary_calls": (count("fibre.summary"), "count"),
        "intlinalg.snf_calls": (count("intlinalg.snf"), "count"),
        "intlinalg.snf_s": (total("intlinalg.snf"), "s"),
        "intlinalg.snf_cells": (c["intlinalg.snf_cells"], "count"),
        "intlinalg.snf_max_dim": (c["intlinalg.snf_max_dim"], "count"),
        "intlinalg.snf_share_of_analyze": (
            analyze_agg["intlinalg.snf"][1] * ns / analyze_s if analyze_s else 0.0, "ratio"),
        "intlinalg.cokernel_calls": (count("intlinalg.cokernel"), "count"),
        "invariants.beta_s": (total("invariants.beta"), "s"),
        "invariants.boundary2_calls": (count("invariants.boundary2"), "count"),
        "invariants.boundary2_s": (total("invariants.boundary2"), "s"),
        "invariants.upper_bound_s": (total("invariants.upper_bound"), "s"),
        "invariants.classify_xr_s": (total("invariants.classify_xr"), "s"),
        "invariants.vertical_shift_calls": (count("invariants.vertical_shift"), "count"),
        "report.build_analysis_self_s": (self_time("report.build_analysis"), "s"),
        "report.to_json_s": (total("report.to_json"), "s"),
        "report.bytes": (c["report.bytes"], "bytes"),
        "sweep.check_datum_calls": (count("sweep.check_datum"), "count"),
        "sweep.check_datum_self_s": (self_time("sweep.check_datum"), "s"),
        "sweep.run_elapsed_s": (c["sweep.run_elapsed_s"], "s"),
        "cli.self_s": (self_time("cli.main"), "s"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, smoke=False):
    """Run one workload; returns (result object, descriptor, info)."""
    wl = workloads.WORKLOADS[name]
    cli = import_program()
    golden = load_golden()
    setup_times, inputs = measure_setup(wl, seed, smoke, golden, SETUP_REPS // 2)
    if trace:
        tally, metrics, info = traced_run(cli, wl, inputs, seed)
    else:
        tally, metrics, info = plain_run(cli, wl, inputs, seconds, smoke)
        # set-ups on both sides of the run, so that their median spans it
        setup_times += measure_setup(wl, seed, smoke, golden, SETUP_REPS // 2)[0]
        metrics["setup_s"] = (statistics.median(setup_times), "s")
    info["failed_ratio"] = tally.failed / tally.attempted
    info["errors"] = tally.errors
    descriptor = {
        "corpus": golden["verify"][corpus_key(inputs.bounds)]["descriptor"],
        "analyze_draw": workloads.describe([workloads.expand(s) for s, _, _ in inputs.items]),
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, descriptor, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        result, descriptor, info = run_workload(
            args.workload, args.seed, args.seconds, args.trace, args.smoke)
    except (ProgramMissing, OSError, RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for key, metric in result["metrics"].items():
        print(f"{key:36s} {metric['value']:>16.6g} {metric['unit']}")
    print("info " + json.dumps(info, sort_keys=True))
    print("descriptor " + json.dumps(descriptor, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
