"""Run-time span tracing of milnor-lab's public functions.

The tracer replaces public functions and methods, in every module
namespace where they are looked up, by timing wrappers; nothing in the
program changes on disk.  Spans nest through a stack, so a span's self
time is its duration minus the time of its child spans.  Spans are kept
in memory as (name, start, end, parent) columns and written out when the
run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
from array import array
from statistics import median
from time import perf_counter_ns

# (span name, stage, attribute, namespaces where callers look it up)
# A namespace "module:Class" means a method on that class.
HOOKS = (
    ("datum.enumerate", "enumerate", "enumerate_corpus",
     ("milnor_lab.datum", "milnor_lab.sweep", "milnor_lab.cli")),
    ("datum.parse", "parse", "parse_datum", ("milnor_lab.datum", "milnor_lab.cli")),
    ("datum.validate", "validate", "validate", ("milnor_lab.datum",)),
    ("network.build", "network", "build_network",
     ("milnor_lab.network", "milnor_lab.fibre", "milnor_lab.report")),
    ("fibre.graph_build", "graph build", "build_fibre_graph",
     ("milnor_lab.fibre", "milnor_lab.invariants", "milnor_lab.sweep")),
    ("fibre.union_find", "union-find", "component_labels", ("milnor_lab.fibre:FibreGraph",)),
    ("fibre.monodromy", "monodromy", "component_monodromy",
     ("milnor_lab.fibre", "milnor_lab.sweep", "milnor_lab.report")),
    ("fibre.summary", "summary", "fibre_summary",
     ("milnor_lab.fibre", "milnor_lab.invariants", "milnor_lab.report")),
    ("intlinalg.snf", "SNF", "smith_normal_form", ("milnor_lab.intlinalg", "milnor_lab.report")),
    ("intlinalg.cokernel", "cokernel", "cokernel",
     ("milnor_lab.intlinalg", "milnor_lab.invariants")),
    ("invariants.beta", "beta", "beta",
     ("milnor_lab.invariants", "milnor_lab.sweep", "milnor_lab.report")),
    ("invariants.boundary2", "boundary2", "boundary2_components",
     ("milnor_lab.invariants", "milnor_lab.sweep", "milnor_lab.report")),
    ("invariants.upper_bound", "upper bound", "check_upper_bound",
     ("milnor_lab.invariants", "milnor_lab.sweep", "milnor_lab.report")),
    ("invariants.classify_xr", "classify", "classify_xr",
     ("milnor_lab.invariants", "milnor_lab.report")),
    ("invariants.vertical_shift", "vertical", "vertical_shift",
     ("milnor_lab.invariants", "milnor_lab.report")),
    ("report.build_analysis", "analysis", "build_analysis",
     ("milnor_lab.report", "milnor_lab.cli")),
    ("report.to_json", "serialize", "report_to_json", ("milnor_lab.report", "milnor_lab.cli")),
    ("sweep.check_datum", "check", "check_datum", ("milnor_lab.sweep",)),
    ("sweep.run", "sweep", "run_sweep", ("milnor_lab.sweep", "milnor_lab.cli")),
    ("cli.main", "cli", "main", ("milnor_lab.cli",)),
)

GENERATORS = {"datum.enumerate"}
# validate runs about 20 times per datum and does almost nothing: a span
# would cost more than the call, so it is counted, not timed
COUNT_ONLY = {"datum.validate"}


def _network_nodes(c, args, result):
    c["network.nodes"] += len(result)


def _graph_size(c, args, result):
    c["fibre.graph_vertices"] += result.vertex_count
    c["fibre.graph_edges"] += result.edge_count


def _snf_shape(c, args, result):
    rows, cols = args[0].rows, args[0].cols
    c["intlinalg.snf_cells"] += rows * cols
    c["intlinalg.snf_max_dim"] = max(c["intlinalg.snf_max_dim"], rows, cols)


def _report_bytes(c, args, result):
    c["report.bytes"] += len(result.encode("utf-8"))


def _sweep_elapsed(c, args, result):
    c["sweep.run_elapsed_s"] += result.elapsed


SIZES = {
    "network.build": _network_nodes,
    "fibre.graph_build": _graph_size,
    "intlinalg.snf": _snf_shape,
    "report.to_json": _report_bytes,
    "sweep.run": _sweep_elapsed,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []   # [span index, start, child time]
        self.agg: dict[str, list[int]] = {}  # name -> [count, total ns, self ns]
        self.counters: dict[str, float] = {
            "network.nodes": 0, "fibre.graph_vertices": 0, "fibre.graph_edges": 0,
            "intlinalg.snf_cells": 0, "intlinalg.snf_max_dim": 0, "report.bytes": 0,
            "sweep.run_elapsed_s": 0.0, "datum.enumerated": 0,
        }
        self.missing: list[str] = []
        self.size_errors: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, nid: int) -> list[int]:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        now = perf_counter_ns()
        self.span_start.append(now)
        self.span_end.append(now)
        frame = [idx, now, 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list[int]) -> None:
        now = perf_counter_ns()
        self._stack.pop()
        idx, start, child = frame
        self.span_end[idx] = now
        dur = now - start
        agg = self.agg[self.names[self.span_name[idx]]]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def _wrap(self, name: str, fn):
        self.names.append(name)
        nid = len(self.names) - 1
        agg = self.agg.setdefault(name, [0, 0, 0])
        tracer = self

        if name in COUNT_ONLY:
            def traced(*args, **kwargs):
                if tracer.active:
                    agg[0] += 1
                return fn(*args, **kwargs)
        elif name in GENERATORS:
            def traced(*args, **kwargs):
                it = iter(fn(*args, **kwargs))
                while True:
                    if not tracer.active:
                        yield from it
                        return
                    frame = tracer._enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    tracer.counters["datum.enumerated"] += 1
                    yield item
        else:
            counters = self.counters
            sizes = SIZES.get(name)

            def traced(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                frame = tracer._enter(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                if sizes is not None:
                    try:
                        sizes(counters, args, result)
                    except (AttributeError, TypeError, IndexError):
                        tracer.size_errors.add(name)
                return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        """Wrap every hook that exists; hooks absent from the program are
        listed in ``missing`` instead of failing the run."""
        for name, _stage, attr, spaces in HOOKS:
            wrappers = {}
            found = False
            for space in spaces:
                mod_name, _, cls_name = space.partition(":")
                try:
                    owner = importlib.import_module(mod_name)
                except ImportError:
                    continue
                if cls_name:
                    owner = getattr(owner, cls_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None or not callable(original):
                    continue
                found = True
                key = id(original)
                if key not in wrappers:
                    wrappers[key] = self._wrap(name, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[key])
            if not found:
                self.missing.append(name)
                self.agg.setdefault(name, [0, 0, 0])
        self.active = True

    def remove(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict[str, list[int]]:
        return {name: list(v) for name, v in self.agg.items()}

    def span_count(self) -> int:
        return len(self.span_name)

    def write(self, path) -> None:
        """Write every span as columns: name id, parent index, start and end
        in nanoseconds relative to the first span."""
        t0 = self.span_start[0] if self.span_start else 0
        stages = {name: stage for name, stage, _, _ in HOOKS}
        doc = {
            "names": self.names,
            "stages": [stages.get(n, n) for n in self.names],
            "missing": self.missing,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": [s - t0 for s in self.span_start],
            "end_ns": [e - t0 for e in self.span_end],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def span_cost_s(calls: int = 20_000, reps: int = 7) -> float:
    """Seconds one span adds to a call: a traced no-op against the bare one,
    median over ``reps`` timings of ``calls`` calls each."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap("span cost", noop)
    tracer.active = True
    costs = []
    for _ in range(reps):
        start = perf_counter_ns()
        for _ in range(calls):
            noop()
        bare = perf_counter_ns() - start
        start = perf_counter_ns()
        for _ in range(calls):
            traced()
        costs.append(perf_counter_ns() - start - bare)
    tracer.active = False
    return median(costs) / calls * 1e-9
