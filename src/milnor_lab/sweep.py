"""Corpus sweeps: run the property suite over every datum within bounds.

Each property states expected/got as strings; a datum passes silently.
Sweeps are deterministic: datums are checked in canonical enumeration
order and violations are reported in that order regardless of the number
of worker processes.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from math import gcd
from time import perf_counter

from .datum import CorpusBounds, EquisingularDatum, enumerate_corpus
from .errors import CurveSpecError
from .fibre import analyse, component_monodromy, divide_by_gcd, euler_characteristic_closed
from .invariants import (
    beta,
    boundary2_components,
    is_power_of_smooth,
    mu_reduced,
    singular_branches,
)


@dataclass(frozen=True)
class Violation:
    datum: EquisingularDatum
    prop: str
    expected: str
    got: str
    documented: bool = False


@dataclass
class SweepResult:
    bounds: CorpusBounds
    properties: tuple[str, ...]
    checked: int
    violations: list[Violation]
    elapsed: float


# --- property checks -------------------------------------------------------
# each takes the datum's FibreGraph, its beta report (None without a singular set),
# `boundary`, which builds its boundary entries on the first call (only coker-rank and
# upper-bound call it), and the sweep's memo; returns (expected, got) pairs

def _prop_lemma_d_gcd(graph, rep, boundary, memo):
    expected = gcd(*graph.datum.multiplicities)
    if graph.d != expected:
        return [(f"b0 = gcd(m_i) = {expected}", f"b0 = {graph.d}")]
    return []


def _prop_two_route_chi(graph, rep, boundary, memo):
    closed = euler_characteristic_closed(graph.datum)
    if graph.chi != closed:
        return [(f"V - E = closed form = {closed}", f"V - E = {graph.chi}")]
    return []


def _prop_mu_reduced(graph, rep, boundary, memo):
    if rep is not None:  # some m_i >= 2: not a reduced curve
        return []
    expected = mu_reduced(graph.datum)
    if graph.b1 != expected:
        return [(f"b1 = 2*delta_total - r + 1 = {expected}", f"b1 = {graph.b1}")]
    return []


def _prop_divide_by_gcd(graph, rep, boundary, memo):
    d, reduced = divide_by_gcd(graph.datum)
    rgraph = analyse(reduced, memo)
    out = []
    triple = (graph.d, graph.b1, graph.chi)
    scaled = tuple(d * x for x in (rgraph.d, rgraph.b1, rgraph.chi))
    if triple != scaled:
        out.append((f"(b0, b1, chi) = d * reduced = {scaled}", f"{triple}"))
    if rgraph.d != 1:
        out.append(("reduced fibre connected (b0 = 1)", f"b0 = {rgraph.d}"))
    return out


def _prop_monodromy_cycle(graph, rep, boundary, memo):
    mono = component_monodromy(graph.datum)
    if mono.cycle_type != (graph.d,):
        return [(f"cycle type [{graph.d}]", f"{list(mono.cycle_type)}")]
    return []


def _prop_b1_zero_iff_xr(graph, rep, boundary, memo):
    datum = graph.datum
    if is_power_of_smooth(datum) != (graph.b1 == 0):
        return [(
            "b1 = 0 exactly for a power of a smooth branch",
            f"r = {datum.r}, delta = {list(datum.deltas)}, b1 = {graph.b1}",
        )]
    return []


def _prop_beta_nonneg(graph, rep, boundary, memo):
    if rep.beta < 0:
        return [("beta >= 0", f"beta = {rep.beta}")]
    return []


def _prop_corollary_beta0(graph, rep, boundary, memo):
    if rep.c1_beta_zero != rep.verdict_bobadilla:
        return [(
            "beta = 0 exactly for a power of a smooth branch",
            f"beta = {rep.beta}, structural verdict = {rep.verdict_bobadilla}",
        )]
    return []


def _prop_c1_iff_c3(graph, rep, boundary, memo):
    if rep.c1_beta_zero != rep.c3_homology_form:
        return [(
            "C1 (beta = 0) equivalent to C3 (b1 = 0 and b0 - 1 = sum mu_perp)",
            f"C1 = {rep.c1_beta_zero}, C3 = {rep.c3_homology_form}",
        )]
    return []


def _prop_coker_rank(graph, rep, boundary, memo):
    out = []
    d = graph.d
    for entry in boundary():
        m = graph.datum.branches[entry.branch].multiplicity
        # independent orbit oracle for the shift a -> a + k (mod m)
        seen = set()
        orbits = 0
        for start in range(m):
            if start in seen:
                continue
            orbits += 1
            a = start
            while a not in seen:
                seen.add(a)
                a = (a + entry.shift) % m
        if entry.coker.free_rank != orbits or entry.coker.torsion:
            out.append((
                f"branch {entry.branch + 1}: coker(A - I) free of rank {orbits}",
                f"rank {entry.coker.free_rank}, torsion {list(entry.coker.torsion)}",
            ))
        if entry.components % d != 0:
            out.append((
                f"branch {entry.branch + 1}: d | gcd(m, k)",
                f"d = {d}, gcd = {entry.components}",
            ))
        if not entry.chain_ok:
            out.append((
                f"branch {entry.branch + 1}: boundary components map onto fibre components",
                "chain_ok = False",
            ))
    return out


def _prop_upper_bound(graph, rep, boundary, memo):
    verdict = rep.upper_bound(boundary)
    if verdict.hypothesis and not verdict.conclusion_holds:
        return [(
            "rank bound attained forces identity vertical monodromies",
            f"cokernels_free = {verdict.cokernels_free}, "
            f"shifts_identity = {verdict.shifts_identity}",
        )]
    return []


def _prop_chi_form(graph, rep, boundary, memo):
    if rep.c1_beta_zero and not rep.c2_chi_form:
        return [(
            "beta = 0 implies chi(F) = 1 - sum mu_perp",
            f"beta = 0, chi-form false (b0 = {rep.b0}, b1 = {rep.b1})",
        )]
    return []


# name, check, its findings are documented (so it is opt-in), needs a singular set
_REGISTRY = (
    ("lemma-d-gcd", _prop_lemma_d_gcd, False, False),
    ("two-route-chi", _prop_two_route_chi, False, False),
    ("mu-reduced", _prop_mu_reduced, False, False),
    ("divide-by-gcd", _prop_divide_by_gcd, False, False),
    ("monodromy-cycle", _prop_monodromy_cycle, False, False),
    ("prop1-b1-xr", _prop_b1_zero_iff_xr, False, False),
    ("beta-nonneg", _prop_beta_nonneg, False, True),
    ("corollary-beta0", _prop_corollary_beta0, False, True),
    ("c1-iff-c3", _prop_c1_iff_c3, False, True),
    ("coker-rank", _prop_coker_rank, False, True),
    ("upper-bound", _prop_upper_bound, False, True),
    ("prop2-chi-form", _prop_chi_form, True, True),  # known discrepancy at curve level
)

DEFAULT_PROPERTIES = tuple(name for name, _, documented, _ in _REGISTRY if not documented)
ALL_PROPERTIES = tuple(name for name, _, _, _ in _REGISTRY)
_TABLE = {name: (fn, documented, singular) for name, fn, documented, singular in _REGISTRY}


def resolve_properties(names=None) -> tuple[str, ...]:
    """Normalize a requested property list to registry order."""
    if names is None:
        return DEFAULT_PROPERTIES
    if not names:
        raise CurveSpecError(f"no property named; available: {', '.join(ALL_PROPERTIES)}")
    requested = set(names)
    unknown = requested - set(ALL_PROPERTIES)
    if unknown:
        raise CurveSpecError(
            f"unknown properties {sorted(unknown)}; available: {', '.join(ALL_PROPERTIES)}"
        )
    return tuple(name for name in ALL_PROPERTIES if name in requested)


# datums handed to a worker per round trip, each chunk with its own copy of the
# sweep's empty memo.  `verify` of the 20,024 datums of (3,4,3,3) on 2 CPUs, import
# to exit: 2.76 s at --jobs 1; at --jobs 2, 1.93 s at 64 against 1.82 s at 256
# (medians of ten alternating pairs, inside their spread), 2.40 s at 16
_CHUNKSIZE = 64


def check_datum(datum: EquisingularDatum, names, memo: dict | None = None) -> list[Violation]:
    graph = analyse(datum, memo)
    rep = beta(datum) if singular_branches(datum) else None
    # a closure, not functools.cache, which spends about 6 us per datum
    # (CPython 3.11) on the wrapper even when no property reads the boundary
    built = []

    def boundary():
        if not built:
            built.append(boundary2_components(datum, memo))
        return built[0]

    violations = []
    for name in names:
        fn, documented, singular = _TABLE[name]
        if singular and rep is None:
            continue
        for expected, got in fn(graph, rep, boundary, memo):
            violations.append(Violation(datum, name, expected, got, documented))
    return violations


def run_sweep(bounds: CorpusBounds, properties=None, jobs: int = 1) -> SweepResult:
    """Check the corpus as it is enumerated; violations keep enumeration
    order at any job count, because both maps below preserve it."""
    names = resolve_properties(properties)
    # the sweep's memo: graphs by shape, cokernels by (m, k), dropped with
    # `check`; at --jobs > 1 each chunk gets a copy of it, empty
    check = partial(check_datum, names=names, memo={})
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))  # honours taskset and cpusets
    else:
        cpus = os.cpu_count() or 1
    workers = min(jobs, cpus)
    checked = 0
    violations = []
    start_time = perf_counter()
    with (multiprocessing.Pool(workers) if workers > 1 else nullcontext()) as pool:
        datums = enumerate_corpus(bounds)
        results = pool.imap(check, datums, _CHUNKSIZE) if pool else map(check, datums)
        for found in results:
            checked += 1
            violations.extend(found)
    elapsed = perf_counter() - start_time
    return SweepResult(bounds, names, checked, violations, elapsed)
