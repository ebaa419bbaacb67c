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
from . import fibre
from .errors import CurveSpecError
from .fibre import (
    FibreGraph,
    divide_by_gcd,
    euler_characteristic_closed,
    graph_shape,
    memoized,
    weighed_counts,
)
from .invariants import (
    BetaReport,
    Boundary2Branch,
    beta_report,
    boundary_entries,
    is_power_of_smooth,
    mu_reduced,
    singular_branches,
    vertical_shifts,
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


# --- the facts the properties read ------------------------------------------

@dataclass
class Shape:
    """What every datum of one graph shape shares, found once from the fibre
    graph of the first one seen: the graph and its facts, each network node's
    weights and the branch or pair whose delta_i or I_ij is its copies, and,
    once a property reads them, the gcd-reduced datum's shape and the boundary
    entries by shifts.  The datums of a block (one branch-type tuple) share one
    shape, and so may several blocks."""

    graph: FibreGraph  # its monodromy is checked only when a property reads it
    d: int  # components, from the labels
    gcd: int  # of the multiplicities
    xr: bool  # the structural verdict: a power of a smooth branch
    sheets: int
    sources: tuple[tuple[int, int | None], ...]  # (i, j): I_ij, or delta_i for j None
    singular: tuple[int, ...]
    fibre_sizes: tuple[int, ...]  # transversal points of each singular branch
    entries: dict  # shifts k_i -> boundary entries
    reduced: Shape | None = None  # of the gcd-reduced datum, when the gcd is above 1


def _shape(datum: EquisingularDatum, memo: dict | None) -> Shape:
    """The shape of a datum, kept in a sweep's ``memo``."""
    def make():
        # not kept on the datum (as analyse keeps it), so that no datum-graph
        # cycle outlives the sweep; looked up at call time, as tests corrupt it
        graph = fibre.build_fibre_graph(datum)
        singular = tuple(singular_branches(datum))
        return Shape(graph, graph.d, gcd(*datum.multiplicities), is_power_of_smooth(datum),
                     sum(datum.multiplicities), tuple((n.i, n.j) for n in graph.network),
                     singular, tuple(datum.branches[i].multiplicity for i in singular), {})
    return memoized(memo, ("shape", graph_shape(datum)), make)


@dataclass(slots=True)
class Facts:
    """One datum's facts: its shape, its copies, V - E and b1 from them, the
    beta report (None without a singular set), and its boundary entries once read."""

    datum: EquisingularDatum
    shape: Shape
    memo: dict | None
    copies: list[int]
    chi: int
    b1: int
    rep: BetaReport | None
    entries: tuple[Boundary2Branch, ...] | None = None

    def reduced(self) -> tuple[int, int, int]:
        """(b0, b1, chi) of the gcd-reduced datum, on the same copies."""
        shape = reduced = self.shape
        if shape.gcd > 1:
            if shape.reduced is None:
                shape.reduced = _shape(divide_by_gcd(self.datum)[1], self.memo)
            reduced = shape.reduced
        vertices, edges = weighed_counts(reduced.sheets, reduced.graph.weights, self.copies)
        return reduced.d, reduced.d - (vertices - edges), vertices - edges

    def boundary(self) -> tuple[Boundary2Branch, ...]:
        if self.entries is None:
            shape = self.shape
            shifts = vertical_shifts(self.datum, shape.singular)
            self.entries = memoized(shape.entries, shifts, lambda: boundary_entries(
                shape.graph.labels, shape.d, shape.graph.shift_cycles, shape.singular,
                shifts, self.memo))
        return self.entries


def datum_facts(datum: EquisingularDatum, memo: dict | None = None) -> Facts:
    """The facts of one datum: its shape's, then O(r^2) integer work.  In a
    sweep's ``memo`` the datums of one block find their shape by the identity
    of their ``branches``."""
    last = memo.get("last block") if memo is not None else None  # (branches, shape)
    if last is not None and last[0] is datum.branches:
        shape = last[1]
    else:
        shape = _shape(datum, memo)
        if memo is not None:
            memo["last block"] = (datum.branches, shape)
    branches, rows = datum.branches, datum.intersections
    copies = [branches[i].delta if j is None else rows[i][j] for i, j in shape.sources]
    vertices, edges = weighed_counts(shape.sheets, shape.graph.weights, copies)
    chi = vertices - edges
    b1 = shape.d - chi
    rep = beta_report(shape.d, b1, chi, shape.fibre_sizes, shape.xr) if shape.singular else None
    return Facts(datum, shape, memo, copies, chi, b1, rep)


# --- property checks -------------------------------------------------------
# each takes a datum's Facts and yields its (expected, got) pairs; only
# coker-rank and upper-bound read the boundary entries

def _prop_lemma_d_gcd(f):
    expected = f.shape.gcd
    if f.shape.d != expected:
        yield f"b0 = gcd(m_i) = {expected}", f"b0 = {f.shape.d}"


def _prop_two_route_chi(f):
    closed = euler_characteristic_closed(f.datum)
    if f.chi != closed:
        yield f"V - E = closed form = {closed}", f"V - E = {f.chi}"


def _prop_mu_reduced(f):
    if f.rep is None:  # every m_i is 1: a reduced curve
        expected = mu_reduced(f.datum)
        if f.b1 != expected:
            yield f"b1 = 2*delta_total - r + 1 = {expected}", f"b1 = {f.b1}"


def _prop_divide_by_gcd(f):
    reduced = f.reduced()
    triple = (f.shape.d, f.b1, f.chi)
    scaled = tuple(f.shape.gcd * x for x in reduced)
    if triple != scaled:
        yield f"(b0, b1, chi) = d * reduced = {scaled}", f"{triple}"
    if reduced[0] != 1:
        yield "reduced fibre connected (b0 = 1)", f"b0 = {reduced[0]}"


def _prop_monodromy_cycle(f):
    d, mono = f.shape.d, f.shape.graph.monodromy
    if mono.cycle_type != (d,):
        yield f"cycle type [{d}]", f"{list(mono.cycle_type)}"


def _prop_b1_zero_iff_xr(f):
    if f.shape.xr != (f.b1 == 0):
        yield ("b1 = 0 exactly for a power of a smooth branch",
               f"r = {f.datum.r}, delta = {list(f.datum.deltas)}, b1 = {f.b1}")


def _prop_beta_nonneg(f):
    if f.rep.beta < 0:
        yield "beta >= 0", f"beta = {f.rep.beta}"


def _prop_corollary_beta0(f):
    rep = f.rep
    if rep.c1_beta_zero != rep.verdict_bobadilla:
        yield ("beta = 0 exactly for a power of a smooth branch",
               f"beta = {rep.beta}, structural verdict = {rep.verdict_bobadilla}")


def _prop_c1_iff_c3(f):
    rep = f.rep
    if rep.c1_beta_zero != rep.c3_homology_form:
        yield ("C1 (beta = 0) equivalent to C3 (b1 = 0 and b0 - 1 = sum mu_perp)",
               f"C1 = {rep.c1_beta_zero}, C3 = {rep.c3_homology_form}")


def _orbits(m: int, k: int) -> int:
    """Orbits of the shift a -> a + k (mod m), each followed round: an oracle
    independent of both gcd and the cokernel."""
    seen, orbits = set(), 0
    for start in range(m):
        orbits += start not in seen
        a = start
        while a not in seen:
            seen.add(a)
            a = (a + k) % m
    return orbits


def _prop_coker_rank(f):
    d = f.shape.d
    for entry in f.boundary():
        m, k = f.datum.branches[entry.branch].multiplicity, entry.shift
        # kept beside the cokernel of the same (m, k) in a sweep's memo
        orbits = memoized(f.memo, ("orbits", m, k), lambda: _orbits(m, k))
        if entry.coker.free_rank != orbits or entry.coker.torsion:
            yield (f"branch {entry.branch + 1}: coker(A - I) free of rank {orbits}",
                   f"rank {entry.coker.free_rank}, torsion {list(entry.coker.torsion)}")
        if entry.components % d != 0:
            yield (f"branch {entry.branch + 1}: d | gcd(m, k)",
                   f"d = {d}, gcd = {entry.components}")
        if not entry.chain_ok:
            yield (f"branch {entry.branch + 1}: boundary components map onto fibre components",
                   "chain_ok = False")


def _prop_upper_bound(f):
    verdict = f.rep.upper_bound(f.boundary)
    if verdict.hypothesis and not verdict.conclusion_holds:
        yield ("rank bound attained forces identity vertical monodromies",
               f"cokernels_free = {verdict.cokernels_free}, "
               f"shifts_identity = {verdict.shifts_identity}")


def _prop_chi_form(f):
    rep = f.rep
    if rep.c1_beta_zero and not rep.c2_chi_form:
        yield ("beta = 0 implies chi(F) = 1 - sum mu_perp",
               f"beta = 0, chi-form false (b0 = {rep.b0}, b1 = {rep.b1})")


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
    facts = datum_facts(datum, memo)
    violations = []
    for name in names:
        fn, documented, singular = _TABLE[name]
        if singular and facts.rep is None:
            continue
        for expected, got in fn(facts):
            violations.append(Violation(datum, name, expected, got, documented))
    return violations


def run_sweep(bounds: CorpusBounds, properties=None, jobs: int = 1) -> SweepResult:
    """Check the corpus as it is enumerated; violations keep enumeration
    order at any job count, because both maps below preserve it."""
    names = resolve_properties(properties)
    # the sweep's memo: shape facts and graphs by shape, cokernels and orbit
    # counts by (m, k), dropped with `check`; at --jobs > 1 each chunk gets a
    # copy of it, empty
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
