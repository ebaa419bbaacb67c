"""Graph homotopy model of the Milnor fibre.

The fibre is assembled from sum(m_i) covering sheets, one affine-line copy
per sheet, with gcd(p, q) annuli glued in at every D[p,q] double point of
the network.  An open surface is homotopy equivalent to a graph, so each
annulus is modelled as a vertex with a loop edge (its core circle) plus
one incidence edge per boundary circle; this reproduces the local Euler
characteristic of the gluing exactly, and connectivity and b_1 follow
from a search of the graph and V - E.

Sheet a of branch i attaches to annulus c of a node iff a = c mod gcd;
at a self node annulus c simply joins sheet c to itself on both sides.
The sheet shift a -> a+1 (mod m_i) is an automorphism of the graph and
realizes the Milnor monodromy on components.

A node of the network stands for ``copies`` identical double points
(I_ij crossings or delta_i self points).  Their annuli join the same
sheets in the same way, so extra copies change neither connectivity nor
the sheet shift; they only add to V - E.  The annuli of each node are
built once, weighted by its copies: ``vertex_count`` and ``edge_count``
count the full expansion, while the labelling and the shift run on the
``size`` vertices actually built, whose number does not depend on
delta_i or I_ij.

The graph records its layout once, as the cycles of the sheet shift in
vertex order: ``shift_cycles`` holds ``(first vertex, length)`` for the
m_i sheets of each branch, then for the gcd(p, q) annuli of each network
node.  It depends only on the datum's shape, and the shift is expanded
from it only while the monodromy is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .datum import EquisingularDatum, Branch
from .errors import InternalInconsistencyError
from .network import NetworkNode, build_network


@dataclass(frozen=True)
class FibreGraph:
    """The fibre graph of one datum and what it yields, each computed at most once."""

    network: tuple[NetworkNode, ...]
    shift_cycles: tuple[tuple[int, int], ...]  # (first vertex, length): branches, then nodes
    edges: tuple[tuple[int, int], ...]  # built edges, loops included, endpoints sorted
    size: int  # built vertices: the sheets, then the annuli of each node
    weights: tuple[tuple[int, int], ...]  # (annuli g, built edges) of each node
    vertex_count: int  # vertices of the full expansion, every copy counted
    edge_count: int  # edges of the full expansion, every copy counted

    def component_labels(self) -> list[int]:
        """Component id per built vertex, numbered by first appearance."""
        adjacent = [[] for _ in range(self.size)]
        for u, v in self.edges:
            adjacent[u].append(v)
            adjacent[v].append(u)
        labels = [-1] * self.size
        count = 0
        for start in range(self.size):
            if labels[start] == -1:
                labels[start] = count
                stack = [start]
                while stack:
                    for w in adjacent[stack.pop()]:
                        if labels[w] == -1:
                            labels[w] = count
                            stack.append(w)
                count += 1
        return labels

    @cached_property
    def labels(self) -> list[int]:
        return self.component_labels()

    @cached_property
    def d(self) -> int:
        return max(self.labels) + 1

    @cached_property
    def summary(self) -> FibreSummary:
        """d, b1 and chi = V - E, unchecked: ``analyse`` checks d and chi."""
        chi = self.vertex_count - self.edge_count
        return FibreSummary(self.d, self.d - chi, chi)

    @cached_property
    def monodromy(self) -> ComponentMonodromy:
        """Permutation of the components induced by the sheet shift."""
        labels = self.labels
        sigma = []
        for first, length in self.shift_cycles:
            sigma += range(first + 1, first + length)
            sigma.append(first)
        # a multiset comparison: self nodes give parallel edges
        mapped = []
        for u, v in self.edges:
            u, v = sigma[u], sigma[v]
            mapped.append((u, v) if u <= v else (v, u))
        mapped.sort()
        if sorted(self.edges) != mapped:
            raise InternalInconsistencyError(
                "sheet shift is not a graph automorphism (gluing convention broken)"
            )
        perm = [-1] * self.d
        for v in range(self.size):
            src, dst = labels[v], labels[sigma[v]]
            if perm[src] == -1:
                perm[src] = dst
            elif perm[src] != dst:
                raise InternalInconsistencyError(
                    "shift maps one component to two different components"
                )
        return ComponentMonodromy(tuple(perm), _cycle_type(perm))


@dataclass(frozen=True)
class FibreSummary:
    d: int
    b1: int
    chi: int


@dataclass(frozen=True)
class ComponentMonodromy:
    permutation: tuple[int, ...]
    cycle_type: tuple[int, ...]


def build_fibre_graph(datum: EquisingularDatum) -> FibreGraph:
    """Build the annuli of each network node once, weighted by its copies."""
    cycles = []
    vertex = 0
    for b in datum.branches:
        cycles.append((vertex, b.multiplicity))
        vertex += b.multiplicity

    sheets = vertex
    network = tuple(build_network(datum))
    edges = []
    weights = []
    for node in network:
        off_p = cycles[node.i][0]
        off_q = cycles[node.i if node.j is None else node.j][0]
        g = gcd(node.p, node.q)
        cycles.append((vertex, g))
        first = len(edges)
        for c in range(g):
            av = vertex + c
            edges.append((av, av))  # core circle of the annulus
            for a in range(c, node.p, g):
                edges.append((off_p + a, av))
            for a in range(c, node.q, g):
                edges.append((off_q + a, av))
        vertex += g
        weights.append((g, len(edges) - first))
    counts = weighed_counts(sheets, weights, (node.copies for node in network))
    return FibreGraph(network, tuple(cycles), tuple(edges), vertex, tuple(weights),
                      *counts)


def weighed_counts(sheets, weights, copies) -> tuple[int, int]:
    """V and E of the full expansion: the sheets, then the ``(g, built edges)``
    of each network node, counted once per copy."""
    vertex_count, edge_count = sheets, 0
    for (g, built), c in zip(weights, copies):
        vertex_count += c * g
        edge_count += c * built
    return vertex_count, edge_count


def euler_characteristic_closed(datum: EquisingularDatum) -> int:
    """chi(F) = sum_i m_i (1 - 2 delta_i - sum_{j != i} I_ij).

    Bookkeeping of the construction: m_i sheets per branch, p + q deleted
    boundary discs per D[p,q] point, annuli contributing chi = 0.  The
    diagonal of I is 0 in every datum (the construction gate sees to it),
    so the sum over j != i is the sum of row i.
    """
    return sum(b.multiplicity * (1 - 2 * b.delta - sum(row))
               for b, row in zip(datum.branches, datum.intersections))


def memoized(memo: dict | None, key, make):
    """``make()`` once per ``key`` of ``memo``, or on every call with no memo."""
    if memo is None:
        return make()
    if key not in memo:
        memo[key] = make()
    return memo[key]


def graph_shape(datum: EquisingularDatum) -> tuple[tuple[int, bool], ...]:
    """All that a datum's built graph depends on: each m_i, and whether
    delta_i >= 1 gives branch i a self node; delta_i and I_ij only weigh it."""
    return tuple((b.multiplicity, b.delta >= 1) for b in datum.branches)


def analyse(datum: EquisingularDatum) -> FibreGraph:
    """The fibre graph of a datum, its chi and d checked against the closed
    form and gcd(m_i) when it is built, then kept per datum object in its
    ``__dict__`` as ``cached_property`` keeps a value: the calls on one
    object share one graph, which holds no datum and dies with it."""
    kept = vars(datum)
    if "_fibre_graph" not in kept:
        graph = build_fibre_graph(datum)
        chi, d = graph.summary.chi, graph.summary.d
        chi_closed = euler_characteristic_closed(datum)
        if chi != chi_closed:
            raise InternalInconsistencyError(
                f"chi mismatch: graph V-E gives {chi}, closed form gives {chi_closed}"
            )
        d_gcd = gcd(*datum.multiplicities)
        if d != d_gcd:
            raise InternalInconsistencyError(
                f"component mismatch: component search gives {d}, "
                f"gcd of multiplicities gives {d_gcd}"
            )
        kept["_fibre_graph"] = graph
    return kept["_fibre_graph"]


def fibre_summary(datum: EquisingularDatum) -> FibreSummary:
    """Components, b_1 and chi of the fibre, each checked by two routes."""
    return analyse(datum).summary


def component_monodromy(datum: EquisingularDatum) -> ComponentMonodromy:
    """Permutation of fibre components induced by the sheet shift a -> a + 1."""
    return analyse(datum).monodromy


def _cycle_type(perm) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def divide_by_gcd(datum: EquisingularDatum) -> tuple[int, EquisingularDatum]:
    """Split off the gcd: f = g^d with g's multiplicities m_i / d."""
    d = gcd(*datum.multiplicities)
    if d == 1:
        return d, datum
    reduced = EquisingularDatum(
        tuple(Branch(b.multiplicity // d, b.delta, b.label) for b in datum.branches),
        datum.intersections,
    )
    return d, reduced
