"""Double points of the network deformation and their local fibre data.

Deforming the reduced factors so the curve acquires the maximal number of
ordinary double points leaves one D[p,q] point (local equation x^p y^q)
per double point: I_ij crossings between branches i and j, and delta_i
self-crossings of branch i.  The local Milnor fibre of a D[p,q] point is
gcd(p, q) annuli.
"""

from __future__ import annotations

from dataclasses import dataclass

from .datum import EquisingularDatum


@dataclass(frozen=True)
class NetworkNode:
    """A D[p,q] double point, aggregated with a multiplicity count."""

    kind: str  # "cross" or "self"
    i: int     # 0-based branch index
    j: int | None
    p: int
    q: int
    copies: int


def build_network(datum: EquisingularDatum) -> list[NetworkNode]:
    """The multiset of double points: self nodes first (branch order), then
    crossings by pair (i, j) with i < j.  Nodes with zero copies are omitted."""
    nodes = []
    for i, b in enumerate(datum.branches):
        if b.delta >= 1:
            nodes.append(NetworkNode("self", i, None, b.multiplicity, b.multiplicity, b.delta))
    for i in range(datum.r):
        for j in range(i + 1, datum.r):
            nodes.append(NetworkNode(
                "cross", i, j,
                datum.branches[i].multiplicity,
                datum.branches[j].multiplicity,
                datum.intersections[i][j],
            ))
    return nodes


def double_point_count(datum: EquisingularDatum) -> int:
    """Total double points, i.e. the delta invariant of the reduced total curve.

    The diagonal of I is 0 in every datum (the construction gate sees to
    it), so the entries of I sum to twice the crossings."""
    return sum(datum.deltas) + sum(map(sum, datum.intersections)) // 2
