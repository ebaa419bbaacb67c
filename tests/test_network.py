"""Network deformation nodes and local fibre data."""

from math import gcd

import pytest

from milnor_lab import (
    build_network,
    double_point_count,
    from_monomial,
    make_datum,
)
from oracles import local_fibre


def test_build_network_mixed():
    datum = make_datum([(2, 1), (3, 0)], [[0, 2], [2, 0]])
    nodes = build_network(datum)
    assert [(n.kind, n.i, n.j, n.p, n.q, n.copies) for n in nodes] == [
        ("self", 0, None, 2, 2, 1),
        ("cross", 0, 1, 2, 3, 2),
    ]
    assert double_point_count(datum) == 3


def test_build_network_smooth_power_is_empty():
    assert build_network(make_datum([(5, 0)], [[0]])) == []


def test_build_network_monomial():
    nodes = build_network(from_monomial(3, 4))
    assert len(nodes) == 1
    node = nodes[0]
    assert (node.kind, node.p, node.q, node.copies) == ("cross", 3, 4, 1)


def test_node_count_permutation_invariant():
    datum = make_datum([(2, 1), (3, 2), (4, 0)],
                       [[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    permuted = make_datum([(4, 0), (2, 1), (3, 2)],
                          [[0, 2, 3], [2, 0, 1], [3, 1, 0]])
    count = lambda d: sum(n.copies for n in build_network(d))
    assert count(datum) == count(permuted) == double_point_count(datum)


def test_reduced_datum_all_nodes_d11():
    datum = make_datum([(1, 2), (1, 0), (1, 1)],
                       [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    for node in build_network(datum):
        assert (node.p, node.q) == (1, 1)
        assert local_fibre(node.p, node.q).components == 1


@pytest.mark.parametrize("p,q,want", [(2, 3, 1), (5, 5, 5), (4, 6, 2)])
def test_local_fibre_examples(p, q, want):
    fibre = local_fibre(p, q)
    assert fibre.components == want
    assert fibre.boundary_circles_side_p == p
    assert fibre.boundary_circles_side_q == q


def test_local_fibre_orbit_oracle():
    # independent oracle: orbits of k -> k + p (mod q) on {0..q-1}
    for p in range(1, 51):
        for q in range(1, 51):
            seen = set()
            orbits = 0
            for start in range(q):
                if start in seen:
                    continue
                orbits += 1
                x = start
                while x not in seen:
                    seen.add(x)
                    x = (x + p) % q
            assert local_fibre(p, q).components == orbits == gcd(p, q)
