"""Test-only oracles: plain restatements that the package itself never needs,
and the comparisons of the package against them."""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from milnor_lab import IntMatrix, boundary2_components, vertical_shift
from milnor_lab.fibre import analyse


def canonical_key(datum):
    """Label-free canonical form: the lexicographic minimum over all branch
    permutations of (((m_i, delta_i), ...), intersection matrix)."""
    r = datum.r
    best = None
    for perm in itertools.permutations(range(r)):
        bt = tuple((datum.branches[p].multiplicity, datum.branches[p].delta) for p in perm)
        it = tuple(
            tuple(datum.intersections[perm[i]][perm[j]] for j in range(r))
            for i in range(r)
        )
        key = (bt, it)
        if best is None or key < best:
            best = key
    return best


# two smooth branches meeting a billion times, and one branch with a billion
# self points: each a single gadget, weighted by its copies
HUGE = 10**9
LARGE_INTEGER_SPECS = {
    "I12": {"branches": [{"multiplicity": 2, "delta": 0}, {"multiplicity": 3, "delta": 0}],
            "intersections": [[0, HUGE], [HUGE, 0]]},
    "delta": {"branches": [{"multiplicity": 2, "delta": HUGE}], "intersections": [[0]]},
}


def euler_characteristic_by_entries(datum):
    """chi(F) = sum_i m_i (1 - 2 delta_i - sum_{j != i} I_ij), the sum over
    j != i taken entry by entry, reading nothing of the diagonal."""
    total = 0
    for i, b in enumerate(datum.branches):
        others = sum(datum.intersections[i][j] for j in range(datum.r) if j != i)
        total += b.multiplicity * (1 - 2 * b.delta - others)
    return total


def vertical_shift_by_entries(datum, i):
    """k_i = sum_{j != i} m_j I_ij mod m_i, entry by entry."""
    winding = sum(
        datum.branches[j].multiplicity * datum.intersections[i][j]
        for j in range(datum.r) if j != i
    )
    return winding % datum.branches[i].multiplicity


def double_point_count_by_entries(datum):
    """sum_i delta_i plus I_ij over the pairs i < j, entry by entry."""
    total = sum(b.delta for b in datum.branches)
    for i in range(datum.r):
        for j in range(i + 1, datum.r):
            total += datum.intersections[i][j]
    return total


def stern_brocot_path(a, b):
    """The primitive rays (w_x, w_y) from (1, 1) down the Stern-Brocot tree
    to (a, b), both ends included: the mediants between (0, 1) and (1, 0)."""
    left, right = (0, 1), (1, 0)
    path = []
    while not path or path[-1] != (a, b):
        w = (left[0] + right[0], left[1] + right[1])
        path.append(w)
        if b * w[0] < a * w[1]:  # (a, b) is the shallower ray: go towards (1, 0)
            left = w
        else:
            right = w
    return path


def acampo_chi(branches):
    """chi(F) of prod_i (y^a_i - c_i x^b_i)^m_i, given as (a_i, b_i, m_i)
    with coprime a_i, b_i and distinct c_i, by A'Campo's formula on its toric
    resolution; it reads neither delta nor I.

    The Stern-Brocot ancestors of the rays (a_i, b_i) make a regular fan
    between the axes.  The divisor of ray w has multiplicity
    N_w = sum_i m_i min(a_i w_y, b_i w_x) and is a line less one point per
    compact neighbour and per branch of ray w; a strict transform, a
    punctured disc, adds nothing.  So chi(F) = sum_w N_w (2 - neighbours -
    branches on w).
    """
    rays = sorted({w for a, b, _ in branches for w in stern_brocot_path(a, b)},
                  key=lambda w: Fraction(w[1], w[0]))
    chi = 0
    for n, (wx, wy) in enumerate(rays):
        weight = sum(m * min(a * wy, b * wx) for a, b, m in branches)
        neighbours = (n > 0) + (n < len(rays) - 1)
        on_ray = sum((a, b) == (wx, wy) for a, b, _ in branches)
        chi += weight * (2 - neighbours - on_ray)
    return chi


@dataclass(frozen=True)
class LocalFibre:
    components: int
    boundary_circles_side_p: int
    boundary_circles_side_q: int


def local_fibre(p: int, q: int) -> LocalFibre:
    """Local Milnor fibre of a D[p,q] point: gcd(p, q) annuli."""
    if p < 1 or q < 1:
        raise ValueError("D[p,q] requires p, q >= 1")
    return LocalFibre(gcd(p, q), p, q)


def int_matrix(rows, cols=None) -> IntMatrix:
    """An IntMatrix from its rows; ``cols`` gives the width when there are none."""
    entries = tuple(tuple(int(v) for v in row) for row in rows)
    if cols is None:
        if not entries:
            raise ValueError("a matrix with no rows needs cols")
        cols = len(entries[0])
    if any(len(row) != cols for row in entries):
        raise ValueError("ragged rows")
    return IntMatrix(len(entries), cols, entries)


def zeros(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a * b, entry by entry."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    out = []
    for i in range(a.rows):
        row = a.entries[i]
        out.append(tuple(
            sum(row[k] * b.entries[k][j] for k in range(a.cols))
            for j in range(b.cols)
        ))
    return IntMatrix(a.rows, b.cols, tuple(out))


def determinant(matrix: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of non-square matrix")
    n = matrix.rows
    if n == 0:
        return 1
    work = [list(row) for row in matrix.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            for i in range(k + 1, n):
                if work[i][k] != 0:
                    work[k], work[i] = work[i], work[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * work[k][k] - work[i][k] * work[k][j]) // prev
            work[i][k] = 0
        prev = work[k][k]
    return sign * work[n - 1][n - 1]


def permutation_matrix(m, k) -> IntMatrix:
    """The m x m matrix of a vertical monodromy: sheet a goes to (a + k) mod m."""
    return int_matrix(
        [1 if b == (a + k) % m else 0 for a in range(m)] for b in range(m)
    )


def expand_fibre_graph(datum):
    """The fibre graph with one gadget per double point, every copy built.

    delta_i self points on branch i and I_ij crossings of branches i < j,
    each a D[m_i, m_j] point of gcd(m_i, m_j) annuli; annulus c is a vertex
    with a loop, joined to the sheets a = c mod gcd of both branches.
    Returns (vertex count, edge list, gadgets), a gadget being
    (branch_p, branch_q, g, base).
    """
    m = datum.multiplicities
    offsets = [sum(m[:i]) for i in range(datum.r)]
    points = [(i, i) for i, b in enumerate(datum.branches) for _ in range(b.delta)]
    points += [
        (i, j)
        for i in range(datum.r)
        for j in range(i + 1, datum.r)
        for _ in range(datum.intersections[i][j])
    ]
    vertex = sum(m)
    edges, gadgets = [], []
    for i, j in points:
        g = gcd(m[i], m[j])
        gadgets.append((i, j, g, vertex))
        for c in range(g):
            av = vertex + c
            edges.append((av, av))
            edges.extend((offsets[i] + a, av) for a in range(c, m[i], g))
            edges.extend((offsets[j] + a, av) for a in range(c, m[j], g))
        vertex += g
    return vertex, edges, gadgets


def brute_roots(vertex_count, edges):
    """Independent union-find, kept separate from the package's: a root per vertex."""
    parent = list(range(vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
    return [find(v) for v in range(vertex_count)]


def union_find_labels(vertex_count, edges):
    """Component id per vertex by union-find, the roots numbered by first
    appearance in vertex order: the package's labelling before its search."""
    ids = {}
    return [ids.setdefault(root, len(ids)) for root in brute_roots(vertex_count, edges)]


def cycle_type_on_roots(roots, sigma):
    """Cycle type of the permutation sigma induces on the union-find roots."""
    image = {}
    for v, root in enumerate(roots):
        image[root] = roots[sigma[v]]
    seen, lengths = set(), []
    for start in image:
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = image[x]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def cycle_lengths_by_orbits(perm):
    """The length of each cycle of a permutation of range(n), listed at its
    least element: each x is followed round from x alone, nothing marked."""
    lengths = []
    for x in range(len(perm)):
        orbit = [x]
        while perm[orbit[-1]] != x:
            assert len(orbit) < len(perm), f"the orbit of {x} does not close"
            orbit.append(perm[orbit[-1]])
        if min(orbit) == x:
            lengths.append(len(orbit))
    return lengths


def assert_matches_full_expansion(datum):
    """The collapsed graph against the full expansion: d, V - E, the cycle
    type of the sheet shift on components, and chain_ok per singular branch."""
    vertex_count, edges, gadgets = expand_fibre_graph(datum)
    roots = brute_roots(vertex_count, edges)
    d = len(set(roots))
    graph = analyse(datum)
    assert (graph.vertex_count, graph.edge_count) == (vertex_count, len(edges))
    assert graph.summary.chi == vertex_count - len(edges)
    assert graph.d == d == len(set(brute_roots(graph.size, graph.edges)))

    m = datum.multiplicities
    sigma = list(range(vertex_count))
    off = 0
    for mi in m:
        for a in range(mi):
            sigma[off + a] = off + (a + 1) % mi
        off += mi
    for _, _, g, base in gadgets:
        for c in range(g):
            sigma[base + c] = base + (c + 1) % g
    assert graph.monodromy.cycle_type == cycle_type_on_roots(roots, sigma)

    singular = [i for i, mi in enumerate(m) if mi >= 2]
    if not singular:
        return
    chain_ok = []
    for i in singular:
        g = gcd(m[i], vertical_shift(datum, i))
        hit = [set() for _ in range(g)]
        for a in range(m[i]):
            hit[a % g].add(roots[sum(m[:i]) + a])
        chain_ok.append((i, g % d == 0
                         and all(len(h) == 1 for h in hit)
                         and set().union(*hit) == set(roots)))
    got = [(e.branch, e.chain_ok) for e in boundary2_components(datum)]
    assert got == chain_ok


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` for the test: the returned list gets the
    positional arguments of each call, in order."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls
