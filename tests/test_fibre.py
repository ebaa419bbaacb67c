"""Fibre graph model: structure, two-route invariants, monodromy."""

import dataclasses
import gc
import pickle
import random
from math import gcd

import pytest

import milnor_lab.datum
import milnor_lab.fibre
import milnor_lab.invariants
import milnor_lab.sweep
from milnor_lab import (
    Branch,
    CorpusBounds,
    EquisingularDatum,
    QuasiHomBranchSpec,
    beta,
    boundary2_components,
    build_analysis,
    build_fibre_graph,
    classify_xr,
    component_monodromy,
    divide_by_gcd,
    enumerate_corpus,
    euler_characteristic_closed,
    fibre_summary,
    from_monomial,
    from_quasihomogeneous,
    make_datum,
)
from milnor_lab.fibre import analyse

from oracles import (
    assert_matches_full_expansion,
    brute_roots,
    expand_fibre_graph,
    union_find_labels,
)


def _brute_components(vertex_count, edges):
    return len(set(brute_roots(vertex_count, edges)))


def test_graph_monomial_2_2():
    graph = build_fibre_graph(from_monomial(2, 2))
    # the shift's cycles: 2 + 2 sheets, then the 2 annuli of the one node
    assert graph.shift_cycles == ((0, 2), (2, 2), (4, 2))
    assert graph.vertex_count == 6  # 4 sheets + 2 annuli
    loops = [e for e in graph.edges if e[0] == e[1]]
    incidences = [e for e in graph.edges if e[0] != e[1]]
    assert len(loops) == 2 and len(incidences) == 4
    assert _brute_components(graph.vertex_count, graph.edges) == 2


def test_graph_xr_is_isolated_sheets():
    graph = build_fibre_graph(make_datum([(6, 0)], [[0]]))
    assert graph.vertex_count == 6
    assert graph.edges == ()


def test_graph_cusp_squared():
    graph = build_fibre_graph(make_datum([(2, 1)], [[0]]))
    assert graph.vertex_count == 4  # 2 sheets + 2 annuli
    assert graph.edge_count == 6    # 2 loops + 4 incidences
    assert graph.vertex_count - graph.edge_count == -2


@pytest.mark.parametrize("datum,chi", [
    (make_datum([(7, 0)], [[0]]), 7),                      # x^7: 7 disks
    (make_datum([(1, 0), (1, 0)], [[0, 1], [1, 0]]), 0),   # node: chi = 1 - mu = 0
    (make_datum([(2, 1)], [[0]]), -2),                     # two cusp fibres, chi = 2(1 - mu)
])
def test_euler_closed_examples(datum, chi):
    assert euler_characteristic_closed(datum) == chi


def test_summary_xr():
    summary = fibre_summary(make_datum([(5, 0)], [[0]]))
    assert (summary.d, summary.chi, summary.b1) == (5, 5, 0)


def test_summary_monomial_4_6():
    summary = fibre_summary(from_monomial(4, 6))
    assert (summary.d, summary.chi, summary.b1) == (2, 0, 2)


def test_summary_satellite():
    # (y^2 - x^3)^2 * generic line: 3 sheets, 5 annuli, V=8, E=18
    datum = make_datum([(2, 1), (1, 0)], [[0, 3], [3, 0]])
    graph = build_fibre_graph(datum)
    assert (graph.vertex_count, graph.edge_count) == (8, 18)
    vertex_count, edges, _ = expand_fibre_graph(datum)
    assert (vertex_count, len(edges)) == (8, 18)
    assert _brute_components(vertex_count, edges) == 1
    # the three crossings are built once: 3 sheets + 2 + 1 annuli
    assert (graph.size, len(graph.edges)) == (6, 10)
    assert _brute_components(graph.size, graph.edges) == 1
    summary = fibre_summary(datum)
    assert (summary.d, summary.chi, summary.b1) == (1, -10, 11)


def test_monodromy_x_squared():
    mono = component_monodromy(make_datum([(2, 0)], [[0]]))
    assert mono.permutation == (1, 0)
    assert mono.cycle_type == (2,)


def test_monodromy_gcd_one_is_identity():
    mono = component_monodromy(make_datum([(2, 1), (3, 0)], [[0, 1], [1, 0]]))
    assert mono.permutation == (0,)
    assert mono.cycle_type == (1,)


def test_monodromy_monomial_4_6():
    assert component_monodromy(from_monomial(4, 6)).cycle_type == (2,)


def test_divide_by_gcd_arithmetic():
    datum = make_datum([(6, 0), (4, 1)], [[0, 2], [2, 0]])
    d, reduced = divide_by_gcd(datum)
    assert d == 2
    assert reduced.multiplicities == (3, 2)
    assert reduced.deltas == (0, 1)
    assert reduced.intersections == datum.intersections


def test_divide_by_gcd_cusp_squared():
    d, reduced = divide_by_gcd(make_datum([(2, 1)], [[0]]))
    assert d == 2
    assert reduced == make_datum([(1, 1)], [[0]])
    assert fibre_summary(make_datum([(2, 1)], [[0]])).b1 == 2 * fibre_summary(reduced).b1


def test_divide_by_gcd_coprime_identity():
    datum = make_datum([(2, 0), (3, 0)], [[0, 1], [1, 0]])
    d, reduced = divide_by_gcd(datum)
    assert d == 1 and reduced == datum


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(datum):
        calls.append(datum)
        return real(datum)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_build_analysis_builds_one_graph_and_validates_once(monkeypatch):
    builds = _count_calls(monkeypatch, milnor_lab.fibre, "build_fibre_graph")
    validations = _count_calls(monkeypatch, milnor_lab.datum, "validate")
    closed_forms = _count_calls(monkeypatch, milnor_lab.fibre, "euler_characteristic_closed")
    datum = make_datum([(4, 1), (6, 2)], [[0, 5], [5, 0]])
    report = build_analysis(datum)
    assert report["beta"] is not None and report["vertical"]
    assert len(builds) == 1
    assert len(validations) <= 2
    assert len(closed_forms) == 1


def test_one_graph_per_datum_object(monkeypatch):
    builds = _count_calls(monkeypatch, milnor_lab.fibre, "build_fibre_graph")
    datum = make_datum([(4, 1), (6, 2)], [[0, 5], [5, 0]])
    fibre_summary(datum)
    component_monodromy(datum)
    beta(datum)
    boundary2_components(datum)
    classify_xr(datum)
    build_analysis(datum)
    assert builds == [datum]

    # the graph is kept on the object, not by value
    twin = make_datum([(4, 1), (6, 2)], [[0, 5], [5, 0]])
    assert twin == datum
    assert build_analysis(twin) == build_analysis(datum)
    assert len(builds) == 2 and builds[1] is twin


def test_datum_with_list_rows_analyses():
    expected = make_datum([(2, 1), (3, 0)], [[0, 2], [2, 0]])
    everything = milnor_lab.sweep.ALL_PROPERTIES
    for branches in ((Branch(2, 1), Branch(3, 0)), [Branch(2, 1), Branch(3, 0)]):
        datum = EquisingularDatum(branches, [[0, 2], [2, 0]])
        # the lists became tuples: the datum hashes, and equals the one built from tuples
        assert datum == expected and hash(datum) == hash(expected)
        assert build_analysis(datum) == build_analysis(expected)
        assert (milnor_lab.sweep.check_datum(datum, everything, memo={})
                == milnor_lab.sweep.check_datum(expected, everything, memo={}))


def test_checked_datum_pickles_as_its_two_fields():
    # a Violation from a worker carries its datum back to the parent; the
    # sweep keeps no graph on the datum, and one the analyze path keeps stays behind
    datum = make_datum([(4, 1), (6, 2)], [[0, 5], [5, 0]])
    assert milnor_lab.sweep.check_datum(datum, milnor_lab.sweep.ALL_PROPERTIES) == []
    assert "_fibre_graph" not in vars(datum)
    analyse(datum)
    assert "_fibre_graph" in vars(datum)
    copy = pickle.loads(pickle.dumps(datum))
    assert sorted(vars(copy)) == ["branches", "intersections"]
    assert copy == datum
    assert build_analysis(copy) == build_analysis(datum)


def test_check_datum_runs_the_closed_form_once(monkeypatch):
    # wherever it is looked up: the sweep calls it by its own module global
    in_fibre = _count_calls(monkeypatch, milnor_lab.fibre, "euler_characteristic_closed")
    in_sweep = _count_calls(monkeypatch, milnor_lab.sweep, "euler_characteristic_closed")
    datum = make_datum([(4, 1), (6, 2)], [[0, 5], [5, 0]])
    assert milnor_lab.sweep.check_datum(datum, milnor_lab.sweep.DEFAULT_PROPERTIES) == []
    assert len(in_fibre) + len(in_sweep) == 1


def test_boundary_route_runs_once_per_datum(monkeypatch):
    # the upper-bound verdict is read off the boundary report, so x^m, whose
    # hypothesis holds, reduces its one cokernel once, not once per reader
    cokernels = _count_calls(monkeypatch, milnor_lab.invariants, "cokernel")
    report = build_analysis(make_datum([(5, 0)], [[0]]))
    assert report["upper_bound"]["hypothesis"] and report["vertical"]
    assert len(cokernels) == 1

    cokernels.clear()
    datum = make_datum([(4, 2)], [[0]])
    assert milnor_lab.sweep.check_datum(datum, milnor_lab.sweep.DEFAULT_PROPERTIES) == []
    assert len(cokernels) == 1

    # a property set that reads no boundary never builds one
    cokernels.clear()
    datum = make_datum([(4, 1), (6, 2)], [[0, 5], [5, 0]])
    assert milnor_lab.sweep.check_datum(datum, ("lemma-d-gcd",)) == []
    assert cokernels == []

    # nor does the upper bound where its hypothesis fails (b0 - 1 = 1, not 8)
    assert milnor_lab.sweep.check_datum(datum, ("upper-bound",)) == []
    assert not milnor_lab.check_upper_bound(datum).hypothesis
    assert cokernels == []


def test_sweep_memo_graph_matches_a_fresh_build(monkeypatch):
    # one memo over the corpus, as a sweep holds it: a datum whose shape was
    # built before reads the kept graph, weighs it with its own copies, and
    # must not differ from a fresh build
    builds = _count_calls(monkeypatch, milnor_lab.fibre, "build_fibre_graph")
    memo = {}
    shared = 0
    for datum in enumerate_corpus(CorpusBounds(3, 3, 2, 2)):
        built = len(builds)
        facts = milnor_lab.sweep.datum_facts(datum, memo)
        fresh = build_fibre_graph(datum)
        shared += len(builds) == built  # a memo hit builds nothing
        for name in ("edges", "shift_cycles", "size", "weights", "labels", "d", "monodromy"):
            assert getattr(facts.shape.graph, name) == getattr(fresh, name), (datum, name)
        summary = fresh.summary
        assert (facts.shape.d, facts.b1, facts.chi) == (summary.d, summary.b1, summary.chi)
        if facts.rep is not None:
            twin = EquisingularDatum(datum.branches, datum.intersections)
            assert facts.boundary() == boundary2_components(twin)
    assert shared > 0  # not vacuous


def test_sweep_memo_lives_one_sweep(monkeypatch):
    builds = _count_calls(monkeypatch, milnor_lab.fibre, "build_fibre_graph")
    cokernels = _count_calls(monkeypatch, milnor_lab.invariants, "cokernel")
    counts = []
    for _ in range(2):
        result = milnor_lab.sweep.run_sweep(CorpusBounds(3, 3, 1, 2))
        counts.append((len(builds), len(cokernels)))
        builds.clear()
        cokernels.clear()
    assert counts[0] == counts[1]
    assert 0 < counts[0][0] < result.checked and 0 < counts[0][1]


def test_sweep_leaves_no_reference_cycle():
    # a cycle outlives the sweep until a full collection, which a sweep that
    # allocates little seldom sets off: repeated sweeps in one process would grow
    gc.collect()
    gc.disable()
    try:
        milnor_lab.sweep.run_sweep(CorpusBounds(3, 3, 1, 2))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_check_datum_property_alone_matches_full_suite():
    sweep = milnor_lab.sweep
    found = set()
    for datum in enumerate_corpus(CorpusBounds(3, 3, 2, 2)):
        full = sweep.check_datum(datum, sweep.ALL_PROPERTIES)
        found.update(v.prop for v in full)
        for name in sweep.ALL_PROPERTIES:
            assert sweep.check_datum(datum, (name,)) == [v for v in full if v.prop == name]
    assert found == {"prop2-chi-form"}  # the documented discrepancy, so not vacuous


def test_check_datum_reads_beta_once_per_singular_datum(monkeypatch):
    reports = []
    real = milnor_lab.sweep.beta_report

    def counted(*args):
        reports.append(real(*args))
        return reports[-1]

    monkeypatch.setattr(milnor_lab.sweep, "beta_report", counted)
    reduced = make_datum([(1, 2), (1, 0)], [[0, 3], [3, 0]])
    assert milnor_lab.sweep.check_datum(reduced, milnor_lab.sweep.DEFAULT_PROPERTIES) == []
    assert reports == []
    singular = make_datum([(4, 1), (6, 2)], [[0, 5], [5, 0]])
    assert milnor_lab.sweep.check_datum(singular, milnor_lab.sweep.DEFAULT_PROPERTIES) == []
    # one report, and it is the one beta() gives on the analyze path
    assert reports == [beta(make_datum([(4, 1), (6, 2)], [[0, 5], [5, 0]]))]


@pytest.mark.parametrize("bounds", [CorpusBounds(3, 3, 2, 2), CorpusBounds(2, 8, 2, 2)])
def test_sweep_facts_match_the_analyze_report(bounds):
    # the sweep's per-shape records and O(r^2) pass against the analyze path,
    # the oracle: every datum's facts, read from one memo as a sweep holds it,
    # equal the report of a fresh twin datum
    memo = {}
    singular = 0
    for datum in enumerate_corpus(bounds):
        facts = milnor_lab.sweep.datum_facts(datum, memo)
        twin = EquisingularDatum(datum.branches, datum.intersections)
        report = build_analysis(twin)
        fibre = report["fibre"]
        assert (facts.shape.d, facts.b1, facts.chi) == (fibre["d"], fibre["b1"], fibre["chi"])
        assert facts.shape.gcd == fibre["reduced"]["d"]
        reduced = fibre_summary(divide_by_gcd(twin)[1])
        assert facts.reduced() == (reduced.d, reduced.b1, reduced.chi), datum
        assert facts.shape.xr == report["xr_verdict"]["is_xr"]
        if facts.rep is None:
            assert report["beta"] is None and report["vertical"] == []
            continue
        singular += 1
        rep = facts.rep
        assert report["beta"] == {
            "value": rep.beta, "b1": rep.b1, "b0": rep.b0,
            "total_transversal_points": rep.total_transversal_points,
            "singular_branch_count": rep.singular_branch_count,
            "criteria": {"C1": rep.c1_beta_zero, "C2": rep.c2_chi_form,
                         "C3": rep.c3_homology_form},
            "verdict_bobadilla": rep.verdict_bobadilla,
        }
        assert report["vertical"] == [
            {"branch": e.branch + 1, "k": e.shift, "components": e.components,
             "coker_free_rank": e.coker.free_rank, "coker_torsion": list(e.coker.torsion),
             "chain_ok": e.chain_ok}
            for e in facts.boundary()
        ], datum
        assert report["upper_bound"] == dataclasses.asdict(rep.upper_bound(facts.boundary))
    assert singular > 100  # not vacuous


def test_structural_invariants_over_corpus():
    for datum in enumerate_corpus(CorpusBounds(3, 3, 2, 2)):
        graph = build_fibre_graph(datum)
        # the shift's cycles in vertex order: the m_i sheets of each branch,
        # then g = gcd(p, q) annuli per network node, all contiguous
        layout, vertex = [], 0
        for m in datum.multiplicities:
            layout.append((vertex, m))
            vertex += m
        for node in graph.network:
            layout.append((vertex, gcd(node.p, node.q)))
            vertex += gcd(node.p, node.q)
        assert graph.shift_cycles == tuple(layout)
        sheets = sum(datum.multiplicities)
        pairs = list(zip(graph.network, (g for _, g in layout[datum.r:])))
        assert graph.size == sheets + sum(g for _, g in pairs)
        assert graph.vertex_count == sheets + sum(n.copies * g for n, g in pairs)
        assert graph.edge_count == sum(n.copies * (g + n.p + n.q) for n, g in pairs)
        # re-derive the expected edge multiset for one copy per node: a loop
        # per annulus, and annulus c incident to exactly the sheets with index
        # congruent to c mod gcd
        expected = []
        for node, (base, g) in zip(graph.network, layout[datum.r:]):
            off_p = layout[node.i][0]
            off_q = layout[node.i if node.j is None else node.j][0]
            for c in range(g):
                av = base + c
                expected.append((av, av))
                for a in range(c, node.p, g):
                    expected.append(tuple(sorted((off_p + a, av))))
                for a in range(c, node.q, g):
                    expected.append(tuple(sorted((off_q + a, av))))
        assert sorted(expected) == sorted(tuple(sorted(e)) for e in graph.edges)
        summary = fibre_summary(datum)
        assert summary.chi == summary.chi_closed_form
        assert summary.d == _brute_components(graph.size, graph.edges)
        d = 0
        for m in datum.multiplicities:
            d = gcd(d, m)
        assert summary.d == d
        assert summary.b1 == summary.d - summary.chi
        # Milnor monodromy permutes the components in one cycle
        assert component_monodromy(datum).cycle_type == (summary.d,)
        # the fibre splits into d copies of the reduced fibre
        dd, reduced = divide_by_gcd(datum)
        rs = fibre_summary(reduced)
        assert rs.d == 1
        assert (summary.d, summary.b1, summary.chi) == (dd * rs.d, dd * rs.b1, dd * rs.chi)


def test_collapsed_graph_matches_full_expansion_over_corpus():
    for datum in enumerate_corpus(CorpusBounds(3, 4, 3, 3)):
        assert_matches_full_expansion(datum)


def _coprime_pair(rng):
    while True:
        a, b = sorted((rng.randint(2, 16), rng.randint(2, 16)))
        if gcd(a, b) == 1:
            return a, b


def _wide_network(rng):
    """A germ shaped like a wide network: 3-6 quasihomogeneous branches,
    coprime (a, b) in 2..16 and multiplicity 1..4."""
    return from_quasihomogeneous([
        QuasiHomBranchSpec(*_coprime_pair(rng), rng.randint(1, 4))
        for _ in range(rng.randint(3, 6))
    ])


@pytest.mark.parametrize("seed", range(4))
def test_collapsed_graph_matches_full_expansion_on_wide_networks(seed):
    rng = random.Random(seed)
    for _ in range(50):
        assert_matches_full_expansion(_wide_network(rng))


def _labelled_graphs():
    """The corpus, the seeded wide networks and a few large germs."""
    for datum in enumerate_corpus(CorpusBounds(3, 3, 2, 2)):
        yield build_fibre_graph(datum)
    for seed in range(4):
        rng = random.Random(seed)
        for _ in range(50):
            yield build_fibre_graph(_wide_network(rng))
    for p, q in ((200, 200), (200, 199), (200, 150), (64, 200)):
        yield build_fibre_graph(from_monomial(p, q))
    yield build_fibre_graph(make_datum([(200, 0)], [[0]]))
    yield build_fibre_graph(make_datum([(200, 1), (3, 0)], [[0, 2], [2, 0]]))


def test_component_labels_match_union_find():
    loops = parallel = 0
    for graph in _labelled_graphs():
        assert graph.component_labels() == union_find_labels(graph.size, graph.edges)
        loops += any(u == v for u, v in graph.edges)
        parallel += len(set(graph.edges)) < len(graph.edges)
    assert loops and parallel  # annulus loops, and the parallel edges of self nodes


def test_graph_size_ignores_copies():
    few = make_datum([(2, 0), (3, 0)], [[0, 1], [1, 0]])
    many = make_datum([(2, 0), (3, 0)], [[0, 10**9], [10**9, 0]])
    assert len(analyse(few).edges) == len(analyse(many).edges)
    assert analyse(few).size == analyse(many).size
    assert analyse(many).edge_count == 10**9 * len(analyse(few).edges)
