"""Every check of the program fires: each sweep property and each
internal-inconsistency raise, fed a real object with one part broken.

A check that no test sees fire can be deleted or inverted without a test
failing; these tests pin the exact message of each one.
"""

from dataclasses import replace

import pytest

import milnor_lab.fibre
import milnor_lab.invariants
import milnor_lab.sweep
from milnor_lab import (
    UpperBoundVerdict,
    beta,
    boundary2_components,
    check_upper_bound,
    from_monomial,
    make_datum,
)
from milnor_lab.cli import main
from milnor_lab.fibre import FibreGraph
from milnor_lab.intlinalg import CokernelPresentation
from milnor_lab.sweep import (
    ALL_PROPERTIES,
    _TABLE,
    _prop_divide_by_gcd,
    check_datum,
    datum_facts,
)

M46 = '{"family":"monomial","p":4,"q":6}'


# fresh datum objects per call: each keeps its own graph
def _m46():
    return from_monomial(4, 6)  # d = 2, k = (2, 4), bound not attained


def _x6():
    return make_datum([(6, 0)], [[0]])  # d = 6, the bound attained


def _node():
    return make_datum([(1, 0), (1, 0)], [[0, 1], [1, 0]])  # reduced, mu = 1


# each break takes a datum's sweep facts and returns them with one part broken

def _edge_count_plus_one(facts):
    # one more edge in the full expansion: V - E falls by one, b1 rises by one
    return replace(facts, chi=facts.chi - 1, b1=facts.b1 + 1)


def _no_edges(facts):
    # a graph without edges: each of the 12 built vertices of x^4 y^6 is a component
    return replace(facts, shape=replace(facts.shape, d=12))


def _rep(**change):
    return lambda facts: replace(facts, rep=replace(facts.rep, **change))


def _first_branch(**change):
    def brk(facts):
        entries = facts.boundary()
        return replace(facts, entries=(replace(entries[0], **change),) + entries[1:])
    return brk


# property, datum, break, the (expected, got) pairs it must report
BREAKS = [
    ("lemma-d-gcd", _m46, _no_edges, [("b0 = gcd(m_i) = 2", "b0 = 12")]),
    ("two-route-chi", _m46, _edge_count_plus_one,
     [("V - E = closed form = 0", "V - E = -1")]),
    ("mu-reduced", _node, _edge_count_plus_one,
     [("b1 = 2*delta_total - r + 1 = 1", "b1 = 2")]),
    ("divide-by-gcd", _m46, _edge_count_plus_one,
     [("(b0, b1, chi) = d * reduced = (2, 2, 0)", "(2, 3, -1)")]),
    ("monodromy-cycle", _m46, _no_edges, [("cycle type [12]", "[2]")]),
    ("prop1-b1-xr", _x6, _edge_count_plus_one,
     [("b1 = 0 exactly for a power of a smooth branch", "r = 1, delta = [0], b1 = 1")]),
    ("beta-nonneg", _m46, _rep(beta=-1), [("beta >= 0", "beta = -1")]),
    ("corollary-beta0", _x6, _rep(verdict_bobadilla=False),
     [("beta = 0 exactly for a power of a smooth branch",
       "beta = 0, structural verdict = False")]),
    ("c1-iff-c3", _x6, _rep(c3_homology_form=False),
     [("C1 (beta = 0) equivalent to C3 (b1 = 0 and b0 - 1 = sum mu_perp)",
       "C1 = True, C3 = False")]),
    ("coker-rank", _m46, _first_branch(coker=CokernelPresentation(3, ())),
     [("branch 1: coker(A - I) free of rank 2", "rank 3, torsion []")]),
    ("coker-rank", _m46, _first_branch(coker=CokernelPresentation(2, (2,))),
     [("branch 1: coker(A - I) free of rank 2", "rank 2, torsion [2]")]),
    ("coker-rank", _m46, _first_branch(components=3),
     [("branch 1: d | gcd(m, k)", "d = 2, gcd = 3")]),
    ("coker-rank", _m46, _first_branch(chain_ok=False),
     [("branch 1: boundary components map onto fibre components", "chain_ok = False")]),
    ("upper-bound", _x6, _first_branch(shift=1),
     [("rank bound attained forces identity vertical monodromies",
       "cokernels_free = True, shifts_identity = False")]),
    ("prop2-chi-form", _m46, _rep(c1_beta_zero=True),
     [("beta = 0 implies chi(F) = 1 - sum mu_perp",
       "beta = 0, chi-form false (b0 = 2, b1 = 2)")]),
]


def test_every_property_has_a_break():
    assert {name for name, *_ in BREAKS} == set(ALL_PROPERTIES)


@pytest.mark.parametrize("name,make,brk,expected", BREAKS,
                         ids=[f"{case[0]}-{n}" for n, case in enumerate(BREAKS)])
def test_property_fires_on_its_break(name, make, brk, expected, monkeypatch):
    datum = make()
    facts = datum_facts(datum)
    # the sweep's facts are the analyze path's
    if facts.rep is not None:
        assert facts.rep == beta(datum) and facts.boundary() == boundary2_components(datum)
    fn = _TABLE[name][0]
    assert list(fn(facts)) == []
    broken = brk(facts)
    assert list(fn(broken)) == expected
    # through check_datum, on the same break: only prop2-chi-form's findings are documented
    monkeypatch.setattr(milnor_lab.sweep, "datum_facts", lambda _, memo: broken)
    found = check_datum(datum, (name,))
    assert found and {v.documented for v in found} == {name == "prop2-chi-form"}
    assert [(v.expected, v.got) for v in found] == expected


def _corrupt_graphs(monkeypatch, **change):
    """Make every graph built from now on a real one with ``change`` applied."""
    real = milnor_lab.fibre.build_fibre_graph

    def corrupted(datum):
        graph = real(datum)
        return replace(graph, **{field: f(graph) for field, f in change.items()})

    monkeypatch.setattr(milnor_lab.fibre, "build_fibre_graph", corrupted)


def test_divide_by_gcd_fires_on_a_disconnected_reduced_fibre(monkeypatch):
    # gcd 1, so the datum is its own reduced datum; without the edge that
    # joins the last sheet to the one annulus, that sheet is a component
    _corrupt_graphs(monkeypatch, edges=lambda g: g.edges[:-1])
    facts = datum_facts(make_datum([(2, 0), (3, 0)], [[0, 1], [1, 0]]))
    assert list(_prop_divide_by_gcd(facts)) == [
        ("reduced fibre connected (b0 = 1)", "b0 = 2"),
    ]


def _relabel(monkeypatch, new):
    """Make the labelling give the vertices in ``new`` the labels given there."""
    real = FibreGraph.component_labels

    def corrupted(self):
        labels = real(self)
        for vertex, label in new.items():
            labels[vertex] = label
        return labels

    monkeypatch.setattr(FibreGraph, "component_labels", corrupted)


def test_chain_ok_sees_sheets_that_miss_a_component(monkeypatch):
    # branch 1's sheets all labelled 0: every class mod gcd is consistent and
    # gcd is a multiple of d, but component 1 is never reached
    _relabel(monkeypatch, {1: 0, 3: 0})
    entries = boundary2_components(from_monomial(4, 6))
    assert [(e.branch, e.chain_ok) for e in entries] == [(0, False), (1, True)]
    violations = check_datum(from_monomial(4, 6), ("coker-rank",))
    assert [(v.prop, v.expected, v.got) for v in violations] == [(
        "coker-rank",
        "branch 1: boundary components map onto fibre components",
        "chain_ok = False",
    )]


def test_upper_bound_verdict_reads_the_shifts(monkeypatch):
    # x^4 attains the bound, so a vertical shift of 1 must break the verdict
    monkeypatch.setattr(milnor_lab.invariants, "vertical_shift", lambda datum, i: 1)
    datum = make_datum([(4, 0)], [[0]])
    assert check_upper_bound(datum) == UpperBoundVerdict(True, True, False, False)
    violations = check_datum(datum, ("upper-bound",))
    assert [(v.prop, v.got) for v in violations] == [
        ("upper-bound", "cokernels_free = True, shifts_identity = False"),
    ]


def _assert_inconsistent(capsys, message):
    """``analyze`` of x^4 y^6 exits 3 with one stderr line and no report."""
    code = main(["analyze", M46])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"internal inconsistency: {message}\n")


def test_chi_mismatch_exit_3(capsys, monkeypatch):
    _corrupt_graphs(monkeypatch, edge_count=lambda g: g.edge_count + 1)
    _assert_inconsistent(capsys, "chi mismatch: graph V-E gives -1, closed form gives 0")


def test_component_mismatch_exit_3(capsys, monkeypatch):
    _corrupt_graphs(monkeypatch, edges=lambda g: ())
    _assert_inconsistent(
        capsys, "component mismatch: component search gives 12, gcd of multiplicities gives 2"
    )


def test_shift_not_an_automorphism_exit_3(capsys, monkeypatch):
    # sheet 0 moved from annulus 10 to annulus 11: the fibre still has two
    # components, but the shift sends the moved edge (0, 11) to (1, 10)
    _corrupt_graphs(monkeypatch, edges=lambda g: tuple(
        (0, 11) if e == (0, 10) else e for e in g.edges
    ))
    _assert_inconsistent(
        capsys, "sheet shift is not a graph automorphism (gluing convention broken)"
    )


def test_shift_splits_a_component_exit_3(capsys, monkeypatch):
    # only a labelling fault reaches this raise: vertex 0 takes label 1,
    # so the shift sends component 1 to both components
    _relabel(monkeypatch, {0: 1})
    _assert_inconsistent(capsys, "shift maps one component to two different components")


def test_cokernel_route_disagrees_exit_3(capsys, monkeypatch):
    real = milnor_lab.invariants.cokernel
    monkeypatch.setattr(milnor_lab.invariants, "cokernel",
                        lambda matrix: replace(real(matrix), torsion=(2,)))
    _assert_inconsistent(
        capsys, "branch 1: cokernel route gives Z^2 plus torsion [2], orbit route gives Z^2"
    )


def test_xr_routes_disagree_exit_3(capsys, monkeypatch):
    real = milnor_lab.invariants.fibre_summary
    monkeypatch.setattr(milnor_lab.invariants, "fibre_summary",
                        lambda datum: replace(real(datum), b1=0))
    _assert_inconsistent(capsys, "x^r classification routes disagree: structural False, b1 0")
