"""Transversal data, beta, vertical monodromies, boundary components, verdicts."""

import cmath
import math
import tracemalloc
from math import gcd

import pytest

import milnor_lab.intlinalg
from milnor_lab import (
    ReducedDatumError,
    beta,
    boundary2_components,
    build_analysis,
    check_upper_bound,
    classify_xr,
    fibre_summary,
    from_monomial,
    make_datum,
    mu_reduced,
    vertical_shift,
)
from oracles import permutation_matrix


# -- transversal data ---------------------------------------------------------

def test_transversal_x5():
    data = build_analysis(make_datum([(5, 0)], [[0]]))["transversal"]
    assert data == {"branches": [{"branch": 1, "fibre_size": 5, "mu_perp": 4}],
                    "total_points": 5}


def test_transversal_monomial_2_3():
    data = build_analysis(from_monomial(2, 3))["transversal"]
    assert [(e["fibre_size"], e["mu_perp"]) for e in data["branches"]] == [(2, 1), (3, 2)]


def test_transversal_reduced_is_empty():
    data = build_analysis(make_datum([(1, 2), (1, 0)], [[0, 3], [3, 0]]))["transversal"]
    assert data["branches"] == []
    assert data["total_points"] == 0


# -- beta ----------------------------------------------------------------------

@pytest.mark.parametrize("r", [2, 3, 7])
def test_beta_xr_is_zero(r):
    rep = beta(make_datum([(r, 0)], [[0]]))
    assert rep.beta == 0
    assert rep.c1_beta_zero and rep.verdict_bobadilla


def test_beta_x2y():
    # F is a circle with 2 marked transversal points: rank H_1(F, F_perp) = 2
    rep = beta(make_datum([(2, 0), (1, 0)], [[0, 1], [1, 0]]))
    assert rep.beta == 1 - 1 + 2 == 2
    assert not rep.verdict_bobadilla


def test_beta_monomial_2_2():
    # two annuli, two transversal points on each: long exact sequence gives 4
    rep = beta(from_monomial(2, 2))
    assert rep.beta == 2 - 2 + 4 == 4


def test_beta_reduced_rejected():
    with pytest.raises(ReducedDatumError, match="isolated"):
        beta(make_datum([(1, 1)], [[0]]))


def test_beta_monomial_family_p_plus_q():
    for p in range(2, 13):
        for q in range(2, 13):
            assert beta(from_monomial(p, q)).beta == p + q


def test_chi_form_criterion_behaviour():
    # the chi-form criterion C2 is reported, not folded into the verdict:
    # x^r has beta = 0 with C2 false, x^2 y has C2 true with beta > 0
    xr = beta(make_datum([(3, 0)], [[0]]))
    assert xr.c1_beta_zero and not xr.c2_chi_form and xr.c3_homology_form
    x2y = beta(make_datum([(2, 0), (1, 0)], [[0, 1], [1, 0]]))
    assert x2y.c2_chi_form and not x2y.c1_beta_zero


# -- vertical monodromy ---------------------------------------------------------

def _track_roots(m, winding, steps=400):
    """Numeric oracle: follow the m roots of x^m = exp(-i*w*theta) around the
    circle, matching by nearest root at each step; returns the shift."""
    start = [cmath.exp(2j * math.pi * a / m) for a in range(m)]
    current = list(start)
    for step in range(1, steps + 1):
        theta = 2 * math.pi * step / steps
        base = cmath.exp(-1j * winding * theta / m)
        fresh = [base * cmath.exp(2j * math.pi * a / m) for a in range(m)]
        current = [min(fresh, key=lambda u: abs(u - z)) for z in current]
    ends = [min(range(m), key=lambda a: abs(z - start[a])) for z in current]
    shifts = {(ends[a] - a) % m for a in range(m)}
    assert len(shifts) == 1
    return shifts.pop()


def test_vertical_shift_single_branch_identity():
    assert vertical_shift(make_datum([(4, 2)], [[0]]), 0) == 0
    assert permutation_matrix(4, 0).entries == tuple(
        tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
    )


def test_vertical_shift_monomial_2_3():
    assert vertical_shift(from_monomial(2, 3), 0) == 3 % 2 == 1


def test_vertical_shift_satellite():
    datum = make_datum([(2, 1), (1, 0)], [[0, 3], [3, 0]])
    assert vertical_shift(datum, 0) == 1


def test_vertical_shift_root_tracking_oracle():
    # orientation-independent checks: gcd and the k = 0 criterion
    cases = [(2, 3), (2, 1), (3, 2), (4, 6), (4, 2), (6, 4), (5, 0), (4, 8), (6, 9)]
    for m, winding in cases:
        tracked = _track_roots(m, winding)
        k = winding % m
        assert tracked in {k, (-k) % m}
        assert gcd(m, tracked) == gcd(m, k)
        assert (tracked == 0) == (k == 0)


def test_vertical_shift_formula_matches_oracle_on_datums():
    datum = make_datum([(4, 1), (2, 0), (1, 0)],
                       [[0, 3, 2], [3, 0, 1], [2, 1, 0]])
    for i in (0, 1):
        m = datum.branches[i].multiplicity
        winding = sum(
            datum.branches[j].multiplicity * datum.intersections[i][j]
            for j in range(3) if j != i
        )
        k = vertical_shift(datum, i)
        assert k == winding % m
        tracked = _track_roots(m, winding)
        assert gcd(m, tracked) == gcd(m, k)


def test_vertical_shift_rejects_smooth_branch():
    with pytest.raises(ReducedDatumError):
        vertical_shift(make_datum([(2, 0), (1, 0)], [[0, 1], [1, 0]]), 1)


def test_vertical_matrix_is_single_cycle_permutation():
    datum = make_datum([(6, 0), (1, 0)], [[0, 4], [4, 0]])
    assert vertical_shift(datum, 0) == 4
    matrix = permutation_matrix(6, 4).entries
    assert all(sum(row) == 1 for row in matrix)
    assert all(sum(col) == 1 for col in zip(*matrix))
    assert all(matrix[(a + 4) % 6][a] == 1 for a in range(6))


# -- boundary components ---------------------------------------------------------

def test_boundary2_dense_smith_form_sees_no_columns(monkeypatch):
    # unit-pivot elimination empties every column of a shift minus the
    # identity, so the dense SNF only ever gets a g x 0 block, never m x m
    original = milnor_lab.intlinalg.smith_normal_form
    shapes = []

    def recording(matrix, *rest):
        shapes.append((matrix.rows, matrix.cols))
        return original(matrix, *rest)

    monkeypatch.setattr(milnor_lab.intlinalg, "smith_normal_form", recording)
    entries = boundary2_components(from_monomial(200, 199))
    assert [e.components for e in entries] == [1, 1]
    assert shapes == [(1, 0), (1, 0)]


def test_boundary2_peaks_below_a_copy_of_its_matrix():
    # the cokernel reduces the columns of A - I in place and keeps no index
    # per row: on x^20000 y^19999 the boundary pass peaks 8.2 MB above what
    # was traced before it, against 19.8 MB with a column copy and row sets
    datum = from_monomial(20000, 19999)
    fibre_summary(datum)  # the graph and its labels are built first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        entries = boundary2_components(datum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [e.components for e in entries] == [1, 1]
    assert peak - before <= 8.7e6


def test_boundary2_xm():
    entries = boundary2_components(make_datum([(4, 0)], [[0]]))
    entry = entries[0]
    assert (entry.shift, entry.components) == (0, 4)
    assert (entry.coker.free_rank, entry.coker.torsion) == (4, ())
    assert entry.chain_ok


def test_boundary2_monomial_2_3():
    entries = boundary2_components(from_monomial(2, 3))
    by_branch = {e.branch: e for e in entries}
    assert by_branch[0].shift == 1 and by_branch[0].components == 1
    assert by_branch[0].coker.free_rank == 1
    assert by_branch[1].shift == 2 and by_branch[1].components == 1


def test_boundary2_monomial_4_6():
    entries = boundary2_components(from_monomial(4, 6))
    by_branch = {e.branch: e for e in entries}
    assert by_branch[0].shift == 6 % 4 == 2
    assert by_branch[0].components == 2  # equals d
    assert all(e.chain_ok for e in entries)


def test_boundary2_reduced_rejected():
    with pytest.raises(ReducedDatumError):
        boundary2_components(make_datum([(1, 0)], [[0]]))


# -- upper bound ------------------------------------------------------------------

def test_upper_bound_xm():
    verdict = check_upper_bound(make_datum([(6, 0)], [[0]]))
    assert verdict.hypothesis and verdict.conclusion_holds


def test_upper_bound_power_of_cusp():
    verdict = check_upper_bound(make_datum([(2, 1)], [[0]]))
    assert verdict.hypothesis  # d - 1 = 1 = mu_perp
    assert verdict.shifts_identity and verdict.conclusion_holds


def test_upper_bound_not_attained():
    verdict = check_upper_bound(from_monomial(2, 2))
    assert not verdict.hypothesis
    assert verdict.conclusion_holds is None


def test_upper_bound_reduced_rejected():
    with pytest.raises(ReducedDatumError, match="isolated"):
        check_upper_bound(make_datum([(1, 0), (1, 0)], [[0, 1], [1, 0]]))


# -- classification and mu oracle ---------------------------------------------------

def test_classify_x7():
    verdict = classify_xr(make_datum([(7, 0)], [[0]]))
    assert verdict.is_power_of_smooth and verdict.b1_zero
    assert verdict.exponent == 7


def test_classify_cusp_squared():
    verdict = classify_xr(make_datum([(2, 1)], [[0]]))
    assert not verdict.is_power_of_smooth and not verdict.b1_zero
    assert verdict.exponent is None


def test_classify_node():
    verdict = classify_xr(make_datum([(1, 0), (1, 0)], [[0, 1], [1, 0]]))
    assert not verdict.is_power_of_smooth and not verdict.b1_zero


@pytest.mark.parametrize("datum,mu", [
    (make_datum([(1, 1)], [[0]]), 2),                       # cusp
    (make_datum([(1, 0), (1, 0)], [[0, 1], [1, 0]]), 1),    # node
    (make_datum([(1, 0)], [[0]]), 0),                       # smooth branch
])
def test_mu_reduced_examples(datum, mu):
    assert mu_reduced(datum) == mu


def test_mu_reduced_rejects_non_reduced():
    with pytest.raises(ValueError):
        mu_reduced(make_datum([(2, 0)], [[0]]))


def test_classify_never_inconsistent_on_corpus():
    # the two classification routes agree on every enumerated datum
    from milnor_lab import CorpusBounds, enumerate_corpus, fibre_summary

    for datum in enumerate_corpus(CorpusBounds(2, 3, 2, 2)):
        verdict = classify_xr(datum)
        assert verdict.b1_zero == (fibre_summary(datum).b1 == 0)
