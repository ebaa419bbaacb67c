"""Seeded metamorphic relations between whole analysis reports.

Each case draws a datum from ``random.Random`` (up to 6 branches,
m_i <= 60, delta_i <= 10, I_ij <= 10), changes it in a way whose effect
on the invariants is known, and compares the ``build_analysis`` reports of
the two datums.  Small draws are also checked whole against the fully
expanded fibre graph of ``oracles.expand_fibre_graph``.  The relations:

- permuting the branches moves the vertical entries with their branch and
  changes nothing else;
- f -> f^e scales d, b1, chi and each k_i and gcd(m_i, k_i) by e, and
  beta too when every m_i >= 2;
- delta_i -> delta_i + 1, where delta_i >= 1, keeps d and the cycle type
  and lowers chi by 2 m_i;
- I_ij -> I_ij + 1 keeps d and the cycle type, lowers chi by m_i + m_j,
  and raises k_i by m_j mod m_i and k_j by m_i mod m_j.
"""

import random
from math import gcd

from milnor_lab import build_analysis, make_datum

from oracles import assert_matches_full_expansion

CASES = 500  # per relation; with the oracle draws, 2,300 cases


def _draw(rng, r_max=6, m_max=60, delta_max=10, i_max=10):
    """(branches, matrix) of a random valid datum.  A common factor of the
    m_i is drawn first, so that fibres with several components are common."""
    r = rng.randint(1, r_max)
    c = rng.choice((1, 1, 2, 3, 4, 6))
    branches = [(c * rng.randint(1, m_max // c), rng.randint(0, delta_max)) for _ in range(r)]
    matrix = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            matrix[i][j] = matrix[j][i] = rng.randint(1, i_max)
    return branches, matrix


def _analysis(branches, matrix):
    return build_analysis(make_datum(branches, matrix))


def _vertical(report, branches):
    """(k_i, gcd(m_i, k_i)) per branch, 0-based; a smooth branch has no
    vertical entry and reads (0, 1).  Checks that both cokernel routes agree."""
    out = {i: (0, 1) for i, (m, _) in enumerate(branches) if m == 1}
    for e in report["vertical"]:
        assert (e["coker_free_rank"], e["coker_torsion"], e["chain_ok"]) == (
            e["components"], [], True)
        assert e["components"] % report["fibre"]["d"] == 0
        out[e["branch"] - 1] = (e["k"], e["components"])
    return out


def _fibre(report):
    f = report["fibre"]
    return f["d"], f["b1"], f["chi"]


def test_branch_permutation_moves_only_the_branches():
    rng = random.Random(4001)
    for _ in range(CASES):
        branches, matrix = _draw(rng)
        perm = list(range(len(branches)))
        rng.shuffle(perm)  # position p of the new datum holds old branch perm[p]
        new_branches = [branches[p] for p in perm]
        a = _analysis(branches, matrix)
        b = _analysis(new_branches, [[matrix[p][q] for q in perm] for p in perm])
        for key in ("beta", "monodromy", "upper_bound", "xr_verdict"):
            assert a[key] == b[key], key
        assert a["fibre"]["reduced"]["d"] == b["fibre"]["reduced"]["d"]
        assert _fibre(a) == _fibre(b)
        assert a["transversal"]["total_points"] == b["transversal"]["total_points"]
        va = _vertical(a, branches)
        assert _vertical(b, new_branches) == {p: va[old] for p, old in enumerate(perm)}


def test_power_scales_by_the_exponent():
    rng = random.Random(4002)
    for _ in range(CASES):
        branches, matrix = _draw(rng)
        e = rng.choice((2, 3))
        powered = [(e * m, delta) for m, delta in branches]
        a = _analysis(branches, matrix)
        b = _analysis(powered, matrix)
        assert _fibre(b) == tuple(e * x for x in _fibre(a))
        assert b["monodromy"]["cycle_type"] == [e * a["fibre"]["d"]]
        assert b["fibre"]["reduced"] == {
            "d": e * a["fibre"]["reduced"]["d"], "datum": a["fibre"]["reduced"]["datum"],
        }
        va = _vertical(a, branches)
        assert _vertical(b, powered) == {i: (e * k, e * g) for i, (k, g) in va.items()}
        if all(m >= 2 for m, _ in branches):
            assert b["beta"]["value"] == e * a["beta"]["value"]


def test_one_more_self_point_lowers_chi_by_two_sheets():
    rng = random.Random(4003)
    done = 0
    while done < CASES:
        branches, matrix = _draw(rng)
        candidates = [i for i, (_, delta) in enumerate(branches) if delta >= 1]
        if not candidates:
            continue
        i = rng.choice(candidates)
        m = branches[i][0]
        more = list(branches)
        more[i] = (m, branches[i][1] + 1)
        a = _analysis(branches, matrix)
        b = _analysis(more, matrix)
        d, b1, chi = _fibre(a)
        assert _fibre(b) == (d, b1 + 2 * m, chi - 2 * m)
        for key in ("monodromy", "vertical", "upper_bound"):
            assert a[key] == b[key], key
        if a["beta"] is not None:
            assert b["beta"]["value"] == a["beta"]["value"] + 2 * m
        done += 1


def test_one_more_crossing_shifts_both_branches():
    rng = random.Random(4004)
    done = 0
    while done < CASES:
        branches, matrix = _draw(rng)
        if len(branches) < 2:
            continue
        i, j = rng.sample(range(len(branches)), 2)
        more = [list(row) for row in matrix]
        more[i][j] += 1
        more[j][i] += 1
        a = _analysis(branches, matrix)
        b = _analysis(branches, more)
        mi, mj = branches[i][0], branches[j][0]
        d, b1, chi = _fibre(a)
        assert _fibre(b) == (d, b1 + mi + mj, chi - mi - mj)
        assert a["monodromy"] == b["monodromy"]
        expected = _vertical(a, branches)
        for x, y in ((i, j), (j, i)):
            m = branches[x][0]
            k = (expected[x][0] + branches[y][0]) % m
            expected[x] = (k, gcd(m, k))
        assert _vertical(b, branches) == expected
        done += 1


def test_small_draws_match_the_full_expansion():
    rng = random.Random(4005)
    for _ in range(300):
        assert_matches_full_expansion(make_datum(*_draw(rng, 3, 6, 3, 3)))
