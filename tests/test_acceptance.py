"""Acceptance suite: every criterion checked at its stated tolerance.

The corpus bounds are max_branches 3, max_mult 4, max_delta 3,
max_intersection 3 (20024 datums).  Each test prints one pass/fail line.
"""

import json
import random
import subprocess
import sys
import time
from math import gcd

import pytest

from milnor_lab import (
    CorpusBounds,
    beta,
    boundary2_components,
    build_fibre_graph,
    check_upper_bound,
    divide_by_gcd,
    enumerate_corpus,
    euler_characteristic_closed,
    fibre_summary,
    from_monomial,
    mu_reduced,
    smith_normal_form,
)
from milnor_lab.cli import main as cli_main
from oracles import determinant, int_matrix, matmul

BOUNDS = CorpusBounds(3, 4, 3, 3)


def _report(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description}",
          flush=True)
    assert ok, f"criterion {number}: {description}"


@pytest.fixture(scope="module")
def corpus():
    return list(enumerate_corpus(BOUNDS))


@pytest.fixture(scope="module")
def singular_reports(corpus):
    """(datum, BetaReport, its Boundary2Branch entries) for every non-reduced corpus datum."""
    out = []
    for datum in corpus:
        if any(b.multiplicity >= 2 for b in datum.branches):
            out.append((datum, beta(datum), boundary2_components(datum)))
    return out


def _is_xr(datum):
    return datum.r == 1 and datum.branches[0].delta == 0


def test_criterion_01_b1_zero_iff_xr(corpus):
    start = time.perf_counter()
    violations = 0
    for datum in corpus:
        if (fibre_summary(datum).b1 == 0) != _is_xr(datum):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    _report(1, f"b1 = 0 iff power of smooth branch on {len(corpus)} datums "
               f"({violations} violations, {elapsed:.1f}s single-threaded)", ok)


def test_criterion_02_beta_zero_iff_xr(singular_reports):
    violations = [
        datum for datum, rep, _ in singular_reports
        if (rep.beta == 0) != _is_xr(datum)
    ]
    _report(2, f"beta = 0 iff power of smooth branch on {len(singular_reports)} "
               f"non-reduced datums ({len(violations)} violations)",
            not violations)


def test_criterion_03_components_and_gcd_splitting(corpus):
    violations = 0
    for datum in corpus:
        summary = fibre_summary(datum)
        d_expected = 0
        for m in datum.multiplicities:
            d_expected = gcd(d_expected, m)
        if summary.d != d_expected:
            violations += 1
            continue
        d, reduced = divide_by_gcd(datum)
        rs = fibre_summary(reduced)
        if rs.d != 1:
            violations += 1
        elif (summary.d, summary.b1, summary.chi) != (d * rs.d, d * rs.b1, d * rs.chi):
            violations += 1
    _report(3, f"b0 = gcd(m_i), fibre = d copies of connected reduced fibre "
               f"({violations} violations)", violations == 0)


def test_criterion_04_two_route_chi(corpus):
    violations = 0
    for datum in corpus:
        graph = build_fibre_graph(datum)
        if graph.vertex_count - graph.edge_count != euler_characteristic_closed(datum):
            violations += 1
    _report(4, f"graph V - E equals closed-form chi ({violations} violations)",
            violations == 0)


def test_criterion_05_classical_mu_oracle(corpus):
    checked = 0
    violations = 0
    for datum in corpus:
        if any(b.multiplicity != 1 for b in datum.branches):
            continue
        checked += 1
        if fibre_summary(datum).b1 != mu_reduced(datum):
            violations += 1
    _report(5, f"b1 = 2*delta_total - r + 1 on {checked} reduced datums "
               f"({violations} violations)", checked > 0 and violations == 0)


def test_criterion_06_monomial_family():
    start = time.perf_counter()
    ok = True
    for p in range(2, 13):
        for q in range(2, 13):
            summary = fibre_summary(from_monomial(p, q))
            g = gcd(p, q)
            if (summary.d, summary.b1, summary.chi) != (g, g, 0):
                ok = False
            if beta(from_monomial(p, q)).beta != p + q:
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(6, f"monomials 2 <= p,q <= 12: b0 = b1 = gcd, chi = 0, "
               f"beta = p + q ({elapsed:.2f}s)", ok)


def test_criterion_07_snf_suite(singular_reports):
    rng = random.Random(20240801)
    failures = 0
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        matrix = int_matrix([
            [rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)
        ])
        dec = smith_normal_form(matrix)
        diag = dec.diagonal()
        nonzero = [d for d in diag if d]
        good = (
            matmul(matmul(dec.U, dec.S), dec.V) == matrix
            and abs(determinant(dec.U)) == 1
            and abs(determinant(dec.V)) == 1
            and all(d >= 0 for d in diag)
            and diag[:len(nonzero)] == tuple(nonzero)
            and all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        )
        if good and rows == cols:
            product = 1
            for d in diag:
                product *= d
            good = abs(determinant(matrix)) == product
        if not good:
            failures += 1

    coker_failures = 0
    branches_checked = 0
    for datum, _, b2 in singular_reports:
        for entry in b2:
            branches_checked += 1
            m = datum.branches[entry.branch].multiplicity
            if entry.coker.free_rank != gcd(m, entry.shift) or entry.coker.torsion:
                coker_failures += 1
    ok = failures == 0 and coker_failures == 0
    _report(7, f"SNF invariants on 1000 random matrices ({failures} failures); "
               f"coker(A - I) free of rank gcd(m, k) on {branches_checked} corpus "
               f"branches ({coker_failures} failures)", ok)


def test_criterion_08_upper_bound_forces_identity(singular_reports):
    attained = 0
    violations = 0
    for datum, rep, b2 in singular_reports:
        mu_perp_sum = rep.total_transversal_points - rep.singular_branch_count
        if rep.b0 - 1 != mu_perp_sum:
            continue
        attained += 1
        if any(entry.shift % datum.branches[entry.branch].multiplicity != 0
               for entry in b2):
            violations += 1
        verdict = check_upper_bound(datum)
        if not (verdict.hypothesis and verdict.conclusion_holds):
            violations += 1
    _report(8, f"rank bound attained on {attained} datums forces k = 0 mod m "
               f"({violations} violations)", attained > 0 and violations == 0)


def test_criterion_09_beta_nonneg_and_divisibility(singular_reports):
    violations = 0
    for datum, rep, b2 in singular_reports:
        if rep.beta < 0:
            violations += 1
        for entry in b2:
            if entry.components % rep.b0 != 0:
                violations += 1
    _report(9, f"beta >= 0 and d | gcd(m_i, k_i) on {len(singular_reports)} "
               f"non-reduced datums ({violations} violations)", violations == 0)


def test_criterion_10_documented_chi_form_discrepancy(capsys):
    code = cli_main([
        "verify", "--max-branches", "3", "--max-mult", "4",
        "--max-delta", "3", "--max-int", "3",
        "--properties", "prop2-chi-form",
    ])
    out = capsys.readouterr().out
    payload = json.loads(out)
    flagged = payload["violations"]
    expected = [
        {"branches": [{"multiplicity": m, "delta": 0}], "intersections": [[0]]}
        for m in (2, 3, 4)
    ]
    ok = (
        code == 2
        and [v["datum"] for v in flagged] == expected
        and all(v["documented"] for v in flagged)
        and all(v["property"] == "prop2-chi-form" for v in flagged)
    )
    _report(10, f"chi-form check flags exactly the x^r datums, each documented "
                f"({len(flagged)} flagged)", ok)


def test_criterion_11_parallel_determinism(cli_env):
    args = ["verify", "--max-branches", "2", "--max-mult", "3",
            "--max-delta", "2", "--max-int", "2"]
    outputs = []
    for jobs in ("4", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "milnor_lab.cli", *args, "--jobs", jobs],
            capture_output=True, env=cli_env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(11, "verify --jobs 4 and --jobs 1 produce byte-identical reports", ok)
