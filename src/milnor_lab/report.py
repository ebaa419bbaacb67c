"""Machine-readable analysis report for a single datum.

Field ordering is fixed so identical inputs serialize byte-identically.
Branch indices in the report are 1-based.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from ._version import __version__
from .datum import EquisingularDatum, serialize_datum
from .fibre import analyse, component_monodromy, divide_by_gcd, fibre_summary
from .invariants import beta, boundary2_components, classify_xr, singular_branches


def build_analysis(datum: EquisingularDatum) -> dict:
    """Assemble the full report."""
    summary = fibre_summary(datum)
    mono = component_monodromy(datum)
    singular = [(i + 1, datum.branches[i].multiplicity) for i in singular_branches(datum)]
    d, reduced = divide_by_gcd(datum)
    xr = classify_xr(datum)

    network = [
        {
            "kind": node.kind,
            **({"branch": node.i + 1} if node.j is None
               else {"branches": [node.i + 1, node.j + 1]}),
            "p": node.p,
            "q": node.q,
            "copies": node.copies,
        }
        for node in analyse(datum).network
    ]

    transversal = {
        "branches": [{"branch": i, "fibre_size": m, "mu_perp": m - 1} for i, m in singular],
        "total_points": sum(m for _, m in singular),
    }

    if singular:
        beta_rep = beta(datum)
        beta_section = {
            "value": beta_rep.beta,
            "b1": beta_rep.b1,
            "b0": beta_rep.b0,
            "total_transversal_points": beta_rep.total_transversal_points,
            "singular_branch_count": beta_rep.singular_branch_count,
            "criteria": {
                "C1": beta_rep.c1_beta_zero,
                "C2": beta_rep.c2_chi_form,
                "C3": beta_rep.c3_homology_form,
            },
            "verdict_bobadilla": beta_rep.verdict_bobadilla,
        }
        b2 = boundary2_components(datum)
        vertical = [
            {
                "branch": e.branch + 1,
                "k": e.shift,
                "components": e.components,
                "coker_free_rank": e.coker.free_rank,
                "coker_torsion": list(e.coker.torsion),
                "chain_ok": e.chain_ok,
            }
            for e in b2
        ]
        upper_bound = asdict(beta_rep.upper_bound(lambda: b2))
    else:
        beta_section = None
        vertical = []
        upper_bound = None

    report = {
        "datum": serialize_datum(datum),
        "network": network,
        "fibre": {
            "d": summary.d,
            "b0": summary.d,
            "b1": summary.b1,
            "chi": summary.chi,
            "reduced": {"d": d, "datum": serialize_datum(reduced)},
        },
        "monodromy": {"cycle_type": list(mono.cycle_type)},
        "transversal": transversal,
        "beta": beta_section,
        "vertical": vertical,
        "upper_bound": upper_bound,
        "xr_verdict": {
            "is_xr": xr.is_power_of_smooth,
            "b1_zero": xr.b1_zero,
            "exponent": xr.exponent,
        },
        "version": __version__,
    }
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=False) + "\n"
