"""Work budgets: ceilings on how often each stage of the work runs.

Timing noise hides a change below about 20%, but call counts repeat
exactly.  Each run below counts the calls of the functions that do the
work, in every namespace they are called from, and asserts that each
count is at or below its ceiling in ``work_budgets.json``.  A change that
removes work lowers the ceilings; a change that raises one is a looser
bound and says why.
"""

import json
from pathlib import Path

import pytest

import milnor_lab.datum
import milnor_lab.fibre
import milnor_lab.invariants
import milnor_lab.report
import milnor_lab.sweep
from milnor_lab import CorpusBounds, build_analysis, run_sweep
from milnor_lab.datum import expand_spec
from milnor_lab.sweep import ALL_PROPERTIES

BUDGETS = json.loads(Path(__file__).with_name("work_budgets.json").read_text())

# counted quantity -> the function, and the modules whose callers look it up
COUNTED = {
    "graph_builds": ("build_fibre_graph", (milnor_lab.fibre,)),
    "network_builds": ("build_network", (milnor_lab.fibre,)),
    "cokernels": ("cokernel", (milnor_lab.invariants,)),
    "orbit_walks": ("_orbits", (milnor_lab.invariants,)),
    "boundaries": ("boundary_entries", (milnor_lab.invariants, milnor_lab.sweep)),
    "closed_form_chi": ("euler_characteristic_closed", (milnor_lab.fibre, milnor_lab.sweep)),
    "validations": ("validate", (milnor_lab.datum,)),
}

CORPUS = CorpusBounds(3, 3, 1, 2)  # 412 datums, about 0.1 s for the default suite

SPECS = {
    "x^6": {"branches": [{"multiplicity": 6, "delta": 0}], "intersections": [[0]]},
    "monomial-4-6": {"family": "monomial", "p": 4, "q": 6},
    "wide-quasihomogeneous": {"family": "quasihomogeneous", "branches": [
        {"a": 2, "b": 3, "multiplicity": 2},
        {"a": 3, "b": 5, "multiplicity": 1},
        {"a": 2, "b": 5, "multiplicity": 3},
        {"a": 1, "b": 1, "multiplicity": 4},
    ]},
}

RUNS = {
    "verify:default": lambda: run_sweep(CORPUS),
    **{f"verify:{name}": (lambda name=name: run_sweep(CORPUS, (name,)))
       for name in ALL_PROPERTIES},
    **{f"analyze:{name}": (lambda spec=spec: build_analysis(expand_spec(spec)))
       for name, spec in SPECS.items()},
}


def _count_work(monkeypatch) -> dict:
    counts = dict.fromkeys(COUNTED, 0)
    for key, (name, modules) in COUNTED.items():
        for module in modules:
            real = getattr(module, name)

            def counted(*args, _real=real, _key=key):
                counts[_key] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
    return counts


def test_every_run_has_a_budget():
    assert sorted(BUDGETS) == sorted(RUNS)


@pytest.mark.parametrize("run", RUNS)
def test_work_within_budget(monkeypatch, run):
    counts = _count_work(monkeypatch)
    RUNS[run]()
    ceilings = BUDGETS[run]
    assert sorted(ceilings) == sorted(COUNTED)
    over = {key: (counts[key], ceilings[key]) for key in COUNTED if counts[key] > ceilings[key]}
    assert over == {}, f"counts over their ceilings (count, ceiling): {over}"
