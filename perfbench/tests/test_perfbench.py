"""Self-tests of the benchmark: smoke runs, the gate, the seeded draws.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def program():
    run.import_program()
    import milnor_lab
    return milnor_lab


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_every_workload(program, name, trace):
    result, descriptor, info = run.run_workload(name, seed=7, seconds=0.05,
                                                trace=trace, smoke=True)
    assert result["correct"] and result["failed"] == 0, info["errors"]
    assert result["attempted"] >= 1
    wanted = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert descriptor["analyze_draw"]["datums"] == 12
    if trace:
        assert info["missing_hooks"] == []
        assert result["metrics"]["intlinalg.snf_max_dim"]["value"] >= 1
        assert result["metrics"]["trace.overhead_s"]["value"] > 0


def test_gate_counts_a_wrong_analyze_report(program, monkeypatch):
    original = program.report.fibre_summary
    calls = []

    def one_wrong(datum):
        summary = original(datum)
        calls.append(1)
        if len(calls) == 3:
            return dataclasses.replace(summary, chi=summary.chi + 1)
        return summary

    monkeypatch.setattr(program.report, "fibre_summary", one_wrong)
    result, _, info = run.run_workload("analyze-high-mult", seed=7, seconds=0.05,
                                       trace=0, smoke=True)
    assert result["failed"] == 1 and not result["correct"]
    assert "fibre.chi" in info["errors"][0]
    assert info["failed_ratio"] > 0


def test_gate_counts_a_wrong_verify(program, monkeypatch):
    original = program.sweep.euler_characteristic_closed
    calls = []

    def one_wrong(datum):
        calls.append(1)
        return original(datum) + (1 if len(calls) == 5 else 0)

    monkeypatch.setattr(program.sweep, "euler_characteristic_closed", one_wrong)
    result, _, info = run.run_workload("corpus-sweep", seed=7, seconds=0.05,
                                       trace=0, smoke=True)
    assert result["failed"] >= 1
    assert info["failed_ratio"] > 0


@pytest.mark.parametrize("pool", sorted(workloads.POOLS))
def test_draw_depends_on_the_seed_only(pool):
    assert workloads.pool(pool) == workloads.pool(pool)
    order = run.load_golden()["pools"][pool]["order"]
    first = workloads.draw(order, 50, seed=1)
    assert first == workloads.draw(order, 50, seed=1)
    assert first != workloads.draw(order, 50, seed=2)
    assert sorted(first) != sorted(workloads.draw(order, 50, seed=2))


def test_missing_hook_is_reported_not_fatal(program, monkeypatch):
    fake = ("fibre.gone", "gone", "no_such_function", ("milnor_lab.fibre",))
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (fake,))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        program.fibre.fibre_summary(program.from_monomial(2, 3))
    finally:
        tracer.remove()
    assert tracer.missing == ["fibre.gone"]
    assert tracer.agg["fibre.graph_build"][0] == 1
    assert not hasattr(program.fibre.build_fibre_graph, "__wrapped__")


def test_self_time_excludes_children(program):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        program.invariants.beta(program.from_monomial(30, 20))
    finally:
        tracer.remove()
    count, total, own = tracer.agg["invariants.beta"]
    assert count == 1 and 0 < own < total
    assert tracer.agg["fibre.summary"][1] <= total
