"""The functions the benchmark wraps at run time are still where it looks.

perfbench installs timing wrappers by name (``HOOKS`` in
``perfbench/tracing.py``); a refactor that moves or renames one of them
empties a traced count without failing anything else in this suite.
"""

import importlib.util
from pathlib import Path

import milnor_lab.report
import milnor_lab.sweep
from milnor_lab import build_analysis, cli, make_datum

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_finds_its_function(capsys):
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        code = cli.main(["analyze", "--family", "monomial", "--p", "4", "--q", "6"])
    finally:
        tracer.remove()
    capsys.readouterr()
    assert code == 0
    assert tracer.missing == []
    assert tracer.size_errors == set()
    assert tracer.counters["intlinalg.snf_max_dim"] >= 1


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_the_gate_seams_are_reached(monkeypatch):
    # the benchmark's gate self-tests patch these two names to inject a wrong
    # answer; a sweep or report that stops calling them turns those tests off
    closed_forms = _counting(monkeypatch, milnor_lab.sweep, "euler_characteristic_closed")
    summaries = _counting(monkeypatch, milnor_lab.report, "fibre_summary")
    datum = make_datum([(4, 1), (6, 2)], [[0, 5], [5, 0]])
    assert milnor_lab.sweep.check_datum(datum, milnor_lab.sweep.DEFAULT_PROPERTIES) == []
    assert len(closed_forms) >= 1
    assert build_analysis(datum)["beta"] is not None
    assert len(summaries) >= 1
