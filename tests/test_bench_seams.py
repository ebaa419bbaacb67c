"""The functions the benchmark wraps at run time are still where it looks.

perfbench installs timing wrappers by name (``HOOKS`` in
``perfbench/tracing.py``); a refactor that moves or renames one of them
empties a traced count without failing anything else in this suite.
"""

import importlib.util
from pathlib import Path

import milnor_lab.report
import milnor_lab.sweep
from milnor_lab import cli

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
    # the benchmark's gate patches these two to inject a wrong answer
    assert callable(milnor_lab.sweep.euler_characteristic_closed)
    assert callable(milnor_lab.report.fibre_summary)
