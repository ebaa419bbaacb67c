"""Every mutant of the mutation runner still names one line of the code.

``tools/mutation.py`` applies each mutant only where its old line occurs
exactly once; a refactor that rewrites that line would otherwise show up
only as "not applied" in a full mutation run, which takes minutes.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _mutation_module():
    spec = importlib.util.spec_from_file_location("mutation", ROOT / "tools" / "mutation.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTATION = _mutation_module()


@pytest.mark.parametrize("name", sorted(MUTATION.MUTANTS))
def test_mutant_old_line_occurs_once(name):
    path, old, new = MUTATION.MUTANTS[name]
    text = (ROOT / path).read_text(encoding="utf-8")
    # mutate gives None unless the old line occurs exactly once
    assert MUTATION.mutate(text, old, new) not in (None, text), f"{old!r} in {path}"
