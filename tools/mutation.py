"""Mutation runner: apply one-line mutants to a copy of the checkout and
run the tier-1 suite against each one.

    python3 tools/mutation.py                      # every mutant, whole suite
    python3 tools/mutation.py --only upper-bound-no-early-return \\
        -- tests/test_work_budgets.py              # one mutant, one test file

Each mutant is a (file, old line, new line) triple.  The old line, read
without its indentation, must occur exactly once in the file; the new
line takes its indentation.  A mutant is killed when the suite fails on
it and survives when the suite passes.  The suite runs with ``-x``, so a
killed mutant costs only the tests up to the first failure.  The table at
the end names the first failing test of each killed mutant; the exit code
is 1 when a mutant survived or could not be applied.  Standard library
only, besides pytest for the suite itself.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

# name -> (file, old line, new line)
MUTANTS = {
    "orbit-oracle-step-1": (
        "src/milnor_lab/invariants.py",
        "a = (a + k) % m",
        "a = (a + 1) % m",
    ),
    "validate-drops-meet": (
        "src/milnor_lab/datum.py",
        "elif type(mat[i][j]) is int and mat[i][j] < 1:",
        "elif False:",
    ),
    "chain-ok-drops-onto": (
        "src/milnor_lab/invariants.py",
        "and set(comps[:g]) == set(range(n_components))",
        "and True",
    ),
    "shift-automorphism-unchecked": (
        "src/milnor_lab/fibre.py",
        "if sorted(self.edges) != mapped:",
        "if False:",
    ),
    "divide-by-gcd-drops-connected": (
        "src/milnor_lab/sweep.py",
        "if reduced[0] != 1:",
        "if False:",
    ),
    "upper-bound-ignores-shifts": (
        "src/milnor_lab/invariants.py",
        "identity = all(e.shift == 0 for e in boundary())",
        "identity = True",
    ),
    "coker-rank-drops-d-divides-gcd": (
        "src/milnor_lab/sweep.py",
        "if entry.components % d != 0:",
        "if False:",
    ),
    "monodromy-cycle-inert": (
        "src/milnor_lab/sweep.py",
        "if mono.cycle_type != (d,):",
        "if False:",
    ),
    "upper-bound-no-early-return": (
        "src/milnor_lab/invariants.py",
        "return _NOT_ATTAINED  # the hypothesis fails: no boundary to build",
        "pass",
    ),
    "lemma-d-gcd-builds-boundary": (
        "src/milnor_lab/sweep.py",
        "expected = f.shape.gcd",
        "expected = f.shape.gcd if f.rep is None or f.boundary() else 0",
    ),
    "graph-drops-copies-weight": (
        "src/milnor_lab/fibre.py",
        "edge_count += c * built",
        "edge_count += built",
    ),
    "graph-shape-keyed-on-multiplicity": (
        "src/milnor_lab/fibre.py",
        "return tuple((b.multiplicity, b.delta >= 1) for b in datum.branches)",
        "return tuple((b.multiplicity,) for b in datum.branches)",
    ),
    "cokernel-keyed-on-m": (
        "src/milnor_lab/invariants.py",
        "pres, orbits = memoized(memo, (m, k), lambda: (",
        "pres, orbits = memoized(memo, m, lambda: (",
    ),
    "boundary-ignores-orbit-walk": (
        "src/milnor_lab/invariants.py",
        "if pres.free_rank != g or pres.torsion or orbits != g:",
        "if pres.free_rank != g or pres.torsion:",
    ),
    "cokernel-skips-final-clear": (
        "src/milnor_lab/intlinalg.py",
        "rest = [col for col in map(clear, rest) if col]",
        "rest = [col for col in rest if col]",
    ),
    "cokernel-unit-takes-two": (
        "src/milnor_lab/intlinalg.py",
        "r = next((i for i, v in col.items() if v in (1, -1)), None)",
        "r = next((i for i, v in col.items() if v in (1, -1, 2)), None)",
    ),
    "cokernel-live-keeps-pivot-rows": (
        "src/milnor_lab/intlinalg.py",
        "live = [i for i in range(matrix.rows) if i not in pivots]",
        "live = list(range(matrix.rows))",
    ),
    "labels-drop-neighbour-push": (
        "src/milnor_lab/fibre.py",
        "stack.append(w)",
        "pass",
    ),
    "datum-gate-inert": (
        "src/milnor_lab/datum.py",
        "if violations:",
        "if False:",
    ),
    "sweep-shape-key-drops-delta": (
        "src/milnor_lab/sweep.py",
        'return memoized(memo, ("shape", graph_shape(datum)), make)',
        'return memoized(memo, ("shape", datum.multiplicities), make)',
    ),
    "sweep-copies-read-diagonal": (
        "src/milnor_lab/sweep.py",
        "copies = [branches[i].delta if j is None else rows[i][j] for i, j in shape.sources]",
        "copies = [branches[i].delta if j is None else rows[i][i] for i, j in shape.sources]",
    ),
    "analyse-skips-chi-check": (
        "src/milnor_lab/fibre.py",
        "if chi != chi_closed:",
        "if False:",
    ),
    "analyse-skips-d-check": (
        "src/milnor_lab/fibre.py",
        "if d != d_gcd:",
        "if False:",
    ),
    "transversal-mu-perp-is-m": (
        "src/milnor_lab/report.py",
        '"branches": [{"branch": i, "fibre_size": m, "mu_perp": m - 1} for i, m in singular],',
        '"branches": [{"branch": i, "fibre_size": m, "mu_perp": m} for i, m in singular],',
    ),
    "enumerator-cache-keyed-on-r": (
        "src/milnor_lab/datum.py",
        "runs = tuple(len(list(g)) for _, g in itertools.groupby(branch_types))",
        "runs = len(branch_types)",
    ),
    "enumerator-keeps-every-candidate": (
        "src/milnor_lab/datum.py",
        "stab.append(itemgetter(*moved))",
        "pass",
    ),
    "qh-intersection-max": (
        "src/milnor_lab/datum.py",
        "matrix[i][j] = matrix[j][i] = min(si.a * sj.b, sj.a * si.b)",
        "matrix[i][j] = matrix[j][i] = max(si.a * sj.b, sj.a * si.b)",
    ),
    "qh-delta-drops-b-minus-1": (
        "src/milnor_lab/datum.py",
        "(s.multiplicity, (s.a - 1) * (s.b - 1) // 2) for s in specs",
        "(s.multiplicity, (s.a - 1) * s.b // 2) for s in specs",
    ),
    "chi-form-row-undocumented": (
        "src/milnor_lab/sweep.py",
        '("prop2-chi-form", _prop_chi_form, True, True),  # known discrepancy at curve level',
        '("prop2-chi-form", _prop_chi_form, False, True),',
    ),
}


def mutate(text: str, old: str, new: str) -> str | None:
    """The text with the one line that reads ``old`` replaced by ``new``,
    or None when ``old`` does not occur exactly once."""
    lines = text.splitlines(keepends=True)
    hits = [n for n, line in enumerate(lines) if line.strip() == old]
    if len(hits) != 1:
        return None
    line = lines[hits[0]]
    indent = line[:len(line) - len(line.lstrip())]
    lines[hits[0]] = indent + new + "\n"
    return "".join(lines)


def run_suite(copy: Path, pytest_args: list[str]) -> tuple[bool, str]:
    """Run the suite in the copy: (passed, first failing test or last line)."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        # tests/test_mutants.py checks this table against the unmutated code,
        # so every mutant would fail it: it is left out of the copy's suite
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--ignore=tests/test_mutants.py",
             *pytest_args],
            cwd=copy, env=env, capture_output=True, text=True, timeout=1800,
        )
    except subprocess.TimeoutExpired:
        return False, "timed out after 1800 s"  # a mutant that loops is caught too
    out = result.stdout.strip().splitlines()
    failed = [m.group(1) for line in out
              if (m := re.match(r"(?:FAILED|ERROR) (.+?)(?: - .*)?$", line))]
    return result.returncode == 0, failed[0] if failed else (out[-1] if out else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", help="comma-separated mutant names")
    parser.add_argument("pytest_args", nargs="*", help="passed to pytest (after --)")
    args = parser.parse_args(argv)
    names = list(MUTANTS) if args.only is None else args.only.split(",")
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        parser.error(f"unknown mutants {unknown}")

    with tempfile.TemporaryDirectory(prefix="milnor-mutants-") as tmp:
        copy = Path(tmp)
        for item in COPIED:
            src = ROOT / item
            if src.is_dir():
                shutil.copytree(src, copy / item, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / item)
        passed, detail = run_suite(copy, args.pytest_args)
        if not passed:
            print(f"the unmutated suite fails ({detail}): no mutant can be judged")
            return 1

        rows = []
        for name in names:
            path, old, new = MUTANTS[name]
            target = copy / path
            original = target.read_text(encoding="utf-8")
            mutated = mutate(original, old, new)
            if mutated is None:
                rows.append((name, "not applied", f"{old!r} is not one line of {path}"))
                continue
            target.write_text(mutated, encoding="utf-8")
            try:
                passed, detail = run_suite(copy, args.pytest_args)
            finally:
                target.write_text(original, encoding="utf-8")
            rows.append((name, "survived" if passed else "killed", "" if passed else detail))
            print(f"{name}: {rows[-1][1]}", file=sys.stderr)

    width = max(len(name) for name, _, _ in rows)
    print(f"{'mutant':<{width}}  {'verdict':<11}  first failure")
    for name, verdict, detail in rows:
        print(f"{name:<{width}}  {verdict:<11}  {detail}")
    killed = sum(verdict == "killed" for _, verdict, _ in rows)
    print(f"{killed} of {len(rows)} killed")
    return 0 if killed == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
