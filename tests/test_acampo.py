"""The family constructors against a third route: A'Campo's formula.

``from_quasihomogeneous`` turns each branch y^a = x^b into delta and I,
from which the fibre graph and the closed form both compute chi(F).
A'Campo's formula on the toric resolution reads only the exponents, so a
wrong delta or I in the constructor shows up here even where the two
routes inside the package agree with each other.
"""

import json
import random
from math import gcd

from milnor_lab.cli import main
from oracles import acampo_chi

SPECS = 2400  # 800 of each kind


def _slope(rng):
    while True:
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        if gcd(a, b) == 1:
            return a, b


def _branches(rng, mixed):
    """1-5 branches (a, b, m) with m <= 6: one slope for all, or each its own."""
    count = rng.randint(1, 5)
    if mixed:
        return [(*_slope(rng), rng.randint(1, 6)) for _ in range(count)]
    a, b = _slope(rng)
    return [(a, b, rng.randint(1, 6)) for _ in range(count)]


def _specs():
    """(curve-spec, its branches (a, b, m) with the power applied), seeded."""
    rng = random.Random(16)
    for n in range(SPECS):
        branches = _branches(rng, mixed=n % 3 == 1)
        spec = {"family": "quasihomogeneous", "branches": [
            {"a": a, "b": b, "multiplicity": m} for a, b, m in branches
        ]}
        if n % 3 == 2:  # a power of a one-slope or a mixed-slope germ
            e = rng.randint(2, 3)
            spec = {"family": "power", "base": spec, "exponent": e}
            branches = [(a, b, m * e) for a, b, m in branches]
        yield json.dumps(spec), branches


def test_analyze_chi_and_b1_match_acampo(capsys):
    for spec, branches in _specs():
        assert main(["analyze", spec]) == 0, spec
        fibre = json.loads(capsys.readouterr().out)["fibre"]
        chi = acampo_chi(branches)
        d = gcd(*(m for _, _, m in branches))
        assert (fibre["chi"], fibre["b1"]) == (chi, d - chi), spec
