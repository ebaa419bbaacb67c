"""Datum validation, curve-spec parsing, families, corpus enumeration."""

import dataclasses
import itertools
import json
import random

import pytest

import milnor_lab
from milnor_lab import (
    CorpusBounds,
    CurveSpecError,
    EquisingularDatum,
    QuasiHomBranchSpec,
    ValidationError,
    datum_to_json,
    enumerate_corpus,
    from_monomial,
    from_power,
    from_quasihomogeneous,
    make_datum,
    mu_reduced,
    parse_datum,
    serialize_datum,
    validate,
)
from milnor_lab.datum import expand_spec
from oracles import canonical_key


# -- validation ---------------------------------------------------------------

def test_validate_single_branch_ok():
    assert validate(make_datum([(2, 1)], [[0]])) == []


def _violations(branch_data, intersections) -> list[str]:
    """The violations that building the datum raises."""
    with pytest.raises(ValidationError) as info:
        make_datum(branch_data, intersections)
    return info.value.violations


def test_validate_zero_intersection_rejected():
    violations = _violations([(1, 0), (1, 0)], [[0, 0], [0, 0]])
    assert any(">= 1" in v for v in violations)


def test_validate_asymmetric_rejected():
    violations = _violations([(1, 0), (2, 0)], [[0, 1], [2, 0]])
    assert any("symmetry" in v for v in violations)


def test_validate_bad_branch_values():
    violations = _violations([(0, -1)], [[0]])
    assert len(violations) == 2


def test_validate_bad_shape():
    violations = _violations([(1, 0), (1, 0)], [[0, 1]])
    assert any("matrix" in v for v in violations)


def test_validate_nonzero_diagonal():
    violations = _violations([(1, 0)], [[2]])
    assert any("diagonal" in v for v in violations)


def _counted_validations(monkeypatch) -> list:
    calls = []
    real = milnor_lab.datum.validate

    def counted(datum):
        calls.append(datum)
        return real(datum)

    monkeypatch.setattr(milnor_lab.datum, "validate", counted)
    return calls


_NODE = make_datum([(1, 0), (1, 0)], [[0, 1], [1, 0]])
_UNMET = ((0, 0), (0, 0))  # two distinct germs that do not meet: invalid

# every way to build a datum, each handed the same invalid intersections
_BUILDERS = {
    "EquisingularDatum": lambda: EquisingularDatum(_NODE.branches, _UNMET),
    "make_datum": lambda: make_datum([(1, 0), (1, 0)], _UNMET),
    "dataclasses.replace": lambda: dataclasses.replace(_NODE, intersections=_UNMET),
    "expand_spec": lambda: expand_spec({
        "branches": [{"multiplicity": 1, "delta": 0}, {"multiplicity": 1, "delta": 0}],
        "intersections": [[0, 0], [0, 0]],
    }),
}


@pytest.mark.parametrize("route", sorted(_BUILDERS))
def test_invalid_datum_cannot_be_built(route, monkeypatch):
    calls = _counted_validations(monkeypatch)
    with pytest.raises(ValidationError) as info:
        _BUILDERS[route]()
    assert info.value.violations == [
        "I[1][2] >= 1 required (distinct germs through the origin meet)"
    ]
    assert len(calls) == 1


_SINGULAR = make_datum([(2, 1), (3, 0)], [[0, 2], [2, 0]])  # gcd 1, branch 1 singular

# every public function that computes from a datum, with a datum it accepts;
# the serializers, canonical_key, double_point_count and the field
# predicates only read fields
_DATUM_CONSUMERS = {
    "build_network": milnor_lab.build_network,
    "build_fibre_graph": milnor_lab.build_fibre_graph,
    "analyse": milnor_lab.fibre.analyse,
    "euler_characteristic_closed": milnor_lab.euler_characteristic_closed,
    "fibre_summary": milnor_lab.fibre_summary,
    "component_monodromy": milnor_lab.component_monodromy,
    "divide_by_gcd": milnor_lab.divide_by_gcd,
    "beta": milnor_lab.beta,
    "vertical_shift": lambda datum: milnor_lab.vertical_shift(datum, 0),
    "boundary2_components": milnor_lab.boundary2_components,
    "check_upper_bound": milnor_lab.check_upper_bound,
    "classify_xr": milnor_lab.classify_xr,
    "mu_reduced": milnor_lab.mu_reduced,
    "build_analysis": milnor_lab.build_analysis,
    "from_power": lambda datum: from_power(datum, 2),
}


@pytest.mark.parametrize("name", sorted(_DATUM_CONSUMERS))
def test_public_functions_reject_invalid_datum(name, monkeypatch):
    # the datum is rejected where it is built, so no function is ever handed
    # an invalid one; the function checks none of the datums it is handed
    with pytest.raises(ValidationError):
        make_datum([(0, -1)], [[0]])
    calls = _counted_validations(monkeypatch)
    _DATUM_CONSUMERS[name](_NODE if name == "mu_reduced" else _SINGULAR)  # reduced only
    # only from_power makes a datum (f^2 of a gcd-1 datum)
    assert len(calls) == (name == "from_power")


_JSON_SCALARS = (None, True, False, 0, 1, 2, 5, -1, -3, 1.0, 2.5, "1", "", "x")


def _draw(rng, low, high):
    """Mostly an integer in [low, high], else any JSON-like scalar."""
    if rng.random() < 0.92:
        return rng.randint(low, high)
    return rng.choice(_JSON_SCALARS)


def _draw_spec(rng) -> dict:
    """A direct-form curve-spec with r <= 4: mostly integers where they
    belong, with a few wrong kinds, ragged or asymmetric rows and a non-zero
    diagonal or zero off-diagonal mixed in."""
    r = rng.randint(0, 4) if rng.random() < 0.05 else rng.randint(1, 4)
    branches = [{"multiplicity": _draw(rng, 1, 5), "delta": _draw(rng, 0, 3)}
                for _ in range(r)]
    if r and rng.random() < 0.3:
        branches[0]["label"] = rng.choice(("b1", "", "ü"))
    matrix = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            matrix[i][j] = matrix[j][i] = rng.randint(1, 4)
    for _ in range(rng.choice((0, 0, 0, 1, 2)) if r else 0):
        i, j = rng.randrange(r), rng.randrange(r)
        matrix[i][j] = _draw(rng, 0, 4)  # asymmetric, diagonal or zero cells
        if rng.random() < 0.5:
            matrix[j][i] = matrix[i][j]  # symmetric, so only the value is wrong
    if r and rng.random() < 0.1:
        del matrix[rng.randrange(r)][-1]  # ragged
    if rng.random() < 0.05:
        matrix.append([0] * r)  # too many rows
    return {"branches": branches, "intersections": matrix}


def _is_valid(datum) -> bool:
    """Independent of ``validate``: exact ints (no bool), m >= 1, delta >= 0,
    and a symmetric r x r matrix, 0 on the diagonal and >= 1 off it."""
    r = len(datum.branches)
    mat = datum.intersections
    return (
        r >= 1
        and all(type(b.multiplicity) is int and b.multiplicity >= 1
                and type(b.delta) is int and b.delta >= 0 for b in datum.branches)
        and len(mat) == r and all(len(row) == r for row in mat)
        and all(type(v) is int for row in mat for v in row)
        and all(mat[i][j] == mat[j][i] for i in range(r) for j in range(r))
        and all(mat[i][i] == 0 for i in range(r))
        and all(mat[i][j] >= 1 for i in range(r) for j in range(r) if i != j)
    )


def test_construction_fuzz_builds_only_valid_datums():
    rng = random.Random(20)
    outcomes = {"built": 0, "refused": 0}
    for _ in range(3000):
        spec = _draw_spec(rng)
        try:
            datum = expand_spec(spec)
        except CurveSpecError:  # ValidationError included
            outcomes["refused"] += 1
            continue
        assert _is_valid(datum), spec
        outcomes["built"] += 1
    # both outcomes are common, so neither side of the gate goes untested
    assert min(outcomes.values()) >= 500, outcomes


# -- families -----------------------------------------------------------------

@pytest.mark.parametrize("p,q", [(2, 3), (1, 1), (4, 6)])
def test_from_monomial(p, q):
    datum = from_monomial(p, q)
    assert datum.multiplicities == (p, q)
    assert datum.deltas == (0, 0)
    assert datum.intersections[0][1] == 1
    assert validate(datum) == []


def test_from_power_scales_multiplicities():
    cusp = make_datum([(1, 1)], [[0]])
    assert from_power(cusp, 2).multiplicities == (2,)
    assert from_power(cusp, 2).deltas == (1,)
    assert from_power(cusp, 1) == cusp
    node = make_datum([(1, 0), (1, 0)], [[0, 1], [1, 0]])
    assert from_power(node, 3).multiplicities == (3, 3)


def test_from_power_composes():
    base = make_datum([(2, 1), (3, 0)], [[0, 2], [2, 0]])
    assert from_power(from_power(base, 2), 3) == from_power(base, 6)


def test_quasihomogeneous_cusp_delta():
    # oracle: mu = 2*delta for an irreducible branch; mu(y^2 - x^3) = 2
    datum = from_quasihomogeneous([QuasiHomBranchSpec(2, 3, 1)])
    assert datum.deltas == (1,)
    assert mu_reduced(datum) == 2 * datum.deltas[0]


def test_quasihomogeneous_smooth_branch():
    datum = from_quasihomogeneous([QuasiHomBranchSpec(1, 1, 5)])
    assert datum.multiplicities == (5,)
    assert datum.deltas == (0,)


def test_quasihomogeneous_cusp_line_intersection():
    # order in t of substituting (t^2, t^3) into a generic line germ is 2
    datum = from_quasihomogeneous([
        QuasiHomBranchSpec(2, 3, 1), QuasiHomBranchSpec(1, 1, 1)
    ])
    assert datum.deltas == (1, 0)
    assert datum.intersections[0][1] == 2


def test_quasihomogeneous_equal_pairs():
    datum = from_quasihomogeneous([
        QuasiHomBranchSpec(2, 3, 1), QuasiHomBranchSpec(2, 3, 2)
    ])
    assert datum.intersections[0][1] == 6


def test_quasihomogeneous_non_coprime_rejected():
    with pytest.raises(CurveSpecError):
        from_quasihomogeneous([QuasiHomBranchSpec(2, 4, 1)])


def test_quasihomogeneous_always_valid():
    rng = random.Random(7)
    for _ in range(100):
        specs = []
        for _ in range(rng.randint(1, 4)):
            while True:
                a, b = rng.randint(1, 6), rng.randint(1, 6)
                if __import__("math").gcd(a, b) == 1:
                    break
            specs.append(QuasiHomBranchSpec(a, b, rng.randint(1, 4)))
        assert validate(from_quasihomogeneous(specs)) == []


# -- parsing ------------------------------------------------------------------

def test_parse_monomial_family():
    datum = parse_datum('{"family":"monomial","p":2,"q":3}')
    assert datum.multiplicities == (2, 3)
    assert datum.deltas == (0, 0)
    assert datum.intersections[0][1] == 1


def test_parse_power_family():
    text = json.dumps({
        "family": "power",
        "base": {"family": "quasihomogeneous",
                 "branches": [{"a": 2, "b": 3, "multiplicity": 1}]},
        "exponent": 2,
    })
    datum = parse_datum(text)
    assert datum.multiplicities == (2,)
    assert datum.deltas == (1,)


def test_parse_direct_round_trip():
    datum = make_datum([(1, 0, "a"), (2, 0, "b")], [[0, 3], [3, 0]])
    assert parse_datum(datum_to_json(datum)) == datum


def test_round_trip_without_labels():
    datum = make_datum([(4, 2), (2, 1)], [[0, 5], [5, 0]])
    assert parse_datum(json.dumps(serialize_datum(datum))) == datum


def test_parse_syntax_error_reports_position():
    with pytest.raises(CurveSpecError, match="line 1 column"):
        parse_datum('{"branches": [')


def test_parse_unknown_family():
    with pytest.raises(CurveSpecError, match="unknown family"):
        parse_datum('{"family":"spiral","p":1}')


def test_parse_semantic_error():
    with pytest.raises(CurveSpecError):
        parse_datum('{"branches":[{"multiplicity":1,"delta":0},'
                    '{"multiplicity":1,"delta":0}],"intersections":[[0,0],[0,0]]}')


def test_parse_unknown_keys_rejected():
    with pytest.raises(CurveSpecError, match="unknown keys"):
        parse_datum('{"branches":[{"multiplicity":1,"delta":0}],'
                    '"intersections":[[0]],"extra":1}')


# -- corpus enumeration ---------------------------------------------------------

def test_corpus_minimal_bounds():
    got = list(enumerate_corpus(CorpusBounds(1, 1, 1, 1)))
    assert got == [
        make_datum([(1, 0)], [[0]]),
        make_datum([(1, 1)], [[0]]),
    ]


def test_corpus_counts():
    assert len(list(enumerate_corpus(CorpusBounds(1, 2, 1, 1)))) == 4
    assert len(list(enumerate_corpus(CorpusBounds(2, 2, 0, 1)))) == 5


def _brute_force_count(bounds):
    """Independent oracle: enumerate labelled datums, dedup by canonical key."""
    pair_types = [
        (m, d)
        for m in range(1, bounds.max_multiplicity + 1)
        for d in range(0, bounds.max_delta + 1)
    ]
    seen = set()
    for r in range(1, bounds.max_branches + 1):
        for branch_types in itertools.product(pair_types, repeat=r):
            n_edges = r * (r - 1) // 2
            for ivec in itertools.product(
                range(1, bounds.max_intersection + 1), repeat=n_edges
            ):
                matrix = [[0] * r for _ in range(r)]
                pos = 0
                for i in range(r):
                    for j in range(i + 1, r):
                        matrix[i][j] = matrix[j][i] = ivec[pos]
                        pos += 1
                seen.add(canonical_key(make_datum(branch_types, matrix)))
    return len(seen)


@pytest.mark.parametrize("bounds", [
    CorpusBounds(2, 2, 0, 1),
    CorpusBounds(2, 2, 1, 2),
    CorpusBounds(3, 2, 0, 2),
    CorpusBounds(3, 3, 1, 2),
    CorpusBounds(4, 2, 0, 2),  # branch types a, a, b, b: a stabilizer S_2 x S_2
    CorpusBounds(4, 2, 1, 2),  # four types: all eight run structures of r = 4
])
def test_corpus_matches_brute_force(bounds):
    got = list(enumerate_corpus(bounds))
    assert len(got) == _brute_force_count(bounds)
    # no duplicates up to branch permutation; everything valid
    keys = [canonical_key(d) for d in got]
    assert len(set(keys)) == len(keys)
    assert all(validate(d) == [] for d in got)
    # the yielded representative is itself canonical
    for datum, key in zip(got, keys):
        branch_types, matrix = key
        assert tuple((b.multiplicity, b.delta) for b in datum.branches) == branch_types
        assert datum.intersections == matrix


def test_corpus_deterministic():
    bounds = CorpusBounds(3, 2, 1, 2)
    assert list(enumerate_corpus(bounds)) == list(enumerate_corpus(bounds))


def test_corpus_round_trip():
    for datum in enumerate_corpus(CorpusBounds(2, 2, 1, 2)):
        assert parse_datum(datum_to_json(datum)) == datum


def test_corpus_bad_bounds():
    with pytest.raises(CurveSpecError):
        list(enumerate_corpus(CorpusBounds(0, 1, 1, 1)))
    # max_delta = 0 is legitimate (delta-free corpora)
    assert len(list(enumerate_corpus(CorpusBounds(1, 1, 0, 1)))) == 1
