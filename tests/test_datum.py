"""Datum validation, curve-spec parsing, families, corpus enumeration."""

import itertools
import json
import random

import pytest

import milnor_lab
from milnor_lab import (
    CorpusBounds,
    CurveSpecError,
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
from oracles import canonical_key


# -- validation ---------------------------------------------------------------

def test_validate_single_branch_ok():
    assert validate(make_datum([(2, 1)], [[0]])) == []


def test_validate_zero_intersection_rejected():
    violations = validate(make_datum([(1, 0), (1, 0)], [[0, 0], [0, 0]]))
    assert any(">= 1" in v for v in violations)


def test_validate_asymmetric_rejected():
    violations = validate(make_datum([(1, 0), (2, 0)], [[0, 1], [2, 0]]))
    assert any("symmetry" in v for v in violations)


def test_validate_bad_branch_values():
    violations = validate(make_datum([(0, -1)], [[0]]))
    assert len(violations) == 2


def test_validate_bad_shape():
    violations = validate(make_datum([(1, 0), (1, 0)], [[0, 1]]))
    assert any("matrix" in v for v in violations)


def test_validate_nonzero_diagonal():
    violations = validate(make_datum([(1, 0)], [[2]]))
    assert any("diagonal" in v for v in violations)


# every public function that computes from a datum; the serializers,
# canonical_key, double_point_count and the field predicates only read fields
_DATUM_CONSUMERS = {
    "build_network": milnor_lab.build_network,
    "build_fibre_graph": milnor_lab.build_fibre_graph,
    "analyse": milnor_lab.fibre.analyse,
    "euler_characteristic_closed": milnor_lab.euler_characteristic_closed,
    "fibre_summary": milnor_lab.fibre_summary,
    "component_monodromy": milnor_lab.component_monodromy,
    "divide_by_gcd": milnor_lab.divide_by_gcd,
    "transversal_data": milnor_lab.transversal_data,
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
def test_public_functions_reject_invalid_datum(name):
    with pytest.raises(ValidationError):
        _DATUM_CONSUMERS[name](make_datum([(0, -1)], [[0]]))


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
