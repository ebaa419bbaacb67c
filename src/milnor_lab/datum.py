"""Equisingularity datums: validation, parsing, standard families, corpora.

A plane curve germ f = f_1^{m_1} ... f_r^{m_r} enters the tool as pure
combinatorics: per branch a multiplicity m_i and a delta invariant
delta_i (the number of self double points of the reduced branch in a
generic deformation), plus the symmetric matrix I of pairwise
intersection multiplicities.  Nothing here ever factors a polynomial.

Curve-spec documents are UTF-8 JSON.  Direct form::

    {"branches": [{"label": "b1", "multiplicity": 2, "delta": 1}, ...],
     "intersections": [[0, 3], [3, 0]]}

``label`` is optional.  Family forms expand to the direct form:

    {"family": "monomial", "p": 2, "q": 3}
    {"family": "power", "base": <spec>, "exponent": 2}
    {"family": "quasihomogeneous", "branches": [{"a": 2, "b": 3, "multiplicity": 1}, ...]}
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass
from math import gcd

from .errors import CurveSpecError, ValidationError


@dataclass(frozen=True)
class Branch:
    multiplicity: int
    delta: int
    label: str | None = None


@dataclass(frozen=True)
class EquisingularDatum:
    branches: tuple[Branch, ...]
    intersections: tuple[tuple[int, ...], ...]

    @property
    def r(self) -> int:
        return len(self.branches)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(b.multiplicity for b in self.branches)

    @property
    def deltas(self) -> tuple[int, ...]:
        return tuple(b.delta for b in self.branches)

    def __post_init__(self):
        # branches and rows as tuples, so that every datum hashes and compares
        # by value; tuple() of a tuple is the tuple itself
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "intersections", tuple(map(tuple, self.intersections)))
        # the one check of a datum: no invalid datum object is ever made
        violations = validate(self)
        if violations:
            raise ValidationError(violations)

    def __getstate__(self):
        # a datum pickles as its two fields, not the graph kept on it;
        # unpickling skips __post_init__, and only a built datum is pickled
        return {"branches": self.branches, "intersections": self.intersections}


@dataclass(frozen=True)
class QuasiHomBranchSpec:
    """One branch y^a = x^b with gcd(a, b) = 1, raised to ``multiplicity``."""

    a: int
    b: int
    multiplicity: int


@dataclass(frozen=True)
class CorpusBounds:
    max_branches: int
    max_multiplicity: int
    max_delta: int
    max_intersection: int


def make_datum(branch_data, intersections) -> EquisingularDatum:
    """Build a datum from (m, delta) or (m, delta, label) tuples and a matrix."""
    branches = []
    for item in branch_data:
        if len(item) == 2:
            m, d = item
            branches.append(Branch(m, d))
        else:
            m, d, label = item
            branches.append(Branch(m, d, label))
    return EquisingularDatum(branches, intersections)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(datum: EquisingularDatum) -> list[str]:
    """Return the list of violated invariants (empty means the datum is ok)."""
    violations = []
    r = datum.r
    if r < 1:
        violations.append("at least one branch required")
    for n, b in enumerate(datum.branches, start=1):
        if type(b.multiplicity) is not int or b.multiplicity < 1:
            violations.append(f"branch {n}: multiplicity must be an integer >= 1")
        if type(b.delta) is not int or b.delta < 0:
            violations.append(f"branch {n}: delta must be an integer >= 0")
    mat = datum.intersections
    if len(mat) != r or any(len(row) != r for row in mat):
        violations.append(f"intersections must be a {r}x{r} matrix")
        return violations
    for i in range(r):
        for j in range(r):
            v = mat[i][j]
            if type(v) is not int or v < 0:
                violations.append(f"I[{i + 1}][{j + 1}] must be a non-negative integer")
    for i in range(r):
        if mat[i][i] != 0:
            violations.append(f"I[{i + 1}][{i + 1}] must be 0 (diagonal unused)")
        for j in range(i + 1, r):
            if mat[i][j] != mat[j][i]:
                violations.append(f"symmetry: I[{i + 1}][{j + 1}] != I[{j + 1}][{i + 1}]")
            elif type(mat[i][j]) is int and mat[i][j] < 1:
                violations.append(
                    f"I[{i + 1}][{j + 1}] >= 1 required (distinct germs through the origin meet)"
                )
    return violations


# ---------------------------------------------------------------------------
# standard families
# ---------------------------------------------------------------------------

def from_monomial(p: int, q: int) -> EquisingularDatum:
    """Datum of x^p y^q: two smooth branches meeting once."""
    if p < 1 or q < 1:
        raise CurveSpecError("monomial exponents must be >= 1")
    return make_datum([(p, 0), (q, 0)], [[0, 1], [1, 0]])


def from_power(base: EquisingularDatum, e: int) -> EquisingularDatum:
    """Datum of f^e: same branches and intersections, multiplicities scaled by e."""
    if e < 1:
        raise CurveSpecError("power exponent must be >= 1")
    branches = tuple(
        Branch(b.multiplicity * e, b.delta, b.label) for b in base.branches
    )
    return EquisingularDatum(branches, base.intersections)


def from_quasihomogeneous(specs: list[QuasiHomBranchSpec]) -> EquisingularDatum:
    """Datum for a product of quasi-homogeneous branches y^a_i = x^b_i.

    delta_i = (a_i - 1)(b_i - 1)/2 and I_ij = min(a_i b_j, a_j b_i); two
    branches with the same (a, b) are read as distinct generic-coefficient
    copies, which meet with multiplicity a_i b_i.
    """
    if not specs:
        raise CurveSpecError("at least one quasi-homogeneous branch required")
    for s in specs:
        if s.a < 1 or s.b < 1 or s.multiplicity < 1:
            raise CurveSpecError("quasi-homogeneous parameters must be >= 1")
        if gcd(s.a, s.b) != 1:
            raise CurveSpecError(f"({s.a},{s.b}) not coprime")
    r = len(specs)
    branches = [
        (s.multiplicity, (s.a - 1) * (s.b - 1) // 2) for s in specs
    ]
    matrix = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            si, sj = specs[i], specs[j]
            if (si.a, si.b) == (sj.a, sj.b):
                v = si.a * si.b
            else:
                v = min(si.a * sj.b, sj.a * si.b)
            matrix[i][j] = matrix[j][i] = v
    return make_datum(branches, matrix)


# ---------------------------------------------------------------------------
# curve-spec (de)serialization
# ---------------------------------------------------------------------------

def serialize_datum(datum: EquisingularDatum) -> dict:
    """Direct-form JSON object for a datum (labels included only when set)."""
    branches = []
    for b in datum.branches:
        entry = {}
        if b.label is not None:
            entry["label"] = b.label
        entry["multiplicity"] = b.multiplicity
        entry["delta"] = b.delta
        branches.append(entry)
    return {
        "branches": branches,
        "intersections": [list(row) for row in datum.intersections],
    }


def datum_to_json(datum: EquisingularDatum) -> str:
    return json.dumps(serialize_datum(datum), separators=(",", ":"))


def _expect_int(obj, key, where):
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise CurveSpecError(f"{where}: '{key}' must be an integer")
    return v


def expand_spec(obj) -> EquisingularDatum:
    """Expand a decoded curve-spec object (direct or family form) to a datum."""
    if not isinstance(obj, dict):
        raise CurveSpecError("curve-spec must be a JSON object")
    if "family" in obj:
        family = obj["family"]
        if family == "monomial":
            _check_keys(obj, {"family", "p", "q"}, "monomial family")
            return from_monomial(_expect_int(obj, "p", "monomial"),
                                 _expect_int(obj, "q", "monomial"))
        if family == "power":
            _check_keys(obj, {"family", "base", "exponent"}, "power family")
            base = expand_spec(obj.get("base"))
            return from_power(base, _expect_int(obj, "exponent", "power"))
        if family == "quasihomogeneous":
            _check_keys(obj, {"family", "branches"}, "quasihomogeneous family")
            raw = obj.get("branches")
            if not isinstance(raw, list) or not raw:
                raise CurveSpecError("quasihomogeneous: 'branches' must be a non-empty list")
            specs = []
            for n, item in enumerate(raw, start=1):
                if not isinstance(item, dict):
                    raise CurveSpecError(f"quasihomogeneous branch {n}: must be an object")
                _check_keys(item, {"a", "b", "multiplicity"}, f"quasihomogeneous branch {n}")
                specs.append(QuasiHomBranchSpec(
                    _expect_int(item, "a", f"branch {n}"),
                    _expect_int(item, "b", f"branch {n}"),
                    _expect_int(item, "multiplicity", f"branch {n}"),
                ))
            return from_quasihomogeneous(specs)
        raise CurveSpecError(f"unknown family {family!r}")

    _check_keys(obj, {"branches", "intersections"})
    raw_branches = obj.get("branches")
    raw_matrix = obj.get("intersections")
    if not isinstance(raw_branches, list) or not raw_branches:
        raise CurveSpecError("'branches' must be a non-empty list")
    if not isinstance(raw_matrix, list):
        raise CurveSpecError("'intersections' must be a matrix (list of rows)")
    branches = []
    for n, item in enumerate(raw_branches, start=1):
        if not isinstance(item, dict):
            raise CurveSpecError(f"branch {n}: must be an object")
        _check_keys(item, {"label", "multiplicity", "delta"}, f"branch {n}",
                    required={"multiplicity", "delta"})
        label = item.get("label")
        if label is not None and not isinstance(label, str):
            raise CurveSpecError(f"branch {n}: 'label' must be a string")
        if label is not None and any("\ud800" <= c <= "\udfff" for c in label):
            raise CurveSpecError(f"branch {n}: 'label' does not encode as UTF-8")
        branches.append(Branch(
            _expect_int(item, "multiplicity", f"branch {n}"),
            _expect_int(item, "delta", f"branch {n}"),
            label,
        ))
    rows = []
    for row in raw_matrix:
        if not isinstance(row, list):
            raise CurveSpecError("'intersections' rows must be lists")
        rows.append(tuple(row))
    return EquisingularDatum(tuple(branches), tuple(rows))


def _check_keys(obj, allowed, where="curve-spec", required=None):
    extra = set(obj) - allowed
    if extra:
        raise CurveSpecError(f"{where}: unknown keys {sorted(extra)}")
    missing = (required if required is not None else allowed - {"label"}) - set(obj)
    if missing:
        raise CurveSpecError(f"{where}: missing keys {sorted(missing)}")


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise CurveSpecError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _decode(text: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise CurveSpecError(
            f"syntax error at line {exc.lineno} column {exc.colno} (char {exc.pos}): {exc.msg}"
        ) from exc
    except ValueError as exc:
        # the one other ValueError: an integer literal past the interpreter's limit
        raise CurveSpecError(
            f"integer longer than {sys.get_int_max_str_digits()} digits"
        ) from exc


def parse_datum(text: str) -> EquisingularDatum:
    """Parse a curve-spec document; raises CurveSpecError with position on bad JSON."""
    try:
        return expand_spec(_decode(text))
    except RecursionError as exc:
        raise CurveSpecError("curve-spec is nested too deeply") from exc


# ---------------------------------------------------------------------------
# corpus enumeration
# ---------------------------------------------------------------------------

def _stabilizer_perms(branch_types):
    """Permutations of positions preserving the sorted branch-type tuple:
    one permutation of each run of equal types, runs in order."""
    runs = itertools.groupby(range(len(branch_types)), key=branch_types.__getitem__)
    for combo in itertools.product(*(itertools.permutations(run) for _, run in runs)):
        yield tuple(itertools.chain.from_iterable(combo))


def enumerate_corpus(bounds: CorpusBounds):
    """Yield every valid datum within the bounds, one per isomorphism class.

    Canonical order: branch count r ascending; branch types (m, delta)
    as a non-decreasing tuple, ascending lexicographically; then the upper
    triangle of I row-major, ascending.  Of each class only the
    lexicographically least labelled representative is yielded, so the
    stream is deterministic and free of branch-permutation duplicates.
    The datums of one branch-type tuple (a block) share one ``branches``.
    """
    if bounds.max_branches < 1 or bounds.max_multiplicity < 1:
        raise CurveSpecError("corpus bounds: max_branches and max_multiplicity must be >= 1")
    if bounds.max_delta < 0 or bounds.max_intersection < 1:
        raise CurveSpecError("corpus bounds: max_delta >= 0 and max_intersection >= 1 required")
    pair_types = [
        (m, d)
        for m in range(1, bounds.max_multiplicity + 1)
        for d in range(0, bounds.max_delta + 1)
    ]
    for r in range(1, bounds.max_branches + 1):
        n_edges = r * (r - 1) // 2
        for branch_types in itertools.combinations_with_replacement(pair_types, r):
            branches = tuple(Branch(m, d) for m, d in branch_types)  # one per block
            stab = [p for p in _stabilizer_perms(branch_types) if p != tuple(range(r))]
            for ivec in itertools.product(
                range(1, bounds.max_intersection + 1), repeat=n_edges
            ):
                matrix = [[0] * r for _ in range(r)]
                pos = 0
                for i in range(r):
                    for j in range(i + 1, r):
                        matrix[i][j] = matrix[j][i] = ivec[pos]
                        pos += 1
                if stab and not _is_canonical(matrix, ivec, stab, r):
                    continue
                yield EquisingularDatum(branches, matrix)


def _is_canonical(matrix, ivec, stab, r):
    # the candidate is canonical iff no branch-type-preserving permutation
    # produces a lexicographically smaller upper triangle
    for perm in stab:
        permuted = tuple(
            matrix[perm[i]][perm[j]] for i in range(r) for j in range(i + 1, r)
        )
        if permuted < ivec:
            return False
    return True
