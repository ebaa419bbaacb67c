"""Invariants of the non-isolated singularity: transversal fibres, the
beta invariant, vertical monodromies, boundary components, verdicts.

A branch with multiplicity m >= 2 contributes a 1-dimensional piece of
the singular set; the transversal slice there sees x^m, whose Milnor
fibre is m points and whose Milnor number is m - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .datum import EquisingularDatum
from .errors import InternalInconsistencyError, MilnorLabError
from .fibre import analyse, fibre_summary, memoized
from .intlinalg import CokernelPresentation, SparseColumns, cokernel
from .network import double_point_count


class ReducedDatumError(MilnorLabError):
    """Raised for operations that need a 1-dimensional singular set."""


@dataclass(frozen=True)
class TransversalBranch:
    branch: int       # 0-based index
    fibre_size: int   # m_i points
    mu_perp: int      # m_i - 1


@dataclass(frozen=True)
class TransversalData:
    branches: tuple[TransversalBranch, ...]
    total_points: int


@dataclass(frozen=True)
class UpperBoundVerdict:
    # The report's "upper_bound" section is asdict() of this: field order is key order.
    hypothesis: bool
    cokernels_free: bool | None
    shifts_identity: bool | None
    conclusion_holds: bool | None


_NOT_ATTAINED = UpperBoundVerdict(False, None, None, None)


@dataclass(frozen=True)
class BetaReport:
    beta: int
    b1: int
    b0: int
    total_transversal_points: int
    singular_branch_count: int
    c1_beta_zero: bool
    c2_chi_form: bool
    c3_homology_form: bool
    verdict_bobadilla: bool
    bound_attained: bool  # the upper-bound hypothesis: b_0(F) - 1 = sum of the mu_perp

    def upper_bound(self, boundary) -> UpperBoundVerdict:
        """When rank H_0(F) attains its bound, every cokernel of A_i - I must
        be free and every shift k_i must vanish mod m_i.  ``boundary`` returns
        the datum's boundary entries and is called only where the bound holds."""
        if not self.bound_attained:
            return _NOT_ATTAINED  # the hypothesis fails: no boundary to build
        # every cokernel is free: boundary2_components raises on any torsion
        identity = all(e.shift == 0 for e in boundary())
        return UpperBoundVerdict(True, True, identity, identity)


@dataclass(frozen=True, slots=True)
class Boundary2Branch:
    branch: int
    shift: int
    components: int
    coker: CokernelPresentation
    chain_ok: bool


@dataclass(frozen=True)
class XrVerdict:
    is_power_of_smooth: bool   # r = 1 and delta = 0
    b1_zero: bool
    exponent: int | None


def singular_branches(datum: EquisingularDatum) -> list[int]:
    return [i for i, b in enumerate(datum.branches) if b.multiplicity >= 2]


def is_power_of_smooth(datum: EquisingularDatum) -> bool:
    """The structural form of f ~ x^r: one branch, and it is smooth (delta 0)."""
    return datum.r == 1 and datum.branches[0].delta == 0


def transversal_data(datum: EquisingularDatum) -> TransversalData:
    """Transversal Milnor fibres along the singular branches (m_i >= 2 only)."""
    entries = tuple(
        TransversalBranch(i, datum.branches[i].multiplicity,
                          datum.branches[i].multiplicity - 1)
        for i in singular_branches(datum)
    )
    return TransversalData(entries, sum(e.fibre_size for e in entries))


def beta(datum: EquisingularDatum) -> BetaReport:
    """Rank of the relative homology H_1(F, transversal fibres).

    Computed as b_1(F) - b_0(F) + sum of transversal fibre sizes; the
    relative H_0 vanishes because every component of F meets transversal
    points of every singular branch.  Unreduced homology throughout.
    """
    trans = transversal_data(datum)
    if not trans.branches:
        raise ReducedDatumError("beta undefined: isolated singularity")
    summary = fibre_summary(datum)
    return beta_report(summary.d, summary.b1, summary.chi,
                       [e.fibre_size for e in trans.branches], is_power_of_smooth(datum))


def beta_report(b0: int, b1: int, chi: int, fibre_sizes, verdict: bool) -> BetaReport:
    """The beta report of a fibre with these Betti numbers and chi, over
    transversal fibres of ``fibre_sizes`` points, with the structural verdict."""
    points = sum(fibre_sizes)
    value = b1 - b0 + points
    mu_perp_sum = points - len(fibre_sizes)
    attained = b0 - 1 == mu_perp_sum
    return BetaReport(
        beta=value,
        b1=b1,
        b0=b0,
        total_transversal_points=points,
        singular_branch_count=len(fibre_sizes),
        c1_beta_zero=value == 0,
        c2_chi_form=chi == 1 - mu_perp_sum,
        c3_homology_form=b1 == 0 and attained,
        verdict_bobadilla=verdict,
        bound_attained=attained,
    )


def vertical_shift(datum: EquisingularDatum, i: int) -> int:
    """The shift k_i of the m_i transversal points along branch i.

    Moving the transversal slice once around branch i, the sheets are the
    m_i-th roots of eps divided by the product of the other branches'
    factors; that product winds sum_{j != i} m_j I_ij times, so the points
    are cyclically shifted by that count mod m_i.  The branch's own factor
    adds no winding: sheets are labelled by the value of the reduced
    factor, which transports constantly.  Orientation is fixed as +sum;
    every verdict downstream depends only on gcd(m_i, k_i) and on k_i = 0,
    both orientation-independent.
    """
    m = datum.branches[i].multiplicity
    if m < 2:
        raise ReducedDatumError(f"branch {i + 1} is not singular (multiplicity 1)")
    winding = sum(
        datum.branches[j].multiplicity * datum.intersections[i][j]
        for j in range(datum.r) if j != i
    )
    return winding % m


def vertical_shifts(datum: EquisingularDatum, branches) -> tuple[int, ...]:
    """The shift k_i of each of the given singular branches."""
    return tuple(vertical_shift(datum, i) for i in branches)


def shift_minus_identity(m: int, k: int) -> SparseColumns:
    """A - I for the shift a -> a + k of m sheets; its cokernel counts the orbits.

    Column a is e_{(a+k) mod m} - e_a, read off the permutation itself and
    not from its orbits, so the cokernel route stays independent of gcd.
    """
    return SparseColumns(m, tuple(
        {} if (a + k) % m == a else {(a + k) % m: 1, a: -1} for a in range(m)
    ))


def boundary2_components(datum: EquisingularDatum) -> tuple[Boundary2Branch, ...]:
    """Components of the fibre boundary over the singular set, per branch.

    Two routes per branch: gcd(m_i, k_i) directly, and the cokernel of
    (A_i - I) by exact integer elimination; they must agree with no
    torsion.  chain_ok additionally checks, on the fibre graph, that the
    residue classes of branch-i sheets mod gcd(m_i, k_i) map consistently
    onto the fibre components, so the composed boundary map is onto.
    """
    graph = analyse(datum)
    sing = singular_branches(datum)
    if not sing:
        raise ReducedDatumError("boundary components undefined: isolated singularity")
    # the summary checks chi and d
    return boundary_entries(graph.labels, graph.summary.d, graph.shift_cycles,
                            sing, vertical_shifts(datum, sing))


def boundary_entries(labels, n_components, cycles, branches, shifts,
                     memo: dict | None = None) -> tuple[Boundary2Branch, ...]:
    """The boundary entry of each singular branch i with shift k_i, on a fibre
    graph's component ``labels`` and shift ``cycles``: all they read of a datum.
    A sweep's ``memo`` reduces each distinct ``(m_i, k_i)`` once."""
    entries = []
    for i, k in zip(branches, shifts):
        off, m = cycles[i]  # the sheets of branch i
        g = gcd(m, k)
        pres = memoized(memo, (m, k), lambda: cokernel(shift_minus_identity(m, k)))
        if pres.free_rank != g or pres.torsion:
            raise InternalInconsistencyError(
                f"branch {i + 1}: cokernel route gives Z^{pres.free_rank} "
                f"plus torsion {list(pres.torsion)}, orbit route gives Z^{g}"
            )
        comps = labels[off:off + m]
        chain_ok = (
            g % n_components == 0
            and all(comps[a] == comps[a % g] for a in range(g, m))
            and set(comps[:g]) == set(range(n_components))
        )
        entries.append(Boundary2Branch(i, k, g, pres, chain_ok))
    return tuple(entries)


def check_upper_bound(datum: EquisingularDatum) -> UpperBoundVerdict:
    """The upper-bound verdict of a singular datum; builds its boundary only
    where the hypothesis holds."""
    return beta(datum).upper_bound(lambda: boundary2_components(datum))


def classify_xr(datum: EquisingularDatum) -> XrVerdict:
    """Is the germ a power of a smooth branch?  Two agreeing verdicts.

    Structural: one branch with delta 0.  Homological: b_1(F) = 0.  A
    disagreement would contradict the classification theorem in-model and
    is raised as an internal inconsistency.
    """
    summary = fibre_summary(datum)
    structural = is_power_of_smooth(datum)
    homological = summary.b1 == 0
    if structural != homological:
        raise InternalInconsistencyError(
            f"x^r classification routes disagree: structural {structural}, "
            f"b1 {summary.b1}"
        )
    exponent = datum.branches[0].multiplicity if structural else None
    return XrVerdict(structural, homological, exponent)


def mu_reduced(datum: EquisingularDatum) -> int:
    """Milnor number of a reduced curve: 2 * delta_total - r + 1 (oracle)."""
    if any(b.multiplicity != 1 for b in datum.branches):
        raise ValueError("mu_reduced needs a reduced datum (all multiplicities 1)")
    return 2 * double_point_count(datum) - datum.r + 1
