"""Exact combinatorial topology of Milnor fibres of non-reduced plane curves.

The equisingularity datum (multiplicities, branch deltas, intersection
multiplicities) determines the fibre up to homotopy; everything here is
integer-exact and cross-validated by independent computation routes.
"""

from ._version import __version__
from .datum import (
    Branch,
    CorpusBounds,
    EquisingularDatum,
    QuasiHomBranchSpec,
    datum_to_json,
    enumerate_corpus,
    from_monomial,
    from_power,
    from_quasihomogeneous,
    make_datum,
    parse_datum,
    serialize_datum,
    validate,
)
from .errors import (
    CurveSpecError,
    InternalInconsistencyError,
    MilnorLabError,
    ValidationError,
)
from .fibre import (
    ComponentMonodromy,
    FibreGraph,
    FibreSummary,
    build_fibre_graph,
    component_monodromy,
    divide_by_gcd,
    euler_characteristic_closed,
    fibre_summary,
)
from .intlinalg import (
    CokernelPresentation,
    IntMatrix,
    SmithDecomposition,
    cokernel,
    smith_normal_form,
)
from .invariants import (
    BetaReport,
    ReducedDatumError,
    TransversalData,
    UpperBoundVerdict,
    XrVerdict,
    beta,
    boundary2_components,
    check_upper_bound,
    classify_xr,
    mu_reduced,
    transversal_data,
    vertical_shift,
)
from .network import NetworkNode, build_network, double_point_count
from .report import build_analysis, report_to_json
from .sweep import DEFAULT_PROPERTIES, SweepResult, Violation, run_sweep

__all__ = [
    "__version__",
    "Branch",
    "CorpusBounds",
    "EquisingularDatum",
    "QuasiHomBranchSpec",
    "datum_to_json",
    "enumerate_corpus",
    "from_monomial",
    "from_power",
    "from_quasihomogeneous",
    "make_datum",
    "parse_datum",
    "serialize_datum",
    "validate",
    "CurveSpecError",
    "InternalInconsistencyError",
    "MilnorLabError",
    "ValidationError",
    "ComponentMonodromy",
    "FibreGraph",
    "FibreSummary",
    "build_fibre_graph",
    "component_monodromy",
    "divide_by_gcd",
    "euler_characteristic_closed",
    "fibre_summary",
    "CokernelPresentation",
    "IntMatrix",
    "SmithDecomposition",
    "cokernel",
    "smith_normal_form",
    "BetaReport",
    "ReducedDatumError",
    "TransversalData",
    "UpperBoundVerdict",
    "XrVerdict",
    "beta",
    "boundary2_components",
    "check_upper_bound",
    "classify_xr",
    "mu_reduced",
    "transversal_data",
    "vertical_shift",
    "NetworkNode",
    "build_network",
    "double_point_count",
    "build_analysis",
    "report_to_json",
    "DEFAULT_PROPERTIES",
    "SweepResult",
    "Violation",
    "run_sweep",
]
