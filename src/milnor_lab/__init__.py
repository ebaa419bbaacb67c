"""Exact combinatorial topology of Milnor fibres of non-reduced plane curves.

The equisingularity datum (multiplicities, branch deltas, intersection
multiplicities) determines the fibre up to homotopy; everything here is
integer-exact and cross-validated by independent computation routes.
"""

import types as _types

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
    UpperBoundVerdict,
    XrVerdict,
    beta,
    boundary2_components,
    check_upper_bound,
    classify_xr,
    mu_reduced,
    vertical_shift,
)
from .network import NetworkNode, build_network, double_point_count
from .report import build_analysis, report_to_json
from .sweep import DEFAULT_PROPERTIES, SweepResult, Violation, run_sweep

# the public names are the ones imported above, submodules left out
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
