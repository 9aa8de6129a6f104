"""deforma: exact deformation theory for finite-dimensional Lie algebras.

Structure constants in, exact answers out: Chevalley-Eilenberg cohomology
in degrees 1-3, order-by-order deformation of a bracket along a 2-cocycle
with obstruction classes, and the two-term strong homotopy structure that
carries the first obstruction as its ternary map.  All arithmetic is over
the rationals; nothing here ever rounds.
"""

from .algebra_core import (
    DEFAULT_TRUNCATION,
    Cochain,
    JacobiViolation,
    LieAlgebra,
    TruncatedSeries,
    Vector,
    epsilon,
    rat,
)
from .cohomology import (
    CochainSpaceBasis,
    CohomologyResult,
    ce_differential,
    class_coordinates,
    coboundary_solve,
    cocycle_space,
    coboundary_space,
    cohomology,
)
from .deformation import (
    DeformationState,
    ObstructionReport,
    compose,
    extend,
    gbracket,
    obstruction,
    residual,
)
from .errors import (
    ConstructionError,
    DeformaError,
    InputError,
    NotCocycleError,
    StateError,
)
from .io_formats import (
    FormatError,
    cochain_payload,
    parse_algebra_text,
    parse_cochain_text,
    render_algebra,
    render_cochain,
)
from .linfty import (
    GradedElement,
    HomotopyReport,
    LInftyStructure,
    RelationReport,
    build_extended,
    restriction_matches,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TRUNCATION",
    "Cochain",
    "CochainSpaceBasis",
    "CohomologyResult",
    "ConstructionError",
    "DeformaError",
    "DeformationState",
    "FormatError",
    "GradedElement",
    "HomotopyReport",
    "InputError",
    "NotCocycleError",
    "JacobiViolation",
    "LInftyStructure",
    "LieAlgebra",
    "ObstructionReport",
    "RelationReport",
    "StateError",
    "TruncatedSeries",
    "Vector",
    "build_extended",
    "ce_differential",
    "class_coordinates",
    "coboundary_solve",
    "coboundary_space",
    "cochain_payload",
    "cocycle_space",
    "cohomology",
    "compose",
    "epsilon",
    "extend",
    "gbracket",
    "obstruction",
    "parse_algebra_text",
    "parse_cochain_text",
    "rat",
    "render_algebra",
    "render_cochain",
    "residual",
    "restriction_matches",
    "__version__",
]
