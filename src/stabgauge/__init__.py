"""Translation-invariant Pauli stabilizer models in the Laurent polynomial
formalism over GF(2), with a gauging duality for submanifold and fractal
tensor-product symmetries."""

from .poly import LaurentPoly, Monomial, format_poly, parse_poly
from .pauli import (
    CodeSpec,
    GeneratorMap,
    PauliColumn,
    VerifyReport,
    canonical_column_set,
    columns_equal_up_to_translation,
    epsilon_of,
    maps_equal_up_to_translation,
    normalize_column,
    render_diagram,
    symplectic_pair,
    verify_stabilizer,
)
from .gf2 import Gf2Basis, Gf2Matrix
from .torus import (
    CountReport,
    TorusShape,
    count_logical,
    instantiate,
    logical_operator_gap,
    rank_on_torus,
    shape_of,
)
from .syzygy import CertifyReport, KernelBasis, bounded_kernel, certify_on_torus
from .gauging import (
    DualityReport,
    NotSymmetricError,
    SymmetryModel,
    conjugate_by_disentangler,
    double_gauge_check,
    gauge,
    gauge_operator,
    pi_generators,
    symmetry_model_from_code,
    ungauge_css,
)
from .cluster import (
    build_cluster,
    cluster_self_dual,
    cz_conjugate,
    gauge_sublattice,
    inherited_symmetries,
)
from .codebook import (
    code_from_dict,
    code_to_dict,
    codebook_names,
    dumps_code,
    generalized_toric,
    get_code,
    loads_code,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
