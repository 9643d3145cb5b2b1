"""Numerical semigroups and the Hilbert functions of their tangent cones.

The package computes Apery sets, the order filtration (maximal
representations, supports, induced elements), the D_k / C_k tables with the
exact Hilbert function, structural pattern detectors for decreasing Hilbert
functions, and bounded classification searches, including the
minimal-multiplicity family at e = 13.
"""

from .core import (
    AperySet,
    NumericalSemigroup,
    apery,
    build,
    contains,
    frobenius,
    gaps,
    parse_generators,
)
from .errors import (
    BadConfig,
    BadLevel,
    BadRange,
    ConstraintViolation,
    EmptyGenerators,
    GcdNotOne,
    HypothesisFailed,
    InternalInconsistency,
    InvalidGenerator,
    NonMinimal,
    NotMember,
    ResourceLimit,
    SemigroupError,
    UsageError,
)
from .filtration import (
    DeltaAudit,
    FiltrationTables,
    HilbertProfile,
    audit_delta,
    hilbert_function,
    is_tangent_cone_cm,
    strata_tables,
)
from .grading import (
    AperyStratification,
    MaximalRepresentation,
    OrderTable,
    SupportInfo,
    apery_strata,
    induced_elements,
    maximal_representations,
    order_of,
    order_table,
    support_size,
)
from .combinatorics import (
    BetaCount,
    TwoGenConfig,
    beta_brute_force,
    beta_closed_form,
    support_count_bound,
)
from .search import (
    ResidueRow,
    SearchConfig,
    SpParameters,
    construct_sp,
    recover_sp_parameters,
    residue_admissible,
    residue_table,
    search_decreasing,
    search_results_csv,
    sp_generator_list,
)
from .structure import (
    Ap24Match,
    C3Pattern,
    ChainReport,
    ClassificationReport,
    Offset3Verdict,
    Offset4Verdict,
    PowerTailVerdict,
    check_chain_structure,
    check_offset3,
    check_offset4,
    check_power_apery_tail,
    classification_report,
    classify_c3,
    is_symmetric,
    match_ap2_size4_case,
)

__version__ = "0.1.0"
