"""Natural orders in cyclic algebras: quotients, structure, and coset codes."""

from .base_rings import (
    EISENSTEIN,
    GAUSSIAN,
    RATIONAL,
    BaseElement,
    BaseRing,
    RingKind,
    ResidueTable,
    euclidean_divmod,
    is_prime_element,
    parse_element,
    ring_by_name,
    xgcd,
)
from .extension import ExtensionSpec, IdealSpec, OKElement, extension_from_dict
from .order import (
    SHIPPED_ALGEBRAS,
    AlgebraSpec,
    OrderElement,
    OrderMatrix,
    box_elements,
    load_algebra,
)
from .residue import (
    CompositeIdeal,
    FiniteField,
    FpView,
    GcaElement,
    QuotientRing,
    ResidueElement,
    ResidueRing,
    Splitting,
    brute_force_ideals,
    crt_decompose,
    crt_recombine,
    factor_prime,
    ideal_elements,
    invert_unipotent,
    quotient_of,
    residue_ring,
    skew_poly_ideal_chain,
)
from .structure import (
    IsoCertificate,
    MonomialIdeal,
    QuotientCase,
    StructureReport,
    VerificationReport,
    VerifyMode,
    enumerate_monomial_ideals,
    identify_quotient,
    stairwell_contains,
    verify_isomorphism,
)
from .coding import (
    BoundFormula,
    CosetCodeword,
    DeltaReport,
    FirstCoefficientCode,
    LiftStrategy,
    MonomialOffsetStudy,
    ParityCode,
    ReedSolomonCode,
    SumClosedStudy,
    delta_lower_bound,
    delta_min_search,
    det_inequality_check,
    lift_codeword,
    min_det_sq_in_box,
    run_lemma_trials,
)

__version__ = "0.1.0"
