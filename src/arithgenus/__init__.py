"""Exact arithmetic over Q: Brauer classes and their genus, real quadratic
units, quaternionic length spectra, quadratic-form invariants and
commensurability tests."""

from .arith import (
    Factorization,
    Place,
    REAL_PLACE,
    factor,
    hilbert_symbol,
    is_local_square,
    is_prime,
    is_squarefree,
    kronecker_symbol,
    padic_valuation,
    squarefree_part,
)
from .brauer import (
    BrauerClass,
    class_add,
    class_from_invariants,
    class_from_quaternion,
    class_neg,
    format_class,
    global_index,
    index_profile,
    parse_class,
)
from .genus import (
    GenusSet,
    embeds_quadratic,
    epsilon_family,
    genus_enumerate,
)
from .quadfield import (
    ClassData,
    QuadField,
    QuadUnit,
    class_number,
    eta_analytic,
    fundamental_unit,
    norm_one_unit,
    unit_real_value,
)
from .spectrum import (
    HyperbolicGeodesic,
    SpectrumGenerator,
    WeylQuery,
    admissible_set,
    geodesic_length,
    length_commensurable,
    spectrum_generators,
    weyl_main_term,
)
from .weakcomm import (
    EigenvalueSet,
    ExponentVector,
    QuadraticEigenvalues,
    RationalEigenvalues,
    groups_intersect,
    intersection_witness,
    to_exponent_vector,
    weakly_commensurable,
)
from .qforms import (
    ArithmeticTriple,
    GroupB,
    GroupC,
    LocalInvariants,
    QuadraticForm,
    form_invariants,
    forms_equivalent,
    is_isotropic_global,
    is_isotropic_local,
    triple_verdict,
    twins,
    witt_index_global,
    witt_index_local,
)

__version__ = "0.1.0"
