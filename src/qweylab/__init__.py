"""qweylab: an exact workbench for multi-parameter q-Weyl algebras, their
braided Heisenberg-double construction, torus moment maps, and root-of-unity
representation theory."""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    ExprError,
    ParameterError,
    QWeylError,
    RelationError,
    ZeroDivisorError,
)
from .scalars import (
    CyclotomicField,
    Field,
    RationalField,
    RationalFunctionField,
    Scalar,
    cyclotomic_polynomial,
    make_field,
    q_integer,
    specialize_at_root,
)
from .qweyl import (
    AlgebraSpec,
    CheckOutcome,
    LocalizedElement,
    PBWElement,
    normal_form,
    verify_alpha_commutativity,
    verify_power_identities,
)
from .hopf import (
    DoubleElement,
    antipode,
    coproduct,
    left_regular_action,
    verify_double_presentation,
    verify_hopf_axioms,
)
from .moment import (
    ReducedElement,
    ReductionDatum,
    TorusData,
    classical_moment_eval,
    invariant_monomials,
    moment_ideal_reduce,
    quantum_comoment,
    reduced_product,
    verify_moment_identity,
)
from .rootofunity import (
    CentralCharacter,
    MatrixRep,
    azumaya_membership,
    build_irrep,
    build_irrep_nilpotent,
    build_irrep_rank1,
    centralizer_basis,
    commutant_dimension,
    export_rep,
    is_central,
    verify_centralizer_is_lcenter,
    verify_delta_power,
    verify_lcenter_freeness,
)
from .reduction import (
    ReducedAlgebraResult,
    WeightSpaceResult,
    compatible_eta_grid,
    cover_fiber_points,
    moment_operators,
    reduced_endomorphism_algebra,
    restriction_kernel_check,
    weight_space,
)
from .expr import parse_expression, parse_scalar
