"""Exact symbolic computation in mod-p composition groups of stunted series
(Frobenius-power series X + a_1 X^p + a_2 X^(p^2) + ...) and the dual Steenrod
algebra family, over finitely presented graded-commutative F_p-algebras.
"""

__version__ = "0.1.0"

from .algebra import (  # noqa: F401
    AlgebraElement,
    AlgebraError,
    AlgebraPresentation,
    EnumerationError,
    Generator,
    SteenrodError,
    adjoin_epsilon,
    component,
    component_dimension,
    component_monomials,
    enumerate_component,
    eps_part,
    eps_reduce,
    frobenius,
    mk_algebra,
    times_eps,
)
from .group import (  # noqa: F401
    BOTTOM,
    TOP,
    GroupElement,
    GroupError,
    commutator,
    commutator_leading,
    compose,
    filtration_level,
    half_quotient,
    identity,
    in_abelian_kernel,
    in_G_od,
    in_Gpn,
    invert_closed,
    invert_recursive,
    invert_split,
    is_identity,
    pi_ev,
    project,
    rho,
    star_inverse,
    star_product,
)
from .hopf import (  # noqa: F401
    GeneratorAssignment,
    HopfElement,
    HopfError,
    HopfPresentation,
    TensorElement,
    antipode,
    check_hopf_ideal,
    cocommutativity_defect,
    convolution,
    coproduct,
    counit,
    dual_mod_J,
    dual_steenrod,
    level_algebra,
    level_mod_I,
    milnor_quotient,
    milnor_quotient_ev,
    primitivity_check,
    quotient,
    rho_diagram_check,
    theta,
    universal_points,
)
from .milnor import (  # noqa: F401
    DualSymbol,
    MilnorError,
    in_dual_span,
    in_J_basis,
    kronecker_pair,
    monomial_of,
    seq_leq,
)
from .partitions import (  # noqa: F401
    Composition,
    PartitionError,
    enumerate_compositions,
    extend_F,
)
