"""Exact-arithmetic workbench for omega-Lie algebras and omega-left-symmetric
algebras: axiom checkers, the commutator functor, the classified perfect
families, and a decider for the existence of compatible products."""

from .admissible import (
    ADMISSIBLE,
    FULL,
    INADMISSIBLE,
    MODULE_ONLY,
    UNKNOWN,
    AdmissibilityReport,
    compatibility_constraints,
    decide_admissible,
    jacobi_consequence_constraints,
    module_identity_residuals,
    operator_matrices,
    product_tensor_at,
    propagate,
    verify_witness,
)
from .algebra import (
    CheckReport,
    OmegaForm,
    OmegaLieAlgebra,
    OmegaLsaAlgebra,
    StructureTensor,
    basis_change,
    check_module_identity,
    check_omega_lie,
    check_omega_lsa,
    commutator_algebra,
    derived_subalgebra,
    is_perfect,
    left_mult,
    lie_from_tables,
    lsa_from_tables,
    specialize,
)
from .catalog import CatalogEntry, instantiate, list_entries
from .errors import AlgebraLoadError, AxiomCheckError, OmegaAlgebraError, SideConditionError
from .fields import (
    Field,
    Poly,
    QALPHA,
    QQ,
    RatFunc,
    field_named,
    poly_gcd,
    track_denominators,
)
from .fileformat import emit_algebra_text, parse_algebra_text
from .linalg import AffineSpace, Matrix, intersect, rref, solve_affine
from .multipoly import GroebnerResult, MPoly, buchberger, contains_one, normal_form

__version__ = "0.1.0"
