"""Exact q-expansion arithmetic for level-1 modular forms: Hecke eigenbases,
Dirichlet characters and generalized Bernoulli data, identity verification,
Eisenstein-zero algebraicity, and quantitative finiteness scans."""

from .arith import (
    Factorization,
    SquarefreeSplit,
    factorize,
    squarefree_kernel,
)
from .dirichlet import (
    DirichletCharacter,
    UnitGroup,
    abs_embed,
    bernoulli_number,
    bernoulli_polynomial,
    characters_mod,
    gen_bernoulli,
    sigma_gen,
    trivial_character,
)
from .forms import (
    ModularForm,
    SpaceBasis,
    delta,
    dim_Mk,
    dim_Sk,
    eisenstein_level1,
    eisenstein_levelN,
    jfunction,
    miller_basis,
)
from .hecke import (
    Eigenform,
    HeckeMatrix,
    UnsupportedHeckeField,
    charpoly,
    eigenbasis,
    galois_conjugate,
    hecke_action,
    hecke_matrix,
)
from .identities import (
    PRODUCT_IDENTITIES,
    EigenDecomposition,
    IdentityReport,
    decompose_in_eigenbasis,
    decompose_square,
    nonvanishing_report,
    verify_all,
    verify_product_identity,
    verify_quadratic_identity,
    verify_ramanujan,
    verify_table1,
)
from .numfield import (
    QQ,
    NumberField,
    NumberFieldElement,
    cyclotomic_field,
    dedekind_index_test,
)
from .polys import (
    IrreducibilityCertificate,
    RatPoly,
    cyclotomic_polynomial,
    discriminant,
    factor_degrees_mod_p,
    poly_irreducible,
)
from .qseries import QSeries
from .scans import (
    BoundCheck,
    FinitenessReport,
    IntersectionReport,
    MaedaReport,
    alpha_beta,
    bernoulli_bound_check,
    finiteness_scan,
    hecke_field_intersection_check,
    maeda_check,
    zeta_direct,
)
from .zeros import (
    ArcZero,
    JAlgebraicityReport,
    MonomialExpansion,
    SeriesEvaluator,
    algebraic_poly,
    expand_E12n,
    find_arc_zeros,
    jvalue_algebraicity_check,
)

__version__ = "0.1.0"
