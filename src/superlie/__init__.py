"""Exact-arithmetic toolkit for finite dimensional real Lie superalgebras.

Current superalgebras over Grassmann factors, their 2-cocycles and central
extensions, unitary-radical bounds with pointedness certificates, and
Clifford-algebra models of scalar-character representations.  All
computations are exact: over Q, and on Gaussian integer parts
sum_m sqrt(m) U_m for the matrices of the field tower Q(i, sqrt(d1), ...)
that the Clifford models need; every reported identity is checked exactly.
"""

from .assoc import AssocSuperalgebra, augmentation, graded_part, grassmann, quotient_assoc
from .catalog import CatalogEntry, build_catalog, verify_catalog_facts
from .clifford import (
    CliffordAlgebra,
    CliffordLieSuperalgebra,
    CliffordRep,
    clifford_lie,
    gamma_rep,
    lambda_admissible_rep,
    mu_lambda,
    phase_adjust,
)
from .cohomology import (
    b2_space,
    central_extension,
    centroid,
    cocycle2,
    derivation_space,
    eta_cocycle,
    h2_dim,
    hochschild_map,
    hochschild_space,
    kappa_T,
    split_by_star,
    star,
    verify_cor1,
    xi_cocycle,
    z2_space,
)
from .current import Current, current_lsa, eps_projection
from .linalg import Matrix, Subspace, definiteness
from .lsa import (
    BilinearForm,
    LieSuperalgebra,
    build_form,
    form_report,
    from_matrix_basis,
    ideal_closure,
    make_lsa,
    quotient_lsa,
    structure_report,
)
from .scalars import format_scalar, parse_scalar
from .serial import algebra_from_json, algebra_to_json, load_algebra
from .unirad import (
    PointednessCertificate,
    decide_pointedness,
    faithfulness_boundary,
    pointedness_certificate,
    square_zero_seeds,
    urad_lower,
    verify_kernel_theorem,
    verify_urad_theorem,
)

__all__ = [
    "AssocSuperalgebra", "augmentation", "graded_part", "grassmann", "quotient_assoc",
    "CatalogEntry", "build_catalog", "verify_catalog_facts",
    "CliffordAlgebra", "CliffordLieSuperalgebra", "CliffordRep", "clifford_lie",
    "gamma_rep", "lambda_admissible_rep", "mu_lambda", "phase_adjust",
    "b2_space", "central_extension", "centroid", "cocycle2", "derivation_space",
    "eta_cocycle", "h2_dim", "hochschild_map", "hochschild_space", "kappa_T",
    "split_by_star", "star", "verify_cor1", "xi_cocycle", "z2_space",
    "Current", "current_lsa", "eps_projection",
    "Matrix", "Subspace", "definiteness",
    "BilinearForm", "LieSuperalgebra", "build_form", "form_report",
    "from_matrix_basis", "ideal_closure", "make_lsa", "quotient_lsa", "structure_report",
    "format_scalar", "parse_scalar",
    "algebra_from_json", "algebra_to_json", "load_algebra",
    "PointednessCertificate", "decide_pointedness", "faithfulness_boundary",
    "pointedness_certificate", "square_zero_seeds", "urad_lower",
    "verify_kernel_theorem", "verify_urad_theorem",
]

__version__ = "0.1.0"
