"""Matrix-valued boundary spectral measures for derivative models.

The package computes characteristic (Schur class) functions of rank-one and
rank-two derivative operators on the half-line and on symmetric intervals,
the spectral measures of their unitary boundary perturbations (absolutely
continuous densities and point masses), and the translations between
classical boundary conditions and the unitary coupling parameter.
"""

from .errors import (ClarkSpectraError, ConvergenceError, DimensionError,
                     DivergenceError, DomainError, NonUnitaryError, RankError,
                     SingularError, ToleranceError, UnsupportedError)
from .cplane import (cayley, inv_cayley, principal_power, nt_limit,
                     radial_limit, is_unitary, is_contraction, is_c_symmetric,
                     random_unitary)
from .defect import (HalfLine, Interval, ExpSum, DefectBasis,
                     exp_inner_halfline, exp_inner_interval, expsum_inner,
                     defect_basis, orthonormalize)
from .livsic import (SchurFunction, gram_matrix, livsic_eval, livsic_function,
                     equivalent_under, conjugated_schur, transform_alpha)
from .clark import (check_alpha, ac_density, ac_density_disk, point_mass,
                    nevanlinna, conjugation_check, MeasureReport)
from .models import (Model, k1, k2, l1, l2, k1_livsic, l1_livsic, k1_density,
                     k2_density, l1_atoms, l1_weight, ProductCheck,
                     l1_nonneg_product_check, atom_scan, l2_atoms)
from .extensions import (QuasiDiffSpec, canonical_q0, canonical_c,
                         quasi_derivative, hat_vector, check_vector,
                         lagrange_bracket, BoundaryMatrices,
                         validate_sa_matrices, alpha_from_bc_k1,
                         bc_from_alpha_k1, alpha_from_bc_l1, bc_from_alpha_l1,
                         alpha_from_bc_regular, bc_from_alpha_regular,
                         alpha_from_bc_singular_template)
from .oracle import (QuadratureSpec, quad_inner, l1_eigenvalues_direct,
                     l2_eigenvalues_fd, fd_observed_order,
                     k1_bound_state_check)
from .checks import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "ClarkSpectraError", "ConvergenceError", "DimensionError",
    "DivergenceError", "DomainError", "NonUnitaryError", "RankError",
    "SingularError", "ToleranceError", "UnsupportedError",
    "cayley", "inv_cayley", "principal_power", "nt_limit", "radial_limit",
    "is_unitary", "is_contraction", "is_c_symmetric", "random_unitary",
    "HalfLine", "Interval", "ExpSum", "DefectBasis", "exp_inner_halfline",
    "exp_inner_interval", "expsum_inner", "defect_basis", "orthonormalize",
    "SchurFunction", "gram_matrix", "livsic_eval", "livsic_function",
    "equivalent_under", "conjugated_schur", "transform_alpha",
    "check_alpha", "ac_density", "ac_density_disk", "point_mass",
    "nevanlinna", "conjugation_check", "MeasureReport",
    "Model", "k1", "k2", "l1", "l2", "k1_livsic", "l1_livsic", "k1_density",
    "k2_density", "l1_atoms", "l1_weight",
    "ProductCheck", "l1_nonneg_product_check", "atom_scan", "l2_atoms",
    "QuasiDiffSpec", "canonical_q0", "canonical_c", "quasi_derivative",
    "hat_vector", "check_vector", "lagrange_bracket", "BoundaryMatrices",
    "validate_sa_matrices", "alpha_from_bc_k1", "bc_from_alpha_k1",
    "alpha_from_bc_l1", "bc_from_alpha_l1", "alpha_from_bc_regular",
    "bc_from_alpha_regular", "alpha_from_bc_singular_template",
    "QuadratureSpec", "quad_inner", "l1_eigenvalues_direct",
    "l2_eigenvalues_fd", "fd_observed_order", "k1_bound_state_check",
    "CheckResult", "run_all",
    "__version__",
]
