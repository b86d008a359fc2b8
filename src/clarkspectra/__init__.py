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
from .cplane import cayley, principal_power, check_unitary, random_unitary
from .defect import exp_inner_halfline, exp_inner_interval, defect_onb
from .livsic import (SchurFunction, livsic_eval, livsic_function,
                     conjugated_schur, transform_alpha)
from .clark import (check_alpha, ac_density, point_mass, atom_scan,
                    conjugation_check)
from .models import (Model, k1, k2, l1, l2, k1_livsic, l1_livsic, k1_density,
                     l1_atoms, l1_weight)
from .extensions import (canonical_c, hat_vector, lagrange_bracket,
                         boundary_rows, BoundaryMatrices,
                         validate_sa_matrices, alpha_from_bc_regular,
                         bc_from_alpha_regular)
from .oracle import (quad_inner, eigen_mass, eigen_density,
                     l1_eigenvalues_direct, l2_eigenvalues,
                     k1_bound_state_check)
from .checks import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "ClarkSpectraError", "ConvergenceError", "DimensionError",
    "DivergenceError", "DomainError", "NonUnitaryError", "RankError",
    "SingularError", "ToleranceError", "UnsupportedError",
    "cayley", "principal_power", "check_unitary", "random_unitary",
    "exp_inner_halfline", "exp_inner_interval", "defect_onb",
    "SchurFunction", "livsic_eval", "livsic_function",
    "conjugated_schur", "transform_alpha",
    "check_alpha", "ac_density", "point_mass", "atom_scan",
    "conjugation_check",
    "Model", "k1", "k2", "l1", "l2", "k1_livsic", "l1_livsic", "k1_density",
    "l1_atoms", "l1_weight",
    "canonical_c", "hat_vector", "lagrange_bracket", "boundary_rows",
    "BoundaryMatrices", "validate_sa_matrices", "alpha_from_bc_regular",
    "bc_from_alpha_regular",
    "quad_inner", "eigen_mass", "eigen_density",
    "l1_eigenvalues_direct", "l2_eigenvalues", "k1_bound_state_check",
    "CheckResult", "run_all",
    "__version__",
]
