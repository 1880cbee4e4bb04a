"""Desk-scale laboratory for G-convergence of elliptic operators.

Verifies homogenization of Dirichlet eigenvalue problems with oscillating
coefficients and spectral convergence of multiplicatively perturbed
positive definite operators, at tolerances small enough to be wrong about.
"""

__version__ = "0.1.0"

from .assembly import (
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    discrete_h1_norms,
)
from .families import (
    CoefficientFamily,
    PiecewiseCoefficient,
    PotentialFamily,
    ResolutionError,
    SourceFamily,
    make_builtin_family,
    piecewise_coefficient,
    validate_ellipticity,
    weak_limit_estimate,
)
from .homogenize import (
    HomogenizedTensor,
    cell_problem_2d,
    harmonic_mean_1d,
    homogenized_tensor,
    locality_check,
)
from .linalg import (
    CholeskyFactor,
    ConvergenceError,
    EigenResult,
    NotPositiveDefiniteError,
    cholesky,
    eig_smallest,
)
from .mesh import (
    DIRICHLET,
    PERIODIC,
    FeSpace,
    Mesh,
    build_interval_mesh,
    build_rect_mesh,
    build_space,
)
from .variational import (
    PairingTrace,
    QuadraticForm,
    div_curl_test,
    flux_weak_limit,
    form_continuity_probe,
    form_eval,
    liminf_check,
    potential_ladder,
    recovery_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
