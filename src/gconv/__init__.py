"""Desk-scale laboratory for G-convergence of elliptic operators.

Verifies homogenization of Dirichlet eigenvalue problems with oscillating
coefficients and spectral convergence of multiplicatively perturbed
positive definite operators, at tolerances small enough to be wrong about.
"""

__version__ = "0.1.0"
