import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gconv import assembly
from gconv.families import make_builtin_family
from gconv.mesh import DIRICHLET, build_interval_mesh, build_space

# tests that start ``python -m gconv.cli`` need the package of this checkout
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def quarter_space():
    """Dirichlet P1 space on (0,1) with delta = 1/4 (n = 3 dofs)."""
    return build_space(build_interval_mesh(4), DIRICHLET)


@pytest.fixture(scope="session")
def unit_family():
    return make_builtin_family("const", [1.0])


@pytest.fixture(scope="session")
def quarter_pencil(quarter_space, unit_family):
    K = assembly.assemble_stiffness(quarter_space, unit_family)
    M = assembly.assemble_mass(quarter_space)
    return K, M


def fem_laplacian_eigenvalues(n_cells: int, count: int) -> np.ndarray:
    """Closed-form eigenvalues of the 1D unit P1 pencil on (0,1).

    Derived from the discrete sine eigenvectors of the tridiagonal stiffness
    and mass matrices: lambda_j = (6/d^2)(1 - cos(j pi d))/(2 + cos(j pi d)),
    written with s = sin^2(j pi d / 2) as (6/d^2) 2s/(3 - 2s): 1 - cos loses
    about six digits at d = 2^-11.
    """
    s = np.sin(np.arange(1, count + 1) * (np.pi / (2 * n_cells))) ** 2
    return (12.0 * n_cells**2) * s / (3.0 - 2.0 * s)


def peak_bytes(fn):
    """(peak bytes traced while ``fn()`` runs, its result); numpy reports its
    array buffers to tracemalloc, so the peak counts every array made."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
