import math

import numpy as np
import pytest

from gconv.families import make_builtin_family, piecewise_coefficient
from gconv.homogenize import (
    cell_problem_2d,
    harmonic_mean_1d,
    homogenized_tensor,
    locality_check,
)

SQRT3 = math.sqrt(3.0)


def test_harmonic_mean_sin_profile():
    # integral of 1/(2 + sin 2 pi y) over one period is 1/sqrt(3)
    fam = make_builtin_family("osc1d", [2.0])
    t = harmonic_mean_1d(fam.unit_profile, 256)
    assert abs(t.matrix[0, 0] - SQRT3) <= 1e-10
    assert t.est_error <= 1e-10
    assert t.provenance == "closed-form"


def test_harmonic_mean_two_phase():
    fam = make_builtin_family("twophase1d", [1.0, 4.0])
    t = harmonic_mean_1d(fam.unit_profile, 256)
    assert abs(t.matrix[0, 0] - 1.6) <= 1e-12


def test_harmonic_mean_constant():
    fam = make_builtin_family("const", [4.2])
    t = harmonic_mean_1d(fam.unit_profile)
    assert abs(t.matrix[0, 0] - 4.2) <= 1e-12


def test_harmonic_mean_rejects_coarse_quadrature():
    with pytest.raises(ValueError):
        harmonic_mean_1d(lambda y: 2.0 + np.sin(2 * np.pi * y), 32)


def test_harmonic_mean_rejects_sign_crossing_profile():
    with pytest.raises(ValueError, match="not positive"):
        harmonic_mean_1d(lambda y: np.sin(2 * np.pi * y), 128)


def test_harmonic_below_arithmetic():
    def arithmetic_mean(profile):  # midpoint rule over one period
        return float(np.mean(profile((np.arange(4096) + 0.5) / 4096)))

    for name, params in [("osc1d", [2.0]), ("twophase1d", [1.0, 4.0])]:
        fam = make_builtin_family(name, params)
        harm = harmonic_mean_1d(fam.unit_profile).matrix[0, 0]
        arith = arithmetic_mean(fam.unit_profile)
        assert harm < arith - 1e-6  # strict for non-constant profiles
    const = make_builtin_family("const", [2.0])
    assert abs(harmonic_mean_1d(const.unit_profile).matrix[0, 0]
               - arithmetic_mean(const.unit_profile)) <= 1e-12


def test_cell_problem_constant_profile_exact():
    t = cell_problem_2d(lambda pts: np.full(pts.shape[:-1], 2.5), 32)
    assert np.abs(t.matrix - 2.5 * np.eye(2)).max() <= 1e-12
    assert t.provenance == "cell-problem"


@pytest.mark.parametrize("res,tol", [(64, 1e-2), (128, 2e-3)])
def test_cell_problem_two_phase_laminate(res, tol):
    fam = make_builtin_family("laminate2d", [1.0, 4.0])
    t = cell_problem_2d(fam, res)
    target = np.diag([1.6, 2.5])
    assert np.abs((t.matrix - target) / np.diag(target)).max() <= tol


def test_cell_problem_sinusoidal_laminate():
    fam = make_builtin_family("laminate2d", [2.0])
    t = cell_problem_2d(fam, 64)
    assert abs(t.matrix[0, 0] - SQRT3) / SQRT3 <= 2e-3
    assert abs(t.matrix[1, 1] - 2.0) / 2.0 <= 1e-12  # arithmetic mean of profile


def test_cell_problem_symmetry_and_class_bounds():
    fam = make_builtin_family("laminate2d", [1.0, 4.0])
    t = cell_problem_2d(fam, 32)
    assert np.abs(t.matrix - t.matrix.T).max() <= 1e-12
    evals = np.linalg.eigvalsh(t.matrix)
    assert evals[0] >= fam.alpha - 1e-9
    assert evals[-1] <= fam.beta + 1e-9


def test_cell_problem_quarter_turn_invariance():
    # checkerboard-symmetric profile: the tensor must be isotropic-diagonal,
    # i.e. invariant under rotating the profile by a quarter turn
    def profile(pts):
        return 2.0 + np.cos(2 * np.pi * pts[..., 0]) * np.cos(2 * np.pi * pts[..., 1])

    def rotated(pts):
        rot = np.stack([pts[..., 1], 1.0 - pts[..., 0]], axis=-1)
        return profile(rot)

    t = cell_problem_2d(profile, 32)
    tr = cell_problem_2d(rotated, 32)
    assert np.abs(t.matrix - tr.matrix).max() <= 1e-10
    assert abs(t.matrix[0, 0] - t.matrix[1, 1]) <= 1e-10


def test_cell_problem_resolution_rule():
    fam = make_builtin_family("laminate2d", [1.0, 4.0])
    with pytest.raises(Exception, match="spacing"):
        cell_problem_2d(fam, 8)


def test_homogenized_tensor_dispatch():
    t1 = homogenized_tensor(make_builtin_family("osc1d", [2.0]))
    assert abs(t1.matrix[0, 0] - SQRT3) <= 1e-10
    t2 = homogenized_tensor(make_builtin_family("laminate2d", [1.0, 4.0]),
                            cell_resolution=32)
    assert np.abs(np.diag(t2.matrix) - [1.6, 2.5]).max() <= 1e-10
    with pytest.raises(ValueError, match="oracle"):
        from gconv.families import CoefficientFamily

        anon = CoefficientFamily("anon", 1, 1.0, 1.0, "none",
                                 lambda h, x: np.ones(np.shape(x)))
        homogenized_tensor(anon)


def _piecewise():
    return piecewise_coefficient([
        ((0.0, 0.5), make_builtin_family("osc1d", [2.0])),
        ((0.5, 1.0), make_builtin_family("const", [5.0])),
    ])


def test_locality_oscillating_and_constant_pieces():
    fam = _piecewise()
    assert abs(locality_check(fam, (0.0, 0.5)).matrix[0, 0] - SQRT3) <= 1e-10
    assert abs(locality_check(fam, (0.5, 1.0)).matrix[0, 0] - 5.0) <= 1e-12


def test_locality_same_family_both_pieces():
    osc = make_builtin_family("osc1d", [2.0])
    fam = piecewise_coefficient([((0.0, 0.5), osc), ((0.5, 1.0), osc)])
    left = locality_check(fam, (0.0, 0.5)).matrix[0, 0]
    right = locality_check(fam, (0.5, 1.0)).matrix[0, 0]
    assert abs(left - right) <= 1e-14


def test_locality_independent_of_other_piece():
    two = make_builtin_family("twophase1d", [1.0, 4.0])
    for other in (make_builtin_family("const", [7.0]),
                  make_builtin_family("osc1d", [3.0])):
        fam = piecewise_coefficient([((0.0, 0.5), two), ((0.5, 1.0), other)])
        assert abs(locality_check(fam, (0.0, 0.5)).matrix[0, 0] - 1.6) <= 1e-12


def test_locality_unmatched_subdomain():
    with pytest.raises(ValueError, match="no piece"):
        locality_check(_piecewise(), (0.1, 0.4))
