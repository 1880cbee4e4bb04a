import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from gconv import assembly, homogenize
from gconv.families import (
    BUILTINS,
    CoefficientFamily,
    ConstantMatrixCoefficient,
    make_builtin_family,
    piecewise_coefficient,
)
from gconv.homogenize import (
    cell_problem_2d,
    harmonic_mean_1d,
    homogenized_tensor,
    locality_check,
)
from gconv.mesh import PERIODIC, build_rect_mesh, build_space, transfer
from gconv.sweep import ExperimentConfig, run_eigen_homog, run_source_homog

from conftest import peak_bytes

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
        harmonic_mean_1d(lambda y: 2.0 + np.sin(2 * np.pi * y[..., 0]), 32)


def test_harmonic_mean_rejects_values_that_keep_the_point_axis():
    # values (n, 1) would broadcast against the (n,) weights to an (n, n) sum
    with pytest.raises(ValueError, match=r"shape \(1024, 1\), not \(n,\)"):
        harmonic_mean_1d(lambda y: np.full(y.shape, 2.0), 256)


def test_harmonic_mean_rejects_sign_crossing_profile():
    with pytest.raises(ValueError, match="not positive"):
        harmonic_mean_1d(lambda y: np.sin(2 * np.pi * y[..., 0]), 128)


def test_harmonic_below_arithmetic():
    def arithmetic_mean(profile):  # midpoint rule over one period
        return float(np.mean(profile(((np.arange(4096) + 0.5) / 4096)[:, None])))

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


def _dykhne(s):
    # 1/a is a half-period translate of a and a is symmetric under y1 <-> y2,
    # so A* = I exactly (Keller 1964, Dykhne 1971)
    return lambda p: np.exp(s * np.sin(2 * np.pi * p[..., 0])
                            * np.sin(2 * np.pi * p[..., 1]))


def _inclusion(pts):  # contrast 1e3, edges off the grid lines
    inside = (np.abs(pts[..., 0] - 0.5) < 0.2) & (np.abs(pts[..., 1] - 0.5) < 0.3)
    return np.where(inside, 1e3, 1.0)


def _checkerboard(pts):  # contrast 100
    return np.where((pts[..., 0] < 0.5) ^ (pts[..., 1] < 0.5), 100.0, 1.0)


def _direct_tensor(profile, res):
    """Cell tensor from one grounded SuperLU solve per corrector at res."""
    family = CoefficientFamily("unit-cell-profile", 2, math.nan, math.nan, profile, 1.0)
    space = build_space(build_rect_mesh(res, res), PERIODIC)
    K = assembly.assemble_stiffness(space, family).tocsc()
    lu = splu(K[1:, 1:], permc_spec="MMD_AT_PLUS_A")
    dofs, measure, grads, pts, gw, _ = space.cell_data()
    Abar = np.einsum("q,qc->c", gw, family.values_at(1, pts))[:, None, None] * np.eye(2)
    eff = np.zeros((2, 2))
    for j in range(2):
        b = np.zeros(space.num_dofs)
        np.add.at(b, dofs, -np.einsum("cd,cid->ci", Abar[:, :, j], grads)
                  * measure[:, None])
        chi = np.zeros(space.num_dofs)
        chi[1:] = lu.solve(b[1:])
        grad_chi = assembly.cell_gradients(space, chi)
        eff[:, j] = np.einsum("cde,ce,c->d", Abar, np.eye(2)[j] + grad_chi, measure)
    return 0.5 * (eff + eff.T)


# measured gap to the reference, one SuperLU solve per corrector and the
# tensor integrated cell by cell: at most 6.1e-13 relative (inclusion at 64)
DIRECT_REL_TOL = 1e-11


@pytest.mark.parametrize("profile", [_inclusion, _checkerboard],
                         ids=["inclusion-1e3", "checkerboard-100"])
@pytest.mark.parametrize("res", [32, 64])
def test_cell_problem_matches_separate_direct_solves(profile, res):
    t = cell_problem_2d(profile, res)
    ref = _direct_tensor(profile, res)
    assert np.abs(t.matrix - ref).max() <= DIRECT_REL_TOL * np.abs(ref).max()


def test_cell_problem_converges_at_contrast_1e6():
    # at this contrast the reference loses digits: the measured gap to it
    # is 3.5e-9 relative
    def profile(pts):
        return 1.0 + (1e6 - 1.0) * (_inclusion(pts) > 1.0)

    t = cell_problem_2d(profile, 64)
    ref = _direct_tensor(profile, 64)
    assert np.abs(t.matrix - ref).max() <= 1e-8 * np.abs(ref).max()


def test_cell_problem_dykhne_field_converges_to_identity():
    # measured max|A* - I| at s = 1: 1.2e-3, 2.9e-4, 7.3e-5 at 32/64/128,
    # i.e. 1.2 res^-2; the Richardson estimate is about 3x the true gap
    for res in (32, 64, 128):
        t = cell_problem_2d(_dykhne(1.0), res)
        gap = np.abs(t.matrix - np.eye(2)).max()
        assert gap <= 1.5 * res ** -2.0
        assert gap <= t.est_error <= 4.0 * gap


@pytest.mark.parametrize("res", [32, 64, 128, 256, 512])
def test_cell_problem_two_phase_laminate_is_exact(res):
    # the interfaces lie on mesh lines, so the P1 tensor is diag(1.6, 2.5)
    # up to round-off, which integral(A) - b^T chi - chi^T r keeps within
    # 1e-14: measured at most 4.2e-15, at 512, the 2D dof budget
    t = cell_problem_2d(make_builtin_family("laminate2d", [1.0, 4.0]), res)
    assert np.abs(t.matrix - np.diag([1.6, 2.5])).max() <= 1e-14


@pytest.mark.parametrize("res", [31, 33])
def test_cell_problem_odd_resolution_has_no_companion(res):
    t = cell_problem_2d(lambda pts: np.full(pts.shape[:-1], 2.5), res)
    assert np.abs(t.matrix - 2.5 * np.eye(2)).max() <= 1e-12
    assert math.isnan(t.est_error)


def test_prolongation_nests_the_periodic_grids():
    P = transfer(*(build_space(build_rect_mesh(n, n), PERIODIC) for n in (8, 16)))
    assert P.shape == (256, 64)
    assert np.abs(P @ np.ones(64) - 1.0).max() <= 1e-15
    coarse = np.random.default_rng(0).normal(size=64)
    fine = (P @ coarse).reshape(16, 16)
    assert np.array_equal(fine[::2, ::2], coarse.reshape(8, 8))
    # nested P1 spaces: the Galerkin product of the unit stiffness is the
    # coarse unit stiffness
    unit = ConstantMatrixCoefficient(np.eye(2))
    K = [assembly.assemble_stiffness(build_space(build_rect_mesh(n, n), PERIODIC), unit)
         for n in (16, 8)]
    assert np.abs((P.T @ K[0] @ P - K[1]).toarray()).max() <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=40)
@given(half=st.integers(8, 24),
       coef=st.lists(st.floats(-0.6, 0.6), min_size=8, max_size=8))
def test_cell_problem_direct_solve_property(half, coef):
    # random positive trig-polynomial fields exp(sum c cos(2 pi k.y) + ...)
    def profile(pts):
        y1, y2 = 2 * np.pi * pts[..., 0], 2 * np.pi * pts[..., 1]
        waves = [np.cos(y1), np.sin(y2), np.cos(y1 + y2), np.sin(y1 - y2),
                 np.cos(2 * y1), np.sin(2 * y2), np.cos(2 * y1 + y2), np.sin(y1 + 2 * y2)]
        return np.exp(sum(c * w for c, w in zip(coef, waves)))

    res = 2 * half
    t = cell_problem_2d(profile, res)
    ref = _direct_tensor(profile, res)
    assert np.abs(t.matrix - ref).max() <= DIRECT_REL_TOL * np.abs(ref).max()


def test_cell_problem_evaluates_the_coefficient_once_per_level(monkeypatch):
    # each level's stiffness and corrector right-hand sides read one
    # evaluation of the field, and the level is factored once: the full
    # resolution first, then the half-resolution companion
    events = []
    values_at, cholesky = CoefficientFamily.values_at, homogenize.cholesky

    def counting(self, h, x):
        events.append(np.shape(x))
        return values_at(self, h, x)

    def factoring(matrix):
        events.append("cholesky")
        return cholesky(matrix)

    monkeypatch.setattr(CoefficientFamily, "values_at", counting)
    monkeypatch.setattr(homogenize, "cholesky", factoring)
    cell_problem_2d(make_builtin_family("laminate2d", [1.0, 4.0]), 32)
    assert events == [(3, 2 * 32 * 32, 2), "cholesky", (3, 2 * 16 * 16, 2), "cholesky"]


def test_cell_problem_peak_memory_is_a_few_stiffnesses():
    # each level samples the field once and assembles without full-size
    # temporaries, and is released before the next is built: the peak stays
    # within a fixed multiple of the bytes of the fine stiffness
    fam = make_builtin_family("laminate2d", [1.0, 4.0])
    K = assembly.assemble_stiffness(build_space(build_rect_mesh(128, 128), PERIODIC), fam)
    peak = peak_bytes(lambda: cell_problem_2d(fam, 128))[0]
    assert peak <= 10.5 * (K.data.nbytes + K.indices.nbytes + K.indptr.nbytes)


def test_cell_problem_resolution_rule():
    fam = make_builtin_family("laminate2d", [1.0, 4.0])
    with pytest.raises(Exception, match="spacing"):
        cell_problem_2d(fam, 8)


def test_homogenized_tensor_dispatch():
    t1 = homogenized_tensor(make_builtin_family("osc1d", [2.0]))
    assert abs(t1.matrix[0, 0] - SQRT3) <= 1e-10
    t2 = homogenized_tensor(make_builtin_family("laminate2d", [1.0, 4.0]))
    assert t2.provenance == "closed-form"
    assert np.abs(t2.matrix - np.diag([1.6, 2.5])).max() <= 1e-15


@pytest.mark.parametrize("name,params,tensor,est_error", [
    ("osc1d", [2.0], "0x1.bb67ae8584cabp+0", "0x0.0p+0"),
    ("osc1d", [1.01], "0x1.225aa716cda9ep-3", "0x1.0000000000000p-54"),
    ("twophase1d", [1.0, 4.0], "0x1.999999999999ap+0", "0x0.0p+0"),
    ("twophase1d", [0.3, 7.0], "0x1.269349a4d2694p-1", "0x0.0p+0"),
    ("const", [3.0], "0x1.8000000000003p+1", "0x0.0p+0"),
])
def test_1d_limit_tensors_keep_their_bits(name, params, tensor, est_error):
    # the harmonic mean as it was computed before the lamination formula
    # took it over as its 1D case
    t = homogenized_tensor(make_builtin_family(name, params))
    assert t.matrix.shape == (1, 1)
    assert t.matrix[0, 0].hex() == tensor and t.est_error.hex() == est_error


def test_harmonic_mean_estimate_keeps_its_bits():
    # an interface off the quadrature breaks, so the refinement moves the mean
    t = harmonic_mean_1d(lambda y: np.where(y[..., 0] < 1.0 / 3.0, 1.0, 4.0))
    assert t.matrix[0, 0].hex() == "0x1.ffe001ffe0020p+0"
    assert t.est_error.hex() == "0x1.8018048078000p-10"


def test_every_builtin_coefficient_is_a_laminate():
    # homogenized_tensor gives every family the lamination formula, which
    # holds only for a field of the first coordinate; a 2D family reading
    # its second needs the cell problem back in the dispatch
    rng = np.random.default_rng(5)
    y = rng.uniform(-2.0, 2.0, size=(64, 2))
    moved = y.copy()
    moved[:, 1] = rng.uniform(-2.0, 2.0, size=64)
    for build, _ in BUILTINS.values():
        family = build()
        if isinstance(family, CoefficientFamily) and family.dim == 2:
            assert np.array_equal(family.unit_profile(y), family.unit_profile(moved))
    for params in ([2.0], [1.0, 4.0]):
        family = make_builtin_family("laminate2d", params)
        assert np.array_equal(family.unit_profile(y), family.unit_profile(moved))


@pytest.mark.parametrize("params", [[1.0, 4.0], [0.5, 7.0]])
@pytest.mark.parametrize("res", [32, 64, 128, 256])
def test_cell_problem_matches_two_phase_lamination_formula(params, res):
    # the interfaces lie on mesh lines, so the cell problem is exact up to
    # round-off: measured within 2.95e-14 of the closed form
    family = make_builtin_family("laminate2d", params)
    closed = homogenized_tensor(family)
    assert closed.provenance == "closed-form"
    assert np.abs(cell_problem_2d(family, res).matrix - closed.matrix).max() <= 1e-13


def test_cell_problem_converges_to_sinusoidal_lamination_formula():
    # the P1 tensor's gap to diag(sqrt 3, 2) falls at O(res^-2): measured
    # 9.26e-4, 2.32e-4, 5.80e-5, 1.45e-5, 3.62e-6 at 32..512 (the 2D dof
    # budget), and the Richardson estimate reads about 3 times the gap
    family = make_builtin_family("laminate2d", [2.0])
    closed = homogenized_tensor(family).matrix
    assert np.abs(closed - np.diag([SQRT3, 2.0])).max() <= 1e-15
    gaps = []
    for res in (32, 64, 128, 256, 512):
        t = cell_problem_2d(family, res)
        gaps.append(np.abs(t.matrix - closed).max())
        assert gaps[-1] <= t.est_error <= 4.0 * gaps[-1]
    assert np.all(np.abs(np.array(gaps[:-1]) / gaps[1:] - 4.0) <= 0.1)


def test_laminate_sweeps_solve_no_cell_problem(monkeypatch):
    # a laminate's limit is the lamination formula, so neither sweep on
    # laminate2d reaches the cell problem
    def refused(*args, **kwargs):
        raise AssertionError("cell problem solved")

    monkeypatch.setattr(homogenize, "cell_problem_2d", refused)
    family = make_builtin_family("laminate2d", [1.0, 4.0])
    eigen = run_eigen_homog(ExperimentConfig("eigen-homog", (1, 2), 16, family=family))
    source = run_source_homog(ExperimentConfig(
        "source-homog", (1, 2), 16, family=family,
        source=make_builtin_family("const-source")))
    for report in (eigen, source):
        assert report.reference_meta["provenance"] == "closed-form"
        assert np.array_equal(report.reference_meta["tensor"], np.diag([1.6, 2.5]))


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
