import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from gconv import assembly
from gconv.families import make_builtin_family
from gconv.linalg import eig_smallest
from gconv.mesh import DIRICHLET, build_interval_mesh, build_space
from gconv.sweep import ExperimentConfig, emit_report, run_divcurl
from gconv.variational import (
    LIMINF_TOL,
    YOSIDA_MU,
    QuadraticForm,
    div_curl_test,
    form_continuity_probe,
    form_eval,
    interpolate_bump,
    liminf_check,
    potential_ladder,
    recovery_check,
)

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def fine_setup():
    """Matched fine space for an h-ladder up to 64 (delta = 1/2048)."""
    sp = build_space(build_interval_mesh(32 * 64), DIRICHLET)
    unit = make_builtin_family("const", [1.0])
    K0 = assembly.assemble_stiffness(sp, unit)
    M = assembly.assemble_mass(sp)
    return sp, K0, M


def test_form_eval_zero(quarter_pencil):
    K, _ = quarter_pencil
    assert form_eval(QuadraticForm(K), np.zeros(3)) == 0.0


def test_form_eval_identity_pair():
    I = sparse.identity(4, format="csr")
    u = np.array([0.5, 0.5, 0.5, 0.5])  # unit norm
    assert abs(form_eval(QuadraticForm(I + I), u) - 2.0) <= 1e-15


def test_form_eval_poisson_energy(quarter_pencil):
    K, _ = quarter_pencil
    u = np.array([0.09375, 0.125, 0.09375])
    # u'Ku = u'b with b = (1/4, 1/4, 1/4)
    assert abs(form_eval(QuadraticForm(K), u) - 0.078125) <= 1e-15


def test_form_eval_dimension_mismatch(quarter_pencil):
    K, _ = quarter_pencil
    with pytest.raises(ValueError):
        form_eval(QuadraticForm(K), np.zeros(4))


def test_continuity_probe_equal_vectors(quarter_pencil):
    K, _ = quarter_pencil
    u = np.array([1.0, 2.0, 3.0])
    assert form_continuity_probe(QuadraticForm(K), u, u) == (0.0, 0.0)


def test_continuity_probe_parallel_equality():
    I = sparse.identity(3, format="csr")
    u = np.array([1.0, 2.0, 2.0])
    v = 3.0 * u
    lhs, rhs = form_continuity_probe(QuadraticForm(I), u, v)
    assert abs(lhs - abs(u @ u - v @ v)) <= 1e-12
    assert abs(lhs - rhs) <= 1e-9 * rhs  # Cauchy-Schwarz equality case


def test_continuity_probe_random_instances():
    rng = np.random.default_rng(5)
    B = rng.normal(size=(10, 10))
    K = sparse.csr_matrix(B @ B.T + 10 * np.eye(10))
    W = rng.normal(size=(10, 10))
    V = sparse.csr_matrix(W @ W.T)
    form = QuadraticForm(K + V)
    for _ in range(1000):
        u = rng.normal(size=10)
        v = rng.normal(size=10)
        lhs, rhs = form_continuity_probe(form, u, v)
        assert lhs <= rhs + 1e-12


def test_form_nonnegative_with_lower_bound(fine_setup):
    sp, K0, M = fine_setup
    lam1 = eig_smallest(K0, M, 1).values[0]
    vmat = assembly.assemble_mass(sp, make_builtin_family("sin2-potential"), h=8)
    form = QuadraticForm(K0 + vmat)
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.normal(size=sp.num_dofs)
        energy = form_eval(form, u)
        assert energy >= 0.0
        assert energy >= lam1 * (u @ (M @ u)) * (1 - 1e-10)


def test_liminf_zero_potential_constant_sequence(fine_setup):
    # V_h = V = 0: both envelopes come from one matrix, so the gap is exactly 0
    sp, K0, M = fine_setup
    fam = make_builtin_family("const-potential", [0.0])
    u = sp.interpolate(lambda p: p[:, 0] * (1 - p[:, 0]))
    gaps = liminf_check(K0, M, potential_ladder(sp, fam, [8, 16, 32, 64]), u[:, None])
    assert gaps.tolist() == [0.0]


def _eigen_envelope(lam, c):
    """Envelope of u'(K0 + cM)u at an M-normalized eigenvector of K0 (K0 u = lam M u)."""
    return YOSIDA_MU * (lam + c) / (lam + c + YOSIDA_MU)


def test_liminf_sin2_first_eigenvector(fine_setup):
    sp, K0, M = fine_setup
    eig = eig_smallest(K0, M, 1)
    lam, u = eig.values[0], eig.vectors
    fam = make_builtin_family("sin2-potential")
    gap = liminf_check(K0, M, potential_ladder(sp, fam, [8, 16, 32, 64]), u)[0]
    assert gap <= LIMINF_TOL
    # the limit form is K0 + cM for the declared limit c.  The top rung's
    # envelope is that of c = 1/2 within the relative gap, so declaring 0.3
    # leaves the closed-form gap within twice that
    wrong = potential_ladder(sp, replace(fam, limit=lambda x: np.full(x.shape[:-1], 0.3)),
                             [8, 16, 32, 64])
    expected = abs(_eigen_envelope(lam, 0.5) / _eigen_envelope(lam, 0.3) - 1.0)
    assert abs(liminf_check(K0, M, wrong, u)[0] - expected) <= 2.0 * gap


def test_liminf_spike_affine_target():
    # u = 1 - x is largest at the spike; the spike's limit is V = 0
    sp = build_space(build_interval_mesh(32 * 256), DIRICHLET)
    K0 = assembly.assemble_stiffness(sp, make_builtin_family("const", [1.0]))
    M = assembly.assemble_mass(sp)
    u = sp.interpolate(lambda p: 1.0 - p[:, 0])[:, None]
    fam = make_builtin_family("spike-potential", [2.0])
    long = potential_ladder(sp, fam, [8, 16, 32, 64, 128, 256])
    assert long.limit.count_nonzero() == 0
    assert liminf_check(K0, M, long, u)[0] <= LIMINF_TOL
    # a ladder stopping at 64 has not reached the limit yet
    assert liminf_check(K0, M, potential_ladder(sp, fam, [8, 16, 32, 64]), u)[0] \
        > LIMINF_TOL


def test_liminf_random_targets_all_families(fine_setup):
    sp, K0, M = fine_setup
    rng = np.random.default_rng(9)
    families = [make_builtin_family("sin2-potential"),
                make_builtin_family("spike-potential", [2.0]),
                make_builtin_family("const-potential", [1.0])]
    for fam in families:
        ladder = potential_ladder(sp, fam, [8, 16, 32, 64])
        u = rng.normal(size=(sp.num_dofs, 5))
        u /= np.sqrt(np.einsum("ij,ij->j", u, M @ u))
        gaps = liminf_check(K0, M, ladder, u)
        assert np.all(gaps <= LIMINF_TOL), fam.name
        # the gaps do not depend on the targets' memory layout, bit for bit
        assert liminf_check(K0, M, ladder, np.asfortranarray(u)).tobytes() == gaps.tobytes()


def test_recovery_const_potential_identically_zero(fine_setup):
    sp, K0, _ = fine_setup
    ladder = potential_ladder(sp, make_builtin_family("const-potential", [2.0]),
                              [8, 16, 32, 64])
    tr = recovery_check(sp, K0, ladder, (1.0, 0.0))
    assert np.abs(tr.abs_errors).max() <= 1e-11 * abs(tr.limit)


def test_recovery_sin2_decays(fine_setup):
    sp, K0, _ = fine_setup
    ladder = potential_ladder(sp, make_builtin_family("sin2-potential"),
                              [8, 16, 32, 64])
    tr = recovery_check(sp, K0, ladder, (1.0, 0.0))
    assert tr.abs_errors[-1] <= 1e-2 * abs(tr.limit) + 1e-10


def test_recovery_spike_rate(fine_setup):
    # u(x) = 1 - x does not vanish at the spike: the defect is the pairing
    # integral(V_h u^2) which decays like h^(-1/2)
    sp, K0, _ = fine_setup
    ladder = potential_ladder(sp, make_builtin_family("spike-potential", [2.0]),
                              [8, 16, 32, 64])
    tr = recovery_check(sp, K0, ladder, (-1.0, 1.0))
    ratios = tr.abs_errors[1:] / tr.abs_errors[:-1]
    assert np.abs(ratios - 2.0 ** -0.5).max() <= 0.08


def test_recovery_trace_csv_roundtrip(tmp_path, fine_setup):
    sp, K0, _ = fine_setup
    ladder = potential_ladder(sp, make_builtin_family("sin2-potential"), [8, 16])
    tr = recovery_check(sp, K0, ladder, (1.0, 0.0))
    path = tmp_path / "trace.csv"
    emit_report(tr, "csv", path, ExperimentConfig(kind="gamma", h_list=(8, 16)))
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "h,value,limit,abs_error"
    assert len(rows) == 3
    h, value, limit, err = rows[1].split(",")
    assert int(h) == 8
    assert float(value) == tr.values[0]
    assert float(limit) == tr.limit
    assert float(err) == tr.abs_errors[0]


def test_div_curl_constant_family_trace_zero():
    fam = make_builtin_family("const", [2.0])
    src = make_builtin_family("const-source", [1.0])
    tr = div_curl_test(fam, [2, 4, 8], src, (0.25, 0.75))
    assert np.abs(tr.abs_errors).max() <= 1e-12 * abs(tr.limit)


def test_div_curl_osc1d_closed_form_limit():
    # homogenized solution u*(x) = x(1-x)/(2 sqrt 3); the pairing limit is
    # integral( phi sqrt(3) (u*')^2 ) with phi the tent on (1/4, 3/4)
    fam = make_builtin_family("osc1d", [2.0])
    src = make_builtin_family("const-source", [1.0])
    tr = div_curl_test(fam, [8, 16, 32, 64], src, (0.25, 0.75))
    closed = 0.0015035163260146505  # quadrature of tent(x) (1-2x)^2/(4 sqrt 3)
    assert abs(tr.limit - closed) <= 1e-7
    assert tr.abs_errors[-1] <= 2e-2 * abs(tr.limit)
    assert np.all(np.diff(tr.abs_errors) < 0)


def test_div_curl_two_phase():
    fam = make_builtin_family("twophase1d", [1.0, 4.0])
    src = make_builtin_family("const-source", [1.0])
    tr = div_curl_test(fam, [8, 16, 32], src, (0.25, 0.75))
    # limit pairing integral( phi (1-2x)^2 / (4 A) ) with A = 1.6
    closed = 0.0015035163260146505 * SQRT3 / 1.6
    assert abs(tr.limit - closed) <= 1e-6
    assert tr.abs_errors[-1] < tr.abs_errors[0]


def _flux_windows(fam, h):
    """The div-curl run's 8 flux windows at h, on its 32 * h-cell mesh."""
    cfg = ExperimentConfig(kind="divcurl", h_list=(h,), family=fam,
                           source=make_builtin_family("const-source", [1.0]))
    return run_divcurl(cfg).flux_windows


def test_flux_weak_limit_constant_family_exact():
    rep = _flux_windows(make_builtin_family("const", [2.0]), 4)
    assert np.abs(rep["abs_errors"]).max() <= 1e-13


def test_flux_weak_limit_osc1d_window_averages():
    fam = make_builtin_family("osc1d", [2.0])
    rep = _flux_windows(fam, 32)
    # homogenized flux sqrt(3) u*' = (1 - 2x)/2: window averages over strips
    centers = 0.5 * (rep["edges"][:-1] + rep["edges"][1:])
    assert np.allclose(rep["reference_averages"][:, 0], (1 - 2 * centers) / 2,
                       atol=1e-9)
    assert rep["abs_errors"].max() <= 5e-3
    finer = _flux_windows(fam, 64)
    assert np.all(finer["abs_errors"] <= rep["abs_errors"] + 1e-12)


def test_interpolate_bump_shape(fine_setup):
    sp, _, _ = fine_setup
    phi = interpolate_bump(sp, (0.25, 0.75))
    coords = sp.dof_coordinates()[:, 0]
    assert phi.max() <= 1.0 + 1e-12
    assert np.abs(phi[(coords < 0.25) | (coords > 0.75)]).max() == 0.0
    mid = np.argmin(np.abs(coords - 0.5))
    assert abs(phi[mid] - 1.0) <= 1e-12
