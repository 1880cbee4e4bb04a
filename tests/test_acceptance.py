"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every tolerance is pinned here; the suite doubles as the regression gate
for the whole laboratory and finishes in well under the runtime budget.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg as sla

from gconv import assembly
from gconv.families import make_builtin_family, piecewise_coefficient
from gconv.homogenize import cell_problem_2d, harmonic_mean_1d, locality_check
from gconv.linalg import eig_smallest
from gconv.mesh import DIRICHLET, build_interval_mesh, build_space
from gconv.sweep import ExperimentConfig, run_eigen_homog, run_eigen_potential, \
    run_gamma, run_source_homog
from gconv.variational import QuadraticForm, div_curl_test, form_continuity_probe, \
    recovery_check

from conftest import fem_laplacian_eigenvalues

SQRT3 = math.sqrt(3.0)
REPO = Path(__file__).resolve().parent.parent


def _criterion(cid: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")
    assert ok, f"{cid}: {detail}"


def _envelope_nonincreasing(errors, factor=1.2) -> bool:
    return all(b <= factor * a for a, b in zip(errors, errors[1:]))


def test_a1_harmonic_means():
    osc = make_builtin_family("osc1d", [2.0])
    t1 = harmonic_mean_1d(osc.unit_profile, 256)
    err1 = abs(t1.matrix[0, 0] - SQRT3)
    two = make_builtin_family("twophase1d", [1.0, 4.0])
    t2 = harmonic_mean_1d(two.unit_profile, 256)
    err2 = abs(t2.matrix[0, 0] - 1.6)
    ok = err1 <= 1e-10 and t1.est_error <= 1e-10 and err2 <= 1e-12
    _criterion("A1", ok,
               f"harmonic means: |A*-sqrt3|={err1:.2e} (est {t1.est_error:.2e}), "
               f"|A*-1.6|={err2:.2e}")


def test_a2_fem_pencil_closed_form(unit_family):
    worst = 0.0
    for n_cells in (4, 32, 256):
        sp = build_space(build_interval_mesh(n_cells), DIRICHLET)
        K = assembly.assemble_stiffness(sp, unit_family)
        M = assembly.assemble_mass(sp)
        k = min(5, sp.num_dofs)
        res = eig_smallest(K, M, k)
        exact = fem_laplacian_eigenvalues(n_cells, k)
        worst = max(worst, float(np.max(np.abs(res.values - exact) / exact)))
        if n_cells == 4:
            dense = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True)
            worst = max(worst, float(np.max(np.abs(res.values - dense) / dense)))
    _criterion("A2", worst <= 1e-10,
               f"generalized pencil vs closed form, worst rel err {worst:.2e}")


@pytest.fixture(scope="module")
def a3_report():
    cfg = ExperimentConfig(kind="eigen-homog", h_list=(4, 8, 16, 32, 64),
                           family=make_builtin_family("osc1d", [2.0]),
                           points_per_period=32, eigen_count=3)
    return run_eigen_homog(cfg)


def test_a3_eigen_homog_sweep(a3_report):
    rep = a3_report
    max_rel = [float(rec.rel_errors.max()) for rec in rep.records]
    vec_err = float(rep.records[-1].vector_errors.max())
    slopes = [r.slope for r in rep.rates]
    ok = (max_rel[-1] <= 2e-2
          and _envelope_nonincreasing(max_rel)
          and vec_err <= 5e-2)
    _criterion("A3", ok,
               f"osc1d eigen sweep: rel errs {['%.2e' % e for e in max_rel]}, "
               f"vec err {vec_err:.2e}, fitted slopes {['%.2f' % s for s in slopes]}")


def test_a4_cell_problem_laminate():
    t = cell_problem_2d(make_builtin_family("laminate2d", [1.0, 4.0]), 128)
    rel = np.abs((np.diag(t.matrix) - [1.6, 2.5]) / np.array([1.6, 2.5])).max()
    tc = cell_problem_2d(lambda pts: np.full(pts.shape[:-1], 3.25), 32)
    const_err = np.abs(tc.matrix - 3.25 * np.eye(2)).max()
    ok = rel <= 1e-2 and const_err <= 1e-12
    _criterion("A4", ok,
               f"laminate tensor rel err {rel:.2e} at resolution 128, "
               f"constant profile err {const_err:.2e}")


def test_a5_sin2_potential_sweep():
    cfg = ExperimentConfig(kind="eigen-potential", h_list=(4, 8, 16, 32, 64),
                           potential=make_builtin_family("sin2-potential"),
                           eigen_count=3)
    rep = run_eigen_potential(cfg)
    max_rel = [float(rec.rel_errors.max()) for rec in rep.records]
    ok = max_rel[-1] <= 2e-2 and _envelope_nonincreasing(max_rel)
    _criterion("A5", ok,
               f"sin^2 potential vs K0 + M/2 reference: "
               f"rel errs {['%.2e' % e for e in max_rel]}")


def test_a6_spike_potential_sweep():
    cfg = ExperimentConfig(kind="eigen-potential", h_list=(8, 16, 32, 64, 128),
                           potential=make_builtin_family("spike-potential", [2.0]),
                           eigen_count=1)
    rep = run_eigen_potential(cfg)
    rel = float(rep.records[-1].rel_errors[0])
    ok = rel <= 1e-3
    _criterion("A6", ok, f"spike potential vs unperturbed reference: "
                         f"rel err {rel:.2e} at h=128")


def test_a7_gamma_diagnostics():
    h_list = (8, 16, 32, 64, 128, 256)
    families = [make_builtin_family("sin2-potential"),
                make_builtin_family("spike-potential", [2.0]),
                make_builtin_family("const-potential", [1.0])]
    liminf_ok = True
    recovery_ok = True
    details = []
    for fam in families:
        cfg = ExperimentConfig(kind="gamma", h_list=h_list, potential=fam,
                               targets=20, seed=11)
        rep = run_gamma(cfg)
        liminf_ok &= rep.liminf_passed == rep.liminf_total
        final = float(rep.recovery.abs_errors[-1])
        bound = 1e-2 * abs(rep.recovery.limit) + 1e-10
        recovery_ok &= final <= bound
        details.append(f"{fam.name}: liminf {rep.liminf_passed}/{rep.liminf_total}, "
                       f"recovery {final:.2e} <= {bound:.2e}")
    _criterion("A7", liminf_ok and recovery_ok, "; ".join(details))


def test_a8_div_curl_pairing():
    fam = make_builtin_family("osc1d", [2.0])
    src = make_builtin_family("const-source", [1.0])
    tr = div_curl_test(fam, [8, 16, 32, 64], src, (0.25, 0.75))
    rel = float(tr.abs_errors[-1] / abs(tr.limit))
    lead = np.exp(np.mean(np.log(tr.abs_errors[:3]) + np.log([8.0, 16.0, 32.0])))
    prediction = lead / 64.0
    ok = rel <= 2e-2 and tr.abs_errors[-1] <= 3.0 * prediction
    _criterion("A8", ok,
               f"pairing rel err {rel:.2e} at h=64, "
               f"1/h envelope predicts {prediction:.2e}, got {tr.abs_errors[-1]:.2e}")


def test_a9_source_sweep():
    cfg = ExperimentConfig(kind="source-homog", h_list=(4, 8, 16, 32, 64),
                           family=make_builtin_family("osc1d", [2.0]),
                           source=make_builtin_family("const-source", [1.0]))
    rep = run_source_homog(cfg)
    rel = float(rep.records[-1].rel_errors[0])
    exact_norm = (1.0 / (2 * SQRT3)) * math.sqrt(1.0 / 30.0)
    norm_gap = abs(rep.reference_meta["reference_l2_norm"] - exact_norm)
    ok = rel <= 2e-2 and norm_gap <= 1e-6
    _criterion("A9", ok,
               f"L2 rel err {rel:.2e} at h=64; reference norm within "
               f"{norm_gap:.2e} of x(1-x)/(2 sqrt 3)")


def _a10_ellipticity_sandwich() -> bool:
    fam = make_builtin_family("osc1d", [2.0])
    sp = build_space(build_interval_mesh(128), DIRICHLET)
    K = assembly.assemble_stiffness(sp, fam, h=4)
    K1 = assembly.assemble_stiffness(sp, make_builtin_family("const", [1.0]))
    rng = np.random.default_rng(0)
    for _ in range(100):
        u = rng.normal(size=sp.num_dofs)
        base, mid = u @ (K1 @ u), u @ (K @ u)
        if not (fam.alpha * base <= mid * (1 + 1e-10)
                and mid <= fam.beta * base * (1 + 1e-10)):
            return False
    return True


def _a10_eigen_invariants() -> bool:
    sp = build_space(build_interval_mesh(64), DIRICHLET)
    K = assembly.assemble_stiffness(sp, make_builtin_family("twophase1d"), h=2)
    M = assembly.assemble_mass(sp)
    res = eig_smallest(K, M, 4)
    gram_err = np.abs(res.vectors.T @ (M @ res.vectors) - np.eye(4)).max()
    return (gram_err <= 1e-8 and np.all(res.values > 0)
            and np.all(np.diff(res.values) >= 0))


def _a10_continuity_bound() -> bool:
    rng = np.random.default_rng(1)
    B = rng.normal(size=(12, 12))
    K = B @ B.T + 12 * np.eye(12)
    from scipy import sparse

    form = QuadraticForm(sparse.csr_matrix(K))
    for _ in range(1000):
        u, v = rng.normal(size=12), rng.normal(size=12)
        lhs, rhs = form_continuity_probe(form, u, v)
        if lhs > rhs + 1e-12:
            return False
    return True


def _a10_locality() -> bool:
    fam = piecewise_coefficient([
        ((0.0, 0.5), make_builtin_family("osc1d", [2.0])),
        ((0.5, 1.0), make_builtin_family("const", [5.0])),
    ])
    left = locality_check(fam, (0.0, 0.5)).matrix[0, 0]
    right = locality_check(fam, (0.5, 1.0)).matrix[0, 0]
    return abs(left - SQRT3) <= 1e-10 and abs(right - 5.0) <= 1e-12


def _a10_determinism(tmp_path: Path) -> bool:
    env_cmd = [sys.executable, "-m", "gconv.cli", "divcurl",
               "--config", str(REPO / "configs" / "a8_divcurl.json")]
    for out in ("d1", "d2"):
        proc = subprocess.run(env_cmd + ["--out", str(tmp_path / out)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            return False
    a = (tmp_path / "d1" / "a8_divcurl.csv").read_bytes()
    b = (tmp_path / "d2" / "a8_divcurl.csv").read_bytes()
    return a == b


def test_a10_invariant_suites(tmp_path):
    checks = {
        "ellipticity sandwich": _a10_ellipticity_sandwich(),
        "M-orthonormality/ascending positivity": _a10_eigen_invariants(),
        "continuity bound": _a10_continuity_bound(),
        "locality": _a10_locality(),
        "determinism": _a10_determinism(tmp_path),
    }
    ok = all(checks.values())
    _criterion("A10", ok,
               ", ".join(f"{name} {'ok' if good else 'FAILED'}"
                         for name, good in checks.items()))
