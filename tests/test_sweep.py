import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gconv import __version__, assembly, sweep, variational
from gconv.cli import main
from gconv.config import ConfigError, load_config, validate_config
from gconv.families import BUILTINS, ConstantMatrixCoefficient, make_builtin_family
from gconv.homogenize import limit_of
from gconv.linalg import eig_smallest
from gconv.mesh import (
    DIRICHLET,
    build_dirichlet_space,
    build_interval_mesh,
    build_rect_mesh,
    build_space,
)
from gconv.sweep import (
    CLUSTER_GAP,
    PHI_SUPPORT,
    WINDOW_EDGES,
    ExperimentConfig,
    _eigen_sweep,
    _jsonify,
    emit_report,
    fit_rate,
    interpolate_between,
    run_divcurl,
    run_eigen_homog,
    run_eigen_potential,
    run_gamma,
    run_source_homog,
)
from gconv.variational import dirichlet_solves, div_curl_test, window_flux

from conftest import fem_laplacian_eigenvalues, peak_bytes

SQRT3 = math.sqrt(3.0)


def _eigen_cfg(**kw):
    base = dict(kind="eigen-homog", h_list=(4, 8, 16),
                family=make_builtin_family("osc1d", [2.0]), eigen_count=2)
    base.update(kw)
    return ExperimentConfig(**base)


def test_fit_rate_exact_power_laws():
    hs = [4, 8, 16, 32]
    assert abs(fit_rate(hs, [1.0 / h for h in hs]).slope - 1.0) <= 1e-12
    assert abs(fit_rate(hs, [3.0 / h**2 for h in hs]).slope - 2.0) <= 1e-12
    assert abs(fit_rate(hs, [0.7] * 4).slope) <= 1e-12


def test_fit_rate_excludes_nonpositive():
    fit = fit_rate([4, 8, 16, 32], [0.5, 0.0, 0.25, 0.125])
    assert fit.n_used == 3
    assert fit.excluded == (8,)


def test_fit_rate_needs_three_points():
    # below 3 positive errors there is no rate: the NaN fit reports write as null
    fit = fit_rate([4, 8, 16], [1.0, 0.0, 0.0])
    assert math.isnan(fit.slope) and math.isnan(fit.intercept)
    assert fit.n_used == 0
    assert fit.excluded == (4, 8, 16)


def test_config_validation():
    def config(**kw):
        return {"experiment": "eigen-homog", "h_list": [4, 8, 16],
                "family": {"name": "osc1d", "params": [2.0]}, **kw}

    with pytest.raises(ConfigError, match="'h_list': must be strictly ascending"):
        validate_config(config(h_list=[8, 4]))
    with pytest.raises(ConfigError, match="'points_per_period'"):
        validate_config(config(points_per_period=8))
    with pytest.raises(ConfigError, match="'h_list': mesh of .* exceeds the budget"):
        validate_config(config(h_list=[4, 1 << 16]))
    with pytest.raises(ConfigError, match="'h_list': mesh of .* exceeds the budget"):
        validate_config(config(family={"name": "laminate2d"}, h_list=[4, 64]))
    # homogenize sizes its mesh by cell_resolution, not by the ladder
    validate_config(config(experiment="homogenize",
                           family={"name": "laminate2d"}, h_list=[4, 64]))


def test_interpolate_between_1d_nested_exact():
    coarse = build_space(build_interval_mesh(8), DIRICHLET)
    fine = build_space(build_interval_mesh(32), DIRICHLET)
    u = coarse.interpolate(lambda p: p[:, 0] * (1 - p[:, 0]))
    v = interpolate_between(coarse, u, fine)
    # piecewise-linear on the coarse mesh, reproduced exactly on nested nodes
    xs = fine.dof_coordinates()[:, 0]
    expected = np.interp(xs, coarse.mesh.vertices[:, 0],
                         np.concatenate([[0], u, [0]]))
    assert np.allclose(v, expected, atol=1e-15)


def test_interpolate_between_2d_nested_exact():
    coarse = build_space(build_rect_mesh(4, 4), DIRICHLET)
    fine = build_space(build_rect_mesh(8, 8), DIRICHLET)
    rng = np.random.default_rng(2)
    u = rng.normal(size=coarse.num_dofs)
    v = interpolate_between(coarse, u, fine)
    # nested refinement with the same diagonal orientation preserves P1
    back = interpolate_between(fine, v, coarse)
    assert np.allclose(back, u, atol=1e-13)


def test_eigen_homog_const_family_flat_errors():
    cfg = _eigen_cfg(family=make_builtin_family("const", [2.0]),
                     h_list=(4, 8, 16))
    rep = run_eigen_homog(cfg)
    # h-independent family: the only error is the FEM gap between meshes
    for rec in rep.records:
        assert rec.rel_errors.max() <= 2e-4
    # top rung shares the reference mesh: agreement at solver tolerance
    assert rep.records[-1].rel_errors.max() <= 1e-11


def test_eigen_homog_two_phase_limits():
    cfg = _eigen_cfg(family=make_builtin_family("twophase1d", [1.0, 4.0]),
                     h_list=(4, 8, 16, 32), eigen_count=3)
    rep = run_eigen_homog(cfg)
    continuum = 1.6 * np.pi**2 * np.array([1.0, 4.0, 9.0])
    assert np.abs((rep.reference - continuum) / continuum).max() <= 1e-3
    assert rep.records[-1].rel_errors.max() <= 2e-2


def test_eigen_homog_positivity_and_order():
    rep = run_eigen_homog(_eigen_cfg())
    for rec in rep.records:
        assert np.all(rec.values > 0)
        assert np.all(np.diff(rec.values) >= 0)
        assert np.all(rec.residuals <= 1e-10)


def test_eigen_homog_common_mode_fem_control():
    # doubling the per-period resolution at the top rung moves the
    # eigenvalues by less than the reported error (max over modes)
    cfg = _eigen_cfg(h_list=(4, 8))
    rep = run_eigen_homog(cfg)
    doubled = run_eigen_homog(_eigen_cfg(h_list=(4, 8), points_per_period=64))
    shift = np.abs(rep.records[-1].values - doubled.records[-1].values)
    assert shift.max() <= rep.records[-1].abs_errors.max()


@pytest.mark.parametrize("source", ["const-source", "osc-source"])
def test_source_homog_osc1d_reference_norm(source):
    # the reference solves the limit problem, with the limit source f = 1
    cfg = ExperimentConfig(
        kind="source-homog", h_list=(4, 8, 16),
        family=make_builtin_family("osc1d", [2.0]),
        source=make_builtin_family(source, [1.0]))
    rep = run_source_homog(cfg)
    # nodal interpolation shifts the discrete norm by O(delta^2)
    exact_norm = (1.0 / (2 * SQRT3)) * math.sqrt(1.0 / 30.0)
    assert abs(rep.reference_meta["reference_l2_norm"] - exact_norm) <= 5e-7
    rel = [rec.rel_errors[0] for rec in rep.records]
    assert rel[-1] < rel[0]


def test_source_homog_osc_source_same_limit():
    base = ExperimentConfig(
        kind="source-homog", h_list=(4, 8, 16),
        family=make_builtin_family("osc1d", [2.0]),
        source=make_builtin_family("const-source", [1.0]))
    osc = ExperimentConfig(
        kind="source-homog", h_list=(4, 8, 16),
        family=make_builtin_family("osc1d", [2.0]),
        source=make_builtin_family("osc-source", [1.0]))
    rep_base = run_source_homog(base)
    rep_osc = run_source_homog(osc)
    # f_h = 1 + sin(2 pi x)/h converges strongly to 1: same limit problem
    assert rep_osc.records[-1].rel_errors[0] <= rep_base.records[-1].rel_errors[0] + 2e-3


def test_eigen_potential_const_exact_agreement():
    cfg = ExperimentConfig(kind="eigen-potential", h_list=(4, 8),
                           potential=make_builtin_family("const-potential", [1.0]),
                           eigen_count=2)
    rep = run_eigen_potential(cfg)
    # no oscillation: errors are pure FEM mesh differences, zero at the top rung
    assert rep.records[-1].rel_errors.max() <= 1e-12
    assert rep.records[0].rel_errors.max() <= 1e-3


def test_eigen_potential_sin2_limits():
    cfg = ExperimentConfig(kind="eigen-potential", h_list=(4, 8, 16, 32),
                           potential=make_builtin_family("sin2-potential"),
                           eigen_count=3)
    rep = run_eigen_potential(cfg)
    continuum = np.pi**2 * np.array([1.0, 4.0, 9.0]) + 0.5
    assert np.abs((rep.reference - continuum) / continuum).max() <= 1e-4
    assert np.all(rep.records[-1].limit_residuals
                  <= rep.records[0].limit_residuals)


def test_eigen_potential_min_max_monotonicity():
    # adding a nonnegative potential never decreases any eigenvalue
    base = ExperimentConfig(kind="eigen-potential", h_list=(4, 8),
                            potential=make_builtin_family("const-potential", [0.0]),
                            eigen_count=3)
    bumped = ExperimentConfig(kind="eigen-potential", h_list=(4, 8),
                              potential=make_builtin_family("sin2-potential"),
                              eigen_count=3)
    v0 = run_eigen_potential(base).records[-1].values
    v1 = run_eigen_potential(bumped).records[-1].values
    assert np.all(v1 >= v0 - 1e-10)


def test_gamma_runner_all_pass():
    cfg = ExperimentConfig(kind="gamma", h_list=(8, 16, 32, 64),
                           potential=make_builtin_family("sin2-potential"),
                           targets=5, seed=3)
    rep = run_gamma(cfg)
    assert rep.liminf_passed == rep.liminf_total == 5
    assert np.all(rep.liminf_margins >= 0.0)
    assert rep.recovery.abs_errors[-1] <= 1e-2 * abs(rep.recovery.limit) + 1e-10


def test_gamma_runner_holds_one_target_block():
    # the targets budget (config.MAX_BASIS_DOUBLES) counts one (n, t) block:
    # the draw is smoothed in place, not into a second block
    cfg = ExperimentConfig(kind="gamma", h_list=(8, 16),
                           potential=make_builtin_family("sin2-potential"),
                           targets=1000, seed=3)
    block = 8 * (cfg.points_per_period * 16 - 1) * cfg.targets
    assert peak_bytes(lambda: run_gamma(cfg))[0] <= 1.25 * block


@pytest.mark.parametrize("name,params,limit", [
    ("sin2-potential", [], None), ("sin2-potential", [], 0.45),
    ("spike-potential", [2.0], None), ("spike-potential", [2.0], 0.005),
    ("const-potential", [1.0], None), ("const-potential", [1.0], 0.9),
], ids=["sin2", "sin2-0.45", "spike", "spike-0.005", "const", "const-0.9"])
def test_gamma_check_fails_a_wrong_limit(tmp_path, capsys, monkeypatch, name, params,
                                         limit):
    # a family whose declared limit is replaced by a wrong constant must fail
    # the check on A7's ladder, and the true limit must pass
    build, most = BUILTINS[name]
    if limit is not None:
        mutant = replace(build(*params), limit=lambda x: np.full(np.shape(x)[:-1], limit))
        monkeypatch.setitem(BUILTINS, name, (lambda *p: mutant, most))
    cfg = tmp_path / "gamma_cfg.json"
    cfg.write_text(json.dumps({"experiment": "gamma", "h_list": [8, 16, 32, 64, 128, 256],
                               "potential": {"name": name, "params": params}}))
    code = main(["gamma-check", "--config", str(cfg), "--out", str(tmp_path)])
    liminf = json.loads((tmp_path / "gamma.json").read_text())["liminf"]
    if limit is None:
        assert code == 0 and liminf["passed"] == liminf["total"] == 20
    else:
        assert code == 2 and liminf["passed"] < liminf["total"]
        assert "stage 'gamma liminf sampling'" in capsys.readouterr().err


def _count_calls(monkeypatch, name):
    """Arguments of every ``assembly.<name>`` call the test makes from here on."""
    calls = []
    original = getattr(assembly, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(assembly, name, counting)
    return calls


@pytest.fixture
def mass_calls(monkeypatch):
    return _count_calls(monkeypatch, "assemble_mass")


def test_gamma_runner_assembles_each_potential_once(mass_calls):
    # one V_h per rung, the limit V and the plain mass matrix, however many
    # targets share them
    cfg = ExperimentConfig(kind="gamma", h_list=(8, 16, 32),
                           potential=make_builtin_family("sin2-potential"),
                           targets=4, seed=3)
    run_gamma(cfg)
    assert len(mass_calls) == len(cfg.h_list) + 2


def test_potential_sweep_shares_the_finest_mass(mass_calls):
    # the unit mass and V_h per rung, the limit V once; the top rung reuses
    # the unit mass of the finest space
    cfg = ExperimentConfig(kind="eigen-potential", h_list=(4, 8, 16),
                           potential=make_builtin_family("sin2-potential"),
                           eigen_count=2)
    run_eigen_potential(cfg)
    assert len(mass_calls) == 2 * len(cfg.h_list) + 1


def test_potential_sweep_assembles_the_limit_stiffness_and_one_per_rung(monkeypatch):
    # as a family sweep: the limit pencil's K0 and one per rung, each of the
    # identity coefficient; the reference and the top rung share the finest space
    path = Path(__file__).resolve().parent.parent / "configs" / "a5_sin2.json"
    cfg = validate_config(load_config(path))
    calls = _count_calls(monkeypatch, "assemble_stiffness")
    run_eigen_potential(cfg)
    assert len(calls) == len(cfg.h_list) + 1 == 6
    assert len({id(args[0]) for args in calls}) == 5
    assert all(np.array_equal(args[1].matrix, np.eye(1)) for args in calls)


@pytest.mark.parametrize("config", ["a3_osc1d", "a5_sin2", "a6_spike", "a5_osc1d_sin2"])
def test_1d_reference_is_the_closed_form(monkeypatch, config):
    # the nodal sines, normalized in M, with no eigensolve; their values lie
    # within 9.1e-11 (a5_sin2) of a* lambda_k + V, and within 1.4e-12 of the
    # eigensolve of the assembled limit pencil
    path = Path(__file__).resolve().parent.parent / "configs" / f"{config}.json"
    cfg = validate_config(load_config(path))
    solves = []
    monkeypatch.setattr(sweep, "eig_smallest", lambda *a, **kw: solves.append(a) or
                        eig_smallest(*a, **kw))
    rep = _eigen_sweep(cfg)
    assert len(solves) == len(cfg.h_list)
    limit = limit_of(cfg.family, cfg.potential)
    space = build_dirichlet_space(1, rep.reference_meta["finest_cells"])
    K, M = pencil = limit.pencil(space)
    k, n = cfg.eigen_count, space.mesh.num_cells
    ref = limit.spectrum(space, pencil, k)
    np.testing.assert_array_equal(rep.reference, ref.values)
    # sin(j pi x) has the M-norm sqrt((3 - 2 s) / 6), s = sin^2(j pi / 2n)
    j = np.arange(1, k + 1)
    s = np.sin(j * np.pi / (2 * n)) ** 2
    sines = np.sin(np.pi * np.outer(space.dof_coordinates()[:, 0], j)) / np.sqrt((3 - 2 * s) / 6)
    np.testing.assert_allclose(ref.vectors, sines, rtol=0, atol=1e-12)
    a = limit.coefficient.matrix[0, 0]
    v = 0.0 if limit.potential is None else limit.potential.values_at(1, np.zeros((1, 1)))[0]
    closed = a * fem_laplacian_eigenvalues(n, k) + v
    np.testing.assert_allclose(rep.reference, closed, rtol=1e-10, atol=0)
    np.testing.assert_allclose(rep.reference, eig_smallest(K, M, k).values, rtol=1e-11, atol=0)


def test_2d_reference_is_eigen_solved(monkeypatch):
    solves = []
    monkeypatch.setattr(sweep, "eig_smallest", lambda *a, **kw: solves.append(a) or
                        eig_smallest(*a, **kw))
    cfg = _eigen_cfg(family=make_builtin_family("laminate2d", [1.0, 4.0]), h_list=(1, 2))
    limit, space = limit_of(cfg.family), build_dirichlet_space(2, 8)
    assert limit.spectrum(space, limit.pencil(space), 2) is None
    run_eigen_homog(cfg)
    assert len(solves) == len(cfg.h_list) + 1


def test_eigen_homog_sweep_assembles_no_potential(monkeypatch, mass_calls):
    # without a potential: the limit stiffness and one per rung, and only the
    # unit masses (the finest one shared by the top rung)
    cfg = _eigen_cfg(h_list=(4, 8, 16))
    stiffness_calls = _count_calls(monkeypatch, "assemble_stiffness")
    run_eigen_homog(cfg)
    assert len(stiffness_calls) == len(cfg.h_list) + 1
    assert isinstance(stiffness_calls[0][1], ConstantMatrixCoefficient)
    assert all(args[1] is cfg.family for args in stiffness_calls[1:])
    assert len(mass_calls) == len(cfg.h_list)
    assert all(len(args) == 1 for args in mass_calls)  # no weight


def test_unit_family_with_potential_is_the_potential_sweep():
    # const [1] has the limit 1, so K(const) + V_h is K0 + V_h up to round-off
    potential = make_builtin_family("sin2-potential")
    both = run_eigen_homog(_eigen_cfg(family=make_builtin_family("const", [1.0]),
                                      potential=potential))
    alone = run_eigen_potential(ExperimentConfig(
        kind="eigen-potential", h_list=(4, 8, 16), potential=potential,
        eigen_count=2))
    assert both.reference_meta["potential"] == "sin2-potential"
    assert both.reference_meta["tensor"][0, 0] == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(both.reference, alone.reference, rtol=1e-12, atol=0)
    for rec, rec_alone in zip(both.records, alone.records, strict=True):
        np.testing.assert_allclose(rec.values, rec_alone.values, rtol=1e-12, atol=0)


def test_potential_raises_every_rung_eigenvalue():
    # min-max: V_h >= 0 and not zero, so every eigenvalue strictly grows
    bare = run_eigen_homog(_eigen_cfg(eigen_count=3))
    bumped = run_eigen_homog(_eigen_cfg(
        eigen_count=3, potential=make_builtin_family("sin2-potential")))
    assert np.all(bumped.reference > bare.reference)
    for rec, rec_bare in zip(bumped.records, bare.records, strict=True):
        assert np.all(rec.values > rec_bare.values)


def test_combined_config_converges_by_a3_rule():
    # osc1d and sin2 oscillate together: top rung within 2e-2 and the max-rel
    # envelope non-increasing up to a factor 1.2, as A3 asks of osc1d alone
    path = Path(__file__).resolve().parent.parent / "configs" / "a5_osc1d_sin2.json"
    cfg = validate_config(load_config(path))
    assert cfg.family.name == "osc1d" and cfg.potential.name == "sin2-potential"
    rep = run_eigen_homog(cfg)
    max_rel = [float(rec.rel_errors.max()) for rec in rep.records]
    assert max_rel[-1] <= 2e-2
    assert all(b <= 1.2 * a for a, b in zip(max_rel, max_rel[1:]))
    assert all(rec.residuals.max() <= cfg.eig_tol for rec in rep.records)
    assert set(rep.reference_meta) == {"tensor", "provenance", "tensor_est_error",
                                       "potential", "finest_cells"}


def test_potential_sweep_interpolates_each_vector_once(monkeypatch):
    # the eigenvector errors and the limit residuals share one interpolation,
    # one product per rung for the whole block of eigenvectors
    calls = []
    interpolate = sweep.interpolate_between

    def counting(*args):
        calls.append(args)
        return interpolate(*args)

    monkeypatch.setattr(sweep, "interpolate_between", counting)
    cfg = ExperimentConfig(kind="eigen-potential", h_list=(4, 8, 16),
                           potential=make_builtin_family("sin2-potential"),
                           eigen_count=2)
    run_eigen_potential(cfg)
    assert len(calls) == len(cfg.h_list)
    assert all(u.shape[1] == cfg.eigen_count for _, u, _ in calls)


def test_divcurl_runner_envelope():
    cfg = ExperimentConfig(kind="divcurl", h_list=(8, 16, 32, 64),
                           family=make_builtin_family("osc1d", [2.0]),
                           source=make_builtin_family("const-source", [1.0]))
    rep = run_divcurl(cfg)
    assert rep.trace.abs_errors[-1] <= 3.0 * rep.envelope_prediction
    assert rep.flux_windows["abs_errors"].max() <= 5e-3


def test_divcurl_runner_factors_each_matrix_once(monkeypatch):
    # the pairing trace and the flux windows share the top-rung space and its
    # u_h and u_star: one factorization per rung plus the limit problem
    calls = []
    cholesky = variational.cholesky

    def counting(K):
        calls.append(K.shape)
        return cholesky(K)

    monkeypatch.setattr(variational, "cholesky", counting)
    path = Path(__file__).resolve().parent.parent / "configs" / "a8_divcurl.json"
    cfg = validate_config(load_config(path))
    rep = run_divcurl(cfg)
    assert len(calls) == len(cfg.h_list) + 1 == 5
    # the shared solves give what each diagnostic computes on its own
    trace = div_curl_test(cfg.family, cfg.h_list, cfg.source, PHI_SUPPORT)
    h = max(cfg.h_list)
    space, limit, u = dirichlet_solves(cfg.family, cfg.source, cfg.points_per_period * h)
    assert np.array_equal(rep.trace.values, trace.values)
    assert rep.trace.limit == trace.limit
    assert np.array_equal(rep.flux_windows["flux_averages"],
                          window_flux(space, cfg.family, h, u(h), WINDOW_EDGES))
    assert np.array_equal(rep.flux_windows["reference_averages"],
                          window_flux(space, limit, 1, u(None), WINDOW_EDGES))


def test_source_runner_factors_through_the_dirichlet_solve(monkeypatch):
    # every rung and the reference u_star go through variational.dirichlet_solve:
    # one factorization each, the top rung on the finest space
    calls = []
    cholesky = variational.cholesky

    def counting(K):
        calls.append(K.shape)
        return cholesky(K)

    monkeypatch.setattr(variational, "cholesky", counting)
    path = Path(__file__).resolve().parent.parent / "configs" / "a9_source.json"
    cfg = validate_config(load_config(path))
    run_source_homog(cfg)
    assert len(calls) == len(cfg.h_list) + 1 == 6
    finest = cfg.points_per_period * max(cfg.h_list) - 1
    assert calls.count((finest, finest)) == 2


def test_emit_csv_shape(tmp_path):
    cfg = _eigen_cfg(h_list=(4, 8, 16))
    rep = run_eigen_homog(cfg)
    path = tmp_path / "r.csv"
    emit_report(rep, "csv", path, cfg)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "h,k,value,reference,abs_err,rel_err"
    assert len(rows) == 1 + 3 * 2  # 3 rungs x k=2
    first = rows[1].split(",")
    assert first[0] == "4" and first[1] == "1"


def test_emit_json_roundtrip(tmp_path):
    # the kind and the config come from the config the report was run from
    cfg = _eigen_cfg(h_list=(4, 8, 16), echo={"experiment": "eigen-homog", "seed": 3})
    rep = run_eigen_homog(cfg)
    path = tmp_path / "r.json"
    emit_report(rep, "json", path, cfg)
    with open(path) as fh:
        parsed = json.load(fh)
    assert parsed == {"kind": "eigen-homog", "tool_version": __version__,
                      "config": cfg.echo, **_jsonify(rep.body())}


def test_emit_unknown_format(tmp_path):
    cfg = _eigen_cfg(h_list=(4, 8, 16))
    rep = run_eigen_homog(cfg)
    with pytest.raises(ValueError, match="format"):
        emit_report(rep, "xml", tmp_path / "r.xml", cfg)


def test_cluster_gap_constant_sane():
    assert 0 < CLUSTER_GAP < 1e-3


def test_eigenvector_errors_cluster_uses_subspace_distance():
    from scipy import sparse

    from gconv.sweep import eigenvector_errors

    n = 7
    eye = sparse.identity(n, format="csr")
    rng = np.random.default_rng(4)
    basis, _ = np.linalg.qr(rng.normal(size=(n, 3)))
    # rotate inside the degenerate pair: individual vectors differ, the
    # spanned subspace does not
    c, s = np.cos(0.7), np.sin(0.7)
    rotated = basis.copy()
    rotated[:, 1] = c * basis[:, 1] + s * basis[:, 2]
    rotated[:, 2] = -s * basis[:, 1] + c * basis[:, 2]
    ref_values = np.array([1.0, 2.0, 2.0])
    errs = eigenvector_errors(rotated, basis, eye, ref_values)
    assert errs[0] <= 1e-12
    assert errs[1] <= 1e-10 and errs[2] <= 1e-10
