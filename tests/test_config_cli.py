import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gconv import homogenize, linalg, sweep
from gconv.cli import main
from gconv.config import (
    FAMILY_CLASSES,
    ConfigError,
    apply_overrides,
    schema_help,
    validate_config,
)
from gconv.families import BUILTINS, make_builtin_family
from gconv.linalg import ConvergenceError
from gconv.sweep import EXPERIMENTS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _minimal(kind="eigen-homog", **extra):
    doc = {"experiment": kind, "h_list": [4, 8]}
    if kind in ("eigen-homog", "homogenize"):
        doc["family"] = {"name": "osc1d", "params": [2.0]}
    if kind == "source-homog":
        doc["family"] = {"name": "osc1d", "params": [2.0]}
        doc["source"] = {"name": "const-source"}
    if kind in ("eigen-potential", "gamma"):
        doc["potential"] = {"name": "sin2-potential"}
    doc.update(extra)
    return doc


def test_validate_fills_defaults():
    eff = validate_config(_minimal()).echo
    assert eff["points_per_period"] == 32
    assert eff["solver"]["eig_tol"] == 1e-10
    assert eff["seed"] == 0


def test_unknown_key_rejected_with_name():
    for key in ("mesh_size", "quad_order", "quad_points"):
        with pytest.raises(ConfigError, match=f"'{key}': unknown key"):
            validate_config(_minimal(**{key: 5}))
    with pytest.raises(ConfigError, match="'family.gamma'"):
        validate_config(_minimal(family={"name": "osc1d", "gamma": 2}))


def test_missing_required_key():
    with pytest.raises(ConfigError, match="'experiment'"):
        validate_config({"h_list": [4]})
    with pytest.raises(ConfigError, match="'potential'"):
        validate_config({"experiment": "eigen-potential", "h_list": [4]})


def test_type_errors_name_key():
    with pytest.raises(ConfigError, match="'h_list'"):
        validate_config(_minimal(h_list="4,8"))
    with pytest.raises(ConfigError, match="'points_per_period'"):
        validate_config(_minimal(points_per_period=8.5))


def test_h_list_must_ascend():
    with pytest.raises(ConfigError, match="ascending"):
        validate_config(_minimal(h_list=[8, 4]))
    with pytest.raises(ConfigError, match="ascending"):
        validate_config(_minimal(h_list=[4, 4]))


def test_overrides_dotted_paths():
    doc = apply_overrides(_minimal(), ["solver.eig_tol=1e-8", "eigen_count=5"])
    eff = validate_config(doc).echo
    assert eff["solver"]["eig_tol"] == 1e-8
    assert eff["eigen_count"] == 5


def test_overrides_json_values():
    doc = apply_overrides(_minimal(), ["h_list=[4,8,16]"])
    assert validate_config(doc).echo["h_list"] == [4, 8, 16]


def test_overrides_reject_unknown_and_type():
    doc = apply_overrides(_minimal(), ["solver.cg_tol=1e-8"])
    with pytest.raises(ConfigError, match="'solver.cg_tol': unknown key"):
        validate_config(doc)
    doc = apply_overrides(_minimal(), ["eigen_count=banana"])
    with pytest.raises(ConfigError, match="'eigen_count'"):
        validate_config(doc)


def test_override_through_null_or_non_object(tmp_path, capsys):
    # a null on the path starts a fresh object, as an absent key does
    doc = apply_overrides(_minimal(solver=None), ["solver.eig_tol=1e-8"])
    assert validate_config(doc).echo["solver"] == {"eig_tol": 1e-8}
    for solver, code in ((None, 0), (5, 1)):
        cfg = _write(tmp_path, _minimal(solver=solver))
        assert main(["validate", "--config", str(cfg),
                     "--set", "solver.eig_tol=1e-8"]) == code
    err = capsys.readouterr().err
    assert "config key 'solver' holds 5, not an object" in err
    assert "Traceback" not in err


def test_validate_config_builds_families():
    exp = validate_config(_minimal())
    assert exp.family.name == "osc1d"
    assert exp.kind == "eigen-homog"


def test_schema_help_lists_keys_and_defaults():
    text = schema_help("eigen-homog")
    for key in ("experiment", "h_list", "points_per_period", "solver.eig_tol",
                "family.name", "output.csv", "seed"):
        assert key in text
    assert "default" in text
    assert text.endswith("required for this subcommand: family; optional: potential")
    assert schema_help("eigen-potential").endswith(
        "required for this subcommand: potential; optional: family")
    assert schema_help("gamma").endswith("required for this subcommand: potential")


def _write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def test_cli_sweep_eigen_writes_reports(tmp_path):
    cfg = _write(tmp_path, _minimal())
    code = main(["sweep-eigen", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "report.json").exists()
    with open(tmp_path / "report.json") as fh:
        doc = json.load(fh)
    assert doc["kind"] == "eigen-homog"
    assert doc["config"]["experiment"] == "eigen-homog"


def test_cli_config_error_exit_1(tmp_path, capsys):
    cfg = _write(tmp_path, _minimal(typo_key=1))
    code = main(["sweep-eigen", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    assert "typo_key" in capsys.readouterr().err


def test_cli_kind_mismatch_exit_1(tmp_path, capsys):
    cfg = _write(tmp_path, _minimal("eigen-homog"))
    code = main(["sweep-source", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    assert "experiment" in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path, capsys):
    code = main(["sweep-eigen", "--config", str(tmp_path / "nope.json")])
    assert code == 1


def test_cli_resolution_failure_exit_2(tmp_path, capsys, monkeypatch):
    # sin^2 oscillates at scale 1/(2h): 16 mesh points per period alias it.
    # Validation refuses such a config (test_under_resolved_family_exit_1);
    # past it, assembly's own check still stops the run and names the stage
    monkeypatch.setattr("gconv.config.check_resolution", lambda *args: None)
    cfg = _write(tmp_path, _minimal("eigen-potential"))
    code = main(["sweep-potential", "--config", str(cfg), "--out", str(tmp_path),
                 "--set", "points_per_period=16"])
    assert code == 2
    err = capsys.readouterr().err
    assert "gconv: numerical failure at stage 'resolution check': " in err


@pytest.mark.parametrize("subcommand,doc", [
    ("gamma-check", {"experiment": "gamma", "h_list": [2, 4], "points_per_period": 16}),
    ("sweep-potential", {"experiment": "eigen-potential", "h_list": [2, 4, 8],
                         "points_per_period": 24}),
], ids=["gamma", "eigen-potential"])
def test_under_resolved_family_exit_1(tmp_path, capsys, subcommand, doc):
    # sin^2 repeats every 1/(2h), so it needs 32 points per period of h: gamma
    # samples every h on the finest mesh, the sweep each h on its rung's own
    cfg = _write(tmp_path, {**doc, "potential": {"name": "sin2-potential"}})
    for argv in ([subcommand, "--out", str(tmp_path)], ["validate"]):
        assert main(argv + ["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "config key 'points_per_period': potential 'sin2-potential'" in err
        assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("h_list", [[811], [146, 291]])
def test_exactly_resolved_meshes_validate(h_list):
    # 32 points per period give sin^2 exactly 16 points per feature; the
    # largest linspace step of these meshes exceeds 1/n by a fraction of an ulp
    validate_config({"experiment": "gamma", "potential": {"name": "sin2-potential"},
                     "h_list": h_list})


def test_cli_factorization_failure_exit_2(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(linalg, "splu", singular)
    cfg = _write(tmp_path, _minimal())
    assert main(["sweep-eigen", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert ("gconv: numerical failure at stage 'factorization': not positive "
            "definite: Factor is exactly singular") in err
    assert "Traceback" not in err


def test_cli_eigensolver_failure_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, _minimal())
    code = main(["sweep-eigen", "--config", str(cfg), "--out", str(tmp_path),
                 "--set", "eigen_count=1", "--set", "solver.eig_tol=1e-18"])
    assert code == 2
    err = capsys.readouterr().err
    assert "eigensolver" in err


def test_cli_unreachable_tolerance_fails_fast_naming_rung(tmp_path, capsys):
    # the residual floor of the 32768-cell limit pencil lies above eig_tol 1e-10
    cfg = _write(tmp_path, {"experiment": "eigen-homog",
                            "family": {"name": "osc1d", "params": [2.0]},
                            "h_list": [128, 256, 512, 1024],
                            "points_per_period": 32})
    code = main(["sweep-eigen", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "stage 'eigensolver': reference: " in err
    assert "worst residual" in err and "exceeds tol 1.0e-10" in err


def test_cli_cell_problem_cg_failure_names_stage_and_resolution(tmp_path, capsys,
                                                                 monkeypatch):
    # an unreachable CG tolerance fails fast at the cell problem, not the
    # eigensolver, with the resolution and the residual CG stopped at
    monkeypatch.setattr(homogenize, "CG_RTOL", 1e-30)
    cfg = _write(tmp_path, {"experiment": "homogenize", "cell_resolution": 32,
                            "family": {"name": "laminate2d", "params": [1.0, 4.0]}})
    t0 = time.perf_counter()
    code = main(["homogenize", "--config", str(cfg), "--out", str(tmp_path)])
    assert time.perf_counter() - t0 <= 2.0
    assert code == 2
    err = capsys.readouterr().err
    assert "stage 'cell problem': cell_problem_2d(resolution=32): " in err
    assert "relative residual" in err and "Traceback" not in err


@pytest.mark.parametrize("subcommand,kind", [("sweep-eigen", "eigen-homog"),
                                              ("sweep-potential", "eigen-potential")])
def test_cli_eigensolver_failure_names_rung_h(tmp_path, capsys, monkeypatch,
                                              subcommand, kind):
    # the h=8 rung (256 cells, 255 dofs) fails; the reference pencil is larger
    eig_smallest = sweep.eig_smallest

    def rung_fails(K, M, k, tol):
        if K.shape[0] == 255:
            raise ConvergenceError("eig_smallest: worst residual 1e-09 exceeds tol")
        return eig_smallest(K, M, k, tol=tol)

    monkeypatch.setattr(sweep, "eig_smallest", rung_fails)
    cfg = _write(tmp_path, _minimal(kind, h_list=[4, 8, 16]))
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "stage 'eigensolver': h=8: eig_smallest: worst residual" in \
        capsys.readouterr().err


@pytest.mark.parametrize("key,name,subcommand,kind", [
    ("family", "sin2-potential", "sweep-eigen", "eigen-homog"),
    ("potential", "osc1d", "gamma-check", "gamma"),
    ("source", "osc1d", "sweep-source", "source-homog"),
    ("family", "const-source", "sweep-source", "source-homog"),
])
def test_cli_family_of_wrong_class_exit_1(tmp_path, capsys, key, name,
                                          subcommand, kind):
    doc = _minimal(kind, **{key: {"name": name}})
    with pytest.raises(ConfigError, match=f"config key '{key}': '{name}' is a"):
        validate_config(doc)
    cfg = _write(tmp_path, doc)
    for argv in ([subcommand, "--out", str(tmp_path)], ["validate"]):
        assert main(argv + ["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"config key '{key}': '{name}' is a" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("subcommand,kind,key,spec", [
    ("sweep-eigen", "eigen-homog", "source", {"name": "const-source"}),
    ("gamma-check", "gamma", "source", {"name": "osc-source"}),
    ("homogenize", "homogenize", "potential", {"name": "const-potential"}),
    ("sweep-potential", "eigen-potential", "source", {"name": "const-source"}),
], ids=["sweep-eigen-eigen-homog-source-spec1", "gamma-check-gamma-source-spec3",
        "homogenize-homogenize-potential-spec4", "sweep-potential-source"])
def test_cli_unread_family_key_exit_1(tmp_path, capsys, subcommand, kind, key, spec):
    # a family the experiment never reads would be echoed as if it were used;
    # the eigen operator -div(A_h grad) + V_h reads no source
    doc = _minimal(kind, **{key: spec})
    message = f"config key '{key}': experiment '{kind}' does not read it"
    with pytest.raises(ConfigError, match=message):
        validate_config(doc)
    cfg = _write(tmp_path, doc)
    for argv in ([subcommand, "--out", str(tmp_path / "out")], ["validate"]):
        assert main(argv + ["--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind,key,spec", [
    ("eigen-homog", "potential", {"name": "sin2-potential"}),
    ("eigen-potential", "family", {"name": "osc1d", "params": [2.0]}),
])
def test_eigen_kinds_read_the_other_operator_key(tmp_path, capsys, kind, key, spec):
    # -div(A_h grad) + V_h: each eigen kind needs one key and may take the other
    doc = _minimal(kind, **{key: spec})
    assert getattr(validate_config(doc), key).name == spec["name"]
    assert main(["validate", "--config", str(_write(tmp_path, doc))]) == 0
    assert "config ok" in capsys.readouterr().out


def test_cli_potential_with_2d_family_exit_1(tmp_path, capsys):
    # built-in potentials are 1D; a 2D family must not reach the assembly
    cfg = _write(tmp_path, _minimal("eigen-potential",
                                    family={"name": "laminate2d", "params": [1.0, 4.0]}))
    for argv in (["sweep-potential", "--out", str(tmp_path / "out")], ["validate"]):
        assert main(argv + ["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert ("config key 'potential': built-in potentials are 1D, but family "
                "'laminate2d' is 2D") in err
        assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config,key", [("a5_sin2.json", "potential"),
                                        ("a9_source.json", "source")])
def test_sequence_specs_take_only_name_and_params(capsys, config, key):
    # only a coefficient family declares ellipticity bounds
    doc = json.loads((CONFIGS / config).read_text())
    assert set(validate_config(doc).echo[key]) == {"name", "params"}
    for bound in ("alpha", "beta"):
        with pytest.raises(ConfigError, match=f"'{key}.{bound}': unknown key"):
            validate_config({**doc, key: {**doc[key], bound: 1.0}})
        assert main(["validate", "--config", str(CONFIGS / config),
                     "--set", f"{key}.{bound}=-5"]) == 1
        assert f"config key '{key}.{bound}': unknown key" in capsys.readouterr().err


_DIVCURL = {"family": {"name": "osc1d", "params": [2.0]},
            "source": {"name": "const-source"}}


@pytest.mark.parametrize("subcommand,kind,extra,key", [
    ("sweep-eigen", "eigen-homog", {"h_list": [0, 4, 8]}, "h_list"),
    ("sweep-source", "source-homog", {"windows": 0}, "windows"),
    ("divcurl", "divcurl", {"windows": 100000, **_DIVCURL}, "windows"),
    # 1000 strips on the 128 cells of the h=4 rung: strips with no
    # quadrature point give NaN probes
    ("sweep-source", "source-homog", {"windows": 1000}, "windows"),
    ("divcurl", "divcurl", {"phi_support": [0.5, 0.5], **_DIVCURL}, "phi_support"),
    # a bump outside the domain, or narrower than two cells of the h=8 mesh,
    # is zero at every dof: the pairing would check nothing
    ("divcurl", "divcurl", {"phi_support": [2, 3], **_DIVCURL}, "phi_support"),
    ("divcurl", "divcurl", {"phi_support": [0.5, 0.5001], **_DIVCURL},
     "phi_support"),
    ("homogenize", "homogenize",
     {"cell_resolution": 0, "family": {"name": "laminate2d"}}, "cell_resolution"),
    # the h=4 rung has 127 dofs
    ("sweep-eigen", "eigen-homog", {"eigen_count": 128}, "eigen_count"),
    ("gamma-check", "gamma", {"targets": -1}, "targets"),
    # no target sampled: the liminf check would pass on 0 of 0
    ("gamma-check", "gamma", {"targets": 0}, "targets"),
    ("gamma-check", "gamma", {"seed": -1}, "seed"),
    # no residual meets a tolerance <= 0 or NaN
    ("sweep-eigen", "eigen-homog", {"solver": {"eig_tol": 0.0}}, "solver.eig_tol"),
    ("sweep-potential", "eigen-potential", {"solver": {"eig_tol": -1.0}},
     "solver.eig_tol"),
    ("sweep-eigen", "eigen-homog", {"solver": {"eig_tol": math.nan}},
     "solver.eig_tol"),
    # JSON reads Infinity and NaN: an infinite tolerance accepts every
    # residual, and a NaN probe writes an all-null recovery trace
    ("sweep-eigen", "eigen-homog", {"solver": {"eig_tol": math.inf}},
     "solver.eig_tol"),
    ("gamma-check", "gamma", {"affine": [math.nan, 0.0]}, "affine"),
    ("gamma-check", "gamma", {"affine": [1.0, -math.inf]}, "affine"),
    # more parameters than the family reads: the report would echo them as used
    ("sweep-potential", "eigen-potential",
     {"potential": {"name": "sin2-potential", "params": [5.0]}}, "potential"),
    ("sweep-eigen", "eigen-homog",
     {"family": {"name": "osc1d", "params": [2.0, 99.0]}}, "family"),
    ("homogenize", "homogenize",
     {"family": {"name": "laminate2d", "params": [1.0, 4.0, 7.0]}}, "family"),
    ("sweep-source", "source-homog",
     {"source": {"name": "const-source", "params": [1.0, 2.0, 3.0]}}, "source"),
    # NaN passes every bound check and ends in a traceback at assembly
    ("sweep-eigen", "eigen-homog",
     {"family": {"name": "osc1d", "params": [math.nan]}}, "family"),
    ("sweep-potential", "eigen-potential",
     {"potential": {"name": "spike-potential", "params": [math.nan]}}, "potential"),
], ids=["h-zero", "windows-zero", "windows-divcurl", "windows-source",
        "phi-empty", "phi-outside", "phi-narrow", "cell-resolution",
        "eigen-count", "targets", "targets-zero", "seed",
        "eig-tol-zero", "eig-tol-negative", "eig-tol-nan", "eig-tol-inf",
        "affine-nan", "affine-inf", "params-sin2",
        "params-osc1d", "params-laminate2d", "params-const-source",
        "params-nan-family", "params-nan-potential"])
def test_cli_out_of_range_exit_1(tmp_path, capsys, subcommand, kind, extra, key):
    cfg = _write(tmp_path, _minimal(kind, **extra))
    for argv in ([subcommand, "--out", str(tmp_path)], ["validate"]):
        assert main(argv + ["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"config key '{key}'" in err
        assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


_LAMINATE = {"name": "laminate2d", "params": [1.0, 4.0]}


@pytest.mark.parametrize("kind,extra,key", [
    ("homogenize", {"family": _LAMINATE, "cell_resolution": 513}, "cell_resolution"),
    # a 2D ladder over 512^2 (here 544^2): its factor would not fit in memory
    ("eigen-homog", {"family": _LAMINATE, "h_list": [1, 17]}, "h_list"),
    ("eigen-homog", {"cell_resolution": 100_000}, "cell_resolution"),
])
def test_limit_oracle_budget_exit_1(tmp_path, capsys, kind, extra, key):
    # checked through validation only: a lost check must not start the oracle
    doc = _minimal(kind, **extra)
    with pytest.raises(ConfigError, match=f"config key '{key}'"):
        validate_config(doc)
    assert main(["validate", "--config", str(_write(tmp_path, doc))]) == 1
    assert f"config key '{key}'" in capsys.readouterr().err
    # the largest values within the 2D budget pass, and 1D keeps 10^6 dofs
    validate_config(_minimal(kind, family=_LAMINATE, h_list=[1, 16], cell_resolution=512))
    validate_config(_minimal(kind, h_list=[1, 31250]))


def test_eigen_count_held_to_the_lanczos_budget(tmp_path, capsys):
    # ARPACK keeps max(2k + 1, 20) vectors of the 999,999 dofs of a 10^6-cell
    # mesh: 3000 eigenpairs would need 48 GB, 66 stay within 2^27 doubles
    doc = _minimal(h_list=[1000, 31250], eigen_count=3000)
    assert main(["validate", "--config", str(_write(tmp_path, doc))]) == 1
    assert "config key 'eigen_count': 3000 eigenpairs" in capsys.readouterr().err
    validate_config({**doc, "eigen_count": 66})
    with pytest.raises(ConfigError, match="'eigen_count': 67 eigenpairs"):
        validate_config({**doc, "eigen_count": 67})


def test_eigen_count_checked_only_where_read(tmp_path):
    # 40 eigenpairs exceed the 31 dofs of the h=1 rung, but gamma and the
    # source sweep solve no eigenproblem and never read eigen_count
    doc = {"experiment": "gamma", "potential": {"name": "sin2-potential"},
           "h_list": [1, 2], "eigen_count": 40}
    assert main(["validate", "--config", str(_write(tmp_path, doc))]) == 0
    validate_config(_minimal("source-homog", h_list=[1, 2], eigen_count=40))
    for kind in ("eigen-homog", "eigen-potential"):
        with pytest.raises(ConfigError, match="'eigen_count': must be <= 31"):
            validate_config(_minimal(kind, h_list=[1, 2], eigen_count=40))


def test_cli_unread_parameter_names_family_and_count(tmp_path, capsys):
    argv = ["--config", str(CONFIGS / "a5_sin2.json"), "--set", "potential.params=[5]"]
    for sub in (["validate"], ["sweep-potential", "--out", str(tmp_path)]):
        assert main(sub + argv) == 1
        assert ("config key 'potential': 'sin2-potential' takes no parameters, got 1"
                in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def test_null_only_where_the_default_is_null():
    for key in ("solver", "output"):
        with pytest.raises(ConfigError, match=f"'{key}': expected an object"):
            validate_config(_minimal(**{key: None}))
    with pytest.raises(ConfigError, match="'solver.eig_tol': expected float"):
        validate_config(_minimal(solver={"eig_tol": None}))
    eff = validate_config(_minimal(potential=None, source=None,
                                   output={"csv": None})).echo
    assert eff["potential"] is None and eff["source"] is None
    assert eff["output"] == {"csv": None, "json": None}
    with pytest.raises(ConfigError, match="'family': required"):
        validate_config(_minimal(family=None))


def test_cli_validate_good_config(tmp_path, capsys):
    cfg = _write(tmp_path, _minimal())
    assert main(["validate", "--config", str(cfg)]) == 0
    assert "config ok" in capsys.readouterr().out


def test_cli_validate_bad_alpha_exit_1(capsys):
    code = main(["validate", "--config", str(CONFIGS / "invalid_alpha.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "ellipticity bound" in err and "alpha" in err


@pytest.mark.parametrize("key,value,message", [
    ("alpha", "1.0000001",
     "ellipticity bound alpha=1.0000001 exceeds the family's exact least value 1.0"),
    ("beta", "2.9999999",
     "ellipticity bound beta=2.9999999 is below the family's exact greatest value 3.0"),
])
def test_cli_validate_compares_exact_bounds(capsys, key, value, message):
    # osc1d [2] takes the values 1 and 3: a bound off by 1e-7 is wrong
    code = main(["validate", "--config", str(CONFIGS / "a3_osc1d.json"),
                 "--set", f"family.{key}={value}"])
    assert code == 1
    assert f"gconv validate: config key 'family': {message}" in capsys.readouterr().err


def test_cli_validate_verbose_prints_one_line_per_family(capsys):
    assert main(["validate", "-v", "--config", str(CONFIGS / "a4_laminate.json")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if "bounds" in line] == [
        "  laminate2d: exact bounds [1.0, 4.0], declared [1.0, 4.0]"]


def test_cli_validate_potential_without_family_ok(capsys):
    # no coefficient family, so no bounds to compare (test_cli_validate_good_config
    # covers a family without declared bounds)
    assert main(["validate", "--config", str(CONFIGS / "a5_sin2.json")]) == 0
    assert "config ok" in capsys.readouterr().out


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("subcommand,config,override,report", [
    # fewer than 3 rungs: no rate fit
    ("sweep-eigen", "a3_osc1d.json", "h_list=[4,8]", "a3_osc1d.json"),
    # an odd resolution has no half-resolution companion: no est_error
    ("homogenize", "a4_laminate.json", "cell_resolution=17", "a4_laminate.json"),
])
def test_cli_json_reports_are_strict(tmp_path, subcommand, config, override, report):
    assert main([subcommand, "--config", str(CONFIGS / config), "--out", str(tmp_path),
                 "--set", override]) == 0
    doc = json.loads((tmp_path / report).read_text(), parse_constant=_reject_constant)
    if subcommand == "sweep-eigen":
        assert doc["rates"][0]["slope"] is None and doc["rates"][0]["intercept"] is None
    else:
        assert doc["est_error"] is None


def test_cli_homogenize_laminate(tmp_path):
    code = main(["homogenize", "--config", str(CONFIGS / "a4_laminate.json"),
                 "--out", str(tmp_path), "--set", "cell_resolution=32"])
    assert code == 0
    with open(tmp_path / "a4_laminate.json") as fh:
        doc = json.load(fh)
    t = doc["tensor"]
    assert abs(t[0][0] - 1.6) / 1.6 <= 1e-2
    assert abs(t[1][1] - 2.5) / 2.5 <= 1e-2


def test_cli_gamma_check(tmp_path):
    cfg = _write(tmp_path, {
        "experiment": "gamma",
        "potential": {"name": "sin2-potential"},
        "h_list": [8, 16, 32],
        "targets": 3,
    })
    code = main(["gamma-check", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "recovery_trace.csv").exists()
    assert (tmp_path / "gamma.json").exists()


def test_cli_failed_stage_exits_2_after_reports(tmp_path, capsys, monkeypatch):
    # the runner is looked up when the CLI runs, so this wrapper is the one run
    run_gamma = sweep.run_gamma

    def one_target_fails(config):
        report = run_gamma(config)
        report.liminf_passed -= 1
        return report

    monkeypatch.setattr(sweep, "run_gamma", one_target_fails)
    cfg = _write(tmp_path, {"experiment": "gamma", "h_list": [8, 16, 32],
                            "potential": {"name": "sin2-potential"}, "targets": 2})
    code = main(["gamma-check", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "stage 'gamma liminf sampling'" in capsys.readouterr().err
    with open(tmp_path / "gamma.json") as fh:
        assert json.load(fh)["liminf"]["passed"] == 1
    assert (tmp_path / "recovery_trace.csv").exists()


def test_cli_divcurl(tmp_path):
    code = main(["divcurl", "--config", str(CONFIGS / "a8_divcurl.json"),
                 "--out", str(tmp_path), "--set", "h_list=[8,16]"])
    assert code == 0
    assert (tmp_path / "a8_divcurl.csv").exists()


@pytest.mark.parametrize("subcommand,kind", [("sweep-source", "source-homog"),
                                              ("divcurl", "divcurl")])
def test_cli_2d_family_with_source_exit_1(tmp_path, capsys, subcommand, kind):
    # built-in sources are 1D; a 2D family must not reach the assembly
    cfg = _write(tmp_path, {"experiment": kind, "h_list": [1, 2],
                            "family": {"name": "laminate2d", "params": [1.0, 4.0]},
                            "source": {"name": "const-source"}})
    code = main([subcommand, "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "'source'" in err
    assert "Traceback" not in err


def test_cli_help_lists_config_keys():
    proc = subprocess.run(
        [sys.executable, "-m", "gconv.cli", "sweep-eigen", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for key in ("h_list", "points_per_period", "solver.eig_tol", "family.name"):
        assert key in proc.stdout
    assert "required for this subcommand: family; optional: potential" in proc.stdout


def _drop_wall_clock(obj):
    if isinstance(obj, dict):
        return {k: _drop_wall_clock(v) for k, v in obj.items() if k != "wall_clock"}
    if isinstance(obj, list):
        return [_drop_wall_clock(v) for v in obj]
    return obj


SHIPPED = [(EXPERIMENTS[json.loads(p.read_text())["experiment"]].subcommand, p.stem)
           for p in sorted(CONFIGS.glob("*.json")) if p.name != "invalid_alpha.json"]


@pytest.mark.parametrize("subcommand,name", SHIPPED)
def test_cli_shipped_config_reruns_identically(tmp_path, subcommand, name):
    # two runs in one process: nothing cached by the first may change the second
    runs = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        assert main([subcommand, "--config", str(CONFIGS / f"{name}.json"),
                     "--out", str(out)]) == 0
        runs.append({p.name: (p.read_bytes() if p.suffix == ".csv" else
                              _drop_wall_clock(json.loads(p.read_text())))
                     for p in out.iterdir()})
    assert runs[0] == runs[1]
    assert any(key.endswith(".json") for key in runs[0])


def test_cli_echoed_config_reruns_identically(tmp_path):
    cfg = _write(tmp_path, _minimal())
    out1 = tmp_path / "run1"
    assert main(["sweep-eigen", "--config", str(cfg), "--out", str(out1)]) == 0
    with open(out1 / "report.json") as fh:
        echoed = json.load(fh)["config"]
    cfg2 = _write(tmp_path, echoed, name="echo.json")
    out2 = tmp_path / "run2"
    assert main(["sweep-eigen", "--config", str(cfg2), "--out", str(out2)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


# built-in names of the class each family-valued key takes
_NAMES = {key: sorted(n for n in BUILTINS if isinstance(make_builtin_family(n), cls))
          for key, cls in FAMILY_CLASSES.items()}


@st.composite
def _small_configs(draw, kind):
    """A small config of the kind: 1D meshes of at most 128 cells, 2D of 64^2."""
    experiment = EXPERIMENTS[kind]
    doc = {"experiment": kind}
    for key in experiment.requires + experiment.optional:
        if key in experiment.requires or draw(st.booleans()):
            name = draw(st.sampled_from(_NAMES[key]))
            doc[key] = {"name": name, "params": draw(
                st.lists(st.floats(1.5, 4.0), max_size=BUILTINS[name][1]))}
    top = 2 if doc.get("family", {}).get("name") == "laminate2d" else 4
    doc |= {"h_list": sorted(draw(st.sets(st.integers(1, top), min_size=1, max_size=3))),
           "points_per_period": draw(st.sampled_from([16, 20, 32])),
           "eigen_count": draw(st.integers(1, 4)),
           "seed": draw(st.integers(0, 3)),
           "windows": draw(st.integers(1, 16)),
           "targets": draw(st.integers(1, 3)),
           "cell_resolution": draw(st.sampled_from([16, 17, 32, 48])),
           "affine": draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))),
           "solver": {"eig_tol": draw(st.sampled_from([1e-10, 1e-14]))}}
    a = draw(st.floats(0.0, 0.4))
    doc["phi_support"] = [a, a + draw(st.floats(0.2, 0.6))]
    return doc


@pytest.mark.parametrize("kind", sorted(EXPERIMENTS))
@settings(derandomize=True, deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_small_configs_end_in_report_or_named_exit(kind, data):
    # every config ends in a report (0), a named config key (1) or a named
    # numerical stage (2); an exception out of main is a traceback
    doc = data.draw(_small_configs(kind))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        cfg = _write(Path(tmp), doc)
        code = main([EXPERIMENTS[kind].subcommand, "--config", str(cfg), "--out", tmp])
        wrote = list(Path(tmp).glob("*.json"))
    expected = {0: "", 1: "gconv: config error: config key '",
                2: "gconv: numerical failure at stage '"}
    assert code in expected and err.getvalue().startswith(expected[code])
    assert "'resolution check'" not in err.getvalue()  # validation names the key
    assert wrote or code != 0
