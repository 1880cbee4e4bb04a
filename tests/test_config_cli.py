import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from gconv import sweep
from gconv.cli import main
from gconv.config import (
    ConfigError,
    apply_overrides,
    experiment_from_config,
    schema_help,
    validate_config,
)
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
    eff = validate_config(_minimal())
    assert eff["points_per_period"] == 32
    assert eff["solver"]["eig_tol"] == 1e-10
    assert eff["seed"] == 0


def test_unknown_key_rejected_with_name():
    with pytest.raises(ConfigError, match="'mesh_size'"):
        validate_config(_minimal(mesh_size=5))
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
    eff = validate_config(doc)
    assert eff["solver"]["eig_tol"] == 1e-8
    assert eff["eigen_count"] == 5


def test_overrides_json_values():
    doc = apply_overrides(_minimal(), ["h_list=[4,8,16]"])
    assert validate_config(doc)["h_list"] == [4, 8, 16]


def test_overrides_reject_unknown_and_type():
    with pytest.raises(ConfigError, match="'solver.cg_tol'"):
        apply_overrides(_minimal(), ["solver.cg_tol=1e-8"])
    doc = apply_overrides(_minimal(), ["eigen_count=banana"])
    with pytest.raises(ConfigError, match="'eigen_count'"):
        validate_config(doc)


def test_override_through_null_or_non_object(tmp_path, capsys):
    # a null on the path starts a fresh object, as an absent key does
    doc = apply_overrides(_minimal(solver=None), ["solver.eig_tol=1e-8"])
    assert validate_config(doc)["solver"] == {"eig_tol": 1e-8}
    for solver, code in ((None, 0), (5, 1)):
        cfg = _write(tmp_path, _minimal(solver=solver))
        assert main(["validate", "--config", str(cfg),
                     "--set", "solver.eig_tol=1e-8"]) == code
    err = capsys.readouterr().err
    assert "config key 'solver' holds 5, not an object" in err
    assert "Traceback" not in err


def test_experiment_from_config_builds_families():
    exp = experiment_from_config(validate_config(_minimal()))
    assert exp.family.name == "osc1d"
    assert exp.kind == "eigen-homog"


def test_schema_help_lists_keys_and_defaults():
    text = schema_help("eigen-homog")
    for key in ("experiment", "h_list", "points_per_period", "solver.eig_tol",
                "family.name", "output.csv", "seed"):
        assert key in text
    assert "default" in text


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


def test_cli_resolution_failure_exit_2(tmp_path, capsys):
    # sin^2 oscillates at scale 1/(2h): 16 mesh points per period alias it
    cfg = _write(tmp_path, _minimal("eigen-potential"))
    code = main(["sweep-potential", "--config", str(cfg), "--out", str(tmp_path),
                 "--set", "points_per_period=16"])
    assert code == 2
    err = capsys.readouterr().err
    assert "resolution" in err


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
    ("homogenize", "homogenize", {"quad_points": 8}, "quad_points"),
    ("homogenize", "homogenize",
     {"cell_resolution": 0, "family": {"name": "laminate2d"}}, "cell_resolution"),
    # the h=4 rung has 127 dofs
    ("sweep-eigen", "eigen-homog", {"eigen_count": 128}, "eigen_count"),
    ("gamma-check", "gamma", {"targets": -1}, "targets"),
    ("gamma-check", "gamma", {"seed": -1}, "seed"),
    # no residual meets a tolerance <= 0 or NaN
    ("sweep-eigen", "eigen-homog", {"solver": {"eig_tol": 0.0}}, "solver.eig_tol"),
    ("sweep-potential", "eigen-potential", {"solver": {"eig_tol": -1.0}},
     "solver.eig_tol"),
    ("sweep-eigen", "eigen-homog", {"solver": {"eig_tol": math.nan}},
     "solver.eig_tol"),
    ("gamma-check", "gamma", {"perturbation_scale": -1.0}, "perturbation_scale"),
    ("gamma-check", "gamma", {"perturbation_scale": math.nan}, "perturbation_scale"),
    # below one point the rules fall back silently; far above the cap the 1D
    # rule's dense companion matrix exhausts memory (the case here stays cheap
    # should the check be lost)
    ("sweep-eigen", "eigen-homog", {"quad_order": 0}, "quad_order"),
    ("gamma-check", "gamma", {"quad_order": -3}, "quad_order"),
    ("divcurl", "divcurl", {"quad_order": 17, **_DIVCURL}, "quad_order"),
], ids=["h-zero", "windows-zero", "windows-divcurl", "windows-source",
        "phi-empty", "quad-points", "cell-resolution", "eigen-count",
        "targets", "seed", "eig-tol-zero", "eig-tol-negative", "eig-tol-nan",
        "perturbation-negative", "perturbation-nan", "quad-order-zero",
        "quad-order-negative", "quad-order-above-cap"])
def test_cli_out_of_range_exit_1(tmp_path, capsys, subcommand, kind, extra, key):
    cfg = _write(tmp_path, _minimal(kind, **extra))
    for argv in ([subcommand, "--out", str(tmp_path)], ["validate"]):
        assert main(argv + ["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"config key '{key}'" in err
        assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_null_only_where_the_default_is_null():
    for key in ("solver", "output"):
        with pytest.raises(ConfigError, match=f"'{key}': expected an object"):
            validate_config(_minimal(**{key: None}))
    with pytest.raises(ConfigError, match="'solver.eig_tol': expected float"):
        validate_config(_minimal(solver={"eig_tol": None}))
    eff = validate_config(_minimal(potential=None, source=None,
                                   output={"csv": None}))
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
