import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackError

from gconv import __version__, linalg, sweep
from gconv.cli import main
from gconv.config import (
    FAMILY_CLASSES,
    MAX_BASIS_DOUBLES,
    SCHEMA,
    ConfigError,
    apply_overrides,
    load_config,
    schema_help,
    validate_config,
)
from gconv.families import BUILTINS, make_builtin_family
from gconv.linalg import ConvergenceError, lanczos_vectors
from gconv.sweep import EXPERIMENTS, _jsonify

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _minimal(kind="eigen-homog", **extra):
    doc = {"experiment": kind, "h_list": [4, 8]}
    if kind in ("eigen-homog", "homogenize"):
        doc["family"] = {"name": "osc1d", "params": [2.0]}
    if kind in ("source-homog", "divcurl"):
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


def test_unknown_key_rejected_with_name(tmp_path, capsys):
    for key in ("mesh_size", "quad_order", "quad_points"):
        with pytest.raises(ConfigError, match=f"'{key}': unknown key"):
            validate_config(_minimal(**{key: 5}))
    # the fixed probes are constants of the sweep module, not config keys
    for subcommand, kind, key, value in [
            ("sweep-source", "source-homog", "windows", 8),
            ("divcurl", "divcurl", "phi_support", [0.25, 0.75]),
            ("gamma-check", "gamma", "affine", [1.0, 0.0])]:
        cfg = _write(tmp_path, _minimal(kind, **{key: value}))
        for argv in (["validate"], [subcommand, "--out", str(tmp_path)]):
            assert main(argv + ["--config", str(cfg)]) == 1
            assert f"config key '{key}': unknown key" in capsys.readouterr().err
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


def test_duplicate_key_exit_1(tmp_path, capsys):
    # json alone keeps the last of two equal keys: this config would run h_list [8]
    cfg = tmp_path / "dup.json"
    cfg.write_text('{"experiment": "eigen-homog", "family": {"name": "osc1d"}, '
                   '"h_list": [4], "h_list": [8]}')
    nested = tmp_path / "nested.json"
    nested.write_text('{"experiment": "eigen-homog", "h_list": [4], '
                      '"family": {"name": "osc1d", "name": "const"}}')
    good = _write(tmp_path, _minimal())
    for config, sets, key in [(cfg, [], "h_list"), (nested, [], "name"),
                              (good, ["--set", 'family={"name": "osc1d", "name": "const"}'],
                               "name")]:
        for argv in (["validate"], ["sweep-eigen", "--out", str(tmp_path / "out")]):
            assert main(argv + ["--config", str(config)] + sets) == 1
            assert (f"gconv: config error: config key '{key}': duplicate key"
                    in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


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


def test_overrides_leave_the_config_as_it_was():
    doc = _minimal(solver={"eig_tol": 1e-9})
    before = json.loads(json.dumps(doc))
    out = apply_overrides(doc, ["solver.eig_tol=1e-8", "family.params=[3.0]", "seed=4"])
    assert doc == before
    assert out["solver"] == {"eig_tol": 1e-8} and out["family"]["params"] == [3.0]


def _gconv(*argv):
    """Exit code and stderr of ``gconv argv`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-m", "gconv.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stderr


def test_config_text_not_utf8_exit_1(tmp_path):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(b'{"experiment": "eigen-homog", "h_list": [4], "note": "\xff"}')
    code, err = _gconv("validate", "--config", str(cfg))
    assert code == 1 and "Traceback" not in err
    assert f"config file '{cfg}': invalid JSON ('utf-8' codec can't decode" in err


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


@pytest.mark.parametrize("depth,message", [
    (5000, "invalid JSON (maximum recursion depth exceeded"),
    # parsed, and refused by type; no copy of the document recurses into it
    (600, "config key 'h_list': expected int_list"),
])
def test_config_nested_too_deeply_exit_1(tmp_path, depth, message):
    cfg = tmp_path / "deep.json"
    cfg.write_text('{"experiment": "eigen-homog", "family": {"name": "osc1d"}, '
                   f'"h_list": {_nested(depth)}}}')
    code, err = _gconv("validate", "--config", str(cfg))
    assert code == 1 and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("doc,overrides,message", [
    (_minimal(h_list=[0.5] * 100_000), [],
     "config key 'h_list': expected int_list, got [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, ...] "
     "(type list)"),
    (_minimal(solver=[0.5] * 100_000), ["--set", "solver.eig_tol=1e-8"],
     "config key 'solver' holds [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, ...], not an object "
     "(type list)"),
    (_minimal(output={"json": "a/" * 100_000}), [], "config key 'output.json': 'a/a/"),
    (_minimal(output={"csv": "r" * 100_000, "json": "r" * 100_000}), [],
     "config key 'output.json': 'rrrrrrrrrrrr...rrrrrrrrrrrrr' names the CSV report too"),
    (_minimal(family={"name": "osc1d", "params": [1e999] * 100_000}), [],
     "config key 'family': 'osc1d' parameters must be finite, "
     "got [inf, inf, inf, inf, inf, inf, ...]"),
    (_minimal(family={"name": "f" * 100_000}), [],
     "config key 'family': unknown family 'ffffffffffff...fffffffffffff' (choose from "),
    (_minimal(experiment="k" * 100_000), [],
     "config key 'experiment': unknown kind 'kkkkkkkkkkkk...kkkkkkkkkkkkk' (choose from "),
    (_minimal(**{"u" * 100_000: 1}), [],
     "config key 'uuuuuuuuuuuu...uuuuuuuuuuuuu': unknown key"),
    (_minimal(), ["--set", "s" * 100_000],
     "override 'ssssssssssss...sssssssssssss': expected key=value"),
], ids=["type", "override", "file-name", "same-name", "params", "family-name", "kind",
        "unknown-key", "set-item"])
def test_large_config_value_message_is_bounded(tmp_path, doc, overrides, message):
    # a message echoes a bounded repr of the value, never the whole of it
    code, err = _gconv("validate", "--config", str(_write(tmp_path, doc)), *overrides)
    assert code == 1 and "Traceback" not in err
    assert message in err and len(err.encode()) < 300


def test_override_nested_too_deeply_exit_1(tmp_path):
    cfg = _write(tmp_path, _minimal())
    code, err = _gconv("validate", "--config", str(cfg), "--set", f"h_list={_nested(5000)}")
    assert code == 1 and "Traceback" not in err
    assert ("config error: override key 'h_list': invalid JSON "
            "(maximum recursion depth exceeded") in err


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


def test_schema_help_shows_each_least_value_once():
    # the least value is written once, in SCHEMA: each leaf that has one
    # shows it, and no description states a bound by hand
    lines = {line.split(" (")[0].strip(): line for line in schema_help().splitlines()[1:]}
    for path, tag, least in LEAVES:
        head, desc = lines[path].split("): ", 1)
        entries = "entries " if tag == "int_list" else ""
        assert ">=" not in desc
        assert (head.endswith(f", {entries}>= {least}") if least is not None
                else ">=" not in head), lines[path]
    assert lines["points_per_period"].startswith("  points_per_period (int, default 32, >= 16): ")
    assert lines["h_list"].startswith("  h_list (int_list, default [4, 8, 16, 32, 64], entries >= 1): ")


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
    # the layer pivots factor the 2D laminate2d rungs and the constant-coefficient
    # 2D reference on grids of any step, LAPACK's pttrf the 1D rungs (a 1D
    # reference is in closed form); each failing exits 2 at the first operator
    # it takes, named.  SuperLU's failures map at the factor
    # (test_cholesky_off_band_rejects)
    pivots = linalg._layer_pivots

    def zero_on_h1(delta, s):  # the 23^2-dof rung h=1 of 24 points per period
        return np.zeros(delta.shape[::-1]) if delta.shape[0] == 23 else pivots(delta, s)

    def zero_on_rung(delta, s):  # the 63^2-dof rung h=2, whose layers vary; not the reference
        return np.zeros(delta.shape[::-1]) if delta.shape[0] == 63 and np.ptp(s) else pivots(
            delta, s)

    laminate = _minimal(family={"name": "laminate2d", "params": [1.0, 4.0]}, h_list=[1, 2])
    for backend, fails, doc, message in [
            ("_layer_pivots", zero_on_h1, {**laminate, "points_per_period": 24},
             "h=1: not positive definite: pivot 1 of 529 is 0"),
            ("_layer_pivots", lambda delta, s: np.zeros(delta.shape[::-1]), laminate,
             "reference: not positive definite: pivot 1 of 3969 is 0"),
            ("_layer_pivots", zero_on_rung, laminate,
             "h=2: not positive definite: pivot 1 of 3969 is 0"),
            ("dpttrf", lambda d, e: (0.0 * d, e, 1), _minimal(),
             "h=4: not positive definite: pivot 1 of 127 is 0")]:
        with monkeypatch.context() as patch:
            patch.setattr(linalg, backend, fails)
            cfg = _write(tmp_path, doc)
            assert main(["sweep-eigen", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"gconv: numerical failure at stage 'factorization': {message}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("subcommand,kind,solver,dofs,rung", [
    ("sweep-source", "source-homog", "dpttrf", 255, "reference"),
    ("sweep-eigen", "eigen-homog", "eigsh", 127, "h=4"),
], ids=["255-reference", "127-h=4"])
def test_cli_overflow_names_rung(tmp_path, capsys, monkeypatch, subcommand, kind, solver,
                                 dofs, rung):
    # an overflow inside a solve or an eigensolve exits 2 at 'arithmetic',
    # naming the operator: the source sweep's reference solves first on the
    # finest 256 cells, the eigen sweep's h=4 on 128
    original = getattr(linalg, solver)

    def overflows(A, *args, **kwargs):
        if A.shape[0] == dofs:
            np.float64(1e308) * 10.0  # raises under the run's np.errstate
        return original(A, *args, **kwargs)

    monkeypatch.setattr(linalg, solver, overflows)
    cfg = _write(tmp_path, _minimal(kind))
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert (f"gconv: numerical failure at stage 'arithmetic': {rung}: overflow encountered "
            "in scalar multiply") in err
    assert "Traceback" not in err
    assert not list((tmp_path / "out").iterdir())


def test_cli_cell_problem_factor_failure_names_resolution(tmp_path, capsys, monkeypatch):
    # the 128^2 cell problem factors its full level, one dof grounded, by the
    # layer pivots of its 127 inner layers, then its 64^2 companion by those of
    # its 63; a failure at either exits at factorization naming the resolution.
    # A laminate's sweeps take the closed form, so homogenize runs it
    pivots = linalg._layer_pivots
    cfg = _write(tmp_path, _minimal("homogenize", cell_resolution=128,
                                    family={"name": "laminate2d", "params": [1.0, 4.0]}))
    for layers in (127, 63):
        def singular(delta, s):
            if delta.shape[0] == layers:
                raise linalg.NotPositiveDefiniteError(
                    "not positive definite: Factor is exactly singular")
            return pivots(delta, s)

        monkeypatch.setattr(linalg, "_layer_pivots", singular)
        assert main(["homogenize", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert ("gconv: numerical failure at stage 'factorization': "
                "cell_problem_2d(resolution=128): not positive definite: "
                "Factor is exactly singular") in err
        assert "Traceback" not in err


@pytest.mark.parametrize("params", [[1.0, 4.0], [2.0]])
def test_cli_homogenize_laminate_at_the_budget_takes_no_superlu(tmp_path, monkeypatch,
                                                                params):
    # both levels of a built-in laminate's cell problem at 512^2, the 2D dof
    # budget, and at 510^2, whose step is no power of two, take the layered
    # backend: a sinusoidal laminate's periodic diagonal is constant along each
    # grid row, as a two-phase one's is.  So do the rungs and the reference of
    # a ladder at 24 points per period
    def refused(*args, **kwargs):
        raise AssertionError("splu called")

    monkeypatch.setattr(linalg, "splu", refused)
    family = {"name": "laminate2d", "params": params}
    for subcommand, doc in [
            ("homogenize", _minimal("homogenize", cell_resolution=512, family=family)),
            ("homogenize", _minimal("homogenize", cell_resolution=510, family=family)),
            ("sweep-eigen", _minimal(family=family, points_per_period=24,
                                     h_list=[1, 2, 4, 8, 16]))]:
        cfg = _write(tmp_path, doc)
        assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("subcommand,kind,dofs,call,rung", [
    ("sweep-source", "source-homog", 255, 1, "reference"),
    ("sweep-source", "source-homog", 127, 1, "h=4"),
    ("divcurl", "divcurl", 255, 1, "reference"),
    ("divcurl", "divcurl", 255, 2, "h=4"),
], ids=["255-reference", "127-h=4", "divcurl-reference", "divcurl-h=4"])
def test_cli_source_sweep_failure_names_rung(tmp_path, capsys, monkeypatch,
                                             subcommand, kind, dofs, call, rung):
    # sweep-source: h=4 solves on 128 cells, h=8 and the reference on the
    # finest, 256; divcurl solves the reference, then h=4, h=8 on the finest
    dpttrf, seen = linalg.dpttrf, []

    def fails_at(d, e):  # a zero first pivot at the given call of the given size
        if d.size == dofs:
            seen.append(d.size)
            if len(seen) == call:
                return 0.0 * d, e, 1
        return dpttrf(d, e)

    monkeypatch.setattr(linalg, "dpttrf", fails_at)
    cfg = _write(tmp_path, _minimal(kind))
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert (f"stage 'factorization': {rung}: not positive definite: pivot 1 of {dofs} "
            "is 0" in err)
    assert "Traceback" not in err


def test_cli_zero_source_reports_its_errors(tmp_path):
    # the reference solution is 0, so its L2 error is relative to 1, as the
    # probes' errors are where their reference is 0
    doc = _minimal("source-homog", source={"name": "const-source", "params": [0.0]})
    code, err = _gconv("sweep-source", "--config", str(_write(tmp_path, doc)),
                       "--out", str(tmp_path))
    assert code == 0 and "Traceback" not in err
    name = EXPERIMENTS["source-homog"].reports(validate_config(doc).echo["output"])["json"]
    records = json.loads((tmp_path / name).read_text())["records"]
    assert len(records) == 2
    assert all(rec["rel_errors"][0] == rec["abs_errors"][0] for rec in records)


@pytest.mark.parametrize("kind,subcommand,params", [
    # the solution is about 1e200, so its L2 norm squared overflows
    ("source-homog", "sweep-source", [1e-200]),
    # 1 / 5e-324 overflows in the harmonic mean of the limit oracle
    ("homogenize", "homogenize", [5e-324]),
])
def test_cli_float_overflow_exit_2(tmp_path, capsys, kind, subcommand, params):
    # a validated config whose numbers leave the float range ends in exit 2,
    # not in a report of inf and nan
    cfg = _write(tmp_path, _minimal(kind, family={"name": "const", "params": params}))
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "numerical failure at stage 'arithmetic': overflow encountered in" \
        in capsys.readouterr().err
    assert not list((tmp_path / "out").iterdir())


def test_cli_subnormal_laminate_exit_0(tmp_path, capsys):
    # laminate2d [1e-308, 4e-308] has subnormal stiffness entries: its rungs'
    # and reference's pivots and solves run in units of a power of two, so no
    # step overflows under the run's np.errstate; test_linalg's subnormal rung
    # test checks the solves themselves.  A stiffness 1e-200 times [1, 4]'s,
    # far below its mass, has the eigenvalues of [1, 4] times 1e-200, in 2D
    # and 1D: eig_smallest solves in units of a power of two near K's largest
    # diagonal entry, so ARPACK's iterates do not leave the mass's range
    def values(name, h_list, scale):
        doc = _minimal(family={"name": name, "params": [scale, 4.0 * scale]}, h_list=h_list)
        out = tmp_path / f"{name}-{scale}"
        assert main(["sweep-eigen", "--config", str(_write(tmp_path, doc)),
                     "--out", str(out)]) == 0
        with open(out / "report.json") as fh:
            report = json.load(fh)
        return np.array([rec["values"] for rec in report["records"]] + [report["reference"]])

    values("laminate2d", [1, 2], 1e-308)
    for name, h_list in [("laminate2d", [1, 2]), ("twophase1d", [4, 8])]:
        unit = values(name, h_list, 1.0)
        assert np.all(np.abs(values(name, h_list, 1e-200) - 1e-200 * unit)
                      <= 1e-12 * 1e-200 * unit)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("message,shown", [
    ("Unable to allocate 8.00 GiB for an array with shape (1073741824,)",
     "Unable to allocate 8.00 GiB"),
    ("", "out of memory"),
], ids=["numpy", "bare"])
def test_cli_memory_error_exit_2(tmp_path, capsys, monkeypatch, message, shown):
    # an allocation the host cannot give ends in exit 2 at stage 'memory',
    # not in a traceback, and no report is written
    def runs_out(config):
        raise MemoryError(message)

    monkeypatch.setattr(sweep, "run_homogenize", runs_out)
    cfg = _write(tmp_path, _minimal("homogenize"))
    assert main(["homogenize", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"gconv: numerical failure at stage 'memory': {shown}" in err
    assert "Traceback" not in err
    assert not list((tmp_path / "out").iterdir())


def test_cli_memory_error_in_a_rung_names_it(tmp_path, capsys, monkeypatch):
    # an allocation that fails inside a rung's eigensolve names the rung:
    # h=4 solves on 128 cells, 127 dofs
    eigsh = linalg.eigsh

    def runs_out(K, k, **kwargs):
        if K.shape[0] == 127:
            raise MemoryError("Unable to allocate 8.00 GiB for an array")
        return eigsh(K, k, **kwargs)

    monkeypatch.setattr(linalg, "eigsh", runs_out)
    cfg = _write(tmp_path, _minimal())
    assert main(["sweep-eigen", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "gconv: numerical failure at stage 'memory': h=4: Unable to allocate 8.00 GiB" in err
    assert "Traceback" not in err
    assert not list((tmp_path / "out").iterdir())


@pytest.mark.parametrize("overrides,key", [
    (["output.json=sub/dir.json"], "output.json"),
    (['output.json=""'], "output.json"),
    (["output.csv=."], "output.csv"),
    (["output.csv=.."], "output.csv"),
    (["output.json=report.csv"], "output.json"),
    (["output.csv=same", "output.json=same"], "output.json"),
], ids=["path", "empty", "dot", "dotdot", "default-csv", "equal"])
def test_unusable_report_name_exit_1(tmp_path, capsys, overrides, key):
    cfg = _write(tmp_path, _minimal())
    sets = [arg for item in overrides for arg in ("--set", item)]
    for argv in (["sweep-eigen", "--out", str(tmp_path / "out")], ["validate"]):
        assert main(argv + ["--config", str(cfg)] + sets) == 1
        err = capsys.readouterr().err
        assert f"gconv: config error: config key '{key}': " in err
    assert not (tmp_path / "out").exists()


def test_csv_name_on_a_kind_without_csv_exit_1(tmp_path, capsys):
    # homogenize writes only its JSON report: a CSV name would go unread
    cfg = _write(tmp_path, _minimal("homogenize", output={"csv": "tensor.csv"}))
    for argv in (["validate"], ["homogenize", "--out", str(tmp_path / "out")]):
        assert main(argv + ["--config", str(cfg)]) == 1
        assert ("config key 'output.csv': experiment 'homogenize' writes no CSV report"
                in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()
    # null is the absent name
    validate_config(_minimal("homogenize", output={"csv": None, "json": "t.json"}))


def test_unusable_out_exit_1_before_the_run(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "README.md"
    blocker.write_text("")
    ran = []
    monkeypatch.setattr(sweep, "run_homogenize", ran.append)
    cfg = _write(tmp_path, _minimal("homogenize"))
    for out in (blocker, blocker / "sub"):
        assert main(["homogenize", "--config", str(cfg), "--out", str(out)]) == 1
        assert "gconv: config error: option '--out': " in capsys.readouterr().err
    assert not ran


def test_report_name_of_a_directory_exit_1(tmp_path, capsys):
    (tmp_path / "report.json").mkdir()
    cfg = _write(tmp_path, _minimal("homogenize"))
    assert main(["homogenize", "--config", str(cfg), "--out", str(tmp_path),
                 "--set", "output.json=report.json"]) == 1
    assert "gconv: config error: config key 'output.json': " in capsys.readouterr().err


def test_cli_eigensolver_failure_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, _minimal())
    code = main(["sweep-eigen", "--config", str(cfg), "--out", str(tmp_path),
                 "--set", "eigen_count=1", "--set", "solver.eig_tol=1e-18"])
    assert code == 2
    err = capsys.readouterr().err
    assert "eigensolver" in err


def test_cli_unreachable_tolerance_fails_fast_naming_rung(tmp_path, capsys):
    # the residual floor of the 16384-cell h=512 rung, 1.36e-10, lies above
    # eig_tol 1e-10; the reference is in closed form and solves nothing
    cfg = _write(tmp_path, {"experiment": "eigen-homog",
                            "family": {"name": "osc1d", "params": [2.0]},
                            "h_list": [128, 256, 512, 1024],
                            "points_per_period": 32})
    code = main(["sweep-eigen", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "stage 'eigensolver': h=512: " in err
    assert "worst residual" in err and "exceeds tol 1.0e-10" in err


def test_cli_a3_long_ladder_fails_at_its_top_rung_not_the_reference(tmp_path, capsys):
    # the closed-form reference solves nothing; the h=512 rung's residual
    # floor, 1.36e-10, still lies above eig_tol 1e-10
    path = Path(__file__).resolve().parent.parent / "configs" / "a3_osc1d.json"
    code = main(["sweep-eigen", "--config", str(path), "--out", str(tmp_path),
                 "--set", "h_list=[64,128,256,512]"])
    assert code == 2
    err = capsys.readouterr().err
    assert "stage 'eigensolver': h=512: eig_smallest: worst residual" in err
    assert "reference" not in err


def test_cli_arpack_error_exits_2_naming_rung(tmp_path, capsys, monkeypatch):
    # any ARPACK error, not only no convergence, fails the rung's eigensolve;
    # the h=8 rung has 255 dofs, the reference 511
    eigsh = linalg.eigsh

    def fails(K, k, **kwargs):
        if K.shape[0] == 255:
            raise ArpackError(-9999)
        return eigsh(K, k, **kwargs)

    monkeypatch.setattr(linalg, "eigsh", fails)
    cfg = _write(tmp_path, _minimal(h_list=[4, 8, 16]))
    assert main(["sweep-eigen", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "stage 'eigensolver': h=8: eig_smallest: ARPACK error -9999" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("subcommand,kind,extra,key", [
    ("sweep-eigen", "eigen-homog", {"h_list": [0, 4, 8]}, "h_list"),
    ("homogenize", "homogenize",
     {"cell_resolution": 0, "family": {"name": "laminate2d"}}, "cell_resolution"),
    # the h=4 rung has 127 dofs
    ("sweep-eigen", "eigen-homog", {"eigen_count": 128}, "eigen_count"),
    ("gamma-check", "gamma", {"targets": -1}, "targets"),
    # no target sampled: the liminf check would pass on 0 of 0
    ("gamma-check", "gamma", {"targets": 0}, "targets"),
    ("gamma-check", "gamma", {"seed": -1}, "seed"),
    # 10^9 targets on the 255 dofs of the h=8 mesh: a 2 TB block
    ("gamma-check", "gamma", {"targets": 10 ** 9}, "targets"),
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
], ids=["h-zero", "cell-resolution",
        "eigen-count", "targets", "targets-zero", "seed", "targets-budget",
        "eig-tol-zero", "eig-tol-negative", "eig-tol-nan", "eig-tol-inf",
        "params-sin2",
        "params-osc1d", "params-laminate2d", "params-const-source",
        "params-nan-family", "params-nan-potential"])
def test_cli_out_of_range_exit_1(tmp_path, capsys, subcommand, kind, extra, key):
    cfg = _write(tmp_path, _minimal(kind, **extra))
    # validate first: a lost check must not start a run that would not fit
    for argv in (["validate"], [subcommand, "--out", str(tmp_path)]):
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
    # refused exactly when linalg.lanczos_vectors' basis exceeds the budget.
    # The single h=320 rung has 10,239 dofs: the basis is capped at n, so
    # 10,000 eigenpairs fit, where 2k + 1 vectors would not
    over = []
    for h_list, k in [([1000, 31250], 66), ([1000, 31250], 67), ([320], 10_000),
                      ([400], 5_000), ([400], 6_000)]:
        finest = 32 * h_list[-1] - 1
        over.append(lanczos_vectors(finest, k) * finest > MAX_BASIS_DOUBLES)
        try:
            validate_config(_minimal(h_list=h_list, eigen_count=k))
            refused = False
        except ConfigError as exc:
            assert "'eigen_count'" in str(exc)
            refused = True
        assert refused == over[-1], (h_list, k)
    assert over == [False, True, False, False, True]


def test_targets_held_to_the_basis_budget():
    # the gamma check draws a (dofs, targets) block: on the 8,191 dofs of the
    # a7 ladder, 16,386 targets stay within 2^27 doubles
    doc = _minimal("gamma", h_list=[8, 256], targets=16386)
    validate_config(doc)
    with pytest.raises(ConfigError, match="'targets': 16387 targets on the 8191-dof"):
        validate_config({**doc, "targets": 16387})


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


def test_cli_run_refuses_bad_alpha_before_writing(tmp_path, capsys):
    # the declared bounds are checked with the rest of the config: a run
    # subcommand refuses the config that validate refuses, and writes nothing
    out = tmp_path / "out"
    code = main(["sweep-eigen", "--config", str(CONFIGS / "invalid_alpha.json"),
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert ("gconv: config error: config key 'family': ellipticity bound alpha=1.5 "
            "exceeds the family's exact least value 1.0") in err
    assert not out.exists()


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
    assert f"gconv: config error: config key 'family': {message}" in capsys.readouterr().err


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


def test_cli_homogenize_laminate(tmp_path, capsys):
    code = main(["homogenize", "-v", "--config", str(CONFIGS / "a4_laminate.json"),
                 "--out", str(tmp_path), "--set", "cell_resolution=32"])
    assert code == 0
    with open(tmp_path / "a4_laminate.json") as fh:
        doc = json.load(fh)
    t = doc["tensor"]
    assert abs(t[0][0] - 1.6) / 1.6 <= 1e-2
    assert abs(t[1][1] - 2.5) / 2.5 <= 1e-2
    # the cell problem's tensor, checked against the lamination formula
    assert doc["provenance"] == "cell-problem"
    assert doc["closed_form"] == [[1.6, 0.0], [0.0, 2.5]]
    assert doc["closed_form_gap"] == max(abs(t[i][j] - doc["closed_form"][i][j])
                                         for i in range(2) for j in range(2))
    assert doc["closed_form_gap"] <= 1e-13
    out = capsys.readouterr().out
    assert "closed form [[1.6, 0.0], [0.0, 2.5]], gap " in out
    # a 1D family's tensor is the closed form itself: nothing to check it against
    assert main(["homogenize", "--config", str(CONFIGS / "a1_harmonic.json"),
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "a1_harmonic.json").read_text())
    assert doc["provenance"] == "closed-form" and "closed_form" not in doc


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


# one shipped config per kind, with a shorter ladder where it has one
ENVELOPE_RUNS = {
    "eigen-homog": ("a3_osc1d", ["h_list=[4,8,16]"]),
    "source-homog": ("a9_source", ["h_list=[4,8,16]"]),
    "eigen-potential": ("a5_sin2", ["h_list=[4,8,16]"]),
    "gamma": ("a7_gamma_sin2", ["h_list=[8,16,32]"]),
    "divcurl": ("a8_divcurl", ["h_list=[8,16,32]"]),
    "homogenize": ("a4_laminate", []),
}


@pytest.mark.parametrize("kind", sorted(EXPERIMENTS))
def test_json_envelope_of_every_kind(tmp_path, monkeypatch, kind):
    # the envelope comes from the config the run was given, the rest from the
    # report the runner returned
    name, sets = ENVELOPE_RUNS[kind]
    path, experiment = CONFIGS / f"{name}.json", EXPERIMENTS[kind]
    run, reports = getattr(sweep, experiment.runner), []

    def kept(config):
        reports.append(run(config))
        return reports[-1]

    monkeypatch.setattr(sweep, experiment.runner, kept)
    argv = [experiment.subcommand, "--config", str(path), "--out", str(tmp_path)]
    assert main(argv + [arg for item in sets for arg in ("--set", item)]) == 0
    echo = validate_config(apply_overrides(load_config(path), sets)).echo
    names = experiment.reports(echo["output"])
    doc = json.loads((tmp_path / names["json"]).read_text())
    assert doc.pop("kind") == json.loads(path.read_text())["experiment"] == kind
    assert doc.pop("tool_version") == __version__
    assert doc.pop("config") == echo
    assert doc == json.loads(json.dumps(_jsonify(reports[0].body())))
    if experiment.subcommand in ("sweep-source", "sweep-eigen"):
        first = (tmp_path / names["csv"]).read_text().splitlines()[1].split(",")
        assert first[1] == ("0" if kind == "source-homog" else "1")


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
            # zero, negative and boundary values too, which a builder refuses
            # with exit 1 or a run must survive
            param = st.sampled_from([0.0, -1.0, 0.5, 1.0]) | st.floats(-4.0, 4.0)
            doc[key] = {"name": name, "params": draw(
                st.lists(param, max_size=BUILTINS[name][1]))}
    top = 2 if doc.get("family", {}).get("name") == "laminate2d" else 4
    doc |= {"h_list": sorted(draw(st.sets(st.integers(1, top), min_size=1, max_size=3))),
           "points_per_period": draw(st.sampled_from([16, 20, 32])),
           "eigen_count": draw(st.integers(1, 4)),
           "seed": draw(st.integers(0, 3)),
           "targets": draw(st.integers(1, 3)),
           "cell_resolution": draw(st.sampled_from([16, 17, 32, 48])),
           "solver": {"eig_tol": draw(st.sampled_from([1e-10, 1e-14]))}}
    return doc


@pytest.mark.parametrize("kind", sorted(EXPERIMENTS))
@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_small_configs_end_in_report_or_named_exit(kind, data):
    # every config ends in a report (0), a named config key (1) or a named
    # numerical stage (2); an exception out of main is a traceback
    doc = data.draw(_small_configs(kind))
    assert set(doc) <= set(SCHEMA)  # a stale key would only test the unknown-key exit
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


def _leaves(schema, prefix=""):
    """(dotted path, type tag, least value or None) of each leaf of a schema."""
    for key, (tag, _default, _desc, *least) in schema.items():
        if isinstance(tag, dict):
            yield from _leaves(tag, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", tag, (least or [None])[0]


LEAVES = list(_leaves(SCHEMA))
# a kind that reads each family-valued key
_READER = {"family": "eigen-homog", "potential": "eigen-potential",
           "source": "source-homog"}


def _leaf_values(path, tag, least):
    """Values of a leaf within its type and least value that ``_minimal`` of the
    leaf's kind admits: small enough for every budget of a [4, 8] ladder."""
    top = path.split(".")[0]
    if path == "experiment":
        return st.sampled_from(sorted(EXPERIMENTS))
    if path.endswith(".name"):
        return st.sampled_from(_NAMES[top])
    if path.endswith(".params"):
        name = _minimal(_READER[top])[top]["name"]
        return st.lists(st.floats(1.5, 4.0), max_size=BUILTINS[name][1])
    if path == "solver.eig_tol":
        return st.floats(1e-14, 1.0)
    if path in ("family.alpha", "family.beta"):  # osc1d [2] takes the values 1 and 3
        return st.floats(-1e3, 1.0) if path == "family.alpha" else st.floats(3.0, 1e3)
    if path.startswith("output."):
        return st.text(st.sampled_from("az09._-"), min_size=1, max_size=12).filter(
            lambda name: name not in (".", "..", "report.csv", "report.json"))
    if tag == "float":
        return st.floats(-1e3, 1e3)
    if tag == "int_list":
        return st.lists(st.integers(least, 64), min_size=1, max_size=4,
                        unique=True).map(sorted)
    return st.integers(least, least + 100)


@pytest.mark.parametrize("path,tag,least", LEAVES, ids=[leaf[0] for leaf in LEAVES])
@settings(derandomize=True, deadline=None, max_examples=10)
@given(data=st.data())
def test_set_round_trips_through_the_echo(path, tag, least, data):
    # a --set value within its leaf's type and least value is echoed as given,
    # and the echo validates to itself
    value = data.draw(_leaf_values(path, tag, least))
    kind = value if path == "experiment" else _READER.get(path.split(".")[0], "eigen-homog")
    echo = validate_config(apply_overrides(_minimal(kind), [f"{path}={json.dumps(value)}"])).echo
    node = echo
    for part in path.split("."):
        node = node[part]
    assert node == value
    assert validate_config(echo).echo == echo


RANGED = [leaf for leaf in LEAVES if leaf[2] is not None]


@pytest.mark.parametrize("path,tag,least", RANGED, ids=[leaf[0] for leaf in RANGED])
@settings(derandomize=True, deadline=None, max_examples=5)
@given(data=st.data())
def test_set_below_the_least_value_exits_1(path, tag, least, data):
    if tag == "int_list":  # ascending, so only the range is at fault
        value = data.draw(st.lists(st.integers(least - 50, 64), min_size=1, max_size=4,
                                   unique=True).map(sorted).filter(lambda v: v[0] < least))
    else:
        value = data.draw(st.integers(least - 100, least - 1))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        cfg = _write(Path(tmp), _minimal())
        assert main(["validate", "--config", str(cfg), "--set",
                     f"{path}={json.dumps(value)}"]) == 1
    assert err.getvalue().startswith(f"gconv: config error: config key '{path}': ")
    assert f"must be >= {least}" in err.getvalue()
