"""Strict JSON configuration schema for experiment runs.

A config is a single JSON object; unknown and duplicate keys are rejected
anywhere in the document and every reported problem names the offending
key.  Overrides use dotted paths (``solver.eig_tol=1e-8``) with values
parsed as JSON and checked against the schema's types and least values.
"""
from __future__ import annotations

import copy
import json
import math
import os
import reprlib
from dataclasses import fields

from .families import (
    RESOLUTION_POINTS,
    CoefficientFamily,
    PotentialFamily,
    ResolutionError,
    SourceFamily,
    check_resolution,
    make_builtin_family,
)
from .linalg import lanczos_vectors
from .mesh import axis_step
from .sweep import EXPERIMENTS, ExperimentConfig

# most dofs of one mesh, by dimension.  On a power-of-two grid a laminate2d
# rung's factor is two length-n arrays (512^2: 2.5 s at a 332 MiB peak on a
# 2-core, 8 GiB host).  On other grids SuperLU's factor fills about 5.4 times
# per 4 times the dofs, 1.0M, 5.6M and 30.0M nnz at 128^2, 256^2 and 512^2,
# the last in 17 s at a 1.0 GiB peak, where a 1000^2 mesh would not fit
MAX_DOFS = {1: 1_000_000, 2: 512 ** 2}
# most doubles of one dense block on the finest mesh's n dofs, 1 GiB: ARPACK's
# Lanczos basis of linalg.lanczos_vectors(n, k) vectors, or the gamma
# check's targets
MAX_BASIS_DOUBLES = 2 ** 27


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key and echoes a
    value only as its bounded ``reprlib.repr``, one line whatever its size."""


# the family class each family-valued config key takes
FAMILY_CLASSES = {
    "family": CoefficientFamily,
    "potential": PotentialFamily,
    "source": SourceFamily,
}


# leaf spec: (type tag, default, description), and for an int or int_list
# leaf optionally its least value (of every entry of a list).  Required
# leaves have default REQUIRED.  Type tags: str, int, float, int_list,
# float_list; a dict in place of a tag is a nested schema.  A key that is an
# ExperimentConfig field takes that field's default.
REQUIRED = object()
DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}

# potentials and sources: a built-in name and its parameters
_SEQUENCE_SCHEMA = {
    "name": ("str", REQUIRED, "built-in family identifier"),
    "params": ("float_list", [], "numeric family parameters"),
}

_FAMILY_SCHEMA = {
    **_SEQUENCE_SCHEMA,
    "alpha": ("float", None, "declared ellipticity lower bound (default: derived)"),
    "beta": ("float", None, "declared upper bound (default: derived)"),
}

_SOLVER_SCHEMA = {
    "eig_tol": ("float", DEFAULTS["eig_tol"], "relative eigen-residual tolerance"),
}

_OUTPUT_SCHEMA = {
    "csv": ("str", None, "CSV report file name, no directory (under --out)"),
    "json": ("str", None, "JSON report file name, not the CSV's"),
}

SCHEMA = {
    "experiment": ("str", REQUIRED,
                   "one of " + ", ".join(EXPERIMENTS)),
    "seed": ("int", DEFAULTS["seed"], "seed for every randomized probe", 0),
    "h_list": ("int_list", [4, 8, 16, 32, 64], "ascending frequency ladder", 1),
    "points_per_period": ("int", DEFAULTS["points_per_period"],
                          "mesh points per oscillation period", 16),
    "eigen_count": ("int", DEFAULTS["eigen_count"], "number of eigenpairs per rung", 1),
    "family": (_FAMILY_SCHEMA, None, "coefficient family spec"),
    "potential": (_SEQUENCE_SCHEMA, None, "potential family spec"),
    "source": (_SEQUENCE_SCHEMA, None, "source family spec"),
    "solver": (_SOLVER_SCHEMA, {}, "solver tolerances"),
    "output": (_OUTPUT_SCHEMA, {}, "report filenames"),
    "targets": ("int", DEFAULTS["targets"], "random targets of the envelope check", 1),
    # the cell oracle's resolution rule
    "cell_resolution": ("int", DEFAULTS["cell_resolution"],
                        "2D unit-cell resolution of the cell problem, which only "
                        "homogenize solves",
                        RESOLUTION_POINTS),
}


def _type_ok(tag, value):
    if tag == "str":
        return isinstance(value, str)
    if tag == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if tag == "float":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if tag == "int_list":
        return (isinstance(value, list) and len(value) >= 1
                and all(_type_ok("int", v) for v in value))
    if tag == "float_list":
        return isinstance(value, list) and all(_type_ok("float", v) for v in value)
    raise AssertionError(f"unknown type tag {tag}")


def _validate_level(data, schema, prefix):
    if not isinstance(data, dict):
        raise ConfigError(f"config key '{prefix or '<root>'}': expected an object")
    for key in data:
        if key not in schema:
            path = f"{prefix}.{key}" if prefix else key
            raise ConfigError(f"config key {reprlib.repr(path)}: unknown key")
    out = {}
    for key, (tag, default, _desc, *least) in schema.items():
        path = f"{prefix}.{key}" if prefix else key
        if key not in data and default is REQUIRED:
            raise ConfigError(f"config key '{path}': required key missing")
        value = data.get(key, default)
        if value is None and default is None:
            out[key] = None  # null is valid only where the default is null
        elif isinstance(tag, dict):
            out[key] = _validate_level(value, tag, path)
        elif not _type_ok(tag, value):
            raise ConfigError(f"config key '{path}': expected {tag}, got "
                              f"{reprlib.repr(value)} (type {type(value).__name__})")
        elif least and min(value if tag == "int_list" else [value]) < least[0]:
            entries = "entries " if tag == "int_list" else ""
            raise ConfigError(f"config key '{path}': {entries}must be >= {least[0]}")
        else:
            out[key] = copy.deepcopy(value)
    return out


def validate_config(data: dict) -> ExperimentConfig:
    """Check a raw config dict and build the experiment it describes.

    Defaults are filled; the effective config is the result's ``echo``, and
    the families built for the checks are the ones the run uses.
    """
    effective = _validate_level(data, SCHEMA, "")
    kind = effective["experiment"]
    if kind not in EXPERIMENTS:
        raise ConfigError(
            f"config key 'experiment': unknown kind {reprlib.repr(kind)} "
            f"(choose from {', '.join(EXPERIMENTS)})"
        )
    experiment = EXPERIMENTS[kind]
    for key in FAMILY_CLASSES:
        if effective[key] is None and key in experiment.requires:
            raise ConfigError(f"config key '{key}': required for experiment '{kind}'")
        if (effective[key] is not None
                and key not in experiment.requires + experiment.optional):
            raise ConfigError(f"config key '{key}': experiment '{kind}' does not read it")
    hs = effective["h_list"]
    if hs != sorted(hs) or len(set(hs)) != len(hs):
        raise ConfigError("config key 'h_list': must be strictly ascending")
    dofs = effective["cell_resolution"] ** 2  # the 2D limit oracle's budget
    if dofs > MAX_DOFS[2]:
        raise ConfigError(f"config key 'cell_resolution': cell problem of {dofs} "
                          f"dofs exceeds the budget of {MAX_DOFS[2]} for 2D meshes")
    if not 0 < effective["solver"]["eig_tol"] < math.inf:  # a NaN fails too
        raise ConfigError("config key 'solver.eig_tol': must be finite and > 0")
    output = effective["output"]
    reports = experiment.reports(output)
    for fmt, name in output.items():
        if name is not None and fmt not in reports:
            raise ConfigError(f"config key 'output.{fmt}': experiment '{kind}' "
                              f"writes no {fmt.upper()} report")
        if name is not None and (name in ("", ".", "..") or "\0" in name
                                 or os.path.basename(name) != name):
            raise ConfigError(f"config key 'output.{fmt}': {reprlib.repr(name)} "
                              "is not a plain file name")
    if reports.get("csv") == reports["json"]:
        raise ConfigError(f"config key 'output.json': {reprlib.repr(reports['json'])} "
                          "names the CSV report too")
    families = {key: build_family(effective[key], key) for key in FAMILY_CLASSES}
    family = families["family"]
    dim = getattr(family, "dim", 1)
    for key in ("potential", "source"):
        if families[key] is not None and dim != 1:
            raise ConfigError(f"config key '{key}': built-in {key}s are 1D, but "
                              f"family '{family.name}' is {dim}D")
    ppp = effective["points_per_period"]
    n = ppp * hs[-1]
    if experiment.ladder and n ** dim > MAX_DOFS[dim]:
        raise ConfigError(
            f"config key 'h_list': mesh of {n ** dim} dofs exceeds the budget "
            f"of {MAX_DOFS[dim]} for {dim}D meshes"
        )
    sampled = [(key, fam) for key, fam in families.items() if fam is not None]
    for h in hs if experiment.ladder else ():  # each family on the mesh the run samples
        cells = ppp * (h if experiment.rung_meshes else hs[-1])
        spacing = axis_step(cells)
        for key, fam in sampled:
            try:
                check_resolution(fam.feature_scale(h), spacing,
                                 f"{key} '{fam.name}' at h={h} on the {cells}-cell mesh")
            except ResolutionError as exc:
                raise ConfigError(f"config key 'points_per_period': {exc}") from exc
    k = effective["eigen_count"]
    coarsest = (ppp * hs[0] - 1) ** dim
    if experiment.eigen and k > coarsest:
        raise ConfigError(f"config key 'eigen_count': must be <= {coarsest}, "
                          f"the dofs of the coarsest rung h={hs[0]}")
    finest = (n - 1) ** dim
    basis = lanczos_vectors(finest, k) * finest
    if experiment.eigen and basis > MAX_BASIS_DOUBLES:
        raise ConfigError(f"config key 'eigen_count': {k} eigenpairs on the "
                          f"{finest}-dof finest mesh need a Lanczos basis of {basis} "
                          f"doubles, over the budget of {MAX_BASIS_DOUBLES}")
    t = effective["targets"]
    if kind == "gamma" and t * finest > MAX_BASIS_DOUBLES:
        raise ConfigError(f"config key 'targets': {t} targets on the {finest}-dof "
                          f"finest mesh need {t * finest} doubles, over the budget "
                          f"of {MAX_BASIS_DOUBLES}")
    flat = {key: tuple(value) if isinstance(value, list) else value
            for key, value in effective.items()
            if key in DEFAULTS and key not in FAMILY_CLASSES}
    return ExperimentConfig(kind=kind, eig_tol=effective["solver"]["eig_tol"],
                            echo=effective, **flat, **families)


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; ``json`` alone keeps the last of two equal keys."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"config key '{key}': duplicate key")
        out[key] = value
    return out


def load_config(path) -> dict:
    """The JSON object of a config file, read as UTF-8, JSON's encoding."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"config file '{path}': {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file '{path}': invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file '{path}': top level must be an object")
    return data


def apply_overrides(data: dict, overrides) -> dict:
    """Apply ``key.path=value`` overrides; values parse as JSON, else strings.

    ``validate_config`` checks the keys and values they set.  The objects on
    each override's path are copied, so ``data`` is left as it was.
    """
    data = dict(data)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {reprlib.repr(item)}: expected key=value")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError:
            value = raw
        except RecursionError as exc:
            raise ConfigError(f"override key '{path}': invalid JSON ({exc})") from exc
        node = data
        *parents, leaf = path.split(".")
        for part in parents:
            child = node.get(part)
            if child is not None and not isinstance(child, dict):
                raise ConfigError(f"override key '{path}': config key '{part}' holds "
                                  f"{reprlib.repr(child)}, not an object "
                                  f"(type {type(child).__name__})")
            node[part] = dict(child or {})  # null starts a fresh object, as absence does
            node = node[part]
        node[leaf] = value
    return data


def build_family(spec: dict, key: str):
    """The built-in family a config spec names, or None for a null spec.

    Raises ``ConfigError`` unless the family is of the class ``key`` takes.
    The spec's ``alpha`` and ``beta`` are read only by ``gconv validate``.
    """
    if spec is None:
        return None
    try:
        fam = make_builtin_family(spec["name"], spec.get("params") or [])
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': {exc}") from exc
    expected = FAMILY_CLASSES[key]
    if not isinstance(fam, expected):
        raise ConfigError(
            f"config key '{key}': '{spec['name']}' is a {type(fam).__name__}, "
            f"expected a {expected.__name__}"
        )
    return fam


def schema_help(kind: str | None = None) -> str:
    """Render the config keys with types, defaults and least values for
    --help epilogs."""
    lines = ["config keys:"]

    def walk(schema, prefix):
        for key, (tag, default, desc, *least) in schema.items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(tag, dict):
                walk(tag, path)
            else:
                shown = "required" if default is REQUIRED else f"default {default!r}"
                entries = "entries " if tag == "int_list" else ""
                shown += f", {entries}>= {least[0]}" if least else ""
                lines.append(f"  {path} ({tag}, {shown}): {desc}")

    walk(SCHEMA, "")
    if kind:
        experiment = EXPERIMENTS[kind]
        lines.append("required for this subcommand: " + ", ".join(experiment.requires)
                     + "".join(f"; optional: {key}" for key in experiment.optional))
    return "\n".join(lines)
