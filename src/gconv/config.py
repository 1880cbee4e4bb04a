"""Strict JSON configuration schema for experiment runs.

A config is a single JSON object; unknown keys are rejected anywhere in the
document and every reported problem names the offending key.  Overrides use
dotted paths (``solver.eig_tol=1e-8``) with values parsed as JSON and type
checked against the schema.
"""
from __future__ import annotations

import copy
import json
from dataclasses import fields

from .families import (
    RESOLUTION_POINTS,
    CoefficientFamily,
    PotentialFamily,
    SourceFamily,
    make_builtin_family,
)
from .homogenize import MIN_QUAD_POINTS
from .sweep import EXPERIMENTS, ExperimentConfig

MAX_DOFS = 1_000_000
# the 1D rule builds a dense matrix of this order; 16 points integrate degree 31
MAX_QUAD_ORDER = 16

# least value of each numeric top-level key
MINIMA = {
    "seed": 0,
    "targets": 0,
    "points_per_period": 16,
    "eigen_count": 1,
    "quad_order": 1,
    "windows": 1,
    "quad_points": MIN_QUAD_POINTS,
    "cell_resolution": RESOLUTION_POINTS,  # the cell oracle's resolution rule
    "perturbation_scale": 0.0,
}


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


# the family class each family-valued config key takes
FAMILY_CLASSES = {
    "family": CoefficientFamily,
    "potential": PotentialFamily,
    "source": SourceFamily,
}


# leaf spec: (type tag, default, description); required leaves have default
# REQUIRED.  Type tags: str, int, float, int_list, float_list, float_pair;
# a dict in place of a tag is a nested schema.
REQUIRED = object()

_FAMILY_SCHEMA = {
    "name": ("str", REQUIRED, "built-in family identifier"),
    "params": ("float_list", [], "numeric family parameters"),
    "alpha": ("float", None, "declared ellipticity lower bound (default: derived)"),
    "beta": ("float", None, "declared upper bound (default: derived)"),
}

_SOLVER_SCHEMA = {
    "eig_tol": ("float", 1e-10, "relative eigen-residual tolerance"),
}

_OUTPUT_SCHEMA = {
    "csv": ("str", None, "CSV report filename (under the output directory)"),
    "json": ("str", None, "JSON report filename"),
}

SCHEMA = {
    "experiment": ("str", REQUIRED,
                   "one of " + ", ".join(EXPERIMENTS)),
    "seed": ("int", 0, "seed for every randomized probe"),
    "h_list": ("int_list", [4, 8, 16, 32, 64], "ascending frequency ladder"),
    "points_per_period": ("int", 32, "mesh points per oscillation period (>= 16)"),
    "eigen_count": ("int", 3, "number of eigenpairs per rung"),
    "quad_order": ("int", 4, f"Gauss points per 1D cell, 1 to {MAX_QUAD_ORDER} "
                             "(2D: 1 or 2)"),
    "family": (_FAMILY_SCHEMA, None, "coefficient family spec"),
    "potential": (_FAMILY_SCHEMA, None, "potential family spec"),
    "source": (_FAMILY_SCHEMA, None, "source family spec"),
    "solver": (_SOLVER_SCHEMA, {}, "solver tolerances"),
    "output": (_OUTPUT_SCHEMA, {}, "report filenames"),
    "windows": ("int", 8, "strip count for weak-convergence probes"),
    "phi_support": ("float_pair", [0.25, 0.75], "support of the pairing bump"),
    "affine": ("float_pair", [1.0, 0.0], "recovery probe u(x) = a x + b as [a, b]"),
    "targets": ("int", 20, "random liminf targets"),
    "perturbation_scale": ("float", 0.5, "liminf perturbation amplitude"),
    "cell_resolution": ("int", 128, "2D unit-cell resolution for the limit tensor"),
    "quad_points": ("int", 512, "quadrature subintervals for 1D limit oracles"),
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
    if tag == "float_pair":
        return (isinstance(value, list) and len(value) == 2
                and all(_type_ok("float", v) for v in value))
    raise AssertionError(f"unknown type tag {tag}")


def _validate_level(data, schema, prefix):
    if not isinstance(data, dict):
        raise ConfigError(f"config key '{prefix or '<root>'}': expected an object")
    for key in data:
        if key not in schema:
            path = f"{prefix}.{key}" if prefix else key
            raise ConfigError(f"config key '{path}': unknown key")
    out = {}
    for key, (tag, default, _desc) in schema.items():
        path = f"{prefix}.{key}" if prefix else key
        if key not in data and default is REQUIRED:
            raise ConfigError(f"config key '{path}': required key missing")
        value = data.get(key, default)
        if value is None and default is None:
            out[key] = None  # null is valid only where the default is null
        elif isinstance(tag, dict):
            out[key] = _validate_level(value, tag, path)
        elif not _type_ok(tag, value):
            raise ConfigError(f"config key '{path}': expected {tag}, got {value!r}")
        else:
            out[key] = copy.deepcopy(value)
    return out


def validate_config(data: dict) -> dict:
    """Validate a raw config dict, fill defaults, return the effective config."""
    effective = _validate_level(data, SCHEMA, "")
    kind = effective["experiment"]
    if kind not in EXPERIMENTS:
        raise ConfigError(
            f"config key 'experiment': unknown kind '{kind}' "
            f"(choose from {', '.join(EXPERIMENTS)})"
        )
    experiment = EXPERIMENTS[kind]
    for req in experiment.requires:
        if effective.get(req) is None:
            raise ConfigError(f"config key '{req}': required for experiment '{kind}'")
    hs = effective["h_list"]
    if hs != sorted(hs) or len(set(hs)) != len(hs):
        raise ConfigError("config key 'h_list': must be strictly ascending")
    if hs[0] < 1:
        raise ConfigError("config key 'h_list': entries must be >= 1")
    for key, least in MINIMA.items():
        if not effective[key] >= least:  # a NaN fails too
            raise ConfigError(f"config key '{key}': must be >= {least}")
    if effective["quad_order"] > MAX_QUAD_ORDER:
        raise ConfigError(f"config key 'quad_order': must be <= {MAX_QUAD_ORDER}")
    if not effective["solver"]["eig_tol"] > 0:
        raise ConfigError("config key 'solver.eig_tol': must be > 0")
    a, b = effective["phi_support"]
    if not a < b:
        raise ConfigError("config key 'phi_support': must be [a, b] with a < b")
    families = {key: build_family(effective[key], key) for key in FAMILY_CLASSES}
    family = families["family"]
    dim = getattr(family, "dim", 1)
    if "source" in experiment.requires and dim != 1:
        raise ConfigError(
            f"config key 'source': built-in sources are 1D, but family "
            f"'{family.name}' is {dim}D"
        )
    ppp = effective["points_per_period"]
    n = ppp * hs[-1]
    if experiment.ladder and n ** dim > MAX_DOFS:
        raise ConfigError(
            f"config key 'h_list': mesh of {n ** dim} dofs exceeds the budget "
            f"of {MAX_DOFS}"
        )
    coarsest = (ppp * hs[0] - 1) ** dim
    if experiment.ladder and effective["eigen_count"] > coarsest:
        raise ConfigError(f"config key 'eigen_count': must be <= {coarsest}, "
                          f"the dofs of the coarsest rung h={hs[0]}")
    rung = experiment.strip_rung  # no strip narrower than one cell
    if rung is not None and effective["windows"] > ppp * hs[rung]:
        raise ConfigError(f"config key 'windows': must be <= {ppp * hs[rung]}, "
                          f"the cells of the h={hs[rung]} mesh")
    return effective


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config file '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file '{path}': invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file '{path}': top level must be an object")
    return data


def apply_overrides(data: dict, overrides) -> dict:
    """Apply ``key.path=value`` overrides; values parse as JSON, else strings."""
    data = copy.deepcopy(data)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}': expected key=value")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = path.split(".")
        schema = SCHEMA
        for i, part in enumerate(parts[:-1]):
            if part not in schema:
                raise ConfigError(f"override key '{'.'.join(parts[: i + 1])}': unknown key")
            tag = schema[part][0]
            if not isinstance(tag, dict):
                raise ConfigError(f"override key '{path}': '{part}' is not an object")
            schema = tag
            if node.get(part) is None:  # null starts a fresh object, as absence does
                node[part] = {}
            node = node[part]
            if not isinstance(node, dict):
                raise ConfigError(f"override key '{path}': config key '{part}' "
                                  f"holds {node!r}, not an object")
        leaf = parts[-1]
        if leaf not in schema:
            raise ConfigError(f"override key '{path}': unknown key")
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


def experiment_from_config(effective: dict) -> ExperimentConfig:
    """Assemble the typed experiment description from an effective config."""
    names = {f.name for f in fields(ExperimentConfig)} - set(FAMILY_CLASSES)
    flat = {key: tuple(value) if isinstance(value, list) else value
            for key, value in effective.items() if key in names}
    families = {key: build_family(effective[key], key) for key in FAMILY_CLASSES}
    return ExperimentConfig(kind=effective["experiment"],
                            eig_tol=effective["solver"]["eig_tol"], echo=effective,
                            **flat, **families)


def schema_help(kind: str | None = None) -> str:
    """Render the config keys with types and defaults for --help epilogs."""
    lines = ["config keys:"]

    def walk(schema, prefix):
        for key, (tag, default, desc) in schema.items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(tag, dict):
                walk(tag, path)
            else:
                shown = "required" if default is REQUIRED else f"default {default!r}"
                lines.append(f"  {path} ({tag}, {shown}): {desc}")

    walk(SCHEMA, "")
    if kind:
        lines.append("required for this subcommand: "
                     + ", ".join(EXPERIMENTS[kind].requires))
    return "\n".join(lines)
