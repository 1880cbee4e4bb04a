"""Strict JSON configuration schema for experiment runs.

A config is a single JSON object; unknown keys are rejected anywhere in the
document and every reported problem names the offending key.  Overrides use
dotted paths (``solver.eig_tol=1e-8``) with values parsed as JSON and type
checked against the schema.
"""
from __future__ import annotations

import copy
import json
import math
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
from .mesh import axis_step
from .sweep import EIGEN_KINDS, EXPERIMENTS, ExperimentConfig

# most dofs of one mesh, by dimension.  A 2D factor fills about 5.4 times
# per 4 times the dofs: a laminate2d sweep's rung factored to 1.0M, 5.6M and
# 30.0M nnz at 128^2, 256^2 and 512^2, the last in 17 s at a 1.0 GiB peak
# on a 2-core, 8 GiB host, where a 1000^2 mesh would not fit in memory
MAX_DOFS = {1: 1_000_000, 2: 512 ** 2}
# most doubles of ARPACK's Lanczos basis: min(n, max(2k + 1, 20)) vectors
# (scipy's default ncv) of the finest mesh's n dofs, 1 GiB
MAX_BASIS_DOUBLES = 2 ** 27

# least value of each numeric top-level key
MINIMA = {
    "seed": 0,
    "targets": 1,
    "points_per_period": 16,
    "eigen_count": 1,
    "windows": 1,
    "cell_resolution": RESOLUTION_POINTS,  # the cell oracle's resolution rule
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
    "family": (_FAMILY_SCHEMA, None, "coefficient family spec"),
    "potential": (_SEQUENCE_SCHEMA, None, "potential family spec"),
    "source": (_SEQUENCE_SCHEMA, None, "source family spec"),
    "solver": (_SOLVER_SCHEMA, {}, "solver tolerances"),
    "output": (_OUTPUT_SCHEMA, {}, "report filenames"),
    "windows": ("int", 8, "strip count for weak-convergence probes"),
    "phi_support": ("float_pair", [0.25, 0.75], "support of the pairing bump"),
    "affine": ("float_pair", [1.0, 0.0], "recovery probe u(x) = a x + b as [a, b]"),
    "targets": ("int", 20, "random targets of the envelope check"),
    "cell_resolution": ("int", 128, "2D unit-cell resolution for the limit tensor"),
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


def validate_config(data: dict) -> ExperimentConfig:
    """Check a raw config dict and build the experiment it describes.

    Defaults are filled; the effective config is the result's ``echo``, and
    the families built for the checks are the ones the run uses.
    """
    effective = _validate_level(data, SCHEMA, "")
    kind = effective["experiment"]
    if kind not in EXPERIMENTS:
        raise ConfigError(
            f"config key 'experiment': unknown kind '{kind}' "
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
    if hs[0] < 1:
        raise ConfigError("config key 'h_list': entries must be >= 1")
    for key, least in MINIMA.items():
        if not effective[key] >= least:  # a NaN fails too
            raise ConfigError(f"config key '{key}': must be >= {least}")
    dofs = effective["cell_resolution"] ** 2  # the 2D limit oracle's budget
    if dofs > MAX_DOFS[2]:
        raise ConfigError(f"config key 'cell_resolution': cell problem of {dofs} "
                          f"dofs exceeds the budget of {MAX_DOFS[2]} for 2D meshes")
    if not 0 < effective["solver"]["eig_tol"] < math.inf:  # a NaN fails too
        raise ConfigError("config key 'solver.eig_tol': must be finite and > 0")
    if not all(map(math.isfinite, effective["affine"])):  # JSON reads NaN, Infinity
        raise ConfigError("config key 'affine': entries must be finite")
    a, b = effective["phi_support"]
    width = 2.0 / (effective["points_per_period"] * hs[-1])  # two finest cells
    if not (0.0 <= a and b <= 1.0 and b - a >= width):  # a NaN fails too
        raise ConfigError(f"config key 'phi_support': must be [a, b] with 0 <= a, "
                          f"b <= 1 and b - a >= {width:g}, two cells of the finest mesh")
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
    if kind in EIGEN_KINDS and k > coarsest:
        raise ConfigError(f"config key 'eigen_count': must be <= {coarsest}, "
                          f"the dofs of the coarsest rung h={hs[0]}")
    finest = (n - 1) ** dim
    basis = min(finest, max(2 * k + 1, 20)) * finest
    if kind in EIGEN_KINDS and basis > MAX_BASIS_DOUBLES:
        raise ConfigError(f"config key 'eigen_count': {k} eigenpairs on the "
                          f"{finest}-dof finest mesh need a Lanczos basis of {basis} "
                          f"doubles, over the budget of {MAX_BASIS_DOUBLES}")
    rung = experiment.strip_rung  # no strip narrower than one cell
    if rung is not None and effective["windows"] > ppp * hs[rung]:
        raise ConfigError(f"config key 'windows': must be <= {ppp * hs[rung]}, "
                          f"the cells of the h={hs[rung]} mesh")
    names = {f.name for f in fields(ExperimentConfig)} - set(FAMILY_CLASSES)
    flat = {key: tuple(value) if isinstance(value, list) else value
            for key, value in effective.items() if key in names}
    return ExperimentConfig(kind=kind, eig_tol=effective["solver"]["eig_tol"],
                            echo=effective, **flat, **families)


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
    """Apply ``key.path=value`` overrides; values parse as JSON, else strings.

    ``validate_config`` checks the keys and values they set.
    """
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
        *parents, leaf = path.split(".")
        for part in parents:
            if node.get(part) is None:  # null starts a fresh object, as absence does
                node[part] = {}
            node = node[part]
            if not isinstance(node, dict):
                raise ConfigError(f"override key '{path}': config key '{part}' "
                                  f"holds {node!r}, not an object")
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
        experiment = EXPERIMENTS[kind]
        lines.append("required for this subcommand: " + ", ".join(experiment.requires)
                     + "".join(f"; optional: {key}" for key in experiment.optional))
    return "\n".join(lines)
