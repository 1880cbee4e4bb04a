"""Spans around the public functions of each gconv module, from outside it.

``Tracer.install`` replaces every binding of a traced function in the
loaded ``gconv`` modules (``sweep.eig_smallest``, ``homogenize.cholesky``,
``cli.run_gamma``, ...) and the traced methods on their classes with a
wrapper that records a span; ``uninstall`` puts the originals back.  A
span's self time is its duration minus the durations of the spans opened
inside it, so the self times of one experiment add up to its root span,
``cli.main``.  Counters are taken at the same boundaries.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

# span name -> functions it covers, as "module:qualname" under gconv
SPANS = {
    "cli.main": ("cli:main",),
    "config.validate_config": ("config:validate_config",),
    "sweep.run": ("sweep:run_eigen_homog", "sweep:run_source_homog",
                  "sweep:run_eigen_potential", "sweep:run_gamma",
                  "sweep:run_divcurl"),
    "sweep.interpolate_between": ("sweep:interpolate_between",),
    "sweep.eigenvector_errors": ("sweep:eigenvector_errors",),
    "sweep.emit_report": ("sweep:emit_report",),
    "homogenize.homogenized_tensor": ("homogenize:homogenized_tensor",),
    "variational.liminf_check": ("variational:liminf_check",),
    "variational.recovery_check": ("variational:recovery_check",),
    "linalg.eig_smallest": ("linalg:eig_smallest",),
    "linalg.cholesky": ("linalg:cholesky",),
    "linalg.solve": ("linalg:CholeskyFactor.solve",),
    "assembly.assemble_stiffness": ("assembly:assemble_stiffness",),
    "assembly.assemble_mass": ("assembly:assemble_mass",),
    "mesh.build": ("mesh:build_interval_mesh", "mesh:build_rect_mesh",
                   "mesh:build_space"),
    "families.eval": (),  # every matrix_at / values_at of the family classes
}
FAMILY_METHODS = ("matrix_at", "values_at")

# counters: (name, unit, better)
COUNTERS = (
    ("linalg.lanczos_steps", "count", "lower"),
    ("linalg.factor_nnz", "count", "lower"),
    ("linalg.eig_residual_max", "ratio", "lower"),
    ("assembly.mass_reuse_ratio", "ratio", "higher"),
)


def metric_specs():
    """(name, unit, better) of every per-experiment trace metric."""
    specs = []
    for span in SPANS:
        specs.append((f"{span}.calls", "count", "lower"))
        specs.append((f"{span}.self_s", "s", "lower"))
    return specs + list(COUNTERS)


class Tracer:
    """Span and counter records of the experiments run while installed."""

    def __init__(self):
        self._saved = []      # (owner, attribute, original)
        self._stack = []      # open spans: [name, seconds spent in children]
        self.reset()

    def reset(self) -> None:
        self.spans = {name: [0, 0.0] for name in SPANS}  # calls, self seconds
        self.lanczos_steps = 0
        self.factor_nnz = 0
        self.residual_max = 0.0
        self.mass_keys = set()

    def metrics(self) -> dict:
        out = {}
        for name, (calls, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        mass_calls = self.spans["assembly.assemble_mass"][0]
        out["linalg.lanczos_steps"] = self.lanczos_steps
        out["linalg.factor_nnz"] = self.factor_nnz
        out["linalg.eig_residual_max"] = self.residual_max
        out["assembly.mass_reuse_ratio"] = (len(self.mass_keys) / mass_calls
                                            if mass_calls else 0.0)
        return out

    # -- hooks for the counters ------------------------------------------

    def _on_solve(self, args, kwargs):
        if any(frame[0] == "linalg.eig_smallest" for frame in self._stack):
            self.lanczos_steps += 1

    def _on_mass(self, args, kwargs):
        bound = self._mass_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        space, weight = a["space"], a["weight"]
        self.mass_keys.add((space.mesh.structure, space.rule,
                            getattr(weight, "name", None), a["h"],
                            a["quad_order"]))

    def _after_cholesky(self, factor):
        self.factor_nnz = max(self.factor_nnz, int(factor._lu.nnz))

    def _after_eig(self, result):
        self.residual_max = max(self.residual_max,
                                float(result.residuals.max()))

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the traced functions in gconv's modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "gconv" or name.startswith("gconv.")}
        self._mass_signature = inspect.signature(
            modules["gconv.assembly"].assemble_mass)
        before = {"linalg.solve": self._on_solve,
                  "assembly.assemble_mass": self._on_mass}
        after = {"linalg.cholesky": self._after_cholesky,
                 "linalg.eig_smallest": self._after_eig}
        targets = []   # (span name, owner, attribute)
        for span, paths in SPANS.items():
            for path in paths:
                mod_name, qualname = path.split(":")
                owner = modules[f"gconv.{mod_name}"]
                *outer, attr = qualname.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                targets.append((span, owner, attr))
        families = modules["gconv.families"]
        for cls in vars(families).values():
            if isinstance(cls, type) and cls.__module__ == families.__name__:
                targets += [("families.eval", cls, m) for m in FAMILY_METHODS
                            if m in vars(cls)]
        for span, owner, attr in targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original, before.get(span),
                                 after.get(span))
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for mod in modules.values():  # every module-level binding
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, before, after):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                record = self.spans[name]
                record[0] += 1
                record[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(result)
            return result

        return wrapper
