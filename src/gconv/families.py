"""Coefficient, potential and source sequences indexed by a frequency h.

Built-in families, one ``BUILTINS`` entry each, realize the canonical settings
of periodic homogenization (oscillation at frequency h) plus a concentration
family for the weakly but not uniformly convergent potential regime.  Every
callable a family holds reads points (..., dim), and ``values_at`` is the one
sampling method: a coefficient is that scalar field times its ``matrix``.
Every family carries what its limit oracle reads (a unit-cell profile, or an
analytic limit), and oscillatory families expose their finest feature's length
so consumers can refuse to sample below RESOLUTION_POINTS points per feature.
"""
from __future__ import annotations

import reprlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .linalg import NumericalError

RESOLUTION_POINTS = 16


class ResolutionError(NumericalError):
    """A family was sampled below the points-per-feature rule."""

    stage = "resolution check"


def check_resolution(scale: float | None, spacing: float, context: str) -> None:
    """Refuse a sample spacing above 1/RESOLUTION_POINTS of a feature's length,
    with one epsilon of slack: np.linspace's steps exceed 1/n by <= 0.66 ulp."""
    if scale is None:
        return
    limit = scale / RESOLUTION_POINTS
    if spacing > limit * (1.0 + 1e-12) + np.finfo(float).eps:
        raise ResolutionError(
            f"{context}: sample spacing {spacing:.3e} exceeds {limit:.3e} "
            f"({RESOLUTION_POINTS} points per feature of length {scale:.3e})"
        )


def _first_coordinate(x) -> np.ndarray:
    """The coordinate every built-in family reads, of points (..., dim)."""
    return np.asarray(x, dtype=float)[..., 0]


class _Oscillating:
    """A sequence whose finest feature, of length feature_fraction / h, shrinks with h."""

    def feature_scale(self, h: int) -> float | None:
        if self.feature_fraction is None:
            return None
        return self.feature_fraction / h


@dataclass(frozen=True, eq=False)
class CoefficientFamily(_Oscillating):
    """Symmetric elliptic coefficient sequence A_h(x) = a(h x) I with bounds alpha, beta.

    ``alpha`` and ``beta`` are the least and greatest values of a, not only
    bounds on it.  ``unit_profile`` is the 1-periodic profile a on the unit
    cell: it reads points (..., dim), h x here and unit-cell points in the
    homogenization oracles.  Every built-in profile reads only the first
    coordinate, a laminate's, so ``homogenize`` gives each the lamination
    formula.
    """

    name: str
    dim: int
    alpha: float
    beta: float
    unit_profile: Callable[[np.ndarray], np.ndarray]
    feature_fraction: float | None = None   # finest feature = fraction / h

    def values_at(self, h: int, x) -> np.ndarray:
        """The scalar field a_h at sample points (..., dim)."""
        return np.asarray(self.unit_profile(h * np.asarray(x, dtype=float)), dtype=float)

    @property
    def matrix(self) -> np.ndarray:
        """The constant matrix that a_h multiplies: the identity."""
        return np.eye(self.dim)


@dataclass(frozen=True, eq=False)
class ConstantMatrixCoefficient:
    """The field 1 times a fixed symmetric ``matrix``: a constant pencil, or the
    G-limit A* an oracle returns, with where it came from and its error estimate."""

    matrix: np.ndarray
    provenance: str = "exact"
    est_error: float = 0.0
    name: str = "const-matrix"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("coefficient matrix must be square")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-13):
            raise ValueError("coefficient matrix must be symmetric")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def feature_scale(self, h: int) -> None:
        return None

    def values_at(self, h: int, x) -> np.ndarray:
        return np.ones(np.shape(x)[:-1])


@dataclass(frozen=True, eq=False)
class PiecewiseCoefficient:
    """1D coefficient families on disjoint subintervals.

    Used to exercise locality of the homogenized limit: the limit on a
    subinterval is the limit of the standalone family there.
    """

    pieces: tuple   # ((x0, x1), CoefficientFamily), ...
    name: str = "piecewise"

    def __post_init__(self):
        iv = sorted((float(a), float(b)) for (a, b), _ in self.pieces)
        for (a, b) in iv:
            if not b > a:
                raise ValueError(f"degenerate subdomain [{a}, {b}]")
        for (a0, b0), (a1, b1) in zip(iv, iv[1:]):
            if a1 < b0 - 1e-14:
                raise ValueError(f"overlapping subdomains [{a0},{b0}] and [{a1},{b1}]")
        for _, fam in self.pieces:
            if fam.dim != 1:
                raise ValueError("piecewise composition is 1D only")


@dataclass(frozen=True, eq=False)
class _Sequence(_Oscillating):
    """Values f_h and the limit f of an h-indexed sequence of functions."""

    name: str
    values: Callable[[int, np.ndarray], np.ndarray]
    limit: Callable[[np.ndarray], np.ndarray]
    feature_fraction: float | None = None

    def values_at(self, h: int, x) -> np.ndarray:
        """f_h at sample points (..., dim)."""
        return np.asarray(self.values(h, x), dtype=float)

    def limit_family(self):
        """The limit as an h-independent family of the same class."""
        return replace(self, name=f"{self.name}-limit", feature_fraction=None,
                       values=lambda h, x: self.limit(x))


class PotentialFamily(_Sequence):
    """Nonnegative multiplicative perturbation V_h with a declared limit."""


class SourceFamily(_Sequence):
    """Right-hand side sequence f_h converging strongly to ``limit``."""

    def feature_scale(self, h: int) -> float | None:
        return self.feature_fraction  # fixed-scale oscillation, h-independent


def _constant(c: float):
    """A profile, values or limit equal to c at its last argument, points (..., dim)."""
    return lambda *args: np.full(np.shape(args[-1])[:-1], c, dtype=float)


def _sinusoid(name: str, dim: int):
    def build(offset=2.0):
        if offset <= 1.0:
            raise ValueError(f"{name} offset must exceed 1 for alpha > 0, got {offset}")
        return CoefficientFamily(name, dim, offset - 1.0, offset + 1.0, lambda y: (
            offset + np.sin(2.0 * np.pi * _first_coordinate(y))), 1.0)
    return build


def _two_phase(name: str, dim: int):
    def build(p1=1.0, p2=4.0):
        if min(p1, p2) <= 0.0:
            raise ValueError(f"{name} phases must be positive, got {p1}, {p2}")
        return CoefficientFamily(name, dim, min(p1, p2), max(p1, p2), lambda y: (
            np.where(np.mod(_first_coordinate(y), 1.0) < 0.5, p1, p2)), 1.0)
    return build


def _const(c=1.0):
    if c <= 0.0:
        raise ValueError(f"const coefficient must be positive, got {c}")
    return CoefficientFamily("const", 1, c, c, _constant(c))


def _sin2_potential():
    # sin^2(2 pi h x) is 1/(2h)-periodic; its weak* limit is the mean 1/2.
    return PotentialFamily("sin2-potential", lambda h, x: (
        np.sin(2.0 * np.pi * h * _first_coordinate(x)) ** 2), _constant(0.5), 0.5)


def _spike_potential(p=2.0):
    if p < 2.0:
        raise ValueError(f"spike-potential exponent must satisfy p >= 2, got {p}")

    def values(h, x):
        x = _first_coordinate(x)
        return np.where((x >= 0.0) & (x <= 1.0 / h), float(h) ** (1.0 / p), 0.0)

    return PotentialFamily("spike-potential", values, _constant(0.0), 1.0)


def _const_potential(c=1.0):
    if c < 0.0:
        raise ValueError(f"const-potential must be nonnegative, got {c}")
    return PotentialFamily("const-potential", _constant(c), _constant(c))


def _const_source(c=1.0):
    return SourceFamily("const-source", _constant(c), _constant(c))


def _osc_source(c=1.0):
    return SourceFamily("osc-source", lambda h, x: (
        c + np.sin(2.0 * np.pi * _first_coordinate(x)) / h), _constant(c), 1.0)


# name -> (builder, the most parameters it takes); the builder's own
# defaults fill in the parameters a list leaves out
BUILTINS = {
    "osc1d": (_sinusoid("osc1d", 1), 1),
    "twophase1d": (_two_phase("twophase1d", 1), 2),
    # the osc1d profile [b], or the twophase1d profile [p, q]
    "laminate2d": (lambda *p: (_two_phase if len(p) == 2 else _sinusoid)(
        "laminate2d", 2)(*p), 2),
    "const": (_const, 1),
    "sin2-potential": (_sin2_potential, 0),
    "spike-potential": (_spike_potential, 1),
    "const-potential": (_const_potential, 1),
    "const-source": (_const_source, 1),
    "osc-source": (_osc_source, 1),
}


def make_builtin_family(name: str, params=()):
    """Construct a built-in family from its identifier and numeric parameters.

    Raises ``ValueError`` for unknown names, for parameters that are not
    finite or more than the family takes, and for parameters that violate
    the required bounds (ellipticity alpha > 0, nonnegative potentials).
    """
    if name not in BUILTINS:
        raise ValueError(f"unknown family {reprlib.repr(name)} "
                         f"(choose from {', '.join(BUILTINS)})")
    build, most = BUILTINS[name]
    params = [float(p) for p in params]
    if not np.all(np.isfinite(params)):  # NaN passes every builder's bound check
        raise ValueError(f"'{name}' parameters must be finite, got {reprlib.repr(params)}")
    if len(params) > most:
        takes = f"at most {most} parameter{'s' * (most > 1)}" if most else "no parameters"
        raise ValueError(f"'{name}' takes {takes}, got {len(params)}")
    return build(*params)


def piecewise_coefficient(pieces) -> PiecewiseCoefficient:
    """Glue 1D coefficient families on disjoint subintervals."""
    return PiecewiseCoefficient(tuple(((float(a), float(b)), fam) for (a, b), fam in pieces))
