"""Coefficient, potential and source sequences indexed by a frequency h.

Built-in families realize the canonical settings of periodic homogenization
(oscillation at frequency h) plus a concentration family for the weakly but
not uniformly convergent potential regime.  Every family carries what its
limit oracle reads (a unit-cell profile, or an analytic limit), and
oscillatory families expose the length of their finest feature so numerical
consumers can refuse to sample below RESOLUTION_POINTS points per feature
instead of silently aliasing.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .linalg import NumericalError

RESOLUTION_POINTS = 16

WEAK_STAR_LINF = "weak-star-Linf"
WEAK_LP = "weak-Lp"


class ResolutionError(NumericalError):
    """A family was sampled below the points-per-feature rule."""

    stage = "resolution check"


def check_resolution(scale: float | None, spacing: float, context: str) -> None:
    """Refuse a sample spacing above 1/RESOLUTION_POINTS of a feature's length."""
    if scale is None:
        return
    limit = scale / RESOLUTION_POINTS
    if spacing > limit * (1.0 + 1e-12):
        raise ResolutionError(
            f"{context}: sample spacing {spacing:.3e} exceeds {limit:.3e} "
            f"({RESOLUTION_POINTS} points per feature of length {scale:.3e})"
        )


def _first_coordinate(x) -> np.ndarray:
    """The coordinate every built-in family reads, of points (..., dim)."""
    return np.asarray(x, dtype=float)[..., 0]


@dataclass(frozen=True, eq=False)
class CoefficientFamily:
    """Symmetric elliptic coefficient sequence A_h(x) = a(h x) I with bounds alpha, beta.

    ``unit_profile`` is the 1-periodic profile a on the unit cell, read at
    h x1 (x1 the first coordinate) and by the homogenization oracles.
    """

    name: str
    dim: int
    alpha: float
    beta: float
    unit_profile: Callable[[np.ndarray], np.ndarray]
    feature_fraction: float | None = None   # finest feature = fraction / h

    def feature_scale(self, h: int) -> float | None:
        if self.feature_fraction is None:
            return None
        return self.feature_fraction / h

    def values_at(self, h: int, x) -> np.ndarray:
        """Isotropic multiplier a_h at sample points (..., dim)."""
        return np.asarray(self.unit_profile(h * _first_coordinate(x)), dtype=float)

    def matrix_at(self, h: int, x) -> np.ndarray:
        """Full coefficient matrices a_h(x) * I with shape (..., dim, dim)."""
        a = self.values_at(h, x)
        out = np.zeros(a.shape + (self.dim, self.dim))
        for d in range(self.dim):
            out[..., d, d] = a
        return out


@dataclass(frozen=True, eq=False)
class ConstantMatrixCoefficient:
    """Fixed symmetric matrix coefficient (the homogenized-limit pencil)."""

    matrix: np.ndarray
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

    def matrix_at(self, h: int, x) -> np.ndarray:
        return np.broadcast_to(self.matrix, np.shape(x)[:-1] + self.matrix.shape).copy()


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


class _Sequence:
    """Values f_h and the limit f of an h-indexed sequence of functions."""

    def values_at(self, h: int, x) -> np.ndarray:
        """f_h at sample points (..., dim)."""
        return np.asarray(self.values(h, _first_coordinate(x)), dtype=float)

    def limit_family(self):
        """The limit as an h-independent family of the same class."""
        return replace(self, name=f"{self.name}-limit", feature_fraction=None,
                       values=lambda h, x: self.limit(x))


@dataclass(frozen=True, eq=False)
class PotentialFamily(_Sequence):
    """Nonnegative multiplicative perturbation V_h with a declared limit.

    ``convergence`` tags the mode in which V_h approaches the limit:
    ``weak-star-Linf`` (uniformly bounded) or ``weak-Lp`` (bounded in L^p).
    """

    name: str
    convergence: str
    values: Callable[[int, np.ndarray], np.ndarray]
    limit: Callable[[np.ndarray], np.ndarray]
    feature_fraction: float | None = None

    def feature_scale(self, h: int) -> float | None:
        if self.feature_fraction is None:
            return None
        return self.feature_fraction / h


@dataclass(frozen=True, eq=False)
class SourceFamily(_Sequence):
    """Right-hand side sequence f_h converging strongly to ``limit``."""

    name: str
    values: Callable[[int, np.ndarray], np.ndarray]
    limit: Callable[[np.ndarray], np.ndarray]
    feature_fraction: float | None = None

    def feature_scale(self, h: int) -> float | None:
        if self.feature_fraction is None:
            return None
        return self.feature_fraction  # fixed-scale oscillation, h-independent


def _two_phase_profile(p1: float, p2: float):
    def profile(y):
        y = np.asarray(y, dtype=float)
        return np.where(np.mod(y, 1.0) < 0.5, p1, p2)

    return profile


def _sin_profile(offset: float):
    def profile(y):
        return offset + np.sin(2.0 * np.pi * np.asarray(y, dtype=float))

    return profile


BUILTIN_NAMES = (
    "osc1d",
    "twophase1d",
    "laminate2d",
    "const",
    "sin2-potential",
    "spike-potential",
    "const-potential",
    "const-source",
    "osc-source",
)


def make_builtin_family(name: str, params=()):
    """Construct a built-in family from its identifier and numeric parameters.

    Raises ``ValueError`` for unknown names or parameters that violate the
    required bounds (ellipticity alpha > 0, nonnegative potentials).
    """
    params = [float(p) for p in params]

    if name == "osc1d":
        offset = params[0] if params else 2.0
        if offset <= 1.0:
            raise ValueError(f"osc1d offset must exceed 1 for alpha > 0, got {offset}")
        profile = _sin_profile(offset)
        return CoefficientFamily(
            name="osc1d", dim=1, alpha=offset - 1.0, beta=offset + 1.0,
            unit_profile=profile, feature_fraction=1.0,
        )

    if name == "twophase1d":
        p1, p2 = (params + [1.0, 4.0])[:2] if params else (1.0, 4.0)
        if min(p1, p2) <= 0.0:
            raise ValueError(f"twophase1d phases must be positive, got {p1}, {p2}")
        profile = _two_phase_profile(p1, p2)
        return CoefficientFamily(
            name="twophase1d", dim=1, alpha=min(p1, p2), beta=max(p1, p2),
            unit_profile=profile, feature_fraction=1.0,
        )

    if name == "laminate2d":
        if len(params) >= 2:
            p1, p2 = params[0], params[1]
            if min(p1, p2) <= 0.0:
                raise ValueError(f"laminate2d phases must be positive, got {p1}, {p2}")
            profile = _two_phase_profile(p1, p2)
            alpha, beta = min(p1, p2), max(p1, p2)
        else:
            offset = params[0] if params else 2.0
            if offset <= 1.0:
                raise ValueError(f"laminate2d offset must exceed 1, got {offset}")
            profile = _sin_profile(offset)
            alpha, beta = offset - 1.0, offset + 1.0
        return CoefficientFamily(
            name="laminate2d", dim=2, alpha=alpha, beta=beta,
            unit_profile=profile, feature_fraction=1.0,
        )

    if name == "const":
        c = params[0] if params else 1.0
        if c <= 0.0:
            raise ValueError(f"const coefficient must be positive, got {c}")
        return CoefficientFamily(
            name="const", dim=1, alpha=c, beta=c,
            unit_profile=lambda y: np.full(np.shape(y), c, dtype=float),
            feature_fraction=None,
        )

    if name == "sin2-potential":
        # sin^2(2 pi h x) is 1/(2h)-periodic; its weak* limit is the mean 1/2.
        return PotentialFamily(
            name="sin2-potential", convergence=WEAK_STAR_LINF,
            values=lambda h, x: np.sin(2.0 * np.pi * h * x) ** 2,
            limit=lambda x: np.full(np.shape(x), 0.5, dtype=float),
            feature_fraction=0.5,
        )

    if name == "spike-potential":
        p = params[0] if params else 2.0
        if p < 2.0:
            raise ValueError(f"spike-potential exponent must satisfy p >= 2, got {p}")
        return PotentialFamily(
            name="spike-potential", convergence=WEAK_LP,
            values=lambda h, x: np.where(
                (x >= 0.0) & (x <= 1.0 / h), float(h) ** (1.0 / p), 0.0
            ),
            limit=lambda x: np.zeros(np.shape(x), dtype=float),
            feature_fraction=1.0,
        )

    if name == "const-potential":
        c = params[0] if params else 1.0
        if c < 0.0:
            raise ValueError(f"const-potential must be nonnegative, got {c}")
        return PotentialFamily(
            name="const-potential", convergence=WEAK_STAR_LINF,
            values=lambda h, x: np.full(np.shape(x), c, dtype=float),
            limit=lambda x: np.full(np.shape(x), c, dtype=float),
            feature_fraction=None,
        )

    if name == "const-source":
        c = params[0] if params else 1.0
        return SourceFamily(
            name="const-source",
            values=lambda h, x: np.full(np.shape(x), c, dtype=float),
            limit=lambda x: np.full(np.shape(x), c, dtype=float),
        )

    if name == "osc-source":
        c = params[0] if params else 1.0
        return SourceFamily(
            name="osc-source",
            values=lambda h, x: c + np.sin(2.0 * np.pi * x) / h,
            limit=lambda x: np.full(np.shape(x), c, dtype=float),
            feature_fraction=1.0,
        )

    raise ValueError(f"unknown family '{name}' (choose from {', '.join(BUILTIN_NAMES)})")


def piecewise_coefficient(pieces) -> PiecewiseCoefficient:
    """Glue 1D coefficient families on disjoint subintervals."""
    return PiecewiseCoefficient(tuple(((float(a), float(b)), fam) for (a, b), fam in pieces))


@dataclass(frozen=True)
class EllipticityReport:
    """Sampled check of the uniform bounds alpha, beta of a coefficient family."""

    family: str
    h: int
    samples: int
    min_quotient: float
    max_norm_ratio: float
    alpha: float
    beta: float

    @property
    def passed(self) -> bool:
        slack = 1e-12
        return (self.min_quotient >= self.alpha - slack
                and self.max_norm_ratio <= self.beta + slack)


def validate_ellipticity(family, h: int, sample_count: int = 1000,
                         seed: int = 0, alpha: float | None = None,
                         beta: float | None = None) -> EllipticityReport:
    """Sample random points and directions against the declared bounds.

    Reports the worst-case Rayleigh quotient xi.A xi / |xi|^2 and operator
    norm ratio |A xi| / |xi|; the report fails when either leaves the
    declared [alpha, beta] band by more than 1e-12.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    alpha = family.alpha if alpha is None else float(alpha)
    beta = family.beta if beta is None else float(beta)
    rng = np.random.default_rng(seed)
    dim = family.dim
    x = rng.uniform(0.0, 1.0, size=(sample_count, dim))
    xi = rng.normal(size=(sample_count, dim))
    xi /= np.linalg.norm(xi, axis=1)[:, None]
    Axi = np.einsum("sij,sj->si", family.matrix_at(h, x), xi)
    quot = np.einsum("si,si->s", xi, Axi)
    ratio = np.linalg.norm(Axi, axis=1)
    return EllipticityReport(
        family=family.name, h=h, samples=sample_count,
        min_quotient=float(quot.min()), max_norm_ratio=float(ratio.max()),
        alpha=alpha, beta=beta,
    )

