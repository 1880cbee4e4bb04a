import numpy as np
import pytest

from gconv import assembly
from gconv.families import (
    CoefficientFamily,
    ResolutionError,
    make_builtin_family,
    piecewise_coefficient,
    validate_ellipticity,
)
from gconv.mesh import PERIODIC, build_interval_mesh, build_space


def _pairing(family, h, phi, cells):
    """integral(V_h * phi) over (0, 1): 1' M phi, M the periodic mass of V_h."""
    sp = build_space(build_interval_mesh(cells), PERIODIC)
    M = assembly.assemble_mass(sp, family, h=h)
    return float(np.ones(sp.num_dofs) @ (M @ sp.interpolate(phi)))


def _one(x):
    return np.ones_like(x)


def _tent(x):  # periodic, and exact in P1 on an even number of cells
    return 1.0 - np.abs(2.0 * x - 1.0)


def _tent_third(x):  # periodic, peak at 1/3: exact in P1 on 3 * 2^k cells
    return np.minimum(3.0 * x, 1.5 * (1.0 - x))


def test_osc1d_bounds():
    fam = make_builtin_family("osc1d", [2.0])
    assert fam.alpha == 1.0 and fam.beta == 3.0
    x = np.linspace(0, 1, 1000)
    vals = fam.values_at(3, x)
    assert vals.min() >= 1.0 and vals.max() <= 3.0


def test_spike_l2_norm():
    # p = 2, h = 4: amplitude 2 on [0, 1/4], so the L2 norm is exactly 1
    fam = make_builtin_family("spike-potential", [2.0])
    x = np.linspace(0, 0.25, 1001)[:-1]
    assert np.allclose(fam.values_at(4, x), 2.0)
    assert fam.values_at(4, np.array([0.3, 0.9])).max() == 0.0
    nodes = (np.arange(4096) + 0.5) / 4096
    l2 = np.sqrt(np.mean(fam.values_at(4, nodes) ** 2))
    assert abs(l2 - 1.0) <= 1e-12


def test_sin2_range_and_limit():
    fam = make_builtin_family("sin2-potential")
    x = np.linspace(0, 1, 513)
    v = fam.values_at(7, x)
    assert v.min() >= 0.0 and v.max() <= 1.0
    assert np.allclose(fam.limit_at(x), 0.5)


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        make_builtin_family("fractal1d")


@pytest.mark.parametrize("name,params", [
    ("osc1d", [0.5]),          # alpha would be negative
    ("twophase1d", [1.0, -2.0]),
    ("laminate2d", [0.0, 4.0]),
    ("const", [-1.0]),
    ("spike-potential", [1.5]),
    ("const-potential", [-0.1]),
])
def test_bad_params_rejected(name, params):
    with pytest.raises(ValueError):
        make_builtin_family(name, params)


def test_validate_ellipticity_const():
    fam = make_builtin_family("const", [2.5])
    rep = validate_ellipticity(fam, 1, 200, seed=3)
    assert abs(rep.min_quotient - 2.5) <= 1e-12
    assert abs(rep.max_norm_ratio - 2.5) <= 1e-12
    assert rep.passed


def test_validate_ellipticity_osc1d():
    fam = make_builtin_family("osc1d", [2.0])
    rep = validate_ellipticity(fam, 5, 10_000, seed=0)
    assert rep.min_quotient >= 1.0 and rep.max_norm_ratio <= 3.0
    assert rep.passed


def test_validate_ellipticity_detects_violation():
    bad = CoefficientFamily(
        name="bad", dim=1, alpha=1.0, beta=2.0,
        unit_profile=lambda y: np.sin(2 * np.pi * y),  # crosses zero
        feature_fraction=1.0,
    )
    rep = validate_ellipticity(bad, 3, 5000, seed=1)
    assert not rep.passed


@pytest.mark.parametrize("name", ["osc1d", "twophase1d", "laminate2d", "const"])
def test_builtins_elliptic_across_ladder(name):
    fam = make_builtin_family(name)
    for h in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        rep = validate_ellipticity(fam, h, 1000, seed=h)
        assert rep.passed, f"{name} failed at h={h}"


def test_weak_limit_sin2_constant_test_function():
    fam = make_builtin_family("sin2-potential")
    assert abs(_pairing(fam, 8, _one, 512) - 0.5) <= 1e-10


def test_weak_limit_spike():
    fam = make_builtin_family("spike-potential", [2.0])
    assert abs(_pairing(fam, 16, _one, 512) - 0.25) <= 1e-12  # 16^(1/2) / 16


def test_weak_limit_const_potential():
    fam = make_builtin_family("const-potential", [1.7])
    pairing = _pairing(fam, 3, _tent, 128)
    assert abs(pairing - 1.7 * 0.5) <= 1e-12
    limit = _pairing(fam.limit_family(), 1, _tent, 128)
    assert abs(limit - pairing) <= 1e-14


def test_weak_limit_refuses_coarse_quadrature():
    fam = make_builtin_family("sin2-potential")  # feature 1/(2h)
    with pytest.raises(ResolutionError):
        _pairing(fam, 16, _tent, 64)


def test_sin2_pairings_whole_period_cancellation():
    # whole periods of cos(4 pi h x) cancel except against the kinks of the
    # test function, so the error decays like h^-2; kinks at 0 and 1/3 keep
    # every 2h harmonic of the tent nonzero (dyadic kinks would zero them)
    fam = make_builtin_family("sin2-potential")
    ref = _pairing(fam.limit_family(), 1, _tent_third, 3 * 4096)
    hs = np.array([4, 8, 16, 32, 64])
    errs = np.array([abs(_pairing(fam, int(h), _tent_third, 3 * 4096) - ref)
                     for h in hs])
    assert errs.min() > 1e-7  # well above round-off
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope + 2.0) <= 0.1


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_spike_pairing_decay_rate(p):
    fam = make_builtin_family("spike-potential", [p])
    hs = np.array([16, 32, 64, 128, 256])
    pair = np.array([_pairing(fam, int(h), _one, int(32 * h)) for h in hs])
    slope = np.polyfit(np.log(hs), np.log(pair), 1)[0]
    assert abs(slope - (1.0 / p - 1.0)) <= 0.1


def test_piecewise_rejects_overlap():
    a = make_builtin_family("const", [1.0])
    b = make_builtin_family("const", [2.0])
    with pytest.raises(ValueError, match="overlap"):
        piecewise_coefficient([((0.0, 0.6), a), ((0.5, 1.0), b)])


def test_osc_source_strong_convergence():
    fam = make_builtin_family("osc-source", [1.0])
    x = np.linspace(0, 1, 2049)
    for h in (4, 16, 64):
        dev = np.abs(fam.values_at(h, x) - fam.limit_at(x)).max()
        assert dev <= 1.0 / h + 1e-15
