import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gconv import assembly
from gconv.families import (
    BUILTINS,
    RESOLUTION_POINTS,
    CoefficientFamily,
    PotentialFamily,
    ResolutionError,
    check_resolution,
    make_builtin_family,
    piecewise_coefficient,
)
from gconv.mesh import PERIODIC, build_interval_mesh, build_space


def _pairing(family, h, phi, cells):
    """integral(V_h * phi) over (0, 1): 1' M phi, M the periodic mass of V_h."""
    sp = build_space(build_interval_mesh(cells), PERIODIC)
    M = assembly.assemble_mass(sp, family, h=h)
    return float(np.ones(sp.num_dofs) @ (M @ sp.interpolate(lambda p: phi(p[:, 0]))))


def _one(x):
    return np.ones_like(x)


def _tent(x):  # periodic, and exact in P1 on an even number of cells
    return 1.0 - np.abs(2.0 * x - 1.0)


def _tent_third(x):  # periodic, peak at 1/3: exact in P1 on 3 * 2^k cells
    return np.minimum(3.0 * x, 1.5 * (1.0 - x))


def test_osc1d_bounds():
    fam = make_builtin_family("osc1d", [2.0])
    assert fam.alpha == 1.0 and fam.beta == 3.0
    x = np.linspace(0, 1, 1000)[:, None]
    vals = fam.values_at(3, x)
    assert vals.min() >= 1.0 and vals.max() <= 3.0


def test_spike_l2_norm():
    # p = 2, h = 4: amplitude 2 on [0, 1/4], so the L2 norm is exactly 1
    fam = make_builtin_family("spike-potential", [2.0])
    x = np.linspace(0, 0.25, 1001)[:-1, None]
    assert np.allclose(fam.values_at(4, x), 2.0)
    assert fam.values_at(4, np.array([[0.3], [0.9]])).max() == 0.0
    nodes = ((np.arange(4096) + 0.5) / 4096)[:, None]
    l2 = np.sqrt(np.mean(fam.values_at(4, nodes) ** 2))
    assert abs(l2 - 1.0) <= 1e-12


def test_sin2_range_and_limit():
    fam = make_builtin_family("sin2-potential")
    x = np.linspace(0, 1, 513)[:, None]
    v = fam.values_at(7, x)
    assert v.shape == (513,) and v.min() >= 0.0 and v.max() <= 1.0
    assert np.allclose(fam.limit_family().values_at(1, x), 0.5)


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family") as err:
        make_builtin_family("fractal1d")
    assert f"(choose from {', '.join(BUILTINS)})" in str(err.value)


@pytest.mark.parametrize("name,params,message", [
    ("sin2-potential", [5.0], "'sin2-potential' takes no parameters, got 1"),
    ("osc1d", [2.0, 99.0], "'osc1d' takes at most 1 parameter, got 2"),
    ("laminate2d", [1.0, 4.0, 7.0], "'laminate2d' takes at most 2 parameters, got 3"),
    ("const-source", [1.0, 2.0, 3.0], "'const-source' takes at most 1 parameter, got 3"),
])
def test_extra_params_rejected(name, params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make_builtin_family(name, params)


def test_missing_params_take_the_builder_defaults():
    two = make_builtin_family("twophase1d", [3.0])
    assert (two.alpha, two.beta) == (3.0, 4.0)
    x = np.array([[0.25], [0.75]])
    assert np.array_equal(two.values_at(1, x), [3.0, 4.0])
    # laminate2d takes the osc1d profile [b] or the twophase1d profile [p, q]
    for params, osc in (([], "osc1d"), ([3.0], "osc1d"), ([1.0, 4.0], "twophase1d")):
        lam = make_builtin_family("laminate2d", params)
        ref = make_builtin_family(osc, params)
        assert (lam.dim, lam.alpha, lam.beta) == (2, ref.alpha, ref.beta)
        pts = np.array([[0.1, 0.9], [0.6, 0.2]])
        assert np.array_equal(lam.values_at(3, pts), ref.values_at(3, pts[:, :1]))
    with pytest.raises(ValueError, match="laminate2d offset must exceed 1 for alpha > 0"):
        make_builtin_family("laminate2d", [1.0])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_catalog_families_read_whole_points(data):
    name = data.draw(st.sampled_from(list(BUILTINS)), label="name")
    most = BUILTINS[name][1]
    params = data.draw(st.lists(st.floats(2.0, 6.0), max_size=most), label="params")
    fam = make_builtin_family(name, params)
    h = data.draw(st.integers(1, 64), label="h")
    dim = getattr(fam, "dim", 1)  # potentials and sources are 1D
    x = np.array(data.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=dim,
                                             max_size=dim), min_size=1, max_size=50),
                           label="x"))
    v = fam.values_at(h, x)
    assert v.shape == (len(x),) and np.all(np.isfinite(v))
    alone = [fam.values_at(h, point) for point in x]  # one point (dim,) each
    np.testing.assert_allclose(v, alone, rtol=1e-14, atol=0.0)
    if isinstance(fam, CoefficientFamily):
        assert np.all(v >= fam.alpha - 1e-12) and np.all(v <= fam.beta + 1e-12)
    else:
        limit = fam.limit_family().values_at(h, x)
        assert limit.shape == (len(x),)
        if isinstance(fam, PotentialFamily):
            assert np.all(v >= 0.0) and np.all(limit >= 0.0)
    with pytest.raises(ValueError, match="takes"):
        make_builtin_family(name, [3.0] * (most + 1))


def test_readme_table_lists_the_catalog():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = readme.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("Built-in families"))
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:]))
    # the name cell of each row below the header and its rule
    names = [re.match(r"\|\s*`([^`\s]+)`", row).group(1) for row in rows[2:]]
    assert sorted(names) == sorted(BUILTINS)


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


COEFFICIENTS = ["osc1d", "twophase1d", "laminate2d", "const"]


@pytest.mark.parametrize("name", COEFFICIENTS)
def test_builtins_elliptic_across_ladder(name):
    fam = make_builtin_family(name)
    for h in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        x = np.random.default_rng(h).uniform(0.0, 1.0, size=(1000, fam.dim))
        a = fam.values_at(h, x)
        assert a.min() >= fam.alpha - 1e-12, f"{name} below alpha at h={h}"
        assert a.max() <= fam.beta + 1e-12, f"{name} above beta at h={h}"


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_builtin_bounds_are_exact(data):
    # gconv validate compares declared bounds with alpha and beta, so each
    # must be a value the coefficient takes, not only a bound on it
    name = data.draw(st.sampled_from(COEFFICIENTS), label="name")
    params = {"osc1d": st.lists(st.floats(1.001, 10.0), max_size=1),
              "twophase1d": st.lists(st.floats(0.01, 10.0), max_size=2),
              # the osc1d form [b] and the twophase1d form [p, q]
              "laminate2d": st.one_of(st.lists(st.floats(1.001, 10.0), max_size=1),
                                      st.lists(st.floats(0.01, 10.0), min_size=2,
                                               max_size=2)),
              "const": st.lists(st.floats(0.01, 10.0), max_size=1)}[name]
    fam = make_builtin_family(name, data.draw(params, label="params"))
    # x1 = 1/4 and 3/4 are the extremes of the sinusoid, one in each phase
    x1 = np.linspace(0.0, 1.0, 17)
    x = np.stack([x1] + [np.full_like(x1, 0.3)] * (fam.dim - 1), axis=-1)
    a = fam.values_at(1, x)
    assert abs(a.min() - fam.alpha) <= 1e-12 and abs(a.max() - fam.beta) <= 1e-12


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


def test_resolution_rule_slack_is_one_epsilon():
    scale = 1.0 / (2 * 811)  # the sin^2 feature at h = 811
    limit = scale / RESOLUTION_POINTS
    check_resolution(scale, limit + np.finfo(float).eps, "one epsilon over")
    with pytest.raises(ResolutionError):
        check_resolution(scale, 1.0001 * limit, "coarse")


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
    x = np.linspace(0, 1, 2049)[:, None]
    limit = fam.limit_family().values_at(1, x)
    for h in (4, 16, 64):
        dev = np.abs(fam.values_at(h, x) - limit).max()
        assert dev <= 1.0 / h + 1e-15
