"""Forcing term G, barrier radii, exponent conditions, stationary radius."""

from math import comb

import numpy as np
import pytest

from starflow.cli import _parse_psi_terms
from starflow.flow import FlowConfig, speed_terms
from starflow.geometry import GeometryState
from starflow.speed import (
    SpeedSpec,
    barrier_radii,
    check_forcing,
    monotonicity_report,
    sphere_radius,
)
from starflow.spheregrid import full_s2_grid
from starflow.symfunc import PowerMean, QuotientRoot, SigmaKRoot, WeightedProduct


def test_speed_spec_validation():
    spec = SpeedSpec(c=1.0, a=0.0, b=-2.0)
    assert spec.isotropic
    assert spec.axis_aligned()
    with pytest.raises(ValueError):
        check_forcing(SpeedSpec(c=0.0, a=0.0, b=1.0), 1.0)
    with pytest.raises(ValueError):
        check_forcing(SpeedSpec(c=-2.0, a=0.0, b=1.0), 1.0)
    aniso = SpeedSpec(c=1.0, a=0.0, b=0.0, w=(0.0, 0.0, 0.2))
    assert not aniso.isotropic
    assert aniso.axis_aligned()
    tilted = SpeedSpec(c=1.0, a=0.0, b=0.0, w=(0.2, 0.0, 0.0))
    assert not tilted.axis_aligned()
    # w is a field: forcings that differ only in w differ
    assert aniso == SpeedSpec(c=1.0, a=0.0, b=0.0, w=(0.0, 0.0, 0.2))
    assert aniso != tilted and aniso != SpeedSpec(c=1.0, a=0.0, b=0.0)
    # only w = sum s_j v_j counts: zero-strength factors and factors that
    # cancel are isotropic, and so axis-aligned, whatever their directions
    for psi in ("0 1 0 0", "0.2 1 0 0; 0.2 -1 0 0", "0.2 1 0 0; -0.2 1 0 0"):
        spec = SpeedSpec(c=1.0, a=0.0, b=0.0, w=_parse_psi_terms(psi))
        assert spec.isotropic and spec.axis_aligned()
    # off-axis parts that cancel leave an axis-aligned, anisotropic w
    spec = SpeedSpec(c=1.0, a=0.0, b=0.0, w=_parse_psi_terms("0.2 1 0 0; 0.2 -1 0 0; 0.1 0 0 1"))
    assert not spec.isotropic and spec.axis_aligned()


@pytest.mark.parametrize(
    "c, s, ok",
    [
        (1.0, 700.0, True),
        (1.0, 710.0, False),          # e^|w| overflows
        (1e300, 15.0, True),
        (1e300, 20.0, False),         # c e^|w| overflows
        (1e-300, 15.0, True),
        (1e-300, 20.0, False),        # c e^-|w| is not a normal double
        (1e-320, 0.0, False),         # c itself is subnormal
    ],
)
def test_speed_spec_refuses_forcing_outside_double_range(c, s, ok):
    w = (0.0, 0.0, s)
    if ok:
        spec = SpeedSpec(c=c, a=0.0, b=-2.0, w=w)
        check_forcing(spec, 1.0)
        size = np.linalg.norm(spec.w)
        assert 0.0 < c * np.exp(-size) and c * np.exp(size) < np.inf
    else:
        with pytest.raises(ValueError, match="overflows a double"):
            check_forcing(SpeedSpec(c=c, a=0.0, b=-2.0, w=w), 1.0)


# F(1, 1) = 2^{1/p} underflows to 0 for |p| below about 1e-3 at n = 2
UNDERFLOWING_F = [
    PowerMean(p=-1e-4),
    WeightedProduct(terms=((SigmaKRoot(k=1), 0.5), (PowerMean(p=-1e-4), 0.5))),
]


@pytest.mark.parametrize("F", UNDERFLOWING_F, ids=["power_mean", "product"])
def test_sphere_radius_refuses_an_F_of_ones_that_underflows(F):
    # pytest turns a RuntimeWarning from evaluating F(1, 1) into an error
    spec = SpeedSpec(c=1.0, a=0.0, b=-2.0)
    message = r"F\(1, \.\.\., 1\) = 0 is not a positive normal double"
    with pytest.raises(ValueError, match=message):
        sphere_radius(spec, F, 2, 1.0)
    with pytest.raises(ValueError, match=message):
        barrier_radii(spec, F, 2, 1.0)


def G_table(w, c=1.0):
    """The config's c ψ(ξ) table on a 9x16 grid, whose middle row is the equator."""
    grid = full_s2_grid(m_theta=9, m_phi=16)
    spec = SpeedSpec(c=c, a=0.0, b=-2.0, w=w)
    return FlowConfig(grid=grid, F=SigmaKRoot(k=2), G=spec, beta=1.0).G_table, grid.xi


def test_G_table_pointwise():
    # w = 0.2 e_x: nodes (4, 0) and (4, 8) face +-e_x, nodes (4, 4) and
    # (4, 12) lie on the great circle orthogonal to w
    table, _ = G_table((0.2, 0.0, 0.0))
    assert table[4, 0] == pytest.approx(np.exp(0.2), rel=1e-14)
    assert table[4, 8] == pytest.approx(np.exp(-0.2), rel=1e-14)
    assert table[4, 4] == pytest.approx(1.0, rel=1e-14)
    assert table[4, 12] == pytest.approx(1.0, rel=1e-14)
    # factors multiply, and c scales the whole table
    w = _parse_psi_terms("0.2 0 0 1; -0.1 1 0 0")
    table, xi = G_table(w, c=3.0)
    want = 3.0 * np.exp(0.2 * xi[..., 2]) * np.exp(-0.1 * xi[..., 0])
    np.testing.assert_allclose(table, want, rtol=1e-14)


def test_sphere_radius_between_the_barriers_for_every_direction():
    # two factors combine into exp<xi, w> with w = 0.3 e_z + 0.1 e_y; with
    # F(1, 1) = 1, beta = 1 and b = -2 the sphere radius at psi is psi itself,
    # so r1 and r2 are the extrema of psi, attained at xi = -+w/|w|
    spec = SpeedSpec(c=1.0, a=0.0, b=-2.0, w=_parse_psi_terms("0.3 0 0 1; 0.1 0 1 0"))
    r1, r2 = barrier_radii(spec, SigmaKRoot(k=2), 2, 1.0)
    w = np.array([0.0, 0.1, 0.3])

    def radius(xi):
        return sphere_radius(spec, SigmaKRoot(k=2), 2, 1.0, float(np.exp(xi @ w)))

    w_hat = w / np.linalg.norm(w)
    assert r1 == pytest.approx(radius(-w_hat), rel=1e-15)
    assert r2 == pytest.approx(radius(w_hat), rel=1e-15)
    dirs = np.random.default_rng(4).normal(size=(2000, 3))
    radii = [radius(xi) for xi in dirs / np.linalg.norm(dirs, axis=1, keepdims=True)]
    assert r1 <= min(radii) and max(radii) <= r2


def G_at(spec, xi, u, rho):
    """G at one node through flow.speed_terms, the run's one definition of
    Q = G·F^{-β}, with the table c ψ(ξ) at ξ and the unit sphere's κ = (1, 1),
    at which F = σ_2^{1/2} is 1, so that Q is G."""
    cfg = FlowConfig(full_s2_grid(m_theta=8, m_phi=16), SigmaKRoot(k=2), spec, beta=1.0)
    cfg.G_table = spec.c * np.exp(xi @ np.array(spec.w))
    # speed_terms reads κ, u and ρ of a state
    geom = GeometryState(grid=cfg.grid, gamma=None, b_t=None, b_p=None, rho=rho, omega=None,
                         u=u, grad_sq=None, kappa=np.ones(2))
    ok, f_val, _, q = speed_terms(cfg, geom)
    assert ok and f_val == 1.0
    return q


def test_G_from_table_values():
    xi = np.array([0.0, 0.0, 1.0])
    # pure radius power
    spec = SpeedSpec(c=1.0, a=0.0, b=-2.0)
    assert G_at(spec, xi, 1.3, 1.3) == pytest.approx(1.3**-2, rel=1e-14)
    # split exponents with amplitude
    spec = SpeedSpec(c=2.0, a=-0.5, b=-1.5)
    assert G_at(spec, xi, 4.0, 4.0) == pytest.approx(2.0 / 16.0, rel=1e-14)
    # anisotropy multiplies in at the north pole
    spec = SpeedSpec(c=1.0, a=0.0, b=-2.0, w=(0.0, 0.0, 0.2))
    assert G_at(spec, xi, 1.0, 1.0) == pytest.approx(np.exp(0.2), rel=1e-14)


def test_G_from_table_homogeneity():
    rng = np.random.default_rng(6)
    spec = SpeedSpec(c=1.7, a=-0.5, b=-1.5)
    for _ in range(30):
        xi = rng.normal(size=3)
        xi /= np.linalg.norm(xi)
        u = float(rng.uniform(0.2, 2.0))
        rho = u * float(rng.uniform(1.0, 1.5))
        lam = float(rng.uniform(0.5, 3.0))
        base = float(G_at(spec, xi, u, rho))
        scaled = float(G_at(spec, xi, lam * u, lam * rho))
        assert scaled == pytest.approx(lam ** (spec.a + spec.b) * base, rel=1e-12)


def test_barrier_radii_isotropic_pinch():
    r1, r2 = barrier_radii(SpeedSpec(c=1.0, a=0.0, b=-2.0), SigmaKRoot(k=2), 2, 1.0)
    assert r1 == r2 == pytest.approx(1.0, rel=1e-10)


def test_barrier_radii_anisotropic():
    # the sphere radius at psi is psi here, so the radii are e^{-+|w|}
    spec = SpeedSpec(c=1.0, a=0.0, b=-2.0, w=(0.0, 0.0, 0.2))
    r1, r2 = barrier_radii(spec, SigmaKRoot(k=2), 2, 1.0)
    assert r1 == pytest.approx(np.exp(-0.2), rel=1e-15)
    assert r2 == pytest.approx(np.exp(0.2), rel=1e-15)
    assert r1 < r2


def test_barrier_radii_wrong_scaling():
    with pytest.raises(ValueError, match=r"^a \+ b \+ beta > 0: sphere comparison runs the wrong"):
        barrier_radii(SpeedSpec(c=1.0, a=1.0, b=0.0), SigmaKRoot(k=2), 2, 1.0)
    # scale-invariant: no isolated comparison spheres
    with pytest.raises(ValueError, match=r"^a \+ b \+ beta = 0: forcing is scale-invariant"):
        barrier_radii(SpeedSpec(c=1.0, a=0.0, b=-1.0), SigmaKRoot(k=2), 2, 1.0)


def test_monotonicity_report():
    margins = monotonicity_report(SpeedSpec(c=1.0, a=0.0, b=-2.0), 1.0)
    assert margins["radial_scaling"] == pytest.approx(1.0)
    assert margins["radial_contraction"] == pytest.approx(1.0)
    assert margins["support_free"] == pytest.approx(1.0)
    assert margins["radial_scaling"] > 0
    assert not margins["support_nonzero"] > 0
    assert margins["support_negative"] >= 0

    margins = monotonicity_report(SpeedSpec(c=1.0, a=-0.5, b=-1.5), 1.0)
    assert margins["radial_scaling"] == pytest.approx(1.0)
    assert margins["support_negative"] == pytest.approx(0.5)
    assert margins["support_free"] == float("-inf")
    assert margins["support_nonzero"] == pytest.approx(0.5)


def test_sphere_radius_identity_mode():
    for c, psi, k, n, want in (
        # eta = 1 for sigma_2^{1/2} on S^2, so c R^{a+b+beta} = 1
        (1.0, "", 2, 2, 1.0),
        (2.0, "", 2, 2, 2.0),
        (2.0, "0.2 1 0 0; 0.2 -1 0 0", 2, 2, 2.0),  # factors that cancel
        # eta = 1/3 for sigma_1 on S^3: R = 1/3
        (1.0, "", 1, 3, 1.0 / 3.0),
    ):
        spec = SpeedSpec(c=c, a=0.0, b=-2.0, w=_parse_psi_terms(psi))
        r = sphere_radius(spec, SigmaKRoot(k=k), n, 1.0)
        assert r == pytest.approx(want, rel=1e-10)
        # isotropic barriers coincide with the stationary sphere exactly
        assert barrier_radii(spec, SigmaKRoot(k=k), n, 1.0) == (r, r)


# F(1, ..., 1) in closed form: C(n,k)^{1/k} for a σ_k root,
# (C(n,k)/C(n,l))^{1/(k-l)} for a quotient, n^{1/p} for a power mean and
# Π F_i(1, ..., 1)^{α_i} for a product
F_AT_ONE = [
    (SigmaKRoot(k=2), 3, comb(3, 2) ** (1.0 / 2.0)),
    (SigmaKRoot(k=4), 4, 1.0),
    (QuotientRoot(k=3, l=1), 4, (comb(4, 3) / comb(4, 1)) ** (1.0 / 2.0)),
    (QuotientRoot(k=2, l=0), 2, 1.0),
    (PowerMean(p=-1.5), 3, 3.0 ** (1.0 / -1.5)),
    (
        WeightedProduct(terms=((SigmaKRoot(k=2), 0.25), (QuotientRoot(k=3, l=1), 0.25), (PowerMean(p=-2.0), 0.5))),
        5,
        comb(5, 2) ** (0.25 / 2.0) * (comb(5, 3) / comb(5, 1)) ** (0.25 / 2.0) * 5.0 ** (0.5 / -2.0),
    ),
]


@pytest.mark.parametrize(
    "F_spec, n, f_unit", F_AT_ONE, ids=["sigma2", "sigma4", "quotient31", "quotient20", "power_mean", "product"]
)
def test_sphere_radius_reads_F_at_one(F_spec, n, f_unit):
    # a + b + β = -1 with β = 2: (c ψ)^{1/2} r^{-1/2} = F(1, ..., 1) gives
    # r = c ψ / F(1, ..., 1)²
    spec = SpeedSpec(c=2.0, a=0.0, b=-3.0, w=(0.0, 0.0, 0.3))
    assert sphere_radius(spec, F_spec, n, 2.0) == pytest.approx(2.0 / f_unit**2, rel=1e-12)
    r1, r2 = barrier_radii(spec, F_spec, n, 2.0)
    assert r1 == pytest.approx(2.0 * np.exp(-0.3) / f_unit**2, rel=1e-12)
    assert r2 == pytest.approx(2.0 * np.exp(0.3) / f_unit**2, rel=1e-12)


def test_sphere_radius_of_a_tiny_beta():
    # c r^-2 = (F(1, 1)/r)^β with F(1, 1) = 1 holds at r = 2^{1/(2-β)}, √2 for
    # β near 0; log(c ψ) / β would overflow at β = 1e-310, which pytest turns
    # into an error, and the closed form divides only by a + b + β
    spec = SpeedSpec(c=2.0, a=0.0, b=-2.0)
    assert sphere_radius(spec, SigmaKRoot(k=2), 2, 1e-310) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    r1, r2 = barrier_radii(spec, SigmaKRoot(k=2), 2, 1e-310)
    assert r1 == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert r2 == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_sphere_radius_rejections():
    with pytest.raises(ValueError, match="scale-invariant"):
        sphere_radius(SpeedSpec(c=1.0, a=0.0, b=-1.0), SigmaKRoot(k=2), 2, 1.0)
    # R = c here: roots at log R = -+69.1 lie outside [1e-6, 1e6]
    for c, log_r in ((1e-30, "-69.1"), (1e30, "69.1")):
        message = rf"inside \[1e-06, 1e\+06\] \(root at log r = {log_r}\)"
        with pytest.raises(ValueError, match=message):
            sphere_radius(SpeedSpec(c=c, a=0.0, b=-2.0), SigmaKRoot(k=2), 2, 1.0)
