"""Forcing term G, barrier radii, exponent conditions, stationary radius."""

import numpy as np
import pytest

from starflow.speed import (
    G_from_table,
    PsiTerm,
    SpeedSpec,
    barrier_radii,
    monotonicity_report,
    psi_eval,
    sphere_radius,
)
from starflow.symfunc import SigmaKRoot

EZ = (0.0, 0.0, 1.0)


def test_psi_term_validation():
    PsiTerm(s=0.5, v=EZ)
    with pytest.raises(ValueError):
        PsiTerm(s=0.5, v=(0.0, 0.0, 2.0))
    with pytest.raises(ValueError):
        PsiTerm(s=0.5, v=(0.0, 0.0))
    with pytest.raises(ValueError):
        PsiTerm(s=0.5, v=(np.nan, 0.0, 1.0))


def test_speed_spec_validation():
    spec = SpeedSpec(c=1.0, a=0.0, b=-2.0)
    assert spec.isotropic
    assert spec.axis_aligned()
    with pytest.raises(ValueError):
        SpeedSpec(c=0.0, a=0.0, b=1.0)
    with pytest.raises(ValueError):
        SpeedSpec(c=-2.0, a=0.0, b=1.0)
    aniso = SpeedSpec(c=1.0, a=0.0, b=0.0, psi=(PsiTerm(s=0.2, v=EZ),))
    assert not aniso.isotropic
    assert aniso.axis_aligned()
    tilted = SpeedSpec(c=1.0, a=0.0, b=0.0, psi=(PsiTerm(s=0.2, v=(1.0, 0.0, 0.0)),))
    assert not tilted.axis_aligned()
    # only w = sum s_j v_j counts: zero-strength terms and terms that cancel
    # are isotropic, and so axis-aligned, whatever their directions
    ex, minus_ex = (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)
    for psi in (
        (PsiTerm(s=0.0, v=ex),),
        (PsiTerm(s=0.2, v=ex), PsiTerm(s=0.2, v=minus_ex)),
        (PsiTerm(s=0.2, v=ex), PsiTerm(s=-0.2, v=ex)),
    ):
        spec = SpeedSpec(c=1.0, a=0.0, b=0.0, psi=psi)
        assert spec.isotropic and spec.axis_aligned()
    # off-axis parts that cancel leave an axis-aligned, anisotropic w
    spec = SpeedSpec(
        c=1.0, a=0.0, b=0.0,
        psi=(PsiTerm(s=0.2, v=ex), PsiTerm(s=0.2, v=minus_ex), PsiTerm(s=0.1, v=EZ)),
    )
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
    psi = (PsiTerm(s=s, v=EZ),)
    if ok:
        spec = SpeedSpec(c=c, a=0.0, b=-2.0, psi=psi)
        size = np.linalg.norm(spec.w)
        assert 0.0 < c * np.exp(-size) and c * np.exp(size) < np.inf
    else:
        with pytest.raises(ValueError, match="overflows a double"):
            SpeedSpec(c=c, a=0.0, b=-2.0, psi=psi)


def test_psi_eval_pointwise():
    spec = SpeedSpec(c=1.0, a=0.0, b=0.0, psi=(PsiTerm(s=0.2, v=EZ),))
    north = np.array([0.0, 0.0, 1.0])
    south = np.array([0.0, 0.0, -1.0])
    equator = np.array([1.0, 0.0, 0.0])
    assert psi_eval(spec, north) == pytest.approx(np.exp(0.2), rel=1e-14)
    assert psi_eval(spec, south) == pytest.approx(np.exp(-0.2), rel=1e-14)
    assert psi_eval(spec, equator) == pytest.approx(1.0, rel=1e-14)
    # terms multiply
    two = SpeedSpec(
        c=1.0, a=0.0, b=0.0,
        psi=(PsiTerm(s=0.2, v=EZ), PsiTerm(s=-0.1, v=(1.0, 0.0, 0.0))),
    )
    xi = np.array([np.sqrt(0.5), 0.0, np.sqrt(0.5)])
    want = np.exp(0.2 * np.sqrt(0.5)) * np.exp(-0.1 * np.sqrt(0.5))
    assert psi_eval(two, xi) == pytest.approx(want, rel=1e-14)


def test_sphere_radius_between_the_barriers_for_every_direction():
    # two factors combine into exp<xi, w> with w = 0.3 e_z + 0.1 e_y; with
    # F(1, 1) = 1, beta = 1 and b = -2 the sphere radius at psi is psi itself,
    # so r1 and r2 are the extrema of psi, attained at xi = -+w/|w|
    spec = SpeedSpec(
        c=1.0, a=0.0, b=-2.0,
        psi=(PsiTerm(s=0.3, v=EZ), PsiTerm(s=0.1, v=(0.0, 1.0, 0.0))),
    )
    r1, r2 = barrier_radii(spec, SigmaKRoot(k=2), 2, 1.0)

    def radius(xi):
        return sphere_radius(spec, SigmaKRoot(k=2), 2, 1.0, float(psi_eval(spec, xi)))

    w = np.array([0.0, 0.1, 0.3])
    w_hat = w / np.linalg.norm(w)
    assert r1 == pytest.approx(radius(-w_hat), rel=1e-15)
    assert r2 == pytest.approx(radius(w_hat), rel=1e-15)
    dirs = np.random.default_rng(4).normal(size=(2000, 3))
    radii = [radius(xi) for xi in dirs / np.linalg.norm(dirs, axis=1, keepdims=True)]
    assert r1 <= min(radii) and max(radii) <= r2


def G_at(spec, xi, u, rho):
    """G at one node through the run's table form, table = c ψ(ξ)."""
    return G_from_table(spec, spec.c * psi_eval(spec, xi), u, rho)


def test_G_from_table_values():
    xi = np.array([0.0, 0.0, 1.0])
    # pure radius power
    spec = SpeedSpec(c=1.0, a=0.0, b=-2.0)
    assert G_at(spec, xi, 1.3, 1.3) == pytest.approx(1.3**-2, rel=1e-14)
    # split exponents with amplitude
    spec = SpeedSpec(c=2.0, a=-0.5, b=-1.5)
    assert G_at(spec, xi, 4.0, 4.0) == pytest.approx(2.0 / 16.0, rel=1e-14)
    # anisotropy multiplies in at the north pole
    spec = SpeedSpec(c=1.0, a=0.0, b=-2.0, psi=(PsiTerm(s=0.2, v=EZ),))
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
    spec = SpeedSpec(c=1.0, a=0.0, b=-2.0, psi=(PsiTerm(s=0.2, v=EZ),))
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
    cancelling = (PsiTerm(s=0.2, v=(1.0, 0.0, 0.0)), PsiTerm(s=0.2, v=(-1.0, 0.0, 0.0)))
    for c, psi, k, n, want in (
        # eta = 1 for sigma_2^{1/2} on S^2, so c R^{a+b+beta} = 1
        (1.0, (), 2, 2, 1.0),
        (2.0, (), 2, 2, 2.0),
        (2.0, cancelling, 2, 2, 2.0),
        # eta = 1/3 for sigma_1 on S^3: R = 1/3
        (1.0, (), 1, 3, 1.0 / 3.0),
    ):
        spec = SpeedSpec(c=c, a=0.0, b=-2.0, psi=psi)
        r = sphere_radius(spec, SigmaKRoot(k=k), n, 1.0)
        assert r == pytest.approx(want, rel=1e-10)
        # isotropic barriers coincide with the stationary sphere exactly
        assert barrier_radii(spec, SigmaKRoot(k=k), n, 1.0) == (r, r)


def test_sphere_radius_rejections():
    with pytest.raises(ValueError, match="scale-invariant"):
        sphere_radius(SpeedSpec(c=1.0, a=0.0, b=-1.0), SigmaKRoot(k=2), 2, 1.0)
    # R = c here: roots at log R = -+69.1 lie outside [1e-6, 1e6]
    for c, log_r in ((1e-30, "-69.1"), (1e30, "69.1")):
        message = rf"inside \[1e-06, 1e\+06\] \(root at log r = {log_r}\)"
        with pytest.raises(ValueError, match=message):
            sphere_radius(SpeedSpec(c=c, a=0.0, b=-2.0), SigmaKRoot(k=2), 2, 1.0)
