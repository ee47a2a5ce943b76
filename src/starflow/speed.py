"""Prescribed forcing terms and their admissibility checks.

The right-hand side driving every flow in this package has the separable form

    G(X, ν) = c · exp⟨X/|X|, w⟩ · u^a · ρ^b,

with u = ⟨X, ν⟩ the support value, ρ = |X| and w a fixed 3-vector;
ψ = exp⟨ξ, w⟩ is the anisotropy, and w = 0 gives ψ ≡ 1.  Admissibility
of a (G, F, β) triple is decided here:

- barrier_radii: the largest sphere pinched from inside and the smallest
  pinching from outside, at the extrema e^{∓|w|} of ψ.
- sphere_radius: the one sphere on which (c ψ)^{1/β} r^{(a+b+β)/β} meets
  F(1, ..., 1), in closed form in log r; at ψ = 1 it is the stationary sphere
  of isotropic G, η c R^{a+b+β} = 1 with η = F(1, ..., 1)^{-β}.
- monotonicity_report: the closed-form exponent conditions that the various
  convergence and uniqueness arguments need, each with its margin.

Validators are report-only: nothing here mutates a flow, and the run loop
never calls them.
"""

from typing import NamedTuple

import numpy as np

from .symfunc import F_fused

__all__ = [
    "SpeedSpec",
    "barrier_radii",
    "sphere_radius",
    "monotonicity_report",
]

# the radii a run may reach: a run diverges once some radius leaves
# [RHO_FLOOR, RHO_CEIL], and a barrier or stationary sphere outside it is refused
RHO_FLOOR, RHO_CEIL = 1e-6, 1e6
# -log of the smallest normal double, just below log of the largest double
_LOG_MAX = -float(np.log(np.finfo(float).tiny))


# SpeedSpec's fields; SpeedSpec checks them in __new__, which a NamedTuple
# body may not define
class _SpeedSpec(NamedTuple):
    c: float
    a: float
    b: float
    w: tuple[float, float, float] = (0.0, 0.0, 0.0)


class SpeedSpec(_SpeedSpec):
    """Forcing G = c ψ(ξ) u^a ρ^b, with ψ(ξ) = exp⟨ξ, w⟩; w is a tuple of three
    floats, so equal forcings compare equal."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (np.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"amplitude c must be positive, got {self.c}")
        for x in (self.a, self.b):
            if not np.isfinite(x):
                raise ValueError("exponents must be finite")
        with np.errstate(over="ignore"):  # an infinite |w| is refused below
            size = float(np.linalg.norm(self.w))
        # c ψ ranges over c e^{±|w|}: both ends, and e^{±|w|}, are finite
        # normal doubles exactly when |log c| + |w| < -log(tiny)
        if not abs(float(np.log(self.c))) + size < _LOG_MAX:
            raise ValueError(
                f"forcing c e^(+-|w|) overflows a double: c = {self.c:g}, |w| = {size:g}"
            )
        return self

    @property
    def isotropic(self) -> bool:
        """True when w = 0, so ψ ≡ 1."""
        return not any(self.w)

    def axis_aligned(self) -> bool:
        """True when w is parallel to the polar axis (0, 0, 1), or zero."""
        return abs(self.w[0]) <= 1e-12 and abs(self.w[1]) <= 1e-12


# ---------------------------------------------------------------------------
# admissibility


def barrier_radii(spec: SpeedSpec, F_spec, n: int, beta: float) -> tuple[float, float]:
    """Inner and outer sphere barriers (r₁, r₂) for the triple (G, F, β).

    A sphere of radius r pinches the flow from inside when
    G^{1/β}(rξ, ξ) · r >= F(1, ..., 1) for every direction ξ, and from outside
    under the reversed inequality.  On spheres u = ρ = r, so each side is a
    power law in r and the critical radii are sphere_radius at the extrema
    e^{∓|w|} of ψ, taken at ξ = ∓w/|w|.  They exist exactly when
    a + b + β < 0; r₁ uses ψ_min, r₂ uses ψ_max, hence r₁ <= r₂.  Raises
    ValueError naming why no pair exists.
    """
    if spec.a + spec.b + beta > 0.0:
        raise ValueError(
            "a + b + beta > 0: sphere comparison runs the wrong way, no "
            "inner/outer pair exists"
        )
    size = float(np.linalg.norm(spec.w))
    return (
        sphere_radius(spec, F_spec, n, beta, float(np.exp(-size))),
        sphere_radius(spec, F_spec, n, beta, float(np.exp(size))),
    )


def sphere_radius(spec: SpeedSpec, F_spec, n: int, beta: float, psi: float = 1.0) -> float:
    """Radius r where G = F^β on the sphere of radius r, with ψ taken as psi.

    On that sphere u = ρ = r, so r solves (c ψ)^{1/β} r^{(a+b+β)/β} = F(1, ..., 1)
    in closed form in log r; raises ValueError when a + b + β = 0 or the root
    lies outside (RHO_FLOOR, RHO_CEIL).  F(1, ..., 1) is F_fused's F at κ = 1,
    inside every cone; F_spec is FlowConfig.F, which FlowConfig checked.
    """
    slope = (spec.a + spec.b + beta) / beta
    if slope == 0.0:
        raise ValueError("a + b + beta = 0: forcing is scale-invariant, radii are not pinned")
    f_unit = float(F_fused(F_spec, np.ones(n))[1])
    # a float quotient: a tiny slope sends log r to inf without a warning
    log_r = float(np.log(f_unit) - np.log(spec.c * psi) / beta) / slope
    if not np.log(RHO_FLOOR) < log_r < np.log(RHO_CEIL):
        raise ValueError(
            f"no sphere radius inside [{RHO_FLOOR:g}, {RHO_CEIL:g}] "
            f"(root at log r = {log_r:.3g})"
        )
    return float(np.exp(log_r))


def monotonicity_report(spec: SpeedSpec, beta: float) -> dict:
    """Margins for every exponent condition the convergence theory leans on,
    by name; margin > 0 means strictly satisfied.

    radial_scaling        a + b + β <= 0   flow-ordered sphere barriers
    support_negative      a < 0            support exponent strictly negative
    radial_contraction    a + b + 1 < 0    strict decay of r ↦ r·G on rays,
                                           the uniqueness regime
    support_free          a = 0, b + 1 <= 0  support-free forcing variant
    support_nonzero       |a| > 0          nondegenerate support dependence
    """
    margins = {
        "radial_scaling": -(spec.a + spec.b + beta),
        "support_negative": -spec.a,
        "radial_contraction": -(spec.a + spec.b + 1.0),
        "support_free": (-(spec.b + 1.0)) if spec.a == 0.0 else float("-inf"),
        "support_nonzero": abs(spec.a),
    }
    # adding 0.0 turns a signed zero into +0.0, so no margin reads -0
    return {name: m + 0.0 for name, m in margins.items()}
