"""Prescribed forcing terms and their admissibility checks.

The right-hand side driving every flow in this package has the separable form

    G(X, ν) = c · exp⟨X/|X|, w⟩ · u^a · ρ^b,      w = Σ_j s_j v_j,

with u = ⟨X, ν⟩ the support value and ρ = |X|.  The factors exp(s_j ⟨ξ, v_j⟩)
of the configuration multiply into the one vector w, which SpeedSpec sums
once; ψ = exp⟨ξ, w⟩ is the anisotropy, and w = 0 gives ψ ≡ 1.  Admissibility
of a (G, F, β) triple is decided here:

- barrier_radii: the largest sphere pinched from inside and the smallest
  pinching from outside, at the extrema e^{∓|w|} of ψ.
- monotonicity_report: the closed-form exponent conditions that the various
  convergence and uniqueness arguments need, each with its margin.
- radius_root: for isotropic G, the radius of the stationary sphere solving
  η c R^{a+b+β} = 1 with η = F(1, ..., 1)^{-β}.

All three radii are the one sphere on which (c ψ)^{1/β} r^{(a+b+β)/β} meets
F(1, ..., 1), at ψ = e^{-|w|}, e^{|w|} and 1; that power law has its root in
closed form in log r.

Validators are report-only: nothing here mutates a flow, and the run loop
never calls them unless asked to gate on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .symfunc import F_eval

__all__ = [
    "PsiTerm",
    "SpeedSpec",
    "psi_eval",
    "psi_extrema",
    "G_eval",
    "G_from_table",
    "BarrierRadii",
    "barrier_radii",
    "MonotonicityReport",
    "monotonicity_report",
    "radius_root",
]

_R_LO, _R_HI = 1e-6, 1e6


@dataclass(frozen=True)
class PsiTerm:
    """One anisotropy factor exp(s ⟨ξ, v⟩) with v a unit 3-vector."""

    s: float
    v: tuple[float, float, float]

    def __post_init__(self):
        if not np.isfinite(self.s):
            raise ValueError(f"psi strength s must be finite, got {self.s}")
        v = np.asarray(self.v, dtype=float)
        if v.shape != (3,) or not np.all(np.isfinite(v)):
            raise ValueError("psi direction must be a finite 3-vector")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"psi direction must be unit length, |v| = {norm:.6g}")


@dataclass(frozen=True)
class SpeedSpec:
    """Forcing G = c ψ(ξ) u^a ρ^b, with ψ(ξ) = exp⟨ξ, w⟩ and w = Σ_j s_j v_j."""

    c: float
    a: float
    b: float
    psi: tuple[PsiTerm, ...] = ()
    w: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"amplitude c must be positive, got {self.c}")
        for x in (self.a, self.b):
            if not np.isfinite(x):
                raise ValueError("exponents must be finite")
        object.__setattr__(self, "psi", tuple(self.psi))
        w = np.zeros(3)
        for term in self.psi:
            w = w + term.s * np.asarray(term.v)
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @property
    def isotropic(self) -> bool:
        """True when w = 0, so ψ ≡ 1."""
        return not np.any(self.w)

    def axis_aligned(self) -> bool:
        """True when w is parallel to the polar axis (0, 0, 1), or zero."""
        return bool(abs(self.w[0]) <= 1e-12 and abs(self.w[1]) <= 1e-12)


def psi_eval(spec: SpeedSpec, xi: np.ndarray) -> np.ndarray:
    """ψ(ξ) = exp⟨ξ, w⟩ for directions ξ of shape (..., 3)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != 3:
        raise ValueError("directions must be 3-vectors")
    return np.exp(xi @ spec.w)


def psi_extrema(spec: SpeedSpec) -> tuple[float, float]:
    """(min, max) of ψ over unit directions: e^{∓|w|}, taken at ξ = ∓w/|w|."""
    size = float(np.linalg.norm(spec.w))
    return float(np.exp(-size)), float(np.exp(size))


def G_eval(spec: SpeedSpec, xi: np.ndarray, u: np.ndarray, rho: np.ndarray):
    """Evaluate G at nodes with radial direction ξ, support u, radius ρ."""
    u = np.asarray(u, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if np.any(u <= 0.0) or not np.all(np.isfinite(u)):
        raise ValueError("support function must be positive and finite")
    if np.any(rho <= 0.0) or not np.all(np.isfinite(rho)):
        raise ValueError("radius must be positive and finite")
    return G_from_table(spec, spec.c * psi_eval(spec, xi), u, rho)


def G_from_table(spec: SpeedSpec, table: np.ndarray, u: np.ndarray, rho: np.ndarray):
    """G = table · u^a · ρ^b, where table holds c ψ(ξ) at the nodes."""
    out = table
    if spec.a != 0.0:
        out = out * u**spec.a
    if spec.b != 0.0:
        out = out * rho**spec.b
    return out


# ---------------------------------------------------------------------------
# admissibility


@dataclass(frozen=True)
class BarrierRadii:
    """Result of the sphere-barrier search."""

    ok: bool
    r1: float = float("nan")
    r2: float = float("nan")
    equality: bool = False
    reason: str = ""


def barrier_radii(
    spec: SpeedSpec,
    F_spec,
    n: int,
    beta: float,
) -> BarrierRadii:
    """Inner and outer sphere barriers for the triple (G, F, β).

    A sphere of radius r pinches the flow from inside when
    G^{1/β}(rξ, ξ) · r >= F(1, ..., 1) for every direction ξ, and from outside
    under the reversed inequality.  On spheres u = ρ = r, so each side is a
    power law in r and the critical radii follow in closed form from the
    extrema of ψ.  They exist exactly when a + b + β < 0; the scale
    of r₁ uses ψ_min, that of r₂ uses ψ_max, hence r₁ <= r₂.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if spec.a + spec.b + beta > 0.0:
        return BarrierRadii(
            ok=False,
            reason=(
                "a + b + beta > 0: sphere comparison runs the wrong way, no "
                "inner/outer pair exists"
            ),
        )
    psi_min, psi_max = psi_extrema(spec)
    try:
        r1 = _sphere_radius(spec, F_spec, n, beta, psi_min)
        r2 = _sphere_radius(spec, F_spec, n, beta, psi_max)
    except ValueError as exc:
        return BarrierRadii(ok=False, reason=str(exc))
    return BarrierRadii(ok=True, r1=r1, r2=r2, equality=bool(abs(r1 - r2) < 1e-12))


def _sphere_radius(spec: SpeedSpec, F_spec, n: int, beta: float, psi: float) -> float:
    """Radius r where G = F^β on the sphere of radius r, with ψ taken as psi.

    On that sphere u = ρ = r, so r solves (c ψ)^{1/β} r^{(a+b+β)/β} = F(1, ..., 1)
    in closed form in log r; the root must lie in (1e-6, 1e6).
    """
    slope = (spec.a + spec.b + beta) / beta
    if slope == 0.0:
        raise ValueError("a + b + beta = 0: forcing is scale-invariant, radii are not pinned")
    f_unit = float(F_eval(F_spec, np.ones(n)))
    r = float(np.exp((np.log(f_unit) - np.log(spec.c * psi) / beta) / slope))
    if not _R_LO < r < _R_HI:
        raise ValueError(f"no sphere radius inside [{_R_LO:g}, {_R_HI:g}] (root at r = {r:.3g})")
    return r


@dataclass(frozen=True)
class MonotonicityReport:
    """Closed-form exponent conditions; margin > 0 means strictly satisfied.

    radial_scaling        a + b + β <= 0   flow-ordered sphere barriers
    support_negative      a < 0            support exponent strictly negative
    radial_contraction    a + b + 1 < 0    strict decay of r ↦ r·G on rays,
                                           the uniqueness regime
    support_free          a = 0, b + 1 <= 0  support-free forcing variant
    support_nonzero       |a| > 0          nondegenerate support dependence
    """

    margins: dict = field(default_factory=dict)

    def holds(self, name: str) -> bool:
        return self.margins[name] > 0.0

    def holds_weak(self, name: str) -> bool:
        return self.margins[name] >= 0.0


def monotonicity_report(spec: SpeedSpec, beta: float) -> MonotonicityReport:
    """Margins for every exponent condition the convergence theory leans on."""
    margins = {
        "radial_scaling": -(spec.a + spec.b + beta),
        "support_negative": -spec.a,
        "radial_contraction": -(spec.a + spec.b + 1.0),
        "support_free": (-(spec.b + 1.0)) if spec.a == 0.0 else float("-inf"),
        "support_nonzero": abs(spec.a),
    }
    # adding 0.0 turns a signed zero into +0.0, so no margin reads -0
    return MonotonicityReport(margins={name: m + 0.0 for name, m in margins.items()})


def radius_root(spec: SpeedSpec, F_spec, n: int, beta: float) -> float:
    """Radius of the stationary sphere for isotropic forcing.

    The barrier edge at ψ = 1: η c R^{a+b+β} = 1 with η = F(1, ..., 1)^{-β}.
    Requires ψ ≡ 1 and a nonzero net exponent; raises ValueError when the
    root falls outside (1e-6, 1e6).
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not spec.isotropic:
        raise ValueError("radius_root needs isotropic forcing (w = 0)")
    return _sphere_radius(spec, F_spec, n, beta, 1.0)
