"""Elementary symmetric polynomials, Garding cones, and degree-one curvature functions.

The building blocks here are the normalized symmetric functions of a vector of
principal curvatures κ = (κ_1, ..., κ_n):

    σ_k(κ) = sum over k-element subsets of products,   σ_0 = 1,

together with the open cones on which they behave elliptically,

    Γ_k^+ = {κ : σ_1(κ) > 0, ..., σ_k(κ) > 0},
    Γ_+   = {κ : κ_i > 0 for every i},

and a small family of degree-one concave speeds built from them: σ_k^{1/k},
quotients (σ_k/σ_l)^{1/(k-l)}, power means with negative exponent, and
weighted geometric products of the above.

All evaluation routines are vectorized: κ may carry arbitrary leading axes, so
one call services a whole grid of curvature vectors.  σ_k is accumulated with
the stable one-entry-at-a-time recurrence

    e_k(x_1..x_m) = e_k(x_1..x_{m-1}) + x_m e_{k-1}(x_1..x_{m-1}),

never through monomial expansion.  Everything in this module is pure and
reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

__all__ = [
    "ConeViolation",
    "Cone",
    "GAMMA_PLUS",
    "SigmaKRoot",
    "QuotientRoot",
    "PowerMean",
    "WeightedProduct",
    "sigma",
    "sigma_all",
    "sigma_grad",
    "in_cone",
    "cone_failure",
    "F_eval",
    "F_grad",
    "F_fused",
    "natural_cone",
    "newton_maclaurin_margin",
]


class ConeViolation(ValueError):
    """Raised when a curvature vector leaves the admissibility cone of a speed."""


def _as_batch(kappa) -> np.ndarray:
    arr = np.asarray(kappa, dtype=float)
    if arr.ndim == 0:
        raise ValueError("curvature input must have at least one axis")
    return arr


def sigma_all(kappa, kmax: int) -> np.ndarray:
    """All σ_0..σ_kmax of κ in one sweep.

    Parameters
    ----------
    kappa : array_like, shape (..., n)
    kmax : int, kmax >= 0

    Returns
    -------
    ndarray, shape (..., kmax + 1)
        ``out[..., j]`` is σ_j(κ), which is zero for j > n.
    """
    arr = _as_batch(kappa)
    n = arr.shape[-1]
    if kmax < 0:
        raise ValueError(f"kmax must be non-negative, got {kmax}")
    # one contiguous plane per σ_j; the caller sees the (..., kmax + 1) view
    e = np.zeros((kmax + 1,) + arr.shape[:-1])
    e[0] = 1.0
    for m in range(n):
        x = arr[..., m]
        top = min(m + 1, kmax)
        for j in range(top, 0, -1):
            e[j] += x * e[j - 1]
    return np.moveaxis(e, 0, -1)


def sigma(kappa, k: int):
    """σ_k(κ) for κ of shape (..., n); returns shape (...)."""
    return sigma_all(kappa, k)[..., k]


def sigma_grad(kappa, k: int) -> np.ndarray:
    """Gradient of σ_k: component i is σ_{k-1}(κ with entry i removed).

    Shape (..., n) in, shape (..., n) out.  1 <= k <= n.
    """
    arr = _as_batch(kappa)
    n = arr.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    out = np.empty_like(arr)
    for i in range(n):
        rest = np.delete(arr, i, axis=-1)
        out[..., i] = sigma(rest, k - 1) if n > 1 else 1.0
    return out


# ---------------------------------------------------------------------------
# cones


@dataclass(frozen=True)
class Cone:
    """Admissibility cone: Γ_k^+ for integer k, Γ_+ when k is None."""

    k: int | None = None

    def describe(self) -> str:
        return "Gamma_plus" if self.k is None else f"Gamma_{self.k}^+"


GAMMA_PLUS = Cone(None)


def in_cone(kappa, cone: Cone):
    """Strict cone membership test, vectorized over leading axes.

    Returns a boolean array of shape (...); a plain bool for a single vector.
    """
    arr = _as_batch(kappa)
    ok = np.all(np.isfinite(arr), axis=-1)
    if cone.k is None:
        ok = ok & np.all(arr > 0.0, axis=-1)
    else:
        e = sigma_all(np.where(np.isfinite(arr), arr, 0.0), cone.k)
        ok = ok & np.all(e[..., 1:] > 0.0, axis=-1)
    return bool(ok) if ok.ndim == 0 else ok


def cone_failure(kappa, cone: Cone) -> str | None:
    """None when every vector of κ, shape (..., n), lies in the cone; otherwise
    the first one outside it, named by its index over the leading axes, with
    the first inequality it breaks."""
    arr = _as_batch(kappa)
    ok = in_cone(arr, cone)
    if np.all(ok):
        return None
    node = tuple(int(i) for i in np.unravel_index(int(np.argmin(ok)), arr.shape[:-1]))
    x = arr[node]
    if not np.all(np.isfinite(x)):
        broken = "non-finite curvature entry"
    elif cone.k is None:
        i = int(np.argmax(x <= 0.0))
        broken = f"kappa_{i + 1} = {x[i]:.6g} <= 0"
    else:
        e = sigma_all(x, cone.k)
        j = int(np.argmax(e[1:] <= 0.0)) + 1
        broken = f"sigma_{j} = {e[j]:.6g} <= 0"
    at = f" at node {node}" if node else ""
    return f"curvature left {cone.describe()}{at}: {broken}"


# ---------------------------------------------------------------------------
# curvature-function specs


@dataclass(frozen=True)
class SigmaKRoot:
    """F = σ_k^{1/k}."""

    k: int


@dataclass(frozen=True)
class QuotientRoot:
    """F = (σ_k/σ_l)^{1/(k-l)}, 0 <= l < k."""

    k: int
    l: int


@dataclass(frozen=True)
class PowerMean:
    """F = (Σ κ_i^p)^{1/p} with p < 0; needs strictly positive κ."""

    p: float


@dataclass(frozen=True)
class WeightedProduct:
    """F = Π F_i^{α_i} with α_i >= 0 summing to one; evaluated in log space."""

    terms: tuple


FSpec = SigmaKRoot | QuotientRoot | PowerMean | WeightedProduct


def _validate_spec(spec, n: int) -> None:
    if isinstance(spec, SigmaKRoot):
        if not 1 <= spec.k <= n:
            raise ValueError(f"sigma_k root needs 1 <= k <= {n}, got k={spec.k}")
    elif isinstance(spec, QuotientRoot):
        if not 0 <= spec.l < spec.k <= n:
            raise ValueError(
                f"quotient root needs 0 <= l < k <= {n}, got k={spec.k}, l={spec.l}"
            )
    elif isinstance(spec, PowerMean):
        if not spec.p < 0:
            raise ValueError(f"power mean exponent must be negative, got p={spec.p}")
    elif isinstance(spec, WeightedProduct):
        if not spec.terms:
            raise ValueError("weighted product needs at least one factor")
        weights = np.array([w for _, w in spec.terms], dtype=float)
        if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weighted product weights must be >= 0 and sum to 1")
        for sub, _ in spec.terms:
            if isinstance(sub, WeightedProduct):
                raise ValueError("weighted products do not nest")
            _validate_spec(sub, n)
    else:
        raise TypeError(f"unknown curvature-function spec {spec!r}")


def natural_cone(spec) -> Cone:
    """Largest cone on which the speed is defined, elliptic, and concave."""
    if isinstance(spec, (SigmaKRoot, QuotientRoot)):
        return Cone(spec.k)
    if isinstance(spec, PowerMean):
        return GAMMA_PLUS
    if isinstance(spec, WeightedProduct):
        ks = []
        for sub, _ in spec.terms:
            cone = natural_cone(sub)
            if cone.k is None:
                return GAMMA_PLUS
            ks.append(cone.k)
        return Cone(max(ks))
    raise TypeError(f"unknown curvature-function spec {spec!r}")


def _check_cone(spec, arr: np.ndarray) -> None:
    failure = cone_failure(arr, natural_cone(spec))
    if failure is not None:
        raise ConeViolation(failure)


def _sigma_order(spec) -> int:
    """Highest σ_j that F reads: k of a σ_k root or quotient, 0 for a power mean."""
    if isinstance(spec, WeightedProduct):
        return max(_sigma_order(sub) for sub, _ in spec.terms)
    return getattr(spec, "k", 0)


def F_eval(spec, kappa, *, checked: bool = True):
    """Evaluate the degree-one speed F at κ (vectorized over leading axes).

    With ``checked=True`` (default) the natural cone is enforced first and a
    ConeViolation raised on the first failure. Callers that have already
    screened the field may pass ``checked=False``.
    """
    arr = _as_batch(kappa)
    _validate_spec(spec, arr.shape[-1])
    if checked:
        _check_cone(spec, arr)
    return _F_eval_raw(spec, sigma_all(arr, _sigma_order(spec)), arr)


def _F_eval_raw(spec, e: np.ndarray, arr: np.ndarray):
    """F at κ = arr, reading σ_j(κ) from e[..., j]."""
    if isinstance(spec, SigmaKRoot):
        return e[..., spec.k] ** (1.0 / spec.k)
    if isinstance(spec, QuotientRoot):
        num = e[..., spec.k]
        den = e[..., spec.l] if spec.l > 0 else 1.0
        return (num / den) ** (1.0 / (spec.k - spec.l))
    if isinstance(spec, PowerMean):
        return np.sum(arr ** spec.p, axis=-1) ** (1.0 / spec.p)
    if isinstance(spec, WeightedProduct):
        acc = 0.0
        for sub, w in spec.terms:
            acc = acc + w * np.log(_F_eval_raw(sub, e, arr))
        return np.exp(acc)
    raise TypeError(f"unknown curvature-function spec {spec!r}")


def F_grad(spec, kappa) -> np.ndarray:
    """∂F/∂κ_i, shape (..., n); positive on the natural cone, ConeViolation off it."""
    arr = _as_batch(kappa)
    _validate_spec(spec, arr.shape[-1])
    _check_cone(spec, arr)
    e = sigma_all(arr, _sigma_order(spec))
    return _F_grad_raw(spec, e, arr, slice(None), lambda k: sigma_grad(arr, k))


def _F_grad_raw(spec, e: np.ndarray, arr: np.ndarray, cols, dsigma) -> np.ndarray:
    """∂F/∂κ_i for the entries i in the slice cols, shape (..., len(cols)).

    e[..., j] is σ_j(κ) and dsigma(k) returns ∂σ_k/∂κ_i for those entries.
    """
    if isinstance(spec, SigmaKRoot):
        k = spec.k
        return (1.0 / k) * e[..., k, None] ** (1.0 / k - 1.0) * dsigma(k)
    if isinstance(spec, QuotientRoot):
        k, l = spec.k, spec.l
        f = _F_eval_raw(spec, e, arr)
        term = dsigma(k) / e[..., k, None]
        if l > 0:
            term = term - dsigma(l) / e[..., l, None]
        return f[..., None] * term / (k - l)
    if isinstance(spec, PowerMean):
        p = spec.p
        s = np.sum(arr ** p, axis=-1)
        return s[..., None] ** (1.0 / p - 1.0) * arr[..., cols] ** (p - 1.0)
    if isinstance(spec, WeightedProduct):
        f = _F_eval_raw(spec, e, arr)
        acc = 0.0
        for sub, w in spec.terms:
            fi = _F_eval_raw(sub, e, arr)
            acc = acc + w * _F_grad_raw(sub, e, arr, cols, dsigma) / fi[..., None]
        return f[..., None] * acc
    raise TypeError(f"unknown curvature-function spec {spec!r}")


def F_fused(spec, kappa):
    """Cone mask, F and λ_max = max_i ∂F/∂κ_i from one σ sweep.

    κ must be finite and sorted descending.  Each speed is symmetric and concave
    on its natural cone, so (∂_i F - ∂_j F)(κ_i - κ_j) <= 0 there: λ_max sits at
    the last entry κ_n.  One sweep over κ without κ_n yields σ_j(κ|n) =
    ∂σ_{j+1}/∂κ_n, one more recurrence step σ_j(κ).  Matches in_cone, F_eval
    and max F_grad; F and λ_max mean nothing where the mask fails.
    """
    arr = _as_batch(kappa)
    _validate_spec(spec, arr.shape[-1])
    rest = sigma_all(arr[..., :-1], _sigma_order(spec))
    e = rest.copy(order="K")
    e[..., 1:] += arr[..., -1:] * rest[..., :-1]
    cone = natural_cone(spec)
    if cone.k is None:
        ok = np.all(arr > 0.0, axis=-1)
    else:
        ok = np.all(e[..., 1 : cone.k + 1] > 0.0, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = _F_eval_raw(spec, e, arr)
        lam = _F_grad_raw(
            spec, e, arr, slice(-1, None), lambda k: rest[..., k - 1, None]
        )[..., 0]
    return ok, f, lam


def newton_maclaurin_margin(kappa, m: int):
    """Smallest gap in the chain p_1 >= p_2^{1/2} >= ... >= p_m^{1/m}.

    Here p_j = σ_j/C(n, j).  The margin is min_j (p_j^{1/j} - p_{j+1}^{1/(j+1)})
    over j = 1..m-1; it is >= 0 on Γ_m^+ and 0 exactly at κ_1 = ... = κ_n.
    Vectorized; requires 2 <= m <= n and κ in Γ_m^+.
    """
    arr = _as_batch(kappa)
    n = arr.shape[-1]
    if not 2 <= m <= n:
        raise ValueError(f"m must lie in [2, {n}], got {m}")
    if not np.all(in_cone(arr, Cone(m))):
        raise ConeViolation(f"newton_maclaurin_margin needs kappa in Gamma_{m}^+")
    e = sigma_all(arr, m)
    roots = np.empty(arr.shape[:-1] + (m,))
    for j in range(1, m + 1):
        p_j = e[..., j] / comb(n, j)
        roots[..., j - 1] = p_j ** (1.0 / j)
    return np.min(roots[..., :-1] - roots[..., 1:], axis=-1)
