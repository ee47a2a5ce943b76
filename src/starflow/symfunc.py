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

never through monomial expansion.  Each σ sweep walks the speed spec for its
structure (the highest σ_j F reads, its natural cone) and then for its
values, F with ∂F/∂κ_n.  Everything here is pure and reentrant.
"""

from math import comb, inf
from typing import NamedTuple

import numpy as np


def _as_batch(kappa) -> np.ndarray:
    arr = np.asarray(kappa, dtype=float)
    if arr.ndim == 0:
        raise ValueError("curvature input must have at least one axis")
    return arr


def _sigma_sweep(arr: np.ndarray, kmax: int) -> tuple[list, list]:
    """[σ_0, ..., σ_kmax] of κ without its last entry and of κ = arr, shape
    (..., n): one array per σ_j, by σ_j += κ_m σ_{j-1} over the planes
    arr[..., m].

    σ_0 is the float 1.0, so σ_1 gains κ_m itself.  A σ_j that no entry has
    reached is the float 0.0, and its first update still adds the product to
    0.0, which turns a product of -0.0 into +0.0.
    """
    e = [1.0] + [0.0] * kmax
    rest = e
    for m in range(arr.shape[-1]):
        x = arr[..., m]
        rest, e = e, e.copy()
        for j in range(min(m + 1, kmax), 1, -1):
            e[j] = rest[j] + x * rest[j - 1]
        if kmax:
            e[1] = rest[1] + x
    return rest, e


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
    if kmax < 0:
        raise ValueError(f"kmax must be non-negative, got {kmax}")
    # one contiguous plane per σ_j; the caller sees the (..., kmax + 1) view
    e = np.empty((kmax + 1,) + arr.shape[:-1])
    _, planes = _sigma_sweep(arr, kmax)
    for j, plane in enumerate(planes):
        e[j] = plane
    return e.transpose((*range(1, e.ndim), 0))


def sigma(kappa, k: int):
    """σ_k(κ) for κ of shape (..., n); returns shape (...)."""
    return sigma_all(kappa, k)[..., k]


# ---------------------------------------------------------------------------
# cones


class Cone(NamedTuple):
    """Admissibility cone: Γ_k^+ for integer k, Γ_+ when k is None."""

    k: int | None = None

    def describe(self) -> str:
        return "Gamma_plus" if self.k is None else f"Gamma_{self.k}^+"


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


class SigmaKRoot(NamedTuple):
    """F = σ_k^{1/k}."""

    k: int


class QuotientRoot(NamedTuple):
    """F = (σ_k/σ_l)^{1/(k-l)}, 0 <= l < k."""

    k: int
    l: int


class PowerMean(NamedTuple):
    """F = (Σ κ_i^p)^{1/p} with p finite, < 0; needs strictly positive κ."""

    p: float


class WeightedProduct(NamedTuple):
    """F = Π F_i^{α_i} with α_i >= 0 summing to one; evaluated in log space."""

    terms: tuple


def _plan(spec) -> tuple[int, int | None]:
    """(highest σ_j that F reads, k of its natural cone or None for Γ_+): the
    walk of a spec for its structure, made anew on each call.  Raises
    ValueError for a spec that is malformed whatever n is, TypeError for one
    that is no spec."""
    if isinstance(spec, SigmaKRoot):
        if not spec.k >= 1:
            raise ValueError(f"sigma_k root needs k >= 1, got k={spec.k}")
        return spec.k, spec.k
    if isinstance(spec, QuotientRoot):
        if not 0 <= spec.l < spec.k:
            raise ValueError(f"quotient root needs 0 <= l < k, got k={spec.k}, l={spec.l}")
        return spec.k, spec.k
    if isinstance(spec, PowerMean):
        if not -inf < spec.p < 0:
            raise ValueError(f"power mean exponent must be finite and negative, got p={spec.p}")
        return 0, None
    if isinstance(spec, WeightedProduct):
        if not spec.terms:
            raise ValueError("weighted product needs at least one factor")
        weights = [float(w) for _, w in spec.terms]
        if min(weights) < 0.0 or not abs(sum(weights) - 1.0) <= 1e-12:
            raise ValueError("weighted product weights must be >= 0 and sum to 1")
        if any(isinstance(sub, WeightedProduct) for sub, _ in spec.terms):
            raise ValueError("weighted products do not nest")
        orders, ks = zip(*(_plan(sub) for sub, _ in spec.terms))
        return max(orders), None if None in ks else max(ks)
    raise TypeError(f"unknown curvature-function spec {spec!r}")


def check_spec(spec, n: int) -> None:
    """Raise ValueError unless spec is well formed and reads no σ_j with j > n."""
    order = _plan(spec)[0]
    if order > n:
        raise ValueError(f"F reads sigma_{order}, which needs n >= {order}, got n = {n}")


def natural_cone(spec) -> Cone:
    """Largest cone on which the speed is defined, elliptic, and concave."""
    return Cone(_plan(spec)[1])


def _F_lam(spec, e, rest, arr: np.ndarray):
    """(F, ∂F/∂κ_n) at κ = arr, with e[j] = σ_j(κ) and rest[j] = σ_j(κ without
    κ_n), which is ∂σ_{j+1}/∂κ_n.  The one walk of a spec for its values: a
    product forms each factor's F once, for its log and to divide its ∂F."""
    if isinstance(spec, SigmaKRoot):
        k = spec.k
        return e[k] ** (1.0 / k), (1.0 / k) * e[k] ** (1.0 / k - 1.0) * rest[k - 1]
    if isinstance(spec, QuotientRoot):
        k, l = spec.k, spec.l
        f = (e[k] / e[l]) ** (1.0 / (k - l))
        term = rest[k - 1] / e[k]
        if l > 0:
            term = term - rest[l - 1] / e[l]
        return f, f * term / (k - l)
    if isinstance(spec, PowerMean):
        p = spec.p
        s = np.sum(arr**p, axis=-1)
        return s ** (1.0 / p), s ** (1.0 / p - 1.0) * arr[..., -1] ** (p - 1.0)
    # a WeightedProduct: _plan has refused everything else
    log_f = lam = 0.0
    for sub, w in spec.terms:
        f_i, lam_i = _F_lam(sub, e, rest, arr)
        log_f = log_f + w * np.log(f_i)
        lam = lam + w * lam_i / f_i
    f = np.exp(log_f)
    return f, f * lam


def F_fused(spec, kappa):
    """Cone mask, F and λ_max = max_i ∂F/∂κ_i from one σ sweep.

    κ must be finite and sorted descending.  Each speed is symmetric and concave
    on its natural cone, so (∂_i F - ∂_j F)(κ_i - κ_j) <= 0 there: λ_max sits at
    the last entry κ_n.  One sweep over κ without κ_n yields σ_j(κ|n) =
    ∂σ_{j+1}/∂κ_n, one more recurrence step σ_j(κ).  The sweep reads the
    planes κ[..., i], which are contiguous for the κ that geometry.assemble
    builds.  The mask matches in_cone, λ_max the largest entry of ∂F/∂κ; F
    and λ_max mean nothing where the mask fails.  It silences no warning:
    its callers run under their own np.errstate.  It refuses a malformed spec
    but does not check it against n: its callers pass FlowConfig.F, checked.
    """
    arr = _as_batch(kappa)
    order, cone_k = _plan(spec)
    rest, e = _sigma_sweep(arr, order)
    signs = [arr[..., i] for i in range(arr.shape[-1])] if cone_k is None else e[1 : cone_k + 1]
    ok = signs[0] > 0.0
    for x in signs[1:]:
        ok &= x > 0.0
    return (ok, *_F_lam(spec, e, rest, arr))


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
    failure = cone_failure(arr, Cone(m))
    if failure is not None:
        raise ValueError(failure)
    e = sigma_all(arr, m)
    roots = np.empty(arr.shape[:-1] + (m,))
    for j in range(1, m + 1):
        p_j = e[..., j] / comb(n, j)
        roots[..., j - 1] = p_j ** (1.0 / j)
    return np.min(roots[..., :-1] - roots[..., 1:], axis=-1)
