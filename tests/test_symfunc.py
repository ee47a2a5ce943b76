"""Unit tests for the symmetric-function layer.

Reference values are tiny hand computations or brute-force subset
enumerations done inline; nothing is recycled from the module under test.
F_reference evaluates each speed from its definition, and the full gradients
sigma_grad and F_grad live here, as the chain-rule references that F_fused's
lambda_max is compared against.
"""

from itertools import combinations

import numpy as np
import pytest

from starflow.symfunc import (
    Cone,
    F_fused,
    PowerMean,
    QuotientRoot,
    SigmaKRoot,
    WeightedProduct,
    check_spec,
    cone_failure,
    in_cone,
    natural_cone,
    newton_maclaurin_margin,
    sigma,
    sigma_all,
)


def brute_sigma(kappa, k):
    """Subset enumeration, the slow-but-obvious definition of sigma_k, over
    the last axis of kappa."""
    kappa = np.asarray(kappa, dtype=float)
    if k == 0:
        return 1.0
    subsets = combinations(range(kappa.shape[-1]), k)
    return sum((np.prod(kappa[..., list(c)], axis=-1) for c in subsets), np.zeros(kappa.shape[:-1]))


def F_reference(spec, kappa):
    """F over the last axis of kappa from its definition: sigma_k by subset
    sums, the power sum directly, a product as exp of its weighted log-sum."""
    kappa = np.asarray(kappa, dtype=float)
    if isinstance(spec, SigmaKRoot):
        return brute_sigma(kappa, spec.k) ** (1.0 / spec.k)
    if isinstance(spec, QuotientRoot):
        k, l = spec.k, spec.l
        return (brute_sigma(kappa, k) / brute_sigma(kappa, l)) ** (1.0 / (k - l))
    if isinstance(spec, PowerMean):
        return np.sum(kappa**spec.p, axis=-1) ** (1.0 / spec.p)
    if isinstance(spec, WeightedProduct):
        return np.exp(sum(w * np.log(F_reference(sub, kappa)) for sub, w in spec.terms))
    raise TypeError(spec)


def F_value(spec, kappa):
    """F_fused's F, which unlike its lambda_max does not need kappa sorted."""
    return F_fused(spec, np.asarray(kappa, dtype=float))[1]


def sigma_grad(kappa, k):
    """Gradient of sigma_k: component i is sigma_{k-1}(kappa with entry i removed)."""
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    out = np.empty_like(kappa)
    for i in range(n):
        out[..., i] = sigma(np.delete(kappa, i, axis=-1), k - 1) if n > 1 else 1.0
    return out


def F_grad(spec, kappa):
    """dF/dkappa_i, shape (..., n), by the chain rule through sigma_grad."""
    kappa = np.asarray(kappa, dtype=float)
    if isinstance(spec, SigmaKRoot):
        k = spec.k
        return (1.0 / k) * sigma(kappa, k)[..., None] ** (1.0 / k - 1.0) * sigma_grad(kappa, k)
    if isinstance(spec, QuotientRoot):
        k, l = spec.k, spec.l
        term = sigma_grad(kappa, k) / sigma(kappa, k)[..., None]
        if l > 0:
            term = term - sigma_grad(kappa, l) / sigma(kappa, l)[..., None]
        return F_reference(spec, kappa)[..., None] * term / (k - l)
    if isinstance(spec, PowerMean):
        p = spec.p
        return np.sum(kappa**p, axis=-1)[..., None] ** (1.0 / p - 1.0) * kappa ** (p - 1.0)
    if isinstance(spec, WeightedProduct):
        acc = sum(w * F_grad(sub, kappa) / F_reference(sub, kappa)[..., None] for sub, w in spec.terms)
        return F_reference(spec, kappa)[..., None] * acc
    raise TypeError(spec)


def test_sigma_hand_values():
    k123 = np.array([1.0, 2.0, 3.0])
    assert sigma(k123, 0) == 1.0
    assert sigma(k123, 1) == 6.0
    assert sigma(k123, 2) == 11.0
    assert sigma(k123, 3) == 6.0


def test_sigma_all_prefix():
    kappa = np.array([0.5, 1.5, 2.5, 3.5])
    table = sigma_all(kappa, 4)
    assert table.shape[-1] == 5
    for k in range(5):
        assert table[..., k] == pytest.approx(brute_sigma(kappa, k), rel=1e-14)


def test_sigma_matches_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        kappa = rng.uniform(-2.0, 3.0, n)
        for k in range(1, n + 1):
            want = brute_sigma(kappa, k)
            got = float(sigma(kappa, k))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_sigma_batched_matches_scalar():
    rng = np.random.default_rng(3)
    kappa = rng.uniform(0.1, 2.0, size=(4, 5, 3))
    batch = sigma(kappa, 2)
    assert batch.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            assert batch[i, j] == pytest.approx(brute_sigma(kappa[i, j], 2), rel=1e-13)


def test_sigma_grad_hand_value():
    # d sigma_2 / d kappa_i = sum of the other entries
    g = sigma_grad(np.array([1.0, 2.0, 3.0]), 2)
    assert np.allclose(g, [5.0, 4.0, 3.0], rtol=0, atol=1e-14)


def test_sigma_grad_is_deleted_sigma():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        kappa = rng.uniform(-1.0, 2.0, n)
        k = int(rng.integers(1, n + 1))
        g = sigma_grad(kappa, k)
        for i in range(n):
            want = brute_sigma(np.delete(kappa, i), k - 1)
            assert g[i] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_sigma_identities():
    """The four classical deleted-index identities, relative 1e-10."""
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        kappa = rng.uniform(0.05, 3.0, n)
        k = int(rng.integers(1, n))
        s = lambda j, drop=(): brute_sigma(np.delete(kappa, drop), j) if drop else brute_sigma(kappa, j)
        scale = max(1.0, abs(s(k + 1)))
        for i in range(n):
            lhs = s(k + 1)
            rhs = s(k + 1, (i,)) + kappa[i] * s(k, (i,))
            assert abs(lhs - rhs) <= 1e-10 * scale
        assert abs(sum(s(k, (i,)) for i in range(n)) - (n - k) * s(k)) <= 1e-10 * scale
        assert abs(sum(kappa[i] * s(k, (i,)) for i in range(n)) - (k + 1) * s(k + 1)) <= 1e-10 * scale
        lhs = sum(kappa[i] ** 2 * s(k, (i,)) for i in range(n))
        rhs = s(1) * s(k + 1) - (k + 2) * (s(k + 2) if k + 2 <= n else 0.0)
        assert abs(lhs - rhs) <= 1e-10 * max(scale, abs(rhs))


def test_cone_membership():
    assert in_cone(np.array([1.0, 2.0]), Cone(None))
    assert not in_cone(np.array([1.0, -0.1]), Cone(None))
    # (3, -1): sigma_1 = 2 > 0 but sigma_2 = -3 < 0
    v = np.array([3.0, -1.0])
    assert in_cone(v, Cone(1))
    assert not in_cone(v, Cone(2))
    msg = cone_failure(v, Cone(2))
    assert msg is not None and "2" in msg
    assert cone_failure(np.array([1.0, 1.0]), Cone(2)) is None


def test_cone_membership_batched():
    kappa = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    mask = in_cone(kappa, Cone(None))
    assert mask.tolist() == [True, False, False]


def test_cone_failure_names_the_first_node():
    kappa = np.ones((3, 4, 3))
    kappa[1, 2] = [2.0, 0.5, -0.25]  # in Gamma_2^+, not in Gamma_3^+ or Gamma_plus
    kappa[2, 0] = [1.0, -2.0, -2.0]
    assert cone_failure(kappa, Cone(None)) == (
        "curvature left Gamma_plus at node (1, 2): kappa_3 = -0.25 <= 0"
    )
    assert cone_failure(kappa, Cone(3)) == (
        "curvature left Gamma_3^+ at node (1, 2): sigma_3 = -0.25 <= 0"
    )
    assert cone_failure(kappa, Cone(1)) == (
        "curvature left Gamma_1^+ at node (2, 0): sigma_1 = -3 <= 0"
    )
    kappa[0, 3, 1] = np.nan
    assert cone_failure(kappa, Cone(1)) == (
        "curvature left Gamma_1^+ at node (0, 3): non-finite curvature entry"
    )
    assert cone_failure(np.ones((5, 2)), Cone(None)) is None
    # a single vector has no node to name
    assert cone_failure(np.array([1.0, -0.5]), Cone(None)) == (
        "curvature left Gamma_plus: kappa_2 = -0.5 <= 0"
    )


def test_cone_describe():
    assert Cone(None).describe() == "Gamma_plus"
    assert Cone(2).describe() == "Gamma_2^+"


def test_F_hand_values():
    assert F_value(SigmaKRoot(k=2), np.ones(3)) == pytest.approx(np.sqrt(3.0), rel=1e-15)
    assert F_value(QuotientRoot(k=2, l=1), np.array([1.0, 2.0, 3.0])) == pytest.approx(11.0 / 6.0, rel=1e-14)
    # (sum kappa^p)^{1/p}: (1 + 1/2)^{-1} = 2/3
    assert F_value(PowerMean(p=-1.0), np.array([1.0, 2.0])) == pytest.approx(2.0 / 3.0, rel=1e-14)
    # geometric mixture of sigma_1 = 4 and the p=-1 value 1 at (2,2)
    prod = WeightedProduct(terms=((SigmaKRoot(k=1), 0.5), (PowerMean(p=-1.0), 0.5)))
    assert F_value(prod, np.array([2.0, 2.0])) == pytest.approx(2.0, rel=1e-14)


def test_F_degree_one_homogeneous():
    rng = np.random.default_rng(19)
    specs = [
        SigmaKRoot(k=3),
        QuotientRoot(k=3, l=1),
        PowerMean(p=-2.0),
        WeightedProduct(terms=((SigmaKRoot(k=2), 0.3), (QuotientRoot(k=2, l=1), 0.7))),
        SigmaKRoot(k=2),
        QuotientRoot(k=2, l=1),
        PowerMean(p=-1.5),
    ]
    for spec in specs:
        for _ in range(40):
            kappa = rng.uniform(0.1, 2.0, 4)
            lam = float(rng.uniform(0.2, 5.0))
            f = float(F_value(spec, kappa))
            assert F_value(spec, lam * kappa) == pytest.approx(lam * f, rel=1e-12)
            # permutation symmetry
            assert F_value(spec, kappa[::-1].copy()) == pytest.approx(f, rel=1e-12)
            # Euler identity for degree-one functions
            euler = float(np.sum(kappa * F_grad(spec, kappa)))
            assert euler == pytest.approx(f, rel=1e-9)


def test_F_grad_positive_in_cone():
    rng = np.random.default_rng(23)
    for spec in (SigmaKRoot(k=2), QuotientRoot(k=2, l=1), PowerMean(p=-1.5)):
        kappa = -np.sort(-rng.uniform(0.05, 4.0, size=(60, 3)), axis=-1)
        ok, _, lam = F_fused(spec, kappa)
        assert np.all(ok) and np.all(lam > 0.0), spec
        assert np.all(F_grad(spec, kappa) > 0.0), spec


def test_F_checked_raises_outside_cone():
    # F_fused's F carries no cone test; the first node outside the cone is
    # named by cone_failure, and newton_maclaurin_margin raises with that name
    batch = np.ones((4, 2))
    batch[2] = [2.0, -1.0]
    message = "curvature left Gamma_2^+ at node (2,): sigma_2 = -2 <= 0"
    assert cone_failure(batch, natural_cone(SigmaKRoot(k=2))) == message
    with pytest.raises(ValueError, match=r"at node \(2,\): sigma_2 = -2 <= 0"):
        newton_maclaurin_margin(batch, 2)
    with pytest.raises(ValueError, match=r"^curvature left Gamma_2\^\+: sigma_2 = -3 <= 0"):
        newton_maclaurin_margin(np.array([3.0, -1.0]), 2)
    with np.errstate(invalid="ignore"):
        val = F_value(SigmaKRoot(k=2), batch)
    assert np.isnan(val[2]) and np.all(val[[0, 1, 3]] == 1.0)


def test_F_fused_matches_reference():
    # cone mask, F and lambda_max from one sigma sweep agree with in_cone,
    # F_reference and the row maximum of the reference F_grad for every
    # variant
    rng = np.random.default_rng(31)
    for n in range(2, 7):
        specs = [SigmaKRoot(k=k) for k in range(1, n + 1)]
        specs += [QuotientRoot(k=k, l=l) for k in range(1, n + 1) for l in range(k)]
        specs += [
            PowerMean(p=-1.5),
            WeightedProduct(terms=((SigmaKRoot(k=2), 0.5), (PowerMean(p=-1.0), 0.5))),
            WeightedProduct(terms=((SigmaKRoot(k=n), 0.3), (QuotientRoot(k=2, l=1), 0.7))),
        ]
        kappa = -np.sort(-rng.uniform(-1.0, 3.0, size=(400, n)), axis=-1)
        for spec in specs:
            with np.errstate(invalid="ignore", divide="ignore"):
                ok, f, lam = F_fused(spec, kappa)
            want = in_cone(kappa, natural_cone(spec))
            assert np.array_equal(ok, want), spec
            inside = kappa[want]
            assert len(inside) >= 20, spec
            f_ref = F_reference(spec, inside)
            lam_ref = np.max(F_grad(spec, inside), axis=-1)
            assert np.max(np.abs(f[want] - f_ref) / f_ref) <= 1e-12, spec
            assert np.max(np.abs(lam[want] - lam_ref) / lam_ref) <= 1e-12, spec


def stacked_sigma_all(arr, kmax):
    """The zero-filled sweep: σ_j stacked as planes of one array, updated in
    place, seen as (..., kmax + 1)."""
    e = np.zeros((kmax + 1,) + arr.shape[:-1])
    e[0] = 1.0
    for m in range(arr.shape[-1]):
        for j in range(min(m + 1, kmax), 0, -1):
            e[j] += arr[..., m] * e[j - 1]
    return e.transpose((*range(1, e.ndim), 0))


def reference_order(spec):
    """Highest sigma_j that F reads: k of a sigma_k root or quotient, 0 for a
    power mean."""
    if isinstance(spec, WeightedProduct):
        return max(reference_order(sub) for sub, _ in spec.terms)
    return getattr(spec, "k", 0)


def reference_F(spec, e, arr):
    """F at kappa = arr, reading sigma_j(kappa) from e[j]: the formulas of
    the separate F walk that the fused walk replaced."""
    if isinstance(spec, SigmaKRoot):
        return e[spec.k] ** (1.0 / spec.k)
    if isinstance(spec, QuotientRoot):
        return (e[spec.k] / e[spec.l]) ** (1.0 / (spec.k - spec.l))
    if isinstance(spec, PowerMean):
        return np.sum(arr ** spec.p, axis=-1) ** (1.0 / spec.p)
    acc = 0.0
    for sub, w in spec.terms:
        acc = acc + w * np.log(reference_F(sub, e, arr))
    return np.exp(acc)


def reference_lam_max(spec, e, rest, arr):
    """dF/dkappa_n at kappa = arr, with e[j] = sigma_j(kappa) and rest[j] =
    sigma_j(kappa without kappa_n); evaluates F again wherever it needs it,
    as the separate lambda_max walk did."""
    if isinstance(spec, SigmaKRoot):
        k = spec.k
        return (1.0 / k) * e[k] ** (1.0 / k - 1.0) * rest[k - 1]
    if isinstance(spec, QuotientRoot):
        k, l = spec.k, spec.l
        f = reference_F(spec, e, arr)
        term = rest[k - 1] / e[k]
        if l > 0:
            term = term - rest[l - 1] / e[l]
        return f * term / (k - l)
    if isinstance(spec, PowerMean):
        p = spec.p
        s = np.sum(arr ** p, axis=-1)
        return s ** (1.0 / p - 1.0) * arr[..., -1] ** (p - 1.0)
    f = reference_F(spec, e, arr)
    acc = 0.0
    for sub, w in spec.terms:
        fi = reference_F(sub, e, arr)
        acc = acc + w * reference_lam_max(sub, e, rest, arr) / fi
    return f * acc


def stacked_F_fused(spec, kappa):
    """F_fused through stacked σ arrays: rest copied, the last entry added by
    strided broadcasts, the cone mask by .all(axis=-1), F and λ_max by
    separate walks."""
    order = reference_order(spec)
    rest = stacked_sigma_all(kappa[..., :-1], order)
    e = rest.copy(order="K")
    e[..., 1:] += kappa[..., -1:] * rest[..., :-1]
    cone = natural_cone(spec)
    if cone.k is None:
        ok = (kappa > 0.0).all(axis=-1)
    else:
        ok = (e[..., 1 : cone.k + 1] > 0.0).all(axis=-1)
    # F and λ_max read σ_j as e[j]: the planes of the stacked arrays
    e, rest = np.moveaxis(e, -1, 0), np.moveaxis(rest, -1, 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = reference_F(spec, e, kappa)
        lam = reference_lam_max(spec, e, rest, kappa)
    return ok, f, lam


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("shape", [(48,), (8, 16)], ids=["axisym", "full_s2"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_F_fused_equals_the_stacked_sweep_bitwise(n, shape):
    # κ laid out as geometry.assemble lays it out, one contiguous plane per
    # entry, sorted descending; about half the nodes lie outside each cone,
    # and some entries are +0.0 or -0.0
    rng = np.random.default_rng(n)
    shift = rng.uniform(-1.5, 1.5, size=shape + (1,))
    planes = shift + rng.uniform(-1.0, 1.0, size=shape + (n,))
    planes.flat[rng.integers(0, planes.size, size=planes.size // 8)] = 0.0
    planes.flat[rng.integers(0, planes.size, size=planes.size // 8)] = -0.0
    planes = -np.sort(-planes, axis=-1)
    kappa = np.moveaxis(np.ascontiguousarray(np.moveaxis(planes, -1, 0)), 0, -1)
    specs = [SigmaKRoot(k=k) for k in range(1, n + 1)]
    specs += [QuotientRoot(k=k, l=l) for k in range(1, n + 1) for l in range(k)]
    specs += [
        PowerMean(p=-1.5),
        WeightedProduct(terms=((SigmaKRoot(k=2), 0.5), (PowerMean(p=-1.0), 0.5))),
        WeightedProduct(terms=((SigmaKRoot(k=n), 0.3), (QuotientRoot(k=2, l=1), 0.7))),
    ]
    for spec in specs:
        with np.errstate(invalid="ignore", divide="ignore"):
            got = F_fused(spec, kappa)
        want = stacked_F_fused(spec, kappa)
        assert 0 < np.count_nonzero(want[0]) < want[0].size, spec
        for name, x, y in zip(("mask", "F", "lambda_max"), got, want):
            assert same_bits(x, y), (spec, name)


def test_sigma_all_equals_the_stacked_sweep_bitwise():
    rng = np.random.default_rng(7)
    for n in range(1, 6):
        kappa = rng.normal(size=(5, 3, n))
        kappa.flat[::7] = -0.0
        for kmax in range(0, n + 2):
            assert same_bits(sigma_all(kappa, kmax), stacked_sigma_all(kappa, kmax))


def test_natural_cones():
    assert natural_cone(SigmaKRoot(k=3)).k == 3
    assert natural_cone(QuotientRoot(k=3, l=1)).k == 3
    assert natural_cone(PowerMean(p=-1.0)).k is None
    mixed = WeightedProduct(terms=((SigmaKRoot(k=2), 0.5), (PowerMean(p=-1.0), 0.5)))
    assert natural_cone(mixed).k is None
    roots = WeightedProduct(terms=((SigmaKRoot(k=2), 0.5), (QuotientRoot(k=3, l=1), 0.5)))
    assert natural_cone(roots).k == 3


def test_specs_compare_by_type():
    # a spec whose fields equal another type's must not share its verdict,
    # whichever of the two is walked first
    valid, invalid = PowerMean(p=-1.0), SigmaKRoot(k=-1)
    assert Cone(2) == Cone(k=2)
    for wrap in (lambda spec: spec, lambda spec: WeightedProduct(terms=((spec, 1.0),))):
        check_spec(wrap(valid), 2)
        with pytest.raises(ValueError, match=r"^sigma_k root needs k >= 1, got k=-1$"):
            check_spec(wrap(invalid), 2)


def test_newton_maclaurin_margin():
    assert newton_maclaurin_margin(np.array([1.0, 1.0, 1.0]), 3) == 0.0
    assert newton_maclaurin_margin(np.array([2.0, 2.0]), 2) == pytest.approx(0.0, abs=1e-15)
    want = 2.0 - np.sqrt(11.0 / 3.0)
    assert newton_maclaurin_margin(np.array([1.0, 2.0, 3.0]), 2) == pytest.approx(want, rel=1e-13)
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        kappa = rng.uniform(0.01, 5.0, n)
        m = int(rng.integers(2, n + 1))
        assert newton_maclaurin_margin(kappa, m) >= -1e-12


def test_midpoint_concavity():
    rng = np.random.default_rng(31)
    specs = [SigmaKRoot(k=2), QuotientRoot(k=2, l=1), PowerMean(p=-1.0)]
    for spec in specs:
        for _ in range(200):
            x = rng.uniform(0.05, 3.0, 3)
            y = rng.uniform(0.05, 3.0, 3)
            mid = F_value(spec, 0.5 * (x + y))
            assert mid >= 0.5 * (F_value(spec, x) + F_value(spec, y)) - 1e-12


def test_diagonal_quadratic_form_bound():
    """Matrix concavity estimate for sigma_k at diagonal arguments.

    With W = diag(kappa) and a symmetric direction B, the second derivative
    contraction reduces to deleted-index sigmas:

        D2 = sum_{p != q} sigma_{k-2}(kappa without p,q) (B_pp B_qq - B_pq^2)

    and the claimed upper bound is
        -sigma_k (x - y) (((2-k)/(k-1)) x - (k/(k-1)) y)
    with x = <grad sigma_k, diag B>/sigma_k and y = tr B / sigma_1.
    """
    rng = np.random.default_rng(37)
    checked = 0
    for _ in range(800):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(2, n + 1))
        kappa = rng.uniform(0.05, 3.0, n)
        if not in_cone(kappa, Cone(k)):
            continue
        B = rng.normal(size=(n, n))
        B = 0.5 * (B + B.T)
        lhs = 0.0
        for p in range(n):
            for q in range(n):
                if p == q:
                    continue
                second = brute_sigma(np.delete(kappa, [p, q]), k - 2)
                lhs += second * (B[p, p] * B[q, q] - B[p, q] ** 2)
        s1 = brute_sigma(kappa, 1)
        sk = brute_sigma(kappa, k)
        x = float(np.dot(sigma_grad(kappa, k), np.diag(B))) / sk
        y = float(np.trace(B)) / s1
        rhs = -sk * (x - y) * (((2.0 - k) / (k - 1.0)) * x - (k / (k - 1.0)) * y)
        assert lhs <= rhs + 1e-8
        checked += 1
    assert checked > 400  # the cone filter must not starve the test


def test_newton_maclaurin_rejects_bad_m():
    with pytest.raises(ValueError):
        newton_maclaurin_margin(np.array([1.0, 2.0]), 1)
    with pytest.raises(ValueError):
        newton_maclaurin_margin(np.array([1.0, 2.0]), 3)
