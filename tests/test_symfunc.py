"""Unit tests for the symmetric-function layer.

Reference values are tiny hand computations or brute-force subset
enumerations done inline; nothing is recycled from the module under test.
"""

from itertools import combinations

import numpy as np
import pytest

from starflow.symfunc import (
    GAMMA_PLUS,
    Cone,
    ConeViolation,
    F_eval,
    F_fused,
    F_grad,
    PowerMean,
    QuotientRoot,
    SigmaKRoot,
    WeightedProduct,
    cone_failure,
    in_cone,
    natural_cone,
    newton_maclaurin_margin,
    sigma,
    sigma_all,
    sigma_grad,
)


def brute_sigma(kappa, k):
    """Subset enumeration, the slow-but-obvious definition of sigma_k."""
    kappa = list(kappa)
    if k == 0:
        return 1.0
    return sum(float(np.prod([kappa[i] for i in c])) for c in combinations(range(len(kappa)), k))


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
    assert in_cone(np.array([1.0, 2.0]), GAMMA_PLUS)
    assert not in_cone(np.array([1.0, -0.1]), GAMMA_PLUS)
    # (3, -1): sigma_1 = 2 > 0 but sigma_2 = -3 < 0
    v = np.array([3.0, -1.0])
    assert in_cone(v, Cone(1))
    assert not in_cone(v, Cone(2))
    msg = cone_failure(v, Cone(2))
    assert msg is not None and "2" in msg
    assert cone_failure(np.array([1.0, 1.0]), Cone(2)) is None


def test_cone_membership_batched():
    kappa = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    mask = in_cone(kappa, GAMMA_PLUS)
    assert mask.tolist() == [True, False, False]


def test_cone_failure_names_the_first_node():
    kappa = np.ones((3, 4, 3))
    kappa[1, 2] = [2.0, 0.5, -0.25]  # in Gamma_2^+, not in Gamma_3^+ or Gamma_plus
    kappa[2, 0] = [1.0, -2.0, -2.0]
    assert cone_failure(kappa, GAMMA_PLUS) == (
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
    assert cone_failure(np.ones((5, 2)), GAMMA_PLUS) is None
    # a single vector has no node to name
    assert cone_failure(np.array([1.0, -0.5]), GAMMA_PLUS) == (
        "curvature left Gamma_plus: kappa_2 = -0.5 <= 0"
    )


def test_cone_describe():
    assert GAMMA_PLUS.describe() == "Gamma_plus"
    assert Cone(2).describe() == "Gamma_2^+"


def test_F_hand_values():
    assert F_eval(SigmaKRoot(k=2), np.ones(3)) == pytest.approx(np.sqrt(3.0), rel=1e-15)
    assert F_eval(QuotientRoot(k=2, l=1), np.array([1.0, 2.0, 3.0])) == pytest.approx(11.0 / 6.0, rel=1e-14)
    # (sum kappa^p)^{1/p}: (1 + 1/2)^{-1} = 2/3
    assert F_eval(PowerMean(p=-1.0), np.array([1.0, 2.0])) == pytest.approx(2.0 / 3.0, rel=1e-14)
    # geometric mixture of sigma_1 = 4 and the p=-1 value 1 at (2,2)
    prod = WeightedProduct(terms=((SigmaKRoot(k=1), 0.5), (PowerMean(p=-1.0), 0.5)))
    assert F_eval(prod, np.array([2.0, 2.0])) == pytest.approx(2.0, rel=1e-14)


def test_F_degree_one_homogeneous():
    rng = np.random.default_rng(19)
    specs = [
        SigmaKRoot(k=3),
        QuotientRoot(k=3, l=1),
        PowerMean(p=-2.0),
        WeightedProduct(terms=((SigmaKRoot(k=2), 0.3), (QuotientRoot(k=2, l=1), 0.7))),
    ]
    for spec in specs:
        for _ in range(40):
            kappa = rng.uniform(0.1, 2.0, 4)
            lam = float(rng.uniform(0.2, 5.0))
            f = float(F_eval(spec, kappa))
            assert F_eval(spec, lam * kappa) == pytest.approx(lam * f, rel=1e-12)
            # permutation symmetry
            assert F_eval(spec, kappa[::-1].copy()) == pytest.approx(f, rel=1e-12)
            # Euler identity for degree-one functions
            euler = float(np.sum(kappa * F_grad(spec, kappa)))
            assert euler == pytest.approx(f, rel=1e-9)


def test_F_grad_positive_in_cone():
    rng = np.random.default_rng(23)
    for spec in (SigmaKRoot(k=2), QuotientRoot(k=2, l=1), PowerMean(p=-1.5)):
        for _ in range(60):
            kappa = rng.uniform(0.05, 4.0, 3)
            assert np.all(F_grad(spec, kappa) > 0.0)


def test_F_checked_raises_outside_cone():
    with pytest.raises(ConeViolation):
        F_eval(SigmaKRoot(k=2), np.array([1.0, -1.0]))
    batch = np.ones((4, 2))
    batch[2] = [2.0, -1.0]
    for evaluate in (F_eval, F_grad):
        with pytest.raises(ConeViolation, match=r"at node \(2,\): sigma_2 = -2 <= 0"):
            evaluate(SigmaKRoot(k=2), batch)
    # unchecked evaluation is the caller's problem; it must not raise
    with np.errstate(invalid="ignore"):
        val = F_eval(SigmaKRoot(k=2), np.array([1.0, -1.0]), checked=False)
    assert np.isnan(val) or isinstance(float(val), float)


def test_F_fused_matches_reference():
    # cone mask, F and lambda_max from one sigma sweep agree with in_cone,
    # F_eval and the row maximum of F_grad for every variant
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
            ok, f, lam = F_fused(spec, kappa)
            want = in_cone(kappa, natural_cone(spec))
            assert np.array_equal(ok, want), spec
            inside = kappa[want]
            assert len(inside) >= 20, spec
            f_ref = F_eval(spec, inside)
            lam_ref = np.max(F_grad(spec, inside), axis=-1)
            assert np.max(np.abs(f[want] - f_ref) / f_ref) <= 1e-12, spec
            assert np.max(np.abs(lam[want] - lam_ref) / lam_ref) <= 1e-12, spec


def test_natural_cones():
    assert natural_cone(SigmaKRoot(k=3)).k == 3
    assert natural_cone(QuotientRoot(k=3, l=1)).k == 3
    assert natural_cone(PowerMean(p=-1.0)).k is None
    mixed = WeightedProduct(terms=((SigmaKRoot(k=2), 0.5), (PowerMean(p=-1.0), 0.5)))
    assert natural_cone(mixed).k is None or natural_cone(mixed).k == 2


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
            mid = F_eval(spec, 0.5 * (x + y))
            assert mid >= 0.5 * (F_eval(spec, x) + F_eval(spec, y)) - 1e-12


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
