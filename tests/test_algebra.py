import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab import algebra, fixtures, serialize
from twistlab.algebra import AlgebraElement, convolve, delta, gauge, involute
from twistlab.cocycles import TrivialCocycle
from twistlab.errors import BackendMismatch
from twistlab.normspectra import regular_rep


def naive_convolve(a, b, sigma):
    """Independent oracle: plain double loop over coefficient dicts."""
    G = a.group
    out = {}
    for x, ca in a.coeffs.items():
        for y, cb in b.coeffs.items():
            g = G.compose(x, y)
            out[g] = out.get(g, 0.0) + sigma.evaluate(x, y) * ca * cb
    return AlgebraElement(G, out)


def random_pair(G, seed, size=5):
    rng = np.random.default_rng(seed)
    els = G.elements() if G.is_finite else G.enumerate_ball(3)
    sup_a = rng.choice(len(els), size=min(size, len(els)), replace=False)
    sup_b = rng.choice(len(els), size=min(size, len(els)), replace=False)
    mk = lambda sup: AlgebraElement(G, {
        els[i]: complex(*rng.standard_normal(2)) for i in sup})
    return mk(sup_a), mk(sup_b)


def test_convolution_matches_oracle(s3, q8, f2):
    for G in (s3, q8, f2):
        sigma = fixtures.random_coboundary(G, seed=2)
        for seed in range(5):
            a, b = random_pair(G, seed)
            got = convolve(a, b, sigma)
            ref = naive_convolve(a, b, sigma)
            assert algebra.l1_norm(got - ref) <= 1e-12 * max(1.0, algebra.l1_norm(ref))


def test_convolution_is_twisted(s3):
    sigma = fixtures.random_coboundary(s3, seed=7)
    for x in s3.elements():
        for y in s3.elements():
            prod = convolve(delta(s3, x), delta(s3, y), sigma)
            expect = delta(s3, s3.compose(x, y), sigma.evaluate(x, y))
            assert algebra.l1_norm(prod - expect) <= 1e-14


def test_convolution_associative(q8):
    sigma = fixtures.random_coboundary(q8, seed=3)
    for seed in range(4):
        a, b = random_pair(q8, seed)
        c, _ = random_pair(q8, seed + 100)
        lhs = convolve(convolve(a, b, sigma), c, sigma)
        rhs = convolve(a, convolve(b, c, sigma), sigma)
        assert algebra.l1_norm(lhs - rhs) <= 1e-10 * max(1.0, algebra.l1_norm(lhs))


def test_majorization(s3, f2):
    # |(a *_sigma b)_g| <= (a+ * b+)_g pointwise
    for G in (s3, f2):
        sigma = fixtures.random_coboundary(G, seed=5)
        triv = TrivialCocycle(G)
        for seed in range(10):
            a, b = random_pair(G, seed)
            twisted = convolve(a, b, sigma)
            plain = convolve(algebra.positive_part(a), algebra.positive_part(b), triv)
            for g, c in twisted.coeffs.items():
                assert abs(c) <= plain.coeffs[g].real + 1e-12


def test_involution_reverses_products(q8):
    sigma = fixtures.random_coboundary(q8, seed=9)
    a, b = random_pair(q8, 0)
    lhs = involute(convolve(a, b, sigma), sigma)
    rhs = convolve(involute(b, sigma), involute(a, sigma), sigma)
    assert algebra.l1_norm(lhs - rhs) <= 1e-10


def test_involution_matches_adjoint(s3, q8):
    for G, seed in [(s3, 1), (q8, 2)]:
        sigma = fixtures.random_coboundary(G, seed)
        a, _ = random_pair(G, seed)
        m = regular_rep(G, sigma, a)
        mstar = regular_rep(G, sigma, involute(a, sigma))
        assert np.max(np.abs(mstar - m.conj().T)) <= 1e-12


def test_gauge_intertwines(f2):
    # T_beta(a * b) = T_beta(a) *_{d beta} T_beta(b)
    sigma = fixtures.random_coboundary(f2, seed=4)
    triv = TrivialCocycle(f2)
    beta = sigma.beta
    for seed in range(5):
        a, b = random_pair(f2, seed)
        lhs = gauge(convolve(a, b, triv), beta)
        rhs = convolve(gauge(a, beta), gauge(b, beta), sigma)
        assert algebra.l1_norm(lhs - rhs) <= 1e-10


def test_norms_and_positive_part(s3):
    a = AlgebraElement(s3, {0: 3.0 - 4.0j, 2: 1.0})
    assert algebra.l1_norm(a) == pytest.approx(6.0)
    assert algebra.l2_norm(a) == pytest.approx(np.sqrt(26.0))
    p = algebra.positive_part(a)
    assert p.coeffs[0] == pytest.approx(5.0)
    assert p.coeffs[2] == pytest.approx(1.0)


def test_power_left_associated(q8):
    sigma = fixtures.random_coboundary(q8, seed=6)
    a, _ = random_pair(q8, 3)
    p3 = algebra.power(a, 3, sigma)
    ref = convolve(convolve(a, a, sigma), a, sigma)
    assert algebra.l1_norm(p3 - ref) <= 1e-10
    with pytest.raises(ValueError):
        algebra.power(a, 0, sigma)


def test_tiny_coefficients_dropped(s3):
    a = AlgebraElement(s3, {0: 1.0, 1: 1e-310})
    assert a.support() == [0]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("-inf")),
                                 complex(float("nan"), 0.0)],
                         ids=["nan", "inf", "-inf-imag", "nan-real"])
def test_non_finite_coefficients_rejected(s3, bad):
    with pytest.raises(ValueError):
        AlgebraElement(s3, {0: 1.0, 1: bad})
    with pytest.raises(ValueError):
        AlgebraElement(s3, {1: bad})


def test_backend_mismatch_rejected(s3, q8):
    a = delta(s3, 0)
    b = delta(q8, 0)
    with pytest.raises(BackendMismatch):
        a + b


def test_is_normal(s3):
    sigma = fixtures.random_coboundary(s3, seed=8)
    a = delta(s3, 1) + involute(delta(s3, 1), sigma)
    assert algebra.is_normal(a, sigma)
    b = delta(s3, 1) + delta(s3, 2, 2.0)
    assert not algebra.is_normal(b, sigma)


def test_serialization_roundtrip_exact(s3, f2):
    for G, seed in [(s3, 0), (f2, 1)]:
        a, _ = random_pair(G, seed)
        back = serialize.element_from_json(serialize.element_to_json(a))
        assert back.coeffs == a.coeffs


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_convolution_bilinear(seed):
    G = fixtures.symmetric(3)
    sigma = fixtures.random_coboundary(G, seed % 17)
    a, b = random_pair(G, seed)
    c, _ = random_pair(G, seed + 1)
    lhs = convolve(a + c, b, sigma)
    rhs = convolve(a, b, sigma) + convolve(c, b, sigma)
    assert algebra.l1_norm(lhs - rhs) <= 1e-10 * max(1.0, algebra.l1_norm(lhs))
