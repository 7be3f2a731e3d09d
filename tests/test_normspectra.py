import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp

from conftest import evaluate, law, loop_certificate, order_key
from twistlab import algebra, fixtures, normspectra, serialize
from twistlab.algebra import AlgebraElement, delta, gauge, l2_norm
from twistlab.cocycles import (BicharacterCocycle, ConjugateCocycle, ProductCocycle,
                               PullbackCocycle, TableCocycle, TrivialCocycle, complex_mul,
                               value_table)
from twistlab.errors import BackendMismatch, InvalidArgument, MemoryBudgetExceeded, Unsupported
from twistlab.groups import FreeGroup, IntLattice
from twistlab.normspectra import (certify_free_subsemigroup, exact_norm,
                                  exact_spectrum, haagerup_upper,
                                  l2_spectral_radius, regular_rep,
                                  transfer_check, truncated_norm_lower)


def z2_sign():
    G = fixtures.cyclic(2)
    sigma = TableCocycle(G, np.array([[1, 1], [1, -1]], dtype=complex))
    return G, sigma


def test_regular_rep_twisted_z2():
    G, sigma = z2_sign()
    m = regular_rep(G, sigma, delta(G, 1))
    # u_1 acts as the antisymmetric shift: u_1 u_1 = -u_0
    assert np.allclose(m, [[0, -1], [1, 0]])


def test_exact_norm_twisted_vs_untwisted():
    G, sigma = z2_sign()
    a = delta(G, 0) + delta(G, 1)
    assert exact_norm(G, sigma, a) == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert exact_norm(G, TrivialCocycle(G), a) == pytest.approx(2.0, abs=1e-9)


def test_exact_norm_needs_finite(f2):
    with pytest.raises(Unsupported):
        exact_norm(f2, TrivialCocycle(f2), delta(f2, ()))


def test_exact_spectrum_normal_element(s3):
    # spectrum of the regular matrix, against the dense LAPACK oracle
    sigma = fixtures.random_coboundary(s3, seed=3)
    a = delta(s3, 1)
    a = a + __import__("twistlab.algebra", fromlist=["involute"]).involute(a, sigma)
    vals = exact_spectrum(s3, sigma, a)
    ref = np.linalg.eigvalsh(regular_rep(s3, sigma, a))
    # same multiset up to 1e-8, compared as mutual containment
    for v in vals:
        assert np.min(np.abs(ref - v)) <= 1e-8
    for r in ref:
        assert min(abs(r - v) for v in vals) <= 1e-8


def test_spectrum_twisted_z2_is_imaginary():
    G, sigma = z2_sign()
    vals = exact_spectrum(G, sigma, delta(G, 1))
    assert sorted(np.round(v.imag, 9) for v in vals) == [-1.0, 1.0]
    assert all(abs(v.real) <= 1e-9 for v in vals)


def test_r2_sequence_binomial_oracle(f2):
    # ||(u_x + u_x^-1)^n||_2^2 = C(2n, n) exactly
    x = f2.generator(1)
    a = delta(f2, x) + delta(f2, f2.invert(x))
    rep = l2_spectral_radius(a, None, 8)
    for n, r in enumerate(rep.r2_sequence, start=1):
        expect = math.comb(2 * n, n) ** (1.0 / (2 * n))
        assert r == pytest.approx(expect, rel=1e-12)


def test_truncated_norm_monotone_and_bounded(f2):
    sigma = TrivialCocycle(f2)
    x, y = f2.generator(1), f2.generator(2)
    a = (delta(f2, x) + delta(f2, f2.invert(x))
         + delta(f2, y) + delta(f2, f2.invert(y)))
    prev = 0.0
    for r in range(2, 7):
        lo = truncated_norm_lower(f2, sigma, a, r)
        assert lo >= prev - 1e-12
        prev = lo
    assert prev <= 2.0 * math.sqrt(3.0) + 1e-9


def test_truncated_norm_finite_group_is_exact(s3):
    sigma = fixtures.random_coboundary(s3, seed=1)
    a = delta(s3, 1) + delta(s3, 4, 0.5j)
    assert truncated_norm_lower(s3, sigma, a, 3) == pytest.approx(
        exact_norm(s3, sigma, a), abs=1e-9)


def test_mem_cap_enforced(f2):
    a = delta(f2, f2.generator(1))
    with pytest.raises(MemoryBudgetExceeded):
        truncated_norm_lower(f2, TrivialCocycle(f2), a, 10, mem_cap=100)


def test_haagerup_upper(f2):
    x, y = f2.generator(1), f2.generator(2)
    a = (delta(f2, x) + delta(f2, f2.invert(x))
         + delta(f2, y) + delta(f2, f2.invert(y)))
    assert haagerup_upper(f2, a) == pytest.approx(4.0)
    assert haagerup_upper(f2, delta(f2, ())) == pytest.approx(1.0)


def test_haagerup_needs_free_backend(s3):
    with pytest.raises(Unsupported):
        haagerup_upper(s3, delta(s3, 1))


def test_transfer_on_lattice_product():
    G = fixtures.cyclic_product([4, 4])
    S = [G.index_of_label(l) for l in [(1, 0), (0, 1), (1, 1)]]
    sigmas = [fixtures.random_cocycle_abelian(G, [4, 4], seed) for seed in range(5)]
    rep = transfer_check(G, S, sigmas, seed=0)
    assert rep.passed
    assert rep.constant > 0
    assert all(r <= rep.constant + 1e-9 for r in rep.per_sigma_max_ratio)


def test_semigroup_certified(f2):
    x, y = f2.generator(1), f2.generator(2)
    cert = certify_free_subsemigroup(f2, x, [y, f2.compose(y, y)], 6)
    assert cert.certified
    assert cert.collision is None
    assert cert.products_checked == sum(2**k for k in range(1, 7))


def test_semigroup_rejects_with_collision(f2):
    x = f2.generator(1)
    cert = certify_free_subsemigroup(f2, f2.identity(), [x, f2.invert(x)], 2)
    assert not cert.certified
    assert cert.collision is not None
    assert cert.length <= 2


def _certificate_or_cap(certify, *args):
    try:
        return certify(*args)
    except MemoryBudgetExceeded as exc:
        return "cap", exc.needed, exc.cap


@pytest.mark.parametrize("G", [FreeGroup(1), FreeGroup(2), FreeGroup(3), fixtures.symmetric(4),
                               IntLattice(2)], ids=["F1", "F2", "F3", "S4", "Z2"])
def test_semigroup_certificate_has_the_results_of_the_sequence_loop(G):
    # seeded t, F (with the identity, inverse pairs and repeats possible), L
    # and caps of 3 to 50 or the default: the same certificate dict, or the
    # same MemoryBudgetExceeded arguments
    pool = G.elements() if G.is_finite else G.enumerate_ball(2)
    rng = np.random.default_rng(len(pool))
    outcomes = set()
    for _ in range(60):
        t = pool[int(rng.integers(len(pool)))]
        F = [pool[int(i)] for i in rng.integers(len(pool), size=int(rng.integers(1, 4)))]
        L = int(rng.integers(1, 7))
        cap = int(rng.integers(3, 51)) if rng.random() < 0.6 else normspectra.DEFAULT_MEM_CAP
        got = _certificate_or_cap(lambda *args: certify_free_subsemigroup(*args).to_json(),
                                  G, t, F, L, cap)
        want = _certificate_or_cap(loop_certificate, G, t, F, L, cap)
        assert got == want, (t, F, L, cap)
        outcomes.add(got[0] if isinstance(got, tuple) else got["certified"])
    assert outcomes == {"cap", True, False}


def test_semigroup_certificate_past_int64_keeps_the_loop_results(f2):
    # words past 27 letters sit past int64, where positions are Python ints:
    # {x^2 y, x^2 y^2} reaches 32 letters at L = 8 and is certified, and
    # w^2, w^3 for w = (xy)^7 collide at w^5, 70 letters long
    x, y = f2.generator(1), f2.generator(2)
    xy = f2.compose(x, y)
    w = xy * 7
    for t, F, L in ((x, [xy, f2.compose(xy, y)], 8), (f2.identity(), [w * 2, w * 3], 3)):
        got = certify_free_subsemigroup(f2, t, F, L).to_json()
        assert got == loop_certificate(f2, t, F, L, normspectra.DEFAULT_MEM_CAP)
        assert got["certified"] == (L == 8)


def test_spectral_radius_normal_flag(s3):
    from twistlab.algebra import involute
    sigma = fixtures.random_coboundary(s3, seed=2)
    a = delta(s3, 1)
    h = a + involute(a, sigma)
    rep = l2_spectral_radius(h, sigma, 6)
    assert rep.normal
    assert rep.r_sigma is not None
    assert rep.r_sigma == pytest.approx(exact_norm(s3, sigma, h), abs=1e-8)


def test_regular_rep_is_multiplicative(q8):
    from twistlab.algebra import convolve
    sigma = fixtures.random_coboundary(q8, seed=4)
    a = delta(q8, 2) + delta(q8, 5, 1j)
    b = delta(q8, 1, -0.5) + delta(q8, 3)
    lhs = regular_rep(q8, sigma, convolve(a, b, sigma))
    rhs = regular_rep(q8, sigma, a) @ regular_rep(q8, sigma, b)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


NON_NORMAL_PINNED = {"S3": [((1, 2, 5), 2)], "Q8": [((1, 2, 5), 1)], "D4": [((1, 3, 4), 2)],
                     "Z6": []}


@pytest.mark.parametrize("name", sorted(NON_NORMAL_PINNED))
def test_spectral_radius_of_non_normal_elements_matches_lapack(name):
    # seeded random 3-term elements, most of them non-normal, plus the pinned
    # ones that power iteration with deflation once got wrong by a factor 2-6
    G = fixtures.standard_groups()[name]
    n = G.order
    rng = np.random.default_rng(2403)
    cases = [(tuple(int(g) for g in rng.choice(n, size=3, replace=False)), seed)
             for seed in range(12)] + NON_NORMAL_PINNED[name]
    non_normal = 0
    for support, seed in cases:
        a = fixtures.random_element(G, support, seed)
        # the regular matrix straight from the multiplication table
        m = np.zeros((n, n), dtype=complex)
        for g, c in a.coeffs.items():
            for h in range(n):
                m[G.compose(g, h), h] += c
        ref = float(np.max(np.abs(np.linalg.eigvals(m))))
        non_normal += not np.allclose(m @ m.conj().T, m.conj().T @ m)
        got = l2_spectral_radius(a, None, 6).r_sigma
        assert got == pytest.approx(ref, rel=1e-10), (support, seed)
    # abelian and untwisted, Z6 has only normal elements; the others mostly not
    assert name == "Z6" or non_normal >= len(cases) // 2


def dict_reference_matrix(G, sigma, a, r):
    # the whole codomain ball, listed and indexed by a dict of words
    supp = a.support()
    dom = G.enumerate_ball(r)
    cod = G.enumerate_ball(r + max(len(g) for g in supp))
    index = {w: i for i, w in enumerate(cod)}
    rows = [index[G.compose(g, b)] for g in supp for b in dom]
    cols = [j for _ in supp for j in range(len(dom))]
    data = [evaluate(sigma, g, b) * a.coeffs[g] for g in supp for b in dom]
    return sp.csr_matrix((data, (rows, cols)), shape=(len(cod), len(dom)), dtype=complex)


def complex_data(data):
    """_truncation_matrix's data as one array: the real T as it is, a
    complex T's stacked parts as the complex128 array holding them, signed
    zeros included."""
    if data.ndim == 2:
        return data
    out = np.empty(data[0].shape, dtype=complex)
    out.real, out.imag = data
    return out


def five_term_element(G, seed):
    # seeded coefficients on 5 seeded words of B_4, one of them of length 4
    ball = G.enumerate_ball(4)
    rng = np.random.default_rng(seed)
    support = [ball[int(i)] for i in rng.choice(len(ball), 5, replace=False)]
    support[0] = ball[-1]
    return fixtures.random_element(G, support, seed=seed)


@pytest.mark.parametrize("k, rmax", [(1, 12), (2, 5), (3, 3)])
def test_truncation_bit_equal_to_dict_reference(k, rmax):
    G = FreeGroup(k)
    sphere1 = G.enumerate_ball(1)[1:]
    # the last element is odd under x_i -> x_i^-1, which hides the top
    # singular vector from an all-ones start at some radii
    elements = [five_term_element(G, k), AlgebraElement(G, {g: 1.0 for g in sphere1}),
                AlgebraElement(G, {g: 1.0 if g[0] > 0 else -1.0 for g in sphere1})]
    for sigma in (TrivialCocycle(G), fixtures.random_coboundary(G, seed=k)):
        for a in elements:
            for r in range(rmax + 1):
                ref = dict_reference_matrix(G, sigma, a, r)
                data, rows, m = normspectra._truncation_matrix(G, sigma, a, r, 10**7)
                data = np.broadcast_to(complex_data(data), rows.shape)
                n = data.shape[1]
                T = sp.csr_matrix((data.ravel(), (rows.ravel(), np.tile(np.arange(n), len(data)))),
                                  shape=(m, n), dtype=complex)
                # the reached rows, in shortlex order, carry every entry bit for bit
                kept = ref[np.flatnonzero(np.diff(ref.indptr))]
                assert kept.shape == T.shape and ref.nnz == T.nnz
                for attr in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(kept, attr), getattr(T, attr))
                got = truncated_norm_lower(G, sigma, a, r)
                want = np.linalg.norm(kept.toarray(), 2)
                assert got == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("r, value", [(4, 2.6016791318831487), (8, 2.682211377599001)])
def test_lattice_truncation_matches_the_dict_matrix(r, value):
    # the generic ball_positions path: u1 + u1* + u2 + u2* on Z^2 under the
    # bicharacter theta = [[0, 1/3], [0, 0]]
    G = IntLattice(2)
    sigma = BicharacterCocycle(G, [[0.0, 1.0 / 3.0], [0.0, 0.0]])
    a = AlgebraElement(G, {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0})
    want = np.linalg.norm(dict_reference_matrix(G, sigma, a, r).toarray(), 2)
    got = truncated_norm_lower(G, sigma, a, r)
    assert got <= want and want - got <= 1e-12
    assert got <= 1 + math.sqrt(3)
    assert got == value


def mp_radial_jacobi_norm(r):
    # the norm of the (r+2) x (r+1) Jacobi matrix of sphere-1 on F2 at 40 digits
    with mpmath.workdps(40):
        J = mpmath.zeros(r + 2, r + 1)
        for j in range(r + 1):
            J[j + 1, j] = mpmath.sqrt(4 if j == 0 else 3)
            if j >= 1:
                J[j - 1, j] = mpmath.sqrt(4 if j == 1 else 3)
        return mpmath.sqrt(max(mpmath.eigsy(J.T * J, eigvals_only=True)))


def _gauged_sphere1_cases(G):
    # (sigma, sphere-1 gauged by sigma's beta): d beta-twisted convolution by
    # beta a is untwisted convolution by a, conjugated by a diagonal unitary
    sphere1 = AlgebraElement(G, {g: 1.0 for g in G.enumerate_ball(1)[1:]})
    cobs = [fixtures.random_coboundary(G, seed) for seed in range(4)]
    for cob in cobs:
        yield cob, gauge(sphere1, cob.beta)
    yield (ProductCocycle([cobs[0], cobs[1]]),
           gauge(gauge(sphere1, cobs[0].beta), cobs[1].beta))
    yield ConjugateCocycle(cobs[2]), gauge(sphere1, lambda g: np.conj(cobs[2].beta(g)))


def test_truncated_norm_is_a_genuine_lower_bound(f2):
    # sphere-1 untwisted and gauged under coboundaries, a product and a
    # conjugate: the same operator up to diagonal phases, so each is bounded
    # by the exact Jacobi norm, itself below 2 sqrt 3
    a = AlgebraElement(f2, {g: 1.0 for g in f2.enumerate_ball(1)[1:]})
    cases = [(TrivialCocycle(f2), a), *_gauged_sphere1_cases(f2)]
    for r in range(11):
        exact = mp_radial_jacobi_norm(r)
        for sigma, b in cases:
            lo = truncated_norm_lower(f2, sigma, b, r)
            assert mpmath.mpf(lo) <= exact, (r, lo)
            assert lo >= exact - 1e-13, (r, lo)


def twisted_truncation(G, sigma, a, r):
    """The truncated bound as it was formed before the gauge: sigma read into
    T pair by pair by _truncation_matrix, the same solver, and the allowance
    (p + 8) u ||a||_1 for elements of moderate scale."""
    cap = normspectra.DEFAULT_MEM_CAP
    rho = normspectra._top_singular_rayleigh(
        *normspectra._truncation_matrix(G, sigma, a, r, cap), cap)
    l1 = math.fsum(abs(c) for c in a.coeffs.values())
    return max(0.0, rho - (len(a.coeffs) + 8) * normspectra.UNIT_ROUNDOFF * l1)


@pytest.mark.parametrize("G, radii", [(FreeGroup(1), range(7)), (FreeGroup(2), (0, 1, 3, 6)),
                                      (FreeGroup(3), (0, 2, 4)), (IntLattice(2), (0, 3, 6))],
                         ids=["F1", "F2", "F3", "Z2"])
def test_gauged_truncation_agrees_with_the_twisted_operator(G, radii):
    # within the sum of the two rounding allowances, on seeded elements of
    # B_1 and B_2 under a coboundary, a product of two and a conjugate.  On
    # a support that is a free basis the norm is the same under every twist
    # and would hide a wrong gauge, so the last element fills B_2
    ball = G.enumerate_ball(2)
    sphere1 = G.enumerate_ball(1)[1:]
    rng = np.random.default_rng(len(sphere1))
    words = [ball[int(i)] for i in rng.choice(len(ball) - 1, 3, replace=False) + 1]
    elements = [fixtures.random_element(G, sphere1, seed=1),
                fixtures.random_element(G, words, seed=2),
                fixtures.random_element(G, ball, seed=3)]
    cob, other = fixtures.random_coboundary(G, 10), fixtures.random_coboundary(G, 11)
    sigmas = [(cob, 1), (ProductCocycle([cob, TrivialCocycle(G), other]), 2),
              (ConjugateCocycle(ProductCocycle([other, cob])), 2)]
    for a in elements:
        p, l1 = len(a.coeffs), math.fsum(abs(c) for c in a.coeffs.values())
        for sigma, gauges in sigmas:
            slack = (2 * p + 16 + gauges * math.sqrt(5)) * normspectra.UNIT_ROUNDOFF * l1
            for r in radii:
                got = truncated_norm_lower(G, sigma, a, r)
                want = twisted_truncation(G, sigma, a, r)
                assert abs(got - want) <= slack, (sigma.kind, r, got, want)


def test_truncated_norm_is_reproducible_within_one_process():
    # the same call, with allocations in between, returns the same bits
    G = FreeGroup(3)
    a = five_term_element(G, 3)
    values, held = set(), []
    for i in range(12):
        held.append(np.empty(1000 * (i + 1), dtype=complex))
        values.add(truncated_norm_lower(G, TrivialCocycle(G), a, 3))
    assert len(values) == 1, values


def test_sphere1_truncation_is_the_radial_jacobi_norm(f2):
    # on normalised sphere indicators the truncation is the (r+2) x (r+1)
    # Jacobi matrix with off-diagonals sqrt(4), sqrt(3), sqrt(3), ...
    a = AlgebraElement(f2, {g: 1.0 for g in f2.enumerate_ball(1)[1:]})
    prev = 0.0
    for r in range(11):
        J = np.zeros((r + 2, r + 1))
        for j in range(r + 1):
            J[j + 1, j] = math.sqrt(4 if j == 0 else 3)
            if j >= 1:
                J[j - 1, j] = math.sqrt(4 if j == 1 else 3)
        lo = truncated_norm_lower(f2, TrivialCocycle(f2), a, r)
        assert lo == pytest.approx(np.linalg.norm(J, 2), abs=1e-12)
        assert lo >= prev
        prev = lo


def test_truncated_norm_rejects_negative_radius(f2):
    with pytest.raises(ValueError):
        truncated_norm_lower(f2, TrivialCocycle(f2), delta(f2, f2.generator(1)), -1)


def test_mem_cap_counts_the_codomain_ball(f2):
    # |B_13| = 3,188,645 on F2: over the default cap, refused before allocating
    a = AlgebraElement(f2, {g: 1.0 for g in f2.enumerate_ball(1)[1:]})
    with pytest.raises(MemoryBudgetExceeded) as exc:
        truncated_norm_lower(f2, TrivialCocycle(f2), a, 12)
    assert exc.value.needed == 3_188_645


@pytest.mark.parametrize("exponent", [600, -600])
def test_truncated_norm_of_a_huge_or_tiny_element_scales(f2, exponent):
    # T^H T squares the coefficients: 2^+-1200 is outside the float range
    x, y = f2.generator(1), f2.generator(2)
    a = AlgebraElement(f2, {x: 1.0, f2.invert(x): 1.0, y: 1.0, f2.invert(y): 0.5j})
    big = a.scale(2.0 ** exponent)
    plain = truncated_norm_lower(f2, TrivialCocycle(f2), a, 4)
    scaled = truncated_norm_lower(f2, TrivialCocycle(f2), big, 4)
    assert scaled == math.ldexp(plain, exponent)


def test_truncated_norm_of_many_large_terms_does_not_overflow(f2):
    # each coefficient is below 2^256, but T^H T's entries reach ||a||_1^2
    # and the Lanczos sums square them again
    sphere = AlgebraElement(f2, {g: 1.0 for g in f2.enumerate_ball(1) if g})
    plain = truncated_norm_lower(f2, TrivialCocycle(f2), sphere, 3)
    big = truncated_norm_lower(f2, TrivialCocycle(f2), sphere.scale(1e77), 3)
    assert big == pytest.approx(1e77 * plain, rel=1e-13)


def test_truncated_norm_past_the_float_range_is_an_invalid_argument(f2):
    x, y = f2.generator(1), f2.generator(2)
    a = AlgebraElement(f2, {x: 1e308, y: 1e308})
    with pytest.raises(InvalidArgument):
        truncated_norm_lower(f2, TrivialCocycle(f2), a, 3)


def complex_lanczos(gram, q, steps):
    """The three-term recurrence of _lanczos as it was written for complex
    vectors alone: q_{k+1} = w / beta_k, and Re <x, y> summed over the real
    and imaginary parts."""
    def dot(x, y):
        return float(np.sum(x.real * y.real + x.imag * y.imag))

    q_prev = np.zeros_like(q)
    beta = 0.0
    for _ in range(steps):
        w = gram(q) - beta * q_prev
        alpha = dot(q, w)
        w -= alpha * q
        beta = np.sqrt(dot(w, w))
        yield q, alpha, beta
        if beta == 0.0:
            return
        q_prev, q = q, w / beta


def two_pass_top_singular_rayleigh(data, rows, m, mem_cap=None):
    """The bit-for-bit reference for _top_singular_rayleigh, always in
    complex128, with its own recurrence (complex_lanczos): pass 1 finds the
    Ritz coefficients s, pass 2 reruns the recurrence to sum
    y = sum_j s_j q_j, and T is applied by bincount on the real and
    imaginary parts, with the products of _top_singular_rayleigh.  So a real
    T, which _top_singular_rayleigh solves in float64, and a complex one,
    which it solves on float64 parts, are held to the bits of the complex
    solve.  ``data`` is a complex or float64 array (see complex_data).
    mem_cap is ignored."""
    n = rows.shape[1]
    data = data.astype(complex)
    flat = rows.ravel()
    conj = data.conj()
    if np.all(data.imag == 0) and np.all(data.real >= 0):
        start = np.ones(n)
    else:
        start = np.random.default_rng(0).random(n)
    start = (start / np.sqrt(algebra.sum_squares(start))).astype(complex)
    mul = complex_mul if np.any(data.imag) else np.multiply

    def apply(v):
        tv = mul(data, v).ravel()
        out = np.empty(m, dtype=complex)
        out.real = np.bincount(flat, tv.real, m)
        out.imag = np.bincount(flat, tv.imag, m)
        return out

    def gram(v):
        return mul(conj, apply(v)[rows]).sum(axis=0)

    alphas, betas = [], []
    for _, alpha, beta in complex_lanczos(gram, start, normspectra.LANCZOS_MAX_STEPS):
        alphas.append(alpha)
        betas.append(beta)
        k = len(alphas)
        if (beta <= 1e-8 * max(alphas) or k % (k // 16 + 1) == 0
                or k == normspectra.LANCZOS_MAX_STEPS):
            off = np.diag(betas[:-1], 1)
            vals, vecs = np.linalg.eigh(np.diag(alphas) + off + off.T)
            theta, s = vals[-1], vecs[:, -1]
            if min(beta, beta * abs(s[-1])) <= normspectra.LANCZOS_TOL * theta:
                break
    y = np.zeros(n, dtype=complex)
    for (q, _, _), sj in zip(complex_lanczos(gram, start, len(s)), s):
        y += sj * q
    return np.sqrt(algebra.sum_squares(apply(y)) / algebra.sum_squares(y))


def _truncation_cases(G):
    # sphere-1 (ones start), x - x^-1 (+ y) (real with a negative entry:
    # random start), seeded complex elements on words of B_1 and B_2 (random
    # start), coefficients with zero parts of either sign, each untwisted and
    # under a random coboundary; the untwisted real ones run in float64
    ball = G.enumerate_ball(2)
    sphere1 = ball[1:2 * G.rank + 1]
    rng = np.random.default_rng(G.rank)
    words = [ball[int(i)] for i in rng.choice(len(ball) - 1, 3, replace=False) + 1]
    elements = [("sphere1", AlgebraElement(G, {g: 1.0 for g in sphere1})),
                ("real-signed", AlgebraElement(G, dict(zip(sphere1[:3], (1.0, -1.0, 1.0))))),
                ("random-b1", fixtures.random_element(G, sphere1, seed=G.rank)),
                ("random-b2", fixtures.random_element(G, words, seed=G.rank + 10)),
                ("zero-parts", AlgebraElement(G, {
                    g: c for g, c in zip(sphere1, (complex(-1.0, -0.0), 0.5j,
                                                   complex(-0.0, -2.0), 1.0))}))]
    for twist, sigma in (("trivial", TrivialCocycle(G)),
                         ("coboundary", fixtures.random_coboundary(G, seed=G.rank))):
        for name, a in elements:
            yield f"{name}-{twist}", sigma, a


@pytest.mark.parametrize("k", [1, 2, 3])
def test_truncated_norm_has_the_bits_of_the_two_pass_solver(k, monkeypatch):
    G = FreeGroup(k)
    for case, sigma, a in _truncation_cases(G):
        d = max(len(g) for g in a.coeffs)
        for r in range(7):
            with monkeypatch.context() as patched:
                patched.setattr(normspectra, "_top_singular_rayleigh",
                                lambda data, *rest: two_pass_top_singular_rayleigh(
                                    complex_data(data), *rest))
                want = truncated_norm_lower(G, sigma, a, r).hex()
            # the default cap keeps the basis; the least cap that admits the
            # codomain ball drops it past about (2k - 1)^d steps
            for cap in (normspectra.DEFAULT_MEM_CAP, G.ball_size(r + d)):
                assert truncated_norm_lower(G, sigma, a, r, cap).hex() == want, (case, r, cap)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_trivial_twist_truncates_with_the_bits_of_a_product_by_one(k):
    # under a TrivialCocycle the truncation reads no sigma and multiplies by
    # nothing; a product of one trivial factor is read as 1 + 0j and
    # multiplied in, which can flip the sign of a zero part of an entry
    G = FreeGroup(k)
    one = ProductCocycle([TrivialCocycle(G)])
    for case, sigma, a in _truncation_cases(G):
        if sigma.kind != "trivial":
            continue
        for r in range(5):
            data, rows, m = normspectra._truncation_matrix(G, sigma, a, r, 10**7)
            data1, rows1, m1 = normspectra._truncation_matrix(G, one, a, r, 10**7)
            # the trivial data is a's coefficient column, broadcast over B_r
            assert data.shape == data1.shape[:-1] + (1,), (case, r)
            full = np.broadcast_to(data, data1.shape)
            assert m == m1 and np.array_equal(rows, rows1) and np.array_equal(full, data1)
            if data.ndim == 2:
                assert full.tobytes() == data1.tobytes(), (case, r)
            assert (truncated_norm_lower(G, sigma, a, r).hex()
                    == truncated_norm_lower(G, one, a, r).hex()), (case, r)


def test_a_real_truncation_runs_lanczos_in_float64(f2, monkeypatch):
    # sphere-1 untwisted and gauged under its coboundary (conj beta (beta 1)
    # has imaginary part exactly 0) and x - x^-1 + y are real operators,
    # solved on float64 vectors of length n; a seeded complex element is
    # not, and is solved on (2, n) float64 parts.  No complex128 vector
    # appears in either
    shapes, lanczos = [], normspectra._lanczos

    def recorded(gram, q, steps):
        for step in lanczos(gram, q, steps):
            shapes.append((step[0].dtype, step[0].shape))
            yield step

    monkeypatch.setattr(normspectra, "_lanczos", recorded)
    sphere1 = f2.enumerate_ball(1)[1:]
    a = AlgebraElement(f2, {g: 1.0 for g in sphere1})
    cob = fixtures.random_coboundary(f2, seed=1)
    signed = AlgebraElement(f2, dict(zip(sphere1[:3], (1.0, -1.0, 1.0))))
    trivial = TrivialCocycle(f2)
    n = f2.ball_size(4)
    for sigma, b, shape in ((trivial, a, (n,)), (cob, gauge(a, cob.beta), (n,)),
                            (trivial, signed, (n,)),
                            (trivial, fixtures.random_element(f2, sphere1, seed=3), (2, n))):
        shapes.clear()
        truncated_norm_lower(f2, sigma, b, 4)
        assert shapes and set(shapes) == {(np.dtype(np.float64), shape)}, (sigma.kind, shapes)


def test_lanczos_runs_once_while_the_basis_fits(f2, monkeypatch):
    runs, lanczos = [], normspectra._lanczos

    def counted(gram, q, steps):
        runs.append(0)
        for step in lanczos(gram, q, steps):
            runs[-1] += 1
            yield step

    monkeypatch.setattr(normspectra, "_lanczos", counted)
    a = AlgebraElement(f2, {g: 1.0 for g in f2.enumerate_ball(1)[1:]})
    b = fixtures.random_element(f2, f2.enumerate_ball(1)[1:], seed=3)
    for x in (a, b):
        for r in range(3, 7):
            n = f2.ball_size(r)
            for cap in (normspectra.DEFAULT_MEM_CAP, f2.ball_size(r + 1)):
                runs.clear()
                truncated_norm_lower(f2, TrivialCocycle(f2), x, r, cap)
                steps = runs[0]
                if steps * n <= cap:
                    assert runs == [steps], (r, cap)
                else:
                    # the basis is dropped and the second run stops at k
                    assert runs == [steps, steps], (r, cap)
                assert (steps * n > cap) == (cap != normspectra.DEFAULT_MEM_CAP), (r, cap)


def loop_regular_rep(G, sigma, a):
    """The sigma-regular matrix by the per-(g, h) loop that regular_matrices
    replaced: the bit-for-bit reference."""
    elems = G.elements()
    index = {g: i for i, g in enumerate(elems)}
    m = np.zeros((len(elems), len(elems)), dtype=complex)
    for g in a.support():
        c = a.coeffs[g]
        for j, h in enumerate(elems):
            m[index[law(G).compose(g, h)], j] += evaluate(sigma, g, h) * c
    return m


def _phase_table(G, seed):
    """Unit phases on every pair, normalised at the identity: a table
    cocycle's arithmetic, whether or not the table is a cocycle."""
    n = len(G.elements())
    return TableCocycle(G, np.exp(2j * np.pi * np.random.default_rng(seed).random((n, n))))


def _finite_cases():
    for name, G in fixtures.standard_groups().items():
        table, cob = _phase_table(G, 1), fixtures.random_coboundary(G, 2)
        for twist, sigma in (("trivial", TrivialCocycle(G)), ("table", table),
                             ("coboundary", cob), ("product", ProductCocycle([table, cob])),
                             ("conjugate", ConjugateCocycle(table))):
            yield f"{name}-{twist}", G, sigma
    for name, ext in fixtures.standard_extensions().items():
        cob = fixtures.random_coboundary(ext, 3)
        pullback = PullbackCocycle(ext, _phase_table(ext.quotient, 4))
        for twist, sigma in (("trivial", TrivialCocycle(ext)), ("coboundary", cob),
                             ("product", ProductCocycle([cob, pullback])),
                             ("conjugate", ConjugateCocycle(cob)), ("pullback", pullback)):
            yield f"{name}-{twist}", ext, sigma


FINITE_CASES = list(_finite_cases())


@pytest.mark.parametrize("case", FINITE_CASES, ids=lambda c: c[0])
def test_regular_rep_has_the_bits_of_the_pair_loop(case):
    _, G, sigma = case
    elems = G.elements()
    elements = [fixtures.random_element(G, support, seed) for seed, support
                in enumerate((elems, elems[::3], elems[1:4], [elems[-1]], []))]
    # sigma(g, h) a_g with a zero imaginary part of either sign: the loop
    # adds it to +0.0
    elements.append(AlgebraElement(G, {elems[0]: complex(-2.0, -0.0), elems[-1]: -1.0}))
    for a in elements:
        # tobytes also compares the signs of zeros
        assert regular_rep(G, sigma, a).tobytes() == loop_regular_rep(G, sigma, a).tobytes()


def test_regular_rep_evaluates_sigma_on_the_support_rows_only(s3, record_calls):
    a = delta(s3, 1) + delta(s3, 4, 2j)
    # a coboundary, also under a conjugate, is read through beta, once per element
    for sigma in (fixtures.random_coboundary(s3, 5),
                  ConjugateCocycle(fixtures.random_coboundary(s3, 5))):
        cob = getattr(sigma, "base", sigma)
        calls = record_calls(sigma, "pair_values")
        reads = record_calls(cob, "beta")
        regular_rep(s3, sigma, a)
        (xs, ys, _), = calls
        assert sorted(zip(xs.tolist(), ys.tolist())) == [(g, h) for g in (1, 4)
                                                         for h in s3.elements()]
        assert sorted(reads) == [(g,) for g in s3.elements()]


@pytest.mark.parametrize("case", FINITE_CASES, ids=lambda c: c[0])
def test_value_table_has_the_bits_of_evaluate(case):
    _, G, sigma = case
    elems = G.elements()
    ref = np.array([[evaluate(sigma, x, y) for y in elems] for x in elems], dtype=complex)
    for rows, want in ((None, ref), (elems[1::3], ref[1::3]), ([], ref[:0])):
        got = value_table(G, sigma, rows)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_trivial_value_table_evaluates_nothing(record_calls):
    G = fixtures.symmetric(3)
    sigma = TrivialCocycle(G)
    ref = np.array([[evaluate(sigma, x, y) for y in range(6)] for x in range(6)])
    decoded = record_calls(G, "words")
    assert value_table(G, sigma).tobytes() == ref.tobytes()
    assert value_table(G, sigma, [2, 5]).tobytes() == ref[[2, 5]].tobytes()
    assert decoded == []


def loop_transfer_check(G, S, sigmas, seed=0, n_random=50, tol=1e-9):
    """transfer_check as it was: one regular matrix and one norm per sample
    element and cocycle, by the pair loop."""
    S = sorted(set(S), key=lambda g: order_key(G, g))
    rng = np.random.default_rng(seed)
    sample = [AlgebraElement(G, {g: 1.0 for g in S})]
    sample.extend(delta(G, g) for g in S)
    for _ in range(n_random):
        sample.append(AlgebraElement(
            G, {g: complex(rng.standard_normal(), rng.standard_normal()) for g in S}))
    ratios = [[float(np.linalg.norm(loop_regular_rep(G, sigma, a), 2)) / l2_norm(a)
               for a in sample] for sigma in [TrivialCocycle(G), *sigmas]]
    C, *per_sigma = (max([0.0] + r) for r in ratios)
    return {"constant": C, "untwisted_ratios_max": C, "per_sigma_max_ratio": per_sigma,
            "passed": not any(w > C + tol for w in per_sigma), "sample_size": len(sample),
            "seed": seed, "tol": tol}


@pytest.mark.parametrize("case", [c for c in FINITE_CASES if c[0].startswith(("S3", "Q8/"))],
                         ids=lambda c: c[0])
def test_transfer_check_has_the_bits_of_the_loop(case):
    _, G, sigma = case
    elems = G.elements()
    S = [elems[1], elems[2], elems[-1]]
    sigmas = [sigma, ConjugateCocycle(sigma)]
    assert (transfer_check(G, S, sigmas, seed=3, n_random=20).to_json()
            == loop_transfer_check(G, S, sigmas, seed=3, n_random=20))


def test_transfer_check_keeps_its_recorded_report():
    # the benchmark's five cocycles on Z4 x Z4, as the pair loop reported them
    G = fixtures.cyclic_product([4, 4])
    S = [G.index_of_label(lab) for lab in [(1, 0), (0, 1), (1, 1)]]
    sigmas = [ProductCocycle([fixtures.random_bicharacter_table(G, [4, 4], i),
                              fixtures.random_coboundary(G, 10 + i)]) for i in range(5)]
    assert transfer_check(G, S, sigmas, seed=0).to_json() == {
        "constant": 1.7320508075688774, "untwisted_ratios_max": 1.7320508075688774,
        "per_sigma_max_ratio": [1.6840882401600559, 1.4960670961614715, 1.4969166992715304,
                                1.7114564575445776, 1.6818377430237226],
        "passed": True, "sample_size": 54, "seed": 0, "tol": 1e-09}


def test_haagerup_upper_is_at_least_the_exact_bound(f2, data_dir):
    # a = c e is the tight case, where the bound is |c|: rounded to nearest,
    # sqrt(|c|^2) was below |c| for about half of these c; in exact rationals
    # the value is now never below
    for re, im in np.random.default_rng(0).standard_normal((20000, 2)).tolist():
        upper = haagerup_upper(f2, delta(f2, (), complex(re, im)))
        assert Fraction(upper) ** 2 >= Fraction(re) ** 2 + Fraction(im) ** 2
    # on several spheres: at least the exact sum of the (n + 1) ||a_n||_2,
    # and within a few ulps of it
    ball = f2.enumerate_ball(4)
    for seed, k in enumerate((1, 5, 17, 60, len(ball))):
        a = fixtures.random_element(f2, ball[:k], seed)
        with mpmath.workdps(60):
            spheres = {}
            for g, c in a.coeffs.items():
                spheres[len(g)] = (spheres.get(len(g), 0)
                                   + mpmath.mpf(c.real) ** 2 + mpmath.mpf(c.imag) ** 2)
            exact = sum((n + 1) * mpmath.sqrt(t) for n, t in spheres.items())
            upper = haagerup_upper(f2, a)
            assert exact <= upper <= exact * (1 + 8 * 2.0 ** -53)
    # sphere-1 is exact: 2 (2 (1 + 1 + 1 + 1)^(1/2))
    sphere1 = serialize.element_from_json(
        serialize.load_json(data_dir / "element_f2_sphere1.json"), f2)
    assert haagerup_upper(f2, sphere1) == 4.0
    huge = serialize.element_from_json(
        serialize.load_json(data_dir / "element_f2_sphere1_huge.json"), f2)
    with pytest.raises(InvalidArgument, match="Haagerup bound overflows"):
        haagerup_upper(f2, huge)


def test_haagerup_bound_past_the_float_range_is_an_invalid_argument(f2):
    # each square is finite, their sum is not
    x, y = f2.generator(1), f2.generator(2)
    a = AlgebraElement(f2, {x: 1e154, f2.invert(x): 1e154, y: 1.0})
    with pytest.raises(InvalidArgument, match="Haagerup bound overflows"):
        haagerup_upper(f2, a)


def test_reports_serialize_the_fields_of_the_hand_written_dicts(f2):
    # each pair: a report and the dict its hand-written to_json used to build
    G, sigma = z2_sign()
    x, y = f2.generator(1), f2.generator(2)
    spectral = [l2_spectral_radius(delta(G, 0) + delta(G, 1), sigma, 4),
                l2_spectral_radius(AlgebraElement(f2, {x: 1.0, y: 1.0}), None, 3)]
    transfer = [transfer_check(G, [1], [sigma], seed=2, n_random=3)]
    certs = [certify_free_subsemigroup(f2, x, [y, f2.compose(y, y)], 3),
             certify_free_subsemigroup(f2, (), [x, f2.invert(x)], 2)]
    assert [c.certified for c in certs] == [True, False]
    pairs = [(r, {"r2_sequence": r.r2_sequence, "r2_at_max_power": r.r2_at_max_power,
                  "r_sigma": r.r_sigma, "normal": r.normal, "metadata": r.metadata})
             for r in spectral]
    pairs += [(r, {"constant": r.constant, "untwisted_ratios_max": r.untwisted_ratios_max,
                   "per_sigma_max_ratio": r.per_sigma_max_ratio, "passed": r.passed,
                   "sample_size": r.sample_size, "seed": r.seed, "tol": r.tol})
              for r in transfer]
    pairs += [(r, {"certified": r.certified, "length": r.length,
                   "products_checked": r.products_checked, "collision": r.collision})
              for r in certs]
    for rep, hand_written in pairs:
        assert rep.to_json() == hand_written
        assert json.dumps(rep.to_json()) == json.dumps(hand_written)


@pytest.mark.parametrize("fn", ["value_table", "regular_rep", "exact_norm", "exact_spectrum",
                                "transfer_check", "truncated_norm_lower",
                                "truncated_norm_lower_empty"])
def test_a_sigma_over_another_group_is_refused(fn):
    G, sigma = fixtures.symmetric(3), fixtures.random_coboundary(fixtures.dihedral(3), 2)
    a = delta(G, 1) + delta(G, 2)
    F2 = FreeGroup(2)
    sphere = AlgebraElement(F2, {g: 1.0 for g in F2.enumerate_ball(1)[1:]})
    call = {"value_table": lambda: value_table(G, sigma),
            "regular_rep": lambda: regular_rep(G, sigma, a),
            "exact_norm": lambda: exact_norm(G, sigma, a),
            "exact_spectrum": lambda: exact_spectrum(G, sigma, a),
            "transfer_check": lambda: transfer_check(G, [1, 2], [sigma]),
            "truncated_norm_lower": lambda: truncated_norm_lower(
                F2, fixtures.random_coboundary(FreeGroup(3), 1), sphere, 4),
            "truncated_norm_lower_empty": lambda: truncated_norm_lower(
                F2, fixtures.random_coboundary(FreeGroup(3), 1), AlgebraElement(F2, {}), 4)}[fn]
    with pytest.raises(BackendMismatch):
        call()


def criterion_f2_setup(seed=7919):
    """The F2 criterion configuration of the free-f2 benchmark: t = x, F =
    {xy, xy^2}, the seed + 1 coboundary, powers to 8 and radius 6."""
    G = FreeGroup(2)
    x, y = G.generator(1), G.generator(2)
    F = [G.compose(x, y), G.compose(x, G.compose(y, y))]
    return G, fixtures.random_coboundary(G, seed + 1), x, F, normspectra.CriterionConfig(
        seed=seed, max_power=8, radius=6)


@pytest.mark.parametrize("twist", ["coboundary", "trivial"])
def test_criterion_runs_no_normality_test_and_keeps_its_bytes(twist, monkeypatch):
    G, cob, t, F, cfg = criterion_f2_setup()
    sigma = cob if twist == "coboundary" else None
    want = json.dumps(normspectra.criterion_report(G, sigma, t, F, cfg))
    if twist == "coboundary":
        assert "untwisted_gauge_transport" in want

    def is_normal(*args, **kwargs):
        raise AssertionError("criterion_report ran is_normal")

    monkeypatch.setattr(normspectra, "is_normal", is_normal)
    monkeypatch.setattr(algebra, "is_normal", is_normal)
    assert json.dumps(normspectra.criterion_report(G, sigma, t, F, cfg)) == want


def test_criterion_power_chain_past_the_cap_is_refused_before_the_truncation(monkeypatch):
    # a^n has 2^n terms on the free subsemigroup: a^7 is past a cap of 100,
    # before the truncation of radius 8 is built
    G, cob, t, F, _ = criterion_f2_setup()

    def truncated_norm_lower(*args, **kwargs):
        raise AssertionError("the truncation ran")

    monkeypatch.setattr(normspectra, "truncated_norm_lower", truncated_norm_lower)
    cfg = normspectra.CriterionConfig(length=1, max_power=8, mem_cap=100)
    for sigma in (cob, None):
        with pytest.raises(MemoryBudgetExceeded) as exc:
            normspectra.criterion_report(G, sigma, t, F, cfg)
        assert (exc.value.needed, exc.value.cap) == (128, 100)
