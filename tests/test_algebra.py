import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_bits, evaluate, law
from twistlab import algebra, cocycles, fixtures, normspectra, serialize
from twistlab.algebra import AlgebraElement, convolve, delta, gauge, involute
from twistlab.cocycles import (BicharacterCocycle, ConjugateCocycle, ProductCocycle,
                               PullbackCocycle, TableCocycle, TrivialCocycle)
from twistlab.errors import BackendMismatch, InvalidArgument
from twistlab.groups import FreeGroup, IntLattice
from twistlab.normspectra import regular_rep


def naive_convolve(a, b, sigma):
    """Independent oracle: plain double loop over coefficient dicts."""
    G = a.group
    out = {}
    for x, ca in a.coeffs.items():
        for y, cb in b.coeffs.items():
            g = G.compose(x, y)
            out[g] = out.get(g, 0.0) + evaluate(sigma, x, y) * ca * cb
    return AlgebraElement(G, out)


def dict_convolve(a, b, sigma):
    """Bit-for-bit oracle for convolve on every backend: a loop over the
    terms, x-major, y in position order, adding sigma(x, y) a_x b_y as
    Python complex products into a dict from 0j."""
    G = a.group
    acc = {}
    bsupp = b.support()
    for x in a.support():
        for y in bsupp:
            g = law(G).compose(x, y)
            acc[g] = acc.get(g, 0.0 + 0.0j) + evaluate(sigma, x, y) * a.coeffs[x] * b.coeffs[y]
    return AlgebraElement(G, acc)


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
            expect = delta(s3, s3.compose(x, y), evaluate(sigma, x, y))
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


def test_a_second_is_normal_reads_beta_not_at_all(f2, record_calls):
    # involute reads sigma(g^-1, g) through pair_values, so the beta memo
    # serves it as it serves the two convolutions
    a = AlgebraElement(f2, {(1,): 1.0, (1, 2): 2j, (-2, -2, 1): 0.5 - 1j})
    cob = fixtures.random_coboundary(f2, 6)
    reads = record_calls(cob, "beta")
    assert algebra.is_normal(a, cob) is False
    supp = set(a.coeffs)
    inverses = {f2.invert(g) for g in supp}
    products = {f2.compose(x, y) for x in supp for y in inverses}
    products |= {f2.compose(y, x) for x in supp for y in inverses}
    assert len(reads) == len(set(reads))
    assert {g for g, in reads} == supp | inverses | products
    reads.clear()
    assert algebra.is_normal(a, cob) is False
    assert reads == []


@pytest.mark.parametrize("G", [fixtures.symmetric(3), fixtures.q8_extension()],
                         ids=["S3", "Q8-extension"])
def test_finite_convolve_and_involute_have_the_bits_of_the_pair_loop(G):
    cob = fixtures.random_coboundary(G, 2)
    # a table on S3, a quotient coboundary pulled back on the extension
    other = (PullbackCocycle(G, fixtures.random_coboundary(G.quotient, 4))
             if G.kind == "extension" else
             TableCocycle(G, cocycles.value_table(G, fixtures.random_coboundary(G, 3))))
    sigmas = [TrivialCocycle(G), cob, other, ProductCocycle([other, cob]), ConjugateCocycle(cob)]
    elems = G.elements()
    cases = [random_pair(G, seed) for seed in range(3)]
    # an empty factor, and a zero imaginary part of either sign
    cases += [(AlgebraElement(G, {}), delta(G, elems[1])),
              (AlgebraElement(G, {elems[0]: complex(-2.0, -0.0), elems[-1]: -1.0}), cases[0][0])]
    for sigma in sigmas:
        for a, b in cases:
            got, ref = convolve(a, b, sigma), dict_convolve(a, b, sigma)
            assert_same_bits(got, ref)
            assert list(got.coeffs) == got.support()
            inv = law(G).invert
            want = {inv(g): np.conj(evaluate(sigma, inv(g), g)) * np.conj(c)
                    for g, c in a.coeffs.items()}
            assert_same_bits(involute(a, sigma), AlgebraElement(G, want))


def test_lattice_convolve_and_involute_far_from_the_origin_list_no_ball(record_calls):
    # lattice positions are counted in closed form: a term at (200, 0, 0),
    # whose ball holds about 10^7 points, lists no ball
    G = IntLattice(3)
    sigma = BicharacterCocycle(G, [[0.0, 1 / 3, 0.25], [0.0, 0.0, 1 / 7], [0.5, 0.0, 0.0]])
    a = AlgebraElement(G, {(200, 0, 0): 1.0, (0, -1, 3): 2j, (1, 1, 1): -0.5})
    b = AlgebraElement(G, {(0, 0, -150): 1 - 1j, (-1, 0, 0): 0.25, (0, 0, 0): 3.0})
    balls = record_calls(G, "enumerate_ball")
    for x, y in ((a, b), (b, a), (a, a)):
        got, ref = convolve(x, y, sigma), dict_convolve(x, y, sigma)
        assert_same_bits(got, ref)
        assert list(got.coeffs) == got.support()
    want = {G.invert(g): np.conj(evaluate(sigma, G.invert(g), g)) * np.conj(c)
            for g, c in a.coeffs.items()}
    assert_same_bits(involute(a, sigma), AlgebraElement(G, want))
    assert algebra.is_normal(a, sigma) is False
    assert len(normspectra.l2_spectral_radius(a, sigma, 2).r2_sequence) == 2
    assert balls == []


def test_lattice_positions_past_int64_run_on_python_ints():
    # the ball around (10^7, 0, 0) holds about 1.3 10^21 points, so its
    # position is a Python int in an object array
    G = IntLattice(3)
    sigma = BicharacterCocycle(G, [[0.0, 1 / 3, 0.25], [0.0, 0.0, 1 / 7], [0.5, 0.0, 0.0]])
    far = (10**7, 0, 0)
    assert G.positions([far]).dtype == object
    a = AlgebraElement(G, {far: 1.0, (0, 1, 0): 2j, (0, 0, 0): 0.5})
    b = AlgebraElement(G, {(-1, 0, 0): 1 - 1j, (0, 0, -1): 0.25, far: -0.5j})
    for x, y in ((a, b), (b, a), (a, a)):
        got, ref = convolve(x, y, sigma), dict_convolve(x, y, sigma)
        assert_same_bits(got, ref)
        assert list(got.coeffs) == got.support()
    assert (normspectra.l2_spectral_radius(a, sigma, 4).r2_sequence
            == dict_r2_sequence(a, sigma, 4))


def test_serialization_roundtrip_exact(s3, f2):
    for G, seed in [(s3, 0), (f2, 1)]:
        a, _ = random_pair(G, seed)
        back = serialize.element_from_json(a.to_json())
        assert_same_bits(back, a)


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


# --- the term engine against the dict loop --------------------------------

def dict_r2_sequence(a, sigma, N):
    """l2_spectral_radius's sequence from dict_convolve powers."""
    seq, p = [], a
    for n in range(1, N + 1):
        if n > 1:
            p = dict_convolve(p, a, sigma)
        l2 = float(np.sqrt(sum(abs(p.coeffs[g]) ** 2 for g in p.support())))
        seq.append(float(l2 ** (1.0 / n)))
    return seq


FREE_RANKS = (1, 2, 3)


def free_cocycles(G):
    cob = fixtures.random_coboundary(G, 11)
    return {"trivial": TrivialCocycle(G), "coboundary": cob,
            "product": ProductCocycle([cob, fixtures.random_coboundary(G, 12)]),
            "conjugate": ConjugateCocycle(cob)}


def random_free_element(G, seed, size=5, radius=4):
    rng = np.random.default_rng(seed)
    ball = G.enumerate_ball(radius)
    pick = rng.choice(len(ball), size=min(size, len(ball)), replace=False)
    return AlgebraElement(G, {ball[i]: complex(*rng.standard_normal(2)) for i in pick})


@pytest.mark.parametrize("rank", FREE_RANKS)
@pytest.mark.parametrize("kind", ["trivial", "coboundary", "product", "conjugate"])
def test_free_convolve_equals_the_dict_loop(rank, kind):
    G = FreeGroup(rank)
    sigma = free_cocycles(G)[kind]
    x, xi = G.generator(1), G.invert(G.generator(1))
    cases = [(random_free_element(G, s), random_free_element(G, s + 50)) for s in range(4)]
    cases += [
        # the identity in both supports, and (e + x)(e - x^-1), whose e term
        # cancels exactly under the trivial cocycle
        (AlgebraElement(G, {(): 1.0, x: 1.0}), AlgebraElement(G, {(): 1.0, xi: -1.0})),
        (AlgebraElement(G, {(): 2.5j}), random_free_element(G, 7)),
        (AlgebraElement(G, {}), random_free_element(G, 8)),
        (random_free_element(G, 9), AlgebraElement(G, {})),
    ]
    for a, b in cases:
        got, ref = convolve(a, b, sigma), dict_convolve(a, b, sigma)
        assert_same_bits(got, ref)
        assert list(got.coeffs) == got.support()
    if kind == "trivial":
        a, b = cases[4]
        assert () not in convolve(a, b, sigma).coeffs


def assert_powers_match_the_dict_loop(a, sigma, N=4):
    """algebra.power and l2_spectral_radius's sequence against dict_convolve
    powers, bit for bit."""
    ref = a
    for n in range(2, N + 1):
        ref = dict_convolve(ref, a, sigma)
        got = algebra.power(a, n, sigma)
        assert_same_bits(got, ref)
        assert list(got.coeffs) == got.support()
    assert (normspectra.l2_spectral_radius(a, sigma, N).r2_sequence
            == dict_r2_sequence(a, sigma, N))


@pytest.mark.parametrize("rank", FREE_RANKS)
@pytest.mark.parametrize("kind", ["trivial", "coboundary", "product", "conjugate"])
def test_free_powers_equal_the_dict_loop(rank, kind):
    G = FreeGroup(rank)
    assert_powers_match_the_dict_loop(random_free_element(G, rank, size=3, radius=2),
                                      free_cocycles(G)[kind])


def finite_and_lattice_cocycles(G):
    """Cocycles of each kind on S3, the Q8 extension or Z^2."""
    cob = fixtures.random_coboundary(G, 11)
    if G.kind == "int-lattice":
        other = BicharacterCocycle(G, [[0, 1 / 3], [0, 0]])
    elif G.kind == "extension":
        other = PullbackCocycle(G, fixtures.random_coboundary(G.quotient, 4))
    else:
        other = TableCocycle(G, cocycles.value_table(G, fixtures.random_coboundary(G, 3)))
    return [TrivialCocycle(G), cob, other, ProductCocycle([other, cob]), ConjugateCocycle(other)]


@pytest.mark.parametrize("G", [fixtures.symmetric(3), fixtures.q8_extension(), IntLattice(2)],
                         ids=["S3", "Q8-extension", "Z2"])
def test_powers_equal_the_dict_loop_on_finite_groups_and_lattices(G):
    elems = G.elements() if G.is_finite else G.enumerate_ball(2)
    cases = [random_pair(G, seed, size=3)[0] for seed in range(2)]
    cases += [AlgebraElement(G, {elems[0]: complex(-2.0, -0.0), elems[-1]: 0.5j})]
    if G.kind == "finite-table":
        # e + i s for an involution s: the e terms of a^2, 1 and i^2 = -1,
        # cancel exactly under the trivial cocycle, and e is dropped
        s = next(g for g in elems[1:] if G.compose(g, g) == 0)
        cases.append(AlgebraElement(G, {0: 1.0, s: 1j}))
        assert_same_bits(algebra.power(cases[-1], 2), AlgebraElement(G, {s: 2j}))
    for sigma in finite_and_lattice_cocycles(G):
        for a in cases:
            assert_powers_match_the_dict_loop(a, sigma)


@pytest.mark.parametrize("G", [FreeGroup(2), fixtures.symmetric(3), fixtures.q8_extension(),
                               IntLattice(2)], ids=["F2", "S3", "Q8-extension", "Z2"])
def test_the_trivial_twist_keeps_the_bits_of_the_pair_loop_with_signed_zeros(G):
    # the engine multiplies by no sigma under the trivial twist, where the
    # pair loop multiplies by 1 + 0j, which can flip the sign of a zero part;
    # coefficients with zero parts of either sign, and parts 1 and -1 whose
    # products cancel, test that every sum still has the loop's bits
    elems = G.elements() if G.is_finite else G.enumerate_ball(2)
    rng = np.random.default_rng(len(elems))
    parts = (0.0, -0.0, 1.0, -1.0, 1.5)

    def signed(size):
        pick = rng.choice(len(elems), size=min(size, len(elems)), replace=False)
        return AlgebraElement(G, {elems[i]: complex(*rng.choice(parts, 2)) for i in pick})

    cases = [(signed(5), signed(5)) for _ in range(6)]
    cases.append((AlgebraElement(G, {elems[0]: complex(1.0, -0.0), elems[1]: complex(-0.0, -1.0)}),
                  AlgebraElement(G, {elems[0]: complex(-0.0, 1.0), elems[-1]: complex(1.0, -0.0)})))
    trivial = TrivialCocycle(G)
    for sigma in (None, trivial):
        for a, b in cases:
            assert_same_bits(convolve(a, b, sigma), dict_convolve(a, b, trivial))
            ref = a
            for n in range(2, 5):
                ref = dict_convolve(ref, a, trivial)
                assert_same_bits(algebra.power(a, n, sigma), ref)
            assert (normspectra.l2_spectral_radius(a, sigma, 4).r2_sequence
                    == dict_r2_sequence(a, trivial, 4))


def test_free_pair_values_equal_evaluate():
    for rank in FREE_RANKS:
        G = FreeGroup(rank)
        ball = G.enumerate_ball(3)
        pos = G.positions(ball)
        xs, ys = np.meshgrid(np.arange(len(ball)), np.arange(len(ball)), indexing="ij")
        xs, ys = xs.ravel(), ys.ravel()
        xys = G.positions([G.compose(ball[i], ball[j]) for i, j in zip(xs, ys)])
        for sigma in free_cocycles(G).values():
            got = sigma.pair_values(pos[xs], pos[ys], xys)
            ref = [evaluate(sigma, ball[i], ball[j]) for i, j in zip(xs, ys)]
            assert got.tolist() == ref


@pytest.mark.parametrize("rank", FREE_RANKS)
def test_positions_round_trip_on_b6(rank):
    G = FreeGroup(rank)
    ball = G.enumerate_ball(6)
    pos = G.positions(ball)
    assert pos.dtype == np.int64
    assert (np.diff(pos) > 0).all()
    assert G.words(pos) == ball
    assert G.words(pos[::-1]) == ball[::-1]


@pytest.mark.parametrize("rank", FREE_RANKS)
def test_right_multiplication_matches_compose(rank):
    G = FreeGroup(rank)
    ball = G.enumerate_ball(5)
    pos = G.positions(ball)
    ws = G.enumerate_ball(3)
    got = G.products(pos[:, None], G.positions(ws))
    assert got.shape == (len(ball), len(ws))
    for j, w in enumerate(ws):
        assert G.words(got[:, j]) == [G.compose(x, w) for x in ball]
    for s in (1, -1, rank, -rank):
        # a length-1 word times its inverse lands on the identity, position 0
        one = G.positions([(s,)])
        assert G.products(one[:, None], G.positions([(-s,)])).tolist() == [[0]]
        assert G.products(one[:, None], one).tolist() == G.positions([(s, s)])[:, None].tolist()
    assert G.products(np.zeros((0, 1), dtype=np.int64), G.positions(ws)).shape == (0, len(ws))


def test_free_words_past_int64_positions_run_on_python_ints(f2):
    # |B_40| on F2 is past 2^63: such positions are exact Python ints
    long = (1, 2) * 20
    pos = f2.positions([long, (1,) * 39])
    assert pos.dtype == object and f2.words(pos) == [long, (1,) * 39]
    for row, x in zip(f2.products(pos[:, None], f2.positions([(-2,), (1,)])), (long, (1,) * 39)):
        assert f2.words(row) == [x[:-1] if x == long else x + (-2,), x + (1,)]
    sigma = fixtures.random_coboundary(f2, 3)
    a = AlgebraElement(f2, {long: 1.5, (1,) * 39: -0.5j, (): 2.0})
    b = AlgebraElement(f2, {(-2, -1): 1.0, (1,) * 3: 0.25})
    assert_same_bits(convolve(a, b, sigma), dict_convolve(a, b, sigma))
    ux = AlgebraElement(f2, {(1,): 1.0, (-1,): 1.0})
    assert (normspectra.l2_spectral_radius(ux, None, 44).r2_sequence
            == dict_r2_sequence(ux, TrivialCocycle(f2), 44))


# values of the dict-loop implementation these paths replaced
SPHERE1_R2_N10 = [2.0, 2.3003266337912063, 2.478837157090335, 2.6005799507854426,
                  2.6903369142895732, 2.7599517422166637, 2.815910429192967,
                  2.862107472209264, 2.901042912952502, 2.9344054091897096]
X_PLUS_XINV_R2_N24 = [
    1.4142135623730951, 1.5650845800732873, 1.6475489724420658, 1.7007373720004737,
    1.7383613363123431, 1.7666044941912076, 1.7887065254921728, 1.8065444805181703,
    1.8212879263456108, 1.8337069353546647, 1.844331019923307, 1.8535372680953086,
    1.861602104797792, 1.8687331508461194, 1.8750896145462919, 1.880795783495311,
    1.8859502090780018, 1.8906321153565555, 1.894905969231849, 1.8988248025462693,
    1.9024326685971022, 1.9057664866578934, 1.9088574462609154, 1.9117320898055958]


def test_free_r2_sequences_keep_their_recorded_bits(f2):
    x, y = f2.generator(1), f2.generator(2)
    sphere1 = AlgebraElement(f2, {x: 1.0, f2.invert(x): 1.0, y: 1.0, f2.invert(y): 1.0})
    ux = AlgebraElement(f2, {x: 1.0, f2.invert(x): 1.0})
    assert normspectra.l2_spectral_radius(sphere1, None, 10).r2_sequence == SPHERE1_R2_N10
    assert normspectra.l2_spectral_radius(ux, None, 24).r2_sequence == X_PLUS_XINV_R2_N24


# (|supp a^n|, ||a^n||_2) for x + x^-1 under the seed-1 coboundary, recorded
# from the dense-rank positions these numerals replaced; from n = 28 on the
# positions pass F2's int64 limit and run on Python ints
X_PLUS_XINV_COBOUNDARY_NORMS_N30 = [
    (2, 1.4142135623730951), (3, 2.449489742783178), (4, 4.472135954999579),
    (5, 8.366600265340752), (6, 15.874507866387535), (7, 30.39736830714131),
    (8, 58.583274063507204), (9, 113.44602240713415), (10, 220.49943310584706),
    (11, 429.8325255259305), (12, 839.8999940469097), (13, 1644.4318167683314),
    (14, 3224.9961240286752), (15, 6333.766651843113), (16, 12454.618420489633),
    (17, 24516.94087768698), (18, 48307.41371673705), (19, 95263.50455447237),
    (20, 188003.36114016664), (21, 371276.88969285396), (22, 733660.598942044),
    (23, 1450551.2620104104), (24, 2869395.533487842), (25, 5678697.357942216),
    (26, 11243247.1482998), (27, 22269228.38690426), (28, 44124136.542805076),
    (29, 87456792.76511583), (30, 173399153.68749908), (31, 343896178.4679513)]


def test_free_power_norms_across_the_int64_limit_keep_their_bits(f2):
    ux = AlgebraElement(f2, {(1,): 1.0, (-1,): 1.0})
    sigma = fixtures.random_coboundary(f2, 1)
    assert list(algebra.power_norms(ux, 30, sigma)) == X_PLUS_XINV_COBOUNDARY_NORMS_N30


def test_free_l2_squares_round_as_python_does(f2):
    # h * h and Python's h ** 2 (libm pow) differ in the last bit for about
    # one h in 1200; an element made of such h tells the two apart
    rng = np.random.default_rng(5)
    hs = [h for h in rng.standard_normal(400_000).tolist() if h ** 2 != h * h][:200]
    if len(hs) < 200:
        pytest.skip("this libm's pow(h, 2) rounds like h * h")
    a = AlgebraElement(f2, dict(zip(f2.enumerate_ball(5), hs)))
    ref = float(np.sqrt(sum(abs(a.coeffs[g]) ** 2 for g in a.support())))
    assert next(algebra.power_norms(a, 1))[1] == algebra.l2_norm(a) == ref
    assert ref != float(np.sqrt(sum(abs(a.coeffs[g]) * abs(a.coeffs[g]) for g in a.support())))


def test_convolve_overflow_is_an_invalid_argument_without_a_warning(f2):
    # 1e200 * 1e200 is past the float range on a free group, a finite
    # extension and a lattice alike; 1.5e308 + 1.5e308j is finite, though its
    # modulus is not, and is kept as a term
    for G in (f2, fixtures.q8_extension(), IntLattice(2)):
        x, y = G.enumerate_ball(1)[1:3]
        a = AlgebraElement(G, {x: 1e200, y: 1e200j})
        big, tilt = (algebra._terms(delta(G, G.identity(), c)) for c in (1.5e308, 1 + 1j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgument, match="a coefficient of the product overflows"):
                convolve(a, a)
            _, re, im = algebra._convolve_terms(G, TrivialCocycle(G), big, tilt)
        assert (re.tolist(), im.tolist()) == ([1.5e308], [1.5e308])


def test_a_coefficient_whose_modulus_overflows_is_an_invalid_argument(f2):
    # 1.5e308 + 1.5e308j has finite parts and an infinite modulus: given so,
    # or formed as the one term of a product, on a free group, a finite
    # extension and a lattice alike
    for G in (f2, fixtures.q8_extension(), IntLattice(2)):
        x, y = G.enumerate_ball(1)[1:3]
        with pytest.raises(InvalidArgument, match="the modulus of a coefficient overflows"):
            AlgebraElement(G, {x: complex(1.5e308, 1.5e308)})
        a, b = AlgebraElement(G, {x: 1.5e154 + 1.5e154j}), AlgebraElement(G, {y: 1e154})
        with pytest.raises(InvalidArgument, match="the modulus of a coefficient overflows"):
            convolve(a, b)
