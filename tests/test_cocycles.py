import cmath
import functools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LengthPhase, PairLaw, assert_same_bits, evaluate
from twistlab import algebra, cocycles, fixtures, normspectra
from twistlab.algebra import AlgebraElement, delta
from twistlab.cocycles import (BicharacterCocycle, CoboundaryCocycle, ConjugateCocycle,
                               ProductCocycle, TableCocycle, TrivialCocycle)
from twistlab.errors import InvalidArgument, NotUnitModulus
from twistlab.groups import FreeGroup, IntLattice


def test_complex_mul_rounds_as_python_does():
    # signed zeros, parts near 1e300 (whose products overflow) and
    # subnormals, each pair multiplied by Python and by complex_mul
    parts = [0.0, -0.0, 1.0, -1.5, 0.1, 1e300, -3e299, 1e-300, 5e-324, -2.5e-320]
    z = [complex(re, im) for re in parts for im in parts]
    a, b = np.array(z)[:, None], np.array(z)[None, :]
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        got = cocycles.complex_mul(a, b)
    want = np.array([[x * y for y in z] for x in z])
    assert got.shape == want.shape == (100, 100)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_trivial_validates(s3):
    rep = cocycles.validate(s3, TrivialCocycle(s3))
    assert rep.passed
    assert rep.max_identity_residual == 0.0


def test_clock_shift_validates_exactly():
    for n in (2, 3, 5):
        sigma = fixtures.clock_shift_cocycle(n)
        rep = cocycles.validate(sigma.group, sigma)
        assert rep.passed, (n, rep.witnesses)


def test_broken_table_fails_with_witness(s3):
    vals = np.exp(2j * np.pi * np.arange(36).reshape(6, 6) / 7.0)
    rep = cocycles.validate(s3, TableCocycle(s3, vals))
    assert not rep.passed
    assert rep.witnesses
    w = rep.witnesses[0]
    x, y, z = w["triple"]
    sigma = TableCocycle(s3, vals)
    lhs = evaluate(sigma, x, y) * evaluate(sigma, s3.compose(x, y), z)
    rhs = evaluate(sigma, x, s3.compose(y, z)) * evaluate(sigma, y, z)
    assert abs(lhs - rhs) == pytest.approx(w["residual"])
    assert w["residual"] > 1e-6


def test_broken_table_past_order_90_matches_the_whole_cube():
    # S5 has order 120, so validate slabs over one x and a block of 68 y;
    # a coboundary table with three pairs perturbed breaks the identity on
    # triples spread over both y blocks
    G = fixtures.symmetric(5)
    n = G.order
    vals = cocycles.value_table(G, fixtures.random_coboundary(G, 1))
    for x, y in ((3, 5), (70, 110), (100, 90)):
        vals[x, y] *= np.exp(0.25j * (x + 1))
    sigma = TableCocycle(G, vals)
    rep = cocycles.validate(G, sigma)
    # brute force: every triple at once, with the same rounding
    T, S = G.multiplication_table(), cocycles.value_table(G, sigma)
    lr, li = cocycles.complex_product(S.real[:, :, None], S.imag[:, :, None],
                                      S.real[T], S.imag[T])
    rr, ri = cocycles.complex_product(S.real[:, T], S.imag[:, T], S.real, S.imag)
    r = np.hypot(lr - rr, li - ri)
    assert not rep.passed and rep.checked_triples == n ** 3
    assert rep.max_identity_residual == float(r.max())
    elems = G.elements()
    want = [{"triple": [G.element_to_json(elems[j]) for j in t], "residual": float(r[tuple(t)])}
            for t in np.argwhere(r > cocycles.IDENTITY_TOL)[:10]]
    assert rep.witnesses == want
    assert len({w["triple"][1] for w in want}) > 1


def test_table_auto_normalized(s3):
    vals = np.full((6, 6), -1.0, dtype=complex)
    sigma = TableCocycle(s3, vals)
    assert evaluate(sigma, 0, 3) == 1.0
    assert evaluate(sigma, 3, 0) == 1.0


def test_table_cocycle_leaves_the_callers_array_alone():
    Z3 = fixtures.cyclic(3)
    v = np.ones((3, 3), dtype=complex)
    v[0, 1], v[2, 0] = 1j, -1
    before = v.copy()
    sigma = TableCocycle(Z3, v)
    assert sigma.values[0, 1] == 1 and sigma.values[2, 0] == 1
    assert np.array_equal(v, before) and not np.shares_memory(sigma.values, v)


def test_non_unit_modulus_flagged_by_validate(s3):
    vals = np.ones((6, 6), dtype=complex)
    vals[2, 3] = 0.5
    rep = cocycles.validate(s3, TableCocycle(s3, vals))
    assert not rep.passed
    assert rep.max_modulus_residual == pytest.approx(0.5)


def test_coboundary_validates_everywhere(s3, q8, f2):
    for G in (s3, q8):
        sigma = fixtures.random_coboundary(G, seed=11)
        assert cocycles.validate(G, sigma).passed
    sigma = fixtures.random_coboundary(f2, seed=11)
    rep = cocycles.validate(f2, sigma, sampled_triples=2000)
    assert rep.passed


def test_beta_must_fix_identity(s3):
    beta = {g: 1.0 for g in s3.elements()}
    beta[0] = 1j
    with pytest.raises(NotUnitModulus):
        CoboundaryCocycle(s3, beta)


def test_bicharacter_on_lattice():
    z2 = IntLattice(2)
    theta = np.array([[0.0, 0.25], [0.0, 0.0]])
    sigma = BicharacterCocycle(z2, theta)
    xs, ys = z2.positions([(0, 1), (1, 0)]), z2.positions([(1, 0), (0, 1)])
    assert np.allclose(sigma.pair_values(xs, ys, z2.products(xs, ys)), [1.0, 1j])
    assert cocycles.validate(z2, sigma, sampled_triples=500).passed


@pytest.mark.parametrize("d, r", [(1, 6), (2, 6), (3, 3), (4, 2)])
def test_bicharacter_pair_values_have_the_bits_of_the_fixed_order_sum(d, r):
    # every pair of the radius-r ball under a seeded random Theta: the
    # exponent is summed in the reference's order, with no BLAS kernel
    G = IntLattice(d)
    sigma = BicharacterCocycle(G, np.random.default_rng(d).random((d, d)))
    ball = G.enumerate_ball(r)
    pairs = [(x, y) for x in ball for y in ball]
    got = sigma.pair_values(*_pair_positions(G, pairs))
    assert got.tobytes() == _evaluated(sigma, pairs).tobytes()


def test_product_and_conjugate(s3):
    a = fixtures.random_coboundary(s3, seed=1)
    b = fixtures.random_coboundary(s3, seed=2)
    prod = ProductCocycle([a, b])
    conj = ConjugateCocycle(a)
    A, B = cocycles.value_table(s3, a), cocycles.value_table(s3, b)
    assert np.allclose(cocycles.value_table(s3, prod), A * B)
    assert np.allclose(cocycles.value_table(s3, conj) * A, 1.0)
    assert cocycles.validate(s3, prod).passed


def test_pullback_from_quotient():
    ext = fixtures.q8_extension()
    qsigma = fixtures.random_coboundary(ext.quotient, seed=3)
    sigma = cocycles.PullbackCocycle(ext, qsigma)
    rep = cocycles.validate(ext, sigma)
    assert rep.passed
    # each element's row and column are its image's in the quotient's table
    h = np.array([PairLaw(ext).pair(g)[1] for g in ext.elements()])
    Q = cocycles.value_table(ext.quotient, qsigma)
    assert np.array_equal(cocycles.value_table(ext, sigma), Q[h[:, None], h])


def test_random_abelian_cocycle_validates():
    G = fixtures.cyclic_product([4, 4])
    for seed in range(5):
        sigma = fixtures.random_cocycle_abelian(G, [4, 4], seed)
        assert cocycles.validate(G, sigma).passed, seed


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_coboundary_identity_is_exactly_cocycle(seed):
    G = fixtures.symmetric(3)
    sigma = fixtures.random_coboundary(G, seed)
    els = G.elements()
    for x in els[:4]:
        for y in els[2:]:
            for z in els[::2]:
                lhs = evaluate(sigma, x, y) * evaluate(sigma, G.compose(x, y), z)
                rhs = evaluate(sigma, x, G.compose(y, z)) * evaluate(sigma, y, z)
                assert abs(lhs - rhs) <= 1e-12


def test_json_roundtrip(s3):
    from twistlab import serialize
    sigma = fixtures.random_coboundary(s3, seed=9)
    back = serialize.cocycle_from_json(sigma.to_json(), s3)
    for x in s3.elements():
        for y in s3.elements():
            assert evaluate(back, x, y) == evaluate(sigma, x, y)
    prod = ProductCocycle([sigma, TrivialCocycle(s3)])
    back2 = serialize.cocycle_from_json(prod.to_json(), s3)
    assert np.isclose(evaluate(back2, 3, 4), evaluate(prod, 3, 4))


def _triple_loop(G, sigma, tol=cocycles.IDENTITY_TOL):
    """validate's finite-group residuals and witnesses, one triple at a time."""
    els = G.elements()
    e = G.identity()
    ev = functools.partial(evaluate, sigma)
    mod = max(abs(abs(ev(x, y)) - 1.0) for x in els for y in els)
    norm = max(max(abs(ev(e, g) - 1.0), abs(ev(g, e) - 1.0)) for g in els)
    ident, witnesses = 0.0, []
    for x in els:
        for y in els:
            for z in els:
                r = abs(ev(x, y) * ev(G.compose(x, y), z) - ev(x, G.compose(y, z)) * ev(y, z))
                ident = max(ident, r)
                if r > tol and len(witnesses) < 10:
                    witnesses.append(([G.element_to_json(a) for a in (x, y, z)], r))
    return mod, norm, ident, witnesses


@pytest.mark.parametrize("case", ["S3", "Q8", "clock6", "broken"])
def test_table_validation_matches_a_triple_loop(case):
    s3, clock6 = fixtures.symmetric(3), fixtures.clock_shift_cocycle(6)
    G, sigma = {
        "S3": (s3, fixtures.random_coboundary(s3, seed=21)),
        "Q8": (fixtures.quaternion(), fixtures.random_coboundary(fixtures.quaternion(), seed=21)),
        "clock6": (clock6.group, clock6),
        "broken": (s3, TableCocycle(s3, np.exp(2j * np.pi * np.arange(36).reshape(6, 6) / 7.0))),
    }[case]
    rep = cocycles.validate(G, sigma)
    mod, norm, ident, witnesses = _triple_loop(G, sigma)
    assert rep.exhaustive and rep.checked_triples == G.order ** 3
    assert abs(rep.max_modulus_residual - mod) <= 1e-15
    assert abs(rep.max_normalization_residual - norm) <= 1e-15
    assert abs(rep.max_identity_residual - ident) <= 1e-15
    assert [w["triple"] for w in rep.witnesses] == [t for t, _ in witnesses]
    assert all(abs(w["residual"] - r) <= 1e-15 for w, (_, r) in zip(rep.witnesses, witnesses))
    assert rep.passed is (case != "broken")
    assert len(rep.witnesses) == (10 if case == "broken" else 0)


def test_sampled_validation_refuses_a_sample_ball_past_the_cap():
    from twistlab.errors import MemoryBudgetExceeded
    from twistlab.groups import FreeGroup

    G = FreeGroup(7)  # |B_6| = 5,631,277
    with pytest.raises(MemoryBudgetExceeded) as exc:
        cocycles.validate(G, TrivialCocycle(G))
    assert exc.value.needed == G.ball_size(cocycles.SAMPLE_RADIUS) == 5_631_277


def _validation_reports(s3, f2):
    broken = np.exp(2j * np.pi * np.arange(36).reshape(6, 6) / 7.0)
    bad_f2 = LengthPhase(f2)
    return [cocycles.validate(s3, TrivialCocycle(s3)),
            cocycles.validate(s3, TableCocycle(s3, broken)),
            cocycles.validate(f2, fixtures.random_coboundary(f2, seed=3), sampled_triples=200),
            cocycles.validate(f2, bad_f2, sampled_triples=200)]


def test_validation_report_serializes_the_fields_of_the_hand_written_dict(s3, f2):
    reps = _validation_reports(s3, f2)
    assert [r.passed for r in reps] == [True, False, True, False]
    for rep in reps:
        hand_written = {
            "passed": rep.passed,
            "max_modulus_residual": rep.max_modulus_residual,
            "max_normalization_residual": rep.max_normalization_residual,
            "max_identity_residual": rep.max_identity_residual,
            "checked_triples": rep.checked_triples,
            "exhaustive": rep.exhaustive,
            "witnesses": rep.witnesses[:10],
        }
        assert rep.to_json() == hand_written
        assert json.dumps(rep.to_json()) == json.dumps(hand_written)


def test_both_validate_paths_stop_at_ten_witnesses(s3, f2):
    _, table, _, sampled = _validation_reports(s3, f2)
    assert len(table.witnesses) == len(sampled.witnesses) == 10


def _sampled_loop(G, sigma, sampled_triples, seed, tol=cocycles.IDENTITY_TOL):
    """validate's sampled report on an infinite group, one pair at a time
    through the reference evaluate over the listed radius-6 ball."""
    e = G.identity()
    witnesses = []
    pool = G.enumerate_ball(cocycles.SAMPLE_RADIUS)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(pool), size=(sampled_triples, 3))
    norm_res = mod_res = id_res = 0.0
    for g in pool:
        norm_res = max(norm_res,
                       abs(evaluate(sigma, e, g) - 1.0),
                       abs(evaluate(sigma, g, e) - 1.0))
        mod_res = max(mod_res, abs(abs(evaluate(sigma, g, g)) - 1.0))

    for i, j, k in idx:
        x, y, z = pool[i], pool[j], pool[k]
        sxy = evaluate(sigma, x, y)
        syz = evaluate(sigma, y, z)
        mod_res = max(mod_res, abs(abs(sxy) - 1.0))
        lhs = sxy * evaluate(sigma, G.compose(x, y), z)
        rhs = evaluate(sigma, x, G.compose(y, z)) * syz
        r = abs(lhs - rhs)
        if r > id_res:
            id_res = r
        if r > tol and len(witnesses) < 10:
            witnesses.append({
                "triple": [G.element_to_json(x), G.element_to_json(y), G.element_to_json(z)],
                "residual": r,
            })

    passed = mod_res <= tol and norm_res <= tol and id_res <= tol
    return cocycles.ValidationReport(passed, mod_res, norm_res, id_res, sampled_triples, False,
                                     witnesses)


def _sampled_cases(G, beta_of):
    cob = CoboundaryCocycle(G, beta_of(G, 4))
    return {"coboundary": CoboundaryCocycle(G, beta_of(G, 9)),
            "conjugate-product": ConjugateCocycle(ProductCocycle([cob, cob])),
            "length-phase": LengthPhase(G)}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("case", ["coboundary", "conjugate-product", "length-phase"])
def test_sampled_validate_has_the_bytes_of_the_triple_loop(k, case):
    # slabs hold 8192 triples, so 8191 and 8193 sit on either side of the
    # first slab edge; the length phase fails and gives 10 witnesses in order
    G = FreeGroup(k)
    sigma = _sampled_cases(G, fixtures.random_beta)[case]
    # the oracle hashes each beta once, through a cache of its own
    ref = _sampled_cases(G, lambda G, seed: functools.cache(fixtures.random_beta(G, seed)))[case]
    for n in (1, 8191, 8193, 20000):
        rep = cocycles.validate(G, sigma, sampled_triples=n, seed=k)
        assert json.dumps(rep.to_json()) == json.dumps(_sampled_loop(G, ref, n, k).to_json())
        if n > 1:
            assert len(rep.witnesses) == (10 if case == "length-phase" else 0)


def test_sampled_validate_on_a_lattice_has_the_bytes_of_the_triple_loop():
    z2 = IntLattice(2)
    sigma = BicharacterCocycle(z2, [[0, 1 / 3], [0, 0]])
    rep = cocycles.validate(z2, sigma, sampled_triples=8193, seed=1)
    assert json.dumps(rep.to_json()) == json.dumps(_sampled_loop(z2, sigma, 8193, 1).to_json())


def _pair_positions(G, pairs):
    xs, ys = zip(*pairs)
    return (G.positions(xs), G.positions(ys),
            G.positions([G.compose(x, y) for x, y in pairs]))


def _evaluated(sigma, pairs):
    return np.array([evaluate(sigma, x, y) for x, y in pairs], dtype=complex)


@pytest.mark.parametrize("G", [FreeGroup(1), FreeGroup(2), FreeGroup(3), fixtures.symmetric(3)],
                         ids=["F1", "F2", "F3", "S3"])
def test_coboundary_pair_values_have_the_bits_of_evaluate_cold_warm_and_partly_warm(
        G, record_calls):
    rng = np.random.default_rng(5)
    pool = G.elements() if G.is_finite else G.enumerate_ball(3)
    if G.describe() == {"kind": "free", "rank": 2}:
        # words of 28 to 32 letters: their positions, and those of their
        # products, are Python ints past int64
        pool += [(1, 2) * 14, (-2, 1) * 14 + (1,), (1,) * 30, (2, -1) * 15 + (2,), (-1, -2) * 16]
    # shuffled, with repeated pairs and repeated positions within a call
    pairs = [(pool[i], pool[j]) for i, j in rng.integers(0, len(pool), size=(300, 2))]
    sigma, ref = fixtures.random_coboundary(G, 8), fixtures.random_coboundary(G, 8)
    reads, seen = record_calls(sigma, "beta"), set()
    # cold, partly warm, warm, partly warm in reverse order
    for chunk in (pairs[:100], pairs[50:200], pairs[:100], pairs[::-1]):
        got = sigma.pair_values(*_pair_positions(G, chunk))
        assert got.tobytes() == _evaluated(ref, chunk).tobytes()
        new = {g for pair in chunk for g in (*pair, G.compose(*pair))} - seen
        assert len(reads) == len(new) and {g for g, in reads} == new
        reads.clear()
        seen |= new


def test_gauge_factors_resolve_the_cocycles_of_coboundary_type(f2):
    a, b = fixtures.random_coboundary(f2, 1), fixtures.random_coboundary(f2, 2)
    trivial = TrivialCocycle(f2)
    assert cocycles.gauge_factors(trivial) == []
    assert cocycles.gauge_factors(a) == [(a, False)]
    assert cocycles.gauge_factors(ConjugateCocycle(ConjugateCocycle(a))) == [(a, False)]
    nested = ProductCocycle([a, trivial, ConjugateCocycle(ProductCocycle([b, a]))])
    assert cocycles.gauge_factors(nested) == [(a, False), (b, True), (a, True)]
    # a cocycle that is not built from coboundaries, alone or as a factor
    Z2 = IntLattice(2)
    theta = BicharacterCocycle(Z2, [[0.0, 0.5], [0.0, 0.0]])
    assert cocycles.gauge_factors(theta) is None
    assert cocycles.gauge_factors(ProductCocycle([fixtures.random_coboundary(Z2, 1),
                                                  theta])) is None
    assert cocycles.gauge_factors(LengthPhase(f2)) is None


def test_one_truncation_reads_beta_once_at_each_element_of_the_support(f2):
    # the truncation runs through the gauge: conj(beta) a is formed on
    # supp a, and sigma is read nowhere on the balls
    x, y = f2.generator(1), f2.generator(2)
    a = delta(f2, x) + delta(f2, f2.invert(y), 2j) + delta(f2, f2.compose(x, y))

    def logged(seed):
        beta, reads = fixtures.random_beta(f2, seed), []
        return CoboundaryCocycle(f2, lambda g: reads.append(g) or beta(g)), reads

    for product in (False, True):
        (cob, reads), (other, other_reads) = logged(3), logged(4)
        sigma = ProductCocycle([cob, ConjugateCocycle(other)]) if product else cob
        reads.clear()
        other_reads.clear()
        normspectra.truncated_norm_lower(f2, sigma, a, 4)
        assert reads == a.support()
        assert other_reads == (a.support() if product else [])


def test_a_second_power_at_the_same_sigma_reads_beta_not_at_all(f2):
    # powers 7 and 8 of x x y y pass 27 letters, so some of their positions
    # are Python ints; the memo holds them as it holds the int64 ones
    beta, reads = fixtures.random_beta(f2, 3), []
    sigma = CoboundaryCocycle(f2, lambda g: reads.append(g) or beta(g))
    a = AlgebraElement(f2, {(1, 1, 2): 1.0, (1, 1, 2, 2): 0.5 - 2j})
    reads.clear()
    first = algebra.power(a, 8, sigma)
    assert len(reads) == len(set(reads)) and max(map(len, reads)) > 27
    reads.clear()
    assert_same_bits(algebra.power(a, 8, sigma), first)
    assert reads == []


@pytest.mark.parametrize("G", [fixtures.symmetric(3), FreeGroup(2)], ids=["S3", "F2"])
def test_a_failed_beta_read_leaves_the_table_usable(G):
    pool = G.elements() if G.is_finite else G.enumerate_ball(1)
    full = fixtures.random_beta(G, 6) if G.is_finite else {
        g: fixtures.random_beta(G, 6)(g) for g in G.enumerate_ball(2)}
    given = {g: v for g, v in full.items() if g in pool[:2]}
    missing = G.element_to_json(pool[2])
    sigma = CoboundaryCocycle(G, given)
    everything = [(x, y) for x in pool for y in pool]
    with pytest.raises(InvalidArgument, match=re.escape(f"beta is not given at {missing}")):
        sigma.pair_values(*_pair_positions(G, everything))
    some = [(pool[0], pool[1]), (pool[1], pool[0]), (pool[0], pool[0])]
    ref = CoboundaryCocycle(G, full)
    for _ in range(2):
        assert sigma.pair_values(*_pair_positions(G, some)).tobytes() == \
            _evaluated(ref, some).tobytes()
    with pytest.raises(InvalidArgument, match="beta is not given"):
        sigma.pair_values(*_pair_positions(G, [(pool[0], pool[2])]))


def _signed_zero_table(G):
    """A table cocycle off the first row and column whose values have zero
    parts of both signs (not a cocycle; only its bits matter)."""
    n = G.order
    choices = [complex(-1.0, 0.0), complex(-1.0, -0.0), complex(0.0, -1.0),
               complex(-0.0, 1.0), complex(1.0, -0.0), cmath.exp(0.3j)]
    values = [[choices[(i * n + j) % len(choices)] for j in range(n)] for i in range(n)]
    return TableCocycle(G, values)


def test_product_and_conjugate_pair_values_have_the_bits_of_evaluate():
    G = fixtures.cyclic_product([4, 4])
    elems = G.elements()
    cob = fixtures.random_coboundary(G, 3)
    signed = _signed_zero_table(G)
    sigmas = [fixtures.random_cocycle_abelian(G, [4, 4], seed) for seed in range(3)]
    sigmas += [ProductCocycle([signed, cob]), ProductCocycle([cob, signed]),
               ProductCocycle([signed]), ConjugateCocycle(signed),
               ConjugateCocycle(ProductCocycle([signed, cob, signed]))]
    for sigma in sigmas:
        want = np.array([[evaluate(sigma, x, y) for y in elems] for x in elems], dtype=complex)
        assert cocycles.value_table(G, sigma).tobytes() == want.tobytes()
    # a zero imaginary part of either sign comes out as the loop rounds it
    got = cocycles.value_table(G, ProductCocycle([signed]))
    assert {np.copysign(1.0, v) for v in got.imag[got.imag == 0]} == {1.0, -1.0}

    f2 = FreeGroup(2)
    ball = f2.enumerate_ball(2)
    pairs = [(x, y) for x in ball for y in ball]
    a, b = fixtures.random_coboundary(f2, 1), fixtures.random_coboundary(f2, 2)
    for sigma in (ProductCocycle([a, b]), ConjugateCocycle(a),
                  ProductCocycle([a, ConjugateCocycle(b), TrivialCocycle(f2)])):
        got = sigma.pair_values(*_pair_positions(f2, pairs))
        assert got.tobytes() == _evaluated(sigma, pairs).tobytes()


def _perturbed(G, sigma, factor, at=(3, 5)):
    """sigma's value table with the entry at ``at`` multiplied by factor."""
    values = cocycles.value_table(G, sigma)
    values[at] *= factor
    return values


def _bound_cases():
    s4, z44 = fixtures.symmetric(4), fixtures.cyclic_product([4, 4])
    s4v4 = fixtures.s4_v4_extension()
    tol = cocycles.IDENTITY_TOL
    cob = fixtures.random_coboundary(s4, 1)
    yield from ((f"clock{n}", (fixtures.clock_shift_group(n), fixtures.clock_shift_cocycle(n)))
                for n in range(2, 7))
    yield "bicharacter", (z44, fixtures.random_bicharacter_table(z44, [4, 4], 3))
    yield "bicharacter-coboundary", (z44, fixtures.random_cocycle_abelian(z44, [4, 4], 3))
    yield "coboundary-S4", (s4, cob)
    yield "coboundary-S4/V4", (s4v4, fixtures.random_coboundary(s4v4, 2))
    yield "coboundary-Q8", (fixtures.quaternion(), fixtures.random_coboundary(fixtures.quaternion(), 4))
    # phases just below and above tol, and far above it
    for size in (0.3 * tol, 0.9 * tol, 1.1 * tol, 3 * tol, 1e-9, 1e-3):
        yield f"phase-{size:.1e}", (s4, TableCocycle(s4, _perturbed(s4, cob, np.exp(1j * size))))
    # a modulus off by about 1e-13, and one off by more than tol
    for size in (1e-13, 1e-11):
        yield f"modulus-{size:.0e}", (s4, TableCocycle(s4, _perturbed(s4, cob, 1 + size)))


@pytest.mark.parametrize("case", list(_bound_cases()), ids=lambda c: c[0])
def test_identity_bound_covers_the_exhaustive_residual(case):
    name, (G, sigma) = case
    values = cocycles.value_table(G, sigma)
    bound = cocycles.identity_bound(G, values)
    rep = cocycles.validate(G, sigma, values=values)
    assert bound >= rep.max_identity_residual
    if bound <= cocycles.IDENTITY_TOL:
        assert rep.passed
    # every cocycle up to rounding is accepted; a residual near tol is left
    # to the exhaustive check, since the bound grows it 3 G.diameter times
    assert (bound <= cocycles.IDENTITY_TOL) is not name.startswith(("phase", "modulus"))


def test_identity_bound_reads_the_generator_rows_and_every_value(monkeypatch):
    G = fixtures.symmetric(4)
    values = cocycles.value_table(G, fixtures.random_coboundary(G, 1))
    full = cocycles.validate(G, TableCocycle(G, values), values=values)
    rep = cocycles._validate_table(G, G.table, values, cocycles.IDENTITY_TOL, G.generators)
    assert not rep.exhaustive and rep.checked_triples == len(G.generators) * G.order ** 2
    assert (rep.max_modulus_residual, rep.max_normalization_residual) == (
        full.max_modulus_residual, full.max_normalization_residual)
    calls = []
    table = cocycles._validate_table
    monkeypatch.setattr(cocycles, "_validate_table",
                        lambda *args: calls.append(args[4]) or table(*args))
    assert cocycles.identity_bound(G, values) <= cocycles.IDENTITY_TOL
    assert [rows.tolist() for rows in calls] == [G.generators.tolist()]


def _hypot_residual(d, tol):
    """_identity_residual's maximum and witnesses on the differences d,
    np.hypot on every triple: the reference for its squared-modulus
    shortcut."""
    r = np.hypot(d.real, d.imag)
    return float(np.max(r)), [(tuple(map(int, i)), float(r[tuple(i)]))
                              for i in np.argwhere(r > tol)[:10]]


@pytest.mark.parametrize("scale", [0.0, 2.0 ** -540, 2.0 ** -520, 2.0 ** -60, 2.0 ** -40, 1.0, 2.0 ** 530])
@pytest.mark.parametrize("special", ["none", "nan", "inf", "subnormal"])
def test_identity_residual_has_the_bits_of_hypot_on_every_triple(scale, special):
    # sigma(x, y) = sigma(x, yz) = 1 and sigma(y, z) = 0 make the difference
    # of the two sides sigma(xy, z) exactly, so d is the slab's differences
    G = fixtures.cyclic(16)
    rng = np.random.default_rng(7)
    shape = (4, 16, 128)  # past the 1,280 triples where the shortcut starts
    d = scale * (rng.uniform(-0.5, 0.5, shape) + 1j * rng.uniform(-0.5, 0.5, shape))
    # np.hypot orders these two the other way from their squared moduli
    d[1, 2, 3] = scale * complex(0.20057591083599738, 0.9796781634763064)
    d[3, 1, 4] = scale * complex(0.9200595445581299, 0.3917785528426551)
    if special != "none":
        d[2, 5, 7] = {"nan": complex(np.nan, 0.0), "inf": complex(np.inf, 1.0),
                      "subnormal": complex(5e-324, 0.0)}[special]
    ones, zeros = np.ones(shape, dtype=complex), np.zeros(shape, dtype=complex)
    xyz = (np.arange(4)[:, None, None], np.arange(16)[:, None], np.arange(128) % 16)
    for tol in (0.0, 1e-12, 1e-300, 0.5 * scale, 1.0):
        witnesses = []
        with np.errstate(over="ignore", invalid="ignore"):
            got = cocycles._identity_residual(G, ones, d, ones, zeros, xyz, tol, witnesses)
        want, hits = _hypot_residual(d, tol)
        assert np.array_equal(got, want, equal_nan=True)
        assert [w["residual"] for w in witnesses] == [r for _, r in hits]
        assert [w["triple"] for w in witnesses] == [[i, j, k % 16] for (i, j, k), _ in hits]
