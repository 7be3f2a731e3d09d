import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import PairLaw, assembled_blocks, evaluate
from twistlab import crossed, fixtures
from twistlab.algebra import AlgebraElement, convolve, delta, involute
from twistlab.cocycles import (ConjugateCocycle, ProductCocycle, PullbackCocycle, TableCocycle,
                               TrivialCocycle, validate, value_table)
from twistlab.crossed import (AXIOM_TOL, attribute_blocks_to_summands, crossed_cocycle,
                              decompose_blocks, induced_action_data, orbit_decomposition,
                              transport_blocks, verify_twisted_action)
from twistlab.errors import DegenerateAfterRetries, NotACocycle, Unsupported
from twistlab.groups import FiniteTableGroup
from twistlab.normspectra import regular_matrices


def test_s3_group_algebra_blocks(s3):
    dec = decompose_blocks(s3, TrivialCocycle(s3))
    assert sorted(dec.block_sizes) == [1, 1, 2]
    assert max(dec.residuals.values()) <= 1e-10


def test_q8_group_algebra_blocks(q8):
    dec = decompose_blocks(q8, TrivialCocycle(q8))
    assert sorted(dec.block_sizes) == [1, 1, 1, 1, 2]


def test_abelian_blocks_all_ones():
    G = fixtures.cyclic(5)
    dec = decompose_blocks(G, TrivialCocycle(G))
    assert dec.block_sizes == [1] * 5


def test_clock_shift_single_block_with_matrix_oracle():
    for n in (2, 3, 4):
        sigma = fixtures.clock_shift_cocycle(n)
        G = sigma.group
        dec = decompose_blocks(G, sigma)
        assert dec.block_sizes == [n]
        # oracle: W(a, b) = V^a U^b satisfies the same twisted relations and
        # spans all of M_n
        U, V = fixtures.clock_shift_matrices(n)
        W = {}
        for i, lab in enumerate(l for l in (G.label(g) for g in G.elements())):
            a, b = lab
            W[i] = np.linalg.matrix_power(V, a) @ np.linalg.matrix_power(U, b)
        for g in G.elements():
            for h in G.elements():
                lhs = W[g] @ W[h]
                rhs = evaluate(sigma, g, h) * W[G.compose(g, h)]
                assert np.max(np.abs(lhs - rhs)) <= 1e-12
        span = np.array([W[g].ravel() for g in G.elements()])
        assert np.linalg.matrix_rank(span) == n * n


def test_coboundary_twist_preserves_blocks(q8):
    sigma = fixtures.random_coboundary(q8, seed=12)
    dec = decompose_blocks(q8, sigma)
    assert sorted(dec.block_sizes) == [1, 1, 1, 1, 2]


def test_induced_action_axioms_all_fixtures():
    for name, ext in fixtures.standard_extensions().items():
        for sigma in (TrivialCocycle(ext),
                      fixtures.random_coboundary(ext, seed=5)):
            sys = induced_action_data(ext, sigma)
            rep = verify_twisted_action(sys)
            assert rep.passed, (name, sigma.kind, rep.max_residual)


def test_rejected_convention_fails_somewhere():
    ext = fixtures.q8_extension()
    sigma = fixtures.random_coboundary(ext, seed=7)
    sys = induced_action_data(ext, sigma, convention="as-printed")
    rep = verify_twisted_action(sys)
    assert not rep.passed
    assert rep.max_residual > 1e-2


def test_q8_pipeline():
    ext = fixtures.q8_extension()
    res = crossed.crossed_product_pipeline(ext, TrivialCocycle(ext))
    assert res["axioms"]["passed"]
    assert res["k_block_sizes"] == [1, 1]
    assert res["assembled_block_sizes"] == [1, 1, 1, 1, 2]
    assert res["blocks_match"]
    assert sorted(map(sorted, res["assembled_blocks_per_summand"])) == [
        [1, 1, 1, 1], [2]]
    assert res["dimension"] == 8 and res["dimension_check"]


def test_s4_v4_orbits():
    ext = fixtures.s4_v4_extension()
    sys = induced_action_data(ext, TrivialCocycle(ext))
    blocks = decompose_blocks(sys.K, sys.sigma_k)
    assert blocks.block_sizes == [1, 1, 1, 1]
    summands = orbit_decomposition(sys, blocks)
    assert sorted(s.orbit_size for s in summands) == [1, 3]
    assert sorted(s.stabilizer_index for s in summands) == [1, 3]
    res = crossed.crossed_product_pipeline(ext, TrivialCocycle(ext))
    assert res["assembled_block_sizes"] == [1, 1, 2, 3, 3]
    assert res["dimension"] == 24


def test_d4_pipeline_with_coboundary():
    ext = fixtures.d4_extension()
    sigma = fixtures.random_coboundary(ext, seed=3)
    res = crossed.crossed_product_pipeline(ext, sigma)
    assert res["axioms"]["passed"]
    assert res["blocks_match"]
    assert res["dimension"] == 8


def test_z3sq_pipeline_with_pullback_table():
    ext = fixtures.z3sq_extension()
    q = ext.quotient
    qsigma = TableCocycle(q, np.array(
        [[np.exp(2j * np.pi * (i * j) / q.order) for j in range(q.order)]
         for i in range(q.order)]))
    sigma = PullbackCocycle(ext, qsigma)
    res = crossed.crossed_product_pipeline(ext, sigma)
    assert res["axioms"]["passed"]
    assert res["blocks_match"]


def _pullback_table(ext):
    """A table cocycle on the quotient (a seeded coboundary written out as a
    table), pulled back to the extension."""
    q = ext.quotient
    cob = fixtures.random_coboundary(q, seed=11)
    table = TableCocycle(q, np.array([[evaluate(cob, a, b) for b in q.elements()]
                                      for a in q.elements()]))
    return PullbackCocycle(ext, table)


@pytest.mark.parametrize("twist", ["trivial", "coboundary", "pullback-table"])
@pytest.mark.parametrize("name", sorted(fixtures.standard_extensions()))
def test_crossed_cocycle_is_gauge_equivalent_to_sigma(name, twist):
    # Packer-Raeburn: u_k v_h -> u_(k,e) u_(0,h) = beta(k, h) u_(k,h) with
    # beta(k, h) = sigma((k, e), (0, h)) carries the crossed product onto
    # C(Gamma, sigma), so omega * d beta = sigma on every pair
    ext = fixtures.standard_extensions()[name]
    sigma = {"trivial": TrivialCocycle(ext),
             "coboundary": fixtures.random_coboundary(ext, seed=5),
             "pullback-table": _pullback_table(ext)}[twist]
    sys = induced_action_data(ext, sigma)
    assert verify_twisted_action(sys).passed
    omega = crossed_cocycle(sys)
    rep = validate(omega.group, omega)
    assert rep.passed and rep.exhaustive, rep.to_json()
    law = PairLaw(ext)
    pairs = [law.pair(x) for x in ext.elements()]
    e = ext.quotient.identity()
    beta = [evaluate(sigma, law.index((k, e)), law.index(law.section(h))) for k, h in pairs]
    worst = 0.0
    for i, x in enumerate(pairs):
        for j, y in enumerate(pairs):
            xy = law.index(law.times(x, y))
            dbeta = np.conj(beta[i]) * np.conj(beta[j]) * beta[xy]
            worst = max(worst, abs(evaluate(omega, i, j) * dbeta - evaluate(sigma, i, j)))
    assert worst <= 1e-12
    direct = decompose_blocks(ext, TableCocycle(ext, sys.S))
    assert abs(transport_blocks(sys, omega, direct)[0] - worst) <= 1e-15


def _s5():
    """S5 as an extension of A5, the even permutations, by Z2."""
    S5 = fixtures.symmetric(5)
    even = [g for g in S5.elements()
            if sum(a > b for i, a in enumerate(S5.label(g)) for b in S5.label(g)[i + 1:]) % 2 == 0]
    return fixtures.extension_from_subgroup(S5, even)


def _carry_cases():
    for name, ext in sorted(fixtures.standard_extensions().items()):
        yield f"{name}-trivial", ext, TrivialCocycle(ext)
        yield f"{name}-coboundary", ext, fixtures.random_coboundary(ext, 5)
        yield f"{name}-pullback-table", ext, _pullback_table(ext)
    S5 = _s5()
    yield "S5/A5-trivial", S5, TrivialCocycle(S5)
    yield "S5/A5-coboundary", S5, fixtures.random_coboundary(S5, 5)


@pytest.mark.parametrize("case", list(_carry_cases()), ids=lambda c: c[0])
def test_carried_blocks_are_the_assembled_ones(case, record_calls):
    _, ext, sigma = case
    sys = induced_action_data(ext, sigma)
    omega = crossed_cocycle(sys)
    direct = decompose_blocks(ext, TableCocycle(ext, sys.S))
    residual, carried = transport_blocks(sys, omega, direct)
    oracle = assembled_blocks(sys)
    assert residual <= AXIOM_TOL
    assert sorted(carried.block_sizes) == sorted(oracle.block_sizes)
    # each carried projection lies next to one assembled projection of its size
    dist = np.linalg.norm(carried.projections[:, None] - oracle.projections[None], axis=2)
    nearest = dist.argmin(axis=1)
    assert sorted(nearest.tolist()) == list(range(len(oracle.block_sizes)))
    assert dist.min(axis=1).max() <= 1e-9
    assert [oracle.block_sizes[i] for i in nearest] == carried.block_sizes
    kblocks = decompose_blocks(sys.K, sys.sigma_k)
    summands = orbit_decomposition(sys, kblocks)
    calls = record_calls(crossed, "decompose_blocks")
    rep = crossed.crossed_product_pipeline(ext, sigma)
    assert rep["blocks_match"] and rep["diff"] == {}
    assert rep["assembled_blocks_per_summand"] == attribute_blocks_to_summands(
        kblocks, summands, omega, oracle)
    # one decomposition of K, one of Gamma
    assert [args[0] for args in calls] == [ext.K, ext]


def test_a_perturbed_omega_fails_the_gauge_check(monkeypatch):
    ext = fixtures.q8_extension()
    sigma = fixtures.random_coboundary(ext, 5)
    assert crossed.crossed_product_pipeline(ext, sigma)["blocks_match"]

    def perturbed(sys):
        values = crossed_cocycle(sys).values.copy()
        values[3, 5] *= np.exp(1e-6j)
        return TableCocycle(sys.gamma, values)

    monkeypatch.setattr(crossed, "crossed_cocycle", perturbed)
    rep = crossed.crossed_product_pipeline(ext, sigma)
    # the sizes still agree: only omega d beta = sigma catches the phase
    assert rep["axioms"]["passed"] and not rep["blocks_match"] and rep["diff"] == {}


def test_assembled_star_is_involutive():
    ext = fixtures.q8_extension()
    sigma = fixtures.random_coboundary(ext, seed=1)
    sys = induced_action_data(ext, sigma)
    blocks = assembled_blocks(sys)
    assert max(blocks.residuals.values()) <= 1e-9


def test_seed_changes_projections_not_sizes(q8):
    d0 = decompose_blocks(q8, TrivialCocycle(q8), seed=0)
    d1 = decompose_blocks(q8, TrivialCocycle(q8), seed=1)
    assert sorted(d0.block_sizes) == sorted(d1.block_sizes)


def test_compare_block_structure_diff(monkeypatch):
    # the attribution loses two of the four 1-blocks of Q8
    ext = fixtures.q8_extension()
    monkeypatch.setattr(crossed, "attribute_blocks_to_summands", lambda *args: [[1, 1], [2]])
    rep = crossed.crossed_product_pipeline(ext, TrivialCocycle(ext))
    assert rep["assembled_block_sizes"] == [1, 1, 2]
    assert not rep["blocks_match"]
    assert rep["diff"] == {"only_in_first": [], "only_in_second": [1, 1]}


def _regular_class_count(G, sigma):
    """Conjugacy classes of g with sigma(g, h) = sigma(h, g) for every h that
    commutes with g, counted by the definition."""
    els = G.elements()
    seen, count = set(), 0
    for g in els:
        if g in seen:
            continue
        seen |= {G.compose(G.compose(h, g), G.invert(h)) for h in els}
        count += all(abs(evaluate(sigma, g, h) - evaluate(sigma, h, g)) <= 1e-9
                     for h in els if G.compose(g, h) == G.compose(h, g))
    return count


def _centre_cases():
    for name, G in fixtures.standard_groups().items():
        yield f"{name}-trivial", G, TrivialCocycle(G)
        yield f"{name}-coboundary", G, fixtures.random_coboundary(G, seed=4)
    for n in range(2, 7):
        sigma = fixtures.clock_shift_cocycle(n)
        yield f"clock{n}", sigma.group, sigma
    for name, ext in fixtures.standard_extensions().items():
        for twist, sigma in (("trivial", TrivialCocycle(ext)),
                             ("coboundary", fixtures.random_coboundary(ext, seed=5))):
            omega = crossed_cocycle(induced_action_data(ext, sigma))
            yield f"omega-{name}-{twist}", omega.group, omega


@pytest.mark.parametrize("case", list(_centre_cases()), ids=lambda c: c[0])
def test_one_block_per_sigma_regular_class(case):
    _, G, sigma = case
    dec = decompose_blocks(G, sigma)
    assert len(dec.block_sizes) == _regular_class_count(G, sigma)
    assert sum(d * d for d in dec.block_sizes) == G.order
    assert max(dec.residuals.values()) <= 1e-10


def eigh_decompose_blocks(G, sigma, seed=0):
    """The blocks as decompose_blocks found them through the whole algebra:
    the class sums by the definition, one pair (h, g) at a time; the seeded
    self-adjoint central element w of its first try; eigh of the |G| x |G|
    matrix of left multiplication by w, whose eigenvalue clusters'
    projectors, applied to delta_e, are the minimal central projections.
    Returns (block sizes, projections), largest block first."""
    T, S, inv, n = G.multiplication_table(), value_table(G, sigma), G.inverses, G.order
    sums, first, cent = np.zeros((n, n), dtype=complex), np.arange(n), np.zeros(n)
    for h, g in np.ndindex(n, n):  # u_h u_g u_h* = phi u_k, k = h g h^-1
        k = T[T[h, g], inv[h]]
        sums[g, k] += S[h, g] * S[T[h, g], inv[h]] * np.conj(S[inv[h], h])
        first[g], cent[g] = min(first[g], k), cent[g] + (k == g)
    reps = [g for g in range(n) if first[g] == g and abs(sums[g, g]) > cent[g] / 2]
    rng = np.random.default_rng((seed + 1) * 1000)
    coeff = rng.standard_normal(len(reps)) + 1j * rng.standard_normal(len(reps))
    # the left matrix of w* is that of w's adjoint
    C = regular_matrices(T, S, (coeff @ (sums[reps] / sums[reps, reps][:, None]))[None])[0]
    ev, U = np.linalg.eigh(0.5 * (C + C.conj().T))
    cuts = np.flatnonzero(np.diff(ev) > crossed.CLUSTER_GAP * max(1.0, np.abs(ev).max())) + 1
    P = np.array([Uc @ Uc[0].conj() for Uc in np.split(U, cuts, axis=1)])
    sizes = np.rint(np.sqrt(n * P[:, 0].real)).astype(int)
    order = np.argsort(-sizes, kind="stable")
    return sizes[order].tolist(), P[order]


def _oracle_cases():
    groups = {**fixtures.standard_groups(), **fixtures.standard_extensions()}
    for name, G in sorted(groups.items()):
        yield f"{name}-trivial", G, TrivialCocycle(G)
        yield f"{name}-coboundary", G, fixtures.random_coboundary(G, seed=4)
    for n in range(2, 7):
        sigma = fixtures.clock_shift_cocycle(n)
        yield f"clock{n}", sigma.group, sigma
    S5 = fixtures.symmetric(5)
    yield "S5-coboundary", S5, fixtures.random_coboundary(S5, 1)


@pytest.mark.parametrize("case", list(_oracle_cases()), ids=lambda c: c[0])
def test_blocks_split_in_the_centre_are_those_of_the_whole_algebra(case, record_calls):
    # the same sizes in the same order, the same projections, and neither a
    # |G| x |G| left matrix nor an eigenproblem past z x z
    _, G, sigma = case
    sizes, P = eigh_decompose_blocks(G, sigma)
    left, eigh = record_calls(crossed, "regular_matrices"), record_calls(np.linalg, "eigh")
    dec = decompose_blocks(G, sigma)
    assert dec.block_sizes == sizes
    assert np.abs(dec.projections - P).max() <= 1e-12
    assert max(dec.residuals.values()) <= 1e-10
    assert left == [] and [args[0].shape for args in eigh] == [(len(sizes), len(sizes))]


def test_residuals_formed_at_the_representatives_are_the_l2_norms(monkeypatch):
    # eigenvectors off by about 1e-6 give central p that are not projections:
    # each residual is then signal, not rounding, and equals the l2 norm of
    # the products formed on the whole group
    G = fixtures.symmetric(4)
    sigma = fixtures.random_coboundary(G, 1)
    eigh, rng = np.linalg.eigh, np.random.default_rng(2)

    def perturbed(H):
        ev, V = eigh(H)
        return ev, V + 1e-6 * (rng.standard_normal(V.shape) + 1j * rng.standard_normal(V.shape))

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    dec = decompose_blocks(G, sigma)
    P, T, S = dec.projections, G.multiplication_table(), value_table(G, sigma)
    prods = np.einsum("iab,kb->ika", regular_matrices(T, S, P), P)  # p_i p_k
    z = len(P)
    star = np.conj(S[G.inverses, np.arange(G.order)] * P)[:, G.inverses]
    want = {"self_adjoint": np.linalg.norm(P - star, axis=1).max(),
            "idempotent": max(np.linalg.norm(prods[i, i] - P[i]) for i in range(z)),
            "orthogonal": max(np.linalg.norm(prods[i, k]) for i in range(z) for k in range(i)),
            "sum_to_unit": np.linalg.norm(P.sum(axis=0) - np.eye(G.order)[0])}
    assert min(want.values()) > 1e-8
    for key, value in want.items():
        assert dec.residuals[key] == pytest.approx(value, rel=1e-6), key
    assert dec.residuals["central"] <= 1e-12


class _ZeroDraws:
    """A generator whose every normal draw is 0: the seeded central element
    is 0, and its eigenvalues all coincide."""

    def standard_normal(self, size):
        return np.zeros(size)


def test_a_vanishing_central_element_retries_until_it_gives_up(s3, monkeypatch):
    clock = fixtures.clock_shift_cocycle(3)
    seeds = []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: seeds.append(seed) or _ZeroDraws())
    with pytest.raises(DegenerateAfterRetries) as err:
        decompose_blocks(s3, TrivialCocycle(s3))
    assert str(err.value) == ("no clean decomposition after 5 tries: "
                              "eigenvalues within 1e-08 for 3 sigma-regular classes")
    assert seeds == [1000, 1001, 1002, 1003, 1004]
    # one sigma-regular class: the centre is C delta_e, which w = 0 splits
    dec = decompose_blocks(clock.group, clock)
    assert dec.block_sizes == [3] and dec.projections.tolist() == [[1] + [0] * 8]


def test_s5_block_sizes():
    S5 = fixtures.symmetric(5)
    dec = decompose_blocks(S5, TrivialCocycle(S5))
    assert sorted(dec.block_sizes) == [1, 1, 4, 4, 5, 5, 6]
    assert max(dec.residuals.values()) <= 1e-10


@pytest.mark.parametrize("name", sorted(fixtures.standard_extensions()))
def test_decompose_on_an_extension_has_the_bits_of_its_plain_table(name):
    ext = fixtures.standard_extensions()[name]
    plain = FiniteTableGroup(ext.table.tolist())
    for sigma in (TrivialCocycle(ext), fixtures.random_coboundary(ext, seed=5)):
        S = value_table(ext, sigma)
        got = decompose_blocks(ext, TableCocycle(ext, S))
        want = decompose_blocks(plain, TableCocycle(plain, S))
        assert got.projections.tobytes() == want.projections.tobytes()
        assert (got.block_sizes, got.residuals) == (want.block_sizes, want.residuals)


def test_decompose_evaluates_sigma_once_per_pair(s3, record_calls):
    # a coboundary, also under a conjugate, is read through beta, once per element
    for sigma in (fixtures.random_coboundary(s3, 5),
                  ConjugateCocycle(fixtures.random_coboundary(s3, 5))):
        cob = getattr(sigma, "base", sigma)
        calls = record_calls(sigma, "pair_values")
        reads = record_calls(cob, "beta")
        dec = decompose_blocks(s3, sigma)
        assert sorted(dec.block_sizes) == [1, 1, 2]
        assert sum(len(xs) for xs, _, _ in calls) == s3.order ** 2
        assert sorted(reads) == [(g,) for g in s3.elements()]


def dict_verify_twisted_action(sys):
    """The axiom check as it ran on algebra elements, one dict convolution
    per product and alpha applied as the monomial map, one Python complex
    multiply per term: the bit-for-bit reference for verify_twisted_action's
    residuals."""
    K, L, sig = sys.K, sys.gamma.quotient, sys.sigma_k
    hs = L.elements()
    e = L.identity()
    alpha = {h: (sys.alpha_perm[i].tolist(), sys.alpha_scalar[i].tolist())
             for i, h in enumerate(hs)}
    rho = {(h1, h2): delta(K, int(sys.rho_index[i, j]), sys.rho_scalar[i, j])
           for i, h1 in enumerate(hs) for j, h2 in enumerate(hs)}

    def apply_alpha(h, a):
        perm, scalar = alpha[h]
        return AlgebraElement(K, {perm[k]: scalar[k] * c for k, c in a.coeffs.items()})

    def l2(a):
        return float(np.sqrt(sum(abs(c) ** 2 for c in a.coeffs.values())))

    res = dict.fromkeys(["unit", "rho_normalised", "automorphism", "involution",
                         "rho_unitary", "composition", "rho_cocycle"], 0.0)
    deltas = [delta(K, k) for k in range(K.order)]
    for dk in deltas:
        res["unit"] = max(res["unit"], l2(apply_alpha(e, dk) - dk))
    for h in hs:
        for pair in ((e, h), (h, e)):
            res["rho_normalised"] = max(res["rho_normalised"], l2(rho[pair] - delta(K, 0)))
    for h in hs:
        imgs = [apply_alpha(h, dk) for dk in deltas]
        res["unit"] = max(res["unit"], l2(imgs[0] - delta(K, 0)))
        for i in range(K.order):
            for j in range(K.order):
                lhs = convolve(imgs[i], imgs[j], sig)
                rhs = apply_alpha(h, convolve(deltas[i], deltas[j], sig))
                res["automorphism"] = max(res["automorphism"], l2(lhs - rhs))
            lhs = involute(imgs[i], sig)
            rhs = apply_alpha(h, involute(deltas[i], sig))
            res["involution"] = max(res["involution"], l2(lhs - rhs))
    for u in rho.values():
        ustar = involute(u, sig)
        res["rho_unitary"] = max(res["rho_unitary"],
                                 l2(convolve(u, ustar, sig) - delta(K, 0)),
                                 l2(convolve(ustar, u, sig) - delta(K, 0)))
    for h1 in hs:
        for h2 in hs:
            u = rho[(h1, h2)]
            ustar = involute(u, sig)
            h12 = L.compose(h1, h2)
            for dk in deltas:
                lhs = apply_alpha(h1, apply_alpha(h2, dk))
                rhs = convolve(convolve(u, apply_alpha(h12, dk), sig), ustar, sig)
                res["composition"] = max(res["composition"], l2(lhs - rhs))
            for h3 in hs:
                lhs = convolve(apply_alpha(h1, rho[(h2, h3)]), rho[(h1, L.compose(h2, h3))], sig)
                rhs = convolve(rho[(h1, h2)], rho[(h12, h3)], sig)
                res["rho_cocycle"] = max(res["rho_cocycle"], l2(lhs - rhs))
    return res


def _twists(ext):
    q = ext.quotient
    phases = np.exp(2j * np.pi * np.random.default_rng(6).random((q.order, q.order)))
    pullback = PullbackCocycle(ext, TableCocycle(q, phases))
    return {"trivial": TrivialCocycle(ext), "coboundary": fixtures.random_coboundary(ext, 5),
            "coboundary-2": fixtures.random_coboundary(ext, 2), "pullback": pullback,
            "product": ProductCocycle([fixtures.random_coboundary(ext, 8), pullback])}


@pytest.mark.parametrize("convention", ["conjugated", "as-printed"])
@pytest.mark.parametrize("twist", ["trivial", "coboundary", "coboundary-2", "pullback",
                                   "product"])
@pytest.mark.parametrize("name", sorted(fixtures.standard_extensions()))
def test_axiom_residuals_have_the_bits_of_the_dict_check(name, twist, convention):
    ext = fixtures.standard_extensions()[name]
    sys = induced_action_data(ext, _twists(ext)[twist], convention)
    assert verify_twisted_action(sys).residuals == dict_verify_twisted_action(sys)


def loop_induced_action_data(ext, sigma, convention):
    """alpha, rho and sigma_K as the per-pair loop over sections built them,
    one evaluate per factor, with the pair law for the group law: the
    bit-for-bit reference for induced_action_data's gathers."""
    K, L, law = ext.K, ext.quotient, PairLaw(ext)
    hs, e = L.elements(), L.identity()

    def ev(x, y):
        return evaluate(sigma, law.index(x), law.index(y))

    embedded = [(k, e) for k in range(K.order)]
    sigma_k = TableCocycle(K, [[ev(x, y) for y in embedded] for x in embedded])
    alpha_perm = np.empty((len(hs), K.order), dtype=np.intp)
    alpha_scalar = np.empty((len(hs), K.order), dtype=complex)
    for i, h in enumerate(hs):
        s_h = law.section(h)
        s_h_inv = law.inverse(s_h)
        for k, gk in enumerate(embedded):
            conj_el = law.times(law.times(s_h, gk), s_h_inv)
            c2 = ev(conj_el, s_h)
            if convention == "conjugated":
                c2 = np.conj(c2)
            alpha_perm[i, k] = conj_el[0]
            alpha_scalar[i, k] = ev(s_h, gk) * c2
    rho_index = np.empty((len(hs), len(hs)), dtype=np.intp)
    rho_scalar = np.empty((len(hs), len(hs)), dtype=complex)
    for i, h1 in enumerate(hs):
        for j, h2 in enumerate(hs):
            s1, s2 = law.section(h1), law.section(h2)
            s12 = law.section(L.compose(h1, h2))
            w = law.times(law.times(s1, s2), law.inverse(s12))
            rho_index[i, j] = w[0]
            rho_scalar[i, j] = ev(s1, s2) * np.conj(ev(w, s12))
    return sigma_k.values, alpha_perm, alpha_scalar, rho_index, rho_scalar


@pytest.mark.parametrize("convention", ["conjugated", "as-printed"])
@pytest.mark.parametrize("twist", ["trivial", "coboundary", "coboundary-2", "pullback",
                                   "product"])
@pytest.mark.parametrize("name", sorted(fixtures.standard_extensions()))
def test_action_data_has_the_bits_of_the_section_loop(name, twist, convention):
    ext = fixtures.standard_extensions()[name]
    sigma = _twists(ext)[twist]
    sys = induced_action_data(ext, sigma, convention)
    got = (sys.sigma_k.values, sys.alpha_perm, sys.alpha_scalar, sys.rho_index,
           sys.rho_scalar)
    for mine, ref in zip(got, loop_induced_action_data(ext, sigma, convention)):
        assert mine.dtype == ref.dtype and mine.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", sorted(fixtures.standard_extensions()))
def test_pipeline_evaluates_sigma_once_per_pair(name, record_calls):
    ext = fixtures.standard_extensions()[name]
    n = len(ext.elements())
    for sigma in (fixtures.random_coboundary(ext, 5),
                  ConjugateCocycle(fixtures.random_coboundary(ext, 5))):
        cob = getattr(sigma, "base", sigma)
        calls = record_calls(sigma, "pair_values")
        reads = record_calls(cob, "beta")
        rep = crossed.crossed_product_pipeline(ext, sigma)
        assert rep["axioms"]["passed"] and rep["blocks_match"]
        assert sum(len(xs) for xs, _, _ in calls) == n ** 2
        assert len(reads) == len(set(reads)) == n


def python_crossed_cocycle(sys):
    """omega entry by entry in Python complex arithmetic, in the order of
    crossed_cocycle's docstring: ((sigma_K(k1, img) a) sigma_K(k1 img, w)) r."""
    SK, TK = sys.sigma_k.values, sys.K.table
    nl, m = sys.alpha_perm.shape
    raw = np.empty((nl * m, nl * m), dtype=complex)
    for h1, k1, h2, k2 in np.ndindex(nl, m, nl, m):
        img = sys.alpha_perm[h1, k2]
        z = complex(SK[k1, img]) * complex(sys.alpha_scalar[h1, k2])
        z = z * complex(SK[TK[k1][img], sys.rho_index[h1, h2]])
        raw[h1 * m + k1, h2 * m + k2] = z * complex(sys.rho_scalar[h1, h2])
    return raw


@pytest.mark.parametrize("twist", ["coboundary", "pullback", "product"])
@pytest.mark.parametrize("name", sorted(fixtures.standard_extensions()))
def test_crossed_cocycle_rounds_as_python_does(name, twist):
    ext = fixtures.standard_extensions()[name]
    sys = induced_action_data(ext, _twists(ext)[twist])
    omega = crossed_cocycle(sys)
    assert (omega.values == TableCocycle(omega.group, python_crossed_cocycle(sys)).values).all()


DISPATCH_PROBE = """
import hashlib, json
from twistlab import crossed, fixtures
from twistlab.cocycles import TableCocycle

def sha(data):
    return hashlib.sha256(data).hexdigest()

def json_sha(dec):
    return sha(json.dumps(dec.to_json()).encode())

for name, G in sorted(fixtures.standard_groups().items()):
    dec = crossed.decompose_blocks(G, fixtures.random_coboundary(G, 4))
    print(name, sha(dec.projections.tobytes()), json_sha(dec))
for name, ext in sorted(fixtures.standard_extensions().items()):
    system = crossed.induced_action_data(ext, fixtures.random_coboundary(ext, 5))
    omega = crossed.crossed_cocycle(system)
    direct = crossed.decompose_blocks(ext, TableCocycle(ext, system.S))
    residual, carried = crossed.transport_blocks(system, omega, direct)
    print(name, sha(omega.values.tobytes()), json_sha(direct), json_sha(carried),
          residual.hex())
"""


def _enabled_dispatch_targets():
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


def test_projections_and_omega_do_not_depend_on_numpy_dispatch():
    # numpy's SIMD complex multiply rounds with a fused multiply-add on some
    # CPUs; every complex product here goes through complex_product instead
    targets = _enabled_dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches no SIMD target on this CPU")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    outs = []
    for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}):
        env = dict(os.environ, PYTHONPATH=str(src), **extra)
        r = subprocess.run([sys.executable, "-c", DISPATCH_PROBE], capture_output=True,
                           text=True, env=env)
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1]


ZERO = dict.fromkeys(["unit", "rho_normalised", "automorphism", "involution", "rho_unitary",
                      "composition", "rho_cocycle"], 0.0)
Q8_COBOUNDARY = {
    "conjugated": (True, {**ZERO, "automorphism": 4.47545209131181e-16,
                          "rho_unitary": 4.47545209131181e-16,
                          "composition": 4.47545209131181e-16,
                          "rho_cocycle": 5.978733960281817e-16}),
    "as-printed": (False, {**ZERO, "automorphism": 1.5794743988803652,
                           "involution": 1.579474398880365,
                           "rho_unitary": 4.47545209131181e-16,
                           "composition": 1.579474398880365,
                           "rho_cocycle": 1.940208406706258}),
}
# (passed, residuals) of the dict check under the seed-5 coboundary; every
# extension passes both conventions with all residuals 0 under the trivial
# cocycle
RECORDED_COBOUNDARY_RESIDUALS = {
    "Q8/centre": Q8_COBOUNDARY,
    "D4/centre": Q8_COBOUNDARY,
    "S4/V4": {
        "conjugated": (True, {**ZERO, "automorphism": 6.473657049138938e-16,
                              "involution": 4.47545209131181e-16,
                              "rho_unitary": 4.440892098500626e-16,
                              "composition": 9.036560719766055e-16,
                              "rho_cocycle": 4.965068306494546e-16}),
        "as-printed": (False, {**ZERO, "automorphism": 1.9969270055824657,
                               "involution": 1.9969270055824657,
                               "rho_unitary": 4.440892098500626e-16,
                               "composition": 1.999804707042784,
                               "rho_cocycle": 4.965068306494546e-16}),
    },
    "Z3sq/Z3": {
        "conjugated": (True, {**ZERO, "automorphism": 7.447602459741819e-16,
                              "involution": 4.577566798522237e-16,
                              "rho_unitary": 1.1102230246251565e-16,
                              "composition": 4.47545209131181e-16,
                              "rho_cocycle": 1.1102230246251565e-16}),
        "as-printed": (False, {**ZERO, "automorphism": 1.991653690091313,
                               "involution": 1.7131774221066867,
                               "rho_unitary": 1.1102230246251565e-16,
                               "composition": 1.9969331235986718,
                               "rho_cocycle": 1.1102230246251565e-16}),
    },
    "Z2xS3": {
        "conjugated": (True, {**ZERO, "automorphism": 4.47545209131181e-16,
                              "rho_unitary": 4.440892098500626e-16,
                              "composition": 6.661338147750939e-16,
                              "rho_cocycle": 4.965068306494546e-16}),
        "as-printed": (False, {**ZERO, "automorphism": 1.9969270055824664,
                               "involution": 1.9969270055824664,
                               "rho_unitary": 4.440892098500626e-16,
                               "composition": 1.9969270055824664,
                               "rho_cocycle": 4.965068306494546e-16}),
    },
}


@pytest.mark.parametrize("convention", ["conjugated", "as-printed"])
@pytest.mark.parametrize("name", sorted(RECORDED_COBOUNDARY_RESIDUALS))
def test_axiom_residuals_keep_their_recorded_bits(name, convention):
    ext = fixtures.standard_extensions()[name]
    for sigma, expected in ((TrivialCocycle(ext), (True, ZERO)),
                            (fixtures.random_coboundary(ext, seed=5),
                             RECORDED_COBOUNDARY_RESIDUALS[name][convention])):
        rep = verify_twisted_action(induced_action_data(ext, sigma, convention))
        assert (rep.passed, rep.residuals) == expected


@pytest.mark.parametrize("case", [c for c in _centre_cases() if c[0].endswith("coboundary")],
                         ids=lambda c: c[0])
def test_right_regular_matrix_is_right_convolution(case):
    # column g of b -> b *_sigma v is delta_g *_sigma v, one term per entry
    _, G, sigma = case
    T, S = G.multiplication_table(), value_table(G, sigma)
    b = fixtures.random_element(G, G.elements()[::2], 7)
    R = regular_matrices(T.T, S.T, _vector(b)[None])[0]
    for g in G.elements():
        assert np.array_equal(R[:, g], _vector(convolve(delta(G, g), b, sigma)))


def _vector(a):
    """The coefficients of a on a finite-table group, indexed like its elements."""
    v = np.zeros(a.group.order, dtype=complex)
    v[list(a.coeffs)] = list(a.coeffs.values())
    return v


def _projection_cases():
    for name, G in sorted(fixtures.standard_groups().items()):
        yield name, G
    for name, ext in sorted(fixtures.standard_extensions().items()):
        yield name, ext


@pytest.mark.parametrize("twist", ["trivial", "coboundary"])
@pytest.mark.parametrize("case", list(_projection_cases()), ids=lambda c: c[0])
def test_projection_terms_are_those_of_the_algebra_element(case, twist):
    # the projections are one array indexed like G.elements(), in block order;
    # their JSON is what the AlgebraElement of each row serialized
    _, G = case
    sigma = TrivialCocycle(G) if twist == "trivial" else fixtures.random_coboundary(G, seed=4)
    dec = decompose_blocks(G, sigma)
    assert isinstance(dec.projections, np.ndarray)
    assert dec.projections.shape == (len(dec.block_sizes), G.order)
    expected = [AlgebraElement(G, dict(enumerate(p.tolist()))).to_json()["terms"]
                for p in dec.projections]
    got = dec.to_json()["projections"]
    assert got == expected
    assert json.dumps(got) == json.dumps(expected)


def test_action_report_serializes_the_fields_of_the_hand_written_dict():
    ext = fixtures.q8_extension()
    for convention in ("conjugated", "as-printed"):
        rep = verify_twisted_action(induced_action_data(
            ext, fixtures.random_coboundary(ext, seed=5), convention))
        hand_written = {"passed": rep.passed, "max_residual": rep.max_residual,
                  "residuals": rep.residuals, "tol": rep.tol}
        assert rep.to_json() == hand_written
        assert json.dumps(rep.to_json()) == json.dumps(hand_written)


def test_multiplication_table_is_built_once_and_read_only():
    ext = fixtures.s4_v4_extension()
    T = ext.multiplication_table()
    assert T is ext.multiplication_table() and not T.flags.writeable
    elems = ext.elements()
    assert T.tolist() == [[ext.compose(x, y) for y in elems] for x in elems]


def test_residuals_round_as_python_abs_does():
    # on the same index the distance is |c1 - c2|, on different indices the
    # modulus of |c1| + i |c2|, each modulus rounded as Python's abs
    re, im = np.random.default_rng(3).standard_normal((2, 4000))
    z = re + 1j * im
    first, second = z[:2000].tolist(), z[2000:].tolist()
    got = crossed._distance(0, z[:2000], 1, z[2000:])
    assert got.tolist() == [abs(complex(abs(a), abs(b))) for a, b in zip(first, second)]
    got = crossed._distance(np.arange(2000), z[:2000], np.arange(2000), z[2000:])
    assert got.tolist() == [abs(a - b) for a, b in zip(first, second)]


def test_a_residual_whose_square_passes_the_float_range_is_finite_and_fails():
    # 1e200 is reported as it is, without a warning, and fails the axiom check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = crossed._distance(0, np.array([1e200 + 0j, 1e200 + 1e200j]), 1, complex(1.0))
    assert got.tolist() == [1e200, abs(complex(1e200, 1e200))]
    assert all(r > AXIOM_TOL for r in got.tolist())


def test_induced_action_data_needs_an_extension_group(s3):
    with pytest.raises(Unsupported, match="induced_action_data needs an extension group"):
        induced_action_data(s3, TrivialCocycle(s3))


def _exhaustive_message(G, values):
    """The NotACocycle message of the exhaustive check of a value table."""
    rep = validate(G, TableCocycle(G, values), values=values)
    w = rep.witnesses[0]
    return ("sigma is not a normalised unit-modulus 2-cocycle: "
            f"the identity fails at {tuple(w['triple'])} by {w['residual']:.3g}")


@pytest.mark.parametrize("n", [4, 5])
def test_a_perturbed_phase_fails_decompose_with_the_exhaustive_witness(n):
    G = fixtures.symmetric(n)
    base = value_table(G, fixtures.random_coboundary(G, 3))
    rng = np.random.default_rng(n)
    # from 1e-3 down to 10 tol, each at a random entry off the identity's row and column
    for size in (1e-3, 1e-5, 1e-7, 1e-9, 1e-10, 1e-11):
        values = base.copy()
        x, y = rng.integers(1, G.order, size=2)
        values[x, y] *= np.exp(1j * size)
        with pytest.raises(NotACocycle) as err:
            decompose_blocks(G, TableCocycle(G, values))
        assert str(err.value) == _exhaustive_message(G, values)


def test_decompose_runs_the_exhaustive_check_only_when_the_bound_fails(monkeypatch):
    G = fixtures.symmetric(4)
    calls = []
    monkeypatch.setattr(crossed, "validate",
                        lambda *args, **kwargs: calls.append(args) or validate(*args, **kwargs))
    for sigma in (TrivialCocycle(G), fixtures.random_coboundary(G, 1)):
        assert sorted(decompose_blocks(G, sigma).block_sizes) == [1, 1, 2, 3, 3]
    assert calls == []
    # a residual of 3e-13 passes the exhaustive check but not the bound
    values = value_table(G, fixtures.random_coboundary(G, 1))
    values[3, 5] *= np.exp(3e-13j)
    assert sorted(decompose_blocks(G, TableCocycle(G, values)).block_sizes) == [1, 1, 2, 3, 3]
    assert len(calls) == 1
