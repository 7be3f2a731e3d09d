import numpy as np
import pytest

from twistlab import crossed, fixtures
from twistlab.cocycles import PullbackCocycle, TableCocycle, TrivialCocycle, validate
from twistlab.crossed import (assemble_crossed_product, crossed_cocycle, decompose_blocks,
                              induced_action_data, orbit_decomposition,
                              verify_twisted_action)
from twistlab.errors import DegenerateAfterRetries, Unsupported


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
                rhs = sigma.evaluate(g, h) * W[G.compose(g, h)]
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
    table = TableCocycle(q, np.array([[cob.evaluate(a, b) for b in q.elements()]
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
    elems = ext.elements()
    e = ext.quotient.identity()
    beta = [sigma.evaluate((k, e), (0, h)) for k, h in elems]
    worst = 0.0
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            xy = ext.element_index(ext.compose(x, y))
            dbeta = np.conj(beta[i]) * np.conj(beta[j]) * beta[xy]
            worst = max(worst, abs(omega.evaluate(i, j) * dbeta - sigma.evaluate(x, y)))
    assert worst <= 1e-12


def test_assembled_star_is_involutive():
    ext = fixtures.q8_extension()
    sigma = fixtures.random_coboundary(ext, seed=1)
    sys = induced_action_data(ext, sigma)
    basis, index, blocks = assemble_crossed_product(sys)
    assert max(blocks.residuals.values()) <= 1e-9


def test_seed_changes_projections_not_sizes(q8):
    d0 = decompose_blocks(q8, TrivialCocycle(q8), seed=0)
    d1 = decompose_blocks(q8, TrivialCocycle(q8), seed=1)
    assert sorted(d0.block_sizes) == sorted(d1.block_sizes)
    match, diff = crossed.compare_block_structure(d0, d1)
    assert match and diff == {}


def test_compare_block_structure_diff(s3, q8):
    d1 = decompose_blocks(s3, TrivialCocycle(s3))
    d2 = decompose_blocks(q8, TrivialCocycle(q8))
    match, diff = crossed.compare_block_structure(d1, d2)
    assert not match
    assert diff["only_in_second"] == [1, 1]


def _regular_class_count(G, sigma):
    """Conjugacy classes of g with sigma(g, h) = sigma(h, g) for every h that
    commutes with g, counted by the definition."""
    els = G.elements()
    seen, count = set(), 0
    for g in els:
        if g in seen:
            continue
        seen |= {G.compose(G.compose(h, g), G.invert(h)) for h in els}
        count += all(abs(sigma.evaluate(g, h) - sigma.evaluate(h, g)) <= 1e-9
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


def test_s5_block_sizes():
    S5 = fixtures.symmetric(5)
    dec = decompose_blocks(S5, TrivialCocycle(S5))
    assert sorted(dec.block_sizes) == [1, 1, 4, 4, 5, 5, 6]
    assert max(dec.residuals.values()) <= 1e-10


def test_decompose_needs_a_finite_table_group():
    ext = fixtures.q8_extension()
    with pytest.raises(Unsupported, match="decompose needs a finite-table group"):
        decompose_blocks(ext, TrivialCocycle(ext))


def test_decompose_evaluates_sigma_once_per_pair(s3):
    calls = []
    sigma = fixtures.random_coboundary(s3, 5)
    evaluate = sigma.evaluate
    sigma.evaluate = lambda x, y: calls.append((x, y)) or evaluate(x, y)
    dec = decompose_blocks(s3, sigma)
    assert sorted(dec.block_sizes) == [1, 1, 2]
    assert len(calls) == s3.order ** 2
