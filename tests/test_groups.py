import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PairLaw, extension_data, order_key
from twistlab import fixtures
from twistlab.algebra import AlgebraElement
from twistlab.errors import (BackendMismatch, InvalidAction, InvalidFactorSet,
                             InvalidGroupTable, MemoryBudgetExceeded, Unsupported)
from twistlab.groups import (ExtensionGroup, FiniteTableGroup, FreeGroup,
                             IntLattice, number_positions, reduce_word)


def test_finite_table_validates():
    with pytest.raises(InvalidGroupTable):
        FiniteTableGroup([[0, 1], [1, 1]])  # not a latin square
    with pytest.raises(InvalidGroupTable):
        FiniteTableGroup([[1, 0], [0, 1]])  # identity not at index 0
    with pytest.raises(InvalidGroupTable, match="empty"):
        FiniteTableGroup([])
    with pytest.raises(InvalidGroupTable, match="not integers"):
        FiniteTableGroup([[0, 1], [1, 0.0]])
    with pytest.raises(InvalidGroupTable, match="not integers"):
        FiniteTableGroup([[0, 1], [1, False]])
    with pytest.raises(InvalidGroupTable, match=r"not integers in \[0, 2\)"):
        FiniteTableGroup([[0, 1], [1, 2]])


# a Latin square with identity 0 that is not a group
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 4, 3, 2, 0],
         [2, 3, 4, 0, 1],
         [3, 0, 1, 4, 2],
         [4, 2, 0, 1, 3]]


def test_associativity_failure_names_the_first_triple():
    table = LOOP5
    first = next((i, j, k) for i in range(5) for j in range(5) for k in range(5)
                 if table[table[i][j]][k] != table[i][table[j][k]])
    with pytest.raises(InvalidGroupTable) as err:
        FiniteTableGroup(table)
    assert str(err.value) == f"associativity fails at {first}"


def test_s3_group_axioms(s3):
    els = s3.elements()
    assert len(els) == 6
    for a in els:
        assert s3.compose(a, s3.invert(a)) == s3.identity()
        for b in els:
            for c in els:
                assert (s3.compose(s3.compose(a, b), c)
                        == s3.compose(a, s3.compose(b, c)))


def test_quaternion_relations(q8):
    # labels (sign, unit); check i^2 = j^2 = k^2 = ijk = -1
    i = q8.index_of_label((1, "i"))
    j = q8.index_of_label((1, "j"))
    k = q8.index_of_label((1, "k"))
    minus = q8.index_of_label((-1, "1"))
    assert q8.compose(i, i) == minus
    assert q8.compose(j, j) == minus
    assert q8.compose(k, k) == minus
    assert q8.compose(q8.compose(i, j), k) == minus
    assert q8.compose(i, j) == k
    assert q8.compose(j, i) == q8.index_of_label((-1, "k"))


def test_free_group_reduction_and_inverse(f2):
    x, y = f2.generator(1), f2.generator(2)
    w = f2.compose(x, f2.compose(y, f2.invert(y)))
    assert w == x
    assert reduce_word([1, 2, -2, -1]) == ()
    assert f2.compose(w, f2.invert(w)) == ()


def test_free_ball_sizes_shortlex(f2):
    # |B_r| = 2 * 3^r - 1 on the 4-regular tree
    for r in range(5):
        ball = f2.enumerate_ball(r)
        assert len(ball) == 2 * 3**r - 1
        keys = [order_key(f2, g) for g in ball]
        assert keys == sorted(keys)
    assert f2.enumerate_ball(1) == [(), (1,), (-1,), (2,), (-2,)]


def test_free_word_string_roundtrip(f2):
    w = (1, 2, -1, -1, 2)
    s = f2.element_to_json(w)
    assert s == "x1 x2 x1^-1 x1^-1 x2"
    assert f2.element_from_json(s) == w
    assert f2.element_from_json("") == ()


def test_lattice_ball_l1():
    z2 = IntLattice(2)
    assert len(z2.enumerate_ball(0)) == 1
    assert len(z2.enumerate_ball(1)) == 5
    assert len(z2.enumerate_ball(2)) == 13
    assert z2.compose((1, 2), (3, -1)) == (4, 1)
    assert z2.word_length((2, -3)) == 5


def test_extension_builds_and_inverts():
    for name, ext in fixtures.standard_extensions().items():
        e = ext.identity()
        for g in ext.elements():
            assert ext.compose(g, ext.invert(g)) == e, name
            assert ext.compose(ext.invert(g), g) == e, name


def test_extension_rejects_broken_factor_set():
    ext = fixtures.q8_extension()
    action, broken = extension_data(ext)
    key = next(k for k in broken if broken[k] != 0)
    broken[key] = (broken[key] + 1) % ext.K.order
    with pytest.raises(InvalidFactorSet):
        ExtensionGroup(ext.K, ext.quotient, action, broken)


def test_extension_rejects_broken_action():
    ext = fixtures.s4_v4_extension()
    action, factor_set = extension_data(ext)
    h = next(h for h in action if h != ext.quotient.identity())
    action[h][1], action[h][2] = action[h][2], action[h][1]
    with pytest.raises((InvalidAction, InvalidFactorSet)):
        ExtensionGroup(ext.K, ext.quotient, action, factor_set)


def _extension_axioms_by_loops(K, L, action, factor_set):
    """The per-element checks ExtensionGroup made before it read its index
    table, kept as an oracle: the same errors, in the same order."""
    hs = L.elements()
    e_l = L.identity()
    for h in hs:
        p = action.get(h)
        if p is None or sorted(p) != list(range(K.order)):
            raise InvalidAction(f"action value at {h!r} is not a permutation of K", witness=h)
        for x in range(K.order):
            for y in range(K.order):
                if p[K.compose(x, y)] != K.compose(p[x], p[y]):
                    raise InvalidAction(
                        f"action at {h!r} is not an automorphism: phi(xy) != phi(x)phi(y) "
                        f"at (x, y) = ({x}, {y})",
                        witness=(h, x, y),
                    )
    if tuple(action[e_l]) != tuple(range(K.order)):
        raise InvalidAction("action of the quotient identity is not the identity map", witness=e_l)
    for (h1, h2), k in factor_set.items():
        if not 0 <= k < K.order:
            raise InvalidFactorSet(f"kappa({h1!r}, {h2!r}) = {k!r} is not an element of K",
                                   witness=(h1, h2))
    for h in hs:
        if factor_set[(e_l, h)] != 0 or factor_set[(h, e_l)] != 0:
            raise InvalidFactorSet(f"kappa is not normalised at {h!r}", witness=h)
    for h1 in hs:
        for h2 in hs:
            for h3 in hs:
                lhs = K.compose(action[h1][factor_set[(h2, h3)]],
                                factor_set[(h1, L.compose(h2, h3))])
                rhs = K.compose(factor_set[(h1, h2)],
                                factor_set[(L.compose(h1, h2), h3)])
                if lhs != rhs:
                    raise InvalidFactorSet(
                        f"factor set fails the cocycle condition at ({h1!r}, {h2!r}, {h3!r})",
                        witness=(h1, h2, h3),
                    )
    for h1 in hs:
        for h2 in hs:
            kap = factor_set[(h1, h2)]
            p12 = action[L.compose(h1, h2)]
            p1, p2 = action[h1], action[h2]
            for k in range(K.order):
                lhs = p1[p2[k]]
                rhs = K.compose(K.compose(kap, p12[k]), K.invert(kap))
                if lhs != rhs:
                    raise InvalidAction(
                        f"action incompatible with factor set at ({h1!r}, {h2!r}), k = {k}",
                        witness=(h1, h2, k),
                    )


def _mutate_extension(ext, rng):
    """A copy of ext's action and factor set with one to three faults: two
    action entries swapped (half the time, when |K| > 2, two off the
    identity, which may leave an automorphism), a factor value moved within
    K, or one outside K."""
    action, factor_set = extension_data(ext)
    hs, keys, m = ext.quotient.elements(), list(factor_set), ext.K.order
    for _ in range(1 if rng.random() < 0.5 else int(rng.integers(2, 4))):
        fault = int(rng.integers(3))
        if fault == 0 and m > 1:
            p = action[hs[int(rng.integers(len(hs)))]]
            pool = np.arange(1, m) if m > 2 and rng.random() < 0.5 else np.arange(m)
            i, j = rng.choice(pool, size=2, replace=False)
            p[i], p[j] = p[j], p[i]
        elif fault == 1 and m > 1:
            key = keys[int(rng.integers(len(keys)))]
            factor_set[key] = (factor_set[key] + int(rng.integers(1, m))) % m
        else:
            key = keys[int(rng.integers(len(keys)))]
            factor_set[key] = int(rng.choice([-2, -1, m, m + 1, m + 2]))
    return action, factor_set


def _outcome(build, *args):
    try:
        build(*args)
    except (InvalidAction, InvalidFactorSet) as exc:
        return type(exc), str(exc), exc.witness
    return None


def _s4_over_a4():
    """S4 over A4, the squares of S4: unlike in the five standard extensions,
    K is nonabelian, so phi(x)phi(y) and phi(y)phi(x) differ."""
    S4 = fixtures.symmetric(4)
    squares = sorted({S4.compose(g, g) for g in range(S4.order)})
    return fixtures.extension_from_subgroup(S4, squares)


@pytest.mark.parametrize("name", [*sorted(fixtures.standard_extensions()), "S4/A4"])
def test_extension_errors_keep_their_class_message_and_witness(name):
    ext = _s4_over_a4() if name == "S4/A4" else fixtures.standard_extensions()[name]
    rng = np.random.default_rng(2024)
    outcomes = []
    for _ in range(300):
        action, factor_set = _mutate_extension(ext, rng)
        args = (ext.K, ext.quotient, action, factor_set)
        outcome = _outcome(_extension_axioms_by_loops, *args)
        assert _outcome(ExtensionGroup, *args) == outcome
        outcomes.append(outcome and outcome[0])
    # the corpus reaches every kind of check the oracle makes
    assert {InvalidAction, InvalidFactorSet} <= set(outcomes)


def test_extension_over_an_infinite_quotient_is_refused():
    with pytest.raises(Unsupported, match="extension quotients must be finite"):
        ExtensionGroup(fixtures.cyclic(2), FreeGroup(1), {(): (0, 1)}, {((), ()): 0})


def test_extension_elements_are_their_indices():
    for name, ext in fixtures.standard_extensions().items():
        assert ext.elements() == list(range(ext.order)), name
        assert ext.elements() == sorted(ext.elements(), key=lambda g: order_key(ext, g)), name


def test_finite_words_are_the_elements_at_their_indices():
    groups = {**fixtures.standard_groups(), **fixtures.standard_extensions()}
    for name, G in groups.items():
        elems = G.elements()
        assert G.words(np.arange(len(elems))) == elems, name
        assert G.words(np.array([len(elems) - 1, 0, 0])) == [elems[-1], elems[0], elems[0]]


@pytest.mark.parametrize("G", [fixtures.symmetric(3), fixtures.q8_extension()],
                         ids=["S3", "Q8-extension"])
def test_finite_products_gather_on_the_index_table(G):
    T = G.multiplication_table()
    xs, ys = np.array([0, 5, 3, 3, 1]), np.array([4, 0, 2, 5])
    got = G.products(xs[:, None], ys)
    assert got.shape == (5, 4) and np.array_equal(got, T[xs[:, None], ys])
    for x, y in np.ndindex(got.shape):
        assert G.words([got[x, y]]) == [G.compose(*G.words([xs[x], ys[y]]))]
    # broadcast as numpy broadcasts: a row against a column, and flat pairs
    assert np.array_equal(G.products(xs[:4], ys[:, None]), T[xs[:4], ys[:, None]])
    assert G.products(xs[:4], ys).tolist() == [int(T[x, y]) for x, y in zip(xs, ys)]
    assert G.products(xs[:0, None], ys).shape == (0, 4)


@pytest.mark.parametrize("G", [fixtures.symmetric(3), fixtures.q8_extension(),
                               *map(FreeGroup, (1, 2, 3)), *map(IntLattice, (1, 2, 3, 4))],
                         ids=["S3", "Q8-extension", "F1", "F2", "F3", "Z1", "Z2", "Z3", "Z4"])
def test_the_identity_is_at_position_0(G):
    assert G.positions([G.identity()]).tolist() == [0]
    assert G.words([0]) == [G.identity()] and G.ball_positions(2)[0] == 0


@pytest.mark.parametrize("G", [FreeGroup(2), IntLattice(2)], ids=lambda G: G.kind)
def test_infinite_backends_refuse_element_lists_as_unsupported(G):
    for call in (G.elements, G.multiplication_table):
        with pytest.raises(Unsupported, match=f"^{G.kind} backend is not finite$"):
            call()


def test_q8_extension_is_q8(q8):
    ext = fixtures.q8_extension()
    src = ext.source
    assert src.order == 8
    table = {(a, b): src.compose(a, b) for a in range(8) for b in range(8)}
    # the extension multiplication must realize the same group via its
    # element bijection
    pairs = ext.elements()
    assert len(pairs) == 8
    # bijection: match by order statistics of the regular action
    from collections import Counter

    def profile(G, els, comp):
        out = Counter()
        for g in els:
            n, p = 1, g
            while p != els[0]:
                p = comp(p, g)
                n += 1
            out[n] += 1
        return out

    assert (profile(src, list(range(8)), src.compose)
            == profile(ext, pairs, ext.compose))


def _s3_by_z2_off_the_centre():
    """S3 by Z2 with phi_1 = Ad c and kappa(1, 1) = c^-1 for a 3-cycle c:
    kappa takes a value off the centre of K, so k1 phi(k2) kappa and
    k1 kappa phi(k2) differ."""
    K = fixtures.symmetric(3)
    c = next(g for g in range(1, K.order) if K.compose(K.compose(g, g), g) == 0)
    ad = tuple(K.compose(K.compose(c, k), K.invert(c)) for k in range(K.order))
    return ExtensionGroup(K, fixtures.cyclic(2), {0: tuple(range(K.order)), 1: ad},
                          {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): K.invert(c)})


EXTENSIONS = [*sorted(fixtures.standard_extensions()), "S4/A4", "S3.Z2"]


def _extension(name):
    return {"S4/A4": _s4_over_a4, "S3.Z2": _s3_by_z2_off_the_centre}.get(
        name, lambda: fixtures.standard_extensions()[name])()


@pytest.mark.parametrize("name", EXTENSIONS)
def test_extension_table_is_the_pair_law(name):
    ext = _extension(name)
    K, L, law = ext.K, ext.quotient, PairLaw(ext)
    elems = ext.elements()
    # the pairs in index order: the quotient's elements in order, K fastest
    assert [law.pair(x) for x in elems] == [(k, h) for h in L.elements() for k in K.elements()]
    assert law.index(law.section(L.identity())) == ext.identity()
    assert ext.multiplication_table().tolist() == [[law.compose(x, y) for y in elems]
                                                   for x in elems]
    assert [ext.invert(x) for x in elems] == [law.invert(x) for x in elems]


@pytest.mark.parametrize("name", EXTENSIONS)
def test_extension_phi_and_kappa_are_read_off_the_section(name):
    # with s(h) = (e, h) at |K| h: s(h) k s(h)^-1 = phi_h(k) and
    # s(h1) s(h2) s(h1 h2)^-1 = kappa(h1, h2), gathered on the index table
    ext = _extension(name)
    T, m = ext.multiplication_table(), ext.K.order
    inv = np.nonzero(T == 0)[1]
    s1 = np.arange(ext.quotient.order)[:, None] * m
    s2, k = s1.T, np.arange(m)
    assert np.array_equal(T[T[s1, k], inv[s1]], ext.phi)
    assert np.array_equal(T[T[s1, s2], inv[T[s1, s2] // m * m]], ext.kappa)
    assert not ext.phi.flags.writeable and not ext.kappa.flags.writeable


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-2, 2).filter(lambda v: v != 0), max_size=12),
       st.lists(st.integers(-2, 2).filter(lambda v: v != 0), max_size=12))
def test_free_compose_matches_reduce_oracle(u, v):
    f2 = FreeGroup(2)
    a, b = reduce_word(u), reduce_word(v)
    assert f2.compose(a, b) == reduce_word(list(a) + list(b))


def test_element_json_roundtrip_all_backends(s3, f2):
    z2 = IntLattice(2)
    ext = fixtures.q8_extension()
    cases = [(s3, 4), (f2, (1, -2, 1)), (z2, (3, -1)), (ext, ext.elements()[5])]
    for G, g in cases:
        assert G.element_from_json(G.element_to_json(g)) == g


def listed_ball(k, r):
    """B_r of F_k in shortlex order, level by level: each word of the last
    sphere followed by every letter that does not cancel its last one."""
    letters = [v for i in range(1, k + 1) for v in (i, -i)]
    ball, sphere = [()], [()]
    for _ in range(r):
        sphere = [w + (v,) for w in sphere for v in letters if not w or w[-1] != -v]
        ball.extend(sphere)
    return ball


@pytest.mark.parametrize("k", [1, 2, 3])
def test_free_ball_positions_roundtrip(k):
    G = FreeGroup(k)
    r = 6
    ball = listed_ball(k, r)
    sizes = [len(listed_ball(k, n)) for n in range(r + 1)]
    assert [G.ball_size(n) for n in range(r + 1)] == sizes
    positions = G.ball_positions(r)
    # positions strictly increase along the shortlex ball, and words inverts them
    assert (np.diff(positions) > 0).all()
    assert G.words(positions) == ball == G.enumerate_ball(r)
    assert G.positions(ball).tolist() == positions.tolist()
    # each word of B_4 times the identity, on either side, is itself
    short = positions[:sizes[4]]
    assert G.products(short[:, None], [0])[:, 0].tolist() == short.tolist()
    assert G.products([0], short).tolist() == short.tolist()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_free_letter_maps_match_compose(k):
    G = FreeGroup(k)
    r = 6
    ball = G.enumerate_ball(r)
    letters = ball[1:2 * k + 1]
    images = G.products(G.positions(letters)[:, None], G.ball_positions(r))
    for s, row in zip(letters, images):
        assert G.words(row) == [G.compose(s, w) for w in ball]


def test_free_ball_positions_agree_with_the_generic_path(f2):
    # the generic Group.products decodes both sides, composes the words and
    # encodes the products
    from twistlab.groups import Group
    gs = f2.positions([(), (1,), (-2, 1), (2, 2, -1, 2), (-1, -2, -1)])
    ball = f2.ball_positions(4)
    assert f2.products(gs[:, None], ball).tolist() == Group.products(f2, gs[:, None], ball).tolist()
    assert f2.products(ball[:, None], gs).tolist() == Group.products(f2, ball[:, None], gs).tolist()
    # element-wise products are the diagonal of the outer ones, on both paths
    xs, ys = ball[:60], ball[::-1][:60]
    for products in (f2.products, lambda xs, ys: Group.products(f2, xs, ys)):
        assert products(xs, ys).tolist() == np.diagonal(products(xs[:, None], ys)).tolist()


# the longest words whose positions, at most (2k + 1)^n - 1, fit in int64
INT64_LETTERS = {1: 39, 2: 27, 3: 22}


def random_reduced_word(k, n, rng):
    letters = [v for i in range(1, k + 1) for v in (i, -i)]
    word = []
    while len(word) < n:
        v = letters[rng.integers(len(letters))]
        if not word or word[-1] != -v:
            word.append(v)
    return tuple(word)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_free_positions_at_the_int64_limit(k, extra):
    G = FreeGroup(k)
    n = INT64_LETTERS[k] + extra
    dtype = np.dtype(np.int64 if extra <= 0 else object)
    rng = np.random.default_rng(10 * k + extra)
    # (-k,) * n has the last position of length n, (2k + 1)^n - 1
    words = [(1,) * n, (-k,) * n] + [random_reduced_word(k, n, rng) for _ in range(6)]
    pos = G.positions(words)
    assert pos.dtype == dtype and G.words(pos) == words
    assert int(pos[1]) == (2 * k + 1) ** n - 1
    ordered = sorted(set(words) | {(-k,) * (n - 1)}, key=lambda g: order_key(G, g))
    assert (np.diff(G.positions(ordered).astype(object)) > 0).all()
    # x w and g b, both of length at most n: the same dtype switch
    shorter = [w[:-1] for w in words]
    ws = [(), (1,), (-1,), (k,), (-k,)]
    got = G.products(G.positions(shorter)[:, None], G.positions(ws))
    assert got.dtype == dtype
    for j, w in enumerate(ws):
        assert G.words(got[:, j]) == [G.compose(x, w) for x in shorter]
    ball = G.ball_positions(1)
    images = G.products(G.positions(shorter)[:, None], ball)
    assert images.dtype == dtype and G.words(ball) == G.enumerate_ball(1)
    for g, row in zip(shorter, images):
        assert G.words(row) == [G.compose(g, b) for b in G.enumerate_ball(1)]


def test_free_words_decode_long_f1_positions_in_int64_chunks():
    # F1's 201 words of up to 100 letters: up to three chunks of 39 digits
    G = FreeGroup(1)
    ball = G.enumerate_ball(100)
    assert ball == listed_ball(1, 100)
    pos = G.positions(ball)
    assert pos.dtype == object and (np.diff(pos) > 0).all()
    assert G.ball_positions(100).tolist() == pos.tolist()
    assert G.words(pos) == ball and G.words(pos[::-1]) == ball[::-1]


def test_free_ball_positions_beyond_int64_are_refused(f2):
    # |B_40| = 2 * 3^40 - 1 > 2^63: its positions do not fit the int64 arithmetic
    with pytest.raises(MemoryBudgetExceeded):
        f2.ball_positions(40)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_free_products_are_the_positions_of_the_composed_words(k):
    G = FreeGroup(k)
    n = INT64_LETTERS[k]
    rng = np.random.default_rng(k)
    # lengths up to past the int64 limit, so some positions are Python ints
    xw = [random_reduced_word(k, int(m), rng) for m in rng.integers(0, n + 6, 10)]
    yw = [random_reduced_word(k, int(m), rng) for m in rng.integers(0, n + 6, 8)]
    assert object in (G.positions(xw).dtype, G.positions(yw).dtype)
    # x0 y = e, and x1 y cancelling all but the first letter of x1
    yw += [G.invert(xw[0]), G.invert(xw[1][1:]), ()]
    short = [w for w in xw if len(w) < n // 2]
    assert G.products(G.positions(short)[:, None], G.positions(short)).dtype == np.int64
    for xs, ys in ((xw, yw), (yw, xw), (short, yw), (xw, short), (short, short),
                   ([], yw), (xw, [])):
        xp, yp = G.positions(xs), G.positions(ys)
        got = G.products(xp[:, None], yp)
        assert got.shape == (len(xs), len(ys))
        want = G.positions([G.compose(x, y) for x in xs for y in ys])
        assert got.ravel().tolist() == want.tolist()
        # x along the inner axis, as _convolve_terms lays out a longer x
        assert G.products(xp[None, :], yp[:, None]).T.tolist() == got.tolist()
    for r in range(5):
        assert G.enumerate_ball(r) == G.words(G.ball_positions(r)) == listed_ball(k, r)


def test_backend_mismatch_names_what_differs():
    with pytest.raises(BackendMismatch, match=r"^finite-table backends differ in order: 6 vs 8$"):
        fixtures.symmetric(3).check_same(fixtures.quaternion())
    with pytest.raises(BackendMismatch, match=r"^free backends differ in rank: 2 vs 3$"):
        FreeGroup(2).check_same(FreeGroup(3))
    with pytest.raises(BackendMismatch, match=r"^finite-table vs free backends differ$"):
        fixtures.symmetric(3).check_same(FreeGroup(2))
    # same order, different table: too long to print, so only the key is named
    with pytest.raises(BackendMismatch, match=r"^finite-table backends differ in table$"):
        fixtures.cyclic(4).check_same(fixtures.klein_four())


def lattice_box(Z, r):
    """B_r of Z: the points of the box [-r, r]^d of norm at most r, sorted
    by order_key."""
    return sorted((p for p in itertools.product(range(-r, r + 1), repeat=Z.dim)
                   if sum(map(abs, p)) <= r), key=lambda p: order_key(Z, p))


def test_lattice_ball_matches_the_filtered_box_and_the_closed_form():
    for d in (1, 2, 3, 4):
        Z = IntLattice(d)
        for r in range(5):
            box = lattice_box(Z, r)
            assert Z.enumerate_ball(r) == box
            assert Z.ball_size(r) == len(box)
    # the box of Z^40 at r = 1 has 3^40 points; the ball has 81
    assert len(IntLattice(40).enumerate_ball(1)) == IntLattice(40).ball_size(1) == 81


def test_lattice_positions_are_the_ball_indices_in_closed_form(record_calls):
    for d in (1, 2, 3, 4):
        Z = IntLattice(d)
        ball = lattice_box(Z, 4)
        assert Z.positions(ball).tolist() == list(range(len(ball)))
        assert Z.words(np.arange(len(ball))[::-1]) == ball[::-1]
    # far points: no ball is listed, and the positions keep the ball order
    Z = IntLattice(3)
    balls = record_calls(Z, "enumerate_ball")
    far = sorted([(200, 0, 0), (-200, 0, 0), (0, 0, -200), (3, -97, 100), (0, 1, -199),
                  (10 ** 5, -1, 0), (0, 0, 0)], key=lambda p: order_key(Z, p))
    pos = Z.positions(far)
    assert pos.dtype == np.int64 and (np.diff(pos) > 0).all() and Z.words(pos) == far
    assert pos[1] == Z.ball_size(199) and pos[-2] == Z.ball_size(200) - 1
    # past int64 the positions are Python ints, as on a free group
    huge = far + [(-1, 10 ** 7, 0), (10 ** 7 + 1, 0, 0)]
    pos = Z.positions(huge)
    assert pos.dtype == object and pos[-1] == Z.ball_size(10 ** 7 + 1) - 1 > 2 ** 63
    assert (np.diff(pos) > 0).all() and Z.words(pos) == huge
    assert balls == []


def test_free_group_of_huge_rank_stores_nothing_per_generator():
    G = FreeGroup(10 ** 30)
    w = (10 ** 30, -7)
    assert G.element_from_json(G.element_to_json(w)) == w
    assert G.compose(w, G.invert(w)) == ()
    assert G.in_order([(-1,), (1,)]) == [(1,), (-1,)]
    # its ball of radius 1 already has more than 2^63 words
    pos = G.positions([w, (), (-1,)])
    assert pos.dtype == object and G.words(pos) == [w, (), (-1,)]


def test_factor_set_values_outside_k_are_rejected():
    ext = fixtures.q8_extension()
    action, broken = extension_data(ext)
    key = next(iter(broken))
    broken[key] = ext.K.order
    with pytest.raises(InvalidFactorSet, match="is not an element of K"):
        ExtensionGroup(ext.K, ext.quotient, action, broken)


def test_check_same_on_itself_reads_no_description(s3):
    G = fixtures.symmetric(3)
    G.describe = None  # any call would raise
    G.check_same(G)
    assert G.same_backend(G)


@pytest.mark.parametrize("G", [fixtures.quaternion(), fixtures.q8_extension()],
                         ids=["finite-table", "extension"])
def test_finite_positions_are_element_indices(G):
    elems = G.elements()
    pos = G.positions(elems)
    assert pos.dtype == np.int64 and pos.tolist() == list(range(len(elems)))
    xs = elems[::-3]
    assert G.words(G.positions(xs)) == xs
    assert G.positions([]).tolist() == []


INFINITE = {**{f"F{k}": FreeGroup(k) for k in (1, 2, 3)},
            **{f"Z{d}": IntLattice(d) for d in (1, 2, 3, 4)}}


def _order_case(name, rng):
    """A group and a list of its elements: on F_k a ball and words on both
    sides of the int64 limit, on Z^d a box and far points, some past int64."""
    G = INFINITE.get(name)
    if G is None:
        G = fixtures.symmetric(3) if name == "S3" else _extension(name)
        return G, G.elements()
    if G.kind == "free":
        n = INT64_LETTERS[G.rank]
        return G, G.enumerate_ball(2) + [random_reduced_word(G.rank, int(m), rng)
                                         for m in rng.integers(n - 3, n + 4, 12)]
    far = [tuple(rng.integers(-10 ** 6, 10 ** 6, G.dim).tolist()) for _ in range(8)]
    huge = [(10 ** 19,) + (0,) * (G.dim - 1), (0,) * (G.dim - 1) + (-10 ** 19,)]
    return G, lattice_box(G, 2) + far + huge


@pytest.mark.parametrize("name", [*INFINITE, "S3", *sorted(fixtures.standard_extensions())])
def test_the_position_order_is_the_defined_order(name):
    rng = np.random.default_rng(25)
    G, elems = _order_case(name, rng)
    if G.kind in ("free", "int-lattice"):
        assert G.positions(elems).dtype == object
    # duplicates are kept
    shuffled = [elems[i] for i in rng.permutation(len(elems))] + elems[:3]
    want = sorted(shuffled, key=lambda g: order_key(G, g))
    assert G.in_order(shuffled) == want
    a = AlgebraElement(G, {g: complex(i + 1, -i) for i, g in enumerate(shuffled)})
    assert a.support() == sorted(set(shuffled), key=lambda g: order_key(G, g))
    assert [t["g"] for t in a.to_json()["terms"]] == list(map(G.element_to_json, a.support()))


@pytest.mark.parametrize("name", [*sorted(fixtures.standard_groups()), *EXTENSIONS])
def test_a_finite_group_keeps_one_read_only_table_and_its_inverses(name):
    G = fixtures.standard_groups().get(name) or _extension(name)
    T, inv = G.table, G.inverses
    assert T.dtype == np.intp and not T.flags.writeable and not inv.flags.writeable
    assert G.multiplication_table() is T
    idx = np.arange(G.order)
    assert (T[idx, inv] == 0).all() and (T[inv, idx] == 0).all()
    for g in (0, G.order - 1):
        assert type(G.compose(g, g)) is int and type(G.invert(g)) is int
        assert G.compose(g, G.invert(g)) == 0
    if G.kind == "extension":
        assert not hasattr(G, "action") and not hasattr(G, "factor_set")


def test_number_positions_numbers_as_np_unique_does():
    f2, z3 = FreeGroup(2), IntLattice(3)
    rng = np.random.default_rng(5)
    # int64 positions with repeats; F2 words past int64 and Z^3 points at
    # 10^7, whose positions are Python ints in object arrays, mixed with
    # small ones and repeated
    small = rng.choice(f2.ball_positions(4), 300)
    long_words = [(1, 2) * 20, (1,) * 39, (-2,) * 45, (1,), (), (2, -1)]
    far = [(10**7, 0, 0), (0, -10**7, 3), (1, 2, 3), (0, 0, 0), (-10**7, 10**7, 0)]
    cases = {
        "int64": small,
        "free-object": f2.positions([long_words[i] for i in rng.integers(0, 6, 40)]),
        "lattice-object": z3.positions([far[i] for i in rng.integers(0, 5, 40)]),
        "empty-int64": np.zeros(0, dtype=np.int64),
        "empty-object": np.zeros(0, dtype=object),
        "all-equal": np.full(9, 17, dtype=np.int64),
        "all-equal-object": np.array([2**70] * 4, dtype=object),
    }
    assert cases["free-object"].dtype == object and cases["lattice-object"].dtype == object
    for name, pos in cases.items():
        distinct, inverse = number_positions(pos)
        want, want_inverse = np.unique(pos, return_inverse=True)
        assert distinct.dtype == pos.dtype, name
        assert distinct.tolist() == want.tolist(), name
        assert inverse.dtype == np.intp and inverse.tolist() == want_inverse.ravel().tolist(), name


def _word_lengths(T, generators):
    """Each index's least number of factors from generators, by a
    breadth-first search over Python sets; -1 where none reaches it."""
    lengths, frontier, k = {0: 0}, [0], 0
    while frontier:
        k += 1
        frontier = [g for g in {T[x][s] for x in frontier for s in generators} if g not in lengths]
        lengths.update(dict.fromkeys(frontier, k))
    return [lengths.get(g, -1) for g in range(len(T))]


@pytest.mark.parametrize("n, generators, diameter", [(4, [1, 2, 6], 6), (5, [1, 2, 6, 24], 10),
                                                     (6, [1, 2, 6, 24, 120], 15)])
def test_symmetric_groups_keep_their_generators_and_diameter(n, generators, diameter):
    G = fixtures.symmetric(n)
    assert G.generators.tolist() == generators and G.diameter == diameter
    assert not G.generators.flags.writeable
    lengths = _word_lengths(G.table.tolist(), generators)
    assert min(lengths) == 0 and max(lengths) == diameter


@pytest.mark.parametrize("name", [*sorted(fixtures.standard_groups()), *EXTENSIONS])
def test_every_finite_group_picks_generators_that_reach_every_index(name):
    G = fixtures.standard_groups().get(name) or _extension(name)
    T = G.table.tolist()
    gens = G.generators.tolist()
    lengths = _word_lengths(T, gens)
    assert min(lengths) == 0 and max(lengths) == G.diameter
    # greedy: each generator is the least index the ones before it do not reach
    for i, s in enumerate(gens):
        assert s == _word_lengths(T, gens[:i]).index(-1)
    assert G.generators.dtype == np.intp


def test_the_trivial_group_has_no_generators():
    G = FiniteTableGroup([[0]])
    assert G.generators.tolist() == [] and G.diameter == 0


def _first_triple(T):
    """The first (i, j, l), row-major, with (ij)l != i(jl), from the whole
    cube at once."""
    T = np.asarray(T)
    bad = np.argwhere(T[T] != T[np.arange(len(T))[:, None, None], T[None]])
    return tuple(map(int, bad[0])) if len(bad) else None


@pytest.mark.parametrize("n, swaps", [(4, 150), (5, 40)])
def test_a_swap_in_a_row_fails_associativity_at_the_first_triple(n, swaps):
    # swapping two entries of a row off the identity's row and column keeps
    # every check before associativity, and no such table is a group
    table = fixtures.symmetric(n).table
    rng = np.random.default_rng(n)
    for _ in range(swaps):
        T = table.copy()
        i = rng.integers(1, len(T))
        j, k = rng.choice(np.arange(1, len(T)), size=2, replace=False)
        T[i, [j, k]] = T[i, [k, j]]
        first = _first_triple(T)
        assert first is not None
        with pytest.raises(InvalidGroupTable) as err:
            FiniteTableGroup(T.tolist())
        assert str(err.value) == f"associativity fails at {first}"


def test_every_generator_is_checked_for_associativity():
    # Z2 x LOOP5 with (g, l) at index 2 l + g: the first generator, (1, 0),
    # associates with everything, and the second, (0, 1), does not
    table = [[2 * LOOP5[a // 2][b // 2] + (a + b) % 2 for b in range(10)] for a in range(10)]
    with pytest.raises(InvalidGroupTable) as err:
        FiniteTableGroup(table)
    assert str(err.value) == f"associativity fails at {_first_triple(table)}"
    G = FiniteTableGroup(table, validate=False)
    assert G.generators.tolist() == [1, 2]
    idx = np.arange(10)
    assert not (G.table[G.table[:, [1]], idx] != G.table[idx[:, None], G.table[1]]).any()
