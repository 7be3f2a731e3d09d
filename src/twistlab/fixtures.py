"""Standard finite groups, extensions, and seeded random data used in tests,
scripts, and the CLI fixture dump.

All constructions are deterministic; randomness always flows through an
explicit seed.
"""

from __future__ import annotations

import cmath
import hashlib
import itertools
import math

import numpy as np

from .cocycles import CoboundaryCocycle, ProductCocycle, TableCocycle, TrivialCocycle
from .groups import ExtensionGroup, FiniteTableGroup


def finite_group_from_elements(elements, mul, name=""):
    """Multiplication table from explicit elements; element 0 must be e."""
    idx = {g: i for i, g in enumerate(elements)}
    table = [[idx[mul(a, b)] for b in elements] for a in elements]
    return FiniteTableGroup(table, labels=list(elements), name=name)


def cyclic(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteTableGroup(table, labels=list(range(n)), name=f"Z{n}")


def cyclic_product(ns):
    """Direct product Z_{n1} x ... x Z_{nk} with tuple labels."""
    elems = list(itertools.product(*(range(n) for n in ns)))
    mul = lambda a, b: tuple((x + y) % n for x, y, n in zip(a, b, ns))
    return finite_group_from_elements(elems, mul, name="x".join(f"Z{n}" for n in ns))


def symmetric(n):
    """S_n as permutation tuples, identity first, composing left-then-right
    as functions: (p*q)(i) = p[q[i]]."""
    elems = sorted(itertools.permutations(range(n)))
    mul = lambda p, q: tuple(p[q[i]] for i in range(n))
    return finite_group_from_elements(elems, mul, name=f"S{n}")


def dihedral(n):
    """Dihedral group of order 2n: elements (r, s) = rotation^r * flip^s."""
    elems = [(r, s) for s in range(2) for r in range(n)]

    def mul(a, b):
        r1, s1 = a
        r2, s2 = b
        r = (r1 + (r2 if s1 == 0 else -r2)) % n
        return (r, (s1 + s2) % 2)

    return finite_group_from_elements(elems, mul, name=f"D{n}")


def quaternion():
    """Q8 with elements (sign, unit) for sign in {1,-1}, unit in {1,i,j,k}."""
    units = ["1", "i", "j", "k"]
    rules = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }
    elems = [(s, u) for s in (1, -1) for u in units]
    elems.remove((1, "1"))
    elems.insert(0, (1, "1"))

    def mul(a, b):
        s, u = rules[(a[1], b[1])]
        return (a[0] * b[0] * s, u)

    return finite_group_from_elements(elems, mul, name="Q8")


def klein_four():
    return cyclic_product([2, 2])


def extension_from_subgroup(G: FiniteTableGroup, k_indices, name=""):
    """Extract (K, Lambda, action, factor set) from a normal subgroup of G.

    Coset representatives are the minimal-index element of each coset, so the
    identity coset gets the identity representative and the factor set is
    normalised.
    """
    k_set = set(k_indices)
    k_list = sorted(k_set)
    if 0 not in k_set:
        raise ValueError("subgroup must contain the identity")
    for a in k_list:
        for g in range(G.order):
            if G.compose(G.compose(g, a), G.invert(g)) not in k_set:
                raise ValueError(f"subgroup is not normal: conjugate of {a} by {g} escapes")
    k_index = {g: i for i, g in enumerate(k_list)}
    K = FiniteTableGroup(
        [[k_index[G.compose(a, b)] for b in k_list] for a in k_list],
        labels=[G.label(g) for g in k_list],
        name=name + "_K",
    )

    # cosets of K, keyed by minimal representative
    assigned = {}
    reps = []
    for g in range(G.order):
        if g in assigned:
            continue
        coset = sorted(G.compose(g, a) for a in k_list)
        rep = coset[0]
        reps.append(rep)
        for c in coset:
            assigned[c] = rep
    reps.sort()
    rep_index = {r: i for i, r in enumerate(reps)}
    table = [[rep_index[assigned[G.compose(a, b)]] for b in reps] for a in reps]
    quotient = FiniteTableGroup(table, labels=[G.label(r) for r in reps], name=name + "_Q")

    action = {}
    factor = {}
    for hi, r in enumerate(reps):
        perm = []
        for a in k_list:
            perm.append(k_index[G.compose(G.compose(r, a), G.invert(r))])
        action[hi] = tuple(perm)
    for h1, r1 in enumerate(reps):
        for h2, r2 in enumerate(reps):
            prod = G.compose(r1, r2)
            r12 = reps[quotient.compose(h1, h2)]
            factor[(h1, h2)] = k_index[G.compose(prod, G.invert(r12))]
    ext = ExtensionGroup(K, quotient, action, factor)
    ext.source = G
    return ext


def q8_extension():
    """Q8 as an extension of its centre {1, -1} by Z2 x Z2."""
    G = quaternion()
    centre = [i for i in range(G.order) if all(
        G.compose(i, j) == G.compose(j, i) for j in range(G.order))]
    return extension_from_subgroup(G, centre, name="Q8")


def d4_extension():
    """D4 (order 8) as an extension of its centre by Z2 x Z2."""
    G = dihedral(4)
    centre = [i for i in range(G.order) if all(
        G.compose(i, j) == G.compose(j, i) for j in range(G.order))]
    return extension_from_subgroup(G, centre, name="D4")


def s4_v4_extension():
    """S4 as an extension of the Klein four-group V4 by S3."""
    G = symmetric(4)
    v4 = [i for i, p in enumerate(G.labels)
          if all(p[p[j]] == j for j in range(4)) and
          (p == tuple(range(4)) or all(p[j] != j for j in range(4)))]
    return extension_from_subgroup(G, v4, name="S4")


def z3sq_extension():
    """(Z3)^2 as a (trivial-action, trivial-factor-set) extension of Z3 by Z3."""
    G = cyclic_product([3, 3])
    first = [i for i, lab in enumerate(G.labels) if lab[1] == 0]
    return extension_from_subgroup(G, first, name="Z3sq")


def direct_product_extension(K: FiniteTableGroup, L: FiniteTableGroup):
    action = {h: tuple(range(K.order)) for h in range(L.order)}
    factor = {(h1, h2): 0 for h1 in range(L.order) for h2 in range(L.order)}
    return ExtensionGroup(K, L, action, factor)


def clock_shift_group(n):
    """(Z_n)^2 with tuple labels, the carrier of the q^{bc} cocycle."""
    return cyclic_product([n, n])


def clock_shift_cocycle(n, group=None):
    """Table cocycle sigma((a,b),(c,d)) = q^{bc} on (Z_n)^2, q = exp(2 pi i/n)."""
    G = group if group is not None else clock_shift_group(n)
    q = cmath.exp(2j * cmath.pi / n)
    vals = np.empty((G.order, G.order), dtype=complex)
    for x in range(G.order):
        for y in range(G.order):
            (_, b), (c, _) = G.labels[x], G.labels[y]
            vals[x, y] = q ** (b * c)
    return TableCocycle(G, vals)


def clock_shift_matrices(n):
    """Clock U = diag(q^j) and shift V: e_j -> e_{j+1}; W((a,b)) = V^a U^b is a
    projective representation for the q^{bc} cocycle."""
    q = cmath.exp(2j * cmath.pi / n)
    U = np.diag([q ** j for j in range(n)])
    V = np.roll(np.eye(n), 1, axis=0).astype(complex)
    return U, V


def _hash_phase(seed, tag):
    h = hashlib.sha256(f"{seed}|{tag}".encode()).digest()
    frac = int.from_bytes(h[:8], "big") / 2**64
    return cmath.exp(2j * cmath.pi * frac)


def random_beta(G, seed):
    """Seeded unit-modulus phase function with beta(e) = 1.

    For finite backends this is a dict; otherwise a callable that hashes the
    serialized element on every call, stable across runs.  It keeps no
    cache: a CoboundaryCocycle remembers beta by position.
    """
    e = G.identity()
    if G.is_finite:
        beta = {}
        for g in G.elements():
            beta[g] = 1.0 + 0.0j if g == e else _hash_phase(seed, G.element_to_json(g))
        return beta

    def beta(g):
        if g == e:
            return 1.0 + 0.0j
        return _hash_phase(seed, str(G.element_to_json(g)))

    return beta


def random_coboundary(G, seed):
    return CoboundaryCocycle(G, random_beta(G, seed))


def random_bicharacter_table(G: FiniteTableGroup, ns, seed):
    """Bicharacter cocycle on a product of cyclic groups given as a table.

    ``ns`` are the cyclic orders matching the tuple labels of G; the exponent
    matrix is drawn with integer entries so the phase is well-defined mod n.
    """
    rng = np.random.default_rng(seed)
    d = len(ns)
    M = rng.integers(0, max(ns), size=(d, d))
    vals = np.empty((G.order, G.order), dtype=complex)
    for x in range(G.order):
        for y in range(G.order):
            lx, ly = G.labels[x], G.labels[y]
            expo = sum(M[i][j] * lx[i] * ly[j] / ns[j] for i in range(d) for j in range(d))
            vals[x, y] = cmath.exp(2j * cmath.pi * expo)
    return TableCocycle(G, vals)


def random_cocycle_abelian(G: FiniteTableGroup, ns, seed):
    """Seeded bicharacter x coboundary cocycle on a product of cyclic groups."""
    return ProductCocycle([
        random_bicharacter_table(G, ns, seed),
        random_coboundary(G, seed + 10_000),
    ])


def random_element(G, support, seed):
    """Seeded complex-Gaussian coefficients on the given support."""
    from .algebra import AlgebraElement

    rng = np.random.default_rng(seed)
    support = G.in_order(support)
    coeffs = {}
    for g in support:
        coeffs[g] = complex(rng.standard_normal(), rng.standard_normal())
    return AlgebraElement(G, coeffs)


def standard_groups():
    """The finite fixture family used across the test surface."""
    return {
        "Z2": cyclic(2),
        "Z3": cyclic(3),
        "Z4": cyclic(4),
        "Z6": cyclic(6),
        "S3": symmetric(3),
        "D4": dihedral(4),
        "Q8": quaternion(),
        "V4": klein_four(),
        "Z4xZ4": cyclic_product([4, 4]),
    }


def standard_extensions():
    return {
        "Q8/centre": q8_extension(),
        "D4/centre": d4_extension(),
        "S4/V4": s4_v4_extension(),
        "Z3sq/Z3": z3sq_extension(),
        "Z2xS3": direct_product_extension(cyclic(2), symmetric(3)),
    }
