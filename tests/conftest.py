import cmath
import pathlib

import numpy as np
import pytest

from twistlab import fixtures
from twistlab.cocycles import (BicharacterCocycle, CoboundaryCocycle, Cocycle, ConjugateCocycle,
                               ProductCocycle, PullbackCocycle, TableCocycle, TrivialCocycle)
from twistlab.crossed import crossed_cocycle, decompose_blocks
from twistlab.errors import MemoryBudgetExceeded
from twistlab.groups import FreeGroup

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def s3():
    return fixtures.symmetric(3)


@pytest.fixture(scope="session")
def q8():
    return fixtures.quaternion()


@pytest.fixture(scope="session")
def d4():
    return fixtures.dihedral(4)


@pytest.fixture(scope="session")
def f2():
    return FreeGroup(2)


@pytest.fixture
def record_calls(monkeypatch):
    """record_calls(obj, name) wraps the method or module function obj.name,
    until the test ends, so that every call appends its positional argument
    tuple to the list it returns."""
    def wrap(obj, name):
        calls, method = [], getattr(obj, name)
        monkeypatch.setattr(obj, name,
                            lambda *args, **kwargs: calls.append(args) or method(*args, **kwargs))
        return calls
    return wrap


def assembled_blocks(sys, seed=0):
    """The crossed product decomposed on its own, as the twisted group
    algebra of the whole extension under crossed_cocycle: the oracle for the
    blocks the pipeline carries over from the direct decomposition."""
    return decompose_blocks(sys.gamma, crossed_cocycle(sys), seed=seed)


def loop_certificate(G, t, F, L, mem_cap):
    """The free-subsemigroup certificate as a loop over sequences, composing
    words one pair at a time: the reference certify_free_subsemigroup is held
    to.  Returns the certificate's JSON form, or raises
    MemoryBudgetExceeded(products counted, mem_cap) past the cap."""
    gens = [G.compose(t, f) for f in G.in_order(set(F))]
    seen = {}
    frontier = [((), G.identity())]
    checked = 0
    for _ in range(L):
        nxt = []
        for seq, g in frontier:
            for i, h in enumerate(gens):
                seq2 = seq + (i,)
                g2 = G.compose(g, h)
                checked += 1
                if checked > mem_cap:
                    raise MemoryBudgetExceeded(checked, mem_cap)
                if g2 in seen:
                    return {"certified": False, "length": L, "products_checked": checked,
                            "collision": {"sequence_a": list(seen[g2]),
                                          "sequence_b": list(seq2),
                                          "element": G.element_to_json(g2)}}
                seen[g2] = seq2
                nxt.append((seq2, g2))
        frontier = nxt
    return {"certified": True, "length": L, "products_checked": checked, "collision": None}


class LengthPhase(Cocycle):
    """exp(i |x| |y|^2) on a free group: normalised and unit-modulus, but the
    identity fails by a phase 2 |x| |y| |z| on reduced products."""

    def pair_values(self, xs, ys, xys):
        words = self.group.words
        return np.array([cmath.exp(1j * len(x) * len(y) ** 2)
                         for x, y in zip(words(xs), words(ys))], dtype=complex)


class PairLaw:
    """The group law of an extension on (k, h) pairs, from its action phi
    and factor set kappa alone: the reference its gathered index table is
    held to.

        (k1, h1)(k2, h2) = (k1 phi_h1(k2) kappa(h1, h2), h1 h2)
        (k, h)^-1 = (kappa(h^-1, h)^-1 phi_h^-1(k^-1), h^-1)

    with the section s(h) = (e, h).  A pair and the extension's index are
    matched through the JSON form [k, h], not through the index formula.
    compose and invert act on indices, through the pairs, so the law stands
    in for the extension in a reference loop (see law)."""

    def __init__(self, ext):
        self.ext, self.K, self.L = ext, ext.K, ext.quotient

    def times(self, a, b):
        (k1, h1), (k2, h2) = a, b
        K = self.K
        k = K.compose(K.compose(k1, self.ext.phi[h1, k2]), self.ext.kappa[h1, h2])
        return k, self.L.compose(h1, h2)

    def inverse(self, a):
        k, h = a
        K, hi = self.K, self.L.invert(h)
        # the order of the two factors matters for a nonabelian K
        return (K.compose(K.invert(self.ext.kappa[hi, h]), self.ext.phi[hi, K.invert(k)]), hi)

    def section(self, h):
        return self.K.identity(), h

    def pair(self, x):
        k, h = self.ext.element_to_json(x)
        return self.K.element_from_json(k), self.L.element_from_json(h)

    def index(self, a):
        k, h = a
        return self.ext.element_from_json([self.K.element_to_json(k), self.L.element_to_json(h)])

    def compose(self, x, y):
        return self.index(self.times(self.pair(x), self.pair(y)))

    def invert(self, x):
        return self.index(self.inverse(self.pair(x)))


def extension_data(ext):
    """The action and factor set dicts an extension was built from, read
    back from its phi and kappa arrays."""
    hs = ext.quotient.elements()
    return ({h: ext.phi[h].tolist() for h in hs},
            {(h1, h2): int(ext.kappa[h1, h2]) for h1 in hs for h2 in hs})


def order_key(G, g):
    """g's place in G's element order, from the definitions: shortlex with
    x1 < x1^-1 < x2 < x2^-1 < ... on a free group, (l1 norm, tuple) on a
    lattice, the index on a finite group."""
    if G.kind == "free":
        return len(g), tuple(2 * (abs(v) - 1) + (v < 0) for v in g)
    if G.kind == "int-lattice":
        return sum(map(abs, g)), g
    return g


def law(G):
    """compose and invert for a reference loop on G: the pair law on an
    extension, G's own on any other group."""
    return PairLaw(G) if G.kind == "extension" else G


def evaluate(sigma, x, y) -> complex:
    """sigma(x, y) on the elements x and y, from the definition of sigma's
    class in Python arithmetic: the reference Cocycle.pair_values is held
    to, bit for bit."""
    G = sigma.group
    if isinstance(sigma, LengthPhase):
        return cmath.exp(1j * len(x) * len(y) ** 2)
    if isinstance(sigma, TrivialCocycle):
        return 1.0 + 0.0j
    if isinstance(sigma, TableCocycle):
        return complex(sigma.values[x, y])
    if isinstance(sigma, BicharacterCocycle):
        # <x, Theta y>: each entry of x Theta summed over i from left to
        # right, then the dot with y summed over j from left to right
        th, d = sigma.theta.tolist(), G.dim
        xt = [x[0] * th[0][j] for j in range(d)]
        for i in range(1, d):
            xt = [xt[j] + x[i] * th[i][j] for j in range(d)]
        e = xt[0] * y[0]
        for j in range(1, d):
            e = e + xt[j] * y[j]
        return complex(np.exp(2j * np.pi * e))
    if isinstance(sigma, CoboundaryCocycle):
        return (sigma.beta(x).conjugate() * sigma.beta(y).conjugate()
                * sigma.beta(law(G).compose(x, y)))
    if isinstance(sigma, ProductCocycle):
        z = 1.0 + 0.0j
        for f in sigma.factors:
            z *= evaluate(f, x, y)
        return z
    if isinstance(sigma, ConjugateCocycle):
        return evaluate(sigma.base, x, y).conjugate()
    if isinstance(sigma, PullbackCocycle):
        # h read off the JSON form [k, h], apart from pair_values' x // |K|
        pair = PairLaw(G).pair
        return evaluate(sigma.quotient_cocycle, pair(x)[1], pair(y)[1])
    raise TypeError(f"no reference for {type(sigma).__name__}")


def coefficient_bits(a):
    """a's terms in support order as (element, float.hex of the real part,
    float.hex of the imaginary part).  == on complex numbers takes -0.0 for
    0.0; equal lists here mean the same support, the same order and the
    same bits, signed zeros included."""
    return [(g, a.coeffs[g].real.hex(), a.coeffs[g].imag.hex()) for g in a.support()]


def assert_same_bits(got, want):
    assert coefficient_bits(got) == coefficient_bits(want)
