"""Finitely supported elements of the (twisted) group algebra.

An element is a sparse map from group elements to complex coefficients; one
value type serves both the plain and the twisted algebra, with the cocycle
supplied per operation.  Accumulation orders are fixed (sorted supports) so
results are bit-reproducible.

Convolution and powers run on terms (positions, re, im) on every backend:
positions (see Group.ball_positions) in increasing order, which is the order
of Group.in_order, with float coefficient parts.  A product reads only the
backend's products and sigma's pair_values, and rounds each term as
Python's complex arithmetic does.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from .cocycles import Cocycle, TrivialCocycle, complex_product, pair_grid
from .errors import InvalidArgument
from .groups import Group, number_positions

DROP_TOL = 1e-300


class AlgebraElement:
    """Sparse coefficient map over a group backend; immutable by convention."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: Group, coeffs):
        self.group = group
        try:
            self.coeffs = {g: complex(c) for g, c in coeffs.items() if not abs(c) < DROP_TOL}
        except OverflowError:
            # finite parts can have a modulus past the float range
            raise InvalidArgument("the modulus of a coefficient overflows") from None
        if not all(map(cmath.isfinite, self.coeffs.values())):
            raise InvalidArgument("coefficients must be finite")

    def support(self):
        return self.group.in_order(self.coeffs)

    def __getitem__(self, g):
        return self.coeffs.get(g, 0.0 + 0.0j)

    def __len__(self):
        return len(self.coeffs)

    def __add__(self, other):
        self.group.check_same(other.group)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0.0) + c
        return AlgebraElement(self.group, out)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, z):
        return AlgebraElement(self.group, {g: z * c for g, c in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement)
                and self.group.same_backend(other.group)
                and self.coeffs == other.coeffs)

    def __repr__(self):
        terms = ", ".join(f"{self.group.element_to_json(g)!r}: {self.coeffs[g]:.4g}"
                          for g in self.support()[:8])
        more = "..." if len(self.coeffs) > 8 else ""
        return f"AlgebraElement({terms}{more})"

    def to_json(self):
        support = self.support()
        return {
            "group": self.group.describe(),
            "terms": [
                {"g": self.group.element_to_json(g), "re": c.real, "im": c.imag}
                for g, c in zip(support, map(self.coeffs.get, support))
            ],
        }


def delta(G: Group, g, c=1.0) -> AlgebraElement:
    return AlgebraElement(G, {g: c})


def _sigma_or_trivial(G, sigma):
    if sigma is None:
        return TrivialCocycle(G)
    sigma.group.check_same(G)
    return sigma


def _terms(a: AlgebraElement):
    """a's terms (positions, re, im), in increasing position."""
    pos = a.group.positions(list(a.coeffs))
    order = np.argsort(pos, kind="stable")
    c = np.array(list(a.coeffs.values()), dtype=complex)[order]
    return pos[order], c.real, c.imag


def _from_terms(G, terms) -> AlgebraElement:
    pos, re, im = terms
    return AlgebraElement(G, dict(zip(G.words(pos), map(complex, re.tolist(), im.tolist()))))


def _convolve_terms(G, sigma, x, y):
    """Terms of x *_sigma y.

    The pairs run x-major and y in position order: each term is
    (sigma(x, y) a_x) b_y by complex_product, and np.bincount adds the terms
    of each product position in pair order, real and imaginary parts apart,
    starting from +0.0, as a loop of Python complex sums over the pairs
    would.  The product positions are numbered by groups.number_positions.
    Coefficients below DROP_TOL are dropped as AlgebraElement drops them.

    Under a TrivialCocycle the term is a_x b_y: sigma is not read, and a_x
    is not multiplied by 1 + 0j.  That product can change only the sign of
    a zero part of a_x, so of a zero part of a term, and a sum from +0.0
    never ends at -0.0 (x + -x is +0.0), so the sums have the same bits."""
    (xs, xre, xim), (ys, yre, yim) = x, y
    xys = G.products(xs[:, None], ys).ravel()
    pos, where = number_positions(xys)
    # an overflow is caught by the isfinite tests below, not by a warning
    with np.errstate(over="ignore", invalid="ignore"):
        re, im = xre[:, None], xim[:, None]
        if not isinstance(sigma, TrivialCocycle):
            s = sigma.pair_values(*pair_grid(xs, ys), xys).reshape(len(xs), len(ys))
            re, im = complex_product(s.real, s.imag, re, im)
        re, im = complex_product(re, im, yre, yim)
        re = np.bincount(where, re.ravel(), len(pos))
        im = np.bincount(where, im.ravel(), len(pos))
        modulus = np.hypot(re, im)
    # a finite modulus needs finite parts; finite parts can still have an
    # infinite modulus (1.5e308 + 1.5e308j), so only then are the parts tested
    if not (np.isfinite(modulus).all()
            or np.isfinite(re).all() and np.isfinite(im).all()):
        raise InvalidArgument("a coefficient of the product overflows")
    keep = ~(modulus < DROP_TOL)
    return pos[keep], re[keep], im[keep]


def _powers(a: AlgebraElement, N: int, sigma: Cocycle | None):
    """Yield the terms of a^1, ..., a^N, left-associated."""
    G = a.group
    sigma = _sigma_or_trivial(G, sigma)
    base = p = _terms(a)
    for n in range(1, N + 1):
        if n > 1:
            p = _convolve_terms(G, sigma, p, base)
        yield p


def convolve(a: AlgebraElement, b: AlgebraElement, sigma: Cocycle | None = None) -> AlgebraElement:
    """(a *_sigma b)_g = sum over xy = g of sigma(x, y) a_x b_y, on terms;
    the product lists its support in position order."""
    a.group.check_same(b.group)
    G = a.group
    return _from_terms(G, _convolve_terms(G, _sigma_or_trivial(G, sigma), _terms(a), _terms(b)))


def involute(a: AlgebraElement, sigma: Cocycle | None = None) -> AlgebraElement:
    """(a*)_h = conj(sigma(h^-1, h)) conj(a_{h^-1}); the adjoint for the
    sigma-regular representation."""
    G = a.group
    sigma = _sigma_or_trivial(G, sigma)
    gs = list(a.coeffs)
    hs = [G.invert(g) for g in gs]
    hpos, gpos = G.positions(hs), G.positions(gs)
    # h g is the identity, at position 0
    s = sigma.pair_values(hpos, gpos, np.zeros(len(gs), dtype=np.int64)).tolist()
    return AlgebraElement(G, {h: np.conj(shg) * np.conj(a.coeffs[g])
                              for h, g, shg in zip(hs, gs, s)})


def positive_part(a: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(a.group, {g: abs(c) for g, c in a.coeffs.items()})


def l1_norm(a: AlgebraElement) -> float:
    return float(sum(abs(a.coeffs[g]) for g in a.support()))


def _squares(moduli) -> list:
    """h ** 2 for each float h in moduli, in order: libm pow, as Python
    squares a float, which differs from h * h in the last bit for about one h
    in 1200.  A square past the float range is an InvalidArgument."""
    try:
        return list(map(math.pow, moduli, itertools.repeat(2.0)))
    except OverflowError:
        raise InvalidArgument("the square of a coefficient overflows") from None


def _root_sum_squares(moduli) -> float:
    """sqrt of the sum of the _squares, added one by one in the given order."""
    return float(np.sqrt(sum(_squares(moduli))))


def l2_norm(a: AlgebraElement) -> float:
    return _root_sum_squares(abs(a.coeffs[g]) for g in a.support())


def power(a: AlgebraElement, n: int, sigma: Cocycle | None = None) -> AlgebraElement:
    """Left-associated n-fold twisted power, n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    *_, p = _powers(a, n, sigma)
    return _from_terms(a.group, p)


def power_norms(a: AlgebraElement, N: int, sigma: Cocycle | None = None):
    """Yield (|supp a^n|, ||a^n||_2) for n = 1..N, with l2_norm's bits.  The
    powers stay terms, and no element is decoded."""
    for pos, re, im in _powers(a, N, sigma):
        yield len(pos), _root_sum_squares(np.hypot(re, im).tolist())


def gauge(a: AlgebraElement, beta) -> AlgebraElement:
    """T_beta(a)_g = beta(g) a_g; intertwines *_sigma with *_(sigma d beta)."""
    get = beta.__getitem__ if isinstance(beta, dict) else beta
    return AlgebraElement(a.group, {g: complex(get(g)) * c for g, c in a.coeffs.items()})


def is_normal(a: AlgebraElement, sigma: Cocycle | None = None, tol: float = 1e-10) -> bool:
    astar = involute(a, sigma)
    diff = convolve(a, astar, sigma) - convolve(astar, a, sigma)
    scale = max(l1_norm(a) ** 2, 1.0)
    return l1_norm(diff) <= tol * scale
