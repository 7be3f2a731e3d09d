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
import math

import numpy as np

from .cocycles import Cocycle, TrivialCocycle, complex_product, pair_grid
from .errors import InvalidArgument
from .groups import Group, number_positions

DROP_TOL = 1e-300
# the least term count at which a product lays the longer factor on the inner
# axis of its grid: below it the transposes cost about what they save (a
# 13 x 2 product on F2 48 us, 47 us x-major; 61 x 2 77 against 79 us)
LONG_SUPPORT = 64


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


def _convolve_terms(G, sigma, x, y, real=None):
    """Terms of x *_sigma y.

    The pairs run x-major and y in position order: each term is
    (sigma(x, y) a_x) b_y by complex_product, and np.bincount adds the terms
    of each product position in pair order, real and imaginary parts apart,
    starting from +0.0, as a loop of Python complex sums over the pairs
    would.  The product positions are numbered by groups.number_positions.
    Coefficients below DROP_TOL are dropped as AlgebraElement drops them.

    The grid of pairs is formed with the longer factor on the inner axis,
    (|y|, |x|) when x is longer and has at least LONG_SUPPORT terms, as for
    a power a^(n-1) a: numpy starts its inner loop once per row, so a
    multiply takes 0.42 ms on (39365, 4) and 0.05 ms on (4, 39365).  The
    terms are read x-major by one transpose before they are numbered and
    added, so the order of the sums, and with it every bit, does not depend
    on the layout.

    Under a TrivialCocycle the term is a_x b_y: sigma is not read, and a_x
    is not multiplied by 1 + 0j.  That product can change only the sign of
    a zero part of a_x, so of a zero part of a term, and a sum from +0.0
    never ends at -0.0 (x + -x is +0.0), so the sums have the same bits.
    When also no part of x or y is imaginary (real; a power chain decides it
    once, None tests it here), the terms are the products of the real parts,
    added by one np.bincount (two transposes when flipped, not three), and
    the imaginary parts +0.0: complex_product differs only in signs of zeros,
    so the sums have the same bits, and hypot(r, +0.0) is |r|."""
    (xs, xre, xim), (ys, yre, yim) = x, y
    if real is None:
        real = isinstance(sigma, TrivialCocycle) and not (xim.any() or yim.any())
    flip = len(xs) > len(ys) and len(xs) >= LONG_SUPPORT
    if flip:
        # (|y|, |x|) grids, read x-major through .T
        xg, yg = xs, ys[:, None]
        yre, yim = yre[:, None], yim[:, None]
    else:
        xg, yg = xs[:, None], ys
        xre, xim = xre[:, None], xim[:, None]
    xys = G.products(xg, yg)
    xys = (xys.T if flip else xys).ravel()
    pos, where = number_positions(xys)
    # an overflow is caught by the isfinite tests below, not by a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if real:
            re = xre * yre
            re = np.bincount(where, (re.T if flip else re).ravel(), len(pos))
            im = np.zeros(len(pos))
            modulus = np.abs(re)
        else:
            re, im = xre, xim
            if not isinstance(sigma, TrivialCocycle):
                s = sigma.pair_values(*pair_grid(xs, ys), xys).reshape(len(xs), len(ys))
                if flip:
                    s = s.T
                re, im = complex_product(s.real, s.imag, re, im)
            re, im = complex_product(re, im, yre, yim)
            if flip:
                re, im = re.T, im.T
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
    """Yield the terms of a^1, ..., a^N, left-associated, each with whether
    the chain is real and whether it is integer-valued."""
    G = a.group
    sigma = _sigma_or_trivial(G, sigma)
    base = p = _terms(a)
    # under the trivial twist the powers of a real a are real products, and
    # those of an integer-valued one integer-valued: a float product or sum
    # of integers is an integer (every float from 2^52 on is one)
    real = isinstance(sigma, TrivialCocycle) and not base[2].any()
    integral = real and bool((np.floor(base[1]) == base[1]).all())
    for n in range(1, N + 1):
        if n > 1:
            p = _convolve_terms(G, sigma, p, base, real)
        yield p, real, integral


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
    return math.fsum(map(abs, a.coeffs.values()))


def sum_squares(parts) -> float:
    """The sum of the squares of the float64 parts (an array of any shape,
    or a sequence of arrays; a complex array counts as its real and
    imaginary parts): each square rounded once in numpy, and all of them
    added by one math.fsum, which rounds their exact sum once (Shewchuk
    1997).  So the order of the parts does not matter, and the sum is within
    2u relative of the exact one (u = 2^-53: one rounding of each square,
    one of their sum) on every libm and Python version.  A sum past the
    float range is an InvalidArgument."""
    with np.errstate(over="ignore"):
        squares = np.square(np.asarray(parts).view(np.float64)).ravel()
    try:
        total = math.fsum(memoryview(squares))
    except OverflowError:  # finite squares whose sum is past the range
        total = math.inf
    if total == math.inf:  # or a square past it
        raise InvalidArgument("the sum of squares overflows")
    return total


def l2_norm(a: AlgebraElement) -> float:
    return math.sqrt(sum_squares(np.fromiter(a.coeffs.values(), complex, len(a.coeffs))))


def power(a: AlgebraElement, n: int, sigma: Cocycle | None = None) -> AlgebraElement:
    """Left-associated n-fold twisted power, n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    *_, (p, _, _) = _powers(a, n, sigma)
    return _from_terms(a.group, p)


def power_norms(a: AlgebraElement, N: int, sigma: Cocycle | None = None):
    """Yield (|supp a^n|, ||a^n||_2) for n = 1..N, with l2_norm's bits.  The
    powers stay terms, and no element is decoded.  An integer-valued chain
    whose parts are below 2^26 and whose sum of squares is below 2^53 has
    exact squares and exact partial sums in any order, so one dot product
    gives sum_squares's bits: the powers of sphere-1 and x + x^-1 are not
    sent through fsum, and a real chain's +0.0 imaginary parts are not."""
    for (pos, re, im), real, integral in _powers(a, N, sigma):
        top = max(re.max(initial=0.0), -re.min(initial=0.0)) if integral else math.inf
        if top < 2.0 ** 26 and len(re) * top * top < 2.0 ** 53:
            yield len(pos), math.sqrt(float(re @ re))
        else:
            yield len(pos), math.sqrt(sum_squares(re if real else (re, im)))


def gauge(a: AlgebraElement, beta) -> AlgebraElement:
    """T_beta(a)_g = beta(g) a_g; intertwines *_sigma with *_(sigma d beta)."""
    get = beta.__getitem__ if isinstance(beta, dict) else beta
    return AlgebraElement(a.group, {g: complex(get(g)) * c for g, c in a.coeffs.items()})


def is_normal(a: AlgebraElement, sigma: Cocycle | None = None, tol: float = 1e-10) -> bool:
    astar = involute(a, sigma)
    diff = convolve(a, astar, sigma) - convolve(astar, a, sigma)
    scale = max(l1_norm(a) ** 2, 1.0)
    return l1_norm(diff) <= tol * scale
