"""Finitely supported elements of the (twisted) group algebra.

An element is a sparse map from group elements to complex coefficients; one
value type serves both the plain and the twisted algebra, with the cocycle
supplied per operation.  Accumulation orders are fixed (sorted supports) so
results are bit-reproducible.
"""

from __future__ import annotations

import cmath

import numpy as np

from .cocycles import Cocycle, TrivialCocycle
from .errors import BackendMismatch
from .groups import Group

DROP_TOL = 1e-300


class AlgebraElement:
    """Sparse coefficient map over a group backend; immutable by convention."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: Group, coeffs):
        self.group = group
        self.coeffs = {g: complex(c) for g, c in coeffs.items() if not abs(c) < DROP_TOL}
        if not all(map(cmath.isfinite, self.coeffs.values())):
            raise ValueError("coefficients must be finite")

    def support(self):
        return sorted(self.coeffs, key=self.group.sort_key)

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
        terms = ", ".join(f"{self.group.element_to_json(g)!r}: {c:.4g}"
                          for g, c in list(sorted(self.coeffs.items(),
                                                  key=lambda kv: self.group.sort_key(kv[0])))[:8])
        more = "..." if len(self.coeffs) > 8 else ""
        return f"AlgebraElement({terms}{more})"

    def to_json(self):
        return {
            "group": self.group.describe(),
            "terms": [
                {"g": self.group.element_to_json(g), "re": c.real, "im": c.imag}
                for g, c in sorted(self.coeffs.items(),
                                   key=lambda kv: self.group.sort_key(kv[0]))
            ],
        }


def delta(G: Group, g, c=1.0) -> AlgebraElement:
    return AlgebraElement(G, {g: c})


def _sigma_or_trivial(G, sigma):
    if sigma is None:
        return TrivialCocycle(G)
    sigma.group.check_same(G)
    return sigma


def convolve(a: AlgebraElement, b: AlgebraElement, sigma: Cocycle | None = None) -> AlgebraElement:
    """(a *_sigma b)_g = sum over xy = g of sigma(x, y) a_x b_y."""
    a.group.check_same(b.group)
    G = a.group
    sigma = _sigma_or_trivial(G, sigma)
    acc = {}
    bsupp = b.support()
    for x in a.support():
        ax = a.coeffs[x]
        for y in bsupp:
            g = G.compose(x, y)
            acc[g] = acc.get(g, 0.0 + 0.0j) + sigma.evaluate(x, y) * ax * b.coeffs[y]
    return AlgebraElement(G, acc)


def involute(a: AlgebraElement, sigma: Cocycle | None = None) -> AlgebraElement:
    """(a*)_h = conj(sigma(h^-1, h)) conj(a_{h^-1}); the adjoint for the
    sigma-regular representation."""
    G = a.group
    sigma = _sigma_or_trivial(G, sigma)
    out = {}
    for g, c in a.coeffs.items():
        h = G.invert(g)
        out[h] = np.conj(sigma.evaluate(h, g)) * np.conj(c)
    return AlgebraElement(G, out)


def positive_part(a: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(a.group, {g: abs(c) for g, c in a.coeffs.items()})


def l1_norm(a: AlgebraElement) -> float:
    return float(sum(abs(c) for _, c in sorted(a.coeffs.items(),
                                               key=lambda kv: a.group.sort_key(kv[0]))))


def l2_norm(a: AlgebraElement) -> float:
    return float(np.sqrt(sum(abs(c) ** 2 for _, c in sorted(
        a.coeffs.items(), key=lambda kv: a.group.sort_key(kv[0])))))


def power(a: AlgebraElement, n: int, sigma: Cocycle | None = None) -> AlgebraElement:
    """Left-associated n-fold twisted power, n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = a
    for _ in range(n - 1):
        out = convolve(out, a, sigma)
    return out


def gauge(a: AlgebraElement, beta) -> AlgebraElement:
    """T_beta(a)_g = beta(g) a_g; intertwines *_sigma with *_(sigma d beta)."""
    get = beta.__getitem__ if isinstance(beta, dict) else beta
    return AlgebraElement(a.group, {g: complex(get(g)) * c for g, c in a.coeffs.items()})


def is_normal(a: AlgebraElement, sigma: Cocycle | None = None, tol: float = 1e-10) -> bool:
    astar = involute(a, sigma)
    diff = convolve(a, astar, sigma) - convolve(astar, a, sigma)
    scale = max(l1_norm(a) ** 2, 1.0)
    return l1_norm(diff) <= tol * scale
