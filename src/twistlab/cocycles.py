"""Normalized S^1-valued 2-cocycles: construction, validation, group structure.

Conventions fixed here and relied on everywhere else:
  * normalisation sigma(e, g) = sigma(g, e) = 1 exactly;
  * coboundary sign  d beta(x, y) = conj(beta(x)) conj(beta(y)) beta(xy),
    which makes the gauge map T_beta(a)_g = beta(g) a_g multiplicative from
    the untwisted product to the (sigma * d beta)-twisted product.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import BackendMismatch, InvalidArgument, MemoryBudgetExceeded, NotUnitModulus
from .groups import FiniteTableGroup, Group, IntLattice

MODULUS_TOL = 1e-12
IDENTITY_TOL = 1e-12
DEFAULT_SAMPLED_TRIPLES = 100_000
SAMPLE_RADIUS = 6
# largest sample ball the sampled check lists.  Under a random coboundary
# the check peaks at about 260 bytes per word, most of it the beta memo:
# F6's 2,125,873 words peak at 522 MiB (33 s on a 2-core x86-64 VM), so
# F7's 5,631,277 would need about 1.4 GiB
SAMPLE_POOL_CAP = 4_000_000


def complex_product(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) on float arrays as (real, imaginary): the four
    products and two sums of Python's complex multiply, each rounded once.
    numpy's complex ufunc may use fused or reordered kernels instead."""
    return ar * br - ai * bi, ar * bi + ai * br


def complex_mul(a, b) -> np.ndarray:
    """a b elementwise (broadcast) on complex arrays, rounded as Python's
    complex multiply: complex_product on the parts."""
    re, im = complex_product(a.real, a.imag, b.real, b.imag)
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


class Cocycle:
    """Base class.  A subclass implements pair_values, the one way sigma is
    read, and to_json."""

    kind = "abstract"

    def __init__(self, group: Group):
        self.group = group

    def pair_values(self, xs, ys, xys) -> np.ndarray:
        """sigma(x, y) for the elements at positions xs and ys (see
        Group.ball_positions; on a free group the numerals of
        FreeGroup.positions, on a finite group the indices), whose products
        sit at xys: a complex array, one value per pair."""
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError


class TrivialCocycle(Cocycle):
    kind = "trivial"

    def pair_values(self, xs, ys, xys):
        return np.ones(len(xs), dtype=complex)

    def to_json(self):
        return {"kind": "trivial"}


class TableCocycle(Cocycle):
    """Dense value table over a finite group, auto-normalised by sigma(e, e).
    The table is copied, so normalising never writes into the caller's array."""

    kind = "table"

    def __init__(self, group: FiniteTableGroup, values):
        super().__init__(group)
        if not group.is_finite:
            raise BackendMismatch("table cocycles need a finite-table group")
        vals = np.array(values, dtype=complex)
        n = group.order
        if vals.shape != (n, n):
            raise ValueError(f"value table shape {vals.shape} != ({n}, {n})")
        z = vals[0, 0]
        if abs(z - 1.0) > 0:
            if abs(z) < 1e-300:
                raise NotUnitModulus("sigma(e, e) vanishes, cannot normalise")
            vals = vals / z
        vals[0, :] = 1.0
        vals[:, 0] = 1.0
        self.values = vals

    def pair_values(self, xs, ys, xys):
        return self.values[xs, ys]

    def to_json(self):
        return {
            "kind": "table",
            "values": [[[v.real, v.imag] for v in row] for row in self.values],
        }


class BicharacterCocycle(Cocycle):
    """sigma(x, y) = exp(2 pi i <x, Theta y>) on an integer lattice."""

    kind = "bicharacter"

    def __init__(self, group: IntLattice, theta):
        super().__init__(group)
        if group.kind != "int-lattice":
            raise BackendMismatch("bicharacter cocycles need an int-lattice group")
        th = np.asarray(theta, dtype=float)
        if th.shape != (group.dim, group.dim):
            raise ValueError(f"theta shape {th.shape} != ({group.dim}, {group.dim})")
        self.theta = th

    def pair_values(self, xs, ys, xys):
        """exp(2 pi i e) for e = <x, Theta y> summed in one fixed order, by
        elementwise products: the columns x Theta, each summed over i from
        left to right, then their dot with y, summed over j from left to
        right.  No BLAS call, so the bits do not depend on its kernels."""
        X, Y = self._coordinates(xs), self._coordinates(ys)
        d, th = self.group.dim, self.theta
        xt = X[:, :1] * th[0]
        for i in range(1, d):
            xt = xt + X[:, i:i + 1] * th[i]
        e = xt[:, 0] * Y[:, 0]
        for j in range(1, d):
            e = e + xt[:, j] * Y[:, j]
        return np.exp(2j * np.pi * e)

    def _coordinates(self, pos):
        return np.array(self.group.words(pos), dtype=float).reshape(len(pos), self.group.dim)

    def to_json(self):
        return {"kind": "bicharacter", "theta": self.theta.tolist()}


class CoboundaryCocycle(Cocycle):
    """d beta for a unit-modulus beta with beta(e) = 1.

    beta is a dict from elements to values or a callable; either is treated
    as fixed after construction (a dict is not copied, and must not be
    changed), because beta_at, and so pair_values, remembers beta in one
    dict keyed by position, as a Python int whether it fits int64 or not, so
    each position is read once per cocycle."""

    kind = "coboundary"

    def __init__(self, group: Group, beta):
        super().__init__(group)
        self._beta = beta
        self._memo = {}
        e = group.identity()
        if abs(self.beta(e) - 1.0) > MODULUS_TOL:
            raise NotUnitModulus("beta(e) != 1")
        if isinstance(beta, dict):
            for g, v in beta.items():
                if abs(abs(v) - 1.0) > MODULUS_TOL:
                    raise NotUnitModulus(f"|beta({group.element_to_json(g)})| != 1")

    def beta(self, g) -> complex:
        if not isinstance(self._beta, dict):
            return complex(self._beta(g))
        if g not in self._beta:
            raise InvalidArgument(f"beta is not given at {self.group.element_to_json(g)}")
        return complex(self._beta[g])

    def pair_values(self, xs, ys, xys):
        """beta at each distinct position, read only where it is not
        remembered, then (conj beta(x) conj beta(y)) beta(xy) as Python's
        complex multiply rounds it."""
        pos, inv = np.unique(np.concatenate([xs, ys, xys]), return_inverse=True)
        b = self.beta_at(pos)
        ix, iy, ixy = np.split(inv, [len(xs), len(xs) + len(ys)])
        conj = b.conj()
        return complex_mul(complex_mul(conj[ix], conj[iy]), b[ixy])

    def beta_at(self, pos):
        """beta at the distinct positions pos, read only where the memo lacks
        them.  A failed read leaves the memo as it was."""
        memo, keys = self._memo, pos.tolist()
        new = np.array([p not in memo for p in keys], dtype=bool)
        if new.any():
            fresh = pos[new]
            memo.update(zip(fresh.tolist(), self._read(fresh)))
        return np.array([memo[p] for p in keys], dtype=complex)

    def _read(self, pos):
        return [self.beta(g) for g in self.group.words(pos)]

    def to_json(self):
        if not isinstance(self._beta, dict):
            raise ValueError("only dict-backed coboundaries serialize")
        order = self.group.in_order(self._beta)
        return {
            "kind": "coboundary",
            "beta": {str(self.group.element_to_json(g)): [v.real, v.imag]
                     for g, v in zip(order, map(self._beta.get, order))},
        }


class ProductCocycle(Cocycle):
    kind = "product"

    def __init__(self, factors):
        if not factors:
            raise ValueError("need at least one factor")
        g0 = factors[0].group
        for f in factors[1:]:
            g0.check_same(f.group)
        super().__init__(g0)
        self.factors = list(factors)

    def pair_values(self, xs, ys, xys):
        """The factors' values multiplied into 1 + 0j one by one, as
        Python's z *= f rounds them, signed zeros included."""
        z = np.ones(len(xs), dtype=complex)
        for f in self.factors:
            z = complex_mul(z, f.pair_values(xs, ys, xys))
        return z

    def to_json(self):
        return {"kind": "product", "factors": [f.to_json() for f in self.factors]}


class ConjugateCocycle(Cocycle):
    kind = "conjugate"

    def __init__(self, base: Cocycle):
        super().__init__(base.group)
        self.base = base

    def pair_values(self, xs, ys, xys):
        return np.conj(self.base.pair_values(xs, ys, xys))

    def to_json(self):
        return {"kind": "conjugate", "base": self.base.to_json()}


class PullbackCocycle(Cocycle):
    """Cocycle on an extension pulled back from its quotient through the
    quotient map, which sends the element at index |K| h + k to h."""

    kind = "pullback"

    def __init__(self, group, quotient_cocycle: Cocycle):
        if group.kind != "extension":
            raise BackendMismatch("pullback cocycles need an extension group")
        quotient_cocycle.group.check_same(group.quotient)
        super().__init__(group)
        self.quotient_cocycle = quotient_cocycle

    def pair_values(self, xs, ys, xys):
        """The quotient cocycle at the images, the indices floor-divided
        by |K|."""
        m = self.group.K.order
        return self.quotient_cocycle.pair_values(xs // m, ys // m, xys // m)

    def to_json(self):
        return {"kind": "pullback", "quotient": self.quotient_cocycle.to_json()}


@dataclass
class ValidationReport:
    passed: bool
    max_modulus_residual: float
    max_normalization_residual: float
    max_identity_residual: float
    checked_triples: int
    exhaustive: bool
    witnesses: list = field(default_factory=list)

    def to_json(self):
        return asdict(self)


def pair_grid(xs, ys):
    """Every pair of an x in xs and a y in ys, x-major, as two flat arrays:
    each x repeated len(ys) times, and the row ys repeated len(xs) times."""
    return xs.repeat(len(ys)), ys[None, :].repeat(len(xs), axis=0).ravel()


def value_table(G: Group, sigma: Cocycle, rows=None) -> np.ndarray:
    """sigma(x, y) for every y of a finite group and every x in ``rows``
    (default: every element), indexed like G.elements(): one pair_values
    call on those rows of G's index table T, an element's position being
    its index.  sigma must live on G (BackendMismatch otherwise)."""
    sigma.group.check_same(G)
    T = G.multiplication_table()
    n = len(T)
    xs = np.arange(n) if rows is None else G.positions(rows)
    values = sigma.pair_values(*pair_grid(xs, np.arange(n)), T[xs].ravel())
    return values.reshape(len(xs), n)


@np.errstate(over="ignore", invalid="ignore")
def validate(G: Group, sigma: Cocycle, sampled_triples: int = DEFAULT_SAMPLED_TRIPLES,
             seed: int = 0, tol: float = IDENTITY_TOL, values=None) -> ValidationReport:
    """Check unit modulus, normalisation, and the cocycle identity.

    Exhaustive over finite groups, on ``values`` when the caller already has
    value_table(G, sigma); otherwise seeded sampled triples drawn from the
    radius-6 ball, which may hold at most SAMPLE_POOL_CAP elements.  The
    sampled check reads sigma through pair_values, 2**13 ball elements or
    triples at a time.  Values past the float range print no numpy warning:
    their residuals are inf or NaN, and either fails the report.
    """
    sigma.group.check_same(G)
    if G.is_finite:
        if values is None:
            values = value_table(G, sigma)
        return _validate_table(G, G.multiplication_table(), values, tol)
    if G.ball_size(SAMPLE_RADIUS) > SAMPLE_POOL_CAP:
        raise MemoryBudgetExceeded(G.ball_size(SAMPLE_RADIUS), SAMPLE_POOL_CAP)
    pool = G.ball_positions(SAMPLE_RADIUS)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(pool), size=(sampled_triples, 3))
    slab = 2 ** 13
    norm_res = mod_res = id_res = 0.0
    witnesses = []
    for i in range(0, len(pool), slab):
        g = pool[i:i + slab]
        eg = np.zeros_like(g)  # the identity's position
        edge = np.concatenate([sigma.pair_values(eg, g, g), sigma.pair_values(g, eg, g)])
        norm_res = max(norm_res, float(np.max(np.hypot(edge.real - 1.0, edge.imag))))
        mod_res = max(mod_res, _modulus_residual(sigma.pair_values(g, g, G.products(g, g))))
    for i in range(0, sampled_triples, slab):
        x, y, z = pool[idx[i:i + slab]].T
        xy, yz = G.products(x, y), G.products(y, z)
        xyz = G.products(xy, z)
        s = sigma.pair_values(np.concatenate([x, xy, x, y]), np.concatenate([y, z, yz, z]),
                              np.concatenate([xy, xyz, xyz, yz]))
        sxy, sxy_z, sx_yz, syz = np.split(s, 4)
        mod_res = max(mod_res, _modulus_residual(sxy))
        id_res = max(id_res, _identity_residual(G, sxy, sxy_z, sx_yz, syz, (x, y, z), tol,
                                                witnesses))
    return _report(mod_res, norm_res, id_res, sampled_triples, False, witnesses, tol)


def _validate_table(G: Group, T: np.ndarray, S: np.ndarray, tol: float) -> ValidationReport:
    """validate on a finite group from its index table T and value table S:
    S[x, y] S[xy, z] against S[x, yz] S[y, z] on slabs of (x, y, z), x-major."""
    n = len(T)
    edge = np.concatenate([S[0], S[:, 0]])  # the identity's row and column
    norm_res = float(np.max(np.hypot(edge.real - 1.0, edge.imag)))
    mod_res = _modulus_residual(S)
    id_res = 0.0
    witnesses = []
    # slabs of about 8192 triples (128 KiB an array): blocks of x with every
    # y while n <= 90, one x and a block of y past that; x-major either way
    x_step, y_step = max(1, 2 ** 13 // n ** 2), max(1, 2 ** 13 // n)
    for x0 in range(0, n, x_step):
        xs = np.arange(x0, min(x0 + x_step, n))
        for y0 in range(0, n, y_step):
            ys = slice(y0, y0 + y_step)
            xyz = xs[:, None, None], np.arange(n)[ys, None], np.arange(n)
            id_res = max(id_res, _identity_residual(
                G, S[xs, ys, None], S[T[xs, ys]], np.take(S[xs], T[ys], axis=1), S[ys], xyz,
                tol, witnesses))
    return _report(mod_res, norm_res, id_res, n ** 3, True, witnesses, tol)


def _modulus_residual(values) -> float:
    """max ||sigma| - 1| over the values, the modulus by np.hypot."""
    return float(np.max(np.abs(np.hypot(values.real, values.imag) - 1.0)))


def _identity_residual(G, sxy, sxy_z, sx_yz, syz, xyz, tol, witnesses) -> float:
    """The largest |sigma(x, y) sigma(xy, z) - sigma(x, yz) sigma(y, z)| on a
    slab of triples, from those four value arrays.  Products are
    complex_product and moduli np.hypot on the real and imaginary parts, so
    no residual depends on numpy's complex kernels.  xyz holds the positions
    of x, y and z, each broadcastable to the slab; a witness is appended to
    ``witnesses`` for each residual above tol, in C order, while there are
    fewer than ten."""
    lr, li = complex_product(sxy.real, sxy.imag, sxy_z.real, sxy_z.imag)
    rr, ri = complex_product(sx_yz.real, sx_yz.imag, syz.real, syz.imag)
    r = np.hypot(lr - rr, li - ri)
    worst = float(np.max(r))
    if not worst <= tol:  # a NaN in r still lets the residuals above tol through
        xyz = np.broadcast_arrays(*xyz)
        for i in map(tuple, np.argwhere(r > tol)[:10 - len(witnesses)]):
            witnesses.append({
                "triple": [G.element_to_json(w) for w in G.words([p[i] for p in xyz])],
                "residual": float(r[i]),
            })
    return worst


def _report(mod_res, norm_res, id_res, checked, exhaustive, witnesses, tol) -> ValidationReport:
    passed = mod_res <= tol and norm_res <= tol and id_res <= tol
    return ValidationReport(passed, mod_res, norm_res, id_res, checked, exhaustive, witnesses)


def gauge_factors(sigma: Cocycle):
    """sigma as a product of coboundaries, when it is one by construction:
    a list of pairs (d beta, conjugated) with sigma the product of the d beta
    and, where conjugated, of conj d beta = d conj(beta), in the order the
    product and conjugate cocycles hold them.  The list is empty for a
    trivial sigma; any other cocycle, or a product or conjugate holding one,
    gives None."""
    if isinstance(sigma, TrivialCocycle):
        return []
    if isinstance(sigma, CoboundaryCocycle):
        return [(sigma, False)]
    if isinstance(sigma, ConjugateCocycle):
        base = gauge_factors(sigma.base)
        return None if base is None else [(f, not conj) for f, conj in base]
    if isinstance(sigma, ProductCocycle):
        out = []
        for factor in map(gauge_factors, sigma.factors):
            if factor is None:
                return None
            out += factor
        return out
    return None

