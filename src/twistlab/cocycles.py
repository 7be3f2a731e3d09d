"""Normalized S^1-valued 2-cocycles: construction, validation, group structure.

Conventions fixed here and relied on everywhere else:
  * normalisation sigma(e, g) = sigma(g, e) = 1 exactly;
  * coboundary sign  d beta(x, y) = conj(beta(x)) conj(beta(y)) beta(xy),
    which makes the gauge map T_beta(a)_g = beta(g) a_g multiplicative from
    the untwisted product to the (sigma * d beta)-twisted product.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import BackendMismatch, InvalidArgument, MemoryBudgetExceeded, NotUnitModulus
from .groups import FiniteTableGroup, Group, IntLattice, number_positions

MODULUS_TOL = 1e-12
IDENTITY_TOL = 1e-12
DEFAULT_SAMPLED_TRIPLES = 100_000
_TINY = float(np.finfo(float).tiny)  # the least normal float
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
        pos, inv = number_positions(np.concatenate([xs, ys, xys]))
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

    Exhaustive over finite groups, on all n^3 triples (identity_bound is
    the check on generator rows), on ``values`` when the caller already has
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


def _validate_table(G: Group, T: np.ndarray, S: np.ndarray, tol: float,
                    rows=None) -> ValidationReport:
    """validate on a finite group from its index table T and value table S:
    S[x, y] S[xy, z] against S[x, yz] S[y, z] on slabs of (x, y, z), x-major,
    for x in ``rows`` (an index array; default every index, the exhaustive
    check).  The modulus and normalisation residuals read every value."""
    n = len(T)
    exhaustive, rows = rows is None, np.arange(n) if rows is None else rows
    edge = np.concatenate([S[0], S[:, 0]])  # the identity's row and column
    norm_res = float(np.max(np.hypot(edge.real - 1.0, edge.imag)))
    mod_res = _modulus_residual(S)
    id_res = 0.0
    witnesses = []
    # slabs of about 8192 triples (128 KiB an array): blocks of x with every
    # y while n <= 90, one x and a block of y past that; x-major either way
    x_step, y_step = max(1, 2 ** 13 // n ** 2), max(1, 2 ** 13 // n)
    for x0 in range(0, len(rows), x_step):
        xs = rows[x0:x0 + x_step]
        for y0 in range(0, n, y_step):
            ys = slice(y0, y0 + y_step)
            xyz = xs[:, None, None], np.arange(n)[ys, None], np.arange(n)
            id_res = max(id_res, _identity_residual(
                G, S[xs, ys, None], S[T[xs, ys]], np.take(S[xs], T[ys], axis=1), S[ys], xyz,
                tol, witnesses))
    return _report(mod_res, norm_res, id_res, len(rows) * n ** 2, exhaustive, witnesses, tol)


@np.errstate(over="ignore", invalid="ignore")
def identity_bound(G: FiniteTableGroup, S: np.ndarray) -> float:
    """A float B at least the identity residual that the exhaustive check
    (validate on the value table S) would report, computed from the rows of
    G's generators only: |S| n^2 triples, not n^3.  B is inf unless the
    modulus and normalisation residuals, which read every value and are the
    exhaustive check's own, are at most IDENTITY_TOL; so B <= IDENTITY_TOL
    implies that the exhaustive check passes at its default tol.

    Write D(x, y, z) = S[x, y] S[xy, z] - S[x, yz] S[y, z].  Expanding
    S[s, y] S[sy, z] S[syz, w] in two ways (the 3-cocycle identity of the
    coboundary of sigma; Brown, Cohomology of Groups, 1982, ch. IV) gives

        S[s, y] D(sy, z, w) = S[s, yzw] D(y, z, w) + S[y, z] D(s, yz, w)
                              + S[syz, w] D(s, y, z) - S[z, w] D(s, y, zw)

    exactly.  With every ||S| - 1| <= mu, rho = (1 + mu) / (1 - mu), every
    |D(s, ., .)| <= eps for s a generator, and every |S[e, x] - 1|,
    |S[x, e] - 1| <= nu, so that |D(e, z, w)| <= 2 (1 + mu) nu: an element
    of word length k in the generators (at most G.diameter) has
    |D(g, ., .)| <= rho^k (2 (1 + mu) nu + 3 k eps), by induction on k.

    The residuals the check computes carry rounding: each complex_product
    is off by at most sqrt(2) (2u + u^2) |a| |b| (u = 2^-53), each
    difference by u and each np.hypot by 2u (one ulp), and so are the
    residuals that mu, nu and eps are read from; 2^-1000 covers every
    absolute error of a result in the subnormal range.  B is that bound,
    evaluated in floats on positive numbers, each operation off by at most
    u, along a chain of at most 3 G.diameter + 40 operations: the factor
    1 + 2^-30 covers that for any diameter below a million."""
    # tol inf: the generator rows' residuals without their witnesses
    rep = _validate_table(G, G.multiplication_table(), S, math.inf, G.generators)
    mu, nu, eps = (rep.max_modulus_residual, rep.max_normalization_residual,
                   rep.max_identity_residual)
    # with mu and nu at most IDENTITY_TOL, |S| and Re S[e, x] lie in
    # [1/2, 2], where |S| - 1 and S[e, x] - 1 round exactly
    if not (mu <= IDENTITY_TOL and nu <= IDENTITY_TOL and math.isfinite(eps)):
        return math.inf
    u = 2.0 ** -53
    mu += 3 * u
    product = 7 * u * (1 + mu) ** 2 + 2.0 ** -1000  # both sides' products
    nu *= 1 + 4 * u
    eps = eps * (1 + 4 * u) + product
    d = G.diameter
    bound = ((1 + mu) / (1 - mu)) ** d * (2 * (1 + mu) * nu + 3 * d * eps)
    return (bound + product) * (1 + 4 * u) * (1 + 2.0 ** -30)


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
    dr, di = (lr - rr).ravel(), (li - ri).ravel()
    at = _hypot_candidates(dr, di, tol)
    r = np.hypot(dr, di) if at is None else np.hypot(dr[at], di[at])
    worst = float(np.max(r))
    if not worst <= tol:  # a NaN in r still lets the residuals above tol through
        hits = np.flatnonzero(r > tol)[:10 - len(witnesses)]
        xyz = [p.ravel() for p in np.broadcast_arrays(*xyz, lr)[:-1]]
        for i, k in zip(hits if at is None else at[hits], hits):
            witnesses.append({
                "triple": [G.element_to_json(w) for w in G.words([p[i] for p in xyz])],
                "residual": float(r[k]),
            })
    return worst


def _hypot_candidates(dr, di, tol):
    """The indices where np.hypot(dr, di) can be the largest or pass tol, or
    None for every index.  np.hypot costs ten times dr^2 + di^2, the square
    of the modulus within a few ulps, so only where that square is within
    2^-40 of the largest, or of tol^2 when tol^2 is below it, can the
    modulus be.  A largest square that is not a normal float (inf, NaN,
    subnormal or 0) leaves no such margin, and neither does such a tol^2:
    then every index is taken."""
    s = dr * dr
    s += di * di
    top = float(np.max(s))
    bar = min(top, tol * tol) if tol > 0 else 0.0
    return np.flatnonzero(s >= bar * (1 - 2 ** -40)) if _TINY <= bar and top < math.inf else None


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

