"""Crossed-product machinery at desk scale.

From an extension backend and a cocycle on it, extract the induced twisted
action (alpha, rho) of the quotient on the twisted algebra of the finite
normal subgroup, verify the twisted-action axioms, decompose finite
dimensional twisted group algebras into matrix blocks, group the blocks into
quotient orbits, and attribute the blocks of the whole extension's algebra to
them.  The Packer-Raeburn gauge checks that this algebra is the crossed
product, the twisted group algebra under the cocycle read off (alpha, rho).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .algebra import DROP_TOL, sum_squares
from .cocycles import (IDENTITY_TOL, Cocycle, TableCocycle, complex_mul, complex_product,
                       identity_bound, validate, value_table)
from .errors import DegenerateAfterRetries, NotACocycle, NotPermuting, Unsupported
from .groups import ExtensionGroup, FiniteTableGroup

AXIOM_TOL = 1e-10
# decompose_blocks: relative gap between eigenvalue clusters
CLUSTER_GAP = 1e-8
MAX_RETRIES = 5

CONVENTION_AS_PRINTED = "as-printed"
CONVENTION_CONJUGATED = "conjugated"
# The conjugated variant is what a direct expansion of u_{s(h)} u_k u_{s(h)}^*
# inside the twisted algebra yields under this repo's convolution convention;
# it is the one that passes the axiom check on all fixtures (the brute-force
# calibration lives in the test suite as a negative control for the other).
DEFAULT_CONVENTION = CONVENTION_CONJUGATED


@dataclass
class TwistedSystem:
    """The data (K, Lambda, sigma_K, alpha, rho) induced by a section, and
    the value table S = value_table(gamma, sigma) it was read from, indexed
    like gamma's elements: the pair (k, h) at |K| h + k.

    alpha and rho are monomial, held as index and scalar arrays over the
    indices h of gamma.quotient and k of K:

        alpha_h(u_k) = alpha_scalar[h, k] u_{alpha_perm[h, k]}
        rho(h1, h2) = rho_scalar[h1, h2] u_{rho_index[h1, h2]}

    alpha_perm and rho_index are gamma.phi and gamma.kappa themselves, so
    they are read-only."""

    gamma: ExtensionGroup
    S: np.ndarray
    K: FiniteTableGroup
    sigma_k: TableCocycle
    alpha_perm: np.ndarray
    alpha_scalar: np.ndarray
    rho_index: np.ndarray
    rho_scalar: np.ndarray


def induced_action_data(gamma: ExtensionGroup, sigma: Cocycle,
                        convention: str = DEFAULT_CONVENTION) -> TwistedSystem:
    """The section formulas for alpha and rho, taken literally by gathers on
    sigma's value table S, so sigma is read once per pair of gamma and
    restricted to K as S[:|K|, :|K|].  With s(h) = (e, h) at index |K| h and
    u_k at k, s(h) k s(h)^-1 = phi_h(k) and s1 s2 s12^-1 = kappa(h1, h2), so
    alpha_h(u_k) = sigma(s(h), k) sigma(c, s(h)) u_c for c = gamma.phi[h, k] and
    rho(h1, h2) = sigma(s1, s2) conj(sigma(w, s12)) u_w for w = gamma.kappa[h1, h2],
    each product rounded as Python's.  The convention flag selects whether
    the second factor of alpha is conjugated; no axiom check happens here."""
    if gamma.kind != "extension":
        raise Unsupported("induced_action_data needs an extension group")
    if convention not in (CONVENTION_AS_PRINTED, CONVENTION_CONJUGATED):
        raise ValueError(f"unknown convention {convention!r}")
    K, phi, kappa = gamma.K, gamma.phi, gamma.kappa
    m = K.order
    S = value_table(gamma, sigma)
    s1 = np.arange(len(phi))[:, None] * m
    s2 = s1.T

    c2 = S[phi, s1]
    if convention == CONVENTION_CONJUGATED:
        c2 = np.conj(c2)
    alpha_scalar = complex_mul(S[s1, np.arange(m)], c2)

    s12 = gamma.quotient.multiplication_table() * m
    rho_scalar = complex_mul(S[s1, s2], np.conj(S[kappa, s12]))
    return TwistedSystem(gamma, S, K, TableCocycle(K, S[:m, :m]), phi, alpha_scalar,
                         kappa, rho_scalar)


@dataclass
class ActionReport:
    passed: bool
    max_residual: float
    residuals: dict
    tol: float = AXIOM_TOL

    def to_json(self):
        return asdict(self)


def _distance(i1, c1, i2, c2) -> np.ndarray:
    """||c1 u_i1 - c2 u_i2||_2 elementwise: |c1 - c2| on the same index, else
    hypot(|c1|, |c2|), finite wherever c1 and c2 are; each modulus is the
    hypot of the parts, as Python's abs rounds it."""
    same = np.asarray(i1 == i2)
    first, second = np.where(same, c1 - c2, c1), np.where(same, 0.0, c2)
    return np.hypot(np.hypot(first.real, first.imag), np.hypot(second.real, second.imag))


@np.errstate(over="ignore", invalid="ignore")
def verify_twisted_action(sys: TwistedSystem) -> ActionReport:
    """Residuals of the twisted-action axioms over all quotient triples.

    Checked: alpha_e = id; rho(e, .) = rho(., e) = delta_e; every alpha_h a
    *-automorphism; every rho unitary; the composition rule
    alpha_h1 alpha_h2 = Ad(rho(h1, h2)) alpha_{h1 h2}; and the rho cocycle rule
    alpha_h1(rho(h2, h3)) * rho(h1, h2 h3) = rho(h1, h2) * rho(h1 h2, h3).

    alpha and rho are monomial, so each side of an axiom is one term c u_i
    and each axiom is one array expression over all (h, i, j), (h, i),
    (h1, h2), (h1, h2, k) or (h1, h2, h3).  A twisted product of two terms is
    (sigma(i1, i2) c1) c2 u_{i1 i2} and an adjoint conj(sigma(i^-1, i))
    conj(c) u_{i^-1}, and alpha_h(c u_k) is alpha_scalar[h, k] c
    u_{alpha_perm[h, k]}, each rounded as Python's complex multiply.  A
    residual is the l2 distance of the two sides (see _distance), finite
    wherever the two sides are, however far past the float range its square
    lies: such a residual fails the check.  A product past the float range
    warns of nothing."""
    K, L = sys.K, sys.gamma.quotient
    m = K.order
    TK, TL = K.multiplication_table(), L.multiplication_table()
    inv = K.inverses
    S = sys.sigma_k.values
    P, A, W, R = sys.alpha_perm, sys.alpha_scalar, sys.rho_index, sys.rho_scalar
    e = 0  # the identity's position

    def alpha(h, k, c):
        """alpha_h(c u_k) as (index, scalar) arrays."""
        return P[h, k], complex_mul(A[h, k], c)

    def times(i1, c1, i2, c2):
        return TK[i1, i2], complex_mul(complex_mul(S[i1, i2], c1), c2)

    def star(i, c):
        return inv[i], complex_mul(np.conj(S[inv[i], i]), np.conj(c))

    def worst(first, *distances):
        # Python's max in loop order, as the dict check took it
        return max([first, *np.stack(distances, axis=-1).ravel().tolist()])

    unit = complex(1.0)
    h = np.arange(len(P))
    res = {}
    res["unit"] = worst(worst(0.0, _distance(P[e], A[e], np.arange(m), unit)),
                        _distance(P[:, 0], A[:, 0], 0, unit))
    res["rho_normalised"] = worst(0.0, _distance(W[e], R[e], 0, unit),
                                  _distance(W[:, e], R[:, e], 0, unit))

    hh, i, j = h[:, None, None], np.arange(m)[:, None], np.arange(m)
    res["automorphism"] = worst(0.0, _distance(
        *times(P[hh, i], A[hh, i], P[hh, j], A[hh, j]), *alpha(hh, TK[i, j], S[i, j])))
    hh, i = h[:, None], np.arange(m)
    res["involution"] = worst(0.0, _distance(
        *star(P[hh, i], A[hh, i]), *alpha(hh, inv[i], np.conj(S[inv[i], i]))))

    ustar = star(W, R)
    res["rho_unitary"] = worst(0.0, _distance(*times(W, R, *ustar), 0, unit),
                               _distance(*times(*ustar, W, R), 0, unit))

    h1, h2, k = h[:, None, None], h[:, None], np.arange(m)
    h12 = TL[h1, h2]
    u = (W[h1, h2], R[h1, h2])
    res["composition"] = worst(0.0, _distance(
        *alpha(h1, P[h2, k], A[h2, k]),
        *times(*times(*u, P[h12, k], A[h12, k]), *star(*u))))

    h3 = h
    h23 = TL[h2, h3]
    res["rho_cocycle"] = worst(0.0, _distance(
        *times(*alpha(h1, W[h2, h3], R[h2, h3]), W[h1, h23], R[h1, h23]),
        *times(*u, W[h12, h3], R[h12, h3])))

    worst_all = max(res.values())
    return ActionReport(worst_all <= AXIOM_TOL, worst_all, res)


@dataclass
class BlockDecomposition:
    """projections[i] holds the i-th minimal central projection, indexed like
    G.elements(); its JSON keeps the entries of modulus at least DROP_TOL,
    each at the JSON form of its element of G."""

    group: FiniteTableGroup
    projections: np.ndarray
    block_sizes: list
    residuals: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "block_sizes": sorted(self.block_sizes),
            "projections": [[{"g": self.group.element_to_json(g), "re": float(p[g].real),
                              "im": float(p[g].imag)}
                             for g in np.flatnonzero(np.hypot(p.real, p.imag) >= DROP_TOL)]
                            for p in self.projections],
            "residuals": self.residuals,
        }


def decompose_blocks(G: FiniteTableGroup, sigma: Cocycle, seed: int = 0) -> BlockDecomposition:
    """Matrix-block decomposition of the twisted group algebra of a finite
    group: minimal central projections plus the block-size multiset.

    Everything comes from the multiplication table T and the value table S of
    sigma.  With u_h u_g u_h* = phi(h, g) u_{hgh^-1}, the centre is spanned by
    the twisted class sums c_j of the sigma-regular classes, each scaled to 1
    at its class's least index r_j: g is sigma-regular when phi(., g) is
    trivial on its centraliser C(g), and that character sums to |C(g)| or to
    0 over C(g).  A seeded random self-adjoint central w acts on the centre by
    M[j, k] = (w c_k)[r_j], Hermitian once scaled by nu_j = ||c_j||_2 (Dixon
    1967, Schneider 1990).  Its eigenvectors v_i give the projections p_i =
    conj(v_0i) sum_j (v_ji / nu_j) c_j, and p_e = |v_0i|^2 = d^2 / |G| the
    block sizes d.  Retries with a fresh w when two eigenvalues lie within
    CLUSTER_GAP (relative).  Products of projections are formed at the r_j,
    where a central x has ||x||_2^2 = sum_j |x[r_j]|^2 nu_j^2: p_i p_i and p_i
    q_i, q_i = p_{i+1} + ... + p_{z-1} in eigenvector order.  For self-adjoint
    idempotents sum_{k>i} (p_k p_i)* (p_k p_i) = p_i q_i p_i, so p_i q_i = 0
    for all i is orthogonality.  The central residual is the largest entry of
    u_s p u_s* - p (of u_s p - p u_s, moved by u_s*) over G.generators; over
    all of G it is at most G.diameter times that, plus rounding.

    sigma is first checked on the rows of G's generators: when
    cocycles.identity_bound is at most IDENTITY_TOL, the exhaustive check
    would pass.  Otherwise the exhaustive check runs, and a sigma that fails
    it raises NotACocycle naming its first failing triple."""
    if not G.is_finite:
        raise Unsupported("decompose needs a finite-table group")
    T, S = G.multiplication_table(), value_table(G, sigma)
    rep = validate(G, sigma, values=S) if identity_bound(G, S) > IDENTITY_TOL else None
    if rep is not None and not rep.passed:
        w = rep.witnesses[0] if rep.witnesses else None
        where = (f"the identity fails at {tuple(w['triple'])} by {w['residual']:.3g}" if w
                 else f"modulus residual {rep.max_modulus_residual:.3g}, normalisation "
                      f"residual {rep.max_normalization_residual:.3g}")
        raise NotACocycle(f"sigma is not a normalised unit-modulus 2-cocycle: {where}")
    n = G.order
    idx = np.arange(n)
    inv = G.inverses
    # conj[h, g] = h g h^-1 and phi[h, g] its scalar
    conj = T[T, inv[:, None]]
    phi = complex_mul(complex_mul(S, S[T, inv[:, None]]), np.conj(S[inv, idx])[:, None])
    # sums[g, k]: sum of phi(h, g) over the h with h g h^-1 = k
    flat = (idx[None, :] * n + conj).ravel()
    sums = (np.bincount(flat, phi.real.ravel(), n * n)
            + 1j * np.bincount(flat, phi.imag.ravel(), n * n)).reshape(n, n)
    centraliser = np.count_nonzero(conj == idx[None, :], axis=0)
    regular = np.hypot(sums[idx, idx].real, sums[idx, idx].imag) > centraliser / 2
    first = conj.min(axis=0)  # the least index of each class
    reps = np.flatnonzero((first == idx) & regular)
    zdim, nu = len(reps), np.sqrt(n // centraliser[reps])
    centre = sums[reps] / sums[reps, reps][:, None]
    centre[np.arange(zdim), reps] = 1.0
    cls = np.searchsorted(reps, first, side="right") - 1  # the class of each regular g
    left = T[inv, reps[:, None]]  # g^-1 r_j at [j, g]
    weight, rows = S[idx, left], max(1, 2 ** 18 // left.size)

    def at_reps(x, Y):
        """(x y)[r_j] = sum over g of S[g, g^-1 r_j] x_g y[g^-1 r_j], as [row y, j],
        for about 2^18 terms at a time."""
        a = complex_product(weight.real, weight.imag, x.real, x.imag)
        ys = (Y[k:k + rows][:, left] for k in range(0, len(Y), rows))
        terms = (complex_product(*a, y.real, y.imag) for y in ys)
        return np.concatenate([re.sum(axis=-1) + 1j * im.sum(axis=-1) for re, im in terms])

    def star(vec):
        return complex_mul(np.conj(S[inv, idx]), np.conj(vec))[inv]

    last = None
    for attempt in range(MAX_RETRIES):
        rng = np.random.default_rng((seed + 1) * 1000 + attempt)
        coeff = rng.standard_normal(zdim) + 1j * rng.standard_normal(zdim)
        wvec = coeff @ centre
        # M[j, k] = (w c_k)[r_j], scaled to nu_j M[j, k] / nu_k
        H = complex_mul(at_reps(0.5 * (wvec + star(wvec)), centre).T, nu[:, None] / nu)
        ev, V = np.linalg.eigh(0.5 * (H + H.conj().T))
        gap = CLUSTER_GAP * max(1.0, float(np.max(np.abs(ev))))
        if np.any(np.diff(ev) <= gap):
            last = f"eigenvalues within {gap:.3g} for {zdim} sigma-regular classes"
            continue
        V = complex_mul(V, 1 / nu[:, None])  # nu_0 = 1 leaves V[0] as it is
        P = complex_mul(np.conj(V[0])[:, None], complex_mul(V[cls].T, centre[cls, idx]))
        sizes = [int(round(np.sqrt(n * p[0].real))) for p in P]

        found, pq = [], np.zeros((2, n), dtype=complex)  # p, and the sum of those after p
        for p in P[::-1]:
            pq[0] = p
            prods = at_reps(p, pq)  # p p, then p q
            prods[0] -= p[reps]
            norms = np.sqrt(np.sum((prods.real ** 2 + prods.imag ** 2) * nu ** 2, axis=1))
            found.append((np.sqrt(sum_squares(p - star(p))), *norms))
            pq[1] += p
        names = ("self_adjoint", "idempotent", "orthogonal")
        residuals = {key: float(max(column)) for key, column in zip(names, zip(*found))}
        # (u_s p u_s*)[s k s^-1] = phi(s, k) p[k]
        diff = complex_mul(phi[G.generators], P[:, None]) - P[:, conj[G.generators]]
        residuals["central"] = float(np.max(np.hypot(diff.real, diff.imag), initial=0.0))
        residuals["sum_to_unit"] = float(np.sqrt(sum_squares(P.sum(axis=0) - (idx == 0))))
        order = np.argsort([-s for s in sizes], kind="stable")
        return BlockDecomposition(G, P[order], [sizes[i] for i in order], residuals)
    raise DegenerateAfterRetries(f"no clean decomposition after {MAX_RETRIES} tries: {last}")


@dataclass
class Summand:
    block_indices: list
    block_size: int
    stabilizer: list
    stabilizer_index: int
    orbit_size: int

    def to_json(self):
        return {
            "block_indices": self.block_indices,
            "block_size": self.block_size,
            "stabilizer_order": len(self.stabilizer),
            "stabilizer_index": self.stabilizer_index,
            "orbit_size": self.orbit_size,
        }


def orbit_decomposition(sys: TwistedSystem, blocks: BlockDecomposition):
    """Group the minimal central projections into quotient orbits.

    Each alpha_h must permute the projections (within l2 tolerance); a summand
    records its blocks, the stabilizer of the lowest-index block, and the
    index bookkeeping of the induced-algebra shape."""
    L = sys.gamma.quotient
    pvecs = blocks.projections
    m = len(pvecs)
    scale = 1e-8 * np.maximum(1.0, np.linalg.norm(pvecs, axis=1))
    perms = {}
    for h, perm, scalar in zip(L.elements(), sys.alpha_perm, sys.alpha_scalar):
        imgs = np.zeros_like(pvecs)
        imgs[:, perm] = complex_mul(scalar, pvecs)
        close = np.linalg.norm(imgs[:, None] - pvecs[None], axis=2) <= scale
        if not close.any(axis=1).all():
            i = int(np.argmin(close.any(axis=1)))
            raise NotPermuting(f"alpha at {L.element_to_json(h)} does not map projection {i} "
                               "to any projection")
        perms[h] = close.argmax(axis=1).tolist()

    unassigned = set(range(m))
    summands = []
    while unassigned:
        base = min(unassigned)
        orbit = sorted({perms[h][base] for h in L.elements()})
        stab = [h for h in L.elements() if perms[h][base] == base]
        sizes = {blocks.block_sizes[i] for i in orbit}
        if len(sizes) > 1:
            raise NotPermuting(f"orbit {orbit} mixes block sizes {sorted(sizes)}")
        summands.append(Summand(
            block_indices=orbit,
            block_size=sizes.pop(),
            stabilizer=stab,
            stabilizer_index=len(L.elements()) // len(stab),
            orbit_size=len(orbit),
        ))
        unassigned -= set(orbit)
    return summands


def crossed_cocycle(sys: TwistedSystem) -> TableCocycle:
    """The crossed product on the basis u_k v_h as a twisted group algebra of
    the whole extension.

    alpha_h(u_k) is a scalar times u_{s(h) k s(h)^-1} and rho(h1, h2) a scalar
    times u_{s(h1) s(h2) s(h1 h2)^-1}, so for x = (k1, h1) and y = (k2, h2)

        u_{k1} v_{h1} . u_{k2} v_{h2} = u_{k1} alpha_{h1}(u_{k2}) rho(h1, h2) v_{h1 h2}
                                      = omega(x, y) u_{k3} v_{h1 h2}

    with (k3, h1 h2) = xy in the extension.  Returns omega as a table cocycle
    on gamma, indexed like its elements: x = (k1, h1) at |K| h1 + k1."""
    nl, m = sys.alpha_perm.shape
    SK, TK = sys.sigma_k.values, sys.K.multiplication_table()
    # axes [h1, k1, h2, k2]; u_k1 alpha_h1(u_k2) = front u_{TK[k1, img]}
    h1, k1, h2, k2 = (np.arange(nl)[:, None, None, None], np.arange(m)[:, None, None],
                      np.arange(nl)[:, None], np.arange(m))
    img = sys.alpha_perm[h1, k2]
    front = complex_mul(SK[k1, img], sys.alpha_scalar[h1, k2])
    omega = complex_mul(complex_mul(front, SK[TK[k1, img], sys.rho_index[h1, h2]]),
                        sys.rho_scalar[h1, h2])
    return TableCocycle(sys.gamma, omega.reshape(nl * m, nl * m))


def gauge_residual(sys: TwistedSystem, omega: TableCocycle) -> float:
    """max |omega d beta - sigma| over gamma's pairs, 0 when the Packer-Raeburn
    gauge u_k v_h -> u_(k,e) u_(0,h) = beta(g) u_g carries C(Gamma, omega)
    onto C(Gamma, sigma): beta(g) = sigma((k, e), (0, h)) = S[k, |K| h] at
    g = |K| h + k, and d beta(x, y) = conj beta(x) conj beta(y) beta(xy)."""
    S, m = sys.S, sys.K.order
    g = np.arange(len(S))
    beta = S[g % m, g - g % m]
    dbeta = complex_mul(complex_mul(np.conj(beta)[:, None], np.conj(beta)), beta[sys.gamma.table])
    return float(np.max(_distance(0, complex_mul(omega.values, dbeta), 0, S)))


def attribute_blocks_to_summands(kblocks: BlockDecomposition, summands, sigma_k: TableCocycle,
                                 blocks: BlockDecomposition):
    """Match each block q of C(Gamma, sigma) to the summand whose orbit sum z
    of K-projections contains it; returns one block-size list per summand.  z
    sits at gamma's first |K| indices, where the gauge is trivial (beta(k) =
    sigma(k, e) = 1).  Both are central projections, so ||zq - q||_2^2 =
    tau(q) - tau(zq) for the trace tau(x) = x[e], and tau(zq) sums
    sigma_K(k, k^-1) z[k] q[k^-1] over K.  q joins z when tau(zq) is within
    1e-7 tau(q) of tau(q) and each of q's traces that close to 0 or to tau(q)."""
    inv = sigma_k.group.inverses
    Z = np.array([kblocks.projections[s.block_indices].sum(axis=0) for s in summands])
    traces = (Z * sigma_k.values[np.arange(len(inv)), inv]) @ blocks.projections[:, inv].T
    tau = blocks.projections[:, 0]
    tol = 1e-7 * np.abs(tau)
    joins = np.abs(traces - tau) <= tol
    joins &= (joins | (np.abs(traces) <= tol)).all(axis=0)
    return [sorted(size for size, j in zip(blocks.block_sizes, row) if j) for row in joins]


def crossed_product_pipeline(gamma: ExtensionGroup, sigma: Cocycle,
                             convention: str = DEFAULT_CONVENTION, seed: int = 0) -> dict:
    """End-to-end run: induced action, axiom check, K-block decomposition,
    orbits, and the blocks of C(Gamma, sigma) attributed to them; they match
    when the sizes agree and the gauge carries the crossed product there."""
    sys = induced_action_data(gamma, sigma, convention)
    action = verify_twisted_action(sys)
    if not action.passed:
        return {
            "convention": convention,
            "axioms": action.to_json(),
            "seed": seed,
            "note": "twisted-action axioms failed; decomposition skipped",
        }
    kblocks = decompose_blocks(sys.K, sys.sigma_k, seed=seed)
    summands = orbit_decomposition(sys, kblocks)
    direct = decompose_blocks(gamma, TableCocycle(gamma, sys.S), seed=seed)
    per_summand = attribute_blocks_to_summands(kblocks, summands, sys.sigma_k, direct)
    assembled = sorted(size for sizes in per_summand for size in sizes)
    first, second = Counter(assembled), Counter(direct.block_sizes)
    diff = {} if first == second else {"only_in_first": sorted((first - second).elements()),
                                       "only_in_second": sorted((second - first).elements())}
    return {
        "convention": convention,
        "axioms": action.to_json(),
        "k_block_sizes": sorted(kblocks.block_sizes),
        "summands": [s.to_json() for s in summands],
        "assembled_block_sizes": assembled,
        "assembled_blocks_per_summand": per_summand,
        "direct_block_sizes": sorted(direct.block_sizes),
        "blocks_match": gauge_residual(sys, crossed_cocycle(sys)) <= AXIOM_TOL and first == second,
        "diff": diff,
        "dimension": gamma.order,
        "dimension_check": gamma.order == gamma.K.order * len(gamma.quotient.elements()),
        "seed": seed,
    }
