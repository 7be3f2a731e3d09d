"""Crossed-product machinery at desk scale.

From an extension backend and a cocycle on it, extract the induced twisted
action (alpha, rho) of the quotient on the twisted algebra of the finite
normal subgroup, verify the twisted-action axioms, decompose finite
dimensional twisted group algebras into matrix blocks, group the blocks into
quotient orbits, reassemble the crossed product as the twisted group algebra
of the whole extension under the cocycle read off (alpha, rho), and compare
block structures.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraElement, convolve, delta, involute
from .cocycles import Cocycle, TableCocycle, validate, value_table
from .errors import (BackendMismatch, DegenerateAfterRetries, NotACocycle, NotPermuting,
                     Unsupported)
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


def restrict_to_k(gamma: ExtensionGroup, sigma: Cocycle) -> TableCocycle:
    """The cocycle on K obtained by evaluating sigma on embedded pairs."""
    embedded = [gamma.embed_k(k) for k in range(gamma.K.order)]
    return TableCocycle(gamma.K, [[sigma.evaluate(x, y) for y in embedded] for x in embedded])


@dataclass
class TwistedSystem:
    """The data (K, Lambda, sigma_K, alpha, rho) induced by a section.

    alpha maps quotient elements to |K| x |K| matrices in the delta basis of
    the twisted algebra of K; rho maps quotient pairs to single-term unitaries
    in that algebra."""

    gamma: ExtensionGroup
    sigma: Cocycle
    K: FiniteTableGroup
    sigma_k: TableCocycle
    alpha: dict
    rho: dict
    convention: str

    def quotient_elements(self):
        return self.gamma.quotient.elements()

    def apply_alpha(self, h, a: AlgebraElement) -> AlgebraElement:
        vec = element_to_vector(self.K, a)
        return vector_to_element(self.K, self.alpha[h] @ vec)


def element_to_vector(K: FiniteTableGroup, a: AlgebraElement) -> np.ndarray:
    v = np.zeros(K.order, dtype=complex)
    for g, c in a.coeffs.items():
        v[g] = c
    return v


def vector_to_element(K: FiniteTableGroup, v) -> AlgebraElement:
    return AlgebraElement(K, {i: v[i] for i in range(len(v)) if abs(v[i]) >= 1e-300})


def induced_action_data(gamma: ExtensionGroup, sigma: Cocycle,
                        convention: str = DEFAULT_CONVENTION) -> TwistedSystem:
    """Evaluate the section formulas for alpha and rho literally.

    With s(h) = (e, h), alpha_h(u_k) is a scalar times u_{s(h) k s(h)^-1} and
    rho(h1, h2) a scalar times u_{s(h1) s(h2) s(h1 h2)^-1}.  The convention
    flag selects whether the second scalar factor of alpha is conjugated; no
    axiom check happens here."""
    if gamma.kind != "extension":
        raise BackendMismatch("induced_action_data needs an extension backend")
    if convention not in (CONVENTION_AS_PRINTED, CONVENTION_CONJUGATED):
        raise ValueError(f"unknown convention {convention!r}")
    sigma.group.check_same(gamma)
    K = gamma.K
    L = gamma.quotient
    sigma_k = restrict_to_k(gamma, sigma)

    alpha = {}
    for h in L.elements():
        s_h = gamma.section(h)
        s_h_inv = gamma.invert(s_h)
        m = np.zeros((K.order, K.order), dtype=complex)
        for k in range(K.order):
            gk = gamma.embed_k(k)
            conj_el = gamma.compose(gamma.compose(s_h, gk), s_h_inv)
            k2 = conj_el[0]
            c1 = sigma.evaluate(s_h, gk)
            c2 = sigma.evaluate(conj_el, s_h)
            if convention == CONVENTION_CONJUGATED:
                c2 = np.conj(c2)
            m[k2, k] = c1 * c2
        alpha[h] = m

    rho = {}
    for h1 in L.elements():
        for h2 in L.elements():
            s1, s2 = gamma.section(h1), gamma.section(h2)
            s12 = gamma.section(L.compose(h1, h2))
            w = gamma.compose(gamma.compose(s1, s2), gamma.invert(s12))
            c = sigma.evaluate(s1, s2) * np.conj(sigma.evaluate(w, s12))
            rho[(h1, h2)] = delta(K, w[0], c)
    return TwistedSystem(gamma, sigma, K, sigma_k, alpha, rho, convention)


@dataclass
class ActionReport:
    passed: bool
    max_residual: float
    residuals: dict
    tol: float = AXIOM_TOL

    def to_json(self):
        return {
            "passed": self.passed,
            "max_residual": self.max_residual,
            "residuals": self.residuals,
            "tol": self.tol,
        }


def _l2_vec(a: AlgebraElement) -> float:
    return float(np.sqrt(sum(abs(c) ** 2 for c in a.coeffs.values())))


def verify_twisted_action(sys: TwistedSystem) -> ActionReport:
    """Residuals of the twisted-action axioms over all quotient triples.

    Checked: alpha_e = id; rho(e, .) = rho(., e) = delta_e; every alpha_h a
    *-automorphism; every rho unitary; the composition rule
    alpha_h1 alpha_h2 = Ad(rho(h1, h2)) alpha_{h1 h2}; and the rho cocycle rule
    alpha_h1(rho(h2, h3)) * rho(h1, h2 h3) = rho(h1, h2) * rho(h1 h2, h3)."""
    K, L, sig = sys.K, sys.gamma.quotient, sys.sigma_k
    hs = L.elements()
    e = L.identity()
    res = {
        "unit": 0.0,
        "rho_normalised": 0.0,
        "automorphism": 0.0,
        "involution": 0.0,
        "rho_unitary": 0.0,
        "composition": 0.0,
        "rho_cocycle": 0.0,
    }

    res["unit"] = float(np.max(np.abs(sys.alpha[e] - np.eye(K.order))))
    for h in hs:
        for pair in ((e, h), (h, e)):
            d = sys.rho[pair] - delta(K, 0)
            res["rho_normalised"] = max(res["rho_normalised"], _l2_vec(d))

    deltas = [delta(K, k) for k in range(K.order)]
    for h in hs:
        imgs = [sys.apply_alpha(h, dk) for dk in deltas]
        res["unit"] = max(res["unit"], _l2_vec(imgs[0] - delta(K, 0)))
        for i in range(K.order):
            for j in range(K.order):
                lhs = convolve(imgs[i], imgs[j], sig)
                rhs = sys.apply_alpha(h, convolve(deltas[i], deltas[j], sig))
                res["automorphism"] = max(res["automorphism"], _l2_vec(lhs - rhs))
            lhs = involute(imgs[i], sig)
            rhs = sys.apply_alpha(h, involute(deltas[i], sig))
            res["involution"] = max(res["involution"], _l2_vec(lhs - rhs))

    for (h1, h2), u in sys.rho.items():
        ustar = involute(u, sig)
        res["rho_unitary"] = max(
            res["rho_unitary"],
            _l2_vec(convolve(u, ustar, sig) - delta(K, 0)),
            _l2_vec(convolve(ustar, u, sig) - delta(K, 0)),
        )

    for h1 in hs:
        for h2 in hs:
            u = sys.rho[(h1, h2)]
            ustar = involute(u, sig)
            h12 = L.compose(h1, h2)
            for dk in deltas:
                lhs = sys.apply_alpha(h1, sys.apply_alpha(h2, dk))
                rhs = convolve(convolve(u, sys.apply_alpha(h12, dk), sig), ustar, sig)
                res["composition"] = max(res["composition"], _l2_vec(lhs - rhs))
            for h3 in hs:
                lhs = convolve(sys.apply_alpha(h1, sys.rho[(h2, h3)]),
                               sys.rho[(h1, L.compose(h2, h3))], sig)
                rhs = convolve(sys.rho[(h1, h2)], sys.rho[(h12, h3)], sig)
                res["rho_cocycle"] = max(res["rho_cocycle"], _l2_vec(lhs - rhs))

    worst = max(res.values())
    return ActionReport(worst <= AXIOM_TOL, worst, res)


@dataclass
class BlockDecomposition:
    projections: list
    block_sizes: list
    residuals: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "block_sizes": sorted(self.block_sizes),
            "projections": [p.to_json()["terms"] for p in self.projections],
            "residuals": self.residuals,
        }


def _left(T, S, v, right=False):
    """Matrix of b -> v *_sigma b on l2(G), whose column h holds S[g, h] v[g]
    at row gh; with ``right``, of b -> b *_sigma v, column g holds S[g, h] v[h]."""
    M = np.zeros(T.shape, dtype=complex)
    if right:
        M[T, np.arange(len(T))[:, None]] = S * v[None, :]
    else:
        M[T, np.arange(len(T))] = S * v[:, None]
    return M


def decompose_blocks(G: FiniteTableGroup, sigma: Cocycle, seed: int = 0) -> BlockDecomposition:
    """Matrix-block decomposition of the twisted group algebra of a finite
    group: minimal central projections plus the block-size multiset.

    Everything comes from the multiplication table T and the value table S of
    sigma.  With u_h u_g u_h* = phi(h, g) u_{hgh^-1}, the centre is spanned by
    the twisted class sums of the sigma-regular classes: g is sigma-regular
    when phi(., g) is trivial on its centraliser C(g), and that character sums
    to |C(g)| or to 0 over C(g).  A seeded random self-adjoint central element
    is spectrally decomposed; its eigenvalue clusters give the projections p,
    and the canonical trace p_e = d^2 / |G| the block sizes d.  Retries with a
    fresh element when clusters merge."""
    if G.kind != "finite-table":
        raise Unsupported("decompose needs a finite-table group")
    sigma.group.check_same(G)
    T, S = G.multiplication_table(), value_table(G, sigma)
    rep = validate(G, sigma, values=S)
    if not rep.passed:
        w = rep.witnesses[0] if rep.witnesses else None
        where = (f"the identity fails at {tuple(w['triple'])} by {w['residual']:.3g}" if w
                 else f"modulus residual {rep.max_modulus_residual:.3g}, normalisation "
                      f"residual {rep.max_normalization_residual:.3g}")
        raise NotACocycle(f"sigma is not a normalised unit-modulus 2-cocycle: {where}")
    n = G.order
    idx = np.arange(n)
    inv = np.array([G.invert(g) for g in idx])
    # conj[h, g] = h g h^-1 and phi[h, g] its scalar
    conj = T[T, inv[:, None]]
    phi = S * S[T, inv[:, None]] * np.conj(S[inv, idx])[:, None]
    # sums[g, k]: sum of phi(h, g) over the h with h g h^-1 = k
    flat = (idx[None, :] * n + conj).ravel()
    sums = (np.bincount(flat, phi.real.ravel(), n * n)
            + 1j * np.bincount(flat, phi.imag.ravel(), n * n)).reshape(n, n)
    centraliser = np.count_nonzero(conj == idx[None, :], axis=0)
    regular = np.abs(sums[idx, idx]) > centraliser / 2
    reps = np.flatnonzero((conj.min(axis=0) == idx) & regular)
    centre = sums[reps] / centraliser[reps, None]
    zdim = len(reps)

    def star(vec):
        out = np.empty(n, dtype=complex)
        out[inv] = np.conj(S[inv, idx]) * np.conj(vec)
        return out

    last = None
    for attempt in range(MAX_RETRIES):
        rng = np.random.default_rng((seed + 1) * 1000 + attempt)
        coeff = rng.standard_normal(zdim) + 1j * rng.standard_normal(zdim)
        wvec = coeff @ centre
        C = _left(T, S, 0.5 * (wvec + star(wvec)))
        C = 0.5 * (C + C.conj().T)
        ev, U = np.linalg.eigh(C)
        gap = CLUSTER_GAP * max(1.0, float(np.max(np.abs(ev))))
        cuts = np.flatnonzero(np.diff(ev) > gap) + 1
        if len(cuts) + 1 != zdim:
            last = f"{len(cuts) + 1} clusters for {zdim} sigma-regular classes"
            continue
        P = np.array([Uc @ Uc[0].conj() for Uc in np.split(U, cuts, axis=1)])
        sizes = [int(round(np.sqrt(n * p[0].real))) for p in P]

        res = {"self_adjoint": [], "idempotent": [], "orthogonal": [0.0], "central": []}
        for i, p in enumerate(P):
            Lp = _left(T, S, p)
            prods = P[i:] @ Lp.T  # p times p, then times each later projection
            res["self_adjoint"].append(np.linalg.norm(p - star(p)))
            res["idempotent"].append(np.linalg.norm(prods[0] - p))
            res["orthogonal"].extend(np.linalg.norm(prods[1:], axis=1))
            res["central"].append(np.max(np.abs(Lp - _left(T, S, p, right=True))))
        residuals = {key: float(max(values)) for key, values in res.items()}
        residuals["sum_to_unit"] = float(np.linalg.norm(P.sum(axis=0) - (idx == 0)))
        order = np.argsort([-s for s in sizes], kind="stable")
        return BlockDecomposition([vector_to_element(G, P[i]) for i in order],
                                  [sizes[i] for i in order], residuals)
    raise DegenerateAfterRetries(f"no clean decomposition after {MAX_RETRIES} tries: {last}")


@dataclass
class Summand:
    block_indices: list
    block_size: int
    stabilizer: list
    stabilizer_index: int
    orbit_size: int

    def to_json(self, L=None):
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
    K, L = sys.K, sys.gamma.quotient
    pvecs = [element_to_vector(K, p) for p in blocks.projections]
    m = len(pvecs)
    perms = {}
    for h in L.elements():
        perm = []
        for i, p in enumerate(pvecs):
            img = sys.alpha[h] @ p
            hit = None
            for j, q in enumerate(pvecs):
                if np.linalg.norm(img - q) <= 1e-8 * max(1.0, np.linalg.norm(q)):
                    hit = j
                    break
            if hit is None:
                raise NotPermuting(
                    f"alpha at {h!r} does not map projection {i} to any projection")
            perm.append(hit)
        perms[h] = perm

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
    on the finite-table backend of the extension, indexed like
    gamma.elements()."""
    gamma = sys.gamma
    whole = FiniteTableGroup(gamma.multiplication_table().tolist(), validate=False)
    m = sys.K.order
    S = sys.sigma_k.values
    Ktab = sys.K.multiplication_table()
    hs = sys.quotient_elements()
    omega = np.empty((whole.order, whole.order), dtype=complex)
    for i, h1 in enumerate(hs):
        A = sys.alpha[h1]
        # alpha_h1(u_k) = A[img[k], k] u_{img[k]}, so
        # u_k1 alpha_h1(u_k2) = front[k1, k2] u_{mid[k1, k2]}
        img = np.argmax(np.abs(A), axis=0)
        front = S[:, img] * A[img, np.arange(m)]
        mid = Ktab[:, img]
        for j, h2 in enumerate(hs):
            [(w, c)] = sys.rho[(h1, h2)].coeffs.items()
            omega[i * m:(i + 1) * m, j * m:(j + 1) * m] = front * S[mid, w] * c
    return TableCocycle(whole, omega)


def assemble_crossed_product(sys: TwistedSystem, seed: int = 0):
    """Build the crossed product as the twisted group algebra of the whole
    extension under crossed_cocycle and decompose it into blocks.

    Returns (basis, omega, blocks): basis is gamma.elements(), basis[i] = (k, h)
    standing for u_k v_h; omega is the table cocycle on the finite-table
    backend; blocks its BlockDecomposition."""
    omega = crossed_cocycle(sys)
    return sys.gamma.elements(), omega, decompose_blocks(omega.group, omega, seed=seed)


def attribute_blocks_to_summands(sys: TwistedSystem, kblocks: BlockDecomposition,
                                 summands, omega: TableCocycle,
                                 crossed_blocks: BlockDecomposition):
    """Match each assembled block to the summand whose central support
    contains it; returns one block-size list per summand."""
    gamma, whole = sys.gamma, omega.group
    T = whole.multiplication_table()
    qvecs = [element_to_vector(whole, q) for q in crossed_blocks.projections]
    out = []
    for s in summands:
        z = np.zeros(whole.order, dtype=complex)
        for i in s.block_indices:
            for k, c in kblocks.projections[i].coeffs.items():
                z[gamma.element_index(gamma.embed_k(k))] += c
        Lz = _left(T, omega.values, z)
        out.append(sorted(size for q, size in zip(qvecs, crossed_blocks.block_sizes)
                          if np.linalg.norm(Lz @ q - q) <= 1e-7 * max(1.0, np.linalg.norm(q))))
    return out


def compare_block_structure(d1: BlockDecomposition, d2: BlockDecomposition):
    """Multiset equality of block sizes, with a diff."""
    c1, c2 = Counter(d1.block_sizes), Counter(d2.block_sizes)
    if c1 == c2:
        return True, {}
    diff = {
        "only_in_first": sorted((c1 - c2).elements()),
        "only_in_second": sorted((c2 - c1).elements()),
    }
    return False, diff


def crossed_product_pipeline(gamma: ExtensionGroup, sigma: Cocycle,
                             convention: str = DEFAULT_CONVENTION, seed: int = 0) -> dict:
    """End-to-end run: induced action, axiom check, K-block decomposition,
    orbits, assembled crossed product, and comparison with the directly
    decomposed twisted algebra of the whole group."""
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
    basis, omega, crossed_blocks = assemble_crossed_product(sys, seed=seed)
    per_summand = attribute_blocks_to_summands(sys, kblocks, summands, omega, crossed_blocks)
    # the twisted algebra of the whole group, decomposed directly for comparison
    direct_sigma = TableCocycle(omega.group, value_table(gamma, sigma))
    direct = decompose_blocks(omega.group, direct_sigma, seed=seed)
    match, diff = compare_block_structure(crossed_blocks, direct)
    return {
        "convention": convention,
        "axioms": action.to_json(),
        "k_block_sizes": sorted(kblocks.block_sizes),
        "summands": [s.to_json() for s in summands],
        "assembled_block_sizes": sorted(crossed_blocks.block_sizes),
        "assembled_blocks_per_summand": per_summand,
        "direct_block_sizes": sorted(direct.block_sizes),
        "blocks_match": match,
        "diff": diff,
        "dimension": len(basis),
        "dimension_check": len(basis) == gamma.K.order * len(gamma.quotient.elements()),
        "seed": seed,
    }
