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
from .cocycles import Cocycle, TableCocycle
from .errors import BackendMismatch, DegenerateAfterRetries, NotPermuting
from .groups import ExtensionGroup, FiniteTableGroup
from .normspectra import regular_rep

AXIOM_TOL = 1e-10
# decompose_blocks: relative eigenvalue cut for the centre (null space of
# the commutator Gram matrix), relative gap between eigenvalue clusters, and
# absolute singular-value cut for the rank of L(p)
NULL_TOL = 1e-10
CLUSTER_GAP = 1e-8
RANK_TOL = 1e-6
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
    K = gamma.K
    vals = np.array(
        [[sigma.evaluate(gamma.embed_k(i), gamma.embed_k(j)) for j in range(K.order)]
         for i in range(K.order)],
        dtype=complex,
    )
    return TableCocycle(K, vals)


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

    def sizes_multiset(self):
        return Counter(self.block_sizes)

    def to_json(self):
        return {
            "block_sizes": sorted(self.block_sizes),
            "projections": [p.to_json()["terms"] for p in self.projections],
            "residuals": self.residuals,
        }


def decompose_blocks(G: FiniteTableGroup, sigma: Cocycle, seed: int = 0) -> BlockDecomposition:
    """Matrix-block decomposition of the twisted group algebra of a finite
    group: minimal central projections plus the block-size multiset.

    Centre from the nullspace of a -> [L(a) - R(a)] over the left and right
    regular matrices, then a seeded random self-adjoint central element is
    spectrally decomposed; eigenvalue clusters give the projections, sqrt of
    the rank of L(p) the block sizes.  Retries with a fresh random element
    when clusters merge."""
    if not G.is_finite:
        raise BackendMismatch("decompose_blocks needs a finite group")
    n = G.order
    left = [regular_rep(G, sigma, delta(G, g)) for g in range(n)]
    # right multiplication by delta_h: R_h[gh, g] = sigma(g, h) = L_g[gh, h]
    right = np.array(left).transpose(2, 1, 0)
    unit = np.zeros(n, dtype=complex)
    unit[0] = 1.0
    gram = np.zeros((n, n), dtype=complex)
    for Li, Ri in zip(left, right):
        D = Li - Ri
        gram += D.conj().T @ D
    w, V = np.linalg.eigh(gram)
    null_tol = NULL_TOL * max(w[-1], 1.0)
    centre = [V[:, i] for i in range(n) if w[i] <= null_tol]
    zdim = len(centre)
    if zdim == 0:
        raise DegenerateAfterRetries("empty centre, not an algebra?")

    def lmat(vec):
        M = np.zeros((n, n), dtype=complex)
        for i, Li in enumerate(left):
            if abs(vec[i]) > 1e-300:
                M += vec[i] * Li
        return M

    def star(vec):
        return element_to_vector(G, involute(vector_to_element(G, vec), sigma))

    last = None
    for attempt in range(MAX_RETRIES):
        rng = np.random.default_rng((seed + 1) * 1000 + attempt)
        coeff = rng.standard_normal(zdim) + 1j * rng.standard_normal(zdim)
        wvec = sum(c * z for c, z in zip(coeff, centre))
        cvec = 0.5 * (wvec + star(wvec))
        C = lmat(cvec)
        C = 0.5 * (C + C.conj().T)
        ev, U = np.linalg.eigh(C)
        gap = CLUSTER_GAP * max(1.0, float(np.max(np.abs(ev))))
        clusters = []
        start = 0
        for i in range(1, n + 1):
            if i == n or ev[i] - ev[i - 1] > gap:
                clusters.append((start, i))
                start = i
        if len(clusters) != zdim:
            last = f"{len(clusters)} clusters for centre dimension {zdim}"
            continue
        projections = []
        sizes = []
        ok = True
        for lo, hi in clusters:
            Uc = U[:, lo:hi]
            P = Uc @ Uc.conj().T
            pvec = P @ unit
            r = int(np.linalg.matrix_rank(lmat(pvec), tol=RANK_TOL))
            s = int(round(np.sqrt(r)))
            if s * s != r:
                ok = False
                last = f"block rank {r} is not a square"
                break
            projections.append(pvec)
            sizes.append(s)
        if not ok or sum(s * s for s in sizes) != n:
            if ok:
                last = f"sum of squared block sizes {sum(s * s for s in sizes)} != {n}"
            continue

        residuals = {"self_adjoint": 0.0, "idempotent": 0.0, "orthogonal": 0.0,
                     "sum_to_unit": 0.0, "central": 0.0}
        total = np.zeros(n, dtype=complex)
        for p in projections:
            residuals["self_adjoint"] = max(residuals["self_adjoint"],
                                            float(np.linalg.norm(p - star(p))))
            residuals["idempotent"] = max(residuals["idempotent"],
                                          float(np.linalg.norm(lmat(p) @ p - p)))
            rmat = np.zeros((n, n), dtype=complex)
            for i, Ri in enumerate(right):
                if abs(p[i]) > 1e-300:
                    rmat += p[i] * Ri
            residuals["central"] = max(residuals["central"],
                                       float(np.max(np.abs(lmat(p) - rmat))))
            total += p
        for i, p in enumerate(projections):
            for q in projections[i + 1:]:
                residuals["orthogonal"] = max(residuals["orthogonal"],
                                              float(np.linalg.norm(lmat(p) @ q)))
        residuals["sum_to_unit"] = float(np.linalg.norm(total - unit))
        order = np.argsort([-s for s in sizes], kind="stable")
        return BlockDecomposition([vector_to_element(G, projections[i]) for i in order],
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
    elems = gamma.elements()
    whole = FiniteTableGroup(
        [[gamma.element_index(gamma.compose(a, b)) for b in elems] for a in elems],
        validate=False,
    )
    m = sys.K.order
    S = sys.sigma_k.values
    Ktab = np.array(sys.K.table)
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
    qvecs = [element_to_vector(whole, q) for q in crossed_blocks.projections]
    out = []
    for s in summands:
        z = {}
        for i in s.block_indices:
            for k, c in kblocks.projections[i].coeffs.items():
                g = gamma.element_index(gamma.embed_k(k))
                z[g] = z.get(g, 0.0) + c
        Lz = regular_rep(whole, omega, AlgebraElement(whole, z))
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
    direct_sigma = TableCocycle(omega.group, np.array(
        [[sigma.evaluate(a, b) for b in basis] for a in basis], dtype=complex))
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
