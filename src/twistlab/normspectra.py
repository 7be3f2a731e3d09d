"""Reduced-norm and spectral-radius numerics.

Exact machinery for finite groups (sigma-regular representation, operator
norms, spectra), certified truncated lower bounds and Haagerup-type upper
bounds for free groups, l2 spectral-radius sequences, the untwisted-to-twisted
norm-transfer check, and free-subsemigroup certification.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .algebra import (AlgebraElement, _sigma_or_trivial, delta, is_normal, l1_norm, l2_norm,
                      power_norms, sum_squares)
from .cocycles import (Cocycle, TrivialCocycle, complex_mul, complex_product, gauge_factors,
                       pair_grid, value_table)
from .errors import InvalidArgument, MemoryBudgetExceeded, Unsupported
from .groups import Group, number_positions

DEFAULT_MEM_CAP = 2_000_000
# Lanczos stops once the Ritz residual is this small relative to the Ritz
# value, or after this many steps; sphere-like elements need about r + 1
LANCZOS_TOL = 1e-13
LANCZOS_MAX_STEPS = 1000
UNIT_ROUNDOFF = 2.0 ** -53


@dataclass
class SpectralReport:
    r2_sequence: list
    r2_at_max_power: float
    r_sigma: float | None
    normal: bool
    metadata: dict = field(default_factory=dict)

    def to_json(self):
        return asdict(self)


def regular_matrices(T_rows, S_rows, coeffs) -> np.ndarray:
    """The matrices of b -> a *_sigma b on l2(G), one per row a of ``coeffs``.

    The support is g_1..g_k: coeffs[:, i] holds the coefficients at g_i, and
    T_rows[i] and S_rows[i] are the rows at g_i of G's index table and of
    sigma's value table.  Column h holds sigma(g_i, h) a_{g_i} at row g_i h,
    formed as a per-pair loop accumulating into zeros forms it: the product
    by complex_mul, which rounds as Python's complex multiply, added to
    0.0.  Left multiplication is injective, so no entry receives two terms,
    and a zero coefficient leaves its entries +0.0.

    The columns at the support, T[:, supp].T and S[:, supp].T, in place of
    the rows give the matrices of b -> b *_sigma a instead."""
    n = T_rows.shape[1]
    out = np.zeros((len(coeffs), n, n), dtype=complex)
    out[:, T_rows, np.arange(n)] = 0.0 + complex_mul(S_rows, coeffs[:, :, None])
    return out


def regular_rep(G: Group, sigma: Cocycle, a: AlgebraElement) -> np.ndarray:
    """Matrix of left twisted convolution by a on l2(G), element enumeration
    basis: column h carries sigma(g, h) a_g at row gh.  sigma is read on
    the rows of supp a only."""
    a.group.check_same(G)
    supp = a.support()
    S_rows = value_table(G, sigma, supp)
    coeffs = np.array([[a.coeffs[g] for g in supp]], dtype=complex).reshape(1, len(supp))
    return regular_matrices(G.multiplication_table()[G.positions(supp)], S_rows, coeffs)[0]


def exact_norm(G: Group, sigma: Cocycle, a: AlgebraElement) -> float:
    return float(np.linalg.norm(regular_rep(G, sigma, a), 2))


def _truncation_matrix(G, sigma, a, r, cap):
    """b -> a *_sigma b from l2(B_r) to l2(B_{r + diam supp a}), kept on the
    codomain rows it reaches, in shortlex order.  Returns ``data``, ``rows``
    (one row per g in supp a, one column per b in B_r) holding the kept row
    of g b, and the kept row count.  ``data`` is float64 of shape
    (P,) + the shape of ``rows``: the parts of sigma(g, b) a_g, P = 1 (the
    real parts) when no entry has a nonzero imaginary part, else P = 2 (the
    real and the imaginary parts), so that no complex array is held while T
    is solved.  Each entry is one complex_product, rounded as Python's
    complex multiply.  Under a TrivialCocycle sigma is not read and the entry
    is a_g, not (1 + 0j) a_g, which differs from a_g at most in the sign of a
    zero part: a real T has the same bits, and a complex T the same printed
    value (see _top_singular_rayleigh).  Then ``data`` has one column, a's
    coefficients, which broadcasts against ``rows`` as the |B_r| equal
    columns would.  The caller checks that sigma lives on G."""
    supp = a.support()
    d = max(G.word_length(g) for g in supp)
    for n in (r, r + d):
        if G.ball_size(n) > cap:
            raise MemoryBudgetExceeded(G.ball_size(n), cap)
    xs, ball = G.positions(supp), G.ball_positions(r)
    gb = G.products(xs[:, None], ball)
    c = np.array([a.coeffs[g] for g in supp], dtype=complex)[:, None]
    re, im = c.real, c.imag
    if not isinstance(sigma, TrivialCocycle):
        s = sigma.pair_values(*pair_grid(xs, ball), gb.ravel()).reshape(gb.shape)
        re, im = complex_product(s.real, s.imag, re, im)
    positions, rows = number_positions(gb.ravel())
    return np.stack([re, im]) if np.any(im) else re[None], rows.reshape(gb.shape), len(positions)


def _dot(x, y) -> float:
    """Re <x, y> of (P, n) parts by numpy's pairwise sum, which unlike BLAS
    does not depend on the thread count: the terms x[0] y[0] + x[1] y[1]
    complex x and y give it, or x[0] y[0] for P = 1, the terms complex x and
    y with zero imaginary parts give it, so the same bits.  reduce returns
    the one row of a P = 1 product itself, with no pass over it."""
    return float(np.sum(functools.reduce(np.add, x * y)))


def _lanczos(gram, q, steps):
    """The plain three-term Lanczos recurrence for the Hermitian operator
    ``gram`` from the unit vector q, without reorthogonalisation: yields
    (q_k, alpha_k, beta_k) for k = 1..steps, or until beta_k is 0.  Every
    step repeats the same operations in the same order, so a second run
    yields the same bits.  The vectors have q's shape: (1, n) for a real
    operator, or (2, n), the real and imaginary parts, for a complex one,
    float64 either way.

    On parts, a scaling by a real alpha or beta multiplies each part once.
    numpy multiplies a complex vector by a real scalar as by the complex
    beta + 0j, which adds a zero product to each part: the two differ only
    in the sign of a zero, and so in no nonzero value that follows.
    q_{k+1} is w times 1 / beta_k, not w / beta_k: numpy divides a complex
    w by a real beta as a complex one, scaling by the reciprocal
    1 / (beta + 0 * 0), so the product rounds each part of w as that
    division does, and a float64 w gets the same bits as a complex w with
    zero imaginary parts."""
    q_prev = np.zeros_like(q)
    beta = 0.0
    for _ in range(steps):
        w = gram(q) - beta * q_prev
        alpha = _dot(q, w)
        w -= alpha * q
        beta = np.sqrt(_dot(w, w))
        yield q, alpha, beta
        if beta == 0.0:
            return
        q_prev, q = q, w * (1.0 / beta)


def _top_singular_rayleigh(data, rows, m, mem_cap) -> float:
    """||T y|| / ||y|| for a Ritz vector y of T^H T's top eigenvalue, where
    T is the m-row operator with entries ``data`` in ``rows`` (column j of
    ``data[i]``, broadcast to the shape of ``rows``, is column j of part i of
    T), as _truncation_matrix gives them.

    The solve never forms a complex array: with P the number of parts of
    ``data``, the start vector, T's products, the Lanczos vectors, the kept
    basis and y are (P, n) float64 parts.  When T is real (P = 1), each of
    those operations on a complex vector with zero imaginary parts rounds
    its real parts as the float64 one rounds (see _dot and _lanczos), so the
    result has the bits the complex solve would give, with vectors of half
    the size.  When T is complex (P = 2), every product with T has
    complex_product's four products and two sums, each rounded once, as
    Python's complex multiply rounds them: the bits of the complex solve on
    the nonzero values, while a zero may differ in sign (see _lanczos), as
    may a zero part of ``data`` (see _truncation_matrix).  A zero's sign
    moves no nonzero value that follows it, each entry of T's products is a
    sum from +0.0, which never ends at -0.0, and the printed value is a
    ratio of sums of squares, so it has the bits of the complex solve.

    The start vector is ones when P = 1 and every entry of T is >= 0: then
    T^H T is entrywise nonnegative and has a nonnegative top eigenvector
    (Perron-Frobenius), which ones is not orthogonal to, and a radial
    element's Krylov space stays in the radial subspace.  Otherwise a
    symmetry can hide the top eigenvector from ones (x - x^-1 on F1 at r = 3
    keeps it in the odd functions while ones is even), so a fixed
    pseudo-random vector starts, as the real part.

    Lanczos runs on T^H T until the Ritz residual beta_k |s_k| or beta_k
    itself is at most LANCZOS_TOL times the Ritz value, or for
    LANCZOS_MAX_STEPS steps, and keeps its basis q_1..q_k while that holds at
    most ``mem_cap`` entries (k n <= mem_cap for n columns); then
    y = sum_j s_j q_j.  Past that count the basis is dropped and y sums a
    second run of the recurrence, which yields the same bits, so memory stays
    at a few vectors of lengths n and m.  T is applied by one np.bincount
    of the products data * v, all parts at once (part i in bins
    i m .. (i + 1) m - 1), which adds the terms of each row of T in the
    order of the rows of ``data``, starting from +0.0 (each row of ``rows``
    is injective, as left multiplication is), and T^H by a sum over the
    rows; inner products use numpy's pairwise sum and the final norms
    math.fsum: the result is the same bits in every process, for every BLAS
    thread count and whether or not the basis was kept.  Complex products
    are written out on the parts, since numpy's complex multiply may fuse a
    product with a sum under some SIMD targets; numpy's real multiply rounds
    each product once under every target."""
    P, n = len(data), rows.shape[1]
    start = np.zeros((P, n))
    start[0] = 1.0 if P == 1 and np.all(data >= 0) else np.random.default_rng(0).random(n)
    start /= np.sqrt(sum_squares(start))
    # the rows of each part of T v, part i in i m .. (i + 1) m - 1; a view
    # of ``rows`` for a real T
    rows = rows[None] if P == 1 else np.stack([rows, rows + m])
    flat = rows.ravel()

    def apply(v):
        # pr[a, b] = data[a] v[b]: for P = 2 complex_product's four products
        # in one multiply, then its two sums into pr[0]
        pr = data[:, None] * v[None, :, None]
        if P == 2:
            np.subtract(pr[0, 0], pr[1, 1], out=pr[0, 0])
            np.add(pr[0, 1], pr[1, 0], out=pr[0, 1])
        return np.bincount(flat, pr[0].ravel(), P * m).reshape(P, m)

    def gram(v):
        # conj(T) u as complex_product(dr, -di, ur, ui) rounds it:
        # x - (-y) is x + y and x + (-y) is x - y, bit for bit
        pr = data[:, None] * apply(v).ravel()[rows]
        if P == 2:
            np.add(pr[0, 0], pr[1, 1], out=pr[0, 0])
            np.subtract(pr[0, 1], pr[1, 0], out=pr[0, 1])
        return pr[0].sum(axis=1)

    alphas, betas, basis = [], [], []
    for q, alpha, beta in _lanczos(gram, start, LANCZOS_MAX_STEPS):
        if basis is not None and (len(basis) + 1) * n <= mem_cap:
            basis.append(q)
        else:
            basis = None
        alphas.append(alpha)
        betas.append(beta)
        k = len(alphas)
        # the dense k x k Ritz problem costs k^3, so after step 16 it is
        # solved only every k // 16 + 1 steps, and at once when beta_k nears
        # breakdown (the Ritz value is >= every alpha) or at the last step:
        # past a breakdown the recurrence continues from rounding noise, and
        # the residual test would not catch up
        if (beta <= 1e-8 * max(alphas) or k % (k // 16 + 1) == 0
                or k == LANCZOS_MAX_STEPS):
            off = np.diag(betas[:-1], 1)
            vals, vecs = np.linalg.eigh(np.diag(alphas) + off + off.T)
            theta, s = vals[-1], vecs[:, -1]
            if min(beta, beta * abs(s[-1])) <= LANCZOS_TOL * theta:
                break
    if basis is None:
        basis = (q for q, _, _ in _lanczos(gram, start, len(s)))
    y = np.zeros_like(start)
    for q, sj in zip(basis, s):
        y += sj * q
    return np.sqrt(sum_squares(apply(y)) / sum_squares(y))


def _untwist(G: Group, sigma: Cocycle, a: AlgebraElement):
    """(TrivialCocycle(G), a0, k) with a0 = conj(beta) a when sigma = d beta
    by construction for k > 0 coboundary factors (see
    cocycles.gauge_factors), else (sigma, a, 0).  beta is read through each
    coboundary's memo at supp a only, and each coefficient of a0 is a_g
    times conj(beta_i(g)), or beta_i(g) for a conjugated factor, one
    complex_mul for each factor."""
    factors = gauge_factors(sigma)
    if not factors:
        return sigma, a, 0
    supp = a.support()
    pos = G.positions(supp)
    c = np.array([a.coeffs[g] for g in supp], dtype=complex)
    for cob, conjugated in factors:
        b = cob.beta_at(pos)
        c = complex_mul(b if conjugated else b.conj(), c)
    return TrivialCocycle(G), AlgebraElement(G, dict(zip(supp, c.tolist()))), len(factors)


def truncated_norm_lower(G: Group, sigma: Cocycle, a: AlgebraElement, r: int,
                         mem_cap: int = DEFAULT_MEM_CAP) -> float:
    """Certified lower bound for the reduced twisted norm from the operator
    T: b -> a *_sigma b restricted to l2(B_r), codomain B_{r + diam supp a};
    sigma must live on G (BackendMismatch otherwise).

    When sigma is d beta by construction (a coboundary, or a product or
    conjugate of coboundaries and trivial cocycles), T is not formed: with
    M_beta the diagonal operator beta(g) on each ball, T = M_beta T0 M_beta*
    for the untwisted truncation T0 of a0 = conj(beta) a, since
    d beta(g, b) a_g = beta(g b) (conj(beta(g)) a_g) conj(beta(b)).  M_beta
    is unitary and commutes with the ball projections, so ||T|| = ||T0||;
    beta is read at supp a only, and T0 is bounded below in its place.  Any
    other sigma (a bicharacter on a lattice, say) is read into T by one
    pair_values call.

    The value is the Rayleigh quotient rho = ||T y|| / ||y|| of a Lanczos
    Ritz vector y (see _top_singular_rayleigh), less a rounding allowance.
    Any y gives rho <= ||T|| <= ||a||, so only the rounding of rho needs
    covering.  Let u = 2^-53 and p = |supp a|.  Each entry sigma(g, b) a_g
    and each product with y_j is a complex product rounded once, within
    sqrt(5) u of the exact one (Brent, Percival and Zimmermann 2007), and
    each row of T y sums at most p products in a fixed order (Higham 2002,
    section 3.1).  So the computed T y is within (p - 1 + 2 sqrt 5) u |T| |y|
    of the exact one entrywise, and its error in norm is at most
    (p + 3.5) u || |T| || ||y|| <= (p + 3.5) u ||a||_1 ||y||, since |T| is a
    truncation of convolution by |a|.  The squares, one fsum for each norm,
    the quotient and the square root add at most 3.5 u relative to
    rho <= ||a||_1.  Subtracting (p + 8) u ||a||_1 covers both, with room
    for the second-order terms.  Through the gauge, each coefficient of a0
    is formed by k complex products with unit-modulus beta values, one for
    each coboundary factor, so the computed a0 is within k sqrt(5) u |a_g|
    of the exact one and its truncation within k sqrt(5) u ||a||_1 in norm:
    the allowance is (p + 8 + k sqrt 5) u ||a||_1, and k = 0 under a trivial
    sigma.  So the value is a genuine lower bound; it is clipped at 0.

    ``mem_cap`` bounds |B_r| and |B_{r + diam supp a}| (MemoryBudgetExceeded
    past it) and the Lanczos basis kept, at most mem_cap entries;
    past that count the basis is recomputed instead, with the same bits.

    The truncated norm is monotone nondecreasing in r, and the value follows
    it to about 1e-14 relative; on finite backends it is the exact norm."""
    if r < 0:
        raise ValueError("r must be >= 0")
    a.group.check_same(G)
    if G.is_finite:
        return exact_norm(G, sigma, a)
    sigma.group.check_same(G)
    if not a.coeffs:
        return 0.0
    # a power of two scales T exactly: with every part of a's coefficients
    # below 1 in magnitude, ||a||_1^4 and so the squares in the Lanczos sums
    # stay far inside the float range, whatever the scale of a
    e = math.frexp(max(max(abs(c.real), abs(c.imag)) for c in a.coeffs.values()))[1]
    a = AlgebraElement(G, {g: complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e))
                           for g, c in a.coeffs.items()})
    sigma0, a0, k = _untwist(G, sigma, a)
    rho = _top_singular_rayleigh(*_truncation_matrix(G, sigma0, a0, r, mem_cap), mem_cap)
    l1 = l1_norm(a)
    allowance = (len(a.coeffs) + 8 + k * math.sqrt(5)) * UNIT_ROUNDOFF * l1
    try:
        return math.ldexp(float(max(0.0, rho - allowance)), e)
    except OverflowError:
        raise InvalidArgument("the truncated norm overflows") from None


def haagerup_upper(G: Group, a: AlgebraElement) -> float:
    """Free-group upper bound sum_n (n + 1) ||a_n||_2 over sphere restrictions
    (Haagerup 1979), rounded up: each ||a_n||_2 is the root of the exact sum
    of the squares of the parts on sphere n, a Fraction, rounded up, and the
    exact sum of the (n + 1) ||a_n||_2 is rounded up once more.  So the value
    is at least the exact bound, and it is exact when the bound is a float
    (4.0 for sphere-1).

    Valid for the untwisted norm and, by the norm-transfer principle applied
    sphere by sphere, for every twisted norm as well."""
    # fractions brings decimal with it: 2 ms and 0.4 MiB of a cold start
    # that no other command needs
    from fractions import Fraction

    if G.kind != "free":
        raise Unsupported("haagerup_upper needs a free group")
    a.group.check_same(G)

    def rounded_up(x, root=False):
        # a float r >= x, or with r^2 >= x: the rounded x, or the root of
        # it, stepped up while below; past the float range float(x) raises
        # OverflowError, as Fraction does of the inf a step past it gives
        r = math.sqrt(float(x)) if root else float(x)
        while Fraction(r) ** (2 if root else 1) < x:
            r = math.nextafter(r, math.inf)
        return r

    spheres = {}
    for g, c in a.coeffs.items():
        spheres[len(g)] = spheres.get(len(g), 0) + Fraction(c.real) ** 2 + Fraction(c.imag) ** 2
    try:
        return rounded_up(sum((n + 1) * Fraction(rounded_up(t, root=True))
                              for n, t in spheres.items()))
    except OverflowError:
        raise InvalidArgument("the Haagerup bound overflows") from None


@dataclass
class TransferReport:
    constant: float
    untwisted_ratios_max: float
    per_sigma_max_ratio: list
    passed: bool
    sample_size: int
    seed: int
    tol: float

    def to_json(self):
        return asdict(self)


def transfer_check(G: Group, S, sigmas, seed: int = 0, n_random: int = 50,
                   tol: float = 1e-9) -> TransferReport:
    """Sampled check of the untwisted-to-twisted norm transfer on supp in S.

    C is the max untwisted ratio ||a|| / ||a||_2 over the sample (all-ones on
    S, every delta, and seeded random complex elements); the same sample is
    then tested against every twisted norm."""
    T = G.multiplication_table()  # first, so an infinite G is refused before an empty S
    S = G.in_order(set(S))
    if not S:
        raise InvalidArgument("S must be nonempty")
    rng = np.random.default_rng(seed)
    sample = [AlgebraElement(G, {g: 1.0 for g in S})]
    sample.extend(delta(G, g) for g in S)
    for _ in range(n_random):
        sample.append(AlgebraElement(
            G, {g: complex(rng.standard_normal(), rng.standard_normal()) for g in S}))
    l2 = [l2_norm(a) for a in sample]
    coeffs = np.array([[a[g] for g in S] for a in sample], dtype=complex)
    T_rows = T[G.positions(S)]
    # norms of stacks of at most 2^20 matrix entries (16 MiB)
    step = max(1, 2 ** 20 // T.size)

    def max_ratio(sigma):
        S_rows = value_table(G, sigma, S)
        norms = np.concatenate([
            np.linalg.norm(regular_matrices(T_rows, S_rows, coeffs[i:i + step]), 2, axis=(1, 2))
            for i in range(0, len(sample), step)])
        return max([0.0] + [float(v) / w for v, w in zip(norms, l2)])

    C = max_ratio(TrivialCocycle(G))
    per_sigma = [max_ratio(sigma) for sigma in sigmas]
    ok = not any(worst > C + tol for worst in per_sigma)
    return TransferReport(C, C, per_sigma, ok, len(sample), seed, tol)


def _r2_sequence(a: AlgebraElement, sigma: Cocycle | None, N: int, mem_cap: int) -> list:
    """||a^n||_2^(1/n), n = 1..N; a power past mem_cap terms is MemoryBudgetExceeded."""
    if N < 1:
        raise ValueError("N must be >= 1")
    seq = []
    for n, (size, l2) in enumerate(power_norms(a, N, sigma), 1):
        if size > mem_cap:
            raise MemoryBudgetExceeded(size, mem_cap)
        seq.append(float(l2 ** (1.0 / n)))
    return seq


def l2_spectral_radius(a: AlgebraElement, sigma: Cocycle | None, N: int,
                       mem_cap: int = DEFAULT_MEM_CAP) -> SpectralReport:
    """_r2_sequence's n -> ||a^n||_2^(1/n) for n = 1..N with twisted powers,
    r_sigma on a finite group, and is_normal.

    The last entry is the working estimate; no extrapolation is asserted."""
    G = a.group
    seq = _r2_sequence(a, sigma, N, mem_cap)
    r_sigma = None
    if G.is_finite:
        spec = exact_spectrum(G, _sigma_or_trivial(G, sigma), a)
        r_sigma = float(max(abs(z) for z in spec))
    return SpectralReport(seq, seq[-1], r_sigma, is_normal(a, sigma),
                          {"max_power": N})


def exact_spectrum(G: Group, sigma: Cocycle, a: AlgebraElement):
    """Eigenvalue multiset of the sigma-regular representation of a, sorted by
    (real, imag), from LAPACK's general eigensolver for every element."""
    vals = np.linalg.eigvals(regular_rep(G, sigma, a))
    return sorted((complex(z) for z in vals), key=lambda z: (z.real, z.imag))


@dataclass
class SemigroupCertificate:
    certified: bool
    length: int
    products_checked: int
    collision: dict | None

    def to_json(self):
        return asdict(self)


def certify_free_subsemigroup(G: Group, t, F, L: int,
                              mem_cap: int = DEFAULT_MEM_CAP) -> SemigroupCertificate:
    """Check that distinct sequences over the generators {t f : f in F} of
    length <= L multiply to distinct group elements.

    A pass is a bounded-length freeness certificate, not a proof of freeness;
    a failure returns the first colliding pair of sequences.

    The products run on positions, one level per length: the products of
    length l are G.products(level[:, None], gens) on those of length l - 1,
    x-major, so entry j is the product of the sequence whose l base-|F|
    digits are j, in the order in which a loop over sequences, then
    generators, would form them.  Each product is
    counted, past ``mem_cap`` as MemoryBudgetExceeded(count, mem_cap), and
    looked up in one dict of the positions seen so far, which holds each
    one's count: the first repeat is the collision, and the count names
    both sequences.  A level is cut to the rows it can reach before the cap,
    so no array holds more than |F| products past mem_cap."""
    if L < 1:
        raise ValueError("L must be >= 1")
    F = G.in_order(set(F))
    if not F:
        raise InvalidArgument("F must be nonempty")
    k = len(F)
    gens = G.positions([G.compose(t, f) for f in F])
    level = G.positions([G.identity()])
    seen = {}
    checked = 0
    for _ in range(L):
        rows = max(mem_cap - checked, 0) // k + 1
        level = G.products(level[:rows, None], gens).ravel()
        for j, p in enumerate(level.tolist()):
            checked += 1
            if checked > mem_cap:
                raise MemoryBudgetExceeded(checked, mem_cap)
            if p in seen:
                return SemigroupCertificate(False, L, checked, {
                    "sequence_a": _sequence(seen[p], k),
                    "sequence_b": _sequence(checked, k),
                    "element": G.element_to_json(G.words(level[j:j + 1])[0]),
                })
            seen[p] = checked
    return SemigroupCertificate(True, L, checked, None)


def _sequence(count, k):
    """The sequence over k generators that certify_free_subsemigroup forms
    count-th, from 1: k sequences of length 1, then k^2 of length 2, each
    length's in the order of its base-k digits."""
    count -= 1
    length = 1
    while count >= k ** length:
        count -= k ** length
        length += 1
    return [count // k ** (length - 1 - i) % k for i in range(length)]


@dataclass
class CriterionConfig:
    seed: int = 0
    n_elements: int = 3
    max_power: int = 12
    radius: int = 8
    length: int = 8
    mem_cap: int = DEFAULT_MEM_CAP


def criterion_report(G: Group, sigma: Cocycle | None, t, F,
                     config: CriterionConfig | None = None) -> dict:
    """Numeric evidence bundle for the spectral-radius criterion on elements
    supported on tF: free-subsemigroup certificate, r2 sequences, truncated
    norm bounds (an upper proxy for the spectral radius), and, for a twist
    sigma = d beta of coboundary type (see cocycles.gauge_factors), the
    untwisted data of a0 = conj(beta) a: the r2 sequence of its untwisted
    powers, computed apart from the twisted ones as a check, and the
    truncated bound, which is the run's own, since truncated_norm_lower
    bounds a0's untwisted operator for such a sigma.  Claims no equality,
    and prints no normality flag, so it runs _r2_sequence, not is_normal."""
    if G.kind != "free":
        raise Unsupported("criterion_report supports free backends only")
    cfg = config or CriterionConfig()
    from .fixtures import random_element

    cert = certify_free_subsemigroup(G, t, F, cfg.length, cfg.mem_cap)
    tF = G.in_order(G.compose(t, f) for f in G.in_order(set(F)))
    elements = [AlgebraElement(G, {g: 1.0 for g in tF})]
    for i in range(cfg.n_elements):
        elements.append(random_element(G, tF, cfg.seed + i))

    twist = _sigma_or_trivial(G, sigma)
    runs = []
    for a in elements:
        seq = _r2_sequence(a, sigma, cfg.max_power, cfg.mem_cap)
        norm_lower = truncated_norm_lower(G, twist, a, cfg.radius, cfg.mem_cap)
        upper = haagerup_upper(G, a)
        run = {
            "element": a.to_json()["terms"],
            "r2_sequence": seq,
            "r2_estimate": seq[-1],
            "norm_lower_truncated": norm_lower,
            "norm_upper_haagerup": upper,
            "gap_r2_vs_norm_lower": norm_lower - seq[-1],
        }
        _, a0, k = _untwist(G, twist, a)
        if k:
            # norm_lower is a0's untwisted bound: the truncation is gauged
            run["untwisted_gauge_transport"] = {
                "r2_sequence": _r2_sequence(a0, None, cfg.max_power, cfg.mem_cap),
                "norm_lower_truncated": norm_lower,
            }
        runs.append(run)
    return {
        "free_subsemigroup": cert.to_json(),
        "generators": [G.element_to_json(g) for g in tF],
        "runs": runs,
        "config": {
            "seed": cfg.seed,
            "max_power": cfg.max_power,
            "radius": cfg.radius,
            "length": cfg.length,
        },
        "note": "r2 values are estimates at the stated power; no limit is asserted",
    }
