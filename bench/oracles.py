"""Independent oracles for the benchmark jobs.

None of these call twistlab: they use classical closed forms and numpy/LAPACK
on matrices built here from the input data (group tables, cocycle tables).

- Kesten (1959, Trans. AMS 92): closed-walk counts on the 2k-regular tree,
  and the radial reduction of the sphere-1 element on the free group.
- C(2n, n): the l2 norms of (x + x^-1)^n.
- LAPACK (np.linalg): eigenvalues and operator norms of regular
  representations of finite groups.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9

# irreducible character degrees, the block sizes of the (cohomologically
# trivially twisted) group algebra
DEGREES = {"S3": [1, 1, 2], "Q8": [1, 1, 1, 1, 2], "S4": [1, 1, 2, 3, 3]}


def close(value, expected, tol=TOL):
    return abs(value - expected) <= tol * max(1.0, abs(expected))


def radial_truncation_norm(r, k=2):
    """Norm of the sphere-1 element of F_k truncated to l2(B_r) -> l2(B_{r+1}).

    On normalised sphere indicators the operator is the (r+2) x (r+1) Jacobi
    matrix with off-diagonal entries sqrt(2k), sqrt(2k-1), sqrt(2k-1), ...
    """
    J = np.zeros((r + 2, r + 1))
    for j in range(r + 1):
        J[j + 1, j] = math.sqrt(2 * k if j == 0 else 2 * k - 1)
        if j >= 1:
            J[j - 1, j] = math.sqrt(2 * k if j == 1 else 2 * k - 1)
    return float(np.linalg.norm(J, 2))


def tree_closed_walks(m, degree):
    """Number of closed walks of length m from the root of the degree-regular tree."""
    by_dist = [1]
    for _ in range(m):
        nxt = [0] * (len(by_dist) + 1)
        for d, c in enumerate(by_dist):
            if d == 0:
                nxt[1] += degree * c
            else:
                nxt[d - 1] += c
                nxt[d + 1] += (degree - 1) * c
        by_dist = nxt
    return by_dist[0]


def sphere1_r2_sequence(N, k=2):
    """||a^n||_2^(1/n) for the sphere-1 element of F_k: a is self-adjoint, so
    ||a^n||_2^2 = a^(2n)(e), the closed walks of length 2n on the 2k-regular tree."""
    return [tree_closed_walks(2 * n, 2 * k) ** (1.0 / (2 * n)) for n in range(1, N + 1)]


def x_plus_xinv_r2_sequence(N):
    """||(x + x^-1)^n||_2^2 = sum_j C(n, j)^2 = C(2n, n)."""
    return [math.comb(2 * n, n) ** (1.0 / (2 * n)) for n in range(1, N + 1)]


def free_semigroup_products(n_gens, L):
    """Words of length 1..L over n_gens letters."""
    return sum(n_gens ** j for j in range(1, L + 1))


def regular_matrix(table, coeffs, sigma=None):
    """Left-regular matrix of sum_g c_g g on a finite group table, twisted by
    the value table ``sigma`` if given: column h carries sigma(g, h) c_g at
    row gh."""
    T = np.asarray(table)
    n = len(T)
    S = np.ones((n, n)) if sigma is None else np.asarray(sigma, dtype=complex)
    M = np.zeros((n, n), dtype=complex)
    cols = np.arange(n)
    for g, c in coeffs.items():
        M[T[g], cols] += S[g] * c
    return M


def operator_norm(M):
    return float(np.linalg.norm(M, 2))


def finite_r2_sequence(M, N):
    """||a^n||_2^(1/n) from the regular matrix: a^n = M^n delta_e."""
    v = np.zeros(M.shape[0], dtype=complex)
    v[0] = 1.0
    out = []
    for n in range(1, N + 1):
        v = M @ v
        out.append(float(np.linalg.norm(v)) ** (1.0 / n))
    return out


def spectral_radius(M):
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def is_normal_matrix(M, tol=1e-10):
    scale = max(float(np.max(np.abs(M))) ** 2, 1.0)
    return float(np.max(np.abs(M @ M.conj().T - M.conj().T @ M))) <= tol * scale


def cocycle_identity_residual(table, values):
    """max |s(x,y) s(xy,z) - s(x,yz) s(y,z)| over all triples of a table cocycle.

    One x at a time, so the check adds no more than an n x n array to the
    peak memory of the process it runs in."""
    T = np.asarray(table)
    V = np.asarray(values, dtype=complex)
    n = len(T)
    y, z = np.arange(n)[:, None], np.arange(n)[None, :]
    worst = 0.0
    for x in range(n):
        lhs = V[x, y] * V[T[x, y], z]
        rhs = V[x, T[y, z]] * V[y, z]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
