"""Non-backtracking matrix powers and per-realization path expansions.

V_n sums over index chains x_0 .. x_n with the two-step constraint
x_i != x_{i+2}; steps carry H.  The seeded variants replace the first step
by a correction operator (Phi_3 or a deformation power) while keeping all
constraints including the seam.  Everything here is computed with a
pair-state transfer over (previous, current) indices, which realizes the
defining sums exactly in O(n N^3); a literal tuple-enumeration oracle backs
it on small instances.

The two expansions verified per realization:
  Wigner:  U_n((H+A)/2) = sum over compositions of n of
           V_{l0} . underline(Phi_{a1} V_{l1}) ... with alphabet {2, 3, A};
  Wishart: Q_n((H+A)(H+A)^*) likewise with total length 2n at the row-side
           corner of the two-sided (hat) matrices, alphabet {2, 3, A, A*}.

Insertions: underline(Phi_2 V_l) = Phi_2 V_{l-2}; underline(Phi_3 V_l) is the
Phi_3-seeded chain (zero for l <= 2, Phi_3 at l = 3); a deformation insertion
contributes A V_{l-1}.  The published Wigner form bundles consecutive
deformation steps into one insertion of total multiplicity i; with a free
alphabet that convention double counts adjacent insertions, so the single-step
convention (which matches the Wishart appendix) is used and the n = 2 case
pins it down.
"""

from __future__ import annotations

import itertools

import numpy as np


class NbBudgetError(RuntimeError):
    pass


# Largest pair-state count N^3 a transfer may hold (N is the hat size M + N
# for Wishart).  A complex frontier of 2e6 states is 32 MB and a step holds
# about three, so N <= 125 passes: ten times the largest caller, hat size 12
# in acceptance criterion 4.
MAX_PAIR_STATES = 2_000_000


# ---------------------------------------------------------------------------
# pair-state transfer
# ---------------------------------------------------------------------------

def _seeded_frontier(seed, H, n_steps):
    """Frontier tensors F_t[x, a, b] = sum over constrained chains of t steps
    from x with last two vertices (a, b); first step uses `seed`, later H."""
    N = H.shape[0]
    if N ** 3 > MAX_PAIR_STATES:
        raise NbBudgetError(f"pair-state transfer at N = {N} needs N^3 = {N ** 3} "
                            f"states, over the budget of {MAX_PAIR_STATES}")
    F = np.zeros((N, N, N), dtype=complex)
    for x in range(N):
        F[x, x, :] = seed[x, :]
    yield F
    for _ in range(2, n_steps + 1):
        S = F.sum(axis=1)
        F = (S[:, :, None] - F.transpose(0, 2, 1)) * H[None, :, :]
        yield F


def nb_powers(H, n_max, method="transfer"):
    """V_0 .. V_{n_max}.

    'transfer' runs the pair-state recursion (production path);
    'bruteforce' enumerates all index tuples literally (oracle, guarded).
    """
    H = np.asarray(H)
    N = H.shape[0]
    Vs = [np.eye(N, dtype=complex), H.astype(complex)]
    if n_max == 0:
        return Vs[:1]
    if method == "transfer":
        for t, F in enumerate(_seeded_frontier(H, H, n_max), start=1):
            if t >= 2:
                Vs.append(F.sum(axis=1))
        return Vs[:n_max + 1]
    if method == "bruteforce":
        if N ** (n_max + 1) > 2_000_000:
            raise NbBudgetError(
                f"bruteforce needs N^(n+1) = {N ** (n_max + 1)} tuples")
        for n in range(2, n_max + 1):
            V = np.zeros((N, N), dtype=complex)
            for path in itertools.product(range(N), repeat=n + 1):
                if any(path[i] == path[i + 2] for i in range(n - 1)):
                    continue
                val = complex(1.0)
                for i in range(n):
                    val *= H[path[i], path[i + 1]]
                V[path[0], path[-1]] += val
            Vs.append(V)
        return Vs[:n_max + 1]
    raise ValueError(f"unknown method {method!r}")


def seeded_family(seed, H, n_max):
    """underline(seed V_m) for m = 0..n_max: chains of m-2 steps whose first
    step carries `seed` (zero below m = 3, the seed itself at m = 3)."""
    N = H.shape[0]
    out = [np.zeros((N, N), dtype=complex) for _ in range(min(3, n_max + 1))]
    if n_max < 3:
        return out
    out.append(seed.astype(complex))
    if n_max == 3:
        return out
    for t, F in enumerate(_seeded_frontier(seed, H, n_max - 2), start=1):
        if t >= 2:
            out.append(F.sum(axis=1))
    return out[:n_max + 1]


def phi_ops(H, row_variances):
    """(Phi_2, Phi_3): Phi_2 = diag(sum_z |H_xz|^2 - v_x), with v_x the
    expected squared row sum of H, and Phi_3 = -|H|^2 o H (entrywise)."""
    H = np.asarray(H)
    if np.shape(row_variances) != H.shape[:1]:
        raise ValueError("row variances and H dimensions disagree")
    phi2 = np.diag((np.abs(H) ** 2).sum(axis=1) - row_variances)
    phi3 = -(np.abs(H) ** 2) * H
    return phi2.astype(complex), phi3.astype(complex)


# ---------------------------------------------------------------------------
# Wigner path expansion
# ---------------------------------------------------------------------------

def _cheb_half_matrix(Y, n):
    """U_n(Y/2) by the three-term recurrence with two frontier matrices."""
    N = Y.shape[0]
    prev = np.eye(N, dtype=complex)
    if n == 0:
        return prev
    cur = Y.astype(complex)
    for _ in range(2, n + 1):
        prev, cur = cur, Y @ cur - prev
    return cur


def _compose(H, phi2, phi3, n, A):
    """Sum over compositions of n of V_{l0} times insertion blocks
    (Phi_2 V_{l-2}, the Phi_3-seeded chain, A V_{l-1}), assembled with a
    suffix sum memoized over remaining length."""
    N = H.shape[0]
    Vs = nb_powers(H, n)
    R3 = seeded_family(phi3, H, n)
    blocks = {}
    for l in range(1, n + 1):
        bl = []
        if l >= 2:
            bl.append(phi2 @ Vs[l - 2])
        if l >= 3:
            bl.append(R3[l])
        if A is not None:
            bl.append(A @ Vs[l - 1])
        blocks[l] = bl
    suffix = [np.eye(N, dtype=complex)]
    for m in range(1, n + 1):
        acc = np.zeros((N, N), dtype=complex)
        for l in range(1, m + 1):
            for B in blocks[l]:
                acc = acc + B @ suffix[m - l]
        suffix.append(acc)
    rhs = np.zeros((N, N), dtype=complex)
    for l0 in range(0, n + 1):
        rhs = rhs + Vs[l0] @ suffix[n - l0]
    return rhs


def path_expansion_rhs(H, profile, n, A=None):
    """Right side of the Chebyshev path expansion."""
    H = np.asarray(H)
    phi2, phi3 = phi_ops(H, profile.variances.sum(axis=1))
    return _compose(H, phi2, phi3, n, None if A is None else np.asarray(A))


def verify_wigner_path_expansion(H, profile, n, A=None):
    """Max-abs residual of U_n((H+A)/2) against the path expansion."""
    H = np.asarray(H)
    Y = H if A is None else H + np.asarray(A)
    lhs = _cheb_half_matrix(Y, n)
    rhs = path_expansion_rhs(H, profile, n, A)
    return float(np.abs(lhs - rhs).max())


# ---------------------------------------------------------------------------
# Wishart path expansion (two-sided chain)
# ---------------------------------------------------------------------------

def hat_matrices(H, A=None):
    """Two-sided embeddings [[0, H], [H*, 0]] on [M] | [N]."""
    H = np.asarray(H)
    M, N = H.shape
    S = M + N
    Hh = np.zeros((S, S), dtype=complex)
    Hh[:M, M:] = H
    Hh[M:, :M] = H.conj().T
    Ah = None
    if A is not None:
        A = np.asarray(A)
        Ah = np.zeros((S, S), dtype=complex)
        Ah[:M, M:] = A
        Ah[M:, :M] = A.conj().T
    return Hh, Ah


def bipartite_row_variances(profile):
    """Expected squared row sums of the hat matrix: 1 on [M], alpha on [N]."""
    V = profile.variances
    return np.concatenate([V.sum(axis=1), V.sum(axis=0)])


def q_poly_matrix(X, n, alpha):
    """Q_n(X) from Q_0 = I, Q_1 = X - I, Q_k = (X - (1+alpha) I) Q_{k-1} - alpha Q_{k-2}."""
    M = X.shape[0]
    prev = np.eye(M, dtype=complex)
    if n == 0:
        return prev
    cur = X - np.eye(M)
    shift = X - (1.0 + alpha) * np.eye(M)
    for _ in range(2, n + 1):
        prev, cur = cur, shift @ cur - alpha * prev
    return cur


def verify_wishart_path_expansion(H, profile, n, A=None):
    """Max-abs residual of Q_n((H+A)(H+A)^*) against the two-sided path
    expansion of total length 2n, read off at the [M] x [M] corner."""
    H = np.asarray(H)
    M, N = H.shape
    alpha = M / N
    Hh, Ah = hat_matrices(H, A)
    rhs = _compose(Hh, *phi_ops(Hh, bipartite_row_variances(profile)), 2 * n, Ah)
    HA = H if A is None else H + np.asarray(A)
    X = HA @ HA.conj().T
    lhs = q_poly_matrix(X, n, alpha)
    return float(np.abs(lhs - rhs[:M, :M]).max())

