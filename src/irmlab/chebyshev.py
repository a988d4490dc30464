"""Chebyshev machinery: scalar evaluation, exact conversion identities,
product-coefficient combinatorics, and the polynomial families attached to
the Marchenko-Pastur law.

All combinatorial identities run in exact rational arithmetic; floats appear
only in evaluation.  T~ denotes the rescaled first-kind polynomial
T~_n(x) = 2 T_n(x/2), which has integer coefficients and satisfies
x^m = sum'_j binom(m, (m-j)/2) T~_j(x) with the j = 0 term halved.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


class ChebDomainError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class PolySeries:
    """Coefficient list (index = degree) in a named basis."""
    basis: str
    coefficients: tuple

    def __call__(self, x):
        acc = 0.0 * np.asarray(x, dtype=float) if not isinstance(x, Fraction) else Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + (float(c) if not isinstance(x, Fraction) else c)
        return acc


# ---------------------------------------------------------------------------
# scalar evaluation
# ---------------------------------------------------------------------------

def cheb_eval(kind, n, x):
    """Numerically stable T_n(x) or U_n(x) (trig/hyperbolic closed forms)."""
    if n < 0:
        if kind == "U":
            return 0.0 if n == -1 else -cheb_eval("U", -n - 2, x)
        raise ChebDomainError("n must be >= 0")
    x = float(x)
    if x < -1.0:
        s = 1.0 if n % 2 == 0 else -1.0
        return s * cheb_eval(kind, n, -x)
    if x <= 1.0:
        th = math.acos(max(-1.0, min(1.0, x)))
        if kind == "T":
            return math.cos(n * th)
        sth = math.sin(th)
        if sth < 1e-150:
            return float(n + 1) if x > 0 else float((n + 1) * (-1) ** n)
        return math.sin((n + 1) * th) / sth
    # x > 1: hyperbolic branch; phi via the cancellation-free sqrt
    phi = math.log(x + math.sqrt((x - 1.0) * (x + 1.0)))
    try:
        if kind == "T":
            return math.cosh(n * phi)
        if phi < 1e-150:
            return float(n + 1)
        return math.sinh((n + 1) * phi) / math.sinh(phi)
    except OverflowError:
        return math.inf


def u_poly_half_coeffs(n):
    """Integer coefficients of U_n(x/2) (monic, degree n)."""
    a, b = [1], [0, 1]
    if n == 0:
        return a
    for _ in range(2, n + 1):
        nxt = [0] + b
        for i, c in enumerate(a):
            nxt[i] -= c
        a, b = b, nxt
    return b


# ---------------------------------------------------------------------------
# exact conversions between the power and T~ bases
# ---------------------------------------------------------------------------

def power_to_T(m):
    """x^m = sum_j coeff[j] * T~_j(x); returns {j: Fraction}."""
    if m < 0:
        raise ChebDomainError("m must be >= 0")
    out = {}
    for j in range(m % 2, m + 1, 2):
        c = Fraction(math.comb(m, (m - j) // 2))
        if j == 0:
            c /= 2
        out[j] = c
    return out


def T_to_power(n):
    """T~_n(x) = sum_k coeff[k] * x^k; returns {k: Fraction} (integers)."""
    if n < 0:
        raise ChebDomainError("n must be >= 0")
    if n == 0:
        return {0: Fraction(2)}
    out = {}
    for m in range(n // 2 + 1):
        out[n - 2 * m] = Fraction((-1) ** m * n * math.comb(n - m, m), n - m)
    return out


def orthogonality_check(n_max):
    """Exact check of the composed-conversion identity
    sum_m (-1)^m n/(n-m) binom(n-m, m) binom(n-2m, (n-2m-j)/2) = delta_{nj}
    for 1 <= n <= n_max and all admissible j.  Returns a report dict."""
    worst = None
    for n in range(1, n_max + 1):
        acc = {}
        tp = T_to_power(n)
        for k, ck in tp.items():
            for j, cj in power_to_T(k).items():
                acc[j] = acc.get(j, Fraction(0)) + ck * cj
        for j in range(0, n + 1):
            expect = Fraction(1) if j == n else Fraction(0)
            got = acc.get(j, Fraction(0))
            if got != expect:
                worst = (n, j, str(got))
                return {"passed": False, "n_max": n_max, "worst": worst}
    return {"passed": True, "n_max": n_max, "worst": None}


# ---------------------------------------------------------------------------
# product coefficients  U_{m1} ... U_{mt} = sum_k c({m}; k) U_k
# ---------------------------------------------------------------------------

def product_coeffs(m_list):
    """Exact expansion coefficients from iterating
    U_k U_l = sum_{m=0}^{min(k,l)} U_{|l-k|+2m}.  Returns {k: int}."""
    if not m_list:
        return {0: 1}
    acc = {int(m_list[0]): 1}
    for m in m_list[1:]:
        m = int(m)
        nxt = {}
        for k, c in acc.items():
            lo, hi = abs(k - m), k + m
            for t in range(lo, hi + 1, 2):
                nxt[t] = nxt.get(t, 0) + c
        acc = nxt
    return acc


def product_coeff_identity(m_list):
    """Exact check of sum_k c({m};k)(k+1) = prod_j (m_j + 1)."""
    coeffs = product_coeffs(m_list)
    lhs = sum(c * (k + 1) for k, c in coeffs.items())
    rhs = math.prod(int(m) + 1 for m in m_list)
    return lhs == rhs, lhs, rhs


# ---------------------------------------------------------------------------
# Marchenko-Pastur moments and the attached polynomial families
# ---------------------------------------------------------------------------

def mp_moments(alpha, k_max):
    """Exact MP moments: mu_0 = 1, mu_k = sum_j binom(k,j) binom(k-1,j) alpha^j/(j+1)."""
    alpha = Fraction(alpha)
    out = [Fraction(1)]
    for k in range(1, k_max + 1):
        s = Fraction(0)
        for j in range(k):
            s += Fraction(math.comb(k, j) * math.comb(k - 1, j), j + 1) * alpha ** j
        out.append(s)
    return out


def mp_moment_quadrature(alpha, k, n_nodes=400):
    """Quadrature oracle for the k-th MP moment (substitution x = 1 + a - 2 sqrt(a) cos th
    removes the edge singularities)."""
    a = float(alpha)
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    th = 0.5 * math.pi * (nodes + 1.0)
    w = 0.5 * math.pi * weights
    x = 1.0 + a - 2.0 * math.sqrt(a) * np.cos(th)
    # dx = 2 sqrt(a) sin th dth ; sqrt((l+ - x)(x - l-)) = 2 sqrt(a) sin th
    dens = (2.0 * math.sqrt(a) * np.sin(th)) / (2.0 * math.pi * a * x)
    vals = x ** k * dens * 2.0 * math.sqrt(a) * np.sin(th)
    return float(np.sum(w * vals))


@lru_cache(maxsize=None)
def _cmp_row(m, alpha):
    """(C_MP(m, 0), ..., C_MP(m, m)): mu_m at n = 0, (m/n) sum over
    compositions for 1 <= n <= m.  Exact rationals."""
    mus = mp_moments(alpha, m)
    out = [mus[m]]
    conv = [Fraction(0)] * (m + 1)
    conv[0] = Fraction(1)
    for n in range(1, m + 1):
        nxt = [Fraction(0)] * (m + 1)
        for tot in range(m + 1):
            if conv[tot] == 0:
                continue
            for k in range(1, m - tot + 1):
                nxt[tot + k] += conv[tot] * mus[k]
        conv = nxt
        out.append(Fraction(m, n) * conv[m])
    return tuple(out)


def _p_family(n, alpha):
    """Monic P_0 ... P_n, P_k as its k + 1 coefficients, from one triangular
    inversion of x^m = sum_k C_MP(m, k) P_k(x)."""
    polys = []
    for m in range(n + 1):
        coeffs = [Fraction(0)] * m + [Fraction(1)]
        for c, pk in zip(_cmp_row(m, alpha), polys):  # C_MP(m, k) P_k for k < m
            for i, pc in enumerate(pk):
                coeffs[i] -= c * pc
        polys.append(tuple(coeffs))
    return polys


def q_poly(n, alpha):
    """Q_0 = 1, Q_1 = x - 1, Q_n = (x - 1 - alpha) Q_{n-1} - alpha Q_{n-2}."""
    alpha = Fraction(alpha)
    prev, cur = [Fraction(1)], [Fraction(-1), Fraction(1)]
    if n == 0:
        return PolySeries("Q_family", tuple(prev))
    for _ in range(2, n + 1):
        nxt = [Fraction(0)] + cur
        for i, c in enumerate(cur):
            nxt[i] -= (1 + alpha) * c
        for i, c in enumerate(prev):
            nxt[i] -= alpha * c
        prev, cur = cur, nxt
    return PolySeries("Q_family", tuple(cur))


def un_pn_identity_exact(n, alpha):
    """Exact form of the U <-> P relation, with sqrt(alpha) cleared:
    Q_n(x) = sum_{i=0}^{n-1} alpha^(ceil(i/2)) P_{n-i}(x).  Returns bool."""
    alpha = Fraction(alpha)
    p = _p_family(n, alpha)
    rhs = [Fraction(0)] * (n + 1)
    for i in range(n):
        c = alpha ** ((i + 1) // 2)
        for j, co in enumerate(p[n - i]):
            rhs[j] += c * co
    return list(q_poly(n, alpha).coefficients) == rhs


def q_eval(n, alpha, x):
    """Q_n at float points via the stable three-term recurrence."""
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = x - 1.0
    for _ in range(2, n + 1):
        prev, cur = cur, (x - 1.0 - alpha) * cur - alpha * prev
    return cur


def q_vs_chebyshev_grid(n, alpha):
    """Max pointwise relative error of Q_n(x) against
    alpha^(n/2) (U_n(z) + sqrt(alpha) U_{n-1}(z)), z = (x-(1+alpha))/(2 sqrt(alpha)),
    on a deterministic 21-point midpoint grid inside the MP bulk."""
    a = float(alpha)
    lam_minus, lam_plus = (1 - math.sqrt(a)) ** 2, (1 + math.sqrt(a)) ** 2
    i = np.arange(21)
    xs = lam_minus + (lam_plus - lam_minus) * (2 * i + 1) / 42.0
    lhs = q_eval(n, a, xs)
    z = (xs - (1.0 + a)) / (2.0 * math.sqrt(a))
    rhs = a ** (n / 2.0) * (np.array([cheb_eval("U", n, zz) for zz in z])
                            + math.sqrt(a) * np.array([cheb_eval("U", n - 1, zz) for zz in z]))
    den = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return float(np.max(np.abs(lhs - rhs) / den))


# ---------------------------------------------------------------------------
# verification suites: `irmlab cheb verify` and acceptance criterion 5
# ---------------------------------------------------------------------------

def verify_suite(suite, n_max, seed):
    """Report dict of one exact suite.  "orthogonality" runs
    orthogonality_check to degree n_max; "product" checks 200 lists of one
    to four degrees in 1..n_max drawn at seed and keeps the first failing
    list; "wishart-poly" checks Q_n against Chebyshev on the
    bulk grid for n <= n_max and U_n <-> P_n exactly for n <= min(n_max, 12),
    at alpha 0.25, 0.5 and 1."""
    if suite == "orthogonality":
        return orthogonality_check(n_max)
    if suite == "product":
        rng = np.random.default_rng(seed)
        for _ in range(200):
            ms = rng.integers(1, n_max + 1, size=int(rng.integers(1, 5))).tolist()
            good, lhs, rhs = product_coeff_identity(ms)
            if not good:
                return {"passed": False, "worst": {"m_list": ms, "lhs": lhs, "rhs": rhs}}
        return {"passed": True, "worst": None}
    alphas = (0.25, 0.5, 1.0)
    worst = max(q_vs_chebyshev_grid(n, a) for a in alphas for n in range(1, n_max + 1))
    exact = all(un_pn_identity_exact(n, a) for a in alphas for n in range(1, min(n_max, 12) + 1))
    return {"passed": bool(worst <= 1e-10 and exact), "worst_rel_error": worst,
            "exact_un_pn": exact}
