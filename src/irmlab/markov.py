"""n-step transition probabilities of the profile chain and mixing certificates.

The short-to-long mixing check has two parts: an averaged short-time bound
(max over (x,y) of (1/t) sum_{n<=t} p_n(x,y) <= gamma/N) and a long-time
uniform bound (|p_n(x,y) - 1/N| <= delta/N for all n >= t).  One certificate
serves the chain on [N] of a square profile and the two-sided chain on
[M] | [N] of a bipartite one, with targets and bounds divided by the size of
the target's side.  One scan reads every chain, and each chain steps its
powers across the window [t, horizon] in the form its profile has:

- dense (square or bipartite): one matrix engine on the kernel's row blocks,
  [V] on [N] or [V, V^T/alpha] on [M] | [N], block i of P^n mapping side i to
  side (i + n) % r: P^t and the short-time sum by binary doubling in
  O(log t) float64 products, then one product per step, so a bipartite power
  is never formed at (M+N)^2;
- circulant (band): row 0 of P^n and of the short-time sum from the Fourier
  symbol in O(N log N), so the dense matrix is never built.

A spectral certificate closes the tail beyond the horizon (Cauchy-Schwarz on
the eigenvector expansion of the reversible chain), with lambda_* read off
the Fourier symbol for circulant profiles.  The same bound ends the scan
early: it stops at the first n whose tail bound at n + 1 is below the
running worst long-time ratio, so later powers, which could not move the
worst, are never formed.  For the stop, _tail_bound adds a slack that makes
the bound hold for the kernel as stored and its float64 powers.  It covers
the kernel's row-sum defect and asymmetry eta (about 1e-13 on Sinkhorn
profiles), the rounding of the doubling and stepping products
(2 (K + 2) eps per product, K the number of states) and the error of
lambda_* (K eps + eta).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import numbers

import numpy as np

from irmlab.profiles import VarianceProfile, ProfileError


class MixingDomainError(ValueError):
    """Parameter outside the admissible range (e.g. delta not in (0, 0.1))."""


class NumericalDegradationError(RuntimeError):
    """Row-sum drift of iterated powers exceeded tolerance."""


ROW_DRIFT_TOL = 1e-6
EPS = float(np.finfo(float).eps)


@dataclasses.dataclass
class MixingReport:
    t_N: int
    gamma: float
    delta: float
    horizon: int
    b1_pass: bool
    b2_pass: bool
    worst_b1: tuple          # (x, y, value)
    worst_b2: tuple          # (n, x, y, value)
    certificate: str         # spectral-gap (lambda_* from the symbol when circulant)
    horizon_limited: bool
    gamma_observed: float
    delta_observed: float
    b2_examined: bool = True   # long-time bound on the scanned range only
    bipartite: bool = False
    thouless_flag: bool | None = None   # diagnostic only: t_N <= N^(1/3)

    @property
    def refuted(self):
        """Failure already demonstrated on the examined range."""
        return (not self.b1_pass) or (not self.b2_examined)

    @property
    def passed(self):
        return self.b1_pass and self.b2_pass and not self.horizon_limited

    def to_json(self):
        d = dataclasses.asdict(self)
        d["worst_b1"] = list(self.worst_b1)
        d["worst_b2"] = list(self.worst_b2)
        return d

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True)


# ---------------------------------------------------------------------------
# transition powers
# ---------------------------------------------------------------------------

def _check_drift(Pn, n):
    drift = float(np.max(np.abs(Pn.sum(axis=1) - 1.0)))
    if not drift <= ROW_DRIFT_TOL:
        raise NumericalDegradationError(f"row-sum drift {drift:.3e} at power {n}")


def transition_powers(profile, n_max):
    """Yield (n, P^n) for n = 1..n_max in float64 with row-sum drift monitoring."""
    P = profile.variances if isinstance(profile, VarianceProfile) else np.asarray(profile, float)
    for n, [(Pn, _, _)] in _matrix_chain([P], 1, n_max)[1]:
        yield n, Pn


# ---------------------------------------------------------------------------
# the chain in its own form
# ---------------------------------------------------------------------------
# Each form returns (avg, powers).  avg is the short-time average
# (1/t) sum_{n<=t} p_n and powers yields (n, blocks) for t <= n <= stop, both
# as blocks (B, x0, y0) that hold the entries at rows x0.. and columns y0..
# Entries outside the blocks are structural zeros, or (circulant) translates
# of row 0.

def _matrix_chain(P, t_N, stop):
    """The chain of a kernel given as its row blocks, one per side of the
    state space: [V] on [N] for a square profile, [V, V^T/alpha] on [M] | [N]
    for a bipartite one.  Block i of P^k maps side i to side (i + k) % r, so
    every product is (P^a)_i (P^b)_((i+a) % r), and one code path doubles,
    drift-checks and steps both chains.  P^t and S = sum_{n<=t} P^n come from
    binary doubling (S_2k = S_k + P^k S_k, P^2k = P^k P^k, one step per set
    bit of t), then one product per step.  All blocks of S can be nonzero, so
    it is held as full-width rows per side and P^k is added into its column
    slice.  Powers are products, not Q Lambda^n Q^T, so a uniform kernel of
    size 2^k stays exact."""
    r = len(P)
    edges = [0, *itertools.accumulate(len(B) for B in P)]
    cols = [slice(edges[j], edges[j + 1]) for j in range(r)]

    def times(A, a, B):
        return [A[i] @ B[(i + a) % r] for i in range(r)]

    def checked(Pk, k):
        for B in Pk:
            _check_drift(B, k)
        return Pk, k

    def add(S, Pk, k):
        for i in range(r):
            S[i][:, cols[(i + k) % r]] += Pk[i]

    Pk, k = checked(P, 1)
    S = [np.zeros((len(B), edges[-1])) for B in P]
    add(S, P, 1)
    for bit in bin(t_N)[3:]:
        S = [Si + Ti for Si, Ti in zip(S, times(Pk, k, S))]
        Pk, k = checked(times(Pk, k, Pk), 2 * k)
        if bit == "1":
            Pk, k = checked(times(Pk, k, P), k + 1)
            add(S, Pk, k)

    def powers(Pn):
        for n in range(t_N, stop + 1):
            if n > t_N:
                Pn, _ = checked(times(Pn, n - 1, P), n)
            yield n, [(B, edges[i], edges[(i + n) % r]) for i, B in enumerate(Pn)]
    return [(Si / t_N, edges[i], 0) for i, Si in enumerate(S)], powers(Pk)


def _fourier_row(coefficients, shape):
    """Row 0 of the circulant kernel on the torus `shape` with the given Fourier
    coefficients (on rfftn's half spectrum): for symbol^n, the row p_n(0, .)."""
    return np.fft.irfftn(coefficients, s=shape, axes=range(len(shape))).reshape(-1)


def _circulant_symbol(profile):
    """(symbol, shape): the Fourier symbol of a circulant profile's kernel on
    rfftn's half spectrum, real because the row is even, and the torus shape."""
    if profile.circulant_row is None:
        raise ProfileError("Fourier path requires a circulant band profile")
    shape = (profile.torus["L"],) * profile.torus["d"]
    return np.fft.rfftn(profile.circulant_row.reshape(shape)).real, shape


def _circulant_chain(symbol, shape, t_N, stop):
    avg = _fourier_row(sum(symbol ** n for n in range(1, t_N + 1)), shape)[None, :] / t_N

    def powers():
        for n in range(t_N, stop + 1):
            row = _fourier_row(symbol ** n, shape)[None, :]
            _check_drift(row, n)
            yield n, [(row, 0, 0)]
    return [(avg, 0, 0)], powers()


# ---------------------------------------------------------------------------
# mixing checks
# ---------------------------------------------------------------------------

def check_domain(t_N, gamma, delta, horizon):
    """Refuse mixing parameters outside the admissible ranges."""
    if not (0.0 < delta < 0.1):
        raise MixingDomainError("delta must lie in (0, 0.1)")
    if not (0.0 < gamma < math.inf):
        raise MixingDomainError("gamma must be finite and positive")
    if not (isinstance(t_N, numbers.Integral) and isinstance(horizon, numbers.Integral)
            and 1 <= t_N <= horizon):
        raise MixingDomainError("need integers 1 <= t_N <= horizon")


def _worst(blocks, side, ratio):
    """(r, x, y, p): the largest r = ratio(p, s_y) over the blocks' entries
    p(x, y), first in the row-major order of the whole matrix.  The ratio of
    these chains is symmetric in exact arithmetic (s_y p(x, y) = s_x p(y, x)),
    so the mirror with x <= y is reported, with p read there: coordinates that
    rounding cannot flip."""
    peaks = []
    for B, x0, y0 in blocks:
        r = ratio(B, side[y0:y0 + B.shape[1]])
        i, j = np.unravel_index(np.argmax(r), r.shape)
        peaks.append((-float(r[i, j]), x0 + int(i), y0 + int(j)))
    r, x, y = min(peaks)
    x, y = min(x, y), max(x, y)
    for B, x0, y0 in blocks:
        if 0 <= x - x0 < B.shape[0] and 0 <= y - y0 < B.shape[1]:
            return -r, x, y, float(B[x - x0, y - y0])


def _peak(B, s, delta):
    """max |p - 1/s| / (delta/s) over the block, from its largest and smallest
    entries: |fl(p - 1/s)| / (delta/s) is monotone on each side of 1/s, so this
    is the float an entrywise pass gives."""
    return max(abs(float(B.max()) - 1.0 / s), abs(float(B.min()) - 1.0 / s)) / (delta / s)


def _mixing_scan(avg, powers, side, gamma, delta, tail, lazy=False):
    """Short- and long-time bounds of a chain with target 1/side[y] at y.

    The short-time average is held against gamma/side, the long-time p_n
    (lazy: p_n + p_{n+1}, read block by block) against 1/side +- delta/side.
    tail(n) bounds the long-time ratio |p - 1/side| / (delta/side) of every
    power from n on, so the scan stops pulling powers once tail(n + 1) is
    below the running worst: no later power could move it.
    Returns the MixingReport fields these determine.
    """
    b1_ratio, *worst_b1 = _worst(avg, side, lambda B, s: B / (gamma / s))
    if lazy:
        powers = ((n, Bn + Bm) for (n, Bn), (_, Bm) in itertools.pairwise(powers))
    b2_ratio = -1.0  # below every ratio, so the first n always sets worst_b2
    for n, blocks in powers:
        if max(_peak(B, side[y0], delta) for B, _, y0 in blocks) > b2_ratio:
            b2_ratio, x, y, p = _worst(blocks, side,
                                       lambda B, s: np.abs(B - 1.0 / s) / (delta / s))
            worst_b2 = (n, x, y, abs(p - 1.0 / float(side[y])))
        if tail(n + 1) < b2_ratio:
            break
    return dict(worst_b1=tuple(worst_b1), worst_b2=worst_b2,
                b1_pass=b1_ratio <= 1 + 1e-12, b2_examined=b2_ratio <= 1 + 1e-12,
                gamma_observed=worst_b1[2] * float(side[worst_b1[1]]),
                delta_observed=worst_b2[3] * float(side[worst_b2[2]]))


def _lambda_star(ev):
    """Largest modulus among the eigenvalues (or singular values) ev after
    the largest."""
    ev = np.sort(np.abs(np.ravel(ev)))
    return float(ev[-2]) if ev.size > 1 else 0.0


def _kernel_defect(P, sizes):
    """eta of _tail_bound for a kernel given as its row blocks: the largest
    row-sum defect, plus 2K times the largest asymmetry of D P D^{-1}, whose
    blocks are sqrt(s_(i+1) / s_i) P_i (0 for every builder's kernel)."""
    r = len(P)
    S = [math.sqrt(sizes[(i + 1) % r] / sizes[i]) * B for i, B in enumerate(P)]
    rows = max(float(np.max(np.abs(B.sum(axis=1) - 1.0))) for B in P)
    return rows + 2 * sum(sizes) * float(np.max(np.abs(S[0] - S[-1].T)))


def _spectral_term(lam, c, s, n):
    """c (1 - 1/s) lambda_*^n, the spectral bound on |p_n - 1/s_y| of an
    exactly stochastic kernel (see _certify)."""
    return c * (1.0 - 1.0 / s) * lam ** n


def _tail_bound(n, lam, eta, K, s, delta, last, lazy):
    """A bound, non-increasing in n, on the long-time ratio
    |p - 1/s_y| / (delta/s_y) of every power (lazy: lazy sum) the scan forms
    from n to `last`, valid for the kernel as stored and its float64 powers:

        (s/delta) [c (1 - 1/s) L^n + w (((1 + g)(1 + 2 eta))^m - 1 + 2 eta/(1 - L))]

    with K states, s the largest side, L = lambda_* + K eps + eta,
    g = 2 (K + 2) eps, and (c, w, m) = (1, 1, last) for p_n, (1 + L, 3, last + 1)
    for lazy sums.  eta is the kernel's defect (_kernel_defect).  Square chain,
    A = P, u = 1/sqrt(K):
    - A_s = (A + A^T)/2 has row sums within eta of 1, so norm <= 1 + eta, a
      Perron root mu within eta of 1 and |A_s u - u| <= eta; its other
      eigenvalues are at most L in modulus, since eigvalsh is backward stable
      (K eps) on a triangle of A, within eta of A_s.
    - Davis-Kahan puts the Perron vector v within sin(theta) <= eta/(1 - L)
      of u, and so each entry of v v^T - u u^T.  (Once eta/(1 - L) >= 1/2,
      the slack alone exceeds every computed |p - 1/s_y|.)
    - A_s^n = mu^n v v^T + sum_k mu_k^n v_k v_k^T: the first term is within
      (1 + eta)^n - 1 + sin(theta) of 1/K, the sum (Cauchy-Schwarz) within
      L^n (1 - 1/K + sin(theta)).
    - |A - A_s| <= eta, so |A^n - A_s^n| <= (1 + 2 eta)^n - (1 + eta)^n.
    - A float64 product of nonnegative matrices rounds each entry by a
      relative g at most, and every product tree for P^n (doubling, then
      steps) stacks n - 1 of them, so the computed power is within
      ((1 + g)^n - 1)(1 + eta)^n of P^n.  g also covers the O(log K) ulps of
      a Fourier row and the ratio's own rounding.
    The terms sum to the bound at m = n; m = last makes it non-increasing.
    The bipartite chain is read through D P D^{-1} (see _certify), with the
    Perron pair u = sqrt(pi), u * (+1 on [M], -1 on [N]) for mu near +-1 and
    ratios scaled by sqrt(s_x s_y) <= s; each slack term then enters a lazy
    sum at most three times at power n + 1.  A circulant chain is the kernel
    of the computed symbol: exactly symmetric, Perron vector u and
    lambda_* exact, with eta = |symbol_0 - 1|.  When L >= 1 the bound is
    inf, and nothing stops the scan.
    """
    lam = lam + K * EPS + eta
    if not lam < 1.0:
        return math.inf
    c, w, m = (1.0 + lam, 3, last + 1) if lazy else (1.0, 1, last)
    g = 2 * (K + 2) * EPS
    slack = w * (math.expm1(m * (math.log1p(g) + math.log1p(2 * eta))) + 2 * eta / (1.0 - lam))
    return (_spectral_term(lam, c, s, n) + slack) / (delta / s)


def _certify(profile, t_N, gamma, delta, horizon):
    """The mixing report of a square or bipartite profile's chain.

    The period-2 bipartite chain holds the lazy sums p_n + p_{n+1} to its
    long-time bound.  lambda_* is the second largest modulus among the
    eigenvalues of a square profile's P, or of the Fourier symbol of a
    circulant one.  The
    bipartite chain is symmetrized by D P D^{-1}, D = diag(side)^{-1/2}, into
    [[0, B], [B^T, 0]] with B = sqrt(N/M) sigma^2, whose eigenvalues are
    +-(the singular values of B) and zeros: lambda_* is the second singular
    value of B, past the pair +-1.  With pi = 1/(2 side) and
    c = 1 + lambda_* for lazy sums (1 for p_n),
    |p(x,y) - 1/side_y| <= c lambda_*^n sqrt(pi_y/pi_x (1-2pi_x)(1-2pi_y)),
    so the tail closes once c (1 - 1/s) lambda_*^(horizon+1) <= delta/s for
    the largest side s.  The scan stops early on _tail_bound, the same bound
    with a slack for the kernel as stored and its float64 powers.
    """
    check_domain(t_N, gamma, delta, horizon)
    bipartite = profile.kind == "bipartite"
    if profile.circulant_row is not None:
        symbol, shape = _circulant_symbol(profile)
        sizes = [profile.n_rows]
        chain = _circulant_chain(symbol, shape, t_N, horizon)
        lam = _lambda_star(symbol)
        eta = abs(float(symbol.flat[0]) - 1.0)
    else:
        V = profile.variances
        if bipartite:
            M, N = V.shape
            P = [V, np.ascontiguousarray(V.T) / profile.alpha]
            lam = _lambda_star(np.linalg.svd(np.sqrt(N / M) * V, compute_uv=False))
        else:
            P = [V]
            lam = _lambda_star(np.linalg.eigvalsh(V))
        sizes = [len(B) for B in P]
        eta = _kernel_defect(P, sizes)
        # the lazy sums p_n + p_{n+1} read one power past the horizon
        chain = _matrix_chain(P, t_N, horizon + 1 if bipartite else horizon)
    side = np.repeat(np.asarray(sizes, float), sizes)
    s = float(side.max())
    tail = functools.partial(_tail_bound, lam=lam, eta=eta, K=len(side), s=s, delta=delta,
                             last=horizon, lazy=bipartite)
    scan = _mixing_scan(*chain, side, gamma, delta, tail, lazy=bipartite)

    c = 1.0 + lam if bipartite else 1.0
    horizon_limited = not (lam < 1.0 and _spectral_term(lam, c, s, horizon + 1) <= delta / s)

    return MixingReport(
        t_N=t_N, gamma=gamma, delta=delta, horizon=horizon,
        b2_pass=scan["b2_examined"] and not horizon_limited,
        certificate="spectral-gap", horizon_limited=horizon_limited, bipartite=bipartite,
        thouless_flag=None if bipartite else t_N ** 3 <= len(side),
        **scan,
    )


def check_mixing(profile, t_N, gamma, delta, horizon):
    """Certify or refute the short/long mixing pair for the chain of a square
    or bipartite profile."""
    return _certify(profile, t_N, gamma, delta, horizon)


def bipartite_check_mixing(profile, t_N, gamma, delta, horizon):
    """check_mixing restricted to bipartite profiles: the two-sided chain on
    [M] | [N], with short-time bounds gamma/M on [M] and gamma/N on [N]."""
    if profile.kind != "bipartite":
        raise ProfileError("bipartite chain needs a bipartite profile")
    return _certify(profile, t_N, gamma, delta, horizon)


# ---------------------------------------------------------------------------
# Fourier rows of circulant band profiles
# ---------------------------------------------------------------------------

def band_transition_row(profile, n):
    """Row p_n(0, .) of a circulant profile via the Fourier symbol (O(N log N))."""
    symbol, shape = _circulant_symbol(profile)
    return _fourier_row(symbol ** n, shape)


def band_decay_slope(profile, n_values):
    """Log-log slope of max_x |p_n(0,x) - 1/N| against n (least squares)."""
    symbol, shape = _circulant_symbol(profile)
    N = profile.n_rows
    devs = [max(float(np.max(np.abs(_fourier_row(symbol ** n, shape) - 1.0 / N))), 1e-300)
            for n in n_values]
    lx = np.log(np.asarray(n_values, dtype=float))
    ly = np.log(np.asarray(devs))
    slope = float(np.polyfit(lx, ly, 1)[0])
    return slope, devs
