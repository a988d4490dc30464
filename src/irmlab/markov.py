"""n-step transition probabilities of the profile chain and mixing certificates.

The short-to-long mixing check has two parts: an averaged short-time bound
(max over (x,y) of (1/t) sum_{n<=t} p_n(x,y) <= gamma/N) and a long-time
uniform bound (|p_n(x,y) - 1/N| <= delta/N for all n >= t).  One certificate
serves the chain on [N] of a square profile and the two-sided chain on
[M] | [N] of a bipartite one, with targets and bounds divided by the size of
the target's side.  Binary doubling forms the short-time sum and P^t in
O(log t) float64 products, and single steps cover only the scan window
[t, horizon].  A spectral certificate closes the tail beyond the horizon
(Cauchy-Schwarz on the eigenvector expansion of the reversible chain), with
lambda_* read off the Fourier symbol for circulant (band) profiles, whose
p_n rows are also available in O(N log N) without dense powers.
"""

from __future__ import annotations

import dataclasses
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


def _mixing_powers(P, t_N, stop):
    """(S, powers) for a row-stochastic P: S = sum_{n<=t_N} P^n by binary
    doubling (S_2k = S_k + P^k S_k, P^2k = P^k P^k, one step per set bit of
    t_N), powers yielding (n, P^n) for t_N <= n <= stop.  Powers are products,
    not Q Lambda^n Q^T, so a uniform kernel of size 2^k stays exact."""
    _check_drift(P, 1)
    S = Pk = P
    k = 1
    for bit in bin(t_N)[3:]:
        S = S + Pk @ S
        Pk = Pk @ Pk
        k *= 2
        _check_drift(Pk, k)
        if bit == "1":
            Pk = Pk @ P
            k += 1
            _check_drift(Pk, k)
            S = S + Pk

    def scan(Pn):
        for n in range(t_N, stop + 1):
            if n > t_N:
                Pn = Pn @ P
                _check_drift(Pn, n)
            yield n, Pn
    return S, scan(Pk)


def transition_powers(profile, n_max):
    """Yield (n, P^n) for n = 1..n_max in float64 with row-sum drift monitoring."""
    P = profile.variances if isinstance(profile, VarianceProfile) else np.asarray(profile, float)
    yield from _mixing_powers(P, 1, n_max)[1]


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


def _mixing_scan(P, side, t_N, gamma, delta, horizon, lazy=False):
    """Short- and long-time bounds of the chain P with target 1/side[y] at y.

    The short-time average is held against gamma/side, the long-time p_n
    (lazy: p_n + p_{n+1}, t_N <= n <= horizon) against 1/side +- delta/side.
    Returns the MixingReport fields these determine.
    """
    S, powers = _mixing_powers(P, t_N, horizon + lazy)
    if lazy:
        powers = ((n, Pn + Pm) for (n, Pn), (_, Pm) in itertools.pairwise(powers))
    avg = S / t_N
    ratio = avg / (gamma / side)
    x, y = np.unravel_index(np.argmax(ratio), ratio.shape)
    worst_b1 = (int(x), int(y), float(avg[x, y]))
    b1_ratio = float(ratio[x, y])
    worst_b2 = (t_N, 0, 0, 0.0)
    b2_ratio = 0.0
    target, bound, ratio = 1.0 / side, delta / side, np.empty_like(P)
    for n, Pn in powers:
        np.abs(np.subtract(Pn, target, out=ratio), out=ratio)
        ratio /= bound
        m = float(ratio.max())
        if m > b2_ratio:
            x, y = np.unravel_index(np.argmax(ratio), ratio.shape)
            b2_ratio = m
            worst_b2 = (n, int(x), int(y), float(abs(Pn[x, y] - target[y])))
    return dict(worst_b1=worst_b1, worst_b2=worst_b2,
                b1_pass=b1_ratio <= 1 + 1e-12, b2_examined=b2_ratio <= 1 + 1e-12,
                gamma_observed=worst_b1[2] * float(side[worst_b1[1]]),
                delta_observed=worst_b2[3] * float(side[worst_b2[2]]))


def _lambda_star(P, drop=1, symbol=None):
    """Largest |eigenvalue| of the symmetric P after its `drop` largest, read
    off the Fourier symbol when one is given."""
    ev = np.abs(symbol).ravel() if symbol is not None else np.abs(np.linalg.eigvalsh(P))
    return float(np.sort(ev)[-1 - drop]) if ev.size > drop else 0.0


def _certify(profile, t_N, gamma, delta, horizon):
    """The mixing report of a square or bipartite profile's chain.

    The period-2 bipartite chain holds the lazy sums p_n + p_{n+1} to its
    long-time bound.  lambda_* is read from D P D^{-1}, D = diag(side)^{-1/2},
    past the unit-modulus eigenvalues (1, and -1 when bipartite).  With
    pi = 1/(2 side) and c = 1 + lambda_* for lazy sums (1 for p_n),
    |p(x,y) - 1/side_y| <= c lambda_*^n sqrt(pi_y/pi_x (1-2pi_x)(1-2pi_y)),
    so the tail closes once c (1 - 1/s) lambda_*^(horizon+1) <= delta/s for
    the largest side s.
    """
    check_domain(t_N, gamma, delta, horizon)
    bipartite = profile.kind == "bipartite"
    if bipartite:
        M, N = profile.n_rows, profile.n_cols
        P, side = profile.bipartite_transition(), np.repeat([float(M), float(N)], [M, N])
    else:
        P = profile.variances
        side = np.full(len(P), float(len(P)))
    scan = _mixing_scan(P, side, t_N, gamma, delta, horizon, lazy=bipartite)

    lam = _lambda_star(P * np.sqrt(side / side[:, None]), drop=2 if bipartite else 1,
                       symbol=None if profile.circulant_row is None
                       else _circulant_symbol(profile)[0])
    s = float(side.max())
    c = 1.0 + lam if bipartite else 1.0
    horizon_limited = not (lam < 1.0 and c * (1.0 - 1.0 / s) * lam ** (horizon + 1) <= delta / s)

    return MixingReport(
        t_N=t_N, gamma=gamma, delta=delta, horizon=horizon,
        b2_pass=scan["b2_examined"] and not horizon_limited,
        certificate="spectral-gap", horizon_limited=horizon_limited, bipartite=bipartite,
        thouless_flag=None if bipartite else bool(t_N <= max(1, int(len(side) ** (1.0 / 3.0)))),
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
# Fourier fast path for circulant band profiles
# ---------------------------------------------------------------------------

def _circulant_symbol(profile):
    t = profile.torus  # a circulant row always has its torus
    if profile.circulant_row is None:
        raise ProfileError("Fourier path requires a circulant band profile")
    d, L = t["d"], t["L"]
    row = np.asarray(profile.circulant_row, dtype=float).reshape((L,) * d)
    symbol = np.fft.fftn(row)
    return symbol, d, L


def band_transition_row(profile, n):
    """Row p_n(0, .) of a circulant profile via the Fourier symbol (O(N log N))."""
    symbol, d, L = _circulant_symbol(profile)
    row = np.fft.ifftn(symbol ** n)
    return np.real(row).reshape(-1)


def band_decay_slope(profile, n_values):
    """Log-log slope of max_x |p_n(0,x) - 1/N| against n (least squares)."""
    t = profile.torus
    N = t["L"] ** t["d"]
    devs = []
    for n in n_values:
        devs.append(max(float(np.max(np.abs(band_transition_row(profile, n) - 1.0 / N))), 1e-300))
    lx = np.log(np.asarray(n_values, dtype=float))
    ly = np.log(np.asarray(devs))
    slope = float(np.polyfit(lx, ly, 1)[0])
    return slope, devs
