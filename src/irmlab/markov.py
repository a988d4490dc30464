"""n-step transition probabilities of the profile chain and mixing certificates.

The short-to-long mixing check has two parts: an averaged short-time bound
(max over (x,y) of (1/t) sum_{n<=t} p_n(x,y) <= gamma/N) and a long-time
uniform bound (|p_n(x,y) - 1/N| <= delta/N for all n >= t).  The long-time
condition quantifies over all n; exhaustive scanning covers n up to a finite
horizon and a spectral-gap certificate closes the tail for symmetric kernels:
|p_n(x,y) - 1/N| <= (N-1) |lambda_2|^n.  For circulant (band) profiles the
same role is played by the Fourier symbol, and p_n rows are available in
O(N log N) without dense powers.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from irmlab.profiles import VarianceProfile, ProfileError


class MixingDomainError(ValueError):
    """Parameter outside the admissible range (e.g. delta not in (0, 0.1))."""


class NumericalDegradationError(RuntimeError):
    """Row-sum drift of iterated powers exceeded tolerance."""


ROW_DRIFT_TOL = 1e-6
ROW_STOCHASTIC_TOL = 1e-9


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
    certificate: str         # exhaustive | spectral-gap | fourier
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

def transition_powers(profile, n_max):
    """Yield (n, P^n) for n = 1..n_max with row-sum drift monitoring.

    For N >= 512 the products accumulate in extended precision to keep the
    drift within tolerance over long horizons.
    """
    P = profile.transition_matrix() if isinstance(profile, VarianceProfile) else np.asarray(profile, float)
    N = P.shape[0]
    P = P.astype(np.longdouble if N >= 512 else np.float64)
    Pn = P.copy()
    for n in range(1, n_max + 1):
        if n > 1:
            Pn = Pn @ P
        drift = float(np.max(np.abs(Pn.sum(axis=1) - 1.0)))
        if drift > ROW_DRIFT_TOL:
            raise NumericalDegradationError(f"row-sum drift {drift:.3e} at power {n}")
        yield n, np.asarray(Pn, dtype=np.float64)


def dense_power(profile, n):
    """P^n as a dense array (convenience wrapper over transition_powers)."""
    out = None
    for k, Pn in transition_powers(profile, n):
        out = Pn
    return out


# ---------------------------------------------------------------------------
# mixing checks
# ---------------------------------------------------------------------------

def _spectral_tail_bound(P):
    """Return |lambda_2| for a symmetric doubly stochastic kernel, or None."""
    P = np.asarray(P, dtype=float)
    if np.max(np.abs(P - P.T)) > 1e-9:
        return None
    ev = np.linalg.eigvalsh(P)
    ev = np.sort(np.abs(ev))[::-1]
    return float(ev[1]) if len(ev) > 1 else 0.0


def check_mixing(profile, t_N, gamma, delta, horizon):
    """Certify or refute the short/long mixing pair for a square profile."""
    if not (0.0 < delta < 0.1):
        raise MixingDomainError("delta must lie in (0, 0.1)")
    if t_N < 1 or horizon < t_N:
        raise MixingDomainError("need 1 <= t_N <= horizon")
    P = profile.transition_matrix()
    N = P.shape[0]

    avg = np.zeros_like(P)
    worst_b1 = (0, 0, 0.0)
    worst_b2 = (t_N, 0, 0, 0.0)
    max_dev = 0.0
    for n, Pn in transition_powers(profile, horizon):
        if n <= t_N:
            avg += Pn
            if n == t_N:
                avg /= t_N
                x, y = np.unravel_index(np.argmax(avg), avg.shape)
                worst_b1 = (int(x), int(y), float(avg[x, y]))
        if n >= t_N:
            dev = np.abs(Pn - 1.0 / N)
            m = float(dev.max())
            if m > max_dev:
                x, y = np.unravel_index(np.argmax(dev), dev.shape)
                max_dev = m
                worst_b2 = (n, int(x), int(y), m)

    gamma_obs = worst_b1[2] * N
    delta_obs = max_dev * N
    b1_pass = bool(worst_b1[2] <= gamma / N * (1 + 1e-12))
    b2_examined = bool(max_dev <= delta / N * (1 + 1e-12))

    lam2 = _spectral_tail_bound(P)
    certificate = "exhaustive"
    horizon_limited = True
    if lam2 is not None:
        certificate = "spectral-gap"
        if profile.structure == "circulant":
            certificate = "fourier"
        if lam2 < 1.0 and (N - 1) * lam2 ** (horizon + 1) <= delta / N:
            horizon_limited = False

    t1 = int(profile.n_rows ** (1.0 / 3.0))
    return MixingReport(
        t_N=t_N, gamma=gamma, delta=delta, horizon=horizon,
        b1_pass=b1_pass, b2_pass=b2_examined and not horizon_limited,
        worst_b1=worst_b1, worst_b2=worst_b2,
        certificate=certificate, horizon_limited=horizon_limited,
        gamma_observed=gamma_obs, delta_observed=delta_obs,
        b2_examined=b2_examined,
        thouless_flag=bool(t_N <= max(1, t1)),
    )


def bipartite_check_mixing(profile, t_N, gamma, delta, horizon):
    """Mixing check on the two-sided chain of a bipartite profile.

    Short-time bounds are side dependent (gamma/N for targets in [N],
    gamma/M in [M]); the long-time check applies to the lazified sums
    p_n + p_{n+1} against the side target.  The tail beyond the horizon is
    closed through the symmetrized kernel: the period-2 eigenvalue cancels
    in p_n + p_{n+1} and the remainder decays like |lambda_*|^n.
    """
    if not (0.0 < delta < 0.1):
        raise MixingDomainError("delta must lie in (0, 0.1)")
    if profile.kind != "bipartite":
        raise ProfileError("bipartite check needs a bipartite profile")
    PS = profile.bipartite_transition()
    M = profile.n_rows
    N = profile.n_cols
    S = M + N
    target = np.concatenate([np.full(M, 1.0 / M), np.full(N, 1.0 / N)])
    bound_b1 = np.concatenate([np.full(M, gamma / M), np.full(N, gamma / N)])
    bound_b2 = np.concatenate([np.full(M, delta / M), np.full(N, delta / N)])

    powers = {}
    avg = np.zeros_like(PS)
    worst_b1 = (0, 0, 0.0)
    worst_b2 = (t_N, 0, 0, 0.0)
    b1_pass = True
    b2_examined = True
    max_ratio2 = 0.0
    Pn = None
    for n, Pcur in transition_powers(PS, horizon + 1):
        if n <= t_N:
            avg += Pcur
            if n == t_N:
                avg /= t_N
                ratio = avg / bound_b1[None, :]
                x, y = np.unravel_index(np.argmax(ratio), ratio.shape)
                worst_b1 = (int(x), int(y), float(avg[x, y]))
                b1_pass = bool(ratio.max() <= 1 + 1e-12)
        if Pn is not None and n - 1 >= t_N:
            lazy = Pn + Pcur
            dev = np.abs(lazy - target[None, :])
            ratio = dev / bound_b2[None, :]
            m = float(ratio.max())
            if m > max_ratio2:
                x, y = np.unravel_index(np.argmax(ratio), ratio.shape)
                max_ratio2 = m
                worst_b2 = (n - 1, int(x), int(y), float(dev[x, y]))
        Pn = Pcur
    b2_examined = bool(max_ratio2 <= 1 + 1e-12)

    # tail certificate via the reversible symmetrization D PS D^{-1}
    pi = 0.5 * target
    dvec = np.sqrt(pi)
    Sym = dvec[:, None] * PS / dvec[None, :]
    if np.max(np.abs(Sym - Sym.T)) < 1e-9:
        ev = np.sort(np.abs(np.linalg.eigvalsh(Sym)))
        lam_star = float(ev[-3]) if S >= 3 else 0.0  # drop the +-1 pair
        amp = (1.0 + lam_star) * float(np.max(dvec) / np.min(dvec))
        horizon_limited = not (lam_star < 1.0 and
                               amp * lam_star ** (horizon + 1) <= delta / max(M, N) * 1.0)
        certificate = "spectral-gap"
    else:
        horizon_limited = True
        certificate = "exhaustive"

    delta_obs = max_ratio2 * delta
    return MixingReport(
        t_N=t_N, gamma=gamma, delta=delta, horizon=horizon,
        b1_pass=b1_pass, b2_pass=b2_examined and not horizon_limited,
        worst_b1=worst_b1, worst_b2=worst_b2,
        certificate=certificate, horizon_limited=horizon_limited,
        gamma_observed=worst_b1[2] * (M if worst_b1[1] < M else N),
        delta_observed=delta_obs, b2_examined=b2_examined, bipartite=True,
    )


# ---------------------------------------------------------------------------
# Fourier fast path for circulant band profiles
# ---------------------------------------------------------------------------

def _circulant_symbol(profile):
    t = profile.torus
    if profile.structure != "circulant" or t is None:
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


def band_transition_fourier(profile, n, x):
    """p_n(0, x) for a circulant profile; x is a flat site index or multi-index."""
    row = band_transition_row(profile, n)
    t = profile.torus
    if np.ndim(x) > 0:
        idx = int(np.ravel_multi_index(tuple(int(c) % t["L"] for c in x), (t["L"],) * t["d"]))
    else:
        idx = int(x)
    return float(row[idx])


def band_mixing_envelope(profile, n, constants=None):
    """Envelope C * W^{-d} * n^{-d/alpha} + C' * n * W^{-K} for |p_n(0,x) - 1/N|.

    Constants are calibrated empirically at small n (max over x for
    n <= n_cal) and then frozen; calibrate_envelope returns them.
    """
    t = profile.torus
    if t is None:
        raise ProfileError("envelope defined for band profiles")
    if constants is None:
        constants = calibrate_envelope(profile)
    C, Cp = constants
    d, W = t["d"], t["W"]
    alpha = t.get("alpha_stable", 2.0)
    K = t.get("decay_K", 50.0)
    return C * W ** (-d) * float(n) ** (-d / alpha) + Cp * float(n) * W ** (-float(K))


def calibrate_envelope(profile, n_cal=8):
    """Freeze (C, C') from the maximal deviation over n <= n_cal."""
    t = profile.torus
    d, L, W = t["d"], t["L"], t["W"]
    alpha = t.get("alpha_stable", 2.0)
    N = L ** d
    C = 0.0
    for n in range(1, n_cal + 1):
        dev = float(np.max(np.abs(band_transition_row(profile, n) - 1.0 / N)))
        C = max(C, dev * W ** d * n ** (d / alpha))
    return (C, 1.0)


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
