"""Spectral-edge statistics: top eigenvalues across replicas, affine
rescaling at the edge, exact two-sample Kolmogorov-Smirnov comparisons
against a same-size Gaussian baseline, tail estimation with Wilson
intervals, and the 2-lift spectrum-split check.

The baseline philosophy: universality statements are tested against a
same-N GOE/GUE Monte Carlo sample rather than tabulated limiting quantiles,
which removes finite-size-correction confounds.  Rejection level defaults
to 0.01 with a Bonferroni split across the k tested coordinates.  A
Gaussian spec whose every support block is a GOE/GUE (possibly with a
rank-one coordinate spike) or a uniform Wishart in its own normalization
is sampled from its tridiagonal model, whose top k eigenvalues come from
Sturm multisection, so each replica costs O(N) memory, not a dense N x N
draw and eigensolve: the GOE/GUE and Wishart baselines and the
block-diagonal control.  Any other draw is dense and solved whole.

Limitation: the same-size baseline removes GOE's own finite-size
corrections, not those of the test profile.  With real entries a square
profile S moves the edge by about Delta(S)/N, where
Delta(S) = sum_{j>=2} lambda_j / (1 - lambda_j) over the eigenvalues of S;
GOE has Delta = 0.  At N = 300 and 1000 replicas a profile with Delta = 2
is told apart from GOE by this shift alone, so such a profile needs a
baseline with the same Delta (acceptance criterion 8(c)).
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

from irmlab import ensembles


class EdgeStatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def top_eigenvalues(spec, k, replicas):
    """k largest eigenvalues per replica, descending, shape (replicas, k).

    A spec with a tridiagonal model (ensembles.has_tridiagonal_model) draws
    it and finds the top k by Sturm multisection.  Any other spec draws
    dense matrices and solves each with one eigvalsh.
    """
    if ensembles.has_tridiagonal_model(spec):
        return tridiagonal_top(*ensembles.sample_tridiagonal(spec, replicas), k)
    out = np.empty((replicas, k))
    for r in range(replicas):
        out[r] = np.linalg.eigvalsh(ensembles.sample(spec, replica=r))[::-1][:k]
    return out


STURM_POINTS = 15   # interior points per bracket and pass: a pass cuts it 16-fold


def tridiagonal_top(a, b, k):
    """k largest eigenvalues, descending, of each real symmetric tridiagonal
    matrix with diagonal a[r] and off-diagonal b[r]; shapes (R, n), (R, n-1)
    give (R, k).

    Sturm multisection, vectorized over replicas and targets: each bracket
    starts at the Gershgorin interval, and each pass counts the eigenvalues
    below STURM_POINTS points per bracket in one sweep of the LDL^T pivot
    recurrence, then keeps the sub-interval holding its target.  Passes end
    when one moves no bracket, each then an ulp or two wide.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    R, n = a.shape
    if b.shape != (R, n - 1) or not 1 <= k <= n:
        raise EdgeStatError(f"need diagonals (R, n), (R, n-1) and 1 <= k <= n, "
                            f"not {a.shape}, {b.shape} and k = {k}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise EdgeStatError("tridiagonal entries must be finite")  # a NaN bracket never settles
    radius = np.zeros_like(a)
    radius[:, :-1] += np.abs(b)
    radius[:, 1:] += np.abs(b)
    lo, hi = (a - radius).min(axis=1), (a + radius).max(axis=1)
    pad = 2 * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi)) + np.finfo(float).tiny
    lo = np.repeat((lo - pad)[:, None], k, axis=1)
    hi = np.repeat((hi + pad)[:, None], k, axis=1)
    below = n - 1 - np.arange(k)[:, None]        # target j: count(x) <= n-1-j iff x <= lambda_j
    t = np.arange(1, STURM_POINTS + 1) / (STURM_POINTS + 1)
    diag = np.ascontiguousarray(a.T)[:, :, None]
    # a zero off-diagonal would make 0/0 at a zero pivot; tiny keeps it +-inf
    offsq = np.maximum(np.ascontiguousarray(b.T) ** 2, np.finfo(float).tiny)[:, :, None]
    while True:
        x = lo[..., None] + (hi - lo)[..., None] * t
        counts = _sturm_counts(diag, offsq, x.reshape(R, -1)).reshape(x.shape)
        m = np.sum(counts <= below, axis=-1)[..., None]
        grid = np.concatenate([lo[..., None], x, hi[..., None]], axis=-1)
        new_lo = np.take_along_axis(grid, m, axis=-1)[..., 0]
        new_hi = np.take_along_axis(grid, m + 1, axis=-1)[..., 0]
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def _sturm_counts(diag, offsq, x):
    """Eigenvalues below x[r, j] of tridiagonal matrix r: the number of
    negative pivots d_i = a_i - x - b_(i-1)^2 / d_(i-1).  Counting sign bits
    keeps a zero pivot right: +0 gives a next pivot of -inf, -0 one of +inf,
    as in the limits from either side."""
    d = diag[0] - x
    count = np.signbit(d).astype(np.int32)
    q = np.empty_like(d)
    neg = np.empty(d.shape, dtype=bool)
    with np.errstate(divide="ignore", over="ignore"):
        for i in range(1, len(diag)):
            np.divide(offsq[i - 1], d, out=q)
            np.subtract(diag[i], x, out=d)
            d -= q
            count += np.signbit(d, out=neg)
    return count


def rescale_edge(samples, N, model="wigner", alpha=1.0):
    """N^(2/3) (lambda - edge); edge = 2 for Wigner-type, (1 + sqrt(alpha))^2
    for Wishart.  Affine and order preserving."""
    if model == "wigner":
        loc = 2.0
    elif model == "wishart":
        loc = (1.0 + math.sqrt(alpha)) ** 2
    else:
        raise EdgeStatError(f"unknown model {model!r}")
    return N ** (2.0 / 3.0) * (np.asarray(samples) - loc)


# ---------------------------------------------------------------------------
# two-sample KS with the exact equal-size tail
# ---------------------------------------------------------------------------

def ks_2sample(a, b):
    """(statistic, p-value) of the two-sample KS test on two samples of one
    size n.

    The statistic is k/n, where k is the largest gap between the two
    samples' counts at or below a pooled value; tied values count together.
    The p-value is the exact null tail for continuous laws (Gnedenko-Korolyuk),
    P(D >= k/n) = 2 sum_{j>=1} (-1)^(j-1) C(2n, n - jk) / C(2n, n),
    summed in integers and divided once, so it is correctly rounded.  With
    ties it is conservative.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n = len(a)
    if n == 0 or len(b) != n:
        raise EdgeStatError(f"KS needs two non-empty samples of one size, "
                            f"not {len(a)} and {len(b)}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise EdgeStatError("KS samples must be finite")
    grid = np.concatenate([a, b])
    gaps = np.searchsorted(a, grid, side="right") - np.searchsorted(b, grid, side="right")
    k = int(np.max(np.abs(gaps)))
    if k == 0:
        return 0.0, 1.0
    tail = sum((-1) ** (j - 1) * math.comb(2 * n, n - j * k) for j in range(1, n // k + 1))
    return k / n, 2 * tail / math.comb(2 * n, n)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class EdgeReport:
    test_digest: str       # EnsembleSpec.digest() of the test spec as run
    baseline_digest: str   # ... and of the baseline spec as run
    replicas: int
    k: int
    level: float
    ks_stats: list
    p_values: list
    reject: list
    rejected: bool
    gap_p_value: float
    rescaled_test: np.ndarray      # (replicas, k) rescaled top-k of the test draws
    rescaled_baseline: np.ndarray  # ... and of the baseline draws

    def to_json(self):
        """Every field but the raw rescaled samples."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                if not f.name.startswith("rescaled_")}


def universality_test(test_spec, baseline_spec, k=2, replicas=1000, seed=0, level=0.01):
    """Per-coordinate two-sample KS between rescaled top-k eigenvalues.

    Bonferroni across the k coordinates at the given level; an extra KS on
    the gap lambda_1 - lambda_2 is reported as a diagnostic (not gated).
    The baseline must share the test's model and profile shape, since both
    are rescaled at the test's edge.
    """
    if replicas < 100:
        raise EdgeStatError("refusing to run with fewer than 100 replicas (power)")
    n = test_spec.profile.n_rows
    if n < 2 or not (isinstance(k, numbers.Integral) and 1 <= k <= n):
        raise EdgeStatError(f"need 1 <= k <= n and n >= 2 for the gap, where n = {n} "
                            f"is the matrix size, not k = {k}")
    if not 0 < level < 1:
        raise EdgeStatError(f"level must lie in (0, 1), not {level}")
    shapes = [(s.model, s.profile.n_rows, s.profile.n_cols) for s in (test_spec, baseline_spec)]
    if shapes[0] != shapes[1]:
        raise EdgeStatError(f"test {shapes[0]} and baseline {shapes[1]} must share "
                            "the model and the profile shape")
    t_spec = dataclasses.replace(test_spec, seed=seed)
    b_spec = dataclasses.replace(baseline_spec, seed=seed + 7919)
    alpha = t_spec.profile.alpha if t_spec.model == "wishart" else 1.0
    lam_t = top_eigenvalues(t_spec, max(k, 2), replicas)
    lam_b = top_eigenvalues(b_spec, max(k, 2), replicas)
    rt = rescale_edge(lam_t, t_spec.N, model=t_spec.model, alpha=alpha)
    rb = rescale_edge(lam_b, t_spec.N, model=t_spec.model, alpha=alpha)
    stats, pvals, rejects = [], [], []
    for i in range(k):
        d, p = ks_2sample(rt[:, i], rb[:, i])
        stats.append(d)
        pvals.append(p)
        rejects.append(bool(p < level / k))
    _, gp = ks_2sample(rt[:, 0] - rt[:, 1], rb[:, 0] - rb[:, 1])
    return EdgeReport(
        test_digest=t_spec.digest(), baseline_digest=b_spec.digest(),
        replicas=replicas, k=k, level=level,
        ks_stats=stats, p_values=pvals, reject=rejects, rejected=any(rejects),
        gap_p_value=gp, rescaled_test=rt[:, :k], rescaled_baseline=rb[:, :k],
    )


def bbp_test(profile, tau_list, replicas=1000, seed=0):
    """Spiked real profile ensemble against the deformed GOE baseline with the
    same spike parameters; tests the top q+1 coordinates at level 0.01."""
    for t in tau_list:
        if abs(t) > 5:
            raise EdgeStatError("spike parameters limited to |tau| <= 5 at desk scale")
    N = profile.n_rows
    deform = ensembles.Deformation(taus=tuple(tau_list)) if tau_list else None
    test = ensembles.EnsembleSpec(profile=profile, deformation=deform)
    base = ensembles.goe_reference_spec(N, deformation=deform)
    k = len(tau_list) + 1 if tau_list else 2
    return universality_test(test, base, k=k, replicas=replicas, seed=seed)


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------

def wilson_interval(successes, n):
    """95% Wilson score interval for a binomial proportion."""
    z = 1.959963984540054
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return (lo, hi)


def tail_estimate(spec, x_grid, replicas=2000, seed=0):
    """Empirical survival of ||X/2||_op past 1 + x N^(-2/3) on the x grid.

    Survival values are nested counts of the same replicas, hence exactly
    monotone in x; Wilson 95% intervals quantify MC error.
    """
    x_grid = sorted(float(x) for x in x_grid)
    if any(x <= 0 for x in x_grid):
        raise EdgeStatError("x grid must be positive")
    if replicas < 1:
        raise EdgeStatError("tail_estimate needs replicas >= 1")
    run = dataclasses.replace(spec, seed=seed)
    N = run.profile.n_rows
    norms = np.empty(replicas)
    for r in range(replicas):
        lam = np.linalg.eigvalsh(ensembles.sample(run, replica=r))
        norms[r] = max(abs(lam[-1]), abs(lam[0])) / 2.0
    rows = []
    for x in x_grid:
        thr = 1.0 + x * N ** (-2.0 / 3.0)
        hits = int(np.sum(norms > thr))
        lo, hi = wilson_interval(hits, replicas)
        rows.append({"x": x, "survival": hits / replicas, "hits": hits,
                     "wilson_low": lo, "wilson_high": hi})
    return {"replicas": replicas, "N": N, "rows": rows}


def tails_compatible(table_a, table_b):
    """True when the Wilson intervals overlap at every grid point."""
    for ra, rb in zip(table_a["rows"], table_b["rows"]):
        if ra["wilson_low"] > rb["wilson_high"] or rb["wilson_low"] > ra["wilson_high"]:
            return False
    return True


# ---------------------------------------------------------------------------
# 2-lift spectrum split
# ---------------------------------------------------------------------------

def lift_adjacency(G, signs):
    """2N x 2N adjacency of the 2-lift determined by edge signs:
    [[A+, A-], [A-, A+]] with A+ / A- the positively / negatively signed parts."""
    G = np.asarray(G, dtype=float)
    s = np.asarray(signs, dtype=float)
    if G.shape != s.shape:
        raise EdgeStatError("sign matrix must match the adjacency shape")
    if np.any((G == 0) & (s != 0) & (np.abs(s) != 1)):
        raise EdgeStatError("signs supported off the edge set")
    signed = np.where(G > 0, s, 0.0)
    if np.max(np.abs(signed - signed.T)) > 0:
        raise EdgeStatError("sign matrix must be symmetric on edges")
    if np.any((G > 0) & (signed == 0)):
        raise EdgeStatError("every edge needs a sign")
    Ap = np.where(signed > 0, G, 0.0)
    Am = np.where(signed < 0, G, 0.0)
    return np.block([[Ap, Am], [Am, Ap]])


def lift_spectrum_check(G, signs, tol=1e-8):
    """Multiset equality Spec(lift) = Spec(G) u Spec(signs o G), plus the
    exact trace identity."""
    G = np.asarray(G, dtype=float)
    signed = np.where(G > 0, np.asarray(signs, dtype=float), 0.0) * G
    lift = lift_adjacency(G, signs)
    lam_lift = np.sort(np.linalg.eigvalsh(lift))
    lam_union = np.sort(np.concatenate([np.linalg.eigvalsh(G), np.linalg.eigvalsh(signed)]))
    defect = float(np.max(np.abs(lam_lift - lam_union)))
    trace_ok = abs(np.trace(lift) - 2 * np.trace(G)) == 0.0
    return {"defect": defect, "pass": bool(defect <= tol and trace_ok),
            "trace_identity": bool(trace_ok)}


def random_edge_signs(G, seed=0):
    """Symmetric +-1 matrix on the edges of G."""
    G = np.asarray(G)
    rng = ensembles.rng_for(seed, 0, 77)
    S = np.where(rng.random(G.shape) < 0.5, 1.0, -1.0)
    S = np.triu(S, 1)
    S = S + S.T
    return np.where(G > 0, S, 0.0)
