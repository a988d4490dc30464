"""Samplers for the matrix ensembles under study.

Second-moment normalization for the Wigner entries:
  real case     E W_ii^2 = 2,  E W_ij^2 = 1
  complex case  E W_ii^2 = 1 (real diagonal),  E |W_ij|^2 = 1,  E W_ij^2 = 0.
The assembled matrix is X = Sigma o W + A (Hadamard product with the square
root of the variance profile, plus a diagonal finite-rank deformation), or for
the Wishart model X = H H^* from an M x N bipartite profile.

Every sampler is a pure function of (spec, seed, replica): streams derive
from numpy SeedSequence(entropy=seed, spawn_key=(replica, block)), so replica
r is identical no matter how the replicas are scheduled.  A dense Wigner draw
takes only the entries it keeps.  Block 0 gives the K = N(N-1)/2 strict-upper
entries in row-major np.triu_indices(N, 1) order (at beta 2 the K real parts,
then the K imaginary parts), then the N diagonal entries; the mask of a
theta-sparsified Wigner draw takes block 1 in the same order.  A Wishart draw
takes all M x N entries of H, row-major, from block 0 and its mask from
block 1.

A Gaussian spec whose every support block is a GOE/GUE or a uniform Wishart
in its own normalization also has an O(N) tridiagonal model with the same
eigenvalue law (has_tridiagonal_model, sample_tridiagonal).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import sys
from functools import cached_property, lru_cache

import numpy as np

from irmlab.profiles import VarianceProfile, uniform_profile


class EnsembleError(ValueError):
    pass


def rng_for(seed, replica=0, block=0):
    """Counter-style independent stream for a (seed, replica, block) triple."""
    ss = np.random.SeedSequence(entropy=int(seed) & (2 ** 64 - 1),
                                spawn_key=(int(replica), int(block)))
    return np.random.default_rng(ss)


def _require(ok, message):
    if not ok:
        raise EnsembleError(message)


def _closed(doc, keys, what):
    """Reject a JSON document that is not an object or has keys outside keys."""
    _require(isinstance(doc, dict), f"{what} must be a JSON object")
    unknown = set(doc) - set(keys)
    _require(not unknown, f"unknown {what} keys: {sorted(unknown)}")


# ---------------------------------------------------------------------------
# deformations
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Deformation:
    """Finite-rank coordinate perturbation with spike eigenvalues
    a_j = 1 + tau_j N^(-1/3) on the first coordinates."""
    taus: tuple = ()

    def __post_init__(self):
        # finite as a float: the bound refuses NaN, infinities and integers like 10**400
        _require(isinstance(self.taus, (list, tuple)) and all(
            isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max for v in self.taus),
            f"deformation taus must be finite real numbers, not {self.taus!r}")
        object.__setattr__(self, "taus", tuple(self.taus))

    @property
    def rank(self):
        return len(self.taus)

    def eigenvalues(self, N):
        return np.array([1.0 + t * N ** (-1.0 / 3.0) for t in self.taus], dtype=float)

    def to_json(self):
        return {"taus": list(self.taus)}

    @classmethod
    def from_json(cls, d):
        if d is None:
            return None
        _closed(d, ("taus",), "deformation")
        return cls(**d)


def deformation_matrix(deformation, N):
    """N x N matrix A = diag(a_1, ..., a_r, 0, ..., 0) realizing the deformation."""
    A = np.zeros((N, N))
    A[np.diag_indices(deformation.rank)] = deformation.eigenvalues(N)
    return A


# ---------------------------------------------------------------------------
# entry samplers
# ---------------------------------------------------------------------------

def _gaussian(rng, shape, beta):
    """Standard real (beta 1) or complex (beta 2, E|z|^2 = 1, E z^2 = 0) Gaussians."""
    if beta == 1:
        return rng.standard_normal(shape)
    if beta == 2:
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    raise EnsembleError("beta must be 1 or 2")


def _pairs(N):
    """K = N(N-1)/2, the number of strict-upper entries of an N x N matrix."""
    return N * (N - 1) // 2


@lru_cache(maxsize=8)
def _strict_upper(N):
    """Read-only boolean mask of the strict upper triangle of N x N."""
    upper = np.triu(np.ones((N, N), dtype=bool), 1)
    upper.setflags(write=False)
    return upper


def _hermitian(off, diag):
    """Hermitian N x N matrix from the K = N(N-1)/2 strict-upper entries off,
    in row-major np.triu_indices(N, 1) order, and the N diagonal entries
    diag: the layout every dense Wigner stream (block 0) and every symmetric
    sparsity mask (block 1) is drawn in.  Boolean-mask assignment fills in
    row-major order, so W[upper] = off places off[k] at the k-th index pair
    and W.T[upper] = conj(off) mirrors it bit for bit."""
    N = len(diag)
    upper = _strict_upper(N)
    W = np.empty((N, N), dtype=np.result_type(off, diag))
    W[upper] = off
    W.T[upper] = off.conj()
    np.fill_diagonal(W, diag)
    return W


def sample_wigner(N, beta=1, seed=0, replica=0):
    """GOE (beta=1) / GUE (beta=2) matrix in the stated normalization."""
    rng = rng_for(seed, replica, 0)
    off = _gaussian(rng, _pairs(N), beta)
    return _hermitian(off, rng.standard_normal(N) * math.sqrt(2.0 / beta))


def sample_rademacher(N, seed=0, replica=0):
    """Symmetric sign matrix with the Wigner normalization (diag +-sqrt(2))."""
    rng = rng_for(seed, replica, 0)
    S = np.where(rng.random(_pairs(N)) < 0.5, 1.0, -1.0)
    return _hermitian(S, np.where(rng.random(N) < 0.5, 1.0, -1.0) * math.sqrt(2.0))


def _check_theta(theta):
    _require(1.0 <= theta < math.inf, "theta must be finite and >= 1")


def _sparsify(W, theta, seed, replica, mirror):
    """sqrt(theta) Bern(1/theta) o W, the mask drawn from stream block 1;
    mirror draws a symmetric mask in the layout of _hermitian (strict upper
    triangle, then diagonal), otherwise one entry per entry of W."""
    _check_theta(theta)
    rng, p = rng_for(seed, replica, 1), 1.0 / theta
    if mirror:
        N = len(W)
        keep = _hermitian(rng.random(_pairs(N)) < p, rng.random(N) < p)
    else:
        keep = rng.random(W.shape) < p
    return math.sqrt(theta) * keep * W


def sample_theta_goe(N, theta, seed=0, replica=0):
    """Bernoulli-sparsified GOE: entries sqrt(theta) Bern(1/theta) x Gaussian."""
    return _sparsify(sample_wigner(N, 1, seed, replica), theta, seed, replica, mirror=True)


def sample_theta_rademacher(N, theta, seed=0, replica=0):
    """Sparsified sign matrix sqrt(theta) Bern(1/theta) x Rademacher: the
    weighted signed Erdos-Renyi reading of the sparse model."""
    return _sparsify(sample_rademacher(N, seed, replica), theta, seed, replica, mirror=True)


def sample_heavy(N, df, seed=0, replica=0):
    """Symmetric Student-t entries scaled to the Wigner second moments."""
    _require(df > 2, "need df > 2 for finite variance")
    rng = rng_for(seed, replica, 0)
    scale = math.sqrt((df - 2.0) / df)
    T = rng.standard_t(df, size=_pairs(N)) * scale
    return _hermitian(T, rng.standard_t(df, size=N) * scale * math.sqrt(2.0))


def truncate_heavy(W, N, zeta):
    """Entrywise truncation W * 1(|W| < N^(zeta/2)); returns (W<, fraction cut)."""
    _require(0.0 < zeta < 1.0 / 3.0, "zeta must lie in (0, 1/3)")
    thr = float(N) ** (zeta / 2.0)
    keep = np.abs(W) < thr
    frac = 1.0 - float(np.mean(keep))
    return W * keep, frac


def assemble(profile, W, deformation_mat=None):
    """X = Sigma o W + A.  Superposition holds exactly: assemble(P,W,A) -
    assemble(P,W,0) = A."""
    S = profile.sqrt_variances
    _require(S.shape == W.shape, "profile and W dimensions disagree")
    X = S * W
    if deformation_mat is not None:
        _require(deformation_mat.shape == X.shape, "deformation dimension mismatch")
        X = X + deformation_mat
    return X


def _wishart_entries(spec, replica):
    return _gaussian(rng_for(spec.seed, replica, 0),
                     (spec.profile.n_rows, spec.profile.n_cols), spec.beta)


# ---------------------------------------------------------------------------
# the ensemble table, the one place that knows the ensembles: (model, entry
# law) -> (betas the law really draws, draw: (spec, replica) -> W, check:
# spec -> None, raising on parameters outside the law's domain)
# ---------------------------------------------------------------------------
LAWS = {
    ("wigner", "gaussian"): ((1, 2), lambda s, r: sample_wigner(s.N, s.beta, s.seed, r), None),
    ("wigner", "rademacher"): ((1,), lambda s, r: sample_rademacher(s.N, s.seed, r), None),
    ("wigner", "theta_goe"): ((1,), lambda s, r: sample_theta_goe(s.N, s.theta, s.seed, r),
                              lambda s: _check_theta(s.theta)),
    ("wigner", "theta_rademacher"): (
        (1,), lambda s, r: sample_theta_rademacher(s.N, s.theta, s.seed, r),
        lambda s: _check_theta(s.theta)),
    ("wigner", "heavy_tailed"): (
        (1,), lambda s, r: truncate_heavy(sample_heavy(s.N, s.tail_df, s.seed, r), s.N, s.zeta)[0],
        lambda s: _require(s.tail_df > 2 and 0 < s.zeta < 1 / 3,
                           "heavy_tailed needs tail_df > 2 and zeta in (0, 1/3)")),
    ("wishart", "gaussian"): ((1, 2), _wishart_entries, None),
    ("wishart", "theta_goe"): (
        (1, 2), lambda s, r: _sparsify(_wishart_entries(s, r), s.theta, s.seed, r, mirror=False),
        lambda s: _check_theta(s.theta)),
}


@dataclasses.dataclass(frozen=True)
class EnsembleSpec:
    beta: int = 1
    entry_law: str = "gaussian"
    theta: float = 1.0
    tail_df: float = 9.0
    zeta: float = 0.25
    profile: VarianceProfile | None = None
    deformation: Deformation | None = None
    model: str = "wigner"
    seed: int = 0

    def __post_init__(self):
        """Accept only numbers of the declared int/float field types, a row of
        LAWS, in-domain parameters, a profile of the model's kind and a
        deformation of rank at most N on a Wigner spec only."""
        for f in dataclasses.fields(self):
            kind = {"int": numbers.Integral, "float": numbers.Real}.get(f.type)
            value = getattr(self, f.name)
            # a float field refuses an integer past the float range, which a law
            # would overflow converting it
            _require(kind is None or isinstance(value, kind) and not isinstance(value, bool)
                     and (f.type == "int" or isinstance(value, float)
                          or abs(value) <= sys.float_info.max),
                     f"{f.name} must be of type {f.type}, not {value!r}")
        key = (self.model, self.entry_law)
        _require(all(isinstance(k, str) for k in key) and key in LAWS,
                 f"no ensemble {key}; known: {sorted(LAWS)}")
        betas, _, check = LAWS[key]
        _require(self.beta in betas, f"{key} draws beta in {betas}, not {self.beta!r}")
        if check:
            check(self)
        kind = "square" if self.model == "wigner" else "bipartite"
        _require(isinstance(self.profile, VarianceProfile) and self.profile.kind == kind,
                 f"a {self.model} spec needs a {kind} profile")
        if self.deformation is not None:
            _require(self.model == "wigner", "a wishart spec takes no deformation")
            _require(self.deformation.rank <= self.N, "deformation rank exceeds N")

    @property
    def N(self):
        return self.profile.n_cols

    @cached_property
    def deformation_matrix(self):
        """The spec's N x N deformation A, read-only and built on first use,
        None without one."""
        d = self.deformation
        if d is None or d.rank == 0:
            return None
        A = deformation_matrix(d, self.N)
        A.setflags(write=False)
        return A

    def to_json(self, data=True):
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return dict(d, profile=self.profile.to_json(data),
                    deformation=self.deformation.to_json() if self.deformation else None)

    def digest(self):
        """sha256 hex of the canonical JSON of the spec without the profile's
        data (sort_keys), followed by that array's bytes as C-contiguous
        little-endian float64: the dense variances or the circulant row."""
        head = json.dumps(self.to_json(data=False), sort_keys=True).encode()
        body = np.ascontiguousarray(self.profile.data, dtype="<f8").tobytes()
        return hashlib.sha256(head + body).hexdigest()

    @classmethod
    def from_json(cls, d):
        _closed(d, [f.name for f in dataclasses.fields(cls)], "ensemble spec")
        kw = dict(d, deformation=Deformation.from_json(d.get("deformation")))
        kw["profile"] = VarianceProfile.from_json(d["profile"]) if d.get("profile") else None
        return cls(**kw)


def sample(spec, replica=0):
    """Draw one realization of the ensemble described by spec: X = Sigma o W + A
    for Wigner, X = H H^* with H = Sigma o W for Wishart."""
    X = assemble(spec.profile, LAWS[spec.model, spec.entry_law][1](spec, replica),
                 spec.deformation_matrix)
    if spec.model == "wigner":
        return X
    X = X @ X.conj().T
    return 0.5 * (X + X.conj().T)


def support_blocks(spec):
    """Index arrays of the connected components of the graph on which a draw
    of spec can be nonzero: the support of the profile, and for Wishart
    X = H H^* rows that share a column.  The deformation is diagonal, so it
    joins no two blocks."""
    S = spec.profile.variances != 0
    G = S if spec.model == "wigner" else S @ S.T
    blocks, seen = [], np.zeros(len(G), dtype=bool)
    for start in range(len(G)):
        if seen[start]:
            continue
        comp = np.zeros(len(G), dtype=bool)
        comp[start] = True
        front = comp
        while front.any():
            front = G[front].any(axis=0) & ~comp
            comp |= front
        seen |= comp
        blocks.append(np.flatnonzero(comp))
    return blocks


def _model_blocks(spec):
    """(rows, n) for each support block of a spec with a tridiagonal model,
    else None.  Wigner: Gaussian entries, a deformation of rank <= 1, and each
    block's n x n sub-profile exactly 1/n (a GOE/GUE of size n).  Wishart:
    Gaussian entries and each block of rows exactly 1/n on the n columns it
    reaches, rows <= n."""
    rank = 0 if spec.deformation is None else spec.deformation.rank
    if spec.entry_law != "gaussian" or rank > 1:
        return None
    V = spec.profile.variances
    sizes = []
    for rows in support_blocks(spec):
        cols = rows if spec.model == "wigner" else np.flatnonzero(V[rows].any(axis=0))
        m, n = len(rows), len(cols)
        if m > n or not np.all(V[np.ix_(rows, cols)] == 1.0 / n):
            return None
        sizes.append((m, n))
    return sizes


def has_tridiagonal_model(spec):
    """True when the eigenvalues of spec have the law of a tridiagonal model
    (sample_tridiagonal): a Gaussian spec whose every support block is a
    GOE/GUE or a uniform Wishart in its own normalization."""
    return _model_blocks(spec) is not None


def sample_tridiagonal(spec, replicas):
    """Diagonal a and off-diagonal b, shapes (replicas, n) and (replicas, n-1)
    for n = profile.n_rows, of the Dumitriu-Edelman tridiagonal model of each
    support block (J. Math. Phys. 43, 2002), b = 0 at each cut between blocks.

    Wigner, the beta-Hermite model of a block of size n: a ~ N(0, 2/beta) and
    b_i ~ chi_{beta i}/sqrt(beta) for i = n-1, ..., 1, both over sqrt(n).  The
    Householder tridiagonalization of a dense draw has this law and fixes the
    first coordinate, so a rank-one coordinate spike adds its eigenvalue to
    a[0] (Bloemendal-Virag, PTRF 2013).  Wishart, the beta-Laguerre model of
    an m x n block: T = B B^T / n for the lower bidiagonal B with diagonal
    d_j ~ chi_{beta j}/sqrt(beta), j = n, ..., n-m+1, and subdiagonal
    s_i ~ chi_{beta i}/sqrt(beta), i = m-1, ..., 1.

    Replica r draws from stream (seed, r, 2), a block the dense samplers do
    not use: first the diagonal of every block in one call (normals, or the
    Laguerre chi-squares), then the off-diagonal chi-squares in one call."""
    blocks = _model_blocks(spec)
    _require(blocks is not None, "the tridiagonal model needs a Gaussian spec with a "
                                 "constant profile on every support block")
    beta, wigner = spec.beta, spec.model == "wigner"
    norm = np.repeat([float(n) for _, n in blocks], [m for m, _ in blocks])
    inner = np.ones(len(norm) - 1, dtype=bool)
    inner[np.cumsum([m for m, _ in blocks])[:-1] - 1] = False
    diag_df = np.concatenate([beta * np.arange(n, n - m, -1) for m, n in blocks])
    off_df = np.concatenate([beta * np.arange(m - 1, 0, -1) for m, _ in blocks])
    a, b = np.empty((replicas, len(norm))), np.zeros((replicas, len(norm) - 1))
    for r in range(replicas):
        rng = rng_for(spec.seed, r, 2)
        if wigner:
            a[r] = rng.standard_normal(len(norm)) * math.sqrt(2.0 / beta)
        else:
            a[r] = np.sqrt(rng.chisquare(diag_df) / beta)
        b[r, inner] = np.sqrt(rng.chisquare(off_df) / beta)
    if not wigner:
        d, s = a, b
        a = d * d
        a[:, 1:] += s * s
        return a / norm, s * d[:, :-1] / norm[:-1]
    a /= np.sqrt(norm)
    b /= np.sqrt(norm[:-1])
    if spec.deformation is not None and spec.deformation.rank:
        a[:, 0] += spec.deformation.eigenvalues(spec.N)[0]
    return a, b


def goe_reference_spec(N, beta=1, deformation=None):
    """Same-size GOE/GUE baseline (uniform profile, Gaussian entries, seed 0)."""
    return EnsembleSpec(beta=beta, entry_law="gaussian",
                        profile=uniform_profile(N), deformation=deformation)


# ---------------------------------------------------------------------------
# exact Gaussian mixed moments  I(a, b) = E[(g^2 - 1)^a g^(2b)]
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def gaussian_mixed_moment(a, b):
    """Exact integer I(a,b) from the two-term recursions.

    I(a,0) = 2(a-1) (I(a-1,0) + I(a-2,0));  I(a,b) = 2a I(a-1,b) + (2b-1) I(a,b-1);
    I(0,0) = 1, I(1,0) = 0, I(0,b) = (2b-1)!!.
    """
    if a < 0 or b < 0:
        raise ValueError("a, b must be nonnegative")
    if b == 0:
        if a == 0:
            return 1
        if a == 1:
            return 0
        return 2 * (a - 1) * (gaussian_mixed_moment(a - 1, 0) + gaussian_mixed_moment(a - 2, 0))
    if a == 0:
        return double_factorial(2 * b - 1)
    return 2 * a * gaussian_mixed_moment(a - 1, b) + (2 * b - 1) * gaussian_mixed_moment(a, b - 1)


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def gaussian_mixed_moment_binomial(a, b):
    """Independent evaluation by binomial expansion of (g^2-1)^a against
    raw Gaussian moments E g^(2k) = (2k-1)!!."""
    total = 0
    for k in range(a + 1):
        total += (-1) ** (a - k) * math.comb(a, k) * double_factorial(2 * (k + b) - 1)
    return total


def moment_domination_holds(a, b):
    """Exact check of E g^(2a+2b) <= 2^a I(a,b) on its stated domain."""
    if not ((b == 0 and a >= 2) or (b >= 1 and a >= 0)):
        raise ValueError("outside the stated domain")
    return double_factorial(2 * (a + b) - 1) <= 2 ** a * gaussian_mixed_moment(a, b)
