"""Samplers for the matrix ensembles under study.

Second-moment normalization for the Wigner entries:
  real case     E W_ii^2 = 2,  E W_ij^2 = 1
  complex case  E W_ii^2 = 1 (real diagonal),  E |W_ij|^2 = 1,  E W_ij^2 = 0.
The assembled matrix is X = Sigma o W + A (Hadamard product with the square
root of the variance profile, plus a finite-rank deformation), or for the
Wishart model X = (H + A)(H + A)^* from an M x N bipartite profile.

Every sampler is a pure function of (spec, seed, replica): streams derive
from numpy SeedSequence(entropy=seed, spawn_key=(replica, block)), so replica
r is identical no matter how the replicas are scheduled.
"""

from __future__ import annotations

import dataclasses
import json
import math
from functools import lru_cache

import numpy as np

from irmlab.profiles import VarianceProfile, uniform_profile


class EnsembleError(ValueError):
    pass


def rng_for(seed, replica=0, block=0):
    """Counter-style independent stream for a (seed, replica, block) triple."""
    ss = np.random.SeedSequence(entropy=int(seed) & (2 ** 64 - 1),
                                spawn_key=(int(replica), int(block)))
    return np.random.default_rng(ss)


# ---------------------------------------------------------------------------
# deformations
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Deformation:
    """Finite-rank perturbation with spike eigenvalues a_j = edge + tau_j N^(-1/3).

    taus hold the spike parameters (critical eigenvalues), bulk holds fixed
    sub-critical eigenvalues.  basis 'coordinate' puts the eigenvectors on
    the first coordinates; 'random' draws a Haar orthogonal/unitary frame.
    """
    taus: tuple = ()
    bulk: tuple = ()
    basis: str = "coordinate"

    @property
    def rank(self):
        return len(self.taus) + len(self.bulk)

    def eigenvalues(self, N, edge=1.0):
        crit = [edge + t * N ** (-1.0 / 3.0) for t in self.taus]
        return np.array(list(crit) + list(self.bulk), dtype=float)

    def to_json(self):
        return {"taus": list(self.taus), "bulk": list(self.bulk), "basis": self.basis}

    @classmethod
    def from_json(cls, d):
        if d is None:
            return None
        return cls(taus=tuple(d.get("taus", ())), bulk=tuple(d.get("bulk", ())),
                   basis=d.get("basis", "coordinate"))


def _haar_frame(rng, N, r, complex_entries):
    G = rng.standard_normal((N, r))
    if complex_entries:
        G = G + 1j * rng.standard_normal((N, r))
    Q, R = np.linalg.qr(G)
    ph = np.diagonal(R).copy()
    ph = ph / np.abs(ph)
    return Q * ph.conj()


def deformation_matrix(deformation, N, beta=1, seed=0, edge=1.0):
    """Hermitian N x N matrix A = Q Lambda Q^* realizing the deformation."""
    if deformation is None or deformation.rank == 0:
        return None
    vals = deformation.eigenvalues(N, edge=edge)
    r = len(vals)
    if deformation.basis == "coordinate":
        Q = np.eye(N, dtype=complex if beta == 2 else float)[:, :r]
    else:
        Q = _haar_frame(rng_for(seed, 0, 911), N, r, beta == 2)
    A = (Q * vals) @ Q.conj().T
    return 0.5 * (A + A.conj().T)


def wishart_deformation_matrix(deformation, M, N, beta=1, seed=0):
    """M x N deformation A = Q1 Lambda Q2^* with spikes at sqrt(alpha) + tau N^(-1/3)."""
    if deformation is None or deformation.rank == 0:
        return None
    alpha = M / N
    vals = deformation.eigenvalues(N, edge=math.sqrt(alpha))
    r = len(vals)
    if r > M:
        raise EnsembleError("deformation rank exceeds M")
    if deformation.basis == "coordinate":
        Q1 = np.eye(M, dtype=complex if beta == 2 else float)[:, :r]
        Q2 = np.eye(N, dtype=complex if beta == 2 else float)[:, :r]
    else:
        Q1 = _haar_frame(rng_for(seed, 0, 913), M, r, beta == 2)
        Q2 = _haar_frame(rng_for(seed, 0, 917), N, r, beta == 2)
    A = (Q1 * vals) @ Q2.conj().T
    norm = np.linalg.norm(A, 2)
    tau_max = max(deformation.taus, default=0.0)
    cap = math.sqrt(alpha) + max(tau_max, 0.0) * N ** (-1.0 / 3.0) + 1e-9
    if norm > cap:
        raise EnsembleError(f"deformation norm {norm:.6g} exceeds sqrt(alpha)+tau N^(-1/3)")
    return A


# ---------------------------------------------------------------------------
# entry samplers
# ---------------------------------------------------------------------------

def sample_wigner(N, beta=1, seed=0, replica=0):
    """GOE (beta=1) / GUE (beta=2) matrix in the stated normalization."""
    rng = rng_for(seed, replica, 0)
    if beta == 1:
        G = rng.standard_normal((N, N))
        W = np.triu(G, 1)
        W = W + W.T
        W[np.diag_indices(N)] = rng.standard_normal(N) * math.sqrt(2.0)
        return W
    if beta == 2:
        Gr = rng.standard_normal((N, N))
        Gi = rng.standard_normal((N, N))
        Z = np.triu((Gr + 1j * Gi) / math.sqrt(2.0), 1)
        W = Z + Z.conj().T
        W[np.diag_indices(N)] = rng.standard_normal(N)
        return W
    raise EnsembleError("beta must be 1 or 2")


def sample_rademacher(N, beta=1, seed=0, replica=0):
    """Symmetric sign matrix with the Wigner normalization (diag +-sqrt(2))."""
    if beta != 1:
        raise EnsembleError("rademacher entries implemented for beta=1")
    rng = rng_for(seed, replica, 0)
    S = np.where(rng.random((N, N)) < 0.5, 1.0, -1.0)
    W = np.triu(S, 1)
    W = W + W.T
    W[np.diag_indices(N)] = np.where(rng.random(N) < 0.5, 1.0, -1.0) * math.sqrt(2.0)
    return W


def _bernoulli_mask(N, theta, seed, replica):
    rng = rng_for(seed, replica, 1)
    mask = np.triu(rng.random((N, N)) < 1.0 / theta, 0).astype(float)
    return np.triu(mask, 1) + np.triu(mask, 0).T


def sample_theta_goe(N, theta, seed=0, replica=0):
    """Bernoulli-sparsified GOE: entries sqrt(theta) Bern(1/theta) x Gaussian."""
    if theta < 1:
        raise EnsembleError("theta must be >= 1")
    W = sample_wigner(N, 1, seed, replica)
    return math.sqrt(theta) * _bernoulli_mask(N, theta, seed, replica) * W


def sample_theta_rademacher(N, theta, seed=0, replica=0):
    """Sparsified sign matrix sqrt(theta) Bern(1/theta) x Rademacher: the
    weighted signed Erdos-Renyi reading of the sparse model."""
    if theta < 1:
        raise EnsembleError("theta must be >= 1")
    W = sample_rademacher(N, 1, seed, replica)
    return math.sqrt(theta) * _bernoulli_mask(N, theta, seed, replica) * W


def sample_interpolating(N, alpha_mix, seed=0, replica=0):
    """Gaussian ensemble interpolating GOE (alpha=0) to GUE (alpha=1) and on
    to the antisymmetric-imaginary ensemble (alpha=inf)."""
    rng = rng_for(seed, replica, 0)
    if math.isinf(alpha_mix):
        vr, vi, vd = 0.0, 1.0, 0.0
    else:
        den = 1.0 + alpha_mix ** 2
        vr, vi, vd = 1.0 / den, alpha_mix ** 2 / den, 2.0 / den
    R = np.triu(rng.standard_normal((N, N)), 1) * math.sqrt(vr)
    I = np.triu(rng.standard_normal((N, N)), 1) * math.sqrt(vi)
    W = (R + 1j * I)
    W = W + W.conj().T
    W = W + np.diag(rng.standard_normal(N) * math.sqrt(vd)).astype(complex)
    if vi == 0.0:
        return W.real
    return W


def sample_heavy(N, df, seed=0, replica=0):
    """Symmetric Student-t entries scaled to the Wigner second moments."""
    if df <= 2:
        raise EnsembleError("need df > 2 for finite variance")
    rng = rng_for(seed, replica, 0)
    scale = math.sqrt((df - 2.0) / df)
    T = rng.standard_t(df, size=(N, N)) * scale
    W = np.triu(T, 1)
    W = W + W.T
    W[np.diag_indices(N)] = rng.standard_t(df, size=N) * scale * math.sqrt(2.0)
    return W


def truncate_heavy(W, N, zeta):
    """Entrywise truncation W * 1(|W| < N^(zeta/2)); returns (W<, fraction cut)."""
    if not 0.0 < zeta < 1.0 / 3.0:
        raise EnsembleError("zeta must lie in (0, 1/3)")
    thr = float(N) ** (zeta / 2.0)
    keep = np.abs(W) < thr
    frac = 1.0 - float(np.mean(keep))
    return W * keep, frac


def assemble(profile, W, deformation_mat=None):
    """X = Sigma o W + A.  Superposition holds exactly: assemble(P,W,A) -
    assemble(P,W,0) = A."""
    V = profile.variances
    if V.shape != W.shape:
        raise EnsembleError("profile and W dimensions disagree")
    X = np.sqrt(V) * W
    if deformation_mat is not None:
        if deformation_mat.shape != X.shape:
            raise EnsembleError("deformation dimension mismatch")
        X = X + deformation_mat
    return X


def sample_wishart(profile, beta=1, deformation=None, seed=0, replica=0,
                   entry_law="gaussian", theta=1.0):
    """X = (H + A)(H + A)^* for a bipartite profile (M <= N)."""
    if profile.kind != "bipartite":
        raise EnsembleError("wishart sampler needs a bipartite profile")
    M, N = profile.n_rows, profile.n_cols
    rng = rng_for(seed, replica, 0)
    if beta == 1:
        W = rng.standard_normal((M, N))
    elif beta == 2:
        W = (rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))) / math.sqrt(2.0)
    else:
        raise EnsembleError("beta must be 1 or 2")
    if entry_law == "theta":
        mask = (rng_for(seed, replica, 1).random((M, N)) < 1.0 / theta).astype(float)
        W = math.sqrt(theta) * mask * W
    elif entry_law != "gaussian":
        raise EnsembleError(f"unsupported wishart entry law {entry_law!r}")
    H = np.sqrt(profile.variances) * W
    A = wishart_deformation_matrix(deformation, M, N, beta=beta, seed=seed)
    HA = H if A is None else H + A
    X = HA @ HA.conj().T
    return 0.5 * (X + X.conj().T)


# ---------------------------------------------------------------------------
# ensemble specification
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class EnsembleSpec:
    beta: int = 1
    entry_law: str = "gaussian"   # gaussian | theta_goe | rademacher | interpolating | heavy_tailed
    theta: float = 1.0
    alpha_mix: float = 0.0
    tail_df: float = 9.0
    zeta: float = 0.25
    profile: VarianceProfile | None = None
    deformation: Deformation | None = None
    model: str = "wigner"         # wigner | wishart
    seed: int = 0

    def __post_init__(self):
        if self.entry_law == "theta_goe" and self.theta < 1:
            raise EnsembleError("theta must be >= 1")
        if self.entry_law == "heavy_tailed" and not 0 < self.zeta < 1 / 3:
            raise EnsembleError("zeta must lie in (0, 1/3)")

    @property
    def N(self):
        return self.profile.n_cols

    def to_json(self):
        return {
            "beta": self.beta, "entry_law": self.entry_law, "theta": self.theta,
            "alpha_mix": self.alpha_mix, "tail_df": self.tail_df, "zeta": self.zeta,
            "model": self.model, "seed": self.seed,
            "profile": self.profile.to_json() if self.profile is not None else None,
            "deformation": self.deformation.to_json() if self.deformation else None,
        }

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def from_json(cls, d):
        prof = VarianceProfile.from_json(d["profile"]) if d.get("profile") else None
        return cls(beta=d.get("beta", 1), entry_law=d.get("entry_law", "gaussian"),
                   theta=d.get("theta", 1.0), alpha_mix=d.get("alpha_mix", 0.0),
                   tail_df=d.get("tail_df", 9.0), zeta=d.get("zeta", 0.25),
                   profile=prof, deformation=Deformation.from_json(d.get("deformation")),
                   model=d.get("model", "wigner"), seed=d.get("seed", 0))


def sample(spec, replica=0):
    """Draw one realization of the ensemble described by spec."""
    if spec.model == "wishart":
        return sample_wishart(spec.profile, beta=spec.beta, deformation=spec.deformation,
                              seed=spec.seed, replica=replica,
                              entry_law="theta" if spec.entry_law == "theta_goe" else "gaussian",
                              theta=spec.theta)
    N = spec.profile.n_rows
    law = spec.entry_law
    if law == "gaussian":
        W = sample_wigner(N, spec.beta, spec.seed, replica)
    elif law == "theta_goe":
        W = sample_theta_goe(N, spec.theta, spec.seed, replica)
    elif law == "theta_rademacher":
        W = sample_theta_rademacher(N, spec.theta, spec.seed, replica)
    elif law == "rademacher":
        W = sample_rademacher(N, spec.beta, spec.seed, replica)
    elif law == "interpolating":
        W = sample_interpolating(N, spec.alpha_mix, spec.seed, replica)
    elif law == "heavy_tailed":
        W = sample_heavy(N, spec.tail_df, spec.seed, replica)
        W, _ = truncate_heavy(W, N, spec.zeta)
    else:
        raise EnsembleError(f"unknown entry law {law!r}")
    A = deformation_matrix(spec.deformation, N, beta=spec.beta, seed=spec.seed)
    return assemble(spec.profile, W, A)


def goe_reference_spec(N, beta=1, deformation=None, seed=0):
    """Same-size GOE/GUE baseline (uniform profile, Gaussian entries)."""
    return EnsembleSpec(beta=beta, entry_law="gaussian",
                        profile=uniform_profile(N), deformation=deformation, seed=seed)


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
