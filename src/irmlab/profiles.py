"""Variance-profile matrices and their builders.

A square profile stores entrywise variances sigma^2_ij whose matrix is
symmetric and doubly stochastic, so that the row-normalized matrix is the
transition kernel of a Markov chain on [N].  A bipartite profile (M x N)
has unit row sums and column sums alpha = M/N, and induces a two-sided
chain on [M] | [N].

Builders cover the standard families: uniform (mean-field), band on a
d-dimensional torus, randomized generalized-Wigner, sparse weighted-graph,
block (Wegner orbital), regular-graph, and bipartite Wishart profiles.
Every profile is checked once, when it is built (a builder, a file, or
the constructor directly), and is immutable after construction.
"""

from __future__ import annotations

import functools
import itertools
import math
import types

import numpy as np

VALIDATE_TOL = 1e-10
RENORM_TOL = 1e-6


class ProfileError(ValueError):
    """Invalid profile construction or validation failure."""


class ConvergenceError(RuntimeError):
    """Iterative balancing failed to converge."""


# ---------------------------------------------------------------------------
# band densities
# ---------------------------------------------------------------------------

def _sphere_area(d):
    # surface of the unit (d-1)-sphere
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


class BandDensity:
    """Radial probability density on R^d used to shape band profiles.

    Built-in family: 'gaussian', 'bump' (compact support in the unit ball),
    'power_law' (tail (1+r)^{-d-alpha}).  A density is evaluated at |x|, so
    it is even by construction.  The attributes alpha_stable / decay_T /
    decay_K record the small-frequency exponent and the decay exponents; a
    band profile keeps them in its torus.
    """

    def __init__(self, name, radial, d, alpha_stable, decay_T, decay_K, params=None):
        self.name = name
        self._radial = radial
        self.d = d
        self.alpha_stable = float(alpha_stable)
        self.decay_T = float(decay_T)
        self.decay_K = float(decay_K)
        self.params = dict(params or {})

    # -- constructors --------------------------------------------------
    @classmethod
    def gaussian(cls, d=1):
        def radial(r):
            return np.exp(-0.5 * r * r) / (2.0 * math.pi) ** (d / 2.0)

        return cls("gaussian", radial, d, alpha_stable=2.0, decay_T=50.0, decay_K=50.0)

    @classmethod
    def bump(cls, d=1):
        # c_d * exp(-1/(1-r^2)) on r < 1; normalization by radial quadrature
        nodes, weights = np.polynomial.legendre.leggauss(200)
        r = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        vals = np.exp(-1.0 / (1.0 - r * r)) * r ** (d - 1)
        integral = _sphere_area(d) * float(np.sum(w * vals))
        c = 1.0 / integral

        def radial(rr):
            rr = np.asarray(rr, dtype=float)
            out = np.zeros_like(rr)
            inside = rr < 1.0
            out[inside] = c * np.exp(-1.0 / (1.0 - rr[inside] ** 2))
            return out

        return cls("bump", radial, d, alpha_stable=2.0, decay_T=50.0, decay_K=50.0)

    @classmethod
    def power_law(cls, alpha, d=1):
        if not 0.0 < alpha <= 2.0:
            raise ProfileError("stable exponent must lie in (0, 2]")
        # int r^{d-1} (1+r)^{-(d+alpha)} dr = B(d, alpha) exactly
        beta = math.gamma(d) * math.gamma(alpha) / math.gamma(d + alpha)
        c = 1.0 / (_sphere_area(d) * beta)

        def radial(r):
            return c / (1.0 + np.asarray(r, dtype=float)) ** (d + alpha)

        return cls("power_law", radial, d, alpha_stable=alpha,
                   decay_T=d + alpha, decay_K=d + 1.0, params={"alpha": alpha})

    @classmethod
    def by_name(cls, name, d=1):
        """The named density; 'power_law' has stable exponent 1."""
        if name == "gaussian":
            return cls.gaussian(d)
        if name == "bump":
            return cls.bump(d)
        if name == "power_law":
            return cls.power_law(1.0, d)
        raise ProfileError(f"unknown band density {name!r}")

    # -- evaluation ----------------------------------------------------
    def __call__(self, x):
        """Evaluate f at points x of shape (..., d)."""
        x = np.asarray(x, dtype=float)
        r = np.sqrt(np.sum(x * x, axis=-1))
        return self._radial(r)

    def mass(self, n_nodes=400):
        """Quadrature of f over R^d (radial Gauss-Legendre), for validation.

        The bump integrates over its support, the Gaussian over [0, 40];
        the power-law uses a finite window plus a three-term asymptotic tail.
        """
        if self.name == "power_law":
            # log substitution r = e^u - 1 flattens the dynamic range; the
            # remainder past r_max comes from a three-term asymptotic series
            d, a = self.d, self.params["alpha"]
            r_max = 1e8 ** (1.0 / a)
            u_max = math.log1p(r_max)
            nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
            u = 0.5 * u_max * (nodes + 1.0)
            w = 0.5 * u_max * weights
            r = np.expm1(u)
            vals = self._radial(r) * r ** (self.d - 1) * (r + 1.0)
            s = d + a
            c = float(self._radial(np.zeros(1))[0])  # prefactor of (1+r)^(-d-a)
            tail = c * (r_max ** (-a) / a
                        - s * r_max ** (-a - 1) / (a + 1)
                        + s * (s + 1) / 2.0 * r_max ** (-a - 2) / (a + 2))
            return _sphere_area(self.d) * (float(np.sum(w * vals)) + tail)
        r_max = 1.0 if self.name == "bump" else 40.0
        nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
        r = 0.5 * r_max * (nodes + 1.0)
        w = 0.5 * r_max * weights
        vals = self._radial(r) * r ** (self.d - 1)
        return _sphere_area(self.d) * float(np.sum(w * vals))


# ---------------------------------------------------------------------------
# profile object
# ---------------------------------------------------------------------------

def _json_object(value, what):
    """A copy of an optional JSON object, {} for None; anything else is refused."""
    if not isinstance(value, (dict, type(None))):
        raise ProfileError(f"profile {what} must be an object, not {value!r}")
    return dict(value or {})


def _frozen(value):
    """A read-only deep copy of a JSON value: objects as read-only mappings, arrays as tuples."""
    if isinstance(value, (dict, types.MappingProxyType)):
        return types.MappingProxyType({k: _frozen(v) for k, v in value.items()})
    return tuple(map(_frozen, value)) if isinstance(value, (list, tuple)) else value


def _thawed(value):
    """The plain JSON value (dicts and lists) of a _frozen one."""
    if isinstance(value, types.MappingProxyType):
        return {k: _thawed(v) for k, v in value.items()}
    return list(map(_thawed, value)) if isinstance(value, tuple) else value


def _reflect(grid):
    """A torus array at -x: each axis flipped and rolled by one, so the
    origin stays in place and offset v moves to L - v."""
    for ax in range(grid.ndim):
        grid = np.roll(np.flip(grid, axis=ax), 1, axis=ax)
    return grid


def _checked(V, kind, mirror):
    """V, read-only, once its entries are finite and non-negative and its
    sums hold: unit row sums, and for a square profile V equal to mirror(V),
    its transpose; column sums alpha for a bipartite one.  Sums off by more
    than VALIDATE_TOL are renormalized once, by more than RENORM_TOL refused."""
    if not (np.isfinite(V).all() and np.min(V) >= 0):
        raise ProfileError("variance entries must be finite and non-negative")
    if kind == "square":
        defect = np.max(np.abs(V.sum(axis=1) - 1.0))
        if defect > RENORM_TOL:
            worst = int(np.argmax(np.abs(V.sum(axis=1) - 1.0)))
            raise ProfileError(
                f"row sums off by {defect:.3e} (worst row {worst}); rejected")
        if defect > VALIDATE_TOL:
            V = V / V.sum(axis=1, keepdims=True)
            V = 0.5 * (V + mirror(V))
        if np.max(np.abs(V - mirror(V))) > VALIDATE_TOL:
            raise ProfileError("square profile not symmetric")
    else:
        M, N = V.shape
        a = M / N
        rdef = np.max(np.abs(V.sum(axis=1) - 1.0))
        cdef = np.max(np.abs(V.sum(axis=0) - a))
        if rdef > VALIDATE_TOL or cdef > VALIDATE_TOL:
            if rdef > RENORM_TOL or cdef > RENORM_TOL:
                raise ProfileError(
                    f"bipartite sums off (rows {rdef:.3e}, cols {cdef:.3e})")
            V = V / V.sum(axis=1, keepdims=True)
            cdef = np.max(np.abs(V.sum(axis=0) - a))
            if cdef > RENORM_TOL:
                raise ProfileError(f"column sums off by {cdef:.3e}")
    V.setflags(write=False)
    return V


class VarianceProfile:
    """Matrix of entry variances; square profiles are doubly stochastic.

    A profile is checked once, when it is built: a square profile is
    symmetric with unit row sums, a bipartite one has unit row sums and
    column sums alpha, every entry finite and non-negative.  A circulant row
    is checked as a 1 x N matrix, even under x -> -x, without building the
    dense one.  Sums off by at most RENORM_TOL are renormalized once.  After
    construction the profile is immutable: attributes cannot be reassigned,
    torus and metadata are deeply read-only and every array is read-only.
    """

    def __init__(self, variances=None, kind="square", circulant_row=None, torus=None,
                 metadata=None):
        if kind not in ("square", "bipartite"):
            raise ProfileError(f"profile kind must be 'square' or 'bipartite', not {kind!r}")
        torus = _json_object(torus, "torus")
        metadata = _json_object(metadata, "metadata")
        if (variances is None) == (circulant_row is None):
            raise ProfileError("profile needs either dense variances or a circulant row")
        attrs = self.__dict__
        attrs.update(kind=kind, torus=_frozen(torus) if torus else None,
                     metadata=_frozen(metadata), circulant_row=None)
        if circulant_row is None:
            V = np.array(variances, dtype=float)
            if V.ndim != 2 or V.size == 0 or kind == "square" and V.shape[0] != V.shape[1]:
                raise ProfileError(f"dense variances must be a non-empty {kind} matrix, "
                                   f"not shape {V.shape}")
            attrs.update(variances=_checked(V, kind, np.transpose),
                         n_rows=V.shape[0], n_cols=V.shape[1])
            return
        row = np.array(circulant_row, dtype=float)
        d, L = torus.get("d"), torus.get("L")
        # L >= 2 puts L^d past the row size once d passes its bit length,
        # so an absurd d is refused before L^d is evaluated
        if not (type(d) is int and type(L) is int and d >= 1 and L >= 2 and row.ndim == 1
                and d <= row.size.bit_length() and L ** d == row.size and kind == "square"):
            raise ProfileError(f"a circulant row needs a square kind and L^d entries for "
                               f"torus integers d >= 1 and L >= 2, not shape {row.shape} "
                               f"on {torus!r}")
        row = _checked(row.reshape(1, -1), kind,
                       lambda V: _reflect(V.reshape((L,) * d)).reshape(1, -1))
        attrs.update(circulant_row=row.reshape(-1), n_rows=row.size, n_cols=row.size)

    def __setattr__(self, name, value):
        raise AttributeError(f"a VarianceProfile is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a VarianceProfile is immutable; cannot delete {name!r}")

    @property
    def alpha(self):
        if self.kind != "bipartite":
            raise ProfileError("alpha is defined for bipartite profiles")
        return self.n_rows / self.n_cols

    # -- storage ---------------------------------------------------------
    @functools.cached_property
    def variances(self):
        """Dense variance matrix, read-only (built on first use from a circulant row)."""
        d, L = self.torus["d"], self.torus["L"]
        N = L ** d
        if N > 4096:
            raise ProfileError(f"dense materialization of N={N} exceeds budget")
        row = self.circulant_row.reshape((L,) * d)
        coords = np.indices((L,) * d).reshape(d, N)  # multi-index per site
        diff = (coords[:, None, :] - coords[:, :, None]) % L
        dense = np.ascontiguousarray(row[tuple(diff)])
        dense.setflags(write=False)
        return dense

    @functools.cached_property
    def sqrt_variances(self):
        """Entrywise square root of the variances, read-only."""
        S = np.sqrt(self.variances)
        S.setflags(write=False)
        return S

    def validate(self):
        """The profile itself: it was checked when it was built."""
        return self

    # -- serialization -------------------------------------------------------
    @property
    def data(self):
        """The stored array: the circulant row, or else the dense variances."""
        return self.variances if self.circulant_row is None else self.circulant_row

    def to_json(self, data=True):
        """JSON document of the profile; data=False leaves out its array."""
        doc = {
            "kind": self.kind,
            "n_rows": int(self.n_rows),
            "n_cols": int(self.n_cols),
            "storage": "dense" if self.circulant_row is None else "circulant",
            "metadata": _thawed(self.metadata),
        }
        if self.torus:
            doc["metadata"]["torus"] = _thawed(self.torus)
        if data:
            doc["data"] = self.data.tolist()
        return doc

    @classmethod
    def from_json(cls, doc):
        """The profile a JSON document describes, checked like any other."""
        try:
            kind, data = doc["kind"], np.array(doc["data"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProfileError(f"profile needs a kind and numeric data: {exc!r}") from exc
        meta = _json_object(doc.get("metadata"), "metadata")
        torus = meta.pop("torus", None)
        storage = "circulant_row" if doc.get("storage", "dense") == "circulant" else "variances"
        return cls(kind=kind, torus=torus, metadata=meta, **{storage: data})


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def uniform_profile(N):
    """Mean-field profile sigma^2_ij = 1/N."""
    if N < 1:
        raise ProfileError("N must be >= 1")
    V = np.full((N, N), 1.0 / N)
    return VarianceProfile(V, kind="square", metadata={"family": "uniform"})


def band_profile(d, L, W, density):
    """Band profile on the torus (Z/LZ)^d with bandwidth W.

    sigma^2_xy = (1/M) sum_{n in Z^d} f((x - y + nL)/W), with M the total of
    all computed terms, so every row sums to 1 exactly by construction.
    Stored circulant-compressed (first row only).
    """
    if L < 2:
        raise ProfileError("L must be >= 2")
    if W < 1:
        raise ProfileError("W must be >= 1")
    if isinstance(density, str):
        density = BandDensity.by_name(density, d=d)
    if density.d != d:
        raise ProfileError("density dimension does not match d")
    N = L ** d
    if N > 2 ** 22:
        raise ProfileError("lattice size exceeds memory budget")

    coords = np.indices((L,) * d).reshape(d, N).T.astype(float)  # offsets v
    row = np.zeros(N)
    # accumulate periodic images shell by shell until they stop contributing;
    # heavy tails are cut at the shell cap (row sums stay exact by the
    # discrete normalization, only the far-tail shape is truncated)
    max_shell = 4000 if d == 1 else 60
    shell = 0
    while shell <= max_shell:
        shifts = [np.array(s, dtype=float) for s in _shell_points(d, shell)]
        contrib = np.zeros(N)
        for s in shifts:
            contrib += density((coords + s * L) / W)
        row += contrib
        total = row.sum()
        if shell >= 1 and total > 0 and contrib.sum() < 1e-12 * total:
            break
        shell += 1
    M = row.sum()
    if M <= 0:
        raise ProfileError("degenerate band density (zero mass on lattice)")
    row = row / M
    # enforce exact evenness under v -> -v mod L (finite image sums are only
    # symmetric up to the truncated tail)
    grid = row.reshape((L,) * d)
    row = (0.5 * (grid + _reflect(grid))).reshape(-1)
    row = row / row.sum()
    torus = {"d": d, "L": L, "W": W, "density": density.name,
             "alpha_stable": density.alpha_stable,
             "decay_T": density.decay_T, "decay_K": density.decay_K}
    return VarianceProfile(circulant_row=row, kind="square",
                           torus=torus, metadata={"family": "band"})


def _shell_points(d, s):
    """Integer points with sup-norm exactly s (boundary of the box, generated
    directly: one axis pinned to +-s, earlier axes restricted to |c| < s)."""
    if s == 0:
        return [(0,) * d]
    pts = set()
    for axis in range(d):
        for sign in (-s, s):
            ranges = []
            for a in range(d):
                if a == axis:
                    ranges.append((sign,))
                elif a < axis:
                    ranges.append(tuple(range(-s + 1, s)))
                else:
                    ranges.append(tuple(range(-s, s + 1)))
            pts.update(itertools.product(*ranges))
    return sorted(pts)


def sinkhorn_symmetric(M):
    """Balance a positive symmetric matrix to doubly stochastic form: row
    sums within 1e-12 in at most 10,000 sweeps."""
    A = np.array(M, dtype=float)
    if np.min(A) <= 0:
        raise ProfileError("Sinkhorn balancing needs strictly positive entries")
    for _ in range(10000):
        A /= A.sum(axis=1, keepdims=True)
        A = 0.5 * (A + A.T)
        defect = np.max(np.abs(A.sum(axis=1) - 1.0))
        if defect < 1e-12:
            return A
    raise ConvergenceError("Sinkhorn did not reach 1e-12 in 10000 iterations")


def generalized_wigner_profile(N, c, C, seed=0):
    """Random symmetric doubly stochastic profile with c/N < sigma^2_ij < C/N.

    Construction: P = c*J + (1-c)*T with T a random symmetric doubly
    stochastic matrix (symmetric Sinkhorn balancing of a positive random
    matrix), clipped and rebalanced (at most 50 rounds) until the band
    constraint holds.
    """
    if not (0 < c <= 1 <= C):
        raise ProfileError("need 0 < c <= 1 <= C")
    if c == 1.0:
        return uniform_profile(N)
    rng = np.random.default_rng(seed)
    T = rng.uniform(0.5, 1.5, size=(N, N))
    T = 0.5 * (T + T.T)
    T = sinkhorn_symmetric(T)
    cap = (C - c) / ((1.0 - c) * N)
    for _ in range(50):
        if np.max(T) <= cap * (1.0 - 1e-9):
            break
        T = np.minimum(T, cap * (1.0 - 1e-6))
        T = sinkhorn_symmetric(T)
    else:
        raise ConvergenceError("entry-cap rebalancing did not converge")
    P = c / N + (1.0 - c) * T
    prof = VarianceProfile(P, kind="square",
                           metadata={"family": "gw", "c": c, "C": C})
    V = prof.variances
    if np.min(V) <= c / N * (1 - 1e-9) or np.max(V) >= C / N * (1 + 1e-9):
        raise ConvergenceError("generalized-Wigner band constraint violated")
    return prof


def sparse_profile(p, w, d):
    """Profile sigma^2_ij = p_ij w_ij / d for a weighted sparse graph."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.min(p) < 0 or np.max(p) > 1:
        raise ProfileError("p must have entries in [0, 1]")
    if np.min(w) < 0:
        raise ProfileError("w must be nonnegative")
    pw = p * w
    if np.max(np.abs(pw - pw.T)) > 1e-12:
        raise ProfileError("p*w must be symmetric")
    sums = pw.sum(axis=1)
    defect = np.abs(sums - d)
    if np.max(defect) > 1e-9 * max(1.0, abs(d)):
        worst = int(np.argmax(defect))
        raise ProfileError(
            f"row sums of p*w deviate from d={d}: worst row {worst} "
            f"(sum {sums[worst]:.12g})")
    return VarianceProfile(pw / d, kind="square",
                           metadata={"family": "sparse", "d": d})


def block_wegner_profile(D, M, lam):
    """Block orbital profile: within-block mass (1-lam)/M, cyclic-neighbor
    coupling lam/(2M) (merged for D <= 2 so rows still sum to 1)."""
    if D < 1 or M < 1:
        raise ProfileError("need D >= 1 and M >= 1")
    if not 0.0 <= lam <= 1.0:
        raise ProfileError("lambda must lie in [0, 1]")
    N = D * M
    V = np.zeros((N, N))
    for b in range(D):
        sl = slice(b * M, (b + 1) * M)
        if D == 1:
            V[sl, sl] = 1.0 / M
            continue
        V[sl, sl] = (1.0 - lam) / M
        if D == 2:
            other = slice((1 - b) * M, (2 - b) * M)
            V[sl, other] = lam / M
        else:
            for nb in ((b + 1) % D, (b - 1) % D):
                V[sl, nb * M:(nb + 1) * M] = lam / (2.0 * M)
    return VarianceProfile(V, kind="square",
                           metadata={"family": "block", "D": D, "M": M,
                                     "lambda": lam})


def regular_graph_profile(adjacency, d):
    """Profile sigma^2_ij = A_ij / d for a d-regular simple graph."""
    A = np.asarray(adjacency, dtype=float)
    degs = A.sum(axis=1)
    if np.max(np.abs(degs - d)) > 1e-12:
        worst = int(np.argmax(np.abs(degs - d)))
        raise ProfileError(f"graph not {d}-regular (vertex {worst} has degree {degs[worst]:g})")
    return VarianceProfile(A / d, kind="square",
                           metadata={"family": "regular", "d": d})


def random_regular_adjacency(N, d, seed=0):
    """Random simple d-regular graph via stub pairing with swap repair (at
    most 2,000 pairings)."""
    if (N * d) % 2 != 0 or d >= N:
        raise ProfileError("need N*d even and d < N")
    rng = np.random.default_rng(seed)
    for _ in range(2000):
        stubs = np.repeat(np.arange(N), d)
        rng.shuffle(stubs)
        edges = [(int(stubs[2 * i]), int(stubs[2 * i + 1])) for i in range(len(stubs) // 2)]
        edges = _repair_edges(edges, rng)
        if edges is None:
            continue
        A = np.zeros((N, N))
        for u, v in edges:
            A[u, v] += 1
            A[v, u] += 1
        if np.max(A) <= 1 and np.trace(A) == 0:
            return A
    raise ConvergenceError("could not realize a simple regular graph")


def _repair_edges(edges, rng):
    # swap endpoints until no loops or multi-edges remain (at most 20,000 swaps)
    def bad_index(es, seen):
        for i, (u, v) in enumerate(es):
            key = (min(u, v), max(u, v))
            if u == v or seen[key] > 1:
                return i
        return -1

    for _ in range(20000):
        seen = {}
        for u, v in edges:
            key = (min(u, v), max(u, v))
            seen[key] = seen.get(key, 0) + 1
        i = bad_index(edges, seen)
        if i < 0:
            return edges
        j = int(rng.integers(len(edges)))
        if i == j:
            continue
        u, v = edges[i]
        x, y = edges[j]
        edges[i], edges[j] = (u, x), (v, y)
    return None


def wishart_profile(M, N, builder="uniform"):
    """Bipartite profile with unit row sums and column sums alpha = M/N.

    'uniform' gives sigma^2_ij = 1/N.  'banded' concentrates mass near the
    diagonal band i/M = j/N through the balanced cosine kernel
    (1 + 0.9 cos(2 pi (i/M - j/N)))/N (exact sums).
    """
    if M > N:
        raise ProfileError("need M <= N")
    if builder == "uniform":
        V = np.full((M, N), 1.0 / N)
    elif builder == "banded":
        i = np.arange(M)[:, None] / M
        j = np.arange(N)[None, :] / N
        V = (1.0 + 0.9 * np.cos(2.0 * math.pi * (i - j))) / N
    else:
        raise ProfileError(f"unknown wishart builder {builder!r}")
    return VarianceProfile(V, kind="bipartite",
                           metadata={"family": "wishart", "builder": builder})
