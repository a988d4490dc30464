"""Exact ribbon-diagram combinatorics.

Pipeline: polygons with marked first corners are glued along a pairing of
their directed sides (opposite orientation only in the complex case beta=2,
same or opposite in the real case beta=1); unglued sides are open edges
carrying deformation powers.  A glued complex with a vertex of degree one
contains a Catalan tree; the contraction takes the tree-free ones only.  It
cuts each face walk at its kept corners (degree >= 3, or marked).  A run of
steps between two kept corners crosses one chain of edges through unmarked
divalent vertices, which becomes one diagram edge: its weight is the run's
length and it points from the run's first corner to its last.  The reduced
diagram is evaluated as a sum over vertex labelings of products of n-step
transition probabilities (interior edges, weight w gives p_w) and deformation
powers A^w (open edges).

Conventions that the exact tests pin down:

* the tree convention lives at the sum level: gluings that contain a tree
  do not appear in the skeleton sum at their own perimeter; they are
  accounted by the binomial prefactors at lower perimeter (the half-binomial
  applies at l = 0);
* a face of perimeter zero is still a factor N in those sums, never a
  diagram;
* mixed chains (interior + open through an unmarked divalent vertex) are
  combinatorially impossible; the contraction asserts this, and that every
  run crosses a chain without repeating an edge.

The Wick oracle computes the same mixed trace moments directly from scalar
Gaussian entry moments over all index tuples and never touches the gluing
machinery, so the two sides of each verified identity are independent.  Which
entry factor each step of each tuple takes depends on the perimeters, N and
beta only: that plan is built once per process (`_wick_plan`), and a call
fills the distinct factors it lists and sums the tuples in numpy blocks of
rows, one row per step, in the scalar walk's order of operations, so it gives
that walk's floats bit for bit (see `wick_moment`).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from array import array
from fractions import Fraction

import numpy as np

from irmlab.chebyshev import u_poly_half_coeffs
from irmlab.ensembles import double_factorial


class BudgetError(RuntimeError):
    """Requested enumeration exceeds the configured cost budget."""


class GluingError(ValueError):
    pass


MAX_GLUINGS = 5_000_000
MAX_WICK_TUPLES = 5_000_000
SKELETON_CACHE_SIZE = 256        # topologies kept per process (an exact-identities pass uses 56)
# Wick slot plans kept per process, and the largest kept: k N^k indices, sized
# at the slot dtype (a plan's own dtype is never wider).  An exact-identities
# pass uses 53 plans, 1.6 MB in all; its largest, (8,) at N = 4, sizes at 1 MiB
# at beta 2 and holds 512 KiB of uint8.  So plans hold at most 64 MiB; a larger
# table streams its blocks and keeps none of them.
WICK_PLAN_CACHE_SIZE = 64
WICK_PLAN_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# gluing objects
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RibbonGluing:
    perimeters: tuple
    open_edges: frozenset        # subset J of step labels left unglued
    pairing: tuple               # perfect matching on the complement
    orientations: tuple          # per pair: 'opp' | 'same' ('opp' only when beta=2)
    beta: int = 1


class _UF:
    __slots__ = ("p",)

    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        p = self.p
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        self.p[self.find(a)] = self.find(b)


def _faces_and_gamma(perimeters):
    faces, gamma = [], {}
    k = 0
    for m in perimeters:
        steps = list(range(k, k + m))
        faces.append(steps)
        for i, s in enumerate(steps):
            gamma[s] = steps[(i + 1) % m]
        k += m
    return faces, gamma, k


def _matchings(items):
    if not items:
        yield ()
        return
    a = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for m in _matchings(rest):
            yield ((a, items[i]),) + m


def gluing_count(perimeters, beta, allow_open):
    """Exact number of gluings the enumerator will produce."""
    k = sum(_perimeters(perimeters))
    total = 0
    opens = range(0, k + 1) if allow_open else (0,)
    for o in opens:
        g = k - o
        if g % 2:
            continue
        pairs = double_factorial(g - 1)
        orient = 2 ** (g // 2) if beta == 1 else 1
        total += math.comb(k, o) * pairs * orient
    return total


def enumerate_gluings(perimeters, beta, allow_open=False):
    """Stream every admissible gluing exactly once (budget-guarded)."""
    perimeters = _perimeters(perimeters)
    if beta not in (1, 2):
        raise GluingError("beta must be 1 or 2")
    count = gluing_count(perimeters, beta, allow_open)
    if count > MAX_GLUINGS:
        raise BudgetError(
            f"enumeration of {count} gluings exceeds budget {MAX_GLUINGS}")
    k = sum(perimeters)
    steps = list(range(k))
    open_sets = [frozenset()]
    if allow_open:
        open_sets = [frozenset(c)
                     for o in range(0, k + 1) if (k - o) % 2 == 0
                     for c in itertools.combinations(steps, o)]
    for J in open_sets:
        glued = [s for s in steps if s not in J]
        for pm in _matchings(glued):
            if beta == 2:
                yield RibbonGluing(perimeters, J, pm, ("opp",) * len(pm), beta)
            else:
                for ors in itertools.product(("opp", "same"), repeat=len(pm)):
                    yield RibbonGluing(perimeters, J, pm, ors, beta)


# ---------------------------------------------------------------------------
# glued complex
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class GluedComplex:
    gluing: RibbonGluing
    vertex_of_corner: list       # corner -> vertex class id
    n_vertices: int
    edges: list                  # (kind 'p'|'a', u, v) in owner-step direction
    edge_of_step: dict           # step -> edge index
    face_steps: list             # per face: step labels in order
    marks: list                  # per face: vertex class of the marked corner

    def degrees(self):
        deg = [0] * self.n_vertices
        for _, u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def glue(gluing):
    """Realize the polygon gluing; vertex identifications via union-find."""
    if any(m < 1 for m in gluing.perimeters):
        raise GluingError("glue needs positive perimeters (zero faces are "
                          "factors N at the sum level)")
    faces, gamma, k = _faces_and_gamma(gluing.perimeters)
    seen = set()
    for (s, t) in gluing.pairing:
        if s in seen or t in seen or s == t:
            raise GluingError("overlapping pair indices")
        seen.add(s)
        seen.add(t)
    if seen & set(gluing.open_edges):
        raise GluingError("open edge also appears in the pairing")
    uf = _UF(k)
    for (s, t), o in zip(gluing.pairing, gluing.orientations):
        if gluing.beta == 2 and o != "opp":
            raise GluingError("beta=2 glues in opposite direction only")
        if o == "opp":
            uf.union(s, gamma[t])
            uf.union(t, gamma[s])
        elif o == "same":
            uf.union(s, t)
            uf.union(gamma[s], gamma[t])
        else:
            raise GluingError(f"unknown orientation {o!r}")
    roots = {}
    def vid(c):
        r = uf.find(c)
        if r not in roots:
            roots[r] = len(roots)
        return roots[r]

    edges = []
    edge_of_step = {}
    for (s, t) in gluing.pairing:
        e = len(edges)
        edges.append(("p", vid(s), vid(gamma[s])))
        edge_of_step[s] = e
        edge_of_step[t] = e
    for s in sorted(gluing.open_edges):
        e = len(edges)
        edges.append(("a", vid(s), vid(gamma[s])))
        edge_of_step[s] = e
    marks = [vid(f[0]) for f in faces]
    return GluedComplex(
        gluing=gluing,
        vertex_of_corner=[vid(c) for c in range(k)],
        n_vertices=len(roots),
        edges=edges,
        edge_of_step=edge_of_step,
        face_steps=faces,
        marks=marks,
    )


# ---------------------------------------------------------------------------
# reduced diagrams
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class Diagram:
    n_vertices: int
    edges: tuple                 # (kind, u, v, weight)
    face_boundaries: tuple       # per face: edge ids in traversal order
    marks: tuple                 # per face: vertex id of the marked corner
    beta: int

    def is_connected(self):
        uf = _UF(self.n_vertices)
        for _, u, v, _w in self.edges:
            uf.union(u, v)
        return len({uf.find(v) for v in range(self.n_vertices)}) == 1

    def structure_key(self):
        """Deterministic key (vertices relabeled by first use); collisions
        impossible, distinct labelings of one shape may differ."""
        order = {}
        def lab(v):
            if v not in order:
                order[v] = len(order)
            return order[v]
        fb = tuple(tuple(f) for f in self.face_boundaries)
        ed = tuple((k, lab(u), lab(v), w) for k, u, v, w in self.edges)
        mk = tuple(lab(m) for m in self.marks)
        return (ed, fb, mk, self.beta)


def okounkov_contract(gc):
    """Reduce a tree-free glued complex to a diagram, recording edge weights;
    None when the complex has a vertex of degree one (a Catalan tree).

    Each face walk is cut at its kept corners (degree >= 3, or marked).  A
    run of steps between two kept corners traverses one chain of same-kind
    edges through unmarked divalent vertices: the run's edge set is the
    chain, its length the weight, its first and last corners the tail and
    head (an open chain is traversed once, so it is oriented along its face).
    Every walk keeps its marked corner, and every kept vertex starts a run.
    """
    deg = gc.degrees()
    if min(deg) < 2:
        return None
    kind = [e[0] for e in gc.edges]
    edge_of_step, corner = gc.edge_of_step, gc.vertex_of_corner
    keep = {v for v, d in enumerate(deg) if d >= 3} | set(gc.marks)
    vmap = {v: i for i, v in enumerate(sorted(keep))}

    chain_of = {}                # edge set of a chain -> its index
    edges, face_boundaries = [], []
    for walk in gc.face_steps:
        cuts = [i for i, s in enumerate(walk) if corner[s] in keep]
        boundary = []
        for a, b in zip(cuts, cuts[1:] + cuts[:1]):
            run = [edge_of_step[s] for s in (walk[a:b] if a < b else walk[a:] + walk[:b])]
            chain = frozenset(run)
            if len(chain) < len(run) or len({kind[e] for e in run}) > 1:
                raise GluingError("face run repeats an edge or mixes kinds")
            if chain not in chain_of:
                if any(not chain.isdisjoint(c) for c in chain_of):
                    raise GluingError("face runs cut one chain differently")
                chain_of[chain] = len(edges)
                edges.append((kind[run[0]], vmap[corner[walk[a]]], vmap[corner[walk[b]]],
                              len(run)))
            boundary.append(chain_of[chain])
        face_boundaries.append(tuple(boundary))
    # per face: the weights of its boundary chains add up to its perimeter
    if any(sum(edges[c][3] for c in fb) != m
           for fb, m in zip(face_boundaries, gc.gluing.perimeters)):
        raise GluingError("weight conservation failed")
    return Diagram(n_vertices=len(keep), edges=tuple(edges),
                   face_boundaries=tuple(face_boundaries),
                   marks=tuple(vmap[m] for m in gc.marks), beta=gc.gluing.beta)


# ---------------------------------------------------------------------------
# diagram-function evaluation
# ---------------------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _power(powers, w):
    """M^w from the list [M, M^2, ...], extended by M^k = M^(k-1) M."""
    while len(powers) < w:
        powers.append(powers[-1] @ powers[0])
    return powers[w - 1]


class PowerCache:
    """Matrix powers of the transition kernel and the deformation.

    Every power is formed by successive products, so its value does not
    depend on the order in which powers are requested.
    """

    def __init__(self, profile, A=None):
        self.P = np.asarray(profile.variances, dtype=float)
        self.A = None if A is None else np.asarray(A)
        self.N = self.P.shape[0]
        self._p = [self.P]
        self._a = None if self.A is None else [self.A]

    def p(self, w):
        return _power(self._p, w)

    def a(self, w):
        if self._a is None:
            raise GluingError("no deformation supplied for open edges")
        return _power(self._a, w)


def diagram_value(diagram, powers, weights=None):
    """Sum over vertex labelings of the edge-factor product (single weight set);
    every vertex ends an edge, so the einsum runs over all of them."""
    subs, mats = [], []
    for idx, (kind, u, v, w) in enumerate(diagram.edges):
        if weights is not None:
            w = weights[idx]
        subs.append(_LETTERS[u] + _LETTERS[v])
        mats.append(powers.p(w) if kind == "p" else powers.a(w))
    return float(np.real(np.einsum(",".join(subs) + "->", *mats)))


def frak_F(diagram, l_list, powers):
    """Exact diagram function at fixed boundary sums l_j: sum over integer
    weights w_e >= 1 with sum_{e in dD_j} w_e = l_j (multiplicity counted)."""
    l_list = list(l_list)
    nE = len(diagram.edges)
    mult = np.zeros((len(l_list), nE), dtype=int)
    for j, fb in enumerate(diagram.face_boundaries):
        for c in fb:
            mult[j, c] += 1
    total = 0.0
    l_arr = np.array(l_list, dtype=int)

    def rec(idx, rem, weights):
        nonlocal total
        if idx == nE:
            if np.all(rem == 0):
                total += diagram_value(diagram, powers, weights)
            return
        m = mult[:, idx]
        if not m.any():
            raise GluingError("edge lies on no face boundary")
        w = 1
        while True:
            new = rem - w * m
            if np.any(new < 0):
                break
            weights.append(w)
            rec(idx + 1, new, weights)
            weights.pop()
            w += 1
    rec(0, l_arr, [])
    return total


def F_direct(diagram, n_list, powers):
    """Diagram function with slack variables: joint sum over integer weights
    w_e >= 1 such that for every face there is t_j >= 0 with
    2 t_j + sum_{e in dD_j} w_e = n_j (so the per-face weight total is at
    most n_j and matches its parity)."""
    n_list = list(n_list)
    nE = len(diagram.edges)
    mult = np.zeros((len(n_list), nE), dtype=int)
    for j, fb in enumerate(diagram.face_boundaries):
        for c in fb:
            mult[j, c] += 1
    total = 0.0
    n_arr = np.array(n_list, dtype=int)
    min_need = mult.sum(axis=1)  # all-ones weight assignment per face

    def rec(idx, used, weights):
        nonlocal total
        if idx == nE:
            rem = n_arr - used
            if np.all(rem >= 0) and np.all(rem % 2 == 0):
                total += diagram_value(diagram, powers, weights)
            return
        m = mult[:, idx]
        if not m.any():
            raise GluingError("edge lies on no face boundary")
        w = 1
        while True:
            new = used + w * m
            # remaining edges need at least weight one each
            later = mult[:, idx + 1:].sum(axis=1)
            if np.any(new + later > n_arr):
                break
            weights.append(w)
            rec(idx + 1, new, weights)
            weights.pop()
            w += 1
    rec(0, np.zeros(len(n_list), dtype=int), [])
    return total


def F_parity_sum(diagram, n_list, powers):
    """F via the explicit parity sum of frak_F over 1 <= m_j <= n_j, m_j = n_j mod 2."""
    total = 0.0
    ranges = [range(2 - n % 2, n + 1, 2) for n in n_list]
    for mv in itertools.product(*[list(r) for r in ranges]):
        total += frak_F(diagram, list(mv), powers)
    return total


def diagram_envelope(diagram, n_total, gamma, t_N, N):
    """Upper envelope for |F| of a connected diagram without open edges."""
    V = diagram.n_vertices
    E = len(diagram.edges)
    return (n_total ** (V - 1) / math.factorial(V - 1)) * \
        ((max(gamma * t_N, n_total) / N) ** (E - V + 1)) * N


# ---------------------------------------------------------------------------
# Catalan corrections
# ---------------------------------------------------------------------------

def catalan_corrections(m):
    """b_m: (1/2 - 1/(k+1)) binom(2k,k) for m = 2k, zero for odd m."""
    if m % 2:
        return Fraction(0)
    k = m // 2
    return (Fraction(1, 2) - Fraction(1, k + 1)) * math.comb(2 * k, k)


# ---------------------------------------------------------------------------
# Wick oracle
# ---------------------------------------------------------------------------

WICK_BLOCK = 1024               # most index tuples per numpy block: bounds the oracle's memory


def _perimeters(m_list):
    """The perimeters as a tuple of ints; GluingError unless each one is a
    non-negative integer (a Python or numpy integer, never a bool)."""
    out = []
    for m in m_list:
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 0:
            raise GluingError(f"perimeters must be non-negative integers, not {m!r}")
        out.append(int(m))
    return tuple(out)


def _entry_factor(P, A, beta, x, y, c):
    """E of the factors (H + A) on entry (x, y), x <= y: c is the count of
    steps on a real or diagonal entry, and the pair (u, v) of steps x -> y
    and y -> x on an off-diagonal entry at beta 2."""
    if beta == 1 or x == y:
        var = P[x, y] * (2.0 if (x == y and beta == 1) else 1.0)
        a = float(np.real(A[x, y]))
        val = 0.0
        for t in range(0, c + 1, 2):
            val += math.comb(c, t) * a ** (c - t) * double_factorial(t - 1) * var ** (t / 2.0)
        return val
    u, v = c
    var = P[x, y]
    a = complex(A[x, y])
    val = 0.0
    for t in range(0, min(u, v) + 1):
        val += (math.comb(u, t) * math.comb(v, t) * math.factorial(t)
                * var ** t * a ** (u - t) * np.conj(a) ** (v - t))
    return float(np.real(val))


def _checked_inputs(profile, A, beta):
    """The variance matrix and the deformation (zeros for None) of an identity,
    once the profile is square and A is a finite N x N matrix, Hermitian, and
    real at beta = 1: otherwise the Wick oracle, which reads the upper triangle
    of A only, and the diagram side would evaluate different ensembles."""
    P = np.asarray(profile.variances, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise GluingError(f"the identities need a square profile, not shape {P.shape}")
    if A is None:
        return P, np.zeros_like(P)
    A = np.asarray(A)
    if A.shape != P.shape:
        raise GluingError(f"deformation of shape {A.shape} on a profile of shape {P.shape}")
    if not np.isfinite(A).all():
        raise GluingError("deformation entries must be finite")
    if not np.array_equal(A, A.conj().T):
        raise GluingError("deformation must be Hermitian")
    if beta == 1 and np.imag(A).any():
        raise GluingError("deformation must be real at beta = 1")
    return P, A


def _low_digits(N, k):
    """Digits L of a tuple block: the largest L <= k with N^L <= WICK_BLOCK,
    at least one (N = 1 gives L = k, one block)."""
    L = 1
    while L < k and N ** (L + 1) <= WICK_BLOCK:
        L += 1
    return L


def _slot_count(k, N, beta):
    """Number of factor slots code * N^2 + key: a code is at most k for a real
    or diagonal entry, u (k + 1) + v for an off-diagonal one at beta 2."""
    return ((k + 1) ** 2 if beta == 2 else k + 1) * N * N


def _slot_blocks(ms, N, beta):
    """The factor slot of every step of every tuple, one k x N^L block at a
    time (see `wick_moment`)."""
    k = sum(ms)
    dt = np.min_scalar_type(_slot_count(k, N, beta))
    # step s of the face walks goes from index s to index nxt[s] of the tuple
    nxt, start = [], 0
    for m in ms:
        nxt += list(range(start + 1, start + m)) + [start]
        start += m
    L = _low_digits(N, k)
    xs = np.empty((k, N ** L), dtype=dt)
    xs[k - L:] = np.arange(N ** L) // N ** np.arange(L - 1, -1, -1)[:, None] % N
    for high in itertools.product(range(N), repeat=k - L):
        xs[:k - L] = np.array(high, dtype=dt)[:, None]
        ys = xs[nxt]
        key = np.minimum(xs, ys) * N + np.maximum(xs, ys)
        # a step adds 1 to its entry's code, or k + 1 at beta 2 when it runs x -> y, x < y;
        # inc holds that times N^2, so key + inc is the slot of a step alone on its entry
        inc = (xs < ys) * dt.type(k * N * N) + dt.type(N * N) if beta == 2 else \
            np.full_like(key, N * N)
        slot = key + inc
        first = np.ones(key.shape, dtype=bool)
        for s in range(k - 1):
            eq = key[s + 1:] == key[s]
            slot[s] += (eq * inc[s + 1:]).sum(axis=0, dtype=dt)
            first[s + 1:] &= ~eq
        slot *= first
        yield slot


@dataclasses.dataclass(frozen=True)
class _WickPlan:
    """The distinct factor slots of one (perimeters, N, beta) table, and each
    step's position in that list: one k x N^L array per block, in the
    smallest unsigned dtype that holds the positions."""
    slots: np.ndarray
    index: tuple


@functools.lru_cache(maxsize=WICK_PLAN_CACHE_SIZE)
def _wick_plan(ms, N, beta):
    """Build the slot table of the positive perimeters ms once per process:
    it depends on neither the profile nor the deformation."""
    position = np.full(_slot_count(sum(ms), N, beta), -1)
    slots, index = [], []
    for slot in _slot_blocks(ms, N, beta):
        used = np.zeros(len(position), dtype=bool)
        used[slot] = True
        new = np.flatnonzero(used & (position < 0))
        position[new] = np.arange(len(slots), len(slots) + len(new))
        slots.extend(new.tolist())
        dt = np.min_scalar_type(len(slots) - 1)
        if index and index[0].dtype != dt:   # the list outgrew the blocks' dtype
            index = [block.astype(dt) for block in index]
        index.append(position[slot].astype(dt))
    plan = _WickPlan(np.array(slots), tuple(index))
    for a in (plan.slots, *plan.index):
        a.flags.writeable = False        # every later call shares these arrays
    return plan


def wick_moment(m_list, profile, A=None, beta=1):
    """Exact E[prod_j Tr X^{m_j}] for Gaussian entries, X = Sigma o W + A.

    Direct sum over all index tuples; the Gaussian expectation of each tuple
    factorizes over distinct entries into scalar moments ((t-1)!! real
    pairs, t! circular complex pairs).  Independent of the gluing pipeline.

    The k = sum m_j indices of a tuple are its digits in base N, in
    lexicographic order of (face 0's indices, face 1's indices, ...).  The
    tuples are summed in blocks: a block fixes the k - L high digits and
    runs through all N^L values of the low L (`_low_digits`).  It is held as
    k rows of N^L entries, one row per tuple index, in the smallest unsigned
    dtype that holds a factor slot (`_slot_blocks`).

    Step s of the face walks runs from index s to index nxt[s] and lies on
    the entry key[s] = min * N + max.  One pass over the steps compares row
    key[s] with the later rows: it adds the count codes of the later steps
    on the same entry to the slot of step s and clears their first-occurrence
    flags.  A first occurrence then holds the slot code * N^2 + key of its
    entry's factor, every other step slot 0, which holds 1.0.

    None of that depends on the profile or the deformation, so the plan is
    built once per process for each (perimeters, N, beta) (`_wick_plan`): it
    lists the distinct slots and, for every step of every block, its position
    in that list.  A call fills the factors of the listed slots only, then
    gathers them block by block.  A table over `WICK_PLAN_BYTES` streams its
    slot blocks instead, filling each factor the first time a block uses it,
    and keeps none of them.

    Each tuple multiplies its gathered factors in step order (a factor 1.0
    is exact), so it takes the entry factors in the order the entries first
    occur along the face walks, and the tuple values are added one after
    another: the float is the same, bit for bit, as that of the scalar walk
    over the tuples with a dict of entry counts (kept as the reference in
    the tests).
    """
    P, Amat = _checked_inputs(profile, A, beta)
    orig = _perimeters(m_list)
    N = P.shape[0]
    ms = tuple(m for m in orig if m > 0)
    k = sum(ms)
    if N ** k > MAX_WICK_TUPLES:
        raise BudgetError(f"wick oracle needs N^{k} = {N ** k} tuples; over budget")
    zeros = N ** (len(orig) - len(ms))
    if not ms:
        return float(zeros)
    # entry factors by slot code N^2 + x N + y for the entry x <= y, each filled the
    # first time it is asked for; code 0, no step on the entry, holds 1.0
    factors = np.ones(_slot_count(k, N, beta))
    filled = np.zeros(len(factors), dtype=bool)
    filled[0] = True

    def fill(slots):
        missing = slots[~filled[slots]]
        for sl in set(missing.tolist()):
            c, row = divmod(sl, N * N)
            x, y = divmod(row, N)
            factors[sl] = _entry_factor(P, Amat, beta, x, y,
                                        divmod(c, k + 1) if beta == 2 and x != y else c)
        filled[missing] = True
        return factors

    if k * N ** k * np.min_scalar_type(len(factors)).itemsize <= WICK_PLAN_BYTES:
        plan = _wick_plan(ms, N, beta)
        values = fill(plan.slots)[plan.slots]
        blocks = ((values, index) for index in plan.index)
    else:
        blocks = ((fill(slot), slot) for slot in _slot_blocks(ms, N, beta))
    total = np.zeros(1)
    for values, index in blocks:
        # multiply.reduce over axis 0 multiplies the rows one after another, in step order
        leaf = np.multiply.reduce(values[index], axis=0)
        # a sequential running sum, as the scalar walk adds: np.sum would pair terms
        total = np.add.accumulate(np.concatenate((total[-1:], leaf)))
    return float(total[-1]) * zeros


# ---------------------------------------------------------------------------
# the three verified identities
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _Topology:
    """The tree-free gluings of one perimeter tuple, reduced: the distinct
    diagrams in first-occurrence order, the diagram index of each kept
    gluing in gluing order, and per diagram the index of the first diagram
    with the same edge list (all that `diagram_value` reads) and a connected
    flag."""
    diagrams: tuple
    index: array
    same_edges: tuple
    connected: tuple


def _shared(diagram, pool):
    """The diagram with each of its tuples replaced by an equal one from pool
    (added when new): cached diagrams repeat few distinct edges and faces."""
    def share(t):
        return pool.setdefault(t, t)
    return dataclasses.replace(
        diagram, edges=share(tuple(map(share, diagram.edges))),
        face_boundaries=share(tuple(map(share, diagram.face_boundaries))),
        marks=share(diagram.marks))


@functools.lru_cache(maxsize=SKELETON_CACHE_SIZE)
def _topology(perimeters, beta, allow_open):
    """Enumerate, glue and contract once per (perimeters, beta, allow_open)
    in the process: none of it depends on the profile or the deformation."""
    diagrams, index, slot, shared = [], array("i"), {}, {}
    for gl in enumerate_gluings(perimeters, beta, allow_open=allow_open):
        diagram = okounkov_contract(glue(gl))
        if diagram is None:
            continue  # tree-containing gluing: counted at lower perimeter
        key = diagram.structure_key()
        if key not in slot:
            slot[key] = len(diagrams)
            diagrams.append(_shared(diagram, shared))
        index.append(slot[key])
    first = {}
    return _Topology(tuple(diagrams), index,
                     tuple(first.setdefault(d.edges, i) for i, d in enumerate(diagrams)),
                     tuple(d.is_connected() for d in diagrams))


@dataclasses.dataclass(frozen=True)
class _Skeleton:
    """Diagram values of one perimeter tuple's topology, and their sums over
    the kept gluings (in gluing order): all of them, and the connected ones."""
    values: list
    total: float
    connected: float


def _ribbon_face(m):
    """(reduced perimeter l, binom(m, (m - l)/2)) terms, the l = 0 term halved."""
    return [(l, math.comb(m, (m - l) // 2) / (2 if l == 0 else 1))
            for l in range(m % 2, m + 1, 2)]


def _chebyshev_face(n):
    """(perimeter, 1) terms over the parity range 1 <= l <= n, l = n mod 2."""
    return [(l, 1) for l in range(2 - n % 2, n + 1, 2)] if n else [(0, 1)]


class MomentTable:
    """Both sides of the ribbon, Chebyshev and cumulant identities for one
    (profile, A, beta).

    A left side expands each trace factor in powers of X and reads the mixed
    moments from the Wick oracle; a right side expands each face in reduced
    perimeters and reads skeleton sums.  Both are one basis sum.  Each mixed
    moment is one oracle call per table, on a slot plan built once per
    process (`_wick_plan`).  Each perimeter tuple is one gluing enumeration
    per process (`_topology`, shared by every table of the same beta and
    open-ness); a table evaluates each distinct edge list of its diagrams
    once.  A malformed profile or deformation raises GluingError here, and
    a perimeter that is not a non-negative integer in each public method.
    """

    def __init__(self, profile, A=None, beta=1):
        _checked_inputs(profile, A, beta)
        self.profile, self.A, self.beta = profile, A, beta
        self.N = profile.n_rows
        self.powers = PowerCache(profile, A)
        self._wick = {}        # sorted positive powers -> E prod_j Tr X^{k_j}
        self._skeletons = {}   # perimeter tuple -> _Skeleton

    def _basis_sum(self, faces, value):
        """sum over one (k_j, c_j) term per face of
        prod_j c_j * N^#{j: k_j = 0} * value(the positive k_j)."""
        total = 0.0
        for terms in itertools.product(*faces):
            coef = 1.0
            for _, c in terms:
                coef *= c
            if coef == 0.0:
                continue
            ks = tuple(k for k, _ in terms if k > 0)
            total += coef * (self.N ** (len(terms) - len(ks))) * (value(ks) if ks else 1.0)
        return total

    def _moment(self, ks):
        key = tuple(sorted(ks))
        if key not in self._wick:
            self._wick[key] = wick_moment(list(key), self.profile, self.A, self.beta)
        return self._wick[key]

    def _skeleton(self, perimeters):
        if perimeters not in self._skeletons:
            topo = _topology(perimeters, self.beta, self.A is not None)
            # equal edge lists make the same einsum call on the same powers: one float
            values = []
            for i, (d, j) in enumerate(zip(topo.diagrams, topo.same_edges)):
                values.append(diagram_value(d, self.powers) if j == i else values[j])
            total = connected = 0.0
            for i in topo.index:
                total += values[i]
                if topo.connected[i]:
                    connected += values[i]
            self._skeletons[perimeters] = _Skeleton(values, total, connected)
        return self._skeletons[perimeters]

    def _chebyshev_lhs(self, n_list):
        return self._basis_sum([list(enumerate(u_poly_half_coeffs(n))) for n in n_list],
                               self._moment)

    def ribbon(self, m_list):
        """E prod_j (Tr X^{m_j} + b_{m_j} N), and the binomial-weighted
        skeleton sums over reduced perimeters."""
        m_list = _perimeters(m_list)
        lhs = self._basis_sum([[(m, 1.0), (0, float(catalan_corrections(m)))] for m in m_list],
                              self._moment)
        rhs = self._basis_sum([_ribbon_face(m) for m in m_list],
                              lambda ls: self._skeleton(ls).total)
        return lhs, rhs

    def chebyshev(self, n_list):
        """E prod_j Tr U_{n_j}(X/2), and sum_Gamma F_Gamma({n_j}) as skeleton
        sums over the parity ranges (a face with n_j = 0 is a factor N)."""
        n_list = _perimeters(n_list)
        return self._chebyshev_lhs(n_list), self._basis_sum(
            [_chebyshev_face(n) for n in n_list], lambda ls: self._skeleton(ls).total)

    def chebyshev_diagrams(self, n_list):
        """Per-diagram terms of the Chebyshev right side, keyed by structure."""
        n_list = _perimeters(n_list)
        out = {}
        for terms in itertools.product(*[_chebyshev_face(n) for n in n_list if n]):
            if terms:
                ls = tuple(l for l, _ in terms)
                topo = _topology(ls, self.beta, self.A is not None)
                values = self._skeleton(ls).values
                sums = [0.0] * len(values)
                for i in topo.index:
                    sums[i] += values[i]
                out.update((d.structure_key(), v) for d, v in zip(topo.diagrams, sums))
        return out

    def cumulant(self, n_list):
        """kappa_X(n_1..n_s) from the moment recursion over partitions, and
        the connected part of the Chebyshev right side."""
        n_list = _perimeters(n_list)
        kappas = {}

        def kappa(sub):
            key = tuple(sorted(sub))
            if key not in kappas:
                corr = 0.0
                for part in _partitions(key):
                    if len(part) > 1:
                        prod = 1.0
                        for blk in part:
                            prod *= kappa(blk)
                        corr += prod
                kappas[key] = self._chebyshev_lhs(key) - corr
            return kappas[key]

        lhs = kappa(n_list)
        if len(n_list) > 1 and 0 in n_list:
            return lhs, 0.0  # the isolated vertex of a zero face disconnects the rest
        return lhs, self._basis_sum([_chebyshev_face(n) for n in n_list],
                                    lambda ls: self._skeleton(ls).connected)

    def verify(self, m_list, tol=1e-9):
        """Check the three exact identities at the given perimeters.

        (1) moment expansion with Catalan corrections,
        (2) Chebyshev-moment diagram expansion,
        (3) cumulants = connected diagrams (s >= 2 only).
        Returns a report dict with per-identity values and worst deviation.
        Checks on one table share its mixed moments and diagram values.
        """
        m_list = _perimeters(m_list)
        report = {"perimeters": list(m_list), "beta": self.beta,
                  "deformed": self.A is not None, "checks": {}}
        sides = {"ribbon": self.ribbon, "chebyshev": self.chebyshev}
        if len(m_list) >= 2:
            sides["cumulant"] = self.cumulant
        for name, side in sides.items():
            lhs, rhs = side(m_list)
            report["checks"][name] = {
                "lhs": lhs, "rhs": rhs, "abs_err": abs(lhs - rhs),
                "pass": bool(abs(lhs - rhs) <= tol * max(1.0, abs(lhs)))}
        if not report["checks"]["chebyshev"]["pass"]:
            top = sorted(self.chebyshev_diagrams(m_list).items(), key=lambda kv: -abs(kv[1]))[:20]
            report["checks"]["chebyshev"]["per_diagram"] = [
                {"diagram": repr(k), "value": v} for k, v in top]
        report["pass"] = all(c["pass"] for c in report["checks"].values())
        return report


def _partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def verify_expansions(m_list, profile, A=None, beta=1, tol=1e-9):
    """Check the three exact identities at the given perimeters on a new
    table (see `MomentTable.verify`)."""
    return MomentTable(profile, A, beta).verify(m_list, tol)
