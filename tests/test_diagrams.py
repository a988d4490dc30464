import itertools

import numpy as np
import pytest
from fractions import Fraction

from irmlab import diagrams as dg
from irmlab.diagrams import (
    BudgetError,
    GluingError,
    MomentTable,
    PowerCache,
    RibbonGluing,
    catalan_corrections,
    diagram_envelope,
    enumerate_gluings,
    F_direct,
    F_parity_sum,
    frak_F,
    glue,
    gluing_count,
    okounkov_contract,
    verify_expansions,
    wick_moment,
)
from irmlab.profiles import (sinkhorn_symmetric, uniform_profile, VarianceProfile,
                             wishart_profile)


def nonuniform_profile(N, seed=0):
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.5, 1.5, (N, N))
    return VarianceProfile(sinkhorn_symmetric(0.5 * (M + M.T)), kind="square")


def spike(N, val=1.3, seed=None):
    if seed is None:
        A = np.zeros((N, N))
        A[0, 0] = val
        return A
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(N)
    u /= np.linalg.norm(u)
    return val * np.outer(u, u)


def euler_characteristic(gc):
    return gc.n_vertices - len(gc.edges) + len(gc.face_steps)


class TestGlue:
    def test_two_gon_opposite_is_sphere(self):
        g = RibbonGluing((2,), frozenset(), ((0, 1),), ("opp",), 2)
        gc = glue(g)
        assert gc.n_vertices == 2 and len(gc.edges) == 1
        assert euler_characteristic(gc) == 2  # V - E + F = 2 - 1 + 1

    def test_four_gon_noncrossing_planar(self):
        g = RibbonGluing((4,), frozenset(), ((0, 1), (2, 3)), ("opp", "opp"), 2)
        gc = glue(g)
        assert euler_characteristic(gc) == 2

    def test_four_gon_crossing_torus(self):
        g = RibbonGluing((4,), frozenset(), ((0, 2), (1, 3)), ("opp", "opp"), 2)
        gc = glue(g)
        assert euler_characteristic(gc) == 0

    def test_overlapping_pairs_rejected(self):
        bad = RibbonGluing((4,), frozenset(), ((0, 1), (1, 2)), ("opp", "opp"), 2)
        with pytest.raises(GluingError):
            glue(bad)

    def test_same_direction_rejected_for_beta2(self):
        bad = RibbonGluing((2,), frozenset(), ((0, 1),), ("same",), 2)
        with pytest.raises(GluingError):
            glue(bad)


class TestContract:
    def test_catalan_gluing_is_trivial(self):
        # the fully non-crossing opposite gluing of the 6-gon is a tree: the
        # sum level counts it at lower perimeter, so it has no diagram
        g = RibbonGluing((6,), frozenset(), ((0, 1), (2, 3), (4, 5)),
                         ("opp",) * 3, 2)
        assert okounkov_contract(glue(g)) is None

    def test_crossing_four_gon_two_loops(self):
        g = RibbonGluing((4,), frozenset(), ((0, 2), (1, 3)), ("opp", "opp"), 2)
        diagram = okounkov_contract(glue(g))
        assert diagram.n_vertices == 1
        assert len(diagram.edges) == 2
        assert all(e[1] == e[2] for e in diagram.edges)  # both loops
        assert sum(diagram.edges[c][3] for c in diagram.face_boundaries[0]) == 4

    def test_weight_conservation_everywhere(self):
        for gl in enumerate_gluings((6,), 1):
            diagram = okounkov_contract(glue(gl))
            if diagram is not None:
                assert sum(diagram.edges[c][3] for c in diagram.face_boundaries[0]) == 6

    def test_euler_characteristic_preserved(self):
        # V - E is invariant under merging the edges of a chain
        for gl in enumerate_gluings((6,), 2):
            gc = glue(gl)
            diagram = okounkov_contract(gc)
            if diagram is None:
                continue
            chi_before = euler_characteristic(gc)
            chi_after = diagram.n_vertices - len(diagram.edges) + len(diagram.face_boundaries)
            assert chi_before == chi_after

    def test_degree_constraints_on_skeletons(self):
        for gl in enumerate_gluings((6,), 1):
            diagram = okounkov_contract(glue(gl))
            if diagram is None:
                continue
            deg = [0] * diagram.n_vertices
            for _, u, v, _w in diagram.edges:
                deg[u] += 1
                deg[v] += 1
            marked = set(diagram.marks)
            for v in range(diagram.n_vertices):
                assert deg[v] >= (2 if v in marked else 3)

    @staticmethod
    def _reduced(perimeters=((4,), (6,), (2, 2), (2, 4), (3, 3), (1, 3), (2, 2, 2))):
        """Every reduced diagram of the perimeters, open edges allowed, beta 1 and 2:
        one per tree-free gluing."""
        for per in perimeters:
            for beta in (1, 2):
                for gl in enumerate_gluings(per, beta, allow_open=True):
                    diagram = okounkov_contract(glue(gl))
                    if diagram is not None:
                        yield diagram

    def test_reduced_diagram_count(self):
        # tree-free gluings only: a gluing with a tree has no diagram, even
        # where collapsing its tree would leave edges behind
        assert sum(1 for _ in self._reduced()) == 1119

    def test_tree_rule_reads_the_pairing(self):
        # a gluing contains a tree exactly when it glues two cyclically
        # consecutive steps of a face in opposite orientation: degrees unused
        trees = total = 0
        for per in ((1,), (2,), (3,), (4,), (5,), (6,), (2, 2), (1, 3), (2, 4),
                    (3, 3), (1, 1, 2), (2, 2, 2)):
            _, gamma, _ = dg._faces_and_gamma(per)
            for beta in (1, 2):
                for gl in enumerate_gluings(per, beta, allow_open=True):
                    tree = any(o == "opp" and (t == gamma[s] or s == gamma[t])
                               for (s, t), o in zip(gl.pairing, gl.orientations))
                    assert (okounkov_contract(glue(gl)) is None) == tree
                    trees += tree
                    total += 1
        assert (total, trees) == (1893, 672)

    def test_chains_traversed_twice_or_once(self):
        # an interior chain borders two face sides, an open chain one
        for diagram in self._reduced():
            seen = [0] * len(diagram.edges)
            for fb in diagram.face_boundaries:
                for c in fb:
                    seen[c] += 1
            assert seen == [2 if kind == "p" else 1 for kind, *_ in diagram.edges]

    def test_face_boundaries_are_closed_walks(self):
        # open chains run tail to head; interior chains run either way
        def walk_end(diagram, fb, start):
            at = start
            for c in fb:
                kind, u, v, _ = diagram.edges[c]
                if u == at:
                    at = v
                elif v == at and kind == "p":
                    at = u
                else:
                    return None
            return at

        for diagram in self._reduced():
            for fb in diagram.face_boundaries:
                kind, u, v, _ = diagram.edges[fb[0]]
                starts = (u,) if kind == "a" else (u, v)
                assert any(walk_end(diagram, fb, s) == s for s in starts)


class TestEnumeration:
    def test_pairing_counts_beta2(self):
        assert gluing_count((4,), 2, False) == 3

    def test_orientation_doubling_beta1(self):
        gls = list(enumerate_gluings((4,), 1))
        assert len(gls) == 12  # 3 pairings x 2^2 orientations

    def test_open_arrangement(self):
        gls = [g for g in enumerate_gluings((2,), 2, allow_open=True)
               if len(g.open_edges) == 2]
        assert len(gls) == 1 and gls[0].pairing == ()

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            list(enumerate_gluings((20,), 1))


class TestDiagramFunctions:
    def test_single_loop_closed_form(self):
        # crosscap at weight sum 2: sum_x p_1(x, x) = Tr P
        g = RibbonGluing((2,), frozenset(), ((0, 1),), ("same",), 1)
        diagram = okounkov_contract(glue(g))
        prof = nonuniform_profile(4)
        powers = PowerCache(prof)
        val = frak_F(diagram, [2], powers)
        assert val == pytest.approx(np.trace(prof.variances))
        # weight sum 4 forces w = 2: Tr P^2
        val = frak_F(diagram, [4], powers)
        assert val == pytest.approx(np.trace(prof.variances @ prof.variances))

    def test_F_zero_when_face_budget_zero(self):
        g = RibbonGluing((2,), frozenset(), ((0, 1),), ("same",), 1)
        diagram = okounkov_contract(glue(g))
        powers = PowerCache(uniform_profile(3))
        assert F_direct(diagram, [0], powers) == 0.0

    def test_F_paths_agree_random_cases(self):
        rng = np.random.default_rng(5)
        prof = nonuniform_profile(3, seed=2)
        A = spike(3, 0.9, seed=3)
        powers = PowerCache(prof, A)
        count = 0
        pool = []
        for gl in enumerate_gluings((4,), 1, allow_open=True):
            diagram = okounkov_contract(glue(gl))
            if diagram is not None:
                pool.append(diagram)
        for diagram in pool:
            for n in (4, 6, 7, 8):
                a = F_direct(diagram, [n], powers)
                b = F_parity_sum(diagram, [n], powers)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a))
                count += 1
        assert count >= 20

    def test_uniform_profile_reference(self):
        # with sigma^2 = 1/N every interior factor is 1/N: F equals the
        # mean-field reference computed directly from the weight counts
        g = RibbonGluing((4,), frozenset(), ((0, 2), (1, 3)), ("opp", "opp"), 2)
        diagram = okounkov_contract(glue(g))
        N = 5
        powers = PowerCache(uniform_profile(N))
        val = frak_F(diagram, [4], powers)
        assert val == pytest.approx(N * (1.0 / N) ** 2)


class TestCatalanCorrections:
    def test_b2_zero(self):
        assert catalan_corrections(2) == 0

    def test_b4_one(self):
        assert catalan_corrections(4) == 1

    def test_odd_zero(self):
        assert catalan_corrections(5) == 0

    def test_b0(self):
        assert catalan_corrections(0) == Fraction(-1, 2)


class TestWickOracle:
    def test_centered_first_moment(self):
        assert wick_moment([1], uniform_profile(3), None, 1) == 0.0

    def test_trace_square_real(self):
        # E Tr H^2 = sum_{x != y} s2 + 2 sum_x s2_xx = 1 + 2 = 3 at N = 2
        assert wick_moment([2], uniform_profile(2), None, 1) == pytest.approx(3.0)

    def test_trace_square_complex(self):
        assert wick_moment([2], uniform_profile(2), None, 2) == pytest.approx(2.0)

    def test_deformation_only(self):
        A = spike(3, 0.7)
        assert wick_moment([1], uniform_profile(3), A, 1) == pytest.approx(0.7)
        # E Tr X^3 = a^3 + 3 a E[(H^2)_00] with E[(H^2)_00] = 2/3 + 2/3
        assert wick_moment([3], uniform_profile(3), A, 1) == pytest.approx(
            0.7 ** 3 + 3 * 0.7 * (2 / 3 + 2 / 3))

    def test_goe_quartic_closed_form(self):
        # E Tr H^4 = 2N + 5 + 5/N for the uniform real profile
        for N in (2, 3, 4):
            got = wick_moment([4], uniform_profile(N), None, 1)
            assert got == pytest.approx(2 * N + 5 + 5.0 / N)

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            wick_moment([12], uniform_profile(5), None, 1)

    @staticmethod
    def reference(m_list, prof, A, beta):
        """Scalar walk over the index tuples in lexicographic order: the entry
        counts of a tuple in a dict (first-occurrence order), their factors
        multiplied in that order, the tuple values added one after another."""
        P = prof.variances
        N, A = P.shape[0], np.zeros_like(P) if A is None else A
        ms = [m for m in m_list if m > 0]
        total = 0.0
        for xs in itertools.product(range(N), repeat=sum(ms)):
            counts, start = {}, 0
            for m in ms:
                face, start = xs[start:start + m], start + m
                for x, y in zip(face, face[1:] + face[:1]):
                    key = (min(x, y), max(x, y))
                    if beta == 1 or x == y:
                        counts[key] = counts.get(key, 0) + 1
                    else:
                        u, v = counts.get(key, (0, 0))
                        counts[key] = (u + (x < y), v + (x > y))
            val = 1.0
            for (x, y), c in counts.items():
                val *= dg._entry_factor(P, A, beta, x, y, c)
            total += val
        return total * N ** (len(m_list) - len(ms))

    @staticmethod
    def deformations(N, beta):
        """None, a spike and a real symmetric A; a complex Hermitian one at beta 2."""
        rng = np.random.default_rng(N)
        R = rng.standard_normal((N, N))
        C = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        return [None, spike(N, 1.1), R + R.T] + ([C + C.conj().T] if beta == 2 else [])

    @pytest.mark.parametrize("beta", [1, 2])
    @pytest.mark.parametrize("N", [2, 3])
    def test_bits_match_scalar_reference(self, N, beta):
        prof = nonuniform_profile(N, seed=N)
        for A in self.deformations(N, beta):
            for ms in ([1], [2], [3], [4], [5], [6], [2, 2], [1, 2], [0, 3], [2, 0, 2]):
                assert wick_moment(ms, prof, A, beta) == self.reference(ms, prof, A, beta)

    @pytest.mark.parametrize("beta", [1, 2])
    def test_fills_only_the_factors_it_uses(self, monkeypatch, beta):
        # Tr X^2 meets each entry x <= y with one count code: N (N + 1) / 2 factors
        calls = []

        def counting(*args):
            calls.append(args[3:])
            return entry_factor(*args)

        N = 5
        prof = nonuniform_profile(N, seed=2)
        want = self.reference([2], prof, None, beta)
        entry_factor = dg._entry_factor
        monkeypatch.setattr(dg, "_entry_factor", counting)
        assert wick_moment([2], prof, None, beta) == want
        assert len(calls) == len(set(calls)) == N * (N + 1) // 2

    @pytest.mark.parametrize("beta", [1, 2])
    def test_bits_match_over_several_blocks(self, beta):
        # 3^7 = 2187 tuples in blocks of 3^L <= WICK_BLOCK: at least three blocks
        assert 3 ** dg._low_digits(3, 7) <= dg.WICK_BLOCK
        assert 3 ** 7 >= 3 * 3 ** dg._low_digits(3, 7)
        prof = nonuniform_profile(3, seed=5)
        for A in self.deformations(3, beta):
            assert wick_moment([7], prof, A, beta) == self.reference([7], prof, A, beta)

    # float.hex of wick_moment before the oracle moved to digit-table blocks:
    # (N, profile, spike, beta, perimeters, value); many blocks at N = 4,
    # k = 8, and one block of one tuple at N = 1
    PINNED = [
        (4, "uniform", 0.0, 1, (8,), "0x1.2594000000000p+8"),
        (4, "uniform", 1.1, 1, (8,), "0x1.9e1be46f96308p+9"),
        (4, "sinkhorn", 0.0, 1, (8,), "0x1.2ee893eab9ca2p+8"),
        (4, "sinkhorn", 1.1, 1, (8,), "0x1.db6d6305532ecp+9"),
        (4, "uniform", 0.0, 2, (8,), "0x1.2750000000000p+6"),
        (4, "uniform", 1.1, 2, (8,), "0x1.214a886ef9d18p+8"),
        (4, "sinkhorn", 0.0, 2, (8,), "0x1.2a18b6110fe02p+6"),
        (4, "sinkhorn", 1.1, 2, (8,), "0x1.36fc02813ed36p+8"),
        (4, "uniform", 0.0, 1, (2, 4), "0x1.8f00000000000p+6"),
        (4, "uniform", 1.1, 1, (2, 4), "0x1.8d9c727dcbdf5p+7"),
        (4, "sinkhorn", 0.0, 1, (2, 4), "0x1.9613bfcc550b0p+6"),
        (4, "sinkhorn", 1.1, 1, (2, 4), "0x1.a4e9628e509f1p+7"),
        (4, "uniform", 0.0, 2, (2, 4), "0x1.4a00000000000p+5"),
        (4, "uniform", 1.1, 2, (2, 4), "0x1.894c66d373b15p+6"),
        (4, "sinkhorn", 0.0, 2, (2, 4), "0x1.4b71d47cb77a7p+5"),
        (4, "sinkhorn", 1.1, 2, (2, 4), "0x1.94cdd340acbf6p+6"),
        (4, "uniform", 0.0, 1, (3, 3), "0x1.4100000000000p+5"),
        (4, "uniform", 1.1, 1, (3, 3), "0x1.8e7d944aa5409p+6"),
        (4, "sinkhorn", 0.0, 1, (3, 3), "0x1.49ded0bb7d880p+5"),
        (4, "sinkhorn", 1.1, 1, (3, 3), "0x1.b53cca84e357bp+6"),
        (4, "uniform", 0.0, 2, (3, 3), "0x1.8600000000000p+3"),
        (4, "uniform", 1.1, 2, (3, 3), "0x1.6e35454152b09p+5"),
        (4, "sinkhorn", 0.0, 2, (3, 3), "0x1.8b4852fcbed6ep+3"),
        (4, "sinkhorn", 1.1, 2, (3, 3), "0x1.80b0f34ea875bp+5"),
        (4, "sinkhorn", 1.1, 2, (0,), "0x1.0000000000000p+2"),
        (1, "uniform", 0.0, 1, (4,), "0x1.8000000000000p+3"),
        (1, "uniform", 1.1, 1, (4,), "0x1.bfbedfa43fe5ep+4"),
        (1, "uniform", 0.0, 2, (4,), "0x1.8000000000000p+1"),
        (1, "uniform", 1.1, 2, (4,), "0x1.772bd3c361135p+3"),
        (1, "uniform", 0.0, 1, (2, 0, 2), "0x1.8000000000000p+3"),
        (1, "uniform", 1.1, 1, (2, 0, 2), "0x1.bfbedfa43fe5ep+4"),
        (1, "uniform", 0.0, 2, (2, 0, 2), "0x1.8000000000000p+1"),
        (1, "uniform", 1.1, 2, (2, 0, 2), "0x1.772bd3c361135p+3"),
        (1, "uniform", 0.0, 1, (0,), "0x1.0000000000000p+0"),
    ]

    @pytest.mark.parametrize("N, name, a, beta, ms, want", PINNED)
    def test_pinned_bits(self, N, name, a, beta, ms, want):
        prof = uniform_profile(N) if name == "uniform" else nonuniform_profile(N, seed=N)
        assert wick_moment(list(ms), prof, spike(N, a) if a else None, beta).hex() == want

    @staticmethod
    def cold_warm_streamed(monkeypatch, ms, prof, A, beta):
        """The value from a new plan, from the cached plan, and streamed past
        the plan cache (which that call must leave as it was)."""
        dg._wick_plan.cache_clear()
        cold = wick_moment(list(ms), prof, A, beta)
        warm = wick_moment(list(ms), prof, A, beta)
        cache = dg._wick_plan.cache_info()
        assert cache.hits == cache.misses == (1 if any(ms) else 0)
        with monkeypatch.context() as m:
            m.setattr(dg, "WICK_PLAN_BYTES", 0)
            streamed = wick_moment(list(ms), prof, A, beta)
        assert dg._wick_plan.cache_info() == cache
        return cold, warm, streamed

    @pytest.mark.parametrize("N, name, a, beta, ms, want", PINNED)
    def test_pinned_bits_cold_warm_streamed(self, monkeypatch, N, name, a, beta, ms, want):
        prof = uniform_profile(N) if name == "uniform" else nonuniform_profile(N, seed=N)
        got = self.cold_warm_streamed(monkeypatch, ms, prof, spike(N, a) if a else None, beta)
        assert [v.hex() for v in got] == [want] * 3

    @pytest.mark.parametrize("beta", [1, 2])
    def test_reference_bits_cold_warm_streamed(self, monkeypatch, beta):
        prof = nonuniform_profile(3, seed=3)
        for A in self.deformations(3, beta):
            for ms in ([3], [6], [2, 2], [0, 3], [1, 2, 2]):
                want = self.reference(ms, prof, A, beta)
                assert self.cold_warm_streamed(monkeypatch, ms, prof, A, beta) == (want,) * 3

    def test_plan_indices_are_compact(self):
        # (8,) at N = 4, the largest table of an exact-identities pass, is kept:
        # its 65,536 tuples x 8 steps take one byte each at beta 1 and 2
        for beta in (1, 2):
            assert 8 * 4 ** 8 * np.min_scalar_type(dg._slot_count(8, 4, beta)).itemsize \
                <= dg.WICK_PLAN_BYTES
            plan = dg._wick_plan((8,), 4, beta)
            assert {block.dtype for block in plan.index} == {np.dtype(np.uint8)}
            assert sum(block.nbytes for block in plan.index) == 8 * 4 ** 8
            assert len(plan.slots) == len(set(plan.slots.tolist())) <= 256


class TestMalformedInputs:
    """The identities refuse what would give a false verdict, NaN on both
    sides or a bare numpy error, at table construction and in the oracle."""

    @staticmethod
    def refused(profile, A, beta, match):
        with pytest.raises(GluingError, match=match):
            MomentTable(profile, A, beta)
        with pytest.raises(GluingError, match=match):
            wick_moment([2], profile, A, beta)

    @pytest.mark.parametrize("beta", [1, 2])
    def test_non_square_profile(self, beta):
        self.refused(wishart_profile(2, 3), None, beta, "square profile")

    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (3,), (3, 3, 1)])
    def test_deformation_shape(self, shape):
        self.refused(uniform_profile(3), np.zeros(shape), 1, "shape")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("beta", [1, 2])
    def test_non_finite_deformation(self, bad, beta):
        self.refused(uniform_profile(3), spike(3, bad), beta, "finite")

    @pytest.mark.parametrize("beta", [1, 2])
    def test_non_hermitian_deformation(self, beta):
        A = spike(3, 0.5)
        A[0, 1] = 0.7
        self.refused(uniform_profile(3), A, beta, "Hermitian")
        C = np.zeros((3, 3), dtype=complex)
        C[0, 1] = C[1, 0] = 0.5j
        self.refused(uniform_profile(3), C, 2, "Hermitian")

    def test_complex_deformation_at_beta_1(self):
        C = np.zeros((3, 3), dtype=complex)
        C[0, 1], C[1, 0] = 0.5j, -0.5j
        self.refused(uniform_profile(3), C, 1, "real at beta = 1")
        # the same matrix at beta 2, and a complex dtype with real entries at beta 1, pass
        assert verify_expansions([2, 2], uniform_profile(3), C, 2)["pass"]
        assert verify_expansions([3], uniform_profile(3), spike(3).astype(complex), 1)["pass"]

    # a perimeter that is not a non-negative integer is refused: never cut to an
    # integer (2.5 to 2, True to 1), read as a zero face (-2), or left to raise a
    # bare ZeroDivisionError or TypeError deep in a table
    BAD_PERIMETERS = {"fraction": [2.5], "negative": [-2], "bool": [True, 2]}
    ENTRIES = {
        "wick_moment": lambda ms: wick_moment(ms, uniform_profile(3)),
        "verify_expansions": lambda ms: verify_expansions(ms, uniform_profile(3)),
        "ribbon": lambda ms: MomentTable(uniform_profile(3)).ribbon(ms),
        "chebyshev": lambda ms: MomentTable(uniform_profile(3)).chebyshev(ms),
        "chebyshev_diagrams": lambda ms: MomentTable(uniform_profile(3)).chebyshev_diagrams(ms),
        "cumulant": lambda ms: MomentTable(uniform_profile(3)).cumulant(ms),
        "verify": lambda ms: MomentTable(uniform_profile(3)).verify(ms),
        # the budget guard counts the same tuple the enumerator walks
        "gluing_count": lambda ms: gluing_count(ms, 1, False),
        "enumerate_gluings": lambda ms: list(enumerate_gluings(ms, 1)),
    }

    @pytest.mark.parametrize("case", sorted(BAD_PERIMETERS))
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_malformed_perimeters(self, entry, case):
        with pytest.raises(GluingError, match="non-negative integers"):
            self.ENTRIES[entry](self.BAD_PERIMETERS[case])

    def test_numpy_integer_perimeters(self):
        ms = np.array([2, 2], dtype=np.int16)
        assert wick_moment(ms, uniform_profile(3)) == wick_moment([2, 2], uniform_profile(3))
        rep = verify_expansions(ms, uniform_profile(3))
        assert rep["pass"] and [type(m) for m in rep["perimeters"]] == [int, int]


class TestRibbonExpansion:
    @pytest.mark.parametrize("beta", [1, 2])
    def test_single_trace_uniform(self, beta):
        table = MomentTable(uniform_profile(3), None, beta)
        for m in range(1, 7):
            lhs, rhs = table.ribbon([m])
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("beta", [1, 2])
    def test_single_trace_nonuniform_deformed(self, beta):
        prof = nonuniform_profile(3, seed=7)
        table = MomentTable(prof, spike(3, 1.1, seed=11), beta)
        for m in range(1, 7):
            lhs, rhs = table.ribbon([m])
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_two_traces(self):
        table = MomentTable(nonuniform_profile(3, seed=1), None, 1)
        for ms in ([2, 2], [2, 4], [3, 3]):
            lhs, rhs = table.ribbon(ms)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_m_zero_halving(self):
        lhs, rhs = MomentTable(uniform_profile(4), None, 1).ribbon([0])
        assert lhs == pytest.approx(2.0)
        assert rhs == pytest.approx(2.0)


class TestChebyshevExpansion:
    def test_u2_is_trace_minus_n(self):
        prof = uniform_profile(3)
        lhs, rhs = MomentTable(prof, None, 1).chebyshev([2])
        assert lhs == pytest.approx(wick_moment([2], prof, None, 1) - 3.0)
        assert rhs == pytest.approx(np.trace(prof.variances))
        assert lhs == pytest.approx(rhs)

    @pytest.mark.parametrize("beta", [1, 2])
    def test_deformed_grid(self, beta):
        prof = nonuniform_profile(3, seed=4)
        table = MomentTable(prof, spike(3, 0.8, seed=5), beta)
        for n in range(1, 7):
            lhs, rhs = table.chebyshev([n])
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_zero_index(self):
        assert MomentTable(uniform_profile(4), None, 1).chebyshev([0]) == (4.0, 4.0)


class TestChebyshevDiagrams:
    # per-diagram terms of the Chebyshev right side: values and dict order
    PINNED = [
        (((("p", 0, 0, 1), ("p", 1, 1, 1)), ((0, 0), (1, 1)), (0, 1), 1), 1.4601921571128424),
        (((("p", 0, 1, 1), ("p", 1, 0, 1)), ((0, 1), (0, 1)), (0, 1), 1), 1.0415334074892941),
        (((("p", 0, 0, 1), ("p", 0, 0, 1)), ((0, 1), (0, 1)), (0, 0), 1), 0.9866757306453773),
        (((("p", 0, 0, 2),), ((0,), (0,)), (0, 0), 1), 2.0830668149785883),
        (((("p", 0, 0, 1), ("p", 0, 0, 1)), ((0, 1), (1, 0)), (0, 0), 1), 0.9866757306453773),
        (((("p", 0, 1, 1), ("p", 1, 0, 1)), ((0, 1), (1, 0)), (0, 1), 1), 1.0415334074892941),
    ]

    def test_pinned_values(self):
        got = MomentTable(nonuniform_profile(3, seed=4), None, 1).chebyshev_diagrams([2, 2])
        assert list(got.items()) == self.PINNED

    @pytest.mark.parametrize("beta", [1, 2])
    @pytest.mark.parametrize("ns", [[3], [4], [2, 2], [2, 1]])
    def test_terms_sum_to_right_side(self, beta, ns):
        for A in (None, spike(3, 0.8, seed=5)):
            table = MomentTable(nonuniform_profile(3, seed=4), A, beta)
            _, rhs = table.chebyshev(ns)
            assert sum(table.chebyshev_diagrams(ns).values()) == pytest.approx(rhs, rel=1e-12,
                                                                               abs=1e-12)


class TestCumulants:
    @pytest.mark.parametrize("beta", [1, 2])
    @pytest.mark.parametrize("ns", [(2, 2), (3, 3)])
    def test_covariance_equals_connected(self, beta, ns):
        lhs, rhs = MomentTable(nonuniform_profile(3, seed=9), None, beta).cumulant(list(ns))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_parity_vanishing(self):
        # odd total weight with no deformation: no pairings at all
        lhs, rhs = MomentTable(uniform_profile(3), None, 1).chebyshev([3])
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)


class TestEnvelope:
    def test_prop_bound_on_closed_diagrams(self):
        # certified uniform profile: t_N = 1, gamma = 1
        prof = uniform_profile(4)
        powers = PowerCache(prof)
        for gl in enumerate_gluings((6,), 1):
            diagram = okounkov_contract(glue(gl))
            if diagram is None or not diagram.is_connected():
                continue
            n = 6
            val = abs(F_direct(diagram, [n], powers))
            assert val <= diagram_envelope(diagram, n, 1.0, 1, 4) * (1 + 1e-9)


class TestVerifyReport:
    def test_report_shape(self):
        rep = verify_expansions([2, 2], uniform_profile(3), None, 1)
        assert rep["pass"]
        assert set(rep["checks"]) == {"ribbon", "chebyshev", "cumulant"}

    def test_single_trace_report(self):
        rep = verify_expansions([4], uniform_profile(2), spike(2, 0.5), 2)
        assert rep["pass"]
        assert "cumulant" not in rep["checks"]

    def test_one_wick_call_per_key(self, monkeypatch):
        # ribbon, Chebyshev and cumulant sides share one cache of mixed moments
        keys = []

        def counting(m_list, *args, **kwargs):
            keys.append(tuple(m_list))
            return wick_moment(m_list, *args, **kwargs)

        monkeypatch.setattr(dg, "wick_moment", counting)
        rep = verify_expansions([2, 2], uniform_profile(3), None, 1)
        assert rep["pass"]
        assert sorted(keys) == sorted(set(keys)) == [(2,), (2, 2)]

    @pytest.mark.parametrize("args", [
        ([2, 2], uniform_profile(3), None, 1),
        ([4], uniform_profile(2), spike(2, 0.5), 2),
    ])
    def test_one_enumeration_per_perimeter_tuple(self, monkeypatch, args):
        # the ribbon, Chebyshev and cumulant right sides read one skeleton
        # enumeration per perimeter tuple
        dg._topology.cache_clear()
        calls = self.count_enumerations(monkeypatch)
        assert verify_expansions(*args)["pass"]
        assert calls and len(calls) == len(set(calls))

    @staticmethod
    def count_enumerations(monkeypatch):
        calls = []

        def counting(perimeters, *rest, **kwargs):
            calls.append(tuple(perimeters))
            return enumerate_gluings(perimeters, *rest, **kwargs)

        monkeypatch.setattr(dg, "enumerate_gluings", counting)
        return calls

    @pytest.mark.parametrize("deformed", [False, True])
    def test_tables_share_one_enumeration_per_tuple(self, monkeypatch, deformed):
        # the topology of a perimeter tuple depends on beta and open-ness only
        dg._topology.cache_clear()
        calls = self.count_enumerations(monkeypatch)
        sides = []
        for N in (3, 4):
            A = spike(N) if deformed else None
            for prof in (uniform_profile(N), nonuniform_profile(N, seed=N)):
                table = MomentTable(prof, A, 2)
                sides.append((table.ribbon([4]), table.chebyshev([2, 2]), table.cumulant([2, 2])))
        assert calls and len(calls) == len(set(calls))
        assert {(4,), (2,), (2, 2)} <= set(calls)
        for ribbon, chebyshev, cumulant in sides:
            for lhs, rhs in (ribbon, chebyshev, cumulant):
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_tables_share_one_wick_plan_per_key(self, monkeypatch):
        # the slot plan of a moment depends on (perimeters, N, beta) only
        dg._wick_plan.cache_clear()
        builds = []

        def counting(ms, N, beta):
            builds.append((ms, N, beta))
            return slot_blocks(ms, N, beta)

        slot_blocks = dg._slot_blocks
        monkeypatch.setattr(dg, "_slot_blocks", counting)
        keys = set()
        for N in (3, 4):
            for beta in (1, 2):
                for prof, A in ((uniform_profile(N), None),
                                (nonuniform_profile(N, seed=N), spike(N, 0.9, seed=N))):
                    table = MomentTable(prof, A, beta)
                    assert table.verify([2, 3])["pass"]
                    keys |= {(ms, N, beta) for ms in table._wick}
        assert len(builds) == len(set(builds)) == len(keys) > 8
        assert set(builds) == keys

    @pytest.mark.parametrize("beta", [1, 2])
    def test_one_value_per_distinct_edge_list(self, monkeypatch, beta):
        # diagram_value reads the edge list only: diagrams of one topology that
        # share it are evaluated once, and the per-diagram terms do not move
        prof, A = nonuniform_profile(3, seed=4), spike(3, 0.8, seed=5)
        calls = []

        def counting(diagram, powers, weights=None):
            calls.append(diagram.edges)
            return diagram_value(diagram, powers, weights)

        diagram_value = dg.diagram_value
        monkeypatch.setattr(dg, "diagram_value", counting)
        got = MomentTable(prof, A, beta).chebyshev_diagrams([5])
        want, distinct, total = {}, 0, 0
        for ls in ((1,), (3,), (5,)):
            topo = dg._topology(ls, beta, True)
            values = [diagram_value(d, PowerCache(prof, A)) for d in topo.diagrams]
            sums = [0.0] * len(values)
            for i in topo.index:
                sums[i] += values[i]
            want.update((d.structure_key(), v) for d, v in zip(topo.diagrams, sums))
            distinct += len({d.edges for d in topo.diagrams})
            total += len(topo.diagrams)
        assert len(calls) == len(set(calls)) == distinct < total
        assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize("tol", [1e-9, -1.0])
    def test_cold_and_warm_cache_agree(self, tol):
        # tol < 0 fails every check, so the report also lists the per-diagram terms
        args = ([2, 3], nonuniform_profile(3, seed=6), spike(3, 0.9, seed=1), 1)
        dg._topology.cache_clear()
        cold = verify_expansions(*args, tol=tol)
        warm = verify_expansions(*args, tol=tol)
        assert dg._topology.cache_info().hits
        assert cold == warm
        assert ("per_diagram" in cold["checks"]["chebyshev"]) == (tol < 0)

    def test_power_independent_of_request_order(self):
        prof = nonuniform_profile(4, seed=3)
        A = spike(4, 0.9, seed=2)
        up, down = PowerCache(prof, A), PowerCache(prof, A)
        for w in range(1, 8):
            up.p(w), up.a(w)
        for w in range(7, 0, -1):
            assert np.array_equal(down.p(w), up.p(w))
            assert np.array_equal(down.a(w), up.a(w))
