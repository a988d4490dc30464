import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from irmlab import edgestats, ensembles, profiles
from irmlab.edgestats import (
    EdgeStatError,
    bbp_test,
    ks_2sample,
    lift_adjacency,
    lift_spectrum_check,
    random_edge_signs,
    rescale_edge,
    tail_estimate,
    tails_compatible,
    universality_test,
    wilson_interval,
)
from irmlab.profiles import (block_wegner_profile, random_regular_adjacency, uniform_profile,
                             wishart_profile)


def _tridiagonal_eigs(a, b):
    return np.linalg.eigvalsh(np.diag(a) + np.diag(b, 1) + np.diag(b, -1))[::-1]


def _dense_top(spec, k, replicas):
    return np.array([np.linalg.eigvalsh(ensembles.sample(spec, r))[::-1][:k]
                     for r in range(replicas)])


SPIKE = ensembles.Deformation(taus=(0.5,))


def _block_profile(shapes, kind):
    """Block-diagonal profile with every entry of an m x n block exactly 1/n."""
    V = np.zeros(tuple(map(sum, zip(*shapes))))
    i = j = 0
    for m, n in shapes:
        V[i:i + m, j:j + n] = 1.0 / n
        i, j = i + m, j + n
    return profiles.VarianceProfile(V, kind=kind).validate()


HERMITE_12_20 = _block_profile([(12, 12), (20, 20)], "square")
LAGUERRE_2_BLOCKS = _block_profile([(8, 16), (12, 24)], "bipartite")


class TestTridiagonalTop:
    def _cases(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 17, 60):
            yield rng.standard_normal((4, n)), rng.standard_normal((4, n - 1))
        a, b = rng.standard_normal((3, 30)), rng.standard_normal((3, 29))
        b[:, [0, 14, 28]] = 0.0                        # splits, one at each end
        yield a, b
        yield np.ones((2, 12)), np.zeros((2, 11))      # one eigenvalue 12 times
        block = np.tile([0.3, -0.2, 0.5], 4)           # four equal blocks: triples
        yield np.tile(block, (2, 1)), np.tile(np.tile([0.7, 1.1, 0.0], 4)[:-1], (2, 1))
        for beta in (1, 2):
            for deformation in (None, SPIKE):
                spec = dataclasses.replace(ensembles.goe_reference_spec(40, beta, deformation),
                                           seed=beta)
                yield ensembles.sample_tridiagonal(spec, 5)
                spec = ensembles.EnsembleSpec(beta=beta, profile=HERMITE_12_20,
                                              deformation=deformation, seed=beta)
                yield ensembles.sample_tridiagonal(spec, 5)
            for prof in (wishart_profile(15, 20), wishart_profile(20, 20), LAGUERRE_2_BLOCKS):
                spec = ensembles.EnsembleSpec(model="wishart", beta=beta, profile=prof, seed=beta)
                yield ensembles.sample_tridiagonal(spec, 5)

    def test_matches_eigvalsh(self):
        for a, b in self._cases():
            n = a.shape[1]
            for k in {1, min(3, n), n}:
                top = edgestats.tridiagonal_top(a, b, k)
                ref = np.array([_tridiagonal_eigs(ar, br)[:k] for ar, br in zip(a, b)])
                assert np.max(np.abs(top - ref)) <= 1e-12

    @pytest.mark.parametrize("beta", [1, 2])
    @pytest.mark.parametrize("shapes", [[(15, 20)], [(20, 20)], [(8, 16), (12, 24)]])
    def test_laguerre_top_matches_bidiagonal(self, beta, shapes):
        # T = B B^T / n: the top of the model's tridiagonal against eigvalsh
        # of B B^T / n, with B rebuilt per block from the same stream
        spec = ensembles.EnsembleSpec(model="wishart", beta=beta, seed=3,
                                      profile=_block_profile(shapes, "bipartite"))
        M = spec.profile.n_rows
        top = edgestats.tridiagonal_top(*ensembles.sample_tridiagonal(spec, 4), M)
        for r in range(4):
            rng = ensembles.rng_for(3, r, 2)
            d = np.sqrt(rng.chisquare(np.concatenate(
                [beta * np.arange(n, n - m, -1) for m, n in shapes])) / beta)
            s = np.sqrt(rng.chisquare(np.concatenate(
                [beta * np.arange(m - 1, 0, -1) for m, _ in shapes])) / beta)
            B, i, j = np.zeros((M, M)), 0, 0
            for m, n in shapes:
                B[i:i + m, i:i + m] = (np.diag(d[i:i + m]) + np.diag(s[j:j + m - 1], -1)
                                       ) / math.sqrt(n)
                i, j = i + m, j + m - 1
            ref = np.linalg.eigvalsh(B @ B.T)[::-1]
            assert np.max(np.abs(top[r] - ref)) <= 1e-12

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_outside_the_matrix_refused(self, k):
        with pytest.raises(EdgeStatError):
            edgestats.tridiagonal_top(np.zeros((1, 3)), np.zeros((1, 2)), k)

    @pytest.mark.parametrize("which, value", [("a", np.nan), ("b", np.nan), ("a", np.inf),
                                              ("b", -np.inf)])
    def test_non_finite_entries_refused(self, which, value):
        # a NaN bracket never equals itself, so multisection would never stop
        a, b = np.zeros((2, 5)), np.ones((2, 4))
        (a if which == "a" else b)[:, 0] = value
        with pytest.raises(EdgeStatError, match="finite"):
            edgestats.tridiagonal_top(a, b, 2)

    @pytest.mark.parametrize("beta", [1, 2])
    @pytest.mark.parametrize("deformation", [None, SPIKE])
    def test_same_law_as_dense(self, beta, deformation):
        # the tridiagonal draw (stream block 2) against dense draws (block 0)
        # of the same spec: 1000 replicas at N = 50, each of 8 p-values > 1e-3
        spec = ensembles.goe_reference_spec(50, beta, deformation)
        assert ensembles.has_tridiagonal_model(spec)
        tri, dense = edgestats.top_eigenvalues(spec, 2, 1000), _dense_top(spec, 2, 1000)
        for i in range(2):
            assert ks_2sample(tri[:, i], dense[:, i])[1] > 1e-3

    @pytest.mark.parametrize("spec", [
        *(ensembles.EnsembleSpec(beta=beta, profile=HERMITE_12_20, deformation=deformation)
          for beta in (1, 2) for deformation in (None, SPIKE)),
        *(ensembles.EnsembleSpec(model="wishart", beta=beta, profile=wishart_profile(M, 20))
          for beta in (1, 2) for M in (12, 20)),
        ensembles.EnsembleSpec(model="wishart", profile=LAGUERRE_2_BLOCKS),
        # the block-diagonal control and a uniform Wishart: once dense, now models
        ensembles.EnsembleSpec(profile=block_wegner_profile(2, 10, 0.0)),
        ensembles.EnsembleSpec(model="wishart", profile=wishart_profile(15, 20)),
    ])
    def test_block_models_same_law_as_dense(self, spec):
        # each block's Hermite or Laguerre model (stream block 2) against dense
        # draws of the same spec: 1000 replicas, each of 2 p-values > 1e-3
        assert ensembles.has_tridiagonal_model(spec)
        tri, dense = edgestats.top_eigenvalues(spec, 2, 1000), _dense_top(spec, 2, 1000)
        for i in range(2):
            assert ks_2sample(tri[:, i], dense[:, i])[1] > 1e-3

    @pytest.mark.parametrize("spec", [
        ensembles.EnsembleSpec(profile=block_wegner_profile(2, 10, 0.4)),
        ensembles.EnsembleSpec(entry_law="theta_goe", theta=2.0, profile=uniform_profile(20)),
        ensembles.goe_reference_spec(20, deformation=ensembles.Deformation(taus=(0.5, 1.0))),
        ensembles.goe_reference_spec(20, 2, ensembles.Deformation(taus=(0.5, 1.0))),
        ensembles.EnsembleSpec(model="wishart", profile=wishart_profile(15, 20, builder="banded")),
    ])
    def test_other_specs_stay_dense(self, spec):
        assert not ensembles.has_tridiagonal_model(spec)
        assert np.array_equal(edgestats.top_eigenvalues(spec, 3, 4), _dense_top(spec, 3, 4))

    @pytest.mark.parametrize("spec, sizes", [
        (ensembles.EnsembleSpec(entry_law="theta_goe", theta=2.0,
                                profile=block_wegner_profile(2, 10, 0.0)), [10, 10]),
        (ensembles.EnsembleSpec(profile=block_wegner_profile(3, 4, 0.0), beta=2,
                                deformation=ensembles.Deformation(taus=(0.5, 0.2))),
         [4, 4, 4]),
        # the deformation is diagonal, so it joins no two blocks
        (ensembles.EnsembleSpec(profile=block_wegner_profile(2, 10, 0.0),
                                deformation=ensembles.Deformation(taus=(0.5, 1.0))),
         [10, 10]),
        (ensembles.EnsembleSpec(profile=block_wegner_profile(2, 10, 0.4)), [20]),
        (ensembles.EnsembleSpec(model="wishart", entry_law="theta_goe", theta=2.0,
                                profile=profiles.VarianceProfile(
                                    np.kron(np.eye(2), np.full((3, 5), 0.2)), kind="bipartite")),
         [3, 3]),
    ])
    def test_reducible_profiles_split(self, spec, sizes):
        assert not ensembles.has_tridiagonal_model(spec)
        blocks = ensembles.support_blocks(spec)
        assert [len(c) for c in blocks] == sizes
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(sum(sizes)))
        k = sum(sizes)
        top, dense = edgestats.top_eigenvalues(spec, k, 3), _dense_top(spec, k, 3)
        assert np.max(np.abs(top - dense)) <= 1e-12


class TestRescale:
    def test_affine_order_preserving(self):
        lam = np.array([[2.1, 2.0], [1.9, 1.8]])
        r = rescale_edge(lam, 64)
        assert np.argmax(r[0]) == np.argmax(lam[0])

    def test_wigner_edge_location(self):
        assert rescale_edge(np.array([2.0]), 27)[0] == 0.0

    def test_wishart_edges(self):
        lamp = (1 + math.sqrt(0.25)) ** 2
        assert rescale_edge(np.array([lamp]), 27, model="wishart", alpha=0.25)[0] == pytest.approx(0.0)


def _gap_pair(n, k):
    """Two samples of size n whose KS gap is k: b is a moved up by k - 1/2,
    so the counts are (k, 0) at a's k-th value, ..., (n, n - k) at its last."""
    a = np.arange(float(n))
    return a, a + (k - 0.5 if k else 0.0)


class TestKS:
    def test_statistic_identical_samples(self):
        a = np.arange(10.0)
        assert ks_2sample(a, a)[0] == 0.0

    def test_statistic_disjoint(self):
        assert ks_2sample(np.zeros(5), np.ones(5))[0] == 1.0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_tail_matches_enumeration(self, n):
        # the largest |walk| over all C(2n, n) interleavings of a's and b's
        total = math.comb(2 * n, n)
        hist = [0] * (n + 1)
        for ups in itertools.combinations(range(2 * n), n):
            up, walk, top = set(ups), 0, 0
            for i in range(2 * n):
                walk += 1 if i in up else -1
                top = max(top, abs(walk))
            hist[top] += 1
        for k in range(n + 1):
            d, p = ks_2sample(*_gap_pair(n, k))
            assert d == k / n
            assert p == float(Fraction(sum(hist[k:]), total))

    @pytest.mark.parametrize("n", [50, 300])
    def test_tail_non_increasing(self, n):
        ps = [ks_2sample(*_gap_pair(n, k))[1] for k in range(n + 1)]
        assert ps[0] == ps[1] == 1.0
        assert all(p >= q for p, q in zip(ps, ps[1:]))

    def test_asymptotic_tail_too_small(self):
        # Kolmogorov's limit series at Stephens' effective size n/2, the
        # usual asymptotic p-value, falls short of the exact tail at n = 1000
        n, checked = 1000, 0
        root = math.sqrt(n / 2)
        for k in range(1, n + 1):
            d, p = ks_2sample(*_gap_pair(n, k))
            if p <= 1e-4:
                break
            if p < 0.5:
                lam = (root + 0.12 + 0.11 / root) * d
                q = 2 * sum((-1) ** (j - 1) * math.exp(-2 * j * j * lam * lam)
                            for j in range(1, 101))
                assert 1 < p / q < 1.15
                checked += 1
        assert checked > 20

    def test_equal_gaps_give_equal_results(self):
        # gap 22 of 300 at every value, and only at counts (22, 0); as floats
        # 1 - 278/300 != 22/300
        n, k = 300, 22
        early = (np.concatenate([np.arange(-k, 0.0), np.arange(n - k) + 1.5]),
                 np.arange(float(n)))
        d, p = ks_2sample(*_gap_pair(n, k))
        assert d == k / n
        assert ks_2sample(*early) == (d, p)

    def test_same_law_p_value_distribution(self):
        rng = np.random.default_rng(0)
        ps = []
        for r in range(60):
            a = rng.standard_normal(400)
            b = rng.standard_normal(400)
            _, p = ks_2sample(a, b)
            ps.append(p)
        assert np.mean(np.array(ps) < 0.01) <= 0.1
        assert np.median(ps) > 0.2

    def test_shifted_law_detected(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(800)
        b = rng.standard_normal(800) + 0.5
        _, p = ks_2sample(a, b)
        assert p < 1e-6

    def test_ties_handled(self):
        # identical discrete samples: tied values count together, so no gap
        a = np.repeat([0.0, 1.0], 200)
        assert ks_2sample(a, a.copy()) == (0.0, 1.0)


class TestUniversality:
    def test_self_test_no_rejection(self):
        base = ensembles.goe_reference_spec(60)
        rep = universality_test(base, base, k=2, replicas=150, seed=11)
        assert not rep.rejected
        assert len(rep.p_values) == 2

    def test_blockdiag_rejected(self):
        # criterion 9's size: at N = 80 and 400 replicas this rejected at
        # 11 of the seeds 5-24, at N = 300 and 1000 replicas at all 20
        N = 300
        prof = block_wegner_profile(2, N // 2, 0.0)
        test = ensembles.EnsembleSpec(profile=prof)
        rep = universality_test(test, ensembles.goe_reference_spec(N),
                                k=1, replicas=1000, seed=5)
        assert rep.rejected and rep.p_values[0] < 1e-3

    def test_low_replicas_refused(self):
        base = ensembles.goe_reference_spec(30)
        with pytest.raises(EdgeStatError):
            universality_test(base, base, replicas=50)

    def test_mismatched_sizes_refused(self):
        with pytest.raises(EdgeStatError):
            universality_test(ensembles.goe_reference_spec(30),
                              ensembles.goe_reference_spec(40), replicas=100)

    @pytest.mark.parametrize("test, baseline", [
        (ensembles.EnsembleSpec(model="wishart", profile=wishart_profile(30, 30)),
         ensembles.goe_reference_spec(30)),
        (ensembles.EnsembleSpec(model="wishart", profile=wishart_profile(10, 30)),
         ensembles.EnsembleSpec(model="wishart", profile=wishart_profile(20, 30))),
    ])
    def test_mismatched_model_or_shape_refused(self, test, baseline):
        with pytest.raises(EdgeStatError):
            universality_test(test, baseline, replicas=100)

    @pytest.mark.parametrize("test, baseline", [
        (ensembles.EnsembleSpec(profile=profiles.band_profile(1, 30, 8, "gaussian"),
                                deformation=SPIKE),
         ensembles.goe_reference_spec(30, deformation=SPIKE)),
        (ensembles.EnsembleSpec(model="wishart", entry_law="theta_goe", theta=2.0,
                                profile=wishart_profile(20, 30, builder="banded")),
         ensembles.EnsembleSpec(model="wishart", profile=wishart_profile(20, 30))),
    ])
    def test_digests_name_the_specs_as_run(self, test, baseline):
        rep = universality_test(test, baseline, k=1, replicas=100, seed=4)
        for digest, spec, seed in ((rep.test_digest, test, 4), (rep.baseline_digest, baseline,
                                                                4 + 7919)):
            run = dataclasses.replace(spec, seed=seed)
            assert digest == ensembles.EnsembleSpec.from_json(run.to_json()).digest()
            assert len(digest) == 64 and int(digest, 16) >= 0

    def test_deterministic_given_seed(self):
        base = ensembles.goe_reference_spec(40)
        r1 = universality_test(base, base, k=1, replicas=120, seed=3)
        r2 = universality_test(base, base, k=1, replicas=120, seed=3)
        assert r1.to_json() == r2.to_json()


class TestBBP:
    def test_rank_zero_equivalent(self):
        prof = uniform_profile(50)
        rep = bbp_test(prof, [], replicas=120, seed=2)
        assert rep.k == 2

    def test_tau_cap(self):
        with pytest.raises(EdgeStatError):
            bbp_test(uniform_profile(30), [9.0], replicas=120)

    def test_deep_subcritical_spike_invisible(self):
        # tau = -5: the spike eigenvalue sits in the bulk and the top edge is
        # indistinguishable from the undeformed baseline
        N = 100
        deform = ensembles.Deformation(taus=(-5.0,))
        spiked = ensembles.EnsembleSpec(profile=uniform_profile(N), deformation=deform)
        plain = ensembles.goe_reference_spec(N)
        rep = universality_test(spiked, plain, k=1, replicas=300, seed=21)
        assert rep.p_values[0] > 0.01


class TestTails:
    def test_survival_bounds_and_monotone(self):
        spec = ensembles.goe_reference_spec(40)
        table = tail_estimate(spec, [1.0, 2.0, 4.0], replicas=200, seed=1)
        surv = [r["survival"] for r in table["rows"]]
        assert all(0.0 <= s <= 1.0 for s in surv)
        assert surv[0] >= surv[1] >= surv[2]

    def test_wilson_interval_basic(self):
        lo, hi = wilson_interval(5, 100)
        assert 0.0 < lo < 0.05 < hi < 0.15
        assert wilson_interval(0, 50)[0] == 0.0

    def test_compatibility_of_same_law(self):
        spec = ensembles.goe_reference_spec(40)
        a = tail_estimate(spec, [1.0, 2.0], replicas=200, seed=1)
        b = tail_estimate(spec, [1.0, 2.0], replicas=200, seed=99)
        assert tails_compatible(a, b)


class TestLift:
    def test_all_positive_signs_doubles_spectrum(self):
        G = random_regular_adjacency(12, 4, seed=0)
        S = np.where(G > 0, 1.0, 0.0)
        lift = lift_adjacency(G, S)
        lam_lift = np.sort(np.linalg.eigvalsh(lift))
        lam_g = np.sort(np.linalg.eigvalsh(G))
        assert np.allclose(lam_lift, np.sort(np.concatenate([lam_g, lam_g])))

    def test_negative_signs_cycle(self):
        N = 6
        G = np.zeros((N, N))
        for i in range(N):
            G[i, (i + 1) % N] = G[(i + 1) % N, i] = 1
        S = -np.where(G > 0, 1.0, 0.0)
        res = lift_spectrum_check(G, S, tol=1e-10)
        assert res["pass"]

    def test_random_signs_c6(self):
        N = 6
        G = np.zeros((N, N))
        for i in range(N):
            G[i, (i + 1) % N] = G[(i + 1) % N, i] = 1
        S = random_edge_signs(G, seed=4)
        res = lift_spectrum_check(G, S, tol=1e-10)
        assert res["pass"] and res["trace_identity"]

    def test_sign_support_mismatch_rejected(self):
        G = random_regular_adjacency(8, 2, seed=1)
        S = np.zeros_like(G)
        with pytest.raises(EdgeStatError):
            lift_adjacency(G, S)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_regular_families(self, d):
        for seed in range(3):
            G = random_regular_adjacency(16, d, seed=seed)
            S = random_edge_signs(G, seed=seed + 100)
            assert lift_spectrum_check(G, S)["pass"]
