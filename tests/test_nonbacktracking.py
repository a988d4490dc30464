import numpy as np
import pytest

from irmlab import ensembles, nonbacktracking as nb, profiles
from irmlab.nonbacktracking import (
    NbBudgetError,
    nb_powers,
    phi_ops,
    q_poly_matrix,
    seeded_family,
    verify_wigner_path_expansion,
    verify_wishart_path_expansion,
)


def profile_and_H(N, beta=1, seed=0):
    prof = profiles.uniform_profile(N)
    W = ensembles.sample_wigner(N, beta, seed)
    return prof, np.sqrt(prof.variances) * W


def rank_one(N, a=0.9, seed=None):
    if seed is None:
        u = np.zeros(N)
        u[0] = 1.0
    else:
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(N)
        u /= np.linalg.norm(u)
    return a * np.outer(u, u)


class TestPowers:
    def test_conventions(self):
        _, H = profile_and_H(4)
        Vs = nb_powers(H, 3)
        assert np.array_equal(Vs[0], np.eye(4))
        assert np.array_equal(Vs[1], H.astype(complex))

    def test_zero_matrix(self):
        Vs = nb_powers(np.zeros((3, 3)), 4)
        for n in range(1, 5):
            assert np.all(Vs[n] == 0)

    def test_v2_closed_form(self):
        prof, H = profile_and_H(5, seed=2)
        phi2, _ = phi_ops(H, prof.variances.sum(axis=1))
        V2 = nb_powers(H, 2)[2]
        expect = H @ H - phi2 - np.eye(5)  # diag(sum_z |H_xz|^2) = Phi2 + I
        assert np.abs(V2 - expect).max() < 1e-12

    @pytest.mark.parametrize("beta", [1, 2])
    def test_dual_paths_agree(self, beta):
        prof, H = profile_and_H(4, beta=beta, seed=3)
        Va = nb_powers(H, 6, method="transfer")
        Vb = nb_powers(H, 6, method="bruteforce")
        worst = max(np.abs(a - b).max() for a, b in zip(Va, Vb))
        assert worst <= 1e-10

    def test_bruteforce_budget(self):
        with pytest.raises(NbBudgetError):
            nb_powers(np.zeros((8, 8)), 10, method="bruteforce")

    def test_pair_state_budget(self):
        # N = 125 is the largest transfer within the budget; one index more is refused
        # before a frontier is allocated
        assert 125 ** 3 <= nb.MAX_PAIR_STATES < 126 ** 3
        assert len(nb_powers(np.zeros((125, 125)), 2)) == 3
        with pytest.raises(NbBudgetError):
            nb_powers(np.zeros((126, 126)), 2)


class TestPhiOps:
    def test_phi2_zero_for_matching_variances(self):
        prof = profiles.uniform_profile(4)
        H = np.sqrt(prof.variances)  # |H_xz|^2 = sigma^2 exactly
        phi2, _ = phi_ops(H, prof.variances.sum(axis=1))
        assert np.abs(phi2).max() < 1e-14

    def test_phi3_single_entry(self):
        prof = profiles.uniform_profile(3)
        H = np.zeros((3, 3))
        H[0, 1] = H[1, 0] = 0.5
        _, phi3 = phi_ops(H, prof.variances.sum(axis=1))
        assert phi3[0, 1] == pytest.approx(-0.125)

    def test_phi2_diagonal_and_centering(self):
        prof, H = profile_and_H(5, seed=4)
        phi2, _ = phi_ops(H, prof.variances.sum(axis=1))
        assert np.abs(phi2 - np.diag(np.diagonal(phi2))).max() == 0.0
        # complex case: E |H_xx|^2 = sigma^2_xx, so E Phi2 = 0 entrywise;
        # real case: the doubled diagonal variance shifts the mean by
        # exactly diag(sigma^2_xx).  Both checked within 5 standard errors.
        for beta, bias in ((2, 0.0), (1, 1.0 / 5)):
            vals = []
            for r in range(4000):
                Hr = np.sqrt(prof.variances) * ensembles.sample_wigner(5, beta, 0, r)
                p2, _ = phi_ops(Hr, prof.variances.sum(axis=1))
                vals.append(np.real(np.diagonal(p2)))
            vals = np.array(vals)
            se = vals.std(axis=0) / np.sqrt(len(vals))
            assert np.all(np.abs(vals.mean(axis=0) - bias) <= 5 * se)

    def test_seeded_family_matches_definition(self):
        # literal definitional sum vs the transfer computation
        prof, H = profile_and_H(4, seed=5)
        _, phi3 = phi_ops(H, prof.variances.sum(axis=1))
        for m in range(3, 8):
            R = seeded_family(phi3, H, m)[m]
            N = 4
            brute = np.zeros((N, N), dtype=complex)
            L = m - 2
            import itertools
            for path in itertools.product(range(N), repeat=L + 1):
                if any(path[i] == path[i + 2] for i in range(L - 1)):
                    continue
                val = phi3[path[0], path[1]]
                for i in range(1, L):
                    val *= H[path[i], path[i + 1]]
                brute[path[0], path[-1]] += val
            assert np.abs(R - brute).max() < 1e-12


class TestWignerExpansion:
    def test_base_case(self):
        prof, H = profile_and_H(5, seed=0)
        A = rank_one(5)
        assert verify_wigner_path_expansion(H, prof, 1, A) < 1e-14

    def test_undeformed_small(self):
        prof, H = profile_and_H(5, seed=1)
        assert verify_wigner_path_expansion(H, prof, 2) < 1e-12

    @pytest.mark.parametrize("beta", [1, 2])
    def test_deformed_per_seed(self, beta):
        prof = profiles.uniform_profile(6)
        worst = 0.0
        for seed in range(25):
            W = ensembles.sample_wigner(6, beta, seed)
            H = np.sqrt(prof.variances) * W
            A = rank_one(6, seed=seed)
            for n in (1, 4, 6, 8):
                worst = max(worst,
                            verify_wigner_path_expansion(H, prof, n),
                            verify_wigner_path_expansion(H, prof, n, A))
        assert worst <= 1e-8

    def test_nonuniform_profile(self):
        rng = np.random.default_rng(3)
        M = rng.uniform(0.5, 1.5, (5, 5))
        prof = profiles.VarianceProfile(
            profiles.sinkhorn_symmetric(0.5 * (M + M.T)), kind="square").validate()
        H = np.sqrt(prof.variances) * ensembles.sample_wigner(5, 1, 9)
        assert verify_wigner_path_expansion(H, prof, 7) < 1e-10


class TestWishartExpansion:
    def wishart_H(self, M, N, seed=0):
        prof = profiles.wishart_profile(M, N)
        rng = ensembles.rng_for(seed, 0, 0)
        return prof, np.sqrt(prof.variances) * rng.standard_normal((M, N))

    def test_n0_identity(self):
        prof, H = self.wishart_H(3, 5)
        assert verify_wishart_path_expansion(H, prof, 0) == 0.0

    def test_n1_exact(self):
        prof, H = self.wishart_H(3, 5, seed=1)
        assert verify_wishart_path_expansion(H, prof, 1) < 1e-12

    def test_deformed_per_seed(self):
        prof = profiles.wishart_profile(3, 5, builder="banded")
        worst = 0.0
        for seed in range(25):
            rng = ensembles.rng_for(seed, 0, 1)
            H = np.sqrt(prof.variances) * rng.standard_normal((3, 5))
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            v = rng.standard_normal(5)
            v /= np.linalg.norm(v)
            A = 0.5 * np.outer(u, v)
            for n in (2, 3, 5):
                worst = max(worst,
                            verify_wishart_path_expansion(H, prof, n),
                            verify_wishart_path_expansion(H, prof, n, A))
        assert worst <= 1e-8

    def test_q_recursion_values(self):
        X = np.diag([1.0, 2.0])
        Q2 = q_poly_matrix(X, 2, 0.25)
        # Q_2(x) = x^2 - (2 + alpha) x + 1
        expect = np.diag([1 - 2.25 + 1, 4 - 4.5 + 1])
        assert np.abs(Q2 - expect).max() < 1e-14
