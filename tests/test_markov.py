import functools
import itertools
import math

import numpy as np
import pytest

from irmlab import markov, profiles
from irmlab.markov import (
    MixingDomainError,
    NumericalDegradationError,
    band_decay_slope,
    band_transition_row,
    bipartite_check_mixing,
    check_mixing,
    transition_powers,
)
from irmlab.profiles import (
    band_profile,
    block_wegner_profile,
    generalized_wigner_profile,
    random_regular_adjacency,
    regular_graph_profile,
    sinkhorn_symmetric,
    uniform_profile,
    wishart_profile,
)


def cycle_profile(N):
    A = np.zeros((N, N))
    for i in range(N):
        A[i, (i + 1) % N] = A[(i + 1) % N, i] = 1
    return profiles.regular_graph_profile(A, 2)


class TestPowers:
    def test_uniform_idempotent(self):
        p = uniform_profile(5)
        for n, Pn in transition_powers(p, 6):
            assert np.allclose(Pn, 0.2)

    def test_blockdiag_reducible(self):
        p = block_wegner_profile(2, 3, 0.0)
        for n, Pn in transition_powers(p, 5):
            assert np.all(Pn[:3, 3:] == 0.0)

    def test_cycle_two_step_return(self):
        # C_4 walk: p_2(0, 0) = 1/2 (two-step enumeration of the 2-regular walk)
        p = cycle_profile(4)
        P2 = dict(transition_powers(p, 2))[2]
        assert abs(P2[0, 0] - 0.5) < 1e-15

    def test_rows_stochastic_and_symmetric(self):
        p = band_profile(1, 32, 8, "gaussian")
        for n, Pn in transition_powers(p, 40):
            assert np.max(np.abs(Pn.sum(axis=1) - 1.0)) < 1e-9
            assert np.max(np.abs(Pn - Pn.T)) < 1e-9

    def test_nan_drift_raises(self):
        # a NaN row sum compares False with the tolerance either way round
        with pytest.raises(NumericalDegradationError):
            list(transition_powers(np.full((3, 3), np.nan), 2))


class TestCheckMixing:
    def test_uniform_passes_trivially(self):
        rep = check_mixing(uniform_profile(8), 1, 1.0, 0.05, 16)
        assert rep.passed and rep.b1_pass and rep.b2_pass
        assert rep.delta_observed == 0.0
        assert rep.gamma_observed <= 1.0 + 1e-12

    @pytest.mark.parametrize("t", [1, 4, 16])
    def test_blockdiag_fails_b2_at_every_t(self, t):
        rep = check_mixing(block_wegner_profile(2, 4, 0.0), t, 2.0, 0.099, 32)
        assert not rep.b2_pass
        assert rep.delta_observed >= 1.0 - 1e-12

    def test_delta_domain(self):
        with pytest.raises(MixingDomainError):
            check_mixing(uniform_profile(4), 1, 1.0, 0.2, 8)
        with pytest.raises(MixingDomainError):
            check_mixing(uniform_profile(4), 1, 1.0, 0.0, 8)

    @pytest.mark.parametrize("check, profile", [
        (check_mixing, uniform_profile(4)),
        (bipartite_check_mixing, wishart_profile(2, 4)),
    ])
    @pytest.mark.parametrize("args", [
        (1, np.nan, 0.05, 8), (1, np.inf, 0.05, 8), (1, -1.0, 0.05, 8), (1, 0.0, 0.05, 8),
        (2.5, 1.0, 0.05, 8), (2, 1.0, 0.05, 8.0), (0, 1.0, 0.05, 8), (9, 1.0, 0.05, 8),
    ])
    def test_gamma_and_time_domain(self, check, profile, args):
        with pytest.raises(MixingDomainError):
            check(profile, *args)

    def test_monotone_in_gamma_delta(self):
        p = band_profile(1, 16, 8, "gaussian")
        base = check_mixing(p, 4, 1.5, 0.05, 64)
        relaxed = check_mixing(p, 4, 2.5, 0.09, 64)
        if base.passed:
            assert relaxed.passed

    def test_spectral_certificate_closes_tail(self):
        p = band_profile(1, 16, 8, "gaussian")
        rep = check_mixing(p, 8, 2.0, 0.05, 64)
        assert rep.certificate == "spectral-gap"
        assert not rep.horizon_limited

    def test_thouless_diagnostic_present(self):
        # t_N <= N^(1/3) exactly, also at perfect cubes, where the float cube
        # root falls short (64 ** (1/3) = 3.9999999999999996)
        for N, t_N, flag in [(27, 1, True), (64, 4, True), (64, 5, False), (512, 8, True)]:
            rep = check_mixing(uniform_profile(N), t_N, 1.0, 0.05, 8)
            assert rep.thouless_flag is flag, (N, t_N)


T_VALUES = [1, 2, 3, 5, 8, 13]


def bipartite_kernel(p):
    """The dense two-sided kernel [[0, V], [V^T/alpha, 0]] on [M] | [N]."""
    V = p.variances
    M, N = V.shape
    P = np.zeros((M + N, M + N))
    P[:M, M:] = V
    P[M:, :M] = V.T / p.alpha
    return P


def sequential_powers(P, n_max):
    """[P, P^2, ..., P^n_max] by plain step-by-step products."""
    out = [P]
    for _ in range(n_max - 1):
        out.append(out[-1] @ P)
    return out


class TestEngineOracle:
    """The doubled short-time sum against a sequential product loop."""

    @staticmethod
    def assert_agrees(rep, gamma_obs, delta_obs, gamma, delta):
        b1 = gamma_obs <= gamma * (1 + 1e-12)
        b2 = delta_obs <= delta * (1 + 1e-12)
        assert abs(rep.gamma_observed - gamma_obs) <= 1e-12
        assert abs(rep.delta_observed - delta_obs) <= 1e-12
        assert (rep.b1_pass, rep.b2_examined) == (b1, b2)
        assert rep.refuted == (not b1 or not b2)
        assert rep.passed == (b1 and b2 and not rep.horizon_limited)

    @pytest.mark.parametrize("t_N", T_VALUES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_square_sinkhorn(self, seed, t_N):
        rng = np.random.default_rng(seed)
        N = 5 + 3 * seed
        A = rng.uniform(0.5, 1.5, (N, N))
        p = profiles.VarianceProfile(sinkhorn_symmetric(A + A.T), kind="square")
        gamma, delta, horizon = 1.2, 0.05, t_N + 12
        rep = check_mixing(p, t_N, gamma, delta, horizon)
        Pn = sequential_powers(p.variances, horizon)
        gamma_obs = (sum(Pn[:t_N]) / t_N).max() * N
        delta_obs = max(np.abs(Q - 1.0 / N).max() for Q in Pn[t_N - 1:]) * N
        self.assert_agrees(rep, gamma_obs, delta_obs, gamma, delta)

    # the last four shapes are ones where the block products of the scan round
    # differently from the full (M+N)^2 product that sequential_powers forms
    @pytest.mark.parametrize("t_N", T_VALUES)
    @pytest.mark.parametrize("M, N, builder", [
        (3, 6, "uniform"), (4, 8, "banded"), (5, 5, "banded"), (3, 9, "banded"),
        (50, 100, "banded"), (100, 150, "banded"), (150, 400, "banded"), (200, 300, "banded")])
    def test_bipartite_wishart(self, M, N, builder, t_N):
        p = wishart_profile(M, N, builder=builder)
        gamma, delta, horizon = 1.5, 0.05, t_N + 12
        rep = bipartite_check_mixing(p, t_N, gamma, delta, horizon)
        Pn = sequential_powers(bipartite_kernel(p), horizon + 1)
        side = np.concatenate([np.full(M, M), np.full(N, N)])
        gamma_obs = (sum(Pn[:t_N]) / t_N * side).max()
        delta_obs = max((np.abs(Pn[n - 1] + Pn[n] - 1.0 / side) * side).max()
                        for n in range(t_N, horizon + 1))
        self.assert_agrees(rep, gamma_obs, delta_obs, gamma, delta)


FOURIER_GRIDS = [(1, 16), (1, 64), (1, 512), (1, 4096), (2, 8), (2, 16), (2, 64)]
# (t_N, gamma, delta, horizon); the second is the mixing-certify band-n512 case
FOURIER_CASES = [(1, 1.0, 0.05, 6), (8, 2.0, 0.05, 8), (3, 1.5, 0.09, 7), (5, 3.0, 0.02, 8)]


def fourier_band(d, L):
    return band_profile(d, L, max(1, L // 8), "gaussian")


def character_sums(row, d, L):
    """Eigenvalues of the circulant kernel on (Z/LZ)^d with the even row 0
    `row`: sum_v row(v) cos(2 pi k.v / L) for each k, summed directly in
    blocks of 256 characters (no FFT)."""
    v = np.indices((L,) * d).reshape(d, -1)
    cos = np.cos(2 * np.pi * np.arange(L) / L)
    return np.concatenate([cos[(k @ v) % L] @ row
                           for k in np.array_split(v.T, max(1, v.shape[1] // 256))])


@functools.lru_cache(maxsize=None)
def dense_band_oracle(d, L):
    """(gamma_at, delta_at, lam) of fourier_band(d, L): the short-time
    N max (1/t) sum_{n<=t} P^n for each t and the long-time N max |P^n - 1/N|
    for each n, up to the largest horizon, and lambda_* from the character
    sums.  The dense P is first checked to be exactly translation invariant,
    P[x, y] = P[0, y - x], so each power and each partial sum is too and row 0
    carries every maximum and minimum; row 0 is then stepped by sequential
    vector-matrix products with the dense P."""
    P = fourier_band(d, L).variances
    N = len(P)
    shape = (L,) * d
    for x in range(N):
        shifted = np.roll(P[0].reshape(shape), np.unravel_index(x, shape), tuple(range(d)))
        assert np.array_equal(P[x], shifted.ravel())
    gamma_at, delta_at = {}, {}
    row, S = P[0], P[0].copy()
    for n in range(1, max(c[3] for c in FOURIER_CASES) + 1):
        if n > 1:
            row = row @ P
            S += row
        gamma_at[n] = float(S.max()) / n * N
        # max |p - 1/N| is reached at the largest or the smallest entry
        delta_at[n] = max(float(row.max()) - 1.0 / N, 1.0 / N - float(row.min())) * N
    lam = float(np.sort(np.abs(character_sums(P[0], d, L)))[-2])
    return gamma_at, delta_at, lam


@pytest.mark.parametrize("d, L", [(d, L) for d, L in FOURIER_GRIDS if L ** d <= 512])
def test_character_sums_are_the_spectrum(d, L):
    P = fourier_band(d, L).variances
    assert np.allclose(np.sort(character_sums(P[0], d, L)), np.linalg.eigvalsh(P),
                       rtol=0, atol=1e-14)


class TestFourierScan:
    """The Fourier scan of a circulant profile against verdicts read from row 0
    of sequential powers of the same profile's dense matrix."""

    @pytest.mark.parametrize("case", FOURIER_CASES)
    @pytest.mark.parametrize("d, L", FOURIER_GRIDS)
    def test_matches_dense(self, d, L, case):
        gamma_at, delta_at, lam = dense_band_oracle(d, L)
        t_N, gamma, delta, horizon = case
        p = fourier_band(d, L)
        rep = check_mixing(p, *case)
        assert "variances" not in vars(p)
        N = L ** d
        gamma_obs = gamma_at[t_N]
        delta_obs = max(delta_at[n] for n in range(t_N, horizon + 1))
        TestEngineOracle.assert_agrees(rep, gamma_obs, delta_obs, gamma, delta)
        closed = lam < 1.0 and (1.0 - 1.0 / N) * lam ** (horizon + 1) <= delta / N
        assert rep.horizon_limited == (not closed)
        assert rep.worst_b1[0] == 0 and rep.worst_b2[1] == 0
        if N <= 512:  # the dense engine itself, on a dense copy of the profile
            dense = check_mixing(profiles.VarianceProfile(fourier_band(d, L).variances), *case)
            fields = ("b1_pass", "b2_examined", "refuted", "passed", "horizon_limited")
            assert [getattr(rep, f) for f in fields] == [getattr(dense, f) for f in fields]


class TestWorstCoordinates:
    """Worst coordinates do not follow summation order: the mirror with x <= y
    on bipartite chains, whose ratios are symmetric in exact arithmetic (at
    t_N = 8 the argmax of the full ratio matrix is at [42, 5]).  TestFourierScan
    checks x = 0 on circulants."""

    @pytest.mark.parametrize("t_N", range(1, 17))
    def test_bipartite_mirror(self, t_N):
        rep = check_mixing(wishart_profile(32, 64, "banded"), t_N, 2.0, 0.05, 64)
        assert rep.worst_b1[0] <= rep.worst_b1[1]
        assert rep.worst_b2[1] <= rep.worst_b2[2]


class TestPaperScale:
    """Band profiles past the dense budget are certified from their row."""

    @pytest.mark.parametrize("d, L, W", [(1, 65536, 8192), (2, 128, 16)])
    def test_band_past_dense_budget(self, d, L, W):
        p = band_profile(d, L, W, "gaussian")
        rep = check_mixing(p, 8, 2.0, 0.05, 64)
        assert "variances" not in vars(p)
        assert rep.worst_b1[0] == 0 and rep.worst_b2[1] == 0
        assert 0.0 <= rep.delta_observed and 0.0 < rep.gamma_observed


class TestSharpTailBound:
    @pytest.mark.parametrize("name", ["gw", "band", "block", "regular"])
    def test_bound_dominates_dense_powers(self, name):
        N = 64
        p = {"gw": lambda: generalized_wigner_profile(N, 0.5, 2.0, seed=1),
             "band": lambda: band_profile(1, N, 8, "gaussian"),
             "block": lambda: block_wegner_profile(4, 16, 0.2),
             "regular": lambda: regular_graph_profile(random_regular_adjacency(N, 4, seed=1), 4),
             }[name]()
        P = p.variances
        lam = markov._lambda_star(np.linalg.eigvalsh(P))
        assert lam < 1.0
        # the bound holds for an exactly doubly stochastic kernel; the built
        # kernel carries its row-sum defect (Sinkhorn tolerance for gw) and the
        # float64 powers their rounding, so that much is added as a floor
        defect = float(np.max(np.abs(P.sum(axis=1) - 1.0)))
        for n, Pn in enumerate(sequential_powers(P, 100), start=1):
            dev = float(np.max(np.abs(Pn - 1.0 / N)))
            floor = defect + n * np.finfo(float).eps
            assert dev <= lam ** n * (1 - 1.0 / N) * (1 + 1e-9) + floor, n

    @pytest.mark.parametrize("M, N, builder", [
        (3, 6, "uniform"), (4, 8, "banded"), (3, 9, "banded"), (2, 4, "banded"),
        (32, 64, "banded")])
    def test_bipartite_bound_dominates_dense_powers(self, M, N, builder):
        P = bipartite_kernel(wishart_profile(M, N, builder=builder))
        side = np.concatenate([np.full(M, M), np.full(N, N)])
        s = max(M, N)
        # lambda_* from the kernel itself: the largest |eigenvalue| past the +-1 pair
        lam = float(np.sort(np.abs(np.linalg.eigvals(P)))[-3])
        assert lam < 1.0
        defect = float(np.max(np.abs(P.sum(axis=1) - 1.0)))
        Pn = sequential_powers(P, 101)
        for n in range(1, 101):
            dev = float(np.max(np.abs(Pn[n - 1] + Pn[n] - 1.0 / side) * side))
            floor = defect + n * np.finfo(float).eps
            assert dev <= (1 + lam) * (1 - 1.0 / s) * lam ** n * s * (1 + 1e-9) + floor, n

    @pytest.mark.parametrize("M, N, builder", [
        (3, 6, "uniform"), (4, 8, "banded"), (5, 5, "banded"), (3, 9, "banded"), (2, 4, "banded"),
        (4, 4, "uniform"), (32, 64, "banded"), (50, 100, "banded"), (100, 150, "banded"),
        (150, 400, "banded"), (200, 300, "banded")])
    def test_bipartite_lambda_star_from_singular_values(self, M, N, builder):
        # the certificate reads lambda_* off the singular values of sqrt(N/M) sigma^2,
        # which are the +- pairs of the eigenvalues of the symmetrized (M+N)^2 kernel
        p = wishart_profile(M, N, builder=builder)
        side = np.repeat([float(M), float(N)], [M, N])
        sym = bipartite_kernel(p) * np.sqrt(side / side[:, None])
        dense = float(np.sort(np.abs(np.linalg.eigvalsh(sym)))[-3])
        lam = markov._lambda_star(np.linalg.svd(np.sqrt(N / M) * p.variances, compute_uv=False))
        assert abs(lam - dense) <= 1e-14

    @pytest.mark.parametrize("d, L, W", [(1, 64, 8), (1, 512, 64), (2, 12, 3), (2, 16, 2)])
    def test_fourier_lambda_star_matches_eigvalsh(self, d, L, W):
        p = band_profile(d, L, W, "gaussian")
        P = p.variances
        ev = np.sort(np.abs(np.linalg.eigvalsh(P)))
        lam = markov._lambda_star(markov._circulant_symbol(p)[0])
        assert abs(lam - ev[-2]) <= 1e-12


    @pytest.mark.parametrize("name", [
        "gw", "band", "block", "regular", "gw-n256",
        "wishart 3x6 uniform", "wishart 4x8 banded", "wishart 3x9 banded",
        "wishart 2x4 banded", "wishart 32x64 banded"])
    def test_stop_bound_dominates_scanned_powers(self, name, monkeypatch):
        # every p_n (lazy pair) the scan is handed, in the chain's own form
        # (dense, Fourier row, bipartite blocks), against _tail_bound at n as
        # _certify sets it up: the spectral term with its slack
        if name.startswith("wishart"):
            _, shape, builder = name.split()
            M, N = map(int, shape.split("x"))
            p = wishart_profile(M, N, builder=builder)
        else:
            N = 256 if name == "gw-n256" else 64
            p = {"gw": lambda: generalized_wigner_profile(N, 0.5, 2.0, seed=1),
                 "band": lambda: band_profile(1, N, 8, "gaussian"),
                 "block": lambda: block_wegner_profile(4, 16, 0.2),
                 "regular": lambda: regular_graph_profile(
                     random_regular_adjacency(N, 4, seed=1), 4),
                 }[name.removesuffix("-n256")]()
        seen = []
        scan = markov._mixing_scan

        def recording(avg, powers, side, gamma, delta, tail, lazy=False):
            powers = list(powers)
            read = ([(n, Bn + Bm) for (n, Bn), (_, Bm) in itertools.pairwise(powers)]
                    if lazy else powers)
            for n, blocks in read:
                ratio = max(float(np.max(np.abs(B - 1.0 / side[y0]) / (delta / side[y0])))
                            for B, _, y0 in blocks)
                seen.append((n, ratio, tail(n)))
            return scan(avg, iter(powers), side, gamma, delta, tail, lazy)

        monkeypatch.setattr(markov, "_mixing_scan", recording)
        check_mixing(p, 1, 2.0, 0.05, 100)
        assert [n for n, _, _ in seen] == list(range(1, 101))
        for n, ratio, bound in seen:
            assert ratio <= bound < math.inf, n


# the early-stop panel: a large gap, a sparse kernel, a Sinkhorn kernel with
# its row-sum defect, a reducible one (lambda_* = 1, the scan never stops), a
# circulant band, and banded and uniform Wishart chains
STOP_PANEL = {
    "block": lambda: block_wegner_profile(4, 16, 0.5),
    "regular": lambda: regular_graph_profile(random_regular_adjacency(64, 4, seed=1), 4),
    "gw-sinkhorn": lambda: generalized_wigner_profile(64, 0.5, 2.0, seed=1),
    "blockdiag": lambda: block_wegner_profile(2, 32, 0.0),
    "band-circulant": lambda: band_profile(1, 64, 8, "gaussian"),
    "wishart-banded": lambda: wishart_profile(32, 64, builder="banded"),
    "wishart-uniform": lambda: wishart_profile(16, 32, builder="uniform"),
}


@functools.lru_cache(maxsize=None)
def stop_panel_profile(name):
    return STOP_PANEL[name]()


class TestEarlyStop:
    """The scan stops once the tail bound is below the running worst; the
    reports are the ones a scan to the horizon gives, which is the same scan
    with _tail_bound patched to inf."""

    @pytest.mark.parametrize("t_N", range(1, 17))
    @pytest.mark.parametrize("name", sorted(STOP_PANEL))
    def test_same_report_as_full_scan(self, name, t_N, monkeypatch):
        p = stop_panel_profile(name)
        for horizon in (t_N, 4 * t_N, 64):
            early = check_mixing(p, t_N, 2.0, 0.05, horizon).dumps()
            with monkeypatch.context() as m:
                m.setattr(markov, "_tail_bound", lambda *args, **kwargs: math.inf)
                full = check_mixing(p, t_N, 2.0, 0.05, horizon).dumps()
            assert early == full, horizon

    def test_stop_skips_powers(self, monkeypatch):
        # the full scan drift-checks 63 powers: 1, 2 and 4 while doubling to
        # t = 4, then 5 .. 64; the tail bound stops it after power 8
        checked = []
        drift = markov._check_drift
        monkeypatch.setattr(markov, "_check_drift",
                            lambda Pn, n: checked.append(n) or drift(Pn, n))
        check_mixing(block_wegner_profile(4, 16, 0.5), 4, 2.0, 0.05, 64)
        assert checked == [1, 2, 4, 5, 6, 7, 8]


class TestBipartite:
    def test_uniform_alternating_exact(self):
        p = wishart_profile(3, 6)
        rep = bipartite_check_mixing(p, 1, 1.0, 0.05, 40)
        assert rep.b1_pass and rep.b2_pass
        assert rep.delta_observed < 1e-12

    def test_square_uniform_d1_gamma_one(self):
        p = wishart_profile(4, 4)
        rep = bipartite_check_mixing(p, 1, 1.0, 0.05, 40)
        assert rep.b1_pass

    def test_banded_certifies(self):
        p = wishart_profile(2, 4, builder="banded")
        rep = bipartite_check_mixing(p, 10, 1.5, 0.05, 200)
        assert rep.passed, (rep.delta_observed, rep.gamma_observed)

    def test_sharp_tail_closes_at_short_horizon(self):
        # lambda_* = 0.45: (1 + lambda_*)(1 - 1/9) lambda_*^7 = 4.8e-3 <= 0.05/9
        rep = bipartite_check_mixing(wishart_profile(3, 9, "banded"), 1, 3.0, 0.05, 6)
        assert not rep.horizon_limited

    @pytest.mark.parametrize("M, N, builder", [(3, 6, "uniform"), (3, 9, "banded")])
    def test_check_mixing_takes_bipartite_profile(self, M, N, builder):
        p = wishart_profile(M, N, builder=builder)
        rep = check_mixing(p, 2, 1.5, 0.05, 20)
        assert rep.bipartite
        assert rep.to_json() == bipartite_check_mixing(p, 2, 1.5, 0.05, 20).to_json()

    def test_square_profile_refused(self):
        with pytest.raises(profiles.ProfileError):
            bipartite_check_mixing(uniform_profile(4), 1, 1.0, 0.05, 8)


class TestFourier:
    def test_one_step_reproduces_profile(self):
        p = band_profile(1, 32, 4, "gaussian")
        row = band_transition_row(p, 1)
        assert np.max(np.abs(row - p.variances[0])) < 1e-14

    def test_matches_dense_powers(self):
        p = band_profile(1, 64, 8, "gaussian")
        P = None
        for n, Pn in transition_powers(p, 50):
            P = Pn
            if n in (1, 3, 10, 27, 50):
                row = band_transition_row(p, n)
                assert np.max(np.abs(row - Pn[0])) < 1e-10

    def test_rows_sum_to_one(self):
        p = band_profile(1, 64, 8, "gaussian")
        for n in (1, 5, 40, 200):
            assert abs(band_transition_row(p, n).sum() - 1.0) < 1e-12


class TestEnvelope:
    def test_decay_slope_diffusive(self):
        # geometry chosen so n in [4, 256] sits inside the diffusive window
        # (L/W large enough that the spectral gap has not taken over)
        p = band_profile(1, 1024, 4, "gaussian")
        slope, _ = band_decay_slope(p, [4, 8, 16, 32, 64, 128, 256])
        assert -0.65 <= slope <= -0.35


class TestGWPreset:
    def test_b1_with_gamma_three(self):
        # desk-size version of the generalized-Wigner short-time certificate
        N, c, C = 64, 0.5, 2.0
        p = generalized_wigner_profile(N, c, C, seed=1)
        t = int(np.ceil(100 * (C / c) * np.log(N)))
        rep = check_mixing(p, t, 3.0, 0.05, t + 8)
        assert rep.b1_pass
        assert not rep.horizon_limited
