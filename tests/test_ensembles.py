import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from irmlab import edgestats, ensembles
from irmlab.ensembles import (
    Deformation,
    EnsembleSpec,
    assemble,
    deformation_matrix,
    gaussian_mixed_moment,
    gaussian_mixed_moment_binomial,
    moment_domination_holds,
    sample,
    sample_heavy,
    sample_theta_goe,
    sample_wigner,
    truncate_heavy,
)
from irmlab.profiles import (VarianceProfile, band_profile, block_wegner_profile, uniform_profile,
                             wishart_profile)


class TestWigner:
    def test_real_diagonal_second_moment(self):
        # E W_ii^2 = 2 in the real case
        vals = [sample_wigner(8, 1, 0, r)[0, 0] for r in range(20000)]
        m = np.mean(np.square(vals))
        assert abs(m - 2.0) < 0.05

    def test_complex_off_diagonal_moments(self):
        # E W_12^2 = 0 and E |W_12|^2 = 1 in the complex case
        z = np.array([sample_wigner(4, 2, 1, r)[0, 1] for r in range(20000)])
        assert abs(np.mean(np.real(z ** 2))) < 0.02
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.03

    def test_hermitian_exactly(self):
        W = sample_wigner(6, 2, 3)
        assert np.array_equal(W, W.conj().T)

    def test_deterministic_given_seed(self):
        assert np.array_equal(sample_wigner(5, 1, 9, 4), sample_wigner(5, 1, 9, 4))
        assert not np.array_equal(sample_wigner(5, 1, 9, 4), sample_wigner(5, 1, 9, 5))


class TestThetaGOE:
    def test_theta_one_equals_goe(self):
        assert np.array_equal(sample_theta_goe(6, 1.0, 7), sample_wigner(6, 1, 7))

    def test_second_moment_preserved(self):
        vals = [sample_theta_goe(6, 10.0, 0, r)[0, 1] for r in range(30000)]
        assert abs(np.mean(np.square(vals)) - 1.0) < 0.1

    def test_zero_fraction(self):
        theta, N = 4.0, 200
        W = sample_theta_goe(N, theta, 5)
        off = W[np.triu_indices(N, 1)]
        frac = np.mean(off == 0.0)
        assert abs(frac - (1 - 1 / theta)) < 0.01


def _wigner_by_hand(spec, r):
    """Dense Wigner draw r of spec rebuilt from its streams: block 0 gives the
    K strict-upper entries in np.triu_indices order (at beta 2 the K real
    parts, then the K imaginary parts), then the N diagonal entries; a
    theta law's mask takes block 1 in the same order."""
    N, law = spec.N, spec.entry_law
    upper = np.triu_indices(N, 1)
    K = len(upper[0])
    rng = ensembles.rng_for(spec.seed, r, 0)
    if law in ("gaussian", "theta_goe"):
        off = rng.standard_normal(K)
        if spec.beta == 2:
            off = (off + 1j * rng.standard_normal(K)) / math.sqrt(2.0)
        diag = rng.standard_normal(N) * math.sqrt(2.0 / spec.beta)
    elif law in ("rademacher", "theta_rademacher"):
        off = np.where(rng.random(K) < 0.5, 1.0, -1.0)
        diag = np.where(rng.random(N) < 0.5, 1.0, -1.0) * math.sqrt(2.0)
    else:
        scale = math.sqrt((spec.tail_df - 2.0) / spec.tail_df)
        off = rng.standard_t(spec.tail_df, size=K) * scale
        diag = rng.standard_t(spec.tail_df, size=N) * scale * math.sqrt(2.0)

    def symmetric(off, diag):
        W = np.zeros((N, N), dtype=np.result_type(off, diag))
        W[upper] = off
        W[upper[::-1]] = off.conj()
        W[np.diag_indices(N)] = diag
        return W

    W = symmetric(off, diag)
    if law == "heavy_tailed":
        W = W * (np.abs(W) < float(N) ** (spec.zeta / 2.0))
    if law.startswith("theta_"):
        mask = ensembles.rng_for(spec.seed, r, 1)
        p = 1.0 / spec.theta
        W = math.sqrt(spec.theta) * symmetric(mask.random(K) < p, mask.random(N) < p) * W
    return spec.profile.sqrt_variances * W


class TestDenseStreamLayout:
    @pytest.mark.parametrize("law, beta, kw", [
        ("gaussian", 1, {}),
        ("gaussian", 2, {}),
        ("rademacher", 1, {}),
        ("heavy_tailed", 1, {"tail_df": 3.0, "zeta": 0.3}),
        ("theta_goe", 1, {"theta": 3.0}),
        ("theta_rademacher", 1, {"theta": 3.0}),
    ])
    @pytest.mark.parametrize("profile", [uniform_profile(7), block_wegner_profile(2, 3, 0.4)])
    def test_draw_is_the_triangle_layout(self, law, beta, kw, profile):
        spec = EnsembleSpec(entry_law=law, beta=beta, profile=profile, seed=5, **kw)
        for r in range(3):
            X = sample(spec, r)
            assert X.tobytes() == _wigner_by_hand(spec, r).tobytes()

    def test_heavy_draw_is_truncated(self):
        # the heavy row above must exercise the truncation it rebuilds
        W = sample_heavy(7, 3.0, 5, 0)
        assert np.any(np.abs(W) >= 7 ** 0.15)


class TestAssemble:
    def test_uniform_profile_scaling(self):
        prof = uniform_profile(4)
        W = sample_wigner(4, 1, 0)
        X = assemble(prof, W)
        assert np.allclose(X, W / 2.0)

    def test_rank_one_coordinate_deformation(self):
        prof = uniform_profile(4)
        W = sample_wigner(4, 1, 0)
        A = deformation_matrix(Deformation(taus=(0.0,)), 4)
        X = assemble(prof, W, A)
        D = X - assemble(prof, W)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.allclose(D, expect)

    def test_spike_tau_zero_is_edge(self):
        d = Deformation(taus=(0.0,))
        assert d.eigenvalues(100)[0] == 1.0

    def test_superposition_machine_exact(self):
        prof = uniform_profile(5)
        W = sample_wigner(5, 1, 1)
        A = deformation_matrix(Deformation(taus=(1.0, -0.3)), 5)
        diff = assemble(prof, W, A) - assemble(prof, W)
        scale = np.max(np.abs(assemble(prof, W, A)))
        assert np.max(np.abs(diff - A)) <= 4 * np.finfo(float).eps * scale


def _wishart(prof, seed, **kw):
    return EnsembleSpec(model="wishart", profile=prof, seed=seed, **kw)


class TestWishart:
    def test_trace_normalization(self):
        spec = _wishart(wishart_profile(20, 20), 0)
        traces = [np.trace(sample(spec, r)) / 20 for r in range(400)]
        assert abs(np.mean(traces) - 1.0) < 0.05

    def test_positive_semidefinite(self):
        spec = _wishart(wishart_profile(4, 7), 3)
        for r in range(10):
            X = sample(spec, r)
            assert np.linalg.eigvalsh(X).min() >= -1e-10

    def test_scalar_case(self):
        prof = wishart_profile(1, 1)
        X = sample(_wishart(prof, 2))
        h = np.sqrt(prof.variances) * ensembles.rng_for(2, 0, 0).standard_normal((1, 1))
        assert X.shape == (1, 1) and X[0, 0] >= 0


class TestTruncation:
    def test_below_threshold_identity(self):
        W = np.full((4, 4), 0.5)
        out, frac = truncate_heavy(W, 1000, 0.3)
        assert np.array_equal(out, W) and frac == 0.0

    def test_above_threshold_zero(self):
        W = np.full((4, 4), 100.0)
        out, frac = truncate_heavy(W, 10, 0.3)
        assert np.all(out == 0.0) and frac == 1.0

    def test_student_t_truncated_fraction(self):
        # threshold N^(zeta/2) = 400^0.15 ~ 2.46 on unit-variance t9 entries;
        # the expected cut fraction is ~2.1e-2 (direct tail estimate)
        N, zeta = 400, 0.3
        fracs = []
        for r in range(10):
            W = sample_heavy(N, 9.0, seed=0, replica=r)
            _, frac = truncate_heavy(W, N, zeta)
            fracs.append(frac)
        assert 0.012 <= np.mean(fracs) <= 0.032


class TestSpecAndSeeding:
    def test_sampler_pure_function(self):
        spec = EnsembleSpec(profile=uniform_profile(6), seed=5)
        assert np.array_equal(sample(spec, 3), sample(spec, 3))

    def test_replica_order_independent(self):
        spec = EnsembleSpec(profile=uniform_profile(6), seed=5)
        a = [sample(spec, r) for r in (0, 1, 2)]
        b = [sample(spec, r) for r in (2, 0, 1)]
        assert np.array_equal(a[0], b[1])
        assert np.array_equal(a[2], b[0])

    def test_entry_variance_matches_profile(self):
        from irmlab.profiles import block_wegner_profile
        prof = block_wegner_profile(2, 2, 0.5)
        spec = EnsembleSpec(profile=prof, seed=2)
        xs = np.array([sample(spec, r)[0, 2] for r in range(40000)])
        v = prof.variances[0, 2]
        se = np.std(xs ** 2) / math.sqrt(len(xs))
        assert abs(np.mean(xs ** 2) - v) < 5 * se

    @pytest.mark.parametrize("law,kw", [
        ("gaussian", {"beta": 1}),
        ("gaussian", {"beta": 2}),
        ("theta_goe", {"theta": 3.0}),
        ("theta_rademacher", {"theta": 3.0}),
    ])
    def test_second_moment_all_laws(self, law, kw):
        # off-diagonal E |H_ij|^2 = sigma^2_ij for every sampler, within 5 s.e.
        from irmlab.profiles import block_wegner_profile
        prof = block_wegner_profile(2, 3, 0.4)
        spec = EnsembleSpec(entry_law=law, profile=prof, seed=7, **kw)
        xs = np.array([sample(spec, r)[0, 1] for r in range(20000)])
        m2 = np.abs(xs) ** 2
        se = np.std(m2) / math.sqrt(len(m2))
        v = prof.variances[0, 1]
        assert abs(np.mean(m2) - v) < 5 * se

    def test_heavy_base_second_moment(self):
        # the scaled Student-t base law is unit variance before truncation
        # (the truncation step is covered separately; its bias vanishes only
        # when N^(zeta/2) outgrows the tail, not at toy sizes)
        xs = np.array([sample_heavy(4, 9.0, seed=1, replica=r)[0, 1]
                       for r in range(30000)])
        m2 = xs ** 2
        se = m2.std() / math.sqrt(len(m2))
        assert abs(m2.mean() - 1.0) < 5 * se

    def test_specs_are_frozen(self):
        spec = EnsembleSpec(profile=uniform_profile(4), deformation=Deformation(taus=(0.5,)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.deformation.taus = (1.0,)
        with pytest.raises(ValueError):
            spec.deformation_matrix[0, 0] = 0.0
        assert not spec.deformation_matrix.flags.writeable
        assert spec.deformation_matrix is spec.deformation_matrix

    @pytest.mark.parametrize("model, beta", [("wigner", 2), ("wigner", 1)])
    def test_deformation_built_once(self, model, beta, monkeypatch):
        # top_eigenvalues reads A for the support blocks and for 5 dense draws
        calls = []
        build = ensembles.deformation_matrix

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(ensembles, "deformation_matrix", counted)
        spec = _table_spec(model, "gaussian", beta, {}, deformation=DEFORMED)
        edgestats.top_eigenvalues(spec, 2, 5)
        assert len(calls) == 1

    def test_spec_roundtrip(self):
        for spec in (EnsembleSpec(beta=2, entry_law="theta_goe", theta=3.0, model="wishart",
                                  profile=wishart_profile(3, 5), seed=9),
                     EnsembleSpec(beta=2, profile=uniform_profile(5),
                                  deformation=Deformation(taus=(0.5,)), seed=9)):
            doc = spec.to_json()
            back = EnsembleSpec.from_json(doc)
            assert back.to_json() == doc
            assert back.digest() == spec.digest()
            assert np.array_equal(sample(spec, 1), sample(back, 1))


class TestDigest:
    """EnsembleSpec.digest: sha256 of the spec JSON without the profile data,
    then the data as little-endian float64 bytes."""

    SPEC = EnsembleSpec(profile=uniform_profile(6), deformation=Deformation(taus=(0.5,)),
                        seed=3)

    # a dense profile hashes its variances, a circulant one (band) its row
    @pytest.mark.parametrize("spec, shape", [
        (SPEC, (6, 6)), (EnsembleSpec(profile=band_profile(1, 16, 3, "gaussian")), (16,))])
    def test_recomputed_from_the_json(self, spec, shape):
        doc = spec.to_json()
        data = np.array(doc["profile"].pop("data"), dtype="<f8")
        assert data.shape == shape
        head = json.dumps(doc, sort_keys=True).encode()
        assert spec.digest() == hashlib.sha256(head + data.tobytes()).hexdigest()

    def test_one_ulp_moves_the_digest(self):
        V = uniform_profile(6).variances.copy()
        V[2, 4] = np.nextafter(V[2, 4], 1.0)
        moved = dataclasses.replace(self.SPEC, profile=VarianceProfile(V))
        assert moved.digest() != self.SPEC.digest()

    @pytest.mark.parametrize("change", [
        {"seed": 4}, {"beta": 2}, {"deformation": None},
        {"deformation": Deformation(taus=(0.5000000001,))},
        {"deformation": Deformation(taus=(0.5, 0.5))}, {"theta": 2.0},
    ])
    def test_field_changes_move_the_digest(self, change):
        assert dataclasses.replace(self.SPEC, **change).digest() != self.SPEC.digest()

    def test_equal_specs_share_the_digest(self):
        same = EnsembleSpec(profile=uniform_profile(6), deformation=Deformation(taus=[0.5]),
                            seed=3)
        assert same.digest() == self.SPEC.digest()


# Every (model, entry law, beta) the ensemble table accepts, with the
# parameters each row is drawn at, and the first 16 hex digits of
# sha256(sample(spec, 2).tobytes()) at seed 11 (numpy 2.4, x86-64).  A change
# to any random stream, or to the arithmetic that assembles a draw, shows up
# here; the Wishart rows also pass through one small BLAS product.
ACCEPTED = [
    ("wigner", "gaussian", 1, {}, "f9243b8b12f4406b"),
    ("wigner", "gaussian", 2, {}, "820aee398a43be70"),
    ("wigner", "rademacher", 1, {}, "6294428a0fb96738"),
    ("wigner", "theta_goe", 1, {"theta": 3.0}, "e983a66b347a55fd"),
    ("wigner", "theta_rademacher", 1, {"theta": 3.0}, "9ce9379f3871f23a"),
    ("wigner", "heavy_tailed", 1, {"tail_df": 9.0, "zeta": 0.25}, "3b9a7a34edcccc4b"),
    ("wishart", "gaussian", 1, {}, "c15f9d9a869caffe"),
    ("wishart", "gaussian", 2, {}, "0a460fa2f00a7051"),
    ("wishart", "theta_goe", 1, {"theta": 3.0}, "cbea1500e3b135c6"),
    ("wishart", "theta_goe", 2, {"theta": 3.0}, "b966fb74209a4eb9"),
]
# a coordinate spike with its eigenvalue below 0 (1 - 5 * 6^(-1/3)), on a
# profile with zero entries: there Sigma o W is a signed zero, and the sum
# with A is +0.0 where A holds +0.0 but keeps W's sign where A holds -0.0,
# so a deformation matrix whose zeros change sign moves these hashes
DEFORMED = Deformation(taus=(-5.0,))
PINNED_DEFORMED = [
    ("wigner", "gaussian", beta, {"profile": block_wegner_profile(2, 3, 0.0),
                                  "deformation": DEFORMED}, digest)
    for beta, digest in ((1, "bbf92d8f9cd8a249"), (2, "a927cb714975199a"))
]


def _table_spec(model, law, beta, kw, **extra):
    prof = block_wegner_profile(2, 3, 0.4) if model == "wigner" else wishart_profile(4, 7, "banded")
    return EnsembleSpec(**{"model": model, "entry_law": law, "beta": beta, "profile": prof,
                           "seed": 11, **kw, **extra})


class TestEnsembleTable:
    def test_rows_cover_the_table(self):
        rows = {(m, law, beta) for m, law, beta, _, _ in ACCEPTED}
        assert rows == {(m, law, beta) for (m, law), (betas, _, _) in ensembles.LAWS.items()
                        for beta in betas}

    @pytest.mark.parametrize("model, law, beta, kw, digest", ACCEPTED)
    def test_accepted_row_draws_its_beta(self, model, law, beta, kw, digest):
        for deformation in (None, DEFORMED) if model == "wigner" else (None,):
            X = sample(_table_spec(model, law, beta, kw, deformation=deformation), 2)
            assert X.dtype == (np.float64 if beta == 1 else np.complex128)
            assert np.array_equal(X, X.conj().T)

    @pytest.mark.parametrize("model, law, beta, kw, digest", ACCEPTED + PINNED_DEFORMED)
    def test_stream_guard(self, model, law, beta, kw, digest):
        X = sample(_table_spec(model, law, beta, kw), 2)
        assert hashlib.sha256(X.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("model, law, beta, kw", [
        # Wishart entries are Gaussian or theta-sparsified Gaussian only
        ("wishart", "heavy_tailed", 1, {}),
        ("wishart", "rademacher", 1, {}),
        ("wishart", "interpolating", 1, {}),
        ("wishart", "theta_rademacher", 1, {"theta": 3.0}),
        ("wishart", "bogus", 1, {}),
        ("nope", "gaussian", 1, {}),
        ("wigner", ["gaussian"], 1, {}),
        # real entry laws at beta 2, and beta outside {1, 2}
        ("wigner", "theta_goe", 2, {"theta": 3.0}),
        ("wigner", "theta_goe", 2, {"theta": 3.0, "deformation": Deformation(taus=(0.5,))}),
        ("wigner", "heavy_tailed", 2, {}),
        ("wigner", "rademacher", 2, {}),
        ("wigner", "gaussian", 3, {}),
        # interpolating: beta 2 exactly when alpha_mix > 0
        ("wigner", "interpolating", 1, {"alpha_mix": 0.5}),
        ("wigner", "interpolating", 2, {"alpha_mix": 0.0}),
        ("wigner", "interpolating", 2, {"alpha_mix": -1.0}),
        ("wigner", "interpolating", 1, {"alpha_mix": math.nan}),
        # parameters outside the law's domain
        ("wigner", "theta_goe", 1, {"theta": 0.5}),
        ("wigner", "theta_rademacher", 1, {"theta": math.inf}),
        ("wishart", "theta_goe", 2, {"theta": math.nan}),
        ("wigner", "heavy_tailed", 1, {"zeta": 0.5}),
        ("wigner", "heavy_tailed", 1, {"tail_df": 2.0}),
        # a Wishart spec takes no deformation, and a Wigner one none past rank N
        ("wishart", "gaussian", 1, {"deformation": Deformation(taus=(0.5,))}),
        ("wishart", "gaussian", 1, {"deformation": Deformation()}),
        ("wigner", "gaussian", 1, {"deformation": Deformation(taus=(0.5,) * 7)}),
    ])
    def test_rejected_at_construction(self, model, law, beta, kw):
        # through the closed spec JSON, which also refuses keys the spec lacks
        good = _table_spec("wishart" if model == "wishart" else "wigner", "gaussian", 1, {})
        kw = {k: v.to_json() if isinstance(v, Deformation) else v for k, v in kw.items()}
        with pytest.raises(ensembles.EnsembleError):
            EnsembleSpec.from_json(dict(good.to_json(), model=model, entry_law=law, beta=beta,
                                        **kw))

    @pytest.mark.parametrize("model, profile", [
        ("wigner", wishart_profile(4, 7)),
        ("wishart", uniform_profile(4)),
        ("wigner", None),
    ])
    def test_profile_kind_checked(self, model, profile):
        with pytest.raises(ensembles.EnsembleError):
            EnsembleSpec(model=model, profile=profile)

    @pytest.mark.parametrize("doc", [
        {"entry_lw": "theta_goe"},
        {"deformation": {"taus": [0.5], "basis": "radnom"}},
        {"deformation": {"tau": [0.5]}},
        {"deformation": [0.5]},
    ])
    def test_closed_json(self, doc):
        good = EnsembleSpec(profile=uniform_profile(4)).to_json()
        with pytest.raises(ensembles.EnsembleError):
            EnsembleSpec.from_json(dict(good, **doc))

    def test_basis_checked_at_construction(self):
        with pytest.raises(ensembles.EnsembleError, match="unknown deformation keys"):
            Deformation.from_json({"taus": [1.0], "basis": "Random"})


SPIKE = Deformation(taus=(0.5,))
# two bipartite blocks, 2 x 4 and 3 x 6, every entry 1/n on its block
TWO_BLOCKS = VarianceProfile(np.block([[np.full((2, 4), 0.25), np.zeros((2, 6))],
                                       [np.zeros((3, 4)), np.full((3, 6), 1 / 6)]]),
                             kind="bipartite")


class TestTridiagonalModel:
    @pytest.mark.parametrize("beta, digest", [(1, "7700b034ce425529"), (2, "786fe5d947e205e6")])
    def test_stream_guard(self, beta, digest):
        spec = dataclasses.replace(ensembles.goe_reference_spec(7, beta=beta, deformation=SPIKE),
                                   seed=11)
        a, b = ensembles.sample_tridiagonal(spec, 3)
        assert hashlib.sha256(a[2].tobytes() + b[2].tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("spec, digest", [
        (EnsembleSpec(profile=block_wegner_profile(2, 3, 0.0), deformation=SPIKE, seed=11),
         "28f8b41776af787d"),
        (EnsembleSpec(beta=2, profile=block_wegner_profile(3, 2, 0.0), seed=11),
         "67613ed943cfd9bc"),
        (EnsembleSpec(model="wishart", profile=TWO_BLOCKS, seed=11), "9404fb05ac052efe"),
        (EnsembleSpec(model="wishart", beta=2, profile=wishart_profile(4, 7), seed=11),
         "369d6b7737456bd3"),
    ])
    def test_block_stream_guard(self, spec, digest):
        # multi-block Hermite and the Laguerre model, first 16 hex digits of
        # sha256 of replica 2's diagonals (numpy 2.4, x86-64)
        a, b = ensembles.sample_tridiagonal(spec, 3)
        assert hashlib.sha256(a[2].tobytes() + b[2].tobytes()).hexdigest()[:16] == digest

    def test_spike_shifts_first_diagonal_entry(self):
        plain = ensembles.goe_reference_spec(9, beta=2)
        spiked = ensembles.goe_reference_spec(9, beta=2, deformation=SPIKE)
        (a0, b0), (a1, b1) = (ensembles.sample_tridiagonal(dataclasses.replace(s, seed=4), 5)
                              for s in (plain, spiked))
        assert np.array_equal(b0, b1) and np.array_equal(a0[:, 1:], a1[:, 1:])
        assert np.array_equal(a1[:, 0], a0[:, 0] + SPIKE.eigenvalues(9)[0])

    @pytest.mark.parametrize("spec, plain", [
        (ensembles.goe_reference_spec(6), True),
        (ensembles.goe_reference_spec(6, beta=2, deformation=Deformation(taus=(0.3,))), True),
        (ensembles.goe_reference_spec(6, deformation=Deformation()), True),
        (ensembles.goe_reference_spec(6, deformation=Deformation(taus=(0.5, 1.0))), False),
        (ensembles.goe_reference_spec(6, beta=2, deformation=Deformation(taus=(0.5, 1.0))),
         False),
        (EnsembleSpec(entry_law="theta_goe", theta=2.0, profile=uniform_profile(6)), False),
        (EnsembleSpec(profile=_table_spec("wigner", "gaussian", 1, {}).profile), False),
        (EnsembleSpec(model="wishart", profile=wishart_profile(6, 6, "banded")), False),
        # a Gaussian spec whose every support block has a constant profile
        (EnsembleSpec(model="wishart", profile=wishart_profile(6, 6)), True),
        (EnsembleSpec(model="wishart", beta=2, profile=wishart_profile(4, 6)), True),
        (EnsembleSpec(profile=block_wegner_profile(2, 3, 0.0), deformation=SPIKE), True),
        (EnsembleSpec(model="wishart", profile=TWO_BLOCKS), True),
        (EnsembleSpec(profile=block_wegner_profile(2, 3, 0.0), entry_law="theta_goe",
                      theta=2.0), False),
        (EnsembleSpec(model="wishart", entry_law="theta_goe", theta=2.0,
                      profile=wishart_profile(4, 6)), False),
        # a block with more rows than columns
        (EnsembleSpec(model="wishart", profile=VarianceProfile(
            np.kron(np.eye(2), np.full((3, 2), 0.5)), kind="bipartite")), False),
    ])
    def test_plain_specs_only(self, spec, plain):
        assert ensembles.has_tridiagonal_model(spec) is plain
        if not plain:
            with pytest.raises(ensembles.EnsembleError):
                ensembles.sample_tridiagonal(spec, 1)


class TestGaussianMoments:
    def test_initial_values(self):
        assert gaussian_mixed_moment(0, 0) == 1
        assert gaussian_mixed_moment(1, 0) == 0
        assert gaussian_mixed_moment(0, 2) == 3

    def test_small_closed_forms(self):
        assert gaussian_mixed_moment(2, 0) == 2
        assert gaussian_mixed_moment(1, 1) == 2

    def test_matches_binomial_expansion(self):
        for a in range(9):
            for b in range(9):
                if a + b <= 8:
                    assert gaussian_mixed_moment(a, b) == gaussian_mixed_moment_binomial(a, b)

    def test_monotone_in_a(self):
        prev = gaussian_mixed_moment(1, 0)
        for a in range(2, 13):
            cur = gaussian_mixed_moment(a, 0)
            assert cur >= prev >= 0
            prev = cur

    def test_domination_inequality_domain(self):
        for a in range(13):
            for b in range(13):
                if a + b > 12:
                    continue
                if (b == 0 and a >= 2) or (b >= 1 and a >= 0):
                    assert moment_domination_holds(a, b)
