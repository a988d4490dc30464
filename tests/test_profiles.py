import json

import numpy as np
import pytest

from irmlab import profiles
from irmlab.ensembles import EnsembleSpec
from irmlab.profiles import (
    BandDensity,
    ProfileError,
    VarianceProfile,
    band_profile,
    block_wegner_profile,
    generalized_wigner_profile,
    random_regular_adjacency,
    regular_graph_profile,
    sinkhorn_symmetric,
    sparse_profile,
    uniform_profile,
    wishart_profile,
)


def row_sum_defect(P):
    return float(np.max(np.abs(np.asarray(P).sum(axis=1) - 1.0)))


class TestUniform:
    def test_n2_entries(self):
        assert np.allclose(uniform_profile(2).variances, 0.5)

    def test_n1_degenerate(self):
        assert uniform_profile(1).variances[0, 0] == 1.0

    def test_row_sums_exact(self):
        assert row_sum_defect(uniform_profile(5).variances) == 0.0

    def test_zero_rejected(self):
        with pytest.raises(ProfileError):
            uniform_profile(0)


class TestBandDensity:
    @pytest.mark.parametrize("name,d", [("gaussian", 1), ("gaussian", 2),
                                        ("bump", 1), ("bump", 2)])
    def test_normalized(self, name, d):
        f = BandDensity.by_name(name, d=d)
        assert abs(f.mass() - 1.0) < 1e-8

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_power_law_normalized(self, alpha):
        f = BandDensity.power_law(alpha, d=1)
        assert abs(f.mass(n_nodes=200) - 1.0) < 1e-8


class TestBand:
    def test_near_uniform_when_wide(self):
        # W = L: every entry within 0.5/N of uniform
        p = band_profile(1, 8, 8, "gaussian")
        assert np.max(np.abs(8 * p.variances[0] - 1.0)) < 0.5

    def test_row_sums_machine_exact(self):
        p = band_profile(1, 32, 4, "gaussian")
        assert row_sum_defect(p.variances) < 1e-14

    def test_bump_vanishes_outside_support(self):
        p = band_profile(1, 64, 4, "bump")
        # support of the bump is |x| <= 1, i.e. lattice distance <= W
        assert p.variances[0, 32] == 0.0

    def test_symmetric(self):
        p = band_profile(1, 16, 4, "power_law")
        V = p.variances
        assert np.max(np.abs(V - V.T)) < 1e-15

    def test_very_wide_close_to_uniform(self):
        L = 8
        p = band_profile(1, L, 4 * L, "gaussian")
        assert np.max(np.abs(p.variances - 1.0 / L)) <= 0.5 / L

    def test_two_dimensional(self):
        p = band_profile(2, 6, 2, "gaussian")
        assert p.variances.shape == (36, 36)
        assert row_sum_defect(p.variances) < 1e-13


class TestGeneralizedWigner:
    def test_uniform_when_c_equals_one(self):
        p = generalized_wigner_profile(6, 1.0, 1.0)
        assert np.allclose(p.variances, 1.0 / 6)

    def test_band_constraint(self):
        N = 4
        p = generalized_wigner_profile(N, 0.5, 2.0, seed=11)
        V = p.variances
        assert np.all(V > 0.5 / N) and np.all(V < 2.0 / N)
        assert row_sum_defect(V) < 1e-10
        assert np.max(np.abs(V.sum(axis=0) - 1.0)) < 1e-10

    def test_coupling_tv_bound(self):
        # total-variation distance to uniform decays at least like (1-c)^n
        N, c = 16, 0.5
        p = generalized_wigner_profile(N, c, 2.0, seed=3)
        Pn = np.asarray(p.variances)
        for n in range(1, 21):
            tv = 0.5 * np.max(np.abs(Pn - 1.0 / N).sum(axis=1))
            assert tv <= (1 - c) ** n + 1e-12
            Pn = Pn @ p.variances

    def test_infeasible(self):
        with pytest.raises(ProfileError):
            generalized_wigner_profile(4, 0.5, 0.9)


class TestSparse:
    def test_homogeneous_is_uniform(self):
        N, theta = 6, 4.0
        p = np.full((N, N), 1.0 / theta)
        w = np.full((N, N), theta)
        prof = sparse_profile(p, w, d=float(N))
        assert np.allclose(prof.variances, 1.0 / N)

    def test_zero_row_rejected(self):
        p = np.full((4, 4), 0.5)
        p[0] = 0.0
        p[:, 0] = 0.0
        w = np.ones((4, 4))
        with pytest.raises(ProfileError):
            sparse_profile(p, w, d=2.0)

    def test_random_feasible(self):
        rng = np.random.default_rng(0)
        M0 = rng.uniform(0.5, 1.5, (6, 6))
        T = sinkhorn_symmetric(0.5 * (M0 + M0.T))
        pm = np.minimum(1.0, T * 3.0)
        w = np.where(pm > 0, T / pm, 0.0)
        prof = sparse_profile(pm, w, d=1.0)
        assert row_sum_defect(prof.variances) < 1e-10


class TestBlockWegner:
    def test_lambda_zero_block_diagonal(self):
        p = block_wegner_profile(2, 3, 0.0)
        V = p.variances
        assert np.all(V[:3, 3:] == 0.0)
        # powers never leave a block
        P5 = np.linalg.matrix_power(V, 5)
        assert np.all(P5[:3, 3:] == 0.0)

    def test_d3_m2_half(self):
        V = block_wegner_profile(3, 2, 0.5).variances
        row = np.sort(V[0])[::-1]
        assert np.allclose(row[:2], 0.25)
        assert np.allclose(row[2:], 0.125)
        assert row_sum_defect(V) < 1e-14

    def test_lambda_one_pure_coupling(self):
        V = block_wegner_profile(5, 2, 1.0).variances
        assert np.all(V[:2, :2] == 0.0)
        assert row_sum_defect(V) < 1e-14

    def test_d1_collapses_to_uniform(self):
        V = block_wegner_profile(1, 4, 0.7).variances
        assert np.allclose(V, 0.25)

    def test_d2_merged_neighbor(self):
        V = block_wegner_profile(2, 2, 0.6).variances
        assert np.allclose(V[:2, 2:], 0.3)
        assert row_sum_defect(V) < 1e-14


class TestRegular:
    def test_cycle(self):
        N = 6
        A = np.zeros((N, N))
        for i in range(N):
            A[i, (i + 1) % N] = A[(i + 1) % N, i] = 1
        V = regular_graph_profile(A, 2).variances
        assert np.allclose(np.sort(V[0])[::-1][:2], 0.5)

    def test_complete(self):
        N = 5
        A = np.ones((N, N)) - np.eye(N)
        V = regular_graph_profile(A, N - 1).variances
        assert np.allclose(V + np.eye(N) / (N - 1), 1.0 / (N - 1))

    def test_random_regular_builder(self):
        A = random_regular_adjacency(10, 4, seed=2)
        prof = regular_graph_profile(A, 4)
        assert row_sum_defect(prof.variances) < 1e-12

    def test_irregular_rejected(self):
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = 1
        with pytest.raises(ProfileError):
            regular_graph_profile(A, 2)


class TestWishart:
    def test_uniform_sums(self):
        p = wishart_profile(3, 6)
        V = p.variances
        assert np.allclose(V.sum(axis=1), 1.0)
        assert np.allclose(V.sum(axis=0), 0.5)

    def test_m_greater_n_rejected(self):
        with pytest.raises(ProfileError):
            wishart_profile(5, 3)


class TestSerialization:
    def test_dense_roundtrip(self, tmp_path):
        # a profile file as `mixing check --profile` reads it
        from irmlab.cli import read_document
        p = block_wegner_profile(2, 3, 0.4)
        path = tmp_path / "prof.json"
        path.write_text(json.dumps(p.to_json()))
        q = VarianceProfile.from_json(read_document(str(path)))
        assert np.allclose(p.variances, q.variances)
        assert q.kind == "square"

    def test_circulant_roundtrip(self, tmp_path):
        p = band_profile(1, 16, 4, "gaussian")
        doc = json.loads(json.dumps(p.to_json()))
        q = VarianceProfile.from_json(doc)
        assert q.torus["L"] == 16
        assert np.allclose(p.variances, q.variances)

    @pytest.mark.parametrize("torus", [
        None, {"d": 1, "L": 7}, {"d": 2, "L": 3}, {"d": 0, "L": 8}, {"d": 1, "L": 1},
        {"d": 1.0, "L": 8}, {"d": True, "L": 8},
        {"d": 10 ** 18, "L": 8},  # refused by the row size, before 8^d is evaluated
    ])
    def test_circulant_row_needs_its_torus(self, torus):
        with pytest.raises(ProfileError, match="circulant row"):
            VarianceProfile(circulant_row=np.full(8, 0.125), torus=torus)

    @pytest.mark.parametrize("kw", [{"kind": "bipartite"}, {"variances": np.eye(8)}])
    def test_circulant_row_alone_and_square(self, kw):
        with pytest.raises(ProfileError, match="circulant row"):
            VarianceProfile(circulant_row=np.full(8, 0.125), torus={"d": 1, "L": 8}, **kw)

    def test_circulant_defect_renormalizes_the_row(self):
        doc = band_profile(1, 16, 4, "gaussian").to_json()
        doc["data"] = (np.array(doc["data"]) * (1 + 1e-8)).tolist()
        q = VarianceProfile.from_json(doc)
        assert np.array_equal(q.data, q.circulant_row)
        assert np.array_equal(q.variances[0], q.circulant_row)
        assert abs(q.circulant_row.sum() - 1.0) <= 1e-12

    def test_large_circulant_loads_without_dense_build(self):
        spec = EnsembleSpec(profile=band_profile(1, 8192, 64, "gaussian"))
        back = EnsembleSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert back.digest() == spec.digest()
        assert "variances" not in vars(back.profile)  # N > 4096 has no dense matrix

    @pytest.mark.parametrize("field", ["torus", "metadata"])
    def test_torus_and_metadata_are_objects(self, field):
        with pytest.raises(ProfileError, match=f"{field} must be an object"):
            VarianceProfile(circulant_row=np.full(8, 0.125), **{field: [1]})


class TestValidation:
    def test_renormalize_once(self):
        V = np.full((4, 4), 0.25) * (1 + 1e-8)
        p = VarianceProfile(V, kind="square").validate()
        assert row_sum_defect(p.variances) < 1e-12

    def test_large_defect_rejected(self):
        V = np.full((4, 4), 0.3)
        with pytest.raises(ProfileError):
            VarianceProfile(V, kind="square").validate()

    def test_negative_rejected(self):
        V = np.full((3, 3), 1 / 3.0)
        V[0, 1] = -0.01
        V[0, 0] += 0.01
        with pytest.raises(ProfileError):
            VarianceProfile(V, kind="square").validate()

    @pytest.mark.parametrize("kind, shape", [("square", (3, 3)), ("bipartite", (2, 4))])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, kind, shape, bad):
        # every comparison with NaN is False, so the sum and sign checks alone
        # let an all-NaN profile through
        with pytest.raises(ProfileError, match="finite"):
            VarianceProfile(np.full(shape, bad), kind=kind).validate()

    @pytest.mark.parametrize("V, kind", [(np.full((4, 4), 0.5), "square"),
                                         (np.full((4, 4), np.nan), "square"),
                                         (np.zeros((1, 0)), "bipartite")])
    def test_refused_at_construction(self, V, kind):
        with pytest.raises(ProfileError):
            VarianceProfile(V, kind=kind)

    def test_uneven_circulant_row_refused(self):
        with pytest.raises(ProfileError, match="symmetric"):
            VarianceProfile(circulant_row=[0.5, 0.3, 0.0, 0.2], torus={"d": 1, "L": 4})

    def test_immutable(self):
        p = band_profile(1, 8, 2, "gaussian")
        for name in ("kind", "metadata", "variances", "circulant_row"):
            with pytest.raises(AttributeError):
                setattr(p, name, None)
        for mapping in (p.metadata, p.torus):
            with pytest.raises(TypeError):
                mapping["family"] = "uniform"
        for arr in (p.variances, p.sqrt_variances, p.circulant_row):
            with pytest.raises(ValueError):
                arr[0] = 0.5

    def test_nested_metadata_frozen(self):
        doc = uniform_profile(3).to_json()
        doc["metadata"] = {"source": {"run": 1, "tags": ["a", {"b": 2}]}}
        p = VarianceProfile.from_json(doc)
        spec = EnsembleSpec(profile=p)
        digest = spec.digest()
        with pytest.raises(TypeError):
            p.metadata["source"]["run"] = 2
        with pytest.raises(TypeError):
            p.metadata["source"]["tags"][1]["b"] = 3
        with pytest.raises(AttributeError):
            p.metadata["source"]["tags"].append("c")
        doc["metadata"]["source"]["run"] = 2  # the profile holds a copy
        assert spec.digest() == digest
        back = p.to_json()
        assert back["metadata"] == {"source": {"run": 1, "tags": ["a", {"b": 2}]}}
        assert json.loads(json.dumps(back)) == back
        assert EnsembleSpec(profile=VarianceProfile.from_json(back)).digest() == digest

    @pytest.mark.parametrize("builder", ["uniform", "gw", "band", "block"])
    def test_symmetry_and_sums_invariant(self, builder):
        if builder == "uniform":
            p = uniform_profile(9)
        elif builder == "gw":
            p = generalized_wigner_profile(9, 0.8, 1.5, seed=5)
        elif builder == "band":
            p = band_profile(1, 9, 3, "gaussian")
        else:
            p = block_wegner_profile(3, 3, 0.3)
        V = p.variances
        assert row_sum_defect(V) <= 1e-10
        assert np.max(np.abs(V - V.T)) <= 1e-10
