import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from irmlab import chebyshev, cli, diagrams, edgestats, ensembles, profiles
from irmlab.cli import (
    ConfigError,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    emit_svg,
    list_presets,
    load_config,
    parse_config,
    run,
)

ALL_SCENARIOS = [
    "goe-baseline", "gw", "band", "sparse", "block", "heavy", "lift2",
    "wishart", "counterexample-blockdiag", "diagrams-exact", "nbpath-exact",
    "mixing-audit",
]


class TestConfig:
    def test_presets_cover_all_scenarios(self):
        presets = list_presets()
        assert len(presets) >= 11
        for name in ALL_SCENARIOS:
            assert name in presets

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            parse_config({"scenario": "nope"})

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError):
            parse_config({"scenario": "gw", "bogus": 1})

    def test_unknown_param_is_error(self):
        with pytest.raises(ConfigError):
            parse_config({"scenario": "gw", "params": {"zz": 3}})

    def test_empty_config_exit_64(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("")
        assert cli.main(["run", "--config", str(path)]) == EXIT_USAGE

    def test_range_checks(self):
        with pytest.raises(ConfigError):
            parse_config({"scenario": "mixing-audit", "params": {"delta": 0.5}})
        with pytest.raises(ConfigError):
            parse_config({"scenario": "lift2", "params": {"d": 3}})
        # preset names and two-block parity are refused before run() makes `out`
        for doc, message in [
                ({"scenario": "counterexample-blockdiag", "params": {"N": 151}}, "even N"),
                ({"scenario": "mixing-audit", "params": {"preset": "block", "N": 63}}, "even N"),
                ({"scenario": "mixing-audit", "params": {"preset": "blockdiag", "N": 63}},
                 "even N"),
                ({"scenario": "mixing-audit", "params": {"preset": "nope"}},
                 "unknown profile preset 'nope'")]:
            with pytest.raises(ConfigError, match=message):
                parse_config(doc)

    @pytest.mark.parametrize("params", [{"N": 126}, {"wishart_M": 3, "wishart_N": 123}])
    def test_nbpath_pair_state_budget_at_parse_time(self, params):
        """N^3 or the Wishart hat size (M + N)^3 past MAX_PAIR_STATES is refused
        before a realization is drawn; one less fits."""
        with pytest.raises(ConfigError, match="pair states"):
            parse_config({"scenario": "nbpath-exact", "params": params})
        fits = {key: val - 1 if key != "wishart_M" else val for key, val in params.items()}
        parse_config({"scenario": "nbpath-exact", "params": fits})

    def test_toml_or_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"scenario": "mixing-audit"}))
        cfg = load_config(str(p))
        assert cfg["scenario"] == "mixing-audit"

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is Python 3.11+")
    def test_toml_config_equals_json_twin(self, tmp_path):
        doc = {"scenario": "mixing-audit", "seed": 3, "out": "results", "csv": True,
               "params": {"preset": "band", "N": 32, "t": 4, "gamma": 2.0,
                          "delta": 0.05, "horizon": 96}}
        (tmp_path / "c.json").write_text(json.dumps(doc))
        (tmp_path / "c.toml").write_text(
            'scenario = "mixing-audit"\nseed = 3\nout = "results"\ncsv = true\n\n'
            '[params]\npreset = "band"\nN = 32\nt = 4\ngamma = 2.0\n'
            'delta = 0.05\nhorizon = 96\n')
        cfg = load_config(str(tmp_path / "c.toml"))
        assert cfg == load_config(str(tmp_path / "c.json"))
        assert cfg["params"]["N"] == 32 and cfg["csv"] is True


class TestScenarios:
    def test_mixing_audit_uniform(self, tmp_path):
        cfg = parse_config({"scenario": "mixing-audit", "seed": 0,
                            "out": str(tmp_path),
                            "params": {"preset": "uniform", "N": 16,
                                       "t": 1, "gamma": 1.0, "delta": 0.05,
                                       "horizon": 32}})
        assert run(cfg) == EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["payload"]["mixing_report"]["b1_pass"]

    def test_mixing_audit_blockdiag_fails(self, tmp_path):
        cfg = parse_config({"scenario": "mixing-audit", "seed": 0,
                            "out": str(tmp_path),
                            "params": {"preset": "blockdiag", "N": 16,
                                       "t": 2, "gamma": 2.0, "delta": 0.05,
                                       "horizon": 32}})
        assert run(cfg) == EXIT_FAIL

    def test_mixing_audit_wishart_preset(self, tmp_path):
        cfg = parse_config({"scenario": "mixing-audit", "seed": 0,
                            "out": str(tmp_path),
                            "params": {"preset": "wishart", "N": 16,
                                       "t": 4, "gamma": 2.0, "delta": 0.09,
                                       "horizon": 64}})
        assert run(cfg) == EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["payload"]["mixing_report"]["bipartite"] is True

    def test_diagrams_exact_small(self, tmp_path):
        cfg = parse_config({"scenario": "diagrams-exact", "seed": 1,
                            "out": str(tmp_path),
                            "params": {"N": 2, "max_m": 4}})
        assert run(cfg) == EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["payload"]["all_pass"]

    def test_diagrams_exact_one_wick_call_per_moment(self, monkeypatch):
        # one table per (beta, profile) serves all its perimeters, so the
        # preset's 28 checks compute each mixed moment once: 28 oracle calls,
        # where a table per check made 56
        calls = []
        wick_moment = diagrams.wick_moment

        def counting(m_list, profile, A=None, beta=1):
            calls.append((tuple(m_list), id(profile), beta))
            return wick_moment(m_list, profile, A, beta)

        monkeypatch.setattr(diagrams, "wick_moment", counting)
        code, payload = cli.run_scenario("diagrams-exact", list_presets()["diagrams-exact"], 0)
        assert code == EXIT_PASS and payload["n_checks"] == 28
        assert len(calls) == len(set(calls)) == 28

    def test_nbpath_exact_small(self, tmp_path):
        cfg = parse_config({"scenario": "nbpath-exact", "seed": 1,
                            "out": str(tmp_path),
                            "params": {"N": 4, "n": 5, "seeds": 3,
                                       "wishart_M": 2, "wishart_N": 3,
                                       "wishart_n": 2}})
        assert run(cfg) == EXIT_PASS

    def test_lift2(self, tmp_path):
        cfg = parse_config({"scenario": "lift2", "seed": 3, "out": str(tmp_path),
                            "params": {"N": 16, "d": 4, "trials": 5}})
        assert run(cfg) == EXIT_PASS

    def test_goe_baseline_small(self, tmp_path):
        cfg = parse_config({"scenario": "goe-baseline", "seed": 4,
                            "out": str(tmp_path),
                            "params": {"N": 40, "replicas": 120}})
        code = run(cfg)
        assert code == EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["payload"]["status"] == "no rejection (as expected)"

    def test_counterexample_small(self, tmp_path):
        cfg = parse_config({"scenario": "counterexample-blockdiag", "seed": 5,
                            "out": str(tmp_path),
                            "params": {"N": 80, "replicas": 600}})
        assert run(cfg) == EXIT_PASS
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["payload"]["status"] == "rejection expected and observed"


class TestDeterminism:
    def _run_twice(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = cli.main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
            assert code == EXIT_PASS
            outs.append((out / "report.json").read_bytes())
        return outs

    def test_byte_identical_reports(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"scenario": "mixing-audit", "seed": 7,
             "params": {"preset": "band", "N": 32, "t": 32, "gamma": 2.0,
                        "delta": 0.05, "horizon": 160}}))
        a, b = self._run_twice(tmp_path)
        assert a == b

    def test_statistical_scenario_determinism(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"scenario": "goe-baseline", "seed": 5,
             "params": {"N": 30, "replicas": 100}}))
        a, b = self._run_twice(tmp_path)
        assert a == b


EDGE_SCENARIOS = {
    "goe-baseline": {"N": 30}, "gw": {"N": 30}, "band": {"N": 30}, "sparse": {"N": 30},
    "block": {"D": 2, "M": 15}, "heavy": {"N": 30}, "wishart": {"M": 20, "N": 30},
    "counterexample-blockdiag": {"N": 30},
}


@pytest.mark.parametrize("scenario", sorted(EDGE_SCENARIOS))
def test_edge_report_carries_digests_not_specs(scenario, tmp_path):
    """An edge report.json names both specs by EnsembleSpec.digest(), so it
    stays small whatever the profile size."""
    params = dict(EDGE_SCENARIOS[scenario], replicas=100)
    run(parse_config({"scenario": scenario, "out": str(tmp_path), "params": params}))
    raw = (tmp_path / "report.json").read_bytes()
    assert len(raw) < 4096
    report = json.loads(raw)["payload"]["edge_report"]
    for key in ("test_digest", "baseline_digest"):
        assert len(report[key]) == 64 and int(report[key], 16) >= 0


# specs built by hand the way the acceptance criteria built them before they
# ran the presets (8(a), 8(b), 9's rejection arm; 8(c)'s block spec), at N = 48
CRITERION_SPECS = {
    "band": ({"N": 48}, lambda: ensembles.EnsembleSpec(
        profile=profiles.band_profile(1, 48, int(math.ceil(48 ** 0.8)), "gaussian"))),
    "sparse": ({"N": 48}, lambda: ensembles.EnsembleSpec(
        entry_law="theta_rademacher", theta=4.0, profile=profiles.uniform_profile(48))),
    "block": ({"D": 4, "M": 12}, lambda: ensembles.EnsembleSpec(
        profile=profiles.block_wegner_profile(4, 12, 0.5))),
    "counterexample-blockdiag": ({"N": 48}, lambda: ensembles.EnsembleSpec(
        profile=profiles.block_wegner_profile(2, 24, 0.0))),
}


@pytest.mark.parametrize("scenario", sorted(CRITERION_SPECS))
def test_preset_runner_matches_direct_universality_test(scenario):
    """A preset's edge_report is, digests and p-values bit for bit, the
    universality_test of its hand-built spec against same-size GOE."""
    overrides, build = CRITERION_SPECS[scenario]
    p = dict(cli.SCENARIOS[scenario], **overrides, replicas=100)
    _, payload = cli.run_scenario(scenario, p, 3)
    direct = edgestats.universality_test(build(), ensembles.goe_reference_spec(48), k=p["k"],
                                         replicas=100, seed=3, level=p["level"])
    assert payload["edge_report"] == direct.to_json()


class TestSvg:
    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = {"test": rng.standard_normal(100),
                   "baseline": rng.standard_normal(100)}
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(samples, 20, str(p1))
        emit_svg(samples, 20, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().startswith(b"<svg")

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_svg({"x": np.array([])}, 10, str(tmp_path / "x.svg"))
        assert not (tmp_path / "x.svg").exists()


class TestCliEntry:
    def test_presets_command(self, capsys):
        assert cli.main(["presets"]) == EXIT_PASS
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert "band" in doc

    def test_python_m_irmlab(self):
        # a checkout run without installing: only the source directory on the path
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        done = subprocess.run([sys.executable, "-m", "irmlab", "presets"],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == EXIT_PASS, done.stderr
        assert "band" in json.loads(done.stdout)

    def test_threads_environment_variable_ignored(self, monkeypatch, capsys):
        monkeypatch.setenv("IRMLAB_THREADS", "abc")
        assert cli.main(["presets"]) == EXIT_PASS
        assert "Traceback" not in capsys.readouterr().err

    def test_cheb_orthogonality(self, capsys):
        assert cli.main(["cheb", "verify", "--suite", "orthogonality",
                         "--max", "20"]) == EXIT_PASS

    def test_cheb_product(self):
        assert cli.main(["cheb", "verify", "--suite", "product"]) == EXIT_PASS

    def test_cheb_product_degrees_up_to_max(self, monkeypatch):
        drawn, identity = [], chebyshev.product_coeff_identity

        def recorded(ms):
            drawn.append(ms)
            return identity(ms)
        monkeypatch.setattr(chebyshev, "product_coeff_identity", recorded)
        assert cli.main(["cheb", "verify", "--suite", "product", "--max", "3"]) == EXIT_PASS
        assert len(drawn) == 200
        assert {m for ms in drawn for m in ms} == {1, 2, 3}

    def test_cheb_wishart_poly(self):
        assert cli.main(["cheb", "verify", "--suite", "wishart-poly",
                         "--max", "8"]) == EXIT_PASS

    def test_diagrams_command(self, capsys):
        assert cli.main(["diagrams", "verify", "--s", "1", "--n", "4",
                         "--N", "3", "--beta", "1"]) == EXIT_PASS

    def test_nbpath_command(self):
        assert cli.main(["nbpath", "verify", "--model", "wigner", "--n", "5",
                         "--N", "4", "--seeds", "3"]) == EXIT_PASS

    def test_mixing_command(self, capsys):
        code = cli.main(["mixing", "check", "--profile-preset", "uniform",
                         "--N", "16", "--t", "1", "--gamma", "1.0",
                         "--delta", "0.05", "--horizon", "32"])
        assert code == EXIT_PASS

    def test_mixing_command_profile_file(self, tmp_path, capsys):
        # a profile file and the preset it copies give the same report
        path = tmp_path / "u8.json"
        path.write_text(json.dumps({"kind": "square", "data": UNIFORM8.tolist()}))
        args = ["--t", "1", "--gamma", "1.0", "--delta", "0.05", "--horizon", "10"]
        assert cli.main(["mixing", "check", "--profile", str(path), *args]) == EXIT_PASS
        from_file = capsys.readouterr().out
        assert cli.main(["mixing", "check", "--profile-preset", "uniform", "--N", "8",
                         *args]) == EXIT_PASS
        assert capsys.readouterr().out == from_file

    def test_mixing_command_band_past_dense_budget(self, capsys):
        # N = 8192 has no dense matrix: the scan runs on the Fourier row
        code = cli.main(["mixing", "check", "--profile-preset", "band", "--N", "8192",
                         "--t", "8", "--gamma", "2", "--delta", "0.05", "--horizon", "64"])
        assert code in (EXIT_PASS, EXIT_FAIL, cli.EXIT_INCONCLUSIVE)
        assert json.loads(capsys.readouterr().out)["worst_b1"][0] == 0

    def test_mixing_command_prints_audit_report(self, tmp_path, capsys):
        params = {"preset": "band", "N": 32, "t": 32, "gamma": 2.0,
                  "delta": 0.05, "horizon": 160}
        cfg = parse_config({"scenario": "mixing-audit", "seed": 7,
                            "out": str(tmp_path), "params": params})
        audit_code = run(cfg)
        report = json.loads((tmp_path / "report.json").read_text())
        code = cli.main(["mixing", "check", "--profile-preset", "band",
                         "--N", "32", "--t", "32", "--gamma", "2.0",
                         "--delta", "0.05", "--horizon", "160", "--seed", "7"])
        assert code == audit_code
        assert json.loads(capsys.readouterr().out) == report["payload"]["mixing_report"]

    @pytest.mark.parametrize("args, message", [
        (["--profile-preset", "uniform", "--t", "1", "--horizon", "10",
          "--delta", "0.5"], "delta must lie in (0, 0.1)"),
        (["--profile-preset", "uniform", "--t", "20", "--horizon", "10",
          "--delta", "0.05"], "need integers 1 <= t_N <= horizon"),
        (["--profile-preset", "nope", "--t", "1", "--horizon", "10",
          "--delta", "0.05"], "unknown profile preset 'nope'"),
        (["--profile-preset", "uniform", "--t", "1", "--horizon", "10",
          "--delta", "0.05", "--gamma", "nan"], "gamma must be finite and positive"),
        (["--profile-preset", "uniform", "--t", "1", "--horizon", "10",
          "--delta", "0.05", "--gamma", "inf"], "gamma must be finite and positive"),
        (["--profile-preset", "uniform", "--t", "1", "--horizon", "10",
          "--delta", "0.05", "--gamma", "-1"], "gamma must be finite and positive"),
        (["--profile-preset", "uniform", "--t", "1", "--horizon", "10",
          "--delta", "0.05", "--gamma", "0"], "gamma must be finite and positive"),
        (["--profile-preset", "block", "--N", "63", "--t", "1", "--horizon", "10",
          "--delta", "0.05"], "block preset needs even N"),
        (["--profile-preset", "blockdiag", "--N", "63", "--t", "1", "--horizon", "10",
          "--delta", "0.05"], "blockdiag preset needs even N"),
    ])
    def test_mixing_malformed_input_exit_64(self, args, message, capsys):
        code = cli.main(["mixing", "check", "--N", "16", "--gamma", "1.0"] + args)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("params, message", [
        ({"gamma": float("nan")}, "gamma must be finite and positive"),
        ({"t": 2.5, "horizon": 8}, "need integers 1 <= t_N <= horizon"),
        ({"t": 2, "horizon": 8.0}, "need integers 1 <= t_N <= horizon"),
    ])
    def test_mixing_config_malformed_exit_64(self, params, message, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "mixing-audit", "params": params}))
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and message in err

    @pytest.mark.parametrize("preset", ["sparse", "regular", "gw"])
    def test_mixing_presets(self, preset, capsys):
        code = cli.main(["mixing", "check", "--profile-preset", preset,
                         "--N", "16", "--t", "8", "--gamma", "3.0",
                         "--delta", "0.09", "--horizon", "64", "--seed", "3"])
        assert code in (EXIT_PASS, EXIT_FAIL, 3)

    def test_mixing_bipartite_preset(self, capsys):
        code = cli.main(["mixing", "check", "--profile-preset", "wishart",
                         "--N", "8", "--t", "10", "--gamma", "2.0",
                         "--delta", "0.09", "--horizon", "120"])
        assert code == EXIT_PASS
        out = json.loads(capsys.readouterr().out)
        assert out["bipartite"] is True

    def test_sample_command(self, tmp_path):
        spec = {"beta": 1, "entry_law": "gaussian", "model": "wigner",
                "profile": {"kind": "square", "n_rows": 8, "n_cols": 8,
                            "storage": "dense",
                            "data": (np.full((8, 8), 1 / 8)).tolist(),
                            "metadata": {}},
                "seed": 0}
        spath = tmp_path / "spec.json"
        spath.write_text(json.dumps(spec))
        out = tmp_path / "draws"
        assert cli.main(["sample", "--spec", str(spath), "--replicas", "2",
                         "--seed", "1", "--out", str(out), "--eigs-only"]) == EXIT_PASS
        assert sorted(os.listdir(out)) == ["eigs_00000.csv", "eigs_00001.csv"]

    def test_edge_compare_command(self, tmp_path):
        spec = {"beta": 1, "entry_law": "gaussian", "model": "wigner",
                "profile": {"kind": "square", "n_rows": 30, "n_cols": 30,
                            "storage": "dense",
                            "data": (np.full((30, 30), 1 / 30)).tolist(),
                            "metadata": {}},
                "seed": 0}
        for name in ("t.json", "b.json"):
            (tmp_path / name).write_text(json.dumps(spec))
        out = tmp_path / "rep.json"
        code = cli.main(["edge", "compare", "--test", str(tmp_path / "t.json"),
                         "--baseline", str(tmp_path / "b.json"),
                         "--k", "1", "--replicas", "100", "--seed", "2",
                         "--out", str(out),
                         "--svg", str(tmp_path / "h.svg")])
        assert code == EXIT_PASS
        assert out.exists() and (tmp_path / "h.svg").exists()
        spec_obj = ensembles.EnsembleSpec.from_json(spec)
        _, payload = cli.edge_verdict(spec_obj, spec_obj,
                                      {"k": 1, "replicas": 100, "level": 0.01}, 2)
        assert out.read_text() == json.dumps(payload["edge_report"], sort_keys=True)


def _spec_doc(**kw):
    from irmlab.profiles import uniform_profile, wishart_profile
    if kw.get("model") == "wishart":
        prof = wishart_profile(kw.pop("M", 10), kw.pop("N", 30))
    else:
        prof = uniform_profile(30)
    return ensembles.EnsembleSpec(profile=prof, **kw).to_json()


GOOD = _spec_doc()


class TestSpecInputExit64:
    """Malformed ensemble specs and mismatched baselines: exit 64, no traceback."""

    @pytest.mark.parametrize("doc, message", [
        (dict(GOOD, entry_lw="theta_goe"), "unknown ensemble spec keys: ['entry_lw']"),
        (dict(GOOD, model="wishart", entry_law="heavy_tailed"), "no ensemble"),
        (dict(GOOD, model="nope"), "no ensemble"),
        (dict(GOOD, entry_law="theta_goe", beta=2), "draws beta in (1,)"),
        (dict(GOOD, entry_law="rademacher", beta=2), "draws beta in (1,)"),
        (dict(GOOD, deformation={"taus": [0.5], "basis": "radnom"}), "unknown deformation keys"),
        (dict(GOOD, deformation={"taus": [0.5], "spikes": [1]}), "unknown deformation keys"),
        (dict(GOOD, deformation={"taus": [math.nan]}), "deformation taus"),
        (dict(GOOD, deformation={"bulk": ["x"]}), "unknown deformation keys"),
        (dict(GOOD, deformation={"taus": [0.5], "bulk": [math.inf]}), "unknown deformation keys"),
        (dict(GOOD, deformation={"taus": [True]}), "deformation taus"),
        (dict(GOOD, deformation={"taus": 0.5}), "deformation taus"),
        (dict(GOOD, deformation={"taus": [10 ** 400]}), "deformation taus"),
        (dict(_spec_doc(model="wishart", M=3, N=6), deformation={"bulk": [5.0]}),
         "unknown deformation keys"),
        (dict(_spec_doc(model="wishart", M=2, N=6), deformation={"bulk": [0.1] * 3}),
         "unknown deformation keys"),
        # a Wishart spec takes no deformation; the interpolating law is gone
        (dict(_spec_doc(model="wishart", M=3, N=6), deformation={"taus": [0.5]}),
         "a wishart spec takes no deformation"),
        (dict(GOOD, entry_law="interpolating"), "no ensemble"),
        (dict(GOOD, entry_law="interpolating", beta=2, alpha_mix=0.7),
         "unknown ensemble spec keys: ['alpha_mix']"),
        # a spike on more coordinates than the matrix has once escaped as a traceback
        (dict(GOOD, deformation={"taus": [0.5] * 31}), "deformation rank exceeds N"),
    ])
    def test_sample_malformed_spec(self, doc, message, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["sample", "--spec", str(path), "--out", str(tmp_path / "draws")])
        assert code == EXIT_USAGE
        assert not (tmp_path / "draws").exists()
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("test, baseline, replicas, message", [
        (_spec_doc(model="wishart"), GOOD, 100, "must share the model and the profile shape"),
        (_spec_doc(model="wishart"), _spec_doc(model="wishart", M=20), 100,
         "must share the model and the profile shape"),
        (GOOD, GOOD, 50, "fewer than 100 replicas"),
        (dict(GOOD, entry_lw="gaussian"), GOOD, 100, "unknown ensemble spec keys"),
        # a NaN spike once reached the tridiagonal solver, whose multisection never ended
        (dict(GOOD, deformation={"taus": [math.nan]}), GOOD, 100, "deformation taus"),
        (dict(GOOD, alpha_mix=0.0), GOOD, 100, "unknown ensemble spec keys: ['alpha_mix']"),
        (GOOD, dict(GOOD, entry_law="interpolating"), 100, "no ensemble"),
        (dict(GOOD, deformation={"taus": [0.5], "basis": "random"}), GOOD, 100,
         "unknown deformation keys: ['basis']"),
        (dict(GOOD, deformation={"bulk": [0.5]}), GOOD, 100, "unknown deformation keys: ['bulk']"),
        (dict(_spec_doc(model="wishart"), deformation={"taus": [0.5]}), _spec_doc(model="wishart"),
         100, "a wishart spec takes no deformation"),
    ])
    def test_edge_compare_malformed(self, test, baseline, replicas, message, tmp_path, capsys):
        for name, doc in (("t.json", test), ("b.json", baseline)):
            (tmp_path / name).write_text(json.dumps(doc))
        code = cli.main(["edge", "compare", "--test", str(tmp_path / "t.json"),
                         "--baseline", str(tmp_path / "b.json"), "--k", "1",
                         "--replicas", str(replicas), "--out", str(tmp_path / "rep.json")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "rep.json").exists()


class TestSampleCsv:
    def _draw(self, doc, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        assert cli.main(["sample", "--spec", str(tmp_path / "spec.json"), "--replicas", "2",
                         "--seed", "3", "--out", str(tmp_path / "draws")]) == EXIT_PASS
        return [tmp_path / "draws" / f"matrix_{r:05d}.csv" for r in range(2)]

    def test_complex_draw_keeps_imaginary_part(self, tmp_path):
        doc = _spec_doc(beta=2)
        spec = ensembles.EnsembleSpec.from_json(dict(doc, seed=3))
        for r, path in enumerate(self._draw(doc, tmp_path)):
            X = ensembles.sample(spec, r)
            assert np.iscomplexobj(X) and np.abs(X.imag).max() > 0
            assert np.array_equal(np.loadtxt(path, delimiter=",", dtype=complex), X)

    @pytest.mark.parametrize("kw, digests", [
        ({}, ("4976ca3a981792e6", "ff7d7536d90cc445")),
        ({"model": "wishart", "M": 3, "N": 5}, ("c36324b19ceac82f", "3a81c754ee2dd103")),
    ])
    def test_real_draw_bytes(self, kw, digests, tmp_path):
        # sha256 prefixes of the real CSVs: the Wigner pair pins the
        # triangle-only dense stream, the Wishart pair the full M x N one
        from irmlab.profiles import uniform_profile, wishart_profile
        prof = wishart_profile(kw["M"], kw["N"]) if kw else uniform_profile(6)
        doc = ensembles.EnsembleSpec(profile=prof, model=kw.get("model", "wigner")).to_json()
        got = tuple(hashlib.sha256(p.read_bytes()).hexdigest()[:16]
                    for p in self._draw(doc, tmp_path))
        assert got == digests


def _run_config(doc):
    def call(tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        return cli.main(["run", "--config", str(tmp_path / "cfg.json"),
                         "--out", str(tmp_path / "out")])
    return call


def _sample_spec(doc):
    def call(tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        return cli.main(["sample", "--spec", str(tmp_path / "spec.json"),
                         "--out", str(tmp_path / "draws")])
    return call


def _spec(**kw):
    # through the closed spec JSON, which also refuses a key the spec lacks
    from irmlab.profiles import uniform_profile
    doc = ensembles.EnsembleSpec(profile=uniform_profile(8)).to_json()
    return lambda tmp_path: ensembles.EnsembleSpec.from_json(dict(doc, **kw))


GOE8 = ensembles.goe_reference_spec(8)


def _edge_compare(k):
    def call(tmp_path):
        for name in ("t.json", "b.json"):
            (tmp_path / name).write_text(json.dumps(GOOD))
        (tmp_path / "out").mkdir()
        return cli.main(["edge", "compare", "--test", str(tmp_path / "t.json"),
                         "--baseline", str(tmp_path / "b.json"), "--k", str(k),
                         "--replicas", "100", "--out", str(tmp_path / "out" / "report.json")])
    return call

# each row: (input, exception type it raises or EXIT_USAGE)
MALFORMED = {
    "config replicas string": (_run_config(
        {"scenario": "goe-baseline", "params": {"replicas": "500"}}), EXIT_USAGE),
    "config seed string": (_run_config({"scenario": "goe-baseline", "seed": "abc"}), EXIT_USAGE),
    "config seed float": (_run_config({"scenario": "lift2", "seed": 1.5}), EXIT_USAGE),
    "config N float lift2": (_run_config({"scenario": "lift2", "params": {"N": 16.5}}),
                             EXIT_USAGE),
    "config N float goe": (_run_config(
        {"scenario": "goe-baseline", "params": {"N": 16.5}}), EXIT_USAGE),
    "config tol nan": (_run_config({"scenario": "lift2", "params": {"tol": float("nan")}}),
                       EXIT_USAGE),
    "config trials bool": (_run_config({"scenario": "lift2", "params": {"trials": True}}),
                           EXIT_USAGE),
    "config density number": (_run_config(
        {"scenario": "band", "params": {"N": 20, "density": 3}}), EXIT_USAGE),
    "config band unknown density": (_run_config(
        {"scenario": "band", "params": {"N": 20, "density": "cauchy"}}), EXIT_USAGE),
    "config betas": (_run_config(
        {"scenario": "diagrams-exact", "params": {"betas": [1, 3]}}), EXIT_USAGE),
    "config out number": (_run_config({"scenario": "mixing-audit", "out": 5}), EXIT_USAGE),
    "config svg string": (_run_config({"scenario": "mixing-audit", "svg": "false"}),
                          EXIT_USAGE),
    "config csv number": (_run_config({"scenario": "mixing-audit", "csv": 1}), EXIT_USAGE),
    "config threads string": (_run_config({"scenario": "mixing-audit", "threads": "lots"}),
                              EXIT_USAGE),
    "config threads zero": (_run_config({"scenario": "mixing-audit", "threads": 0}),
                            EXIT_USAGE),
    "config block odd N": (_run_config(
        {"scenario": "mixing-audit", "params": {"preset": "block", "N": 63}}), EXIT_USAGE),
    "config blockdiag odd N": (_run_config(
        {"scenario": "mixing-audit", "params": {"preset": "blockdiag", "N": 63}}), EXIT_USAGE),
    "config diagrams over budget": (_run_config(
        {"scenario": "diagrams-exact", "params": {"max_m": 15}}), EXIT_USAGE),
    "config max_m zero": (_run_config(
        {"scenario": "diagrams-exact", "params": {"max_m": 0}}), EXIT_USAGE),
    "config max_m negative": (_run_config(
        {"scenario": "diagrams-exact", "params": {"max_m": -3}}), EXIT_USAGE),
    "config nbpath seeds zero": (_run_config(
        {"scenario": "nbpath-exact", "params": {"seeds": 0}}), EXIT_USAGE),
    "config nbpath n zero": (_run_config(
        {"scenario": "nbpath-exact", "params": {"n": 0}}), EXIT_USAGE),
    "config nbpath wishart_n negative": (_run_config(
        {"scenario": "nbpath-exact", "params": {"wishart_n": -1}}), EXIT_USAGE),
    "config nbpath wishart_M zero": (_run_config(
        {"scenario": "nbpath-exact", "params": {"wishart_M": 0}}), EXIT_USAGE),
    "config nbpath over pair-state budget": (_run_config(
        {"scenario": "nbpath-exact", "params": {"N": 126, "n": 3, "seeds": 1}}), EXIT_USAGE),
    "config lift2 trials zero": (_run_config({"scenario": "lift2", "params": {"trials": 0}}),
                                 EXIT_USAGE),
    "config C past float": (_run_config({"scenario": "gw", "params": {"C": 10 ** 400}}),
                            EXIT_USAGE),
    "sample theta string": (_sample_spec(dict(GOOD, entry_law="theta_goe", theta="3")),
                            EXIT_USAGE),
    # integers past the float range in float fields
    "sample theta past float": (_sample_spec(dict(GOOD, entry_law="theta_goe", theta=10 ** 400)),
                                EXIT_USAGE),
    "sample tail_df past float": (_sample_spec(
        dict(GOOD, entry_law="heavy_tailed", tail_df=10 ** 400)), EXIT_USAGE),
    "sample alpha_mix past float": (_sample_spec(
        dict(GOOD, entry_law="interpolating", beta=2, alpha_mix=10 ** 400)), EXIT_USAGE),
    "spec theta string": (_spec(entry_law="theta_goe", theta="3"), ensembles.EnsembleError),
    "spec beta bool": (_spec(beta=True), ensembles.EnsembleError),
    "spec seed string": (_spec(seed="abc"), ensembles.EnsembleError),
    "spec alpha_mix none": (_spec(entry_law="interpolating", alpha_mix=None),
                            ensembles.EnsembleError),
    "ks nan sample": (lambda tmp_path: edgestats.ks_2sample(np.full(50, np.nan), np.zeros(50)),
                      edgestats.EdgeStatError),
    "ks inf sample": (lambda tmp_path: edgestats.ks_2sample(np.zeros(50), [math.inf] * 50),
                      edgestats.EdgeStatError),
    "ks unequal sizes": (lambda tmp_path: edgestats.ks_2sample(np.zeros(50), np.zeros(49)),
                         edgestats.EdgeStatError),
    "ks empty sample": (lambda tmp_path: edgestats.ks_2sample([], []), edgestats.EdgeStatError),
    "tail zero replicas": (lambda tmp_path: edgestats.tail_estimate(GOE8, [0.5], replicas=0),
                           edgestats.EdgeStatError),
    # an edge test needs 1 <= k <= N coordinates and a level in (0, 1)
    "config k zero": (_run_config({"scenario": "goe-baseline", "params": {"k": 0}}),
                      EXIT_USAGE),
    "config k negative": (_run_config({"scenario": "sparse", "params": {"k": -1}}),
                          EXIT_USAGE),
    "config k over N": (_run_config(
        {"scenario": "goe-baseline", "params": {"N": 20, "k": 21}}), EXIT_USAGE),
    "config k over block size": (_run_config(
        {"scenario": "block", "params": {"D": 2, "M": 5, "k": 11}}), EXIT_USAGE),
    "config k over wishart M": (_run_config(
        {"scenario": "wishart", "params": {"M": 10, "N": 20, "k": 11}}), EXIT_USAGE),
    "config level zero": (_run_config({"scenario": "gw", "params": {"level": 0.0}}),
                          EXIT_USAGE),
    "config level negative": (_run_config(
        {"scenario": "counterexample-blockdiag", "params": {"level": -0.01}}), EXIT_USAGE),
    "config level one": (_run_config({"scenario": "heavy", "params": {"level": 1.0}}),
                         EXIT_USAGE),
    "edge compare k zero": (_edge_compare(0), EXIT_USAGE),
    "edge compare k over N": (_edge_compare(31), EXIT_USAGE),
    "universality k zero": (lambda tmp_path: edgestats.universality_test(GOE8, GOE8, k=0,
                                                                         replicas=100),
                            edgestats.EdgeStatError),
    "universality k negative": (lambda tmp_path: edgestats.universality_test(
        GOE8, GOE8, k=-1, replicas=100), edgestats.EdgeStatError),
    "universality k over N": (lambda tmp_path: edgestats.universality_test(
        GOE8, GOE8, k=9, replicas=100), edgestats.EdgeStatError),
    "universality k float": (lambda tmp_path: edgestats.universality_test(
        GOE8, GOE8, k=1.5, replicas=100), edgestats.EdgeStatError),
    "universality level zero": (lambda tmp_path: edgestats.universality_test(
        GOE8, GOE8, replicas=100, level=0.0), edgestats.EdgeStatError),
    "universality level one": (lambda tmp_path: edgestats.universality_test(
        GOE8, GOE8, replicas=100, level=1.0), edgestats.EdgeStatError),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input(case, tmp_path, capsys):
    call, expected = MALFORMED[case]
    if expected == EXIT_USAGE:
        assert call(tmp_path) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()
    else:
        with pytest.raises(expected):
            call(tmp_path)


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse refuses the command line
        return exc.code


NOT_UTF8 = b'{"scenario": "\xff\xfe"}'


def _input_files(tmp_path):
    """A good spec, a good profile, a good diagrams config, one with a
    negative seed, documents that are not UTF-8 or do not parse, and an
    output directory."""
    (tmp_path / "out").mkdir()
    (tmp_path / "spec.json").write_text(json.dumps(GOOD))
    (tmp_path / "u8.json").write_text(json.dumps({"kind": "square", "data": UNIFORM8.tolist()}))
    cfg = {"scenario": "diagrams-exact", "params": {"N": 2, "max_m": 2}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    (tmp_path / "negative.json").write_text(json.dumps(dict(cfg, seed=-1)))
    (tmp_path / "latin1.json").write_bytes(NOT_UTF8)
    (tmp_path / "broken.json").write_text('{"beta": 1,')
    (tmp_path / "broken.toml").write_text('scenario = "lift2"\n[params\nN = 16\n')


# command lines argparse refuses, counts that would make a verdict vacuous,
# diagram input over the enumeration budget, path input just over the
# pair-state budget (N^3 states, hat size 62 + 64 for Wishart), negative seeds (numpy's
# generators take none), input files that are not UTF-8 or do not parse, and
# mixing check with no profile source, both sources, or --N or --seed with a
# profile file: exit 64, never 2 (a failed check) or a traceback
MIXING_CHECK = ["--t", "1", "--gamma", "1.0", "--delta", "0.05", "--horizon", "10"]
USAGE_ERRORS = [
    ["mixing", "check", "--profile-preset", "uniform"],
    ["mixing", "check", *MIXING_CHECK],
    ["mixing", "check", "--profile", "TMP/u8.json", "--profile-preset", "uniform", *MIXING_CHECK],
    ["mixing", "check", "--profile", "TMP/u8.json", "--profile-preset", "nope", "--N", "1000000",
     *MIXING_CHECK],
    ["mixing", "check", "--profile", "TMP/u8.json", "--N", "8", *MIXING_CHECK],
    ["mixing", "check", "--profile", "TMP/u8.json", "--seed", "5", *MIXING_CHECK],
    ["--threads", "abc", "presets"],
    ["nosuch"],
    ["--threads", "-3", "presets"],
    ["nbpath", "verify", "--seeds", "0"],
    ["cheb", "verify", "--suite", "orthogonality", "--max", "-1"],
    ["cheb", "verify", "--suite", "wishart-poly", "--max", "0"],
    ["sample", "--spec", "TMP/spec.json", "--replicas", "-2", "--out", "TMP/draws"],
    ["diagrams", "verify", "--beta", "3"],
    ["diagrams", "verify", "--n", "30"],
    ["diagrams", "verify", "--n", "-2"],
    ["diagrams", "verify", "--s", "0"],
    ["nbpath", "verify", "--n", "0"],
    ["nbpath", "verify", "--n", "-1"],
    ["nbpath", "verify", "--N", "126", "--n", "3", "--seeds", "1"],
    ["nbpath", "verify", "--model", "wishart", "--N", "64", "--n", "2", "--seeds", "1"],
    ["diagrams", "verify", "--spike", "nan"],
    ["diagrams", "verify", "--spike", "inf"],
    ["run", "--config", "TMP/cfg.json", "--seed", "-1", "--out", "TMP/out"],
    ["run", "--config", "TMP/negative.json", "--out", "TMP/out"],
    ["mixing", "check", "--profile-preset", "gw", "--N", "16", "--t", "1", "--gamma", "2.0",
     "--delta", "0.05", "--horizon", "16", "--seed", "-1"],
    ["cheb", "verify", "--suite", "product", "--seed", "-1"],
    ["sample", "--spec", "TMP/spec.json", "--seed", "-1", "--out", "TMP/draws"],
    ["edge", "compare", "--test", "TMP/spec.json", "--baseline", "TMP/spec.json", "--k", "1",
     "--replicas", "100", "--seed", "-1", "--out", "TMP/out/report.json"],
    ["run", "--config", "TMP/latin1.json", "--out", "TMP/out"],
    ["run", "--config", "TMP/broken.toml", "--out", "TMP/out"],
    ["mixing", "check", "--profile", "TMP/latin1.json", "--t", "1", "--gamma", "1.0",
     "--delta", "0.05", "--horizon", "10"],
    ["sample", "--spec", "TMP/latin1.json", "--out", "TMP/draws"],
    ["sample", "--spec", "TMP/broken.json", "--out", "TMP/draws"],
    ["edge", "compare", "--test", "TMP/latin1.json", "--baseline", "TMP/spec.json", "--k", "1",
     "--replicas", "100", "--out", "TMP/out/report.json"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_error_exit_64(argv, tmp_path, capsys):
    _input_files(tmp_path)
    assert _exit_code([a.replace("TMP", str(tmp_path)) for a in argv]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: " in err or err.startswith("invalid configuration:")
    assert "Traceback" not in err
    assert not (tmp_path / "draws").exists() and not (tmp_path / "out" / "report.json").exists()


UNIFORM8 = np.full((8, 8), 1 / 8)
NEGATIVE8 = UNIFORM8.copy()
NEGATIVE8[0, 1] = NEGATIVE8[1, 0] = -0.1

# profile files are validated when loaded, by every command that reads one
BAD_PROFILES = {
    "row sums 4": {"kind": "square", "data": np.full((8, 8), 0.5).tolist()},
    "negative pair": {"kind": "square", "data": NEGATIVE8.tolist()},
    "kind weird": {"kind": "weird", "data": UNIFORM8.tolist()},
    "no kind": {"data": UNIFORM8.tolist()},
    "bipartite empty": {"kind": "bipartite", "data": [[]]},
    # a circulant row needs L^d entries for torus integers d >= 1 and L >= 2
    "circulant 5 entries on L 3": {"kind": "square", "storage": "circulant", "data": [0.2] * 5,
                                   "metadata": {"torus": {"d": 1, "L": 3}}},
    "circulant d string": {"kind": "square", "storage": "circulant", "data": [0.125] * 8,
                           "metadata": {"torus": {"d": "1", "L": 8}}},
    "circulant no torus": {"kind": "square", "storage": "circulant", "data": [0.125] * 8},
    "metadata list": {"kind": "square", "data": UNIFORM8.tolist(), "metadata": [1, 2]},
    "torus list": {"kind": "square", "storage": "circulant", "data": [0.125] * 8,
                   "metadata": {"torus": [1]}},
}


def _bad_profile_call(command, tmp_path, doc):
    from irmlab.profiles import VarianceProfile
    spec8 = ensembles.EnsembleSpec(profile=VarianceProfile(UNIFORM8)).to_json()
    (tmp_path / "profile.json").write_text(json.dumps(doc))
    (tmp_path / "spec.json").write_text(json.dumps(dict(spec8, profile=doc)))
    (tmp_path / "good.json").write_text(json.dumps(spec8))
    return {
        "mixing": ["mixing", "check", "--profile", str(tmp_path / "profile.json"), "--t", "1",
                   "--gamma", "1.0", "--delta", "0.05", "--horizon", "10"],
        "sample": ["sample", "--spec", str(tmp_path / "spec.json"), "--eigs-only",
                   "--out", str(tmp_path / "draws")],
        "edge": ["edge", "compare", "--test", str(tmp_path / "spec.json"),
                 "--baseline", str(tmp_path / "good.json"), "--k", "1", "--replicas", "100",
                 "--out", str(tmp_path / "rep.json")],
    }[command]


# (an ensemble spec already refused a profile of another kind than its model's)
@pytest.mark.parametrize("case, command", [
    (case, command) for case in sorted(BAD_PROFILES) for command in ("mixing", "sample", "edge")
    if case != "kind weird" or command == "mixing"])
def test_malformed_profile_file_exit_64(case, command, tmp_path, capsys):
    assert cli.main(_bad_profile_call(command, tmp_path, BAD_PROFILES[case])) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and "Traceback" not in err
    assert not (tmp_path / "draws").exists() and not (tmp_path / "rep.json").exists()
