"""Configuration-driven experiment runner and command-line interface.

Scenarios mirror the application families: Gaussian baseline self-test,
generalized-Wigner, band, sparse, block, heavy-tailed, 2-lifts, Wishart,
the block-diagonal negative control, the exact diagram and path-expansion
suites, and a mixing audit.  Reports are machine-readable JSON with fully
deterministic bytes for a fixed (config, seed); wall-clock metadata goes to
a sidecar file.  Exit codes: 0 pass, 2 check failed, 3 inconclusive
(horizon-limited / low power), 64 invalid configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from irmlab import (chebyshev, diagrams, edgestats, ensembles, markov,
                    nonbacktracking, profiles)

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# scenario registry
# ---------------------------------------------------------------------------

SCENARIOS = {
    "goe-baseline": {"N": 150, "replicas": 300, "k": 2, "beta": 1, "level": 0.01},
    "gw": {"N": 150, "replicas": 300, "k": 2, "c": 0.5, "C": 2.0, "level": 0.01},
    "band": {"N": 150, "W": 0, "replicas": 300, "k": 2, "density": "gaussian",
             "level": 0.01},
    "sparse": {"N": 150, "theta": 4.0, "replicas": 300, "k": 2, "level": 0.01,
               "entry_law": "theta_rademacher"},
    "block": {"D": 4, "M": 40, "lam": 0.5, "replicas": 300, "k": 2, "level": 0.01},
    "heavy": {"N": 150, "df": 9.0, "zeta": 0.25, "replicas": 300, "k": 2,
              "level": 0.01},
    "lift2": {"N": 32, "d": 4, "trials": 20, "tol": 1e-8},
    "wishart": {"M": 100, "N": 150, "theta": 2.0, "replicas": 300, "k": 2,
                "level": 0.01, "builder": "banded"},
    "counterexample-blockdiag": {"N": 150, "replicas": 300, "k": 1, "level": 1e-3},
    "diagrams-exact": {"N": 3, "max_m": 6, "betas": [1, 2], "spike": 0.0,
                       "tol": 1e-9},
    "nbpath-exact": {"N": 6, "n": 8, "seeds": 20, "wishart_M": 3, "wishart_N": 5,
                     "wishart_n": 4, "tol": 1e-8},
    "mixing-audit": {"preset": "uniform", "N": 64, "t": 1, "gamma": 1.0,
                     "delta": 0.05, "horizon": 64},
}


def _regular_preset(N, seed):
    d = 4 if N > 4 else 2
    return profiles.regular_graph_profile(profiles.random_regular_adjacency(N, d, seed=seed), d)


# mixing-audit profile presets: name -> profile(N, seed); the two-block
# presets need an even N, which _range_check refuses otherwise
MIXING_PRESETS = {
    "uniform": lambda N, seed: profiles.uniform_profile(N),
    "band": lambda N, seed: profiles.band_profile(1, N, max(2, N // 8), "gaussian"),
    "gw": lambda N, seed: profiles.generalized_wigner_profile(N, 0.5, 2.0, seed=seed),
    # theta = 4: each entry kept with probability 1/4, weight 4
    "sparse": lambda N, seed: profiles.sparse_profile(
        np.full((N, N), 0.25), np.full((N, N), 4.0), d=float(N)),
    "block": lambda N, seed: profiles.block_wegner_profile(2, N // 2, 0.5),
    "blockdiag": lambda N, seed: profiles.block_wegner_profile(2, N // 2, 0.0),
    "regular": _regular_preset,
    "wishart": lambda N, seed: profiles.wishart_profile(max(2, N // 2), N, builder="banded"),
}


def list_presets():
    """Scenario names with their default parameters."""
    return {name: dict(params) for name, params in SCENARIOS.items()}


def read_document(path, toml=False):
    """The JSON document in the file at path (TOML when toml is set).  A file
    that is not UTF-8 or does not parse is invalid input, not a traceback."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if toml:
        try:
            import tomllib
        except ImportError as exc:  # python 3.10 without tomllib
            raise ConfigError("TOML configs need Python >= 3.11") from exc
    try:  # UnicodeDecodeError, JSONDecodeError and TOMLDecodeError are ValueErrors
        text = raw.decode("utf-8")
        return tomllib.loads(text) if toml else json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path):
    return parse_config(read_document(path, toml=path.endswith(".toml")))


def parse_config(doc):
    if not isinstance(doc, dict) or not doc:
        raise ConfigError("config must be a non-empty object")
    top = {"seed": 0, "out": ".", "svg": False, "csv": False}
    unknown = set(doc) - {"scenario", "params", *top}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    scenario = doc.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}")
    params = dict(SCENARIOS[scenario])
    for key, val in (doc.get("params") or {}).items():
        if key not in params:
            raise ConfigError(f"unknown parameter {key!r} for scenario {scenario}")
        params[key] = val
    _range_check(scenario, params)
    for key, default in top.items():
        val = top[key] = doc.get(key, default)
        if type(val) is not type(default):
            raise ConfigError(f"{key} must be of type {type(default).__name__}, not {val!r}")
    if top["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, not {top['seed']}")
    return {"scenario": scenario, "params": params, **top}


def _range_check(scenario, p):
    """Check values, never coerce: a number where the preset holds one, then
    the ranges no builder, spec or certificate owns, then integers and finite
    floats (after the range checks, so a check that owns a message about them
    reports it).  k, replicas and level are universality_test's to refuse,
    the profile and entry-law parameters their builders' and EnsembleSpec's."""
    def need(cond, msg):
        if not cond:
            raise ConfigError(f"{scenario}: {msg}")

    preset = SCENARIOS[scenario]
    for key, val in p.items():
        kind = type(preset[key])
        need(type(val) in ((int, float) if kind in (int, float) else (kind,)),
             f"{key} must be of type {kind.__name__}, not {val!r}")
    if "N" in p:
        need(p["N"] >= 2, "N must be >= 2")
    for key in ("max_m", "n", "seeds", "wishart_n", "wishart_M", "trials"):
        if key in p:
            need(p[key] >= 1, f"{key} must be >= 1")  # a count of 0 would check nothing
    if scenario == "heavy":
        need(p["df"] > 4, "df must exceed 4")
    if scenario == "lift2":
        need(p["d"] in (2, 4, 8), "d must be one of 2, 4, 8")
        need(p["N"] <= 64, "lift check capped at N = 64")
    if scenario == "mixing-audit":  # refused before a profile is built
        try:
            markov.check_domain(p["t"], p["gamma"], p["delta"], p["horizon"])
        except markov.MixingDomainError as exc:
            raise ConfigError(f"{scenario}: {exc}") from exc
        if "preset" in p:  # mixing check with --profile reads no preset
            need(p["preset"] in MIXING_PRESETS, f"unknown profile preset {p['preset']!r}; "
                 f"choose from {sorted(MIXING_PRESETS)}")
    if "betas" in p:
        need(all(b in (1, 2) and type(b) is int for b in p["betas"]), "betas must be 1 or 2")
    for key, val in p.items():
        if type(preset[key]) is int:
            need(type(val) is int, f"{key} must be an integer, not {val!r}")
        if type(preset[key]) is float:
            # an integer past the float range is not finite either
            need(abs(val) <= sys.float_info.max, f"{key} must be finite, not {val!r}")
    if p.get("preset") in ("block", "blockdiag"):
        need(p["N"] % 2 == 0, f"{p['preset']} preset needs even N")
    if scenario == "counterexample-blockdiag":
        need(p["N"] % 2 == 0, "blockdiag control needs even N")
    if scenario == "nbpath-exact":  # refused before the first realization is drawn
        for what, size in (("N", p["N"]), ("hat size", p["wishart_M"] + p["wishart_N"])):
            need(size ** 3 <= nonbacktracking.MAX_PAIR_STATES,
                 f"{what} = {size} needs {size ** 3} pair states, over the budget of "
                 f"{nonbacktracking.MAX_PAIR_STATES}")
    if "max_m" in p:
        # the largest perimeters set the cost: refuse them before the smaller checks run
        top = p["max_m"]
        need(top < 64 and p["N"] ** max(top, 4) <= diagrams.MAX_WICK_TUPLES
             and all(diagrams.gluing_count((m,), b, bool(p["spike"])) <= diagrams.MAX_GLUINGS
                     for b in p["betas"] for m in (top - 1, top) if m > 0),
             f"N = {p['N']} and max_m = {top} exceed the enumeration budget")


# ---------------------------------------------------------------------------
# scenario runners: each takes (params, seed) and returns (exit code, payload)
# ---------------------------------------------------------------------------

def edge_verdict(test_spec, baseline_spec, p, seed, expect_rejection=False):
    """universality_test at p's k, replicas and level, and exit code 0 when it
    rejects exactly when expect_rejection says so: every edge verdict."""
    rep = edgestats.universality_test(
        test_spec, baseline_spec, k=p["k"], replicas=p["replicas"], seed=seed, level=p["level"])
    observed = rep.rejected
    status = "rejection expected and observed" if expect_rejection and observed else (
        "no rejection (as expected)" if not expect_rejection and not observed else
        "unexpected outcome")
    code = EXIT_PASS if (observed == expect_rejection) else EXIT_FAIL
    payload = {"edge_report": rep.to_json(), "status": status,
               "criteria": {"level": p["level"], "bonferroni_k": p["k"],
                            "expect_rejection": expect_rejection},
               # raw rescaled samples: popped by the writer (CSV/SVG), kept
               # out of the deterministic report body
               "_samples": {"test": rep.rescaled_test,
                            "baseline": rep.rescaled_baseline}}
    return code, payload


def _against_goe(build):
    """Edge runner comparing the spec build(p, seed) with same-size GOE."""
    def runner(p, seed):
        test = build(p, seed)
        return edge_verdict(test, ensembles.goe_reference_spec(test.N), p, seed)
    return runner


def _run_goe_baseline(p, seed):
    base = ensembles.goe_reference_spec(p["N"], beta=p["beta"])
    return edge_verdict(base, base, p, seed)


def _run_wishart(p, seed):
    test = ensembles.EnsembleSpec(
        model="wishart", entry_law="theta_goe", theta=p["theta"],
        profile=profiles.wishart_profile(p["M"], p["N"], builder=p["builder"]))
    base = ensembles.EnsembleSpec(
        model="wishart", profile=profiles.wishart_profile(p["M"], p["N"], builder="uniform"))
    return edge_verdict(test, base, p, seed)


def _run_blockdiag(p, seed):
    N = p["N"]
    test = ensembles.EnsembleSpec(profile=profiles.block_wegner_profile(2, N // 2, 0.0))
    code, payload = edge_verdict(
        test, ensembles.goe_reference_spec(N), p, seed, expect_rejection=True)
    payload["criteria"]["p_threshold"] = p["level"]
    if code == EXIT_PASS and payload["edge_report"]["p_values"][0] >= p["level"]:
        code = EXIT_FAIL
    return code, payload


def _run_lift2(p, seed):
    rng = np.random.default_rng(seed)
    ok, worst = True, 0.0
    for t in range(p["trials"]):
        g_seed, s_seed = int(rng.integers(2 ** 31)), int(rng.integers(2 ** 31))
        G = profiles.random_regular_adjacency(p["N"], p["d"], seed=g_seed)
        S = edgestats.random_edge_signs(G, seed=s_seed)
        res = edgestats.lift_spectrum_check(G, S, tol=p["tol"])
        worst = max(worst, res["defect"])
        ok = ok and res["pass"]
    return (EXIT_PASS if ok else EXIT_FAIL), {
        "trials": p["trials"], "worst_defect": worst, "all_pass": ok,
        "criteria": {"tol": p["tol"]}}


def _spike(N, value):
    """Coordinate deformation value * e_0 e_0^T, or None for value 0."""
    if not value:
        return None
    A = np.zeros((N, N))
    A[0, 0] = value
    return A


def _run_diagrams_exact(p, seed):
    prof = profiles.uniform_profile(p["N"])
    rng = np.random.default_rng(seed)
    M0 = rng.uniform(0.5, 1.5, (p["N"], p["N"]))
    prof2 = profiles.VarianceProfile(
        profiles.sinkhorn_symmetric(0.5 * (M0 + M0.T)), kind="square")
    A = _spike(p["N"], p["spike"])
    checks = []
    for beta in p["betas"]:
        for pr in (prof, prof2):
            table = diagrams.MomentTable(pr, A, beta)
            for m in range(1, p["max_m"] + 1):
                checks.append(table.verify([m], p["tol"]))
            checks.append(table.verify([2, 2], p["tol"]))
    ok = all(c["pass"] for c in checks)
    return (EXIT_PASS if ok else EXIT_FAIL), {
        "n_checks": len(checks), "all_pass": ok,
        "failures": [c for c in checks if not c["pass"]],
        "criteria": {"tol": p["tol"]}}


def _wigner_residual(N, n, seeds, seed, deformations):
    """Worst Wigner path-expansion residual over GOE draws seed .. seed+seeds-1
    on the uniform profile, each checked with every deformation listed."""
    prof = profiles.uniform_profile(N)
    worst = 0.0
    for s in range(seeds):
        H = np.sqrt(prof.variances) * ensembles.sample_wigner(N, 1, seed + s)
        for A in deformations:
            worst = max(worst, nonbacktracking.verify_wigner_path_expansion(H, prof, n, A))
    return worst


def _wishart_residual(M, N, n, seeds, seed):
    """Worst Wishart path-expansion residual over Gaussian M x N draws on the
    uniform bipartite profile, draw s from stream rng_for(seed, s, 3)."""
    prof = profiles.wishart_profile(M, N)
    worst = 0.0
    for s in range(seeds):
        rng = ensembles.rng_for(seed, s, 3)
        H = np.sqrt(prof.variances) * rng.standard_normal((M, N))
        worst = max(worst, nonbacktracking.verify_wishart_path_expansion(H, prof, n))
    return worst


def _run_nbpath_exact(p, seed):
    worst_w = _wigner_residual(p["N"], p["n"], p["seeds"], seed,
                               [None, _spike(p["N"], 0.8)])
    worst_q = _wishart_residual(p["wishart_M"], p["wishart_N"], p["wishart_n"],
                                p["seeds"], seed)
    ok = worst_w <= p["tol"] and worst_q <= p["tol"]
    return (EXIT_PASS if ok else EXIT_FAIL), {
        "worst_wigner_residual": worst_w, "worst_wishart_residual": worst_q,
        "criteria": {"tol": p["tol"]}, "seeds": p["seeds"]}


def _mixing(prof, p):
    """Certify the profile's chain (the bipartite chain for a bipartite
    profile) with p's t, gamma, delta and horizon; return (exit code, report)."""
    report = markov.check_mixing(prof, p["t"], p["gamma"], p["delta"], p["horizon"])
    if report.refuted:
        code = EXIT_FAIL
    elif report.horizon_limited:
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_PASS if report.passed else EXIT_FAIL
    return code, report


def _run_mixing_audit(p, seed):
    code, report = _mixing(MIXING_PRESETS[p["preset"]](p["N"], seed), p)
    return code, {"mixing_report": report.to_json(),
                  "criteria": {"gamma": p["gamma"], "delta": p["delta"]}}


RUNNERS = {
    "goe-baseline": _run_goe_baseline,
    "gw": _against_goe(lambda p, seed: ensembles.EnsembleSpec(
        profile=profiles.generalized_wigner_profile(p["N"], p["c"], p["C"], seed=seed))),
    "band": _against_goe(lambda p, seed: ensembles.EnsembleSpec(
        profile=profiles.band_profile(1, p["N"], p["W"] or int(math.ceil(p["N"] ** 0.8)),
                                      p["density"]))),
    "sparse": _against_goe(lambda p, seed: ensembles.EnsembleSpec(
        entry_law=p["entry_law"], theta=p["theta"],
        profile=profiles.uniform_profile(p["N"]))),
    "block": _against_goe(lambda p, seed: ensembles.EnsembleSpec(
        profile=profiles.block_wegner_profile(p["D"], p["M"], p["lam"]))),
    "heavy": _against_goe(lambda p, seed: ensembles.EnsembleSpec(
        entry_law="heavy_tailed", tail_df=p["df"], zeta=p["zeta"],
        profile=profiles.uniform_profile(p["N"]))),
    "lift2": _run_lift2,
    "wishart": _run_wishart,
    "counterexample-blockdiag": _run_blockdiag,
    "diagrams-exact": _run_diagrams_exact,
    "nbpath-exact": _run_nbpath_exact,
    "mixing-audit": _run_mixing_audit,
}


def run_scenario(scenario, params, seed):
    if scenario not in RUNNERS:
        raise ConfigError(f"unhandled scenario {scenario}")
    return RUNNERS[scenario](params, seed)


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

def emit_svg(sample_sets, bins, path):
    """Histogram overlay as a standalone SVG with deterministic bytes."""
    if not sample_sets or any(len(v) == 0 for v in sample_sets.values()):
        raise ConfigError("refusing to plot empty sample sets")
    lo = min(float(np.min(v)) for v in sample_sets.values())
    hi = max(float(np.max(v)) for v in sample_sets.values())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    width, height, pad = 640, 360, 40
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    max_h = 0.0
    hists = {}
    for label, v in sample_sets.items():
        h, _ = np.histogram(np.asarray(v, dtype=float), bins=edges, density=True)
        hists[label] = h
        max_h = max(max_h, float(h.max()) if h.size else 0.0)
    if max_h <= 0:
        max_h = 1.0
    for ci, (label, h) in enumerate(sorted(hists.items())):
        color = colors[ci % len(colors)]
        pts = []
        for i, val in enumerate(h):
            x0 = pad + (width - 2 * pad) * i / bins
            x1 = pad + (width - 2 * pad) * (i + 1) / bins
            y = height - pad - (height - 2 * pad) * val / max_h
            pts.append(f"{x0:.2f},{y:.2f} {x1:.2f},{y:.2f}")
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{" ".join(pts)}"/>')
        parts.append(f'<text x="{pad + 8}" y="{pad + 16 * (ci + 1)}" fill="{color}" '
                     f'font-size="12">{label}</text>')
    parts.append(f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
                 f'y2="{height - pad}" stroke="black"/>')
    parts.append("</svg>")
    data = "\n".join(parts).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def _write_samples_csv(path, samples):
    with open(path, "w") as fh:
        fh.write("which,coordinate,value\n")
        for which in ("test", "baseline"):
            for row in samples[which]:
                for i, v in enumerate(row):
                    fh.write(f"{which},{i},{float(v)!r}\n")


# malformed input: reported on stderr with exit code 64, never a traceback
INVALID_INPUT = (ConfigError, profiles.ProfileError, ensembles.EnsembleError,
                 edgestats.EdgeStatError, markov.MixingDomainError, diagrams.BudgetError,
                 diagrams.GluingError, nonbacktracking.NbBudgetError)


def _invalid(exc):
    sys.stderr.write(f"invalid configuration: {exc}\n")
    return EXIT_USAGE


def run(config):
    """Execute a parsed config; write report.json (+ sidecar); return exit code."""
    scenario = config["scenario"]
    seed = config["seed"]
    outdir = config["out"]
    os.makedirs(outdir, exist_ok=True)
    t0 = time.time()
    try:
        code, payload = run_scenario(scenario, config["params"], seed)
    except INVALID_INPUT as exc:
        return _invalid(exc)
    samples = payload.pop("_samples", None)
    report = {
        "scenario": scenario,
        "seed": seed,
        "params": config["params"],
        "exit_code": code,
        "payload": payload,
    }
    rpath = os.path.join(outdir, "report.json")
    with open(rpath, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")
    with open(os.path.join(outdir, "report.meta.json"), "w") as fh:
        json.dump({"elapsed_seconds": time.time() - t0,
                   "written_at": time.strftime("%Y-%m-%dT%H:%M:%S")}, fh)
    if samples:
        if config.get("csv"):
            _write_samples_csv(os.path.join(outdir, "samples.csv"), samples)
        if config.get("svg"):
            for i in range(samples["test"].shape[1]):
                emit_svg({which: v[:, i] for which, v in samples.items()}, 40,
                         os.path.join(outdir, f"hist_coord{i}.svg"))
    return code


# ---------------------------------------------------------------------------
# argparse front end: each subcommand parses its arguments and calls the
# pieces its scenario uses
# ---------------------------------------------------------------------------

def _cmd_run(args):
    config = load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out is not None:
        config["out"] = args.out
    return run(config)


def _cmd_presets(args):
    print(json.dumps(list_presets(), sort_keys=True, indent=1))
    return EXIT_PASS


def _cmd_sample(args):
    spec = dataclasses.replace(ensembles.EnsembleSpec.from_json(read_document(args.spec)),
                               seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    for r in range(args.replicas):
        X = ensembles.sample(spec, replica=r)
        if args.eigs_only:
            np.savetxt(os.path.join(args.out, f"eigs_{r:05d}.csv"),
                       np.sort(np.linalg.eigvalsh(X))[::-1], delimiter=",")
        else:
            np.savetxt(os.path.join(args.out, f"matrix_{r:05d}.csv"), X, delimiter=",")
    return EXIT_PASS


def _cmd_mixing(args):
    p = {"t": args.t, "gamma": args.gamma, "delta": args.delta, "horizon": args.horizon}
    if args.profile is None:
        p.update(preset=args.preset, N=64 if args.N is None else args.N)
    else:
        for flag, value in (("--N", args.N), ("--seed", args.seed)):
            if value is not None:
                raise ConfigError(f"mixing check: {flag} goes with --profile-preset, "
                                  f"not --profile")
    _range_check("mixing-audit", p)
    if args.profile is None:
        prof = MIXING_PRESETS[args.preset](p["N"], 0 if args.seed is None else args.seed)
    else:
        prof = profiles.VarianceProfile.from_json(read_document(args.profile))
    code, report = _mixing(prof, p)
    print(report.dumps())
    return code


def _cmd_cheb(args):
    rep = chebyshev.verify_suite(args.suite, args.max, args.seed)
    print(json.dumps(rep, sort_keys=True))
    return EXIT_PASS if rep["passed"] else EXIT_FAIL


def _cmd_diagrams(args):
    rep = diagrams.verify_expansions([args.n] * args.s, profiles.uniform_profile(args.N),
                                     _spike(args.N, args.spike), args.beta)
    print(json.dumps(rep, sort_keys=True))
    return EXIT_PASS if rep["pass"] else EXIT_FAIL


def _cmd_nbpath(args):
    if args.model == "wigner":
        worst = _wigner_residual(args.N, args.n, args.seeds, 0, [None])
    else:
        worst = _wishart_residual(max(2, args.N - 2), args.N, args.n, args.seeds, 0)
    print(json.dumps({"worst_residual": worst, "passed": worst <= 1e-8},
                     sort_keys=True))
    return EXIT_PASS if worst <= 1e-8 else EXIT_FAIL


def _cmd_edge(args):
    specs = [ensembles.EnsembleSpec.from_json(read_document(path))
             for path in (args.test, args.baseline)]
    p = {"k": args.k, "replicas": args.replicas, "level": 0.01}
    code, payload = edge_verdict(*specs, p, args.seed)
    with open(args.out, "w") as fh:
        json.dump(payload["edge_report"], fh, sort_keys=True)
    samples = payload["_samples"]
    _write_samples_csv(os.path.splitext(args.out)[0] + "_samples.csv", samples)
    if args.svg:
        emit_svg({which: v[:, 0] for which, v in samples.items()}, 40, args.svg)
    return code


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 64; its own 2 means a failed check
    here.  Subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def count(text):
    """A count of at least 1: a count of 0 would make a verdict vacuous."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {n}")
    return n


def seed(text):
    """A seed: numpy's generators take no negative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {n}")
    return n


def main(argv=None):
    ap = _Parser(prog="irmlab")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a config file")
    p_run.set_defaults(func=_cmd_run)
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=seed, default=None)
    p_run.add_argument("--out", default=None)

    sub.add_parser("presets", help="list scenarios and defaults").set_defaults(
        func=_cmd_presets)

    p_sample = sub.add_parser("sample", help="draw ensemble replicas")
    p_sample.set_defaults(func=_cmd_sample)
    p_sample.add_argument("--spec", required=True, help="EnsembleSpec JSON file")
    p_sample.add_argument("--replicas", type=count, default=1)
    p_sample.add_argument("--seed", type=seed, default=0)
    p_sample.add_argument("--out", default=".")
    p_sample.add_argument("--eigs-only", action="store_true")

    p_mix = sub.add_parser("mixing", help="mixing certificates")
    p_mix.set_defaults(func=_cmd_mixing)
    p_mix.add_argument("action", choices=["check"])
    source = p_mix.add_mutually_exclusive_group(required=True)
    source.add_argument("--profile", help="profile JSON file")
    source.add_argument("--profile-preset", dest="preset",
                        help=f"one of {', '.join(MIXING_PRESETS)}")
    p_mix.add_argument("--N", type=int, help="size of the --profile-preset profile (default 64)")
    p_mix.add_argument("--t", type=int, required=True)
    p_mix.add_argument("--gamma", type=float, required=True)
    p_mix.add_argument("--delta", type=float, required=True)
    p_mix.add_argument("--horizon", type=int, required=True)
    p_mix.add_argument("--seed", type=seed,
                       help="seed of the --profile-preset profile (default 0)")

    p_cheb = sub.add_parser("cheb", help="exact polynomial verification suites")
    p_cheb.set_defaults(func=_cmd_cheb)
    p_cheb.add_argument("action", choices=["verify"])
    p_cheb.add_argument("--suite", choices=["orthogonality", "product", "wishart-poly"],
                        required=True)
    p_cheb.add_argument("--max", type=count, default=20)
    p_cheb.add_argument("--seed", type=seed, default=0)

    p_diag = sub.add_parser("diagrams", help="exact diagram-identity verification")
    p_diag.set_defaults(func=_cmd_diagrams)
    p_diag.add_argument("action", choices=["verify"])
    p_diag.add_argument("--s", type=count, default=1)
    p_diag.add_argument("--n", type=count, default=4)
    p_diag.add_argument("--N", type=int, default=3)
    p_diag.add_argument("--beta", type=int, choices=[1, 2], default=1)
    p_diag.add_argument("--spike", type=float, default=0.0)

    p_nb = sub.add_parser("nbpath", help="path-expansion verification")
    p_nb.set_defaults(func=_cmd_nbpath)
    p_nb.add_argument("action", choices=["verify"])
    p_nb.add_argument("--model", choices=["wigner", "wishart"], default="wigner")
    p_nb.add_argument("--n", type=count, default=6)
    p_nb.add_argument("--N", type=int, default=6)
    p_nb.add_argument("--seeds", type=count, default=10)

    p_edge = sub.add_parser("edge", help="edge-statistics comparison")
    p_edge.set_defaults(func=_cmd_edge)
    p_edge.add_argument("action", choices=["compare"])
    p_edge.add_argument("--test", required=True, help="EnsembleSpec JSON")
    p_edge.add_argument("--baseline", required=True, help="EnsembleSpec JSON")
    p_edge.add_argument("--k", type=int, default=2)
    p_edge.add_argument("--replicas", type=int, default=300)
    p_edge.add_argument("--seed", type=seed, default=0)
    p_edge.add_argument("--out", default="report.json")
    p_edge.add_argument("--svg", default=None)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except INVALID_INPUT + (OSError,) as exc:
        return _invalid(exc)


if __name__ == "__main__":
    sys.exit(main())
