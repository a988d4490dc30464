"""Workload definitions: inputs from the seed, the ops, and their output checks.

Each workload is a list of ops.  An op drives irmlab's public functions and
returns what they return; its check returns a list of problems (empty when
the output is correct).  An op fails when it raises, when it exits with 64,
or when its check finds a problem.

Pinned verdicts are the ones this code gives at ``PINNED_SEED``.  They are
checked at that seed, and at every seed for ops whose inputs do not depend
on the seed.  Every other check runs on every seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from irmlab import chebyshev, cli, diagrams, ensembles, markov, nonbacktracking, profiles

PINNED_SEED = 0


@dataclasses.dataclass
class Op:
    name: str
    run: object            # () -> result
    check: object          # result -> list of problems


# ---------------------------------------------------------------------------
# edge-n300: cli.run of the edge scenarios at N = 300
# ---------------------------------------------------------------------------
# This is where the tier-1 suite spends its time (criteria 8, 9 and 11):
# sampling, the dense eigensolve and KS dominate, markov and diagrams do no
# work.  The ops mix a reducible profile with irreducible ones, GOE/GUE
# baselines with a Wishart baseline, and real with complex entries, so block
# splitting, a tridiagonal baseline or dropping the Hermitian re-check each
# apply to some ops and not to others.  Each op writes report.json, the
# samples CSV and the SVG histograms, as a user's run does.

EDGE_N = 300
EDGE_REPLICAS = 100          # the smallest replica count the CLI accepts

EDGE_SCENARIOS = {
    # GUE self-test: complex Hermitian entries, the costliest eigensolve
    "goe-baseline": {"beta": 2},
    # circulant band profile, W = N^0.8: materialized from the circulant row
    "band": {},
    # sparse theta-Rademacher entries: Bernoulli mask and sign sampler
    "sparse": {},
    # generalized-Wigner profile: a Sinkhorn profile build inside the op
    "gw": {},
    # Student-t entries with truncation: the heavy-tailed sampler
    "heavy": {},
    # bipartite banded Wishart against a Wishart baseline (not GOE): the
    # spectrum is of H H^*, so a GOE/GUE tridiagonal baseline does not apply
    "wishart": {"M": 200},
    # reducible block-diagonal profile, k = 1: the only op block splitting helps
    "counterexample-blockdiag": {},
}

# Verdicts at PINNED_SEED: exit code and per-coordinate rejections.
EDGE_PINS = {
    "goe-baseline": (0, [False, False]),
    "band": (0, [False, False]),
    "sparse": (0, [False, False]),
    "gw": (0, [False, False]),
    "heavy": (2, [True, True]),
    "wishart": (2, [True, True]),
    "counterexample-blockdiag": (2, [False]),
}


def _edge_op(scenario, extra, seed, out_root):
    out = os.path.join(out_root, scenario)
    params = dict(extra, N=EDGE_N, replicas=EDGE_REPLICAS)
    config = cli.parse_config({"scenario": scenario, "seed": seed, "out": out,
                               "params": params, "csv": True, "svg": True})
    p = config["params"]
    expect_rejection = scenario == "counterexample-blockdiag"
    first_report = []

    def check(code):
        if code == cli.EXIT_USAGE:
            return ["exit code 64 (invalid configuration)"]
        with open(os.path.join(out, "report.json"), "rb") as fh:
            raw = fh.read()
        rep = json.loads(raw)
        er = rep["payload"]["edge_report"]
        k, level = p["k"], p["level"]
        pvals = er["p_values"]
        problems = []
        if rep["exit_code"] != code:
            problems.append(f"report exit_code {rep['exit_code']} != returned {code}")
        if len(pvals) != k or not all(0.0 <= x <= 1.0 for x in pvals):
            problems.append(f"p-values {pvals} not k={k} values in [0, 1]")
        if er["reject"] != [x < level / k for x in pvals]:
            problems.append("reject flags disagree with the Bonferroni level")
        if er["rejected"] != any(er["reject"]):
            problems.append("rejected disagrees with the reject flags")
        if code != (cli.EXIT_PASS if er["rejected"] == expect_rejection else cli.EXIT_FAIL):
            problems.append(f"exit code {code} disagrees with the verdict")
        with open(os.path.join(out, "samples.csv")) as fh:
            rows = sum(1 for _ in fh)
        if rows != 1 + 2 * p["replicas"] * k:
            problems.append(f"samples.csv has {rows} lines")
        svgs = [f for f in os.listdir(out) if f.endswith(".svg")]
        if len(svgs) != k:
            problems.append(f"{len(svgs)} SVG files for k={k}")
        if first_report and raw != first_report[0]:
            problems.append("report.json bytes differ from the first pass")
        first_report[:] = [raw]
        if seed == PINNED_SEED:
            pin_code, pin_reject = EDGE_PINS[scenario]
            if (code, er["reject"]) != (pin_code, pin_reject):
                problems.append(f"verdict (exit {code}, reject {er['reject']}) != pinned "
                                f"(exit {pin_code}, reject {pin_reject})")
        return problems

    return Op(scenario, lambda: cli.run(config), check)


def edge_setup(seed, out_root):
    ops = [_edge_op(s, extra, seed, out_root) for s, extra in EDGE_SCENARIOS.items()]
    # warm-up: first real and complex eigensolve and sample at this size
    for beta in (1, 2):
        spec = ensembles.goe_reference_spec(EDGE_N, beta=beta)
        np.linalg.eigvalsh(ensembles.sample(spec))
    return ops


# ---------------------------------------------------------------------------
# mixing-certify: markov.check_mixing / bipartite_check_mixing
# ---------------------------------------------------------------------------
# Only markov and profiles work here; this is the workload a single spectral
# mixing engine rewrites, and the other two workloads predict no change from
# it.  Profiles are built in set-up.

@dataclasses.dataclass
class MixingCase:
    build: object          # seed -> profile
    args: tuple            # (t_N, gamma, delta, horizon)
    seeded: bool           # inputs depend on the seed
    pin: dict              # verdict at PINNED_SEED


def _gw_horizon(N, c=0.5, C=2.0):
    return int(math.ceil(100 * (C / c) * math.log(N)))


MIXING_CASES = {
    # circulant band: N >= 512 takes the longdouble branch, 8 dense powers, and
    # the certificate is labelled fourier while it builds the dense matrix
    "band-n512": MixingCase(
        lambda seed: profiles.band_profile(1, 512, 64, "gaussian"),
        (8, 2.0, 0.05, 8), False,
        {"b1_pass": True, "refuted": True, "passed": False, "horizon_limited": True}),
    # generalized Wigner at criterion 7's t = 2219: the long float64 horizon
    "gw-n256": MixingCase(
        lambda seed: profiles.generalized_wigner_profile(256, 0.5, 2.0, seed=seed),
        (_gw_horizon(256), 3.0, 0.05, _gw_horizon(256)), True,
        {"b1_pass": True, "refuted": False, "passed": True, "horizon_limited": False}),
    # block-orbital profile: a large spectral gap, the tail closes early
    "block-n256": MixingCase(
        lambda seed: profiles.block_wegner_profile(4, 64, 0.5),
        (16, 2.0, 0.05, 64), False,
        {"b1_pass": True, "refuted": False, "passed": True, "horizon_limited": False}),
    # random 4-regular graph: a sparse kernel with a moderate gap
    "regular-n256": MixingCase(
        lambda seed: profiles.regular_graph_profile(
            profiles.random_regular_adjacency(256, 4, seed=seed), 4),
        (96, 4.0, 0.05, 160), True,
        {"b1_pass": True, "refuted": False, "passed": True, "horizon_limited": False}),
    # banded bipartite Wishart profile: the two-sided chain of bipartite_check_mixing
    "wishart-bipartite": MixingCase(
        lambda seed: profiles.wishart_profile(128, 256, builder="banded"),
        (8, 2.0, 0.05, 64), False,
        {"b1_pass": True, "refuted": False, "passed": True, "horizon_limited": False}),
}


def _mixing_op(name, case, seed):
    prof = case.build(seed)

    def run():
        # looked up at call time, so that the tracer's wrapper is the one used
        fn = markov.bipartite_check_mixing if prof.kind == "bipartite" else markov.check_mixing
        return fn(prof, *case.args)

    def check(rep):
        problems = []
        if rep.b2_pass != (rep.b2_examined and not rep.horizon_limited):
            problems.append("b2_pass disagrees with b2_examined / horizon_limited")
        if not (rep.gamma_observed >= 0 and rep.delta_observed >= 0):
            problems.append("negative or NaN observed gamma/delta")
        if case.seeded and seed != PINNED_SEED:
            return problems
        pin = case.pin
        if rep.b1_pass != pin["b1_pass"]:
            problems.append(f"b1_pass {rep.b1_pass} != pinned {pin['b1_pass']}")
        if rep.refuted != pin["refuted"]:
            problems.append(f"refuted {rep.refuted} != pinned {pin['refuted']}")
        if pin["passed"] and not rep.passed:
            problems.append("passed result lost")
        if rep.horizon_limited and not pin["horizon_limited"]:
            problems.append("horizon_limited went from False to True")
        return problems

    return Op(name, run, check)


def mixing_setup(seed, out_root):
    ops = [_mixing_op(name, case, seed) for name, case in MIXING_CASES.items()]
    # warm-up: float64 (BLAS) and longdouble products
    for dtype in (np.float64, np.longdouble):
        a = np.full((64, 64), 1.0 / 64, dtype=dtype)
        a @ a
    return ops


# ---------------------------------------------------------------------------
# exact-identities: diagrams, nonbacktracking, chebyshev
# ---------------------------------------------------------------------------
# Pure-Python combinatorics (gluing enumeration, contraction, Wick tuple
# recursion) with BLAS idle.  Merging duplicate code paths must show no
# change here.  Sizes do not depend on the seed, only the values do, so every
# seed costs the same.

DIAGRAM_TOL = 1e-9
PATH_TOL = 1e-8
QGRID_TOL = 1e-10
PERIMETERS = [[m] for m in range(1, 9)] + [[2, 2], [2, 4], [3, 3]]
PATH_TRIALS = 40


def _sinkhorn_profile(N, rng):
    M = rng.uniform(0.5, 1.5, (N, N))
    return profiles.VarianceProfile(
        profiles.sinkhorn_symmetric(0.5 * (M + M.T)), kind="square").validate()


def _diagram_op(ms, prof, A, beta, label):
    def check(rep):
        checks = rep["checks"]
        want = {"ribbon", "chebyshev"} | ({"cumulant"} if len(ms) >= 2 else set())
        problems = [f"missing identity {n}" for n in sorted(want - set(checks))]
        for name, c in checks.items():
            if not abs(c["lhs"] - c["rhs"]) <= DIAGRAM_TOL * max(1.0, abs(c["lhs"])):
                problems.append(f"{name}: |lhs - rhs| = {abs(c['lhs'] - c['rhs']):.3e}")
        return problems

    return Op(f"diagrams {label} {ms}",
              lambda: diagrams.verify_expansions(ms, prof, A, beta, tol=DIAGRAM_TOL),
              check)


def _residual_check(residual):
    return [] if residual <= PATH_TOL else [f"residual {residual:.3e} > {PATH_TOL}"]


def _wigner_op(i, seed):
    N, n, beta = 4 + i % 5, 6 + i % 5, 1 + i % 2
    rng = ensembles.rng_for(seed, i, 21)
    prof = profiles.uniform_profile(N) if i % 4 < 2 else _sinkhorn_profile(N, rng)
    H = np.sqrt(prof.variances) * ensembles.sample_wigner(N, beta, seed, i)
    u = rng.standard_normal(N)
    u /= np.linalg.norm(u)
    A = (0.5 + rng.random()) * np.outer(u, u)
    return Op(f"nbpath wigner {i}",
              lambda: max(nonbacktracking.verify_wigner_path_expansion(H, prof, n),
                          nonbacktracking.verify_wigner_path_expansion(H, prof, n, A)),
              _residual_check)


def _wishart_op(i, seed):
    M = 2 + i % 3
    N, n = M + 2, 2 + i % 4
    prof = profiles.wishart_profile(M, N, builder="banded" if i % 2 else "uniform")
    rng = ensembles.rng_for(seed, i, 13)
    H = np.sqrt(prof.variances) * rng.standard_normal((M, N))
    u = rng.standard_normal(M)
    v = rng.standard_normal(N)
    A = 0.4 * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
    return Op(f"nbpath wishart {i}",
              lambda: max(nonbacktracking.verify_wishart_path_expansion(H, prof, n),
                          nonbacktracking.verify_wishart_path_expansion(H, prof, n, A)),
              _residual_check)


def _chebyshev_ops(seed):
    rng = np.random.default_rng(seed)
    lists = [rng.integers(1, 16, size=int(rng.integers(1, 5))).tolist()
             for _ in range(200)]

    def flag(ok):
        return [] if ok else ["identity failed"]

    def qgrid(worst):
        return [] if worst <= QGRID_TOL else [f"worst rel error {worst:.3e}"]

    return [
        Op("chebyshev orthogonality", lambda: chebyshev.orthogonality_check(40)["passed"],
           flag),
        Op("chebyshev product", lambda: all(chebyshev.product_coeff_identity(ms)[0]
                                            for ms in lists), flag),
        Op("chebyshev q-grid", lambda: max(chebyshev.q_vs_chebyshev_grid(n, a)
                                           for a in (0.25, 0.5, 1.0)
                                           for n in range(1, 21)), qgrid),
        Op("chebyshev un-pn", lambda: all(chebyshev.un_pn_identity_exact(n, a)
                                          for a in (0.25, 0.5, 1.0)
                                          for n in range(1, 13)), flag),
    ]


def exact_setup(seed, out_root):
    ops = []
    for beta in (1, 2):
        for N in (3, 4):
            rng = np.random.default_rng([seed, N])
            spike = np.zeros((N, N))
            spike[0, 0] = 1.1
            for pname, prof in (("uniform", profiles.uniform_profile(N)),
                                ("sinkhorn", _sinkhorn_profile(N, rng))):
                for A in (None, spike):
                    label = f"b{beta} N{N} {pname}{' spike' if A is not None else ''}"
                    ops += [_diagram_op(ms, prof, A, beta, label) for ms in PERIMETERS]
    ops += [_wigner_op(i, seed) for i in range(PATH_TRIALS)]
    ops += [_wishart_op(i, seed) for i in range(PATH_TRIALS)]
    ops += _chebyshev_ops(seed)
    # warm-up: the smallest identity check touches every diagrams code path
    diagrams.verify_expansions([2], profiles.uniform_profile(2), None, 1)
    return ops


WORKLOADS = {
    "edge-n300": edge_setup,
    "mixing-certify": mixing_setup,
    "exact-identities": exact_setup,
}
