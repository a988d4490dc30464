#!/usr/bin/env python3
"""The seed panel: each edge preset's verdicts over seeds 0-19.

    PYTHONPATH=src python3 scripts/panel.py

runs every edge scenario of ``cli.SCENARIOS`` (those with ``replicas``) at its
preset parameters through ``cli.run_scenario``, once per seed, and prints one
row per preset:

- wrong: the seeds whose exit code is not 0, i.e. whose verdict is not the
  intended one;
- binom_p: for a preset meant to pass, P(X >= wrong) for X ~ Binomial(20,
  level), the chance of that many false rejections at the preset's level;
- median_p: the median over seeds of each run's smallest p-value;
- gap<1e-3: the seeds whose ungated ``gap_p_value`` is below 1e-3.

It takes about a minute on two cores and writes nothing.
"""

from __future__ import annotations

import math
import statistics
import sys

from irmlab import cli

SEEDS = range(20)


def binomial_tail(count, trials, prob):
    """P(X >= count) for X ~ Binomial(trials, prob)."""
    return sum(math.comb(trials, i) * prob ** i * (1 - prob) ** (trials - i)
               for i in range(count, trials + 1))


def preset_row(scenario):
    params = cli.SCENARIOS[scenario]
    wrong, min_ps, low_gaps = 0, [], 0
    for seed in SEEDS:
        code, payload = cli.run_scenario(scenario, params, seed)
        report = payload["edge_report"]
        wrong += code != cli.EXIT_PASS
        min_ps.append(min(report["p_values"]))
        low_gaps += report["gap_p_value"] < 1e-3
    expect_rejection = payload["criteria"]["expect_rejection"]
    binom = "-" if expect_rejection else f"{binomial_tail(wrong, len(SEEDS), params['level']):.3g}"
    return [scenario, f"{wrong}/{len(SEEDS)}", binom, f"{statistics.median(min_ps):.3g}",
            str(low_gaps)]


def main():
    rows = [["preset", "wrong", "binom_p", "median_p", "gap<1e-3"]]
    rows += [preset_row(name) for name, params in cli.SCENARIOS.items() if "replicas" in params]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
