#!/usr/bin/env python3
"""The verdict manifest: every preset's seed-0 outcome, pinned in VERDICTS.json.

    PYTHONPATH=src python3 scripts/verdicts.py

runs each scenario of ``cli.SCENARIOS`` at its preset parameters and seed 0
through ``cli.run`` and rewrites ``VERDICTS.json`` at the repository root.
For each preset it records the exit code and the sha256 of ``report.json``,
and for the edge presets the p-values as ``repr`` strings.
``tests/test_verdicts.py`` checks the file with the same ``preset_verdict``,
so a change that moves any report's bytes shows up as a diff of this file.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import tempfile

from irmlab import cli

MANIFEST = pathlib.Path(__file__).resolve().parents[1] / "VERDICTS.json"


def preset_verdict(scenario, out):
    """Run scenario at its preset parameters and seed 0 into the directory out;
    its exit code, report sha256 and, for an edge scenario, its p-values."""
    code = cli.run(cli.parse_config({"scenario": scenario, "out": str(out)}))
    data = (pathlib.Path(out) / "report.json").read_bytes()
    entry = {"exit_code": code, "report_sha256": hashlib.sha256(data).hexdigest()}
    edge = json.loads(data)["payload"].get("edge_report")
    if edge is not None:
        entry["p_values"] = [repr(p) for p in edge["p_values"]]
    return entry


def main():
    with tempfile.TemporaryDirectory() as tmp:
        presets = {name: preset_verdict(name, pathlib.Path(tmp) / name)
                   for name in sorted(cli.SCENARIOS)}
    MANIFEST.write_text(json.dumps({"seed": 0, "presets": presets}, indent=1) + "\n")
    for name, entry in presets.items():
        print(name, entry["exit_code"], entry["report_sha256"][:12], *entry.get("p_values", ()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
