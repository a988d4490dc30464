"""Every preset at seed 0 gives the exit code, report bytes and p-values that
VERDICTS.json records.  A change that moves them on purpose rewrites the file
with scripts/verdicts.py, and the diff names each preset that moved."""

import importlib.util
import json
import pathlib

import pytest

from irmlab import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("verdicts", ROOT / "scripts" / "verdicts.py")
verdicts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verdicts)
MANIFEST = json.loads(verdicts.MANIFEST.read_text())


def test_manifest_covers_every_preset():
    assert MANIFEST["seed"] == 0
    assert sorted(MANIFEST["presets"]) == sorted(cli.SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(cli.SCENARIOS))
def test_preset_matches_the_manifest(scenario, tmp_path):
    assert verdicts.preset_verdict(scenario, tmp_path) == MANIFEST["presets"][scenario]
