"""Byte-level goldens for the shipped gallery scenarios.

Each directory under ``tests/golden/`` holds every report of one scenario in
``scripts/scenarios/``, run at its shipped size and seed.  Regenerate one
with ``renorm-lab run scripts/scenarios/<name>.json --out tests/golden/<name>``
and name the changed fields in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from renormlab.cli import run

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = Path(__file__).parents[1] / "scripts" / "scenarios"


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_gallery_reports_match_golden(name, tmp_path):
    scenario = json.loads((SCENARIOS / f"{name}.json").read_text())
    assert run(scenario, tmp_path) == 0
    want = sorted(p.name for p in (GOLDEN / name).glob("*.json"))
    assert sorted(p.name for p in tmp_path.glob("*.json")) == want
    for report in want:
        assert (tmp_path / report).read_bytes() == (GOLDEN / name / report).read_bytes(), report
