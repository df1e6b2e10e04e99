"""Byte-level goldens for the shipped gallery scenarios.

Each directory under ``tests/golden/`` holds every report of one scenario in
``scripts/scenarios/``, run at its shipped size and seed.  Regenerate one
with ``renorm-lab run scripts/scenarios/<name>.json --out tests/golden/<name>``
and name the changed fields in CHANGES.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from renormlab.cli import run

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = Path(__file__).parents[1] / "scripts" / "scenarios"
SRC = Path(__file__).parents[1] / "src"


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_gallery_reports_match_golden(name, tmp_path):
    scenario = json.loads((SCENARIOS / f"{name}.json").read_text())
    assert run(scenario, tmp_path) == 0
    want = sorted(p.name for p in (GOLDEN / name).glob("*.json"))
    assert sorted(p.name for p in tmp_path.glob("*.json")) == want
    for report in want:
        assert (tmp_path / report).read_bytes() == (GOLDEN / name / report).read_bytes(), report


# run in a fresh interpreter, so that no earlier test has imported numpy.ma
_NO_MASKED_ARRAYS = """
import sys
from renormlab.cli import main
assert main(["run", sys.argv[1], "--out", sys.argv[2]]) == 0
print("numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
def test_gallery_scenarios_never_import_numpy_ma(name, tmp_path):
    # numpy.ma costs about 14 ms to import; a plain np.unique (also inside
    # np.intersect1d without assume_unique) imports it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS, str(SCENARIOS / f"{name}.json"), str(tmp_path)],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["False"]
