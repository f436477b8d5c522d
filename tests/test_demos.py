"""Smoke test: each demo runs to completion.

The demos run from a copy of demos/, because the first one rewrites the
committed archive demos/data/square_sym_force.json; the test checks that
the archive it writes is byte-identical to the committed one.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
ARCHIVE = Path("data") / "square_sym_force.json"


@pytest.mark.parametrize(
    "name",
    [
        "01_bench_data_to_model.py",
        "02_builtin_models_and_envelopes.py",
        "03_ring_design_study.py",
    ],
)
def test_demo_exits_0(tmp_path, name):
    demos = tmp_path / "demos"
    shutil.copytree(REPO / "demos", demos)
    (demos / ARCHIVE).unlink()
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demos / name)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    if name.startswith("01_"):
        assert (demos / ARCHIVE).read_bytes() == (REPO / "demos" / ARCHIVE).read_bytes()
