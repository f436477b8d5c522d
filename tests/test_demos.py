"""Smoke test: each demo runs to completion.

The demos run from a copy of demos/, because the first one rewrites the
committed archive demos/data/square_sym_force.json; the test checks that
the archive it writes is byte-identical to the committed one, and that the
first demo's report is exactly DEMO_01_STDOUT.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
ARCHIVE = Path("data") / "square_sym_force.json"
DEMO_01_STDOUT = (
    "loaded 51 raw samples from square_sym_bench.csv\n"
    "averaged down to 17 samples (averaged with angle_bin=5 deg)\n"
    "\n"
    "GP leave-one-out RMSE:   force 0.0335 N, return 0.534 deg\n"
    "degree-7 poly LOO RMSE:  force 0.0883 N\n"
    "\n"
    "angle   force (N)        return angle (deg)\n"
    "   30    2.34 +/- 0.05    179.7\n"
    "   60    2.88 +/- 0.05    180.0\n"
    "   90    3.42 +/- 0.05    176.1\n"
    "  120    3.70 +/- 0.05    167.2\n"
    "  150    4.03 +/- 0.05    159.7\n"
    "\n"
    "archived force model -> square_sym_force.json\n"
)


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
        assert result.stdout == DEMO_01_STDOUT
