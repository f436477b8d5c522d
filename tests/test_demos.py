"""Smoke test: each demo runs to completion.

The demos run from a copy of demos/, because the first one rewrites the
committed archive demos/data/square_sym_force.json; the test checks that
the archive it writes is byte-identical to the committed one. Each demo's
stdout is pinned byte for byte in DEMO_STDOUT.
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

DEMO_02_STDOUT = (
    "symmetric square wave, force vs angle\n"
    "angle  force (N)\n"
    "   30   2.189\n"
    "   45   2.301\n"
    "   60   2.324\n"
    "   75   2.256\n"
    "   90   2.099\n"
    "  105   1.851\n"
    "  120   1.514\n"
    "  135   1.087\n"
    "  150   0.569\n"
    "\n"
    "curve family, force vs angle per wall thickness (N)\n"
    "angle  T=0.4mm  T=0.8mm  T=1.2mm  T=1.6mm\n"
    "   30    1.72    5.77   12.52   21.97\n"
    "   45    2.68    6.73   13.48   22.93\n"
    "   60    3.32    7.37   14.12   23.57\n"
    "   75    3.65    7.70   14.45   23.90\n"
    "   90    3.66    7.71   14.46   23.91\n"
    "  105    3.36    7.41   14.16   23.61\n"
    "  120    2.74    6.79   13.54   23.00\n"
    "  135    1.81    5.86   12.61   22.06\n"
    "  150    0.57    4.62   11.37   20.82\n"
    "\n"
    "query at 20 deg -> OutOfValidatedRangeError: deformation angle 20 deg outside the "
    "validated window [30, 150] deg for this family\n"
    "\n"
    "deformation envelopes (deg, N):\n"
    "{\n"
    '  "version": 1,\n'
    '  "envelopes": [\n'
    "    {\n"
    '      "family": "curve",\n'
    '      "thick_wall": false,\n'
    '      "yield_angle_deg": 140.0,\n'
    '      "self_contact_angle_deg": null,\n'
    '      "max_observed_force_n": 2.9,\n'
    '      "return_decay_onset_deg": 90.0\n'
    "    },\n"
    "    {\n"
    '      "family": "curve",\n'
    '      "thick_wall": true,\n'
    '      "yield_angle_deg": 140.0,\n'
    '      "self_contact_angle_deg": null,\n'
    '      "max_observed_force_n": 7.1,\n'
    '      "return_decay_onset_deg": 90.0\n'
    "    },\n"
    "    {\n"
    '      "family": "double_curve",\n'
    '      "thick_wall": null,\n'
    '      "yield_angle_deg": 150.0,\n'
    '      "self_contact_angle_deg": 110.0,\n'
    '      "max_observed_force_n": 15.5,\n'
    '      "return_decay_onset_deg": 150.0\n'
    "    },\n"
    "    {\n"
    '      "family": "square_nonsym",\n'
    '      "thick_wall": null,\n'
    '      "yield_angle_deg": 90.0,\n'
    '      "self_contact_angle_deg": 150.0,\n'
    '      "max_observed_force_n": null,\n'
    '      "return_decay_onset_deg": 40.0\n'
    "    },\n"
    "    {\n"
    '      "family": "square_sym",\n'
    '      "thick_wall": null,\n'
    '      "yield_angle_deg": 90.0,\n'
    '      "self_contact_angle_deg": 150.0,\n'
    '      "max_observed_force_n": null,\n'
    '      "return_decay_onset_deg": 70.0\n'
    "    },\n"
    "    {\n"
    '      "family": "straight",\n'
    '      "thick_wall": null,\n'
    '      "yield_angle_deg": 135.0,\n'
    '      "self_contact_angle_deg": null,\n'
    '      "max_observed_force_n": null,\n'
    '      "return_decay_onset_deg": 135.0\n'
    "    }\n"
    "  ]\n"
    "}\n"
)

DEMO_03_STDOUT = (
    "ring module design summary\n"
    "----------------------------------------\n"
    "outer radius            100 mm\n"
    "sections                5\n"
    "total joints            40\n"
    "target ratio            0.85\n"
    "half-section arc        62.8319 mm\n"
    "target half arc         53.4071 mm\n"
    "bend angle per joint    31.7883 deg\n"
    "per-joint force         1.05 N (override)\n"
    "total cable force       42 N\n"
    "torque at spindle       0.126 N*m\n"
    "min spindle radius      1.90476 mm\n"
    "recommended spindle     3 mm\n"
    "predicted return angle  n/a\n"
    "flags                   overdrive\n"
    "notes:\n"
    "  - override 1.05 N vs model prediction 2.20714 N at 31.79 deg\n"
    "\n"
    "target ratio sweep (model-predicted joint forces):\n"
    "ratio  bend (deg)  total force (N)  feasible\n"
    " 0.95       18.2            81.5  overdrive\n"
    " 0.90       25.8            85.7  overdrive\n"
    " 0.85       31.8            88.3  overdrive\n"
    " 0.80       36.9            90.1  overdrive\n"
    " 0.75       41.4            91.3  overdrive\n"
    " 0.70       45.6            92.2  overdrive\n"
    " 0.65       49.5            92.7  overdrive\n"
    " 0.60       53.1            93.0  overdrive\n"
    " 0.55       56.6            93.1  overdrive\n"
    " 0.50       60.0            93.0  overdrive\n"
    " 0.45       63.3            92.7  overdrive\n"
    " 0.40       66.4            92.2  overdrive\n"
    " 0.35       69.5            91.7  overdrive\n"
    " 0.30       72.5            90.9  overdrive\n"
    " 0.25          -               -  fold hits the module center\n"
    " 0.20          -               -  fold hits the module center\n"
    " 0.15          -               -  fold hits the module center\n"
    " 0.10          -               -  fold hits the module center\n"
)
DEMO_STDOUT = {
    "01_bench_data_to_model.py": DEMO_01_STDOUT,
    "02_builtin_models_and_envelopes.py": DEMO_02_STDOUT,
    "03_ring_design_study.py": DEMO_03_STDOUT,
}


@pytest.mark.parametrize("name", DEMO_STDOUT)
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
    assert result.stdout == DEMO_STDOUT[name]
    if name.startswith("01_"):
        assert (demos / ARCHIVE).read_bytes() == (REPO / "demos" / ARCHIVE).read_bytes()
