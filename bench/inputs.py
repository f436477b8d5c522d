"""Seeded input files for the benchmark workloads.

Everything the CLI reads is written here: two bench CSVs and the 18 ring
design specs. The same seed gives byte-identical files. Every number goes
through float() before repr(): under numpy 2 a numpy scalar's repr is
"np.float64(10.0)", which the CSV parser rejects.
"""

import json
from pathlib import Path

import numpy as np

HEADER = "family,thickness_mm,deformation_angle_deg,direction,force_n,return_angle_deg,run_id"
RUNS = 3

SQUARE_ANGLES = np.linspace(10.0, 170.0, 340)  # 340 distinct angles, spacing 0.47 deg
SQUARE_ANGLE_BIN = 0.25  # narrower than the spacing: averaging keeps n = 340
CURVE_ANGLES = np.linspace(30.0, 150.0, 81)  # 1.5 deg spacing
CURVE_THICKNESSES = (0.4, 0.8, 1.2, 1.6)
CURVE_ANGLE_BIN = 1.0  # n = 81 * 4 = 324 after averaging

# demo 3's ring; ratios 0.95 down to 0.10 in steps of 0.05
DESIGN_RATIOS = tuple(pct / 100.0 for pct in range(95, 9, -5))
FOLD_LIMIT_RATIO = 0.30  # below this the fold crosses the ring centre: exit 1


def _square_force(theta):
    return 1.7 + 0.023 * theta - 5e-5 * theta**2


def _square_return(theta):
    return 180.0 if theta <= 70.0 else 180.0 - 0.25 * (theta - 70.0)


def _curve_force(theta, thickness):
    return 0.3 + 0.02 * theta - 5e-5 * theta**2 + 4.0 * thickness**2


def _curve_return(theta):
    return 180.0 if theta <= 90.0 else 180.0 - 0.3 * (theta - 90.0)


def _row(family, thickness, theta, force, ret, run):
    thick = repr(float(thickness)) if thickness is not None else ""
    return f"{family},{thick},{float(theta)!r},forward,{float(force)!r},{float(ret)!r},r{run}"


def square_csv(rng) -> str:
    lines = [HEADER]
    for theta in SQUARE_ANGLES:
        for run in range(1, RUNS + 1):
            f = max(0.0, _square_force(theta) + rng.normal(0.0, 0.05))
            r = min(180.0, max(0.0, _square_return(theta) + rng.normal(0.0, 1.0)))
            lines.append(_row("square_sym", None, theta, f, r, run))
    return "\n".join(lines) + "\n"


def curve_csv(rng) -> str:
    lines = [HEADER]
    for thickness in CURVE_THICKNESSES:
        for theta in CURVE_ANGLES:
            for run in range(1, RUNS + 1):
                f = max(0.0, _curve_force(theta, thickness) + rng.normal(0.0, 0.08))
                r = min(180.0, max(0.0, _curve_return(theta) + rng.normal(0.0, 1.0)))
                lines.append(_row("curve", thickness, theta, f, r, run))
    return "\n".join(lines) + "\n"


def design_spec(ratio: float) -> dict:
    return {
        "outer_radius_mm": 100.0,
        "n_sections": 5,
        "joints_per_ring": 40,
        "ring_layers": 2,
        "target_ratio": float(ratio),
        "actuator": {"rated_torque_nm": 0.08, "spindle_radius_mm": 3.0},
        "joint": {"family": "square_sym", "thickness_mm": None},
    }


def write_inputs(work: Path, seed: int) -> dict:
    """Write every input file under work; returns their paths by role."""
    rng = np.random.default_rng(seed)
    paths = {"square_csv": work / "square.csv", "curve_csv": work / "curve.csv", "specs": []}
    paths["square_csv"].write_text(square_csv(rng), encoding="utf-8")
    paths["curve_csv"].write_text(curve_csv(rng), encoding="utf-8")
    for i, ratio in enumerate(DESIGN_RATIOS):
        p = work / f"spec_{i:02d}.json"
        p.write_text(json.dumps(design_spec(ratio), indent=2) + "\n", encoding="utf-8")
        paths["specs"].append((ratio, p))
    return paths
