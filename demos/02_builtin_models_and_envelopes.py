"""Built-in calibrated force models and the joint envelope table.

Two joint families ship with calibrated quadratic force coefficients: the
curve (wave) family, which takes angle and wall thickness, and the symmetric
square wave, which takes angle only. This script sweeps both and prints the
deformation envelope for every family.

Run from the repository root:  python demos/02_builtin_models_and_envelopes.py
"""

import json

from ugckit import FamilyKind, builtin_model, envelope_table_as_json, predict_many

angles = range(30, 151, 15)  # deg

# 1. square-wave force curve ---------------------------------------------------
square = builtin_model(FamilyKind.SQUARE_SYM)
print("symmetric square wave, force vs angle")
print("angle  force (N)")
for theta, mean in zip(angles, predict_many(square, angles)[0]):
    print(f"{theta:5d}  {mean:6.3f}")

# 2. curve family: force rises with wall thickness ------------------------------
curve = builtin_model(FamilyKind.CURVE)
thicknesses = (0.4, 0.8, 1.2, 1.6)
print("\ncurve family, force vs angle per wall thickness (N)")
print("angle  " + "  ".join(f"T={t}mm" for t in thicknesses))
columns = [predict_many(curve, angles, t)[0] for t in thicknesses]
for theta, row in zip(angles, zip(*columns)):
    print(f"{theta:5d}  " + "  ".join(f"{mean:6.2f}" for mean in row))

# outside 30..150 deg the curve regression has no data and refuses to answer
try:
    predict_many(curve, [20.0], 0.8)
except Exception as exc:
    print(f"\nquery at 20 deg -> {type(exc).__name__}: {exc}")

# 3. the envelope table ----------------------------------------------------------
print("\ndeformation envelopes (deg, N):")
print(json.dumps(envelope_table_as_json(), indent=2))
