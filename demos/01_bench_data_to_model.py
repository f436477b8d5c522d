"""From bench CSV to a reusable force model.

Walks the full data path: parse the measurement CSV, average repeat runs,
fit the GP force and return-angle models for the symmetric square-wave
family, compare against a degree-7 polynomial baseline, and archive the
result as versioned JSON.

Run from the repository root:  python demos/01_bench_data_to_model.py
"""

from pathlib import Path

from ugckit import (
    FamilyKind,
    average_runs,
    fit_family_model,
    parse_measurements,
    predict_many,
    save_model,
)
from ugckit.joints import loo_rmse_poly

DATA = Path(__file__).parent / "data" / "square_sym_bench.csv"
OUT = Path(__file__).parent / "data" / "square_sym_force.json"

# 1. ingest and inspect ------------------------------------------------------
raw = parse_measurements(DATA.read_text())
print(f"loaded {len(raw)} raw samples from {DATA.name}")

# the bench records 3 runs per angle; collapse them into per-angle means
ds = average_runs(raw, angle_bin=5.0)
print(f"averaged down to {len(ds)} samples (averaged with angle_bin=5 deg)")

# 2. fit the family model -----------------------------------------------------
model = fit_family_model(ds, FamilyKind.SQUARE_SYM)
print(f"\nGP leave-one-out RMSE:   force {model.force_loo_rmse:.4f} N, "
      f"return {model.return_loo_rmse:.3f} deg")

# the dataset holds one array per CSV column
poly_rmse = loo_rmse_poly(ds.deformation_angle, ds.force, degree=7)
print(f"degree-7 poly LOO RMSE:  force {poly_rmse:.4f} N")

# 3. query it -----------------------------------------------------------------
print("\nangle   force (N)        return angle (deg)")
thetas = (30.0, 60.0, 90.0, 120.0, 150.0)
means, stds, returns, _ = predict_many(model, thetas)  # one batched query for all five
for theta, mean, std, ret in zip(thetas, means, stds, returns):
    print(f"{theta:5.0f}   {mean:5.2f} +/- {std:4.2f}   {ret:6.1f}")

# 4. archive for later use (the CLI and design studies load this file) --------
save_model(model.force_model, OUT, family="square_sym", model_id="square_sym:force")
print(f"\narchived force model -> {OUT.name}")
