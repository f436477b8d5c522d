"""Independent output checks: numpy dense inverses, no ugckit import.

Each check returns a list of problems; an empty list means the output is
correct. Every numeric comparison uses a 1e-8 relative tolerance.
"""

import csv
import json
import math

import numpy as np

REL_TOL = 1e-8


def _mismatch(label, got, want) -> list:
    number = isinstance(got, (int, float)) and not isinstance(got, bool)
    if number and math.isclose(float(got), float(want), rel_tol=REL_TOL):
        return []
    return [f"{label}: got {got!r}, oracle {want!r}"]


def _reject_constant(token):
    raise ValueError(f"non-finite JSON number {token}")


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _basis(X):
    return np.hstack([np.ones((X.shape[0], 1)), X, X**2])


def _kernel(A, B, sf2, ls):
    d = (A[:, None, :] - B[None, :, :]) / ls
    return sf2 * np.exp(-0.5 * np.sum(d * d, axis=2))


class DenseGP:
    """A model archive rebuilt with dense inverses."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            doc = strict_json(fh.read())
        self.X = np.array(doc["train_x"], dtype=float)
        self.y = np.array(doc["train_y"], dtype=float)
        self.beta = np.array(doc["beta"], dtype=float)
        self.sf2 = float(doc["kernel"]["signal_variance"])
        self.ls = np.array(doc["kernel"]["length_scales"], dtype=float)
        self.noise = float(doc["noise_variance"])
        n = self.X.shape[0]
        K = _kernel(self.X, self.X, self.sf2, self.ls)
        self.Ainv = np.linalg.inv(K + self.noise * np.eye(n))
        self.alpha = self.Ainv @ (self.y - _basis(self.X) @ self.beta)

    def posterior(self, x):
        """Mean and std at one point, with the archive's stored beta held fixed."""
        xq = np.atleast_2d(np.asarray(x, dtype=float))
        k = _kernel(xq, self.X, self.sf2, self.ls)[0]
        mean = float(_basis(xq)[0] @ self.beta + k @ self.alpha)
        var = self.sf2 - float(k @ self.Ainv @ k)
        return mean, math.sqrt(max(var, 0.0))

    def loo_rmse(self) -> float:
        """Closed-form leave-one-out RMSE with beta re-estimated by GLS per fold:
        e = P y / diag(P), P = A^-1 - A^-1 H (H' A^-1 H)^-1 H' A^-1."""
        H = _basis(self.X)
        W = self.Ainv @ H
        P = self.Ainv - W @ np.linalg.inv(H.T @ W) @ W.T
        e = (P @ self.y) / np.diag(P)
        return float(np.sqrt(np.mean(e * e)))


def averaged_rows(csv_path, angle_bin):
    """(X, force, return) after averaging repeat runs per angle bin, sorted by X."""
    groups = {}
    with open(csv_path, encoding="utf-8", newline="") as fh:
        for rec in csv.DictReader(fh):
            angle = float(rec["deformation_angle_deg"])
            thick = rec["thickness_mm"]
            key = (float(thick) if thick else None, round(angle / angle_bin))
            groups.setdefault(key, []).append(
                (angle, float(rec["force_n"]), float(rec["return_angle_deg"]))
            )
    rows = []
    for (thick, _), members in groups.items():
        angle, force, ret = np.mean(np.array(members), axis=0)
        rows.append(([angle] if thick is None else [angle, thick], force, ret))
    X = np.array([r[0] for r in rows])
    order = np.lexsort(X.T[::-1])
    return X[order], np.array([r[1] for r in rows])[order], np.array([r[2] for r in rows])[order]


def _compare_training(label, gp, X, y) -> list:
    if gp.X.shape != X.shape:
        return [f"{label}: training inputs {gp.X.shape}, expected {X.shape}"]
    order = np.lexsort(gp.X.T[::-1])
    ok = np.allclose(gp.X[order], X, rtol=REL_TOL, atol=0.0) and np.allclose(
        gp.y[order], y, rtol=REL_TOL, atol=0.0
    )
    return [] if ok else [f"{label}: training rows differ from the averaged CSV"]


def check_fit(stdout_text, force_path, return_path, csv_path, angle_bin) -> list:
    """`ugc fit --json`: archives hold the averaged CSV rows and the reported
    force LOO RMSE matches the closed form computed from the force archive."""
    try:
        report = strict_json(stdout_text.strip().splitlines()[-1])
        force, ret = DenseGP(force_path), DenseGP(return_path)
    except (OSError, ValueError, IndexError, KeyError, TypeError) as exc:
        return [f"fit output unreadable: {exc}"]
    X, f, r = averaged_rows(csv_path, angle_bin)
    problems = _compare_training("force archive", force, X, f)
    problems += _compare_training("return archive", ret, X, r)
    if report.get("samples") != X.shape[0]:
        problems.append(f"samples: got {report.get('samples')!r}, expected {X.shape[0]}")
    problems += _mismatch("gpr_loo_rmse_n", report.get("gpr_loo_rmse_n"), force.loo_rmse())
    return problems


def check_sweep(stdout_text, force: DenseGP, ret: DenseGP, start, step, count, sample_rows) -> list:
    """`ugc predict --sweep`: one header plus count rows, all finite, the
    angles on the grid, and sampled rows equal to the dense-inverse posterior."""
    lines = stdout_text.splitlines()
    if len(lines) != count + 1:
        return [f"sweep: {len(lines)} lines, expected {count + 1}"]
    try:
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        return [f"sweep: unparsable row: {exc}"]
    if table.shape != (count, 4) or not np.all(np.isfinite(table)):
        return ["sweep: rows are not four finite numbers"]
    problems = []
    if not np.allclose(table[:, 0], start + step * np.arange(count), rtol=0.0, atol=1e-9):
        problems.append("sweep: angles are off the start:stop:step grid")
    for i in sample_rows:
        theta, mean, std, back = table[i]
        want_mean, want_std = force.posterior([theta])
        want_back = min(180.0, max(0.0, ret.posterior([theta])[0]))
        problems += _mismatch(f"sweep row {i} force", mean, want_mean)
        problems += _mismatch(f"sweep row {i} std", std, want_std)
        problems += _mismatch(f"sweep row {i} return", back, want_back)
    return problems


def check_design(code, expected_code, report_path, ratio, force: DenseGP) -> list:
    """`ugc design`: the expected exit code; on success a finite report whose
    bend angle is acos(ratio) and whose model force is the posterior mean there."""
    if code != expected_code:
        return [f"design ratio {ratio}: exit {code}, expected {expected_code}"]
    if expected_code != 0:
        return []
    try:
        with open(report_path, encoding="utf-8") as fh:
            q = strict_json(fh.read())["quantities"]
        bend, model_force = q["bend_angle"]["value"], q["model_force"]["value"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"design ratio {ratio}: report unreadable: {exc}"]
    want_bend = math.degrees(math.acos(ratio))
    problems = _mismatch(f"design ratio {ratio} bend_angle", bend, want_bend)
    problems += _mismatch(f"design ratio {ratio} model_force", model_force,
                          force.posterior([bend])[0])
    return problems
