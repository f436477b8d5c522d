"""Shared fixtures: synthetic bench datasets and naive oracles.

The dense-inverse oracles intentionally use explicit loops, math.exp, and
numpy.linalg.inv so they share no code path with the library's
eigendecomposition. Their GLS beta is the minimum-norm one (numpy.linalg.pinv
of the normal matrix), which the library must match on a rank-deficient basis
too. The leave-one-out oracles refit once per held-out row, the
definition the library's closed forms must reproduce; the polynomial one
solves every fold with numpy.linalg.lstsq, not the library's projection.
The bench-data oracles read a CSV one row at a time into Row records and
average runs with a dict of groups, the columnar reader's row-by-row
definition. The row reader is the oracle's own copy of the reader the
library's rule table replaced: it parses each cell itself, builds the family
through the public JointFamily constructor, checks the ranges against its own
table, and words each error with the row and the column.
"""

import csv
import functools
import io
import math
import operator
import sys
from typing import NamedTuple

import numpy as np
import pytest

from ugckit import gpr
from ugckit.data import (
    CSV_COLUMNS,
    Direction,
    FamilyKind,
    JointDataset,
    JointFamily,
    average_runs,
    parse_measurements,
)
from ugckit.errors import (
    BadNumberError,
    InputError,
    MissingColumnError,
    MissingThicknessError,
    OutOfRangeError,
)
from ugckit.units import finite_float


# -- independent GP oracle ----------------------------------------------------


def oracle_kernel(a, b, sf2, ls):
    s = 0.0
    for j in range(len(a)):
        s += ((a[j] - b[j]) / ls[j]) ** 2
    return sf2 * math.exp(-0.5 * s)


def oracle_basis(x):
    return np.array([1.0, *x, *(v * v for v in x)])


def oracle_gp(X, y, sf2, ls, noise, beta=None):
    """Dense-inverse fit; returns (beta, predict) where predict(q) -> (mean, var)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 1 and len(np.asarray(y).ravel()) > 1:
        X = X.T
    y = np.asarray(y, dtype=float).ravel()
    n = X.shape[0]
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = oracle_kernel(X[i], X[j], sf2, ls)
    A = K + noise * np.eye(n)
    Ainv = np.linalg.inv(A)
    H = np.array([oracle_basis(row) for row in X])
    if beta is None:
        beta = np.linalg.pinv(H.T @ Ainv @ H) @ (H.T @ Ainv @ y)
    else:
        beta = np.asarray(beta, dtype=float)
    alpha = Ainv @ (y - H @ beta)

    def predict(q):
        q = np.atleast_1d(np.asarray(q, dtype=float))
        k = np.array([oracle_kernel(q, row, sf2, ls) for row in X])
        mean = float(oracle_basis(q) @ beta + k @ alpha)
        var = float(oracle_kernel(q, q, sf2, ls) - k @ Ainv @ k)
        return mean, var

    return beta, predict


def oracle_lml(X, y, sf2, ls, noise, beta):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 1 and len(np.asarray(y).ravel()) > 1:
        X = X.T
    y = np.asarray(y, dtype=float).ravel()
    n = X.shape[0]
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = oracle_kernel(X[i], X[j], sf2, ls)
    A = K + noise * np.eye(n)
    H = np.array([oracle_basis(row) for row in X])
    r = y - H @ np.asarray(beta, dtype=float)
    sign, logdet = np.linalg.slogdet(A)
    assert sign > 0
    return float(-0.5 * r @ np.linalg.inv(A) @ r - 0.5 * logdet - 0.5 * n * math.log(2 * math.pi))


def _folds(n):
    for i in range(n):
        keep = np.ones(n, dtype=bool)
        keep[i] = False
        yield i, keep


def refit_loo_residuals_gp(X, y, hyper, noise):
    """y_i minus the prediction at x_i of a GP refitted (GLS beta) without row i."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    out = np.empty(len(y))
    for i, keep in _folds(len(y)):
        (mean,), _ = gpr.predict_many(gpr.fit(X[keep], y[keep], hyper, noise), [X[i]])
        out[i] = y[i] - mean
    return out


def model_loo_residuals(model):
    """Closed-form LOO residuals of a fitted GP, as joints scores it."""
    H = gpr.basis_matrix(model.train_x)
    residuals, _ = gpr.loo_residuals(H, model.train_y, model)
    return residuals


def gp_loo_rmse(X, y, hyper, noise):
    """RMSE of the closed-form LOO residuals of the GP fitted on (X, y)."""
    residuals = model_loo_residuals(gpr.fit(X, y, hyper, noise))
    return float(np.sqrt(np.mean(np.square(residuals))))


def dense_refit_loo_residuals(A, H, y):
    """Refit residuals on the principal submatrices of a given covariance A:
    per fold, dense-inverse GLS and the posterior mean at the held-out row."""
    out = np.empty(len(y))
    for i, keep in _folds(len(y)):
        Ainv = np.linalg.inv(A[np.ix_(keep, keep)])
        Hk = H[keep]
        beta = np.linalg.solve(Hk.T @ Ainv @ Hk, Hk.T @ Ainv @ y[keep])
        mean = H[i] @ beta + A[i, keep] @ Ainv @ (y[keep] - Hk @ beta)
        out[i] = y[i] - mean
    return out


class UndefinedFold(Exception):
    """A leave-one-out fold of the polynomial refit oracle cannot be fitted."""


def refit_loo_rmse_poly(x, y, degree):
    """Leave-one-out RMSE of the degree-n least-squares polynomial in angle,
    refitting every fold: lstsq on the Vandermonde matrix of the fold's
    angles, mapped onto [-1, 1] by the fold's own range. Raises
    UndefinedFold when a fold has fewer than degree + 1 rows, holds one
    angle or has rank below degree + 1."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    errs = []
    for i, keep in _folds(len(y)):
        xk = x[keep]
        if len(xk) < degree + 1:
            raise UndefinedFold(f"fold of {len(xk)} rows, degree {degree}")
        lo, hi = xk.min(), xk.max()
        if hi <= lo:
            raise UndefinedFold(f"fold without row {i} holds one angle")
        t = (2.0 * x - (lo + hi)) / (hi - lo)
        V = np.vander(t[keep], degree + 1, increasing=True)
        coef, _, rank, _ = np.linalg.lstsq(V, y[keep], rcond=None)
        if rank < degree + 1:
            raise UndefinedFold(f"fold without row {i} has rank {rank} < {degree + 1}")
        errs.append(np.polynomial.polynomial.polyval(t[i], coef) - y[i])
    return float(np.sqrt(np.mean(np.square(errs))))


def random_gp_instance(rng, n_max=50, noise_range=(0.05, 0.5)):
    """A well-conditioned random training problem plus query points."""
    n = int(rng.integers(5, n_max + 1))
    d = int(rng.integers(1, 3))
    X = rng.uniform(0.0, 5.0, size=(n, d))
    sf2 = float(rng.uniform(0.5, 1.5))
    ls = rng.uniform(0.7, 2.5, size=d)
    noise = float(rng.uniform(*noise_range))
    beta = rng.uniform(-1.0, 1.0, size=2 * d + 1)
    H = np.array([oracle_basis(row) for row in X])
    y = H @ beta + rng.normal(0.0, math.sqrt(sf2), size=n)
    queries = rng.uniform(0.0, 5.0, size=(5, d))
    return X, y, sf2, tuple(ls), noise, beta, queries


# -- row-by-row bench data oracle ---------------------------------------------


# A sample's range rules: attribute, CSV column, bounds, and what a value
# outside them is.
_SAMPLE_RANGES = (
    ("deformation_angle", "deformation_angle_deg", 0.0, 180.0, "not in [0, 180]"),
    ("force", "force_n", 0.0, sys.float_info.max, "is not a finite number >= 0"),
    ("return_angle", "return_angle_deg", 0.0, 180.0, "not in [0, 180]"),
)


class Row(NamedTuple):
    """One bench reading as the row-by-row oracle reads it."""

    family: JointFamily
    deformation_angle: float  # deg
    direction: Direction
    force: float  # N
    return_angle: float  # deg, 180 = full recovery
    run_id: str


def _range_problem(**values):
    """(attribute, CSV column, detail) of the first value, by attribute, out of range."""
    for attr, column, low, high, text in _SAMPLE_RANGES:
        value = values[attr]
        if not low <= value <= high:
            return attr, column, f"{value:g} {text}"
    return None


def _parse_float(raw, row, fieldname):
    try:
        return finite_float(raw)
    except (TypeError, ValueError):
        raise BadNumberError(row, fieldname, raw) from None


def _parse_token(kind, raw, row, fieldname):
    token = (raw or "").strip()
    try:
        return kind(token)
    except ValueError:
        raise BadNumberError(row, fieldname, token) from None


def _parse_sample(row, family, thickness, angle, direction, force, ret, run_id):
    """The Row of one CSV row, its cells in CSV_COLUMNS order. JointFamily
    applies the thickness rules and _range_problem the ranges; errors gain
    the row and the column."""
    kind = _parse_token(FamilyKind, family, row, "family")
    thickness = (thickness or "").strip()
    thickness = _parse_float(thickness, row, "thickness_mm") if thickness else None
    try:
        family = JointFamily(kind, thickness)
    except MissingThicknessError as exc:
        raise MissingThicknessError(f"row {row}: field 'thickness_mm' empty ({exc})") from None
    except ValueError as exc:
        raise OutOfRangeError(row, "thickness_mm", str(exc)) from None
    direction = _parse_token(Direction, direction, row, "direction")
    angle = _parse_float(angle, row, "deformation_angle_deg")
    force = _parse_float(force, row, "force_n")
    ret = _parse_float(ret, row, "return_angle_deg")
    problem = _range_problem(deformation_angle=angle, force=force, return_angle=ret)
    if problem is not None:
        _, column, detail = problem
        raise OutOfRangeError(row, column, detail)
    return Row(family, angle, direction, force, ret, (run_id or "").strip())


def oracle_parse(csv_text):
    """The bench CSV read one row at a time: one Row per CSV row through
    _parse_sample, raising at the first bad row (physical line numbers,
    header line 1). Returns the rows as a tuple."""
    reader = csv.reader(io.StringIO(csv_text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise InputError("no CSV content")
        position = {name: i for i, name in enumerate(header)}
        for col in CSV_COLUMNS:
            if col not in position:
                raise MissingColumnError(col)
        cells_of = operator.itemgetter(*(position[col] for col in CSV_COLUMNS))
        width = len(header)
        samples = []
        for cells in reader:
            row = reader.line_num
            if len(cells) > width:
                raise InputError(f"row {row}: {len(cells)} cells, header has {width}")
            if not any(cell.strip() for cell in cells):
                continue  # blank line
            if len(cells) < width:
                cells += [None] * (width - len(cells))
            samples.append(_parse_sample(row, *cells_of(cells)))
    except csv.Error as exc:
        raise InputError(f"after line {reader.line_num}: {exc}") from None
    if not samples:
        raise InputError("CSV has a header but no data rows")
    return tuple(samples)


def _sum_in_row_order(values):
    """sum() as Python 3.10 and 3.11 compute it, left to right from 0; the
    sum() of 3.12 on compensates its rounding."""
    return functools.reduce(operator.add, values, 0)


def oracle_average(samples, angle_bin):
    """Repeat runs merged per (family, thickness, direction, round(angle /
    angle_bin)) with a dict of groups, in sorted key order; a group of two or
    more becomes its first sample with the means of its angle, force and
    return angle and run id avg-of-<n>, a group of one its sample."""
    groups = {}
    for s in samples:
        thickness = s.family.thickness if s.family.thickness is not None else -1.0
        key = (s.family.kind.value, thickness, s.direction.value,
               round(s.deformation_angle / angle_bin))
        groups.setdefault(key, []).append(s)
    merged = []
    for key in sorted(groups):
        members = groups[key]
        n = len(members)
        if n == 1:
            merged.append(members[0])
            continue
        merged.append(members[0]._replace(
            deformation_angle=_sum_in_row_order(m.deformation_angle for m in members) / n,
            force=_sum_in_row_order(m.force for m in members) / n,
            return_angle=_sum_in_row_order(m.return_angle for m in members) / n,
            run_id=f"avg-of-{n}",
        ))
    return tuple(merged)


def assert_same_rows(ds: JointDataset, samples) -> None:
    """ds holds the rows of samples bit for bit, in order, run ids included."""
    assert ds.family.tolist() == [s.family.kind.value for s in samples]
    assert ds.direction.tolist() == [s.direction.value for s in samples]
    assert ds.run_id.tolist() == [s.run_id for s in samples]
    for attr in ("deformation_angle", "force", "return_angle"):
        want = np.array([getattr(s, attr) for s in samples])
        assert getattr(ds, attr).tobytes() == want.tobytes(), attr
    thickness = [math.nan if s.family.thickness is None else s.family.thickness for s in samples]
    assert ds.thickness.tobytes() == np.array(thickness).tobytes()


# -- synthetic bench data -------------------------------------------------------


def square_force_true(theta):
    # gently saturating, monotone over the tested window
    return 1.7 + 0.023 * theta - 5e-5 * theta**2


def square_return_true(theta):
    return 180.0 if theta <= 70.0 else 180.0 - 0.25 * (theta - 70.0)


def curve_force_true(theta, thickness):
    return 0.3 + 0.02 * theta - 5e-5 * theta**2 + 4.0 * thickness**2


def curve_return_true(theta):
    return 180.0 if theta <= 90.0 else 180.0 - 0.3 * (theta - 90.0)


def square_bench_csv(rng, runs=3, force_noise=0.05, return_noise=1.0, angles=range(10, 171, 10)):
    lines = ["family,thickness_mm,deformation_angle_deg,direction,force_n,return_angle_deg,run_id"]
    for theta in angles:
        for run in range(1, runs + 1):
            f = max(0.0, square_force_true(theta) + rng.normal(0.0, force_noise))
            r = min(180.0, max(0.0, square_return_true(theta) + rng.normal(0.0, return_noise)))
            lines.append(f"square_sym,,{theta},forward,{f!r},{r!r},r{run}")
    return "\n".join(lines) + "\n"


def curve_bench_csv(rng, runs=3, force_noise=0.08, return_noise=1.0, angles=range(30, 151, 15)):
    lines = ["family,thickness_mm,deformation_angle_deg,direction,force_n,return_angle_deg,run_id"]
    for thickness in (0.4, 0.8, 1.2, 1.6):
        for theta in angles:
            for run in range(1, runs + 1):
                f = max(0.0, curve_force_true(theta, thickness) + rng.normal(0.0, force_noise))
                r = min(180.0, max(0.0, curve_return_true(theta) + rng.normal(0.0, return_noise)))
                lines.append(f"curve,{thickness},{theta},forward,{f!r},{r!r},r{run}")
    return "\n".join(lines) + "\n"


def bench_square_dataset(seed: int) -> JointDataset:
    """The benchmark's square shape: 340 angles 0.47 deg apart, three runs
    each, averaged in 0.25-deg bins to n = 340 rows."""
    angles = np.linspace(10.0, 170.0, 340).tolist()
    csv = square_bench_csv(np.random.default_rng(seed), angles=angles)
    return average_runs(parse_measurements(csv), 0.25)


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the matrices np.linalg.eigh factorizes during the test."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


@pytest.fixture
def kernel_shapes(monkeypatch):
    """(rows of xa, rows of xb) of each gpr.kernel_matrix call during the test."""
    shapes = []
    kernel_matrix = gpr.kernel_matrix

    def counting(xa, xb, hyper):
        shapes.append((len(xa), len(xb)))
        return kernel_matrix(xa, xb, hyper)

    monkeypatch.setattr(gpr, "kernel_matrix", counting)
    return shapes


def spectrum_V(spectrum: gpr.KernelSpectrum) -> np.ndarray:
    """The spectrum's V as an array: its own on the dense and low-rank
    forms, and on the Kronecker form, which keeps no n x n V, expanded here
    from its axis factors, sort order and row index."""
    if spectrum.kron is None:
        return spectrum.V
    V_a, V_t, order, index = spectrum.kron
    return np.kron(V_a, V_t)[np.ix_(index, order)]


def assert_same_model(got: gpr.FittedGP, want: gpr.FittedGP) -> None:
    """got equals want bit for bit in every fitted value."""
    assert (got.hyper, got.noise_variance) == (want.hyper, want.noise_variance)
    for name in ("beta", "d", "alpha"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.fixture
def square_dataset() -> JointDataset:
    rng = np.random.default_rng(7)
    return parse_measurements(square_bench_csv(rng))


@pytest.fixture
def curve_dataset() -> JointDataset:
    rng = np.random.default_rng(11)
    return parse_measurements(curve_bench_csv(rng))


@pytest.fixture
def averaged_curve_dataset(curve_dataset) -> JointDataset:
    """The curve runs averaged: an exact 9 angles x 4 thicknesses grid."""
    return average_runs(curve_dataset)
