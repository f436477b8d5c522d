"""Per-family joint models: force and return-angle predictors plus envelopes.

A JointFamilyModel bundles a force predictor F(angle[, thickness]) in N and
an optional return-angle predictor (180 deg = full recovery). The static
deformation envelope of a geometry (yield onset, self-contact, observed force
peak, where recovery starts to degrade) is a separate table: envelope_for
looks a joint's row up.

Two families ship with built-in force coefficients over the pure-quadratic
basis; every other family, and all return-angle models, must be fitted from
bench data. loo_rmse_poly scores a plain polynomial in angle (one per
thickness on curve), the accuracy baseline for the GP fit; both scores come
from gpr.loo_residuals.

predict_many is the one query, for one angle or many: it answers force and
return angle, and a bent angle's return angle is None where the model has no
return-angle component. Its angles and thickness pass units.checked, the
typed-number rule, and a value it refuses (a string, bytes, a bool, NaN or
±inf) raises InputError naming theta or thickness, as does a thickness
whose square overflows. Predictions for the curve
family are refused outside the validated window of 30 to 150 deg, where the
regression has no supporting data; other families only get an extrapolation
warning there.
"""

import contextlib
import itertools
import math
from dataclasses import field, fields

import numpy as np

from . import gpr
from .data import FamilyKind, JointDataset, JointFamily
from .errors import InputError, OutOfValidatedRangeError
from .units import _ANY, _Record, checked, floats

VALIDATED_ANGLE_RANGE = (30.0, 150.0)  # deg
TESTED_THICKNESS_RANGE = (0.4, 1.6)  # mm
MIN_FAMILY_SAMPLES = 5

# warning flags attached to predictions
WARN_EXTRAPOLATION = "extrapolation"
WARN_REST_FORCE = "rest_force"

# Per input axis, angle (deg) first, then thickness (mm); a family's models
# use the first kind.input_dim entries of each.
DEFAULT_LENGTH_SCALES = (20.0, 0.4)
TUNING_LENGTH_SCALES = ((5.0, 10.0, 20.0, 40.0), (0.2, 0.4, 0.8))
BUILTIN_ANCHOR_AXES = ((30.0, 60.0, 90.0, 120.0, 150.0), (0.4, 0.8, 1.2, 1.6))
DEFAULT_NOISE_FRACTION = 0.01  # of target sample variance

# built-in force-model coefficients over the basis [1, angle, (T,) angle^2, (T^2)]
# and the matching noise standard deviations
BUILTIN_FORCE_BETA = {
    FamilyKind.CURVE: (-2.4933, 0.1164, 0.0, -0.0007, 8.4377),
    FamilyKind.SQUARE_SYM: (1.6940, 0.0225, -0.0002),
}
BUILTIN_NOISE_STD = {
    FamilyKind.CURVE: 1.9272,
    FamilyKind.SQUARE_SYM: 0.2916,
}


class JointEnvelope(_Record):
    """Static deformation limits for one joint geometry (angles in deg).

    max_observed_force is None where no peak was recorded on the bench. Each
    field's metadata holds its key in envelope_table_as_json.
    """

    yield_angle: float = field(metadata={"key": "yield_angle_deg"})
    self_contact_angle: float | None = field(metadata={"key": "self_contact_angle_deg"})
    max_observed_force: float | None = field(metadata={"key": "max_observed_force_n"})  # N
    return_decay_onset: float = field(metadata={"key": "return_decay_onset_deg"})

    def __post_init__(self):
        if not 0.0 < self.return_decay_onset <= self.yield_angle <= 180.0:
            raise ValueError(
                f"need 0 < decay onset <= yield <= 180, got "
                f"{self.return_decay_onset}, {self.yield_angle}"
            )
        if self.self_contact_angle is not None and not 0.0 < self.self_contact_angle <= 180.0:
            raise ValueError(f"self_contact_angle {self.self_contact_angle} outside (0, 180]")


ENVELOPE_TABLE_VERSION = 1

# Rows keyed by (family kind, thick-wall flag), in the order that
# envelope_table_as_json lists them. The flag is None except for the curve
# family, where walls of 0.8 mm and up behave differently from 0.4 mm. Values
# without a recorded counterpart on the bench are None.
_ENVELOPES = {
    (FamilyKind.CURVE, False): JointEnvelope(  # 0.4 mm wall
        yield_angle=140.0, self_contact_angle=None, max_observed_force=2.9,
        return_decay_onset=90.0,
    ),
    (FamilyKind.CURVE, True): JointEnvelope(  # 0.8 mm wall and up
        yield_angle=140.0, self_contact_angle=None, max_observed_force=7.1,
        return_decay_onset=90.0,
    ),
    (FamilyKind.DOUBLE_CURVE, None): JointEnvelope(
        yield_angle=150.0, self_contact_angle=110.0, max_observed_force=15.5,
        return_decay_onset=150.0,
    ),
    (FamilyKind.SQUARE_NONSYM, None): JointEnvelope(
        yield_angle=90.0, self_contact_angle=150.0, max_observed_force=None,
        return_decay_onset=40.0,
    ),
    (FamilyKind.SQUARE_SYM, None): JointEnvelope(
        yield_angle=90.0, self_contact_angle=150.0, max_observed_force=None,
        return_decay_onset=70.0,
    ),
    (FamilyKind.STRAIGHT, None): JointEnvelope(
        yield_angle=135.0, self_contact_angle=None, max_observed_force=None,
        return_decay_onset=135.0,
    ),
}


def envelope_for(family: JointFamily) -> JointEnvelope:
    """Envelope row for a concrete joint (curve rows depend on thickness)."""
    thick = family.thickness >= 0.8 if family.kind is FamilyKind.CURVE else None
    return _ENVELOPES[(family.kind, thick)]


def envelope_table_as_json() -> dict:
    """The full envelope table as a JSON-ready document."""
    rows = [
        {"family": kind.value, "thick_wall": thick}
        | {f.metadata["key"]: getattr(env, f.name) for f in fields(env)}
        for (kind, thick), env in _ENVELOPES.items()
    ]
    return {"version": ENVELOPE_TABLE_VERSION, "envelopes": rows}


class JointFamilyModel(_Record):
    """Calibrated predictors for one joint family.

    force_model inputs are [angle] (deg) or [angle, thickness] (deg, mm) for
    the curve family; return_model shares the input layout and is None until
    fitted from data. LOO RMSE fields are filled by fit_family_model.
    """

    kind: FamilyKind
    force_model: gpr.FittedGP
    return_model: gpr.FittedGP | None = None
    force_loo_rmse: float | None = None
    return_loo_rmse: float | None = None

    def __post_init__(self):
        want = self.kind.input_dim
        for target, gp in (("force", self.force_model), ("return", self.return_model)):
            if gp is not None and gp.input_dim != want:
                raise ValueError(
                    f"{self.kind.value} {target} model must have {want}-D inputs, "
                    f"got {gp.input_dim}"
                )


def predict_many(
    model: JointFamilyModel,
    thetas,
    thickness: float | None = None,
    allow_extrapolation: bool = False,
) -> tuple[np.ndarray, np.ndarray, list[float | None], list[tuple[str, ...]]]:
    """Holding force (N) and return angle (deg) at each angle of thetas, at
    one thickness: one batched GP prediction for both model components
    (gpr.predict_targets, one cross-kernel per block, the return model
    answering means only) where they share their training rows and length
    scales and every angle is bent, and one per component otherwise.

    Returns (means, stds, returns, warnings): the force means and standard
    deviations as float arrays, the return angles, and one tuple of warning
    flags per angle.

    The curve family raises OutOfValidatedRange outside 30..150 deg (pass
    allow_extrapolation=True to downgrade that to a warning); other families
    only warn. Near zero deflection the force model keeps its nonzero
    intercept, which is physically a rest-force artifact, so a caveat flag is
    attached. The return angle is clamped to [0, 180]; zero deformation gives
    the flat reference of 180 deg exactly, and a bent angle gives None when
    the model has no return-angle component.
    """
    try:
        angles = np.array([checked("theta", theta, _ANY) for theta in thetas], dtype=float)
        family = JointFamily(model.kind, thickness)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    low, high = VALIDATED_ANGLE_RANGE
    extrapolated = (angles < low) | (angles > high)
    if model.kind is FamilyKind.CURVE:
        if extrapolated.any() and not allow_extrapolation:
            raise OutOfValidatedRangeError(float(angles[extrapolated.argmax()]), low, high)
        tlo, thi = TESTED_THICKNESS_RANGE
        extrapolated |= not tlo <= family.thickness <= thi
    X = angles[:, None]
    if model.kind.input_dim == 2:
        if math.isinf(family.thickness * family.thickness):
            # gpr.fit's rule for X, naming the query's own field
            raise InputError("thickness: values too large for the quadratic basis")
        X = np.column_stack([angles, np.full_like(angles, family.thickness)])

    force, ret = model.force_model, model.return_model
    bent = angles != 0.0
    back = None
    if ret is not None and bent.all() and ret.spectrum.matches(
        force.train_x, force.hyper.length_scales
    ):
        (means, back), variances = gpr.predict_targets((force, ret), X)
    else:
        means, variances = gpr.predict_many(force, X)
        if ret is not None and bent.any():
            back, _ = gpr.predict_many(ret, X[bent], with_variances=False)
    rest_force = (angles < 1e-9) & (means > 0.0)
    warnings = [
        (WARN_EXTRAPOLATION,) * e + (WARN_REST_FORCE,) * r
        for e, r in zip(extrapolated.tolist(), rest_force.tolist())
    ]
    returns = [None if b else 180.0 for b in bent.tolist()]
    if back is not None:
        for i, angle in zip(np.flatnonzero(bent), np.clip(back, 0.0, 180.0).tolist()):
            returns[i] = angle
    return means, np.sqrt(variances), returns, warnings


def builtin_model(kind: FamilyKind) -> JointFamilyModel:
    """Force model from the built-in calibrated coefficients.

    Available for the curve and symmetric square-wave families only. The
    training anchors carry zero residuals, so the predictor is exactly the
    quadratic prior mean everywhere; there is no return-angle component.
    """
    if kind not in BUILTIN_FORCE_BETA:
        raise InputError(f"no built-in force coefficients for family {kind.value!r}")
    beta = np.array(BUILTIN_FORCE_BETA[kind])
    X = np.array(list(itertools.product(*BUILTIN_ANCHOR_AXES[: kind.input_dim])))
    y = gpr.basis_matrix(X) @ beta
    hyper = _default_hyper(kind, float(np.var(y)))
    force = gpr.fit(X, y, hyper, noise_variance=BUILTIN_NOISE_STD[kind] ** 2, beta=beta)
    return JointFamilyModel(kind=kind, force_model=force)


def _default_hyper(kind: FamilyKind, variance: float) -> gpr.KernelHyperParams:
    return gpr.KernelHyperParams(
        signal_variance=variance, length_scales=DEFAULT_LENGTH_SCALES[: kind.input_dim]
    )


def _default_tuning_grid(kind: FamilyKind, variance: float) -> gpr.GridSpec:
    """Search grid for one target. Signal and noise variances are multiples
    of var(y), so rescaling y (a change of units) selects the same candidate."""
    v = max(variance, 1e-8)
    return gpr.GridSpec(
        signal_variances=(0.5 * v, v, 2.0 * v),
        length_scale_grids=TUNING_LENGTH_SCALES[: kind.input_dim],
        noise_variances=tuple(f * v for f in (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)),
    )


def _rmse(residuals: np.ndarray) -> float | None:
    """RMSE of leave-one-out residuals from gpr.loo_residuals; None when some
    fold is undefined (NaN): a refit there returns a minimum-norm artifact,
    not a prediction. None too when the RMSE is past the float range."""
    if np.isnan(residuals).any():
        return None
    with np.errstate(over="ignore"):
        rmse = float(np.sqrt(np.mean(np.square(residuals))))
    return rmse if rmse < np.inf else None


def family_training_arrays(ds: JointDataset, kind: FamilyKind):
    """(X, force, return) training arrays for one family; X is (n, 1) angles
    or (n, 2) angle/thickness columns for the curve family."""
    rows = ds.family == kind.value
    n = np.count_nonzero(rows)
    if n < MIN_FAMILY_SAMPLES:
        raise InputError(f"{kind.value}: {n} samples, need at least {MIN_FAMILY_SAMPLES}")
    X = np.stack([ds.deformation_angle, ds.thickness][: kind.input_dim], axis=1)[rows]
    return X, ds.force[rows], ds.return_angle[rows]


@contextlib.contextmanager
def _overflow_names(column: str):
    """InputError naming column for an overflow anywhere in the block; numpy
    would only warn and go on with inf."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise InputError(f"{column}: values too large to fit, the fit overflows") from None


def _fit_targets(X, targets, kind: FamilyKind, noise_variance, tune: bool):
    """One model per (column, y) of targets on the rows X, built from one
    kernel spectrum per length-scale tuple: a tuned fit scores every target
    in one gpr.tune_hyperparams call, and an untuned one fits each later
    target on the first model's spectrum (the length scales are the same)."""
    variances = []
    for column, y in targets:
        with _overflow_names(column):
            variances.append(float(np.var(y)))
    if tune:
        grids = [(y, _default_tuning_grid(kind, v)) for (_, y), v in zip(targets, variances)]
        try:
            with np.errstate(over="raise"):
                return gpr.tune_hyperparams(X, grids)
        except FloatingPointError:
            # each target's arithmetic is the same in a lone tune, so tuning
            # each alone in turn finds the column to name
            for (column, _), grid in zip(targets, grids):
                with _overflow_names(column):
                    gpr.tune_hyperparams(X, [grid])
            raise
    models, spectrum = [], None
    for (column, y), variance in zip(targets, variances):
        noise = noise_variance
        if noise is None:
            noise = max(1e-8, DEFAULT_NOISE_FRACTION * variance)
        with _overflow_names(column):
            model = gpr.fit(X, y, _default_hyper(kind, variance), noise, spectrum=spectrum)
        models.append(model)
        spectrum = model.spectrum
    return models


def _loo_rmse(model: gpr.FittedGP, column: str) -> float | None:
    with _overflow_names(column):
        H = gpr.basis_matrix(model.train_x)
        residuals, _ = gpr.loo_residuals(H, model.train_y, model)
        return _rmse(residuals)


def fit_family_model(
    ds: JointDataset, kind: FamilyKind, *, noise_variance: float | None = None, tune: bool = False
) -> JointFamilyModel:
    """Fit force and return-angle models for one family from bench data.

    Needs at least 5 samples of the family. Forward and reverse runs are
    folded into the same model (the bench showed matching responses in both
    directions); direction stays available in the dataset for audits.

    tune=True grid-searches each target's hyperparameters and noise by
    marginal likelihood, on a grid scaled to that target's sample variance
    (see _default_tuning_grid), and so takes no noise_variance. Otherwise
    the documented defaults apply: length scales 20 deg and 0.4 mm, signal
    variance = var(y), and noise = noise_variance if given, else 1% of
    var(y). A target whose fit overflows raises InputError naming its
    column.

    Both targets share the rows and, in every untuned fit and every tuning
    grid tuple, the length scales, so there is one spectrum per distinct
    (rows, length scales): an untuned fit fits force, then return on the
    force model's spectrum, and a tuned fit tunes both targets in one
    gpr.tune_hyperparams call. Each model equals its lone fit bit for bit.
    """
    if tune and noise_variance is not None:
        raise ValueError("tune picks the noise variance; noise_variance must be unset")
    X, force, ret = family_training_arrays(ds, kind)
    targets = (("force_n", force), ("return_angle_deg", ret))
    force_model, return_model = _fit_targets(X, targets, kind, noise_variance, tune)
    return JointFamilyModel(
        kind=kind,
        force_model=force_model,
        return_model=return_model,
        force_loo_rmse=_loo_rmse(force_model, "force_n"),
        return_loo_rmse=_loo_rmse(return_model, "return_angle_deg"),
    )


def loo_rmse_poly(x, y, degree: int) -> float | None:
    """Leave-one-out RMSE of the degree-n least-squares polynomial in angle.

    x holds angles, or (angle, thickness) rows: then each thickness gets its
    own polynomial, one column block of the Vandermonde matrix per distinct
    thickness, and the score pools every thickness's folds. Angles are mapped
    affinely onto [-1, 1]; the map does not change a fit, so each fold's own
    map gives the same one. The residuals are the PRESS residuals of one fit
    to all the data (Allen 1974), from gpr.loo_residuals with no model
    (F = I): O(n p^2) for the n x p Vandermonde matrix, no n x n matrix.

    None when a fold has fewer than degree + 1 rows (checked before any
    matrix is built), all angles are equal, the Vandermonde matrix has rank
    below its column count, some fold leaves the polynomial undetermined, or
    the RMSE is past the float range. A NaN or inf entry raises ValueError
    naming x or y, and a y without one entry per row of x InputError.
    """
    X = gpr._finite_points(x, "x")
    y = floats("y", y).ravel()
    if y.shape[0] != X.shape[0]:
        raise InputError(f"x has {X.shape[0]} rows but y has {y.shape[0]} entries")
    if not np.all(np.isfinite(y)):
        raise ValueError("y: must be a finite number")
    _, group, counts = np.unique(X[:, 1:], axis=0, return_inverse=True, return_counts=True)
    if min(counts, default=0) - 1 < degree + 1:
        return None
    angles = X[:, 0]
    lo, hi = float(np.min(angles)), float(np.max(angles))
    if hi <= lo:
        return None
    V = np.vander((2.0 * angles - (lo + hi)) / (hi - lo), degree + 1, increasing=True)
    H = np.hstack([V * (group.ravel() == g)[:, None] for g in range(counts.size)])
    residuals, rank = gpr.loo_residuals(H, y)
    return None if rank < H.shape[1] else _rmse(residuals)
