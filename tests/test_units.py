import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ugckit import archive, gpr, joints, mechanics, units
from ugckit.cli import main
from ugckit.data import (
    FamilyKind,
    JointDataset,
    JointFamily,
    check_angle_bin,
)
from ugckit.errors import InputError


def test_deg_rad_known_values():
    assert units.deg_to_rad(180.0) == pytest.approx(math.pi, rel=1e-12)
    assert units.rad_to_deg(math.pi / 2) == pytest.approx(90.0, rel=1e-12)


def test_mm_m_known_values():
    assert units.mm_to_m(1905.0) == pytest.approx(1.905, rel=1e-12)
    assert units.m_to_mm(0.003) == pytest.approx(3.0, rel=1e-12)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_angle_round_trip(angle):
    back = units.rad_to_deg(units.deg_to_rad(angle))
    assert math.isclose(back, angle, rel_tol=1e-12, abs_tol=1e-12)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_length_round_trip(length):
    back = units.m_to_mm(units.mm_to_m(length))
    assert math.isclose(back, length, rel_tol=1e-12, abs_tol=1e-12)


# -- the typed-number rule at every input boundary -------------------------------

SQ_MODEL = joints.builtin_model(FamilyKind.SQUARE_SYM)
CURVE_MODEL = joints.builtin_model(FamilyKind.CURVE)
HYPER = gpr.KernelHyperParams(1.0, (1.0,))
ROWS, TARGETS = [[0.0], [1.0], [2.0]], [1.0, 0.0, 2.0]


def _sample(**numbers):
    """A one-row dataset of a square_sym joint, its numbers overridden."""
    values = {"deformation_angle": 90.0, "force": 1.0, "return_angle": 170.0} | numbers
    return JointDataset(family=["square_sym"], thickness=[math.nan], direction=["forward"],
                        run_id=["r1"], **{attr: [value] for attr, value in values.items()})


# (field the message starts with, a call that passes the value to that boundary)
BOUNDARIES = {
    "signal_variance": lambda v: gpr.KernelHyperParams(v, (1.0,)),
    "length scales": lambda v: gpr.KernelHyperParams(1.0, (20.0, v)),
    "noise_variance": lambda v: gpr.fit(ROWS, TARGETS, HYPER, v),
    "noise_variance (grid)": lambda v: gpr.tune_hyperparams(
        ROWS, [(TARGETS, gpr.GridSpec((1.0,), ((1.0,),), (0.1, v)))]
    ),
    "thickness": lambda v: JointFamily(FamilyKind.CURVE, v),
    "deformation_angle": lambda v: _sample(deformation_angle=v),
    "force": lambda v: _sample(force=v),
    "return_angle": lambda v: _sample(return_angle=v),
    "angle_bin": check_angle_bin,
    "theta": lambda v: joints.predict_many(SQ_MODEL, [60.0, v]),
    "thickness (query)": lambda v: joints.predict_many(CURVE_MODEL, [60.0], v),
    "outer_radius": lambda v: mechanics.ring_geometry(v, 5),
    "n_sections": lambda v: mechanics.ring_geometry(100.0, v),
    "half_section_arc": lambda v: mechanics.target_arc(v, 0.5),
    "target_ratio": lambda v: mechanics.target_arc(62.8, v),
    "half_section_arc (bend)": lambda v: mechanics.required_bend_angle(v, 1.0),
    "delta": lambda v: mechanics.required_bend_angle(62.8, v),
}

NOT_NUMBERS = [True, np.True_, "1.0", b"1", math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_every_boundary_refuses_a_non_number_naming_the_field(boundary, bad):
    # float() reads a bool, a numeric string and bytes: each used to pass for
    # a number at some of these boundaries, or to raise TypeError
    field = boundary.split(" (")[0]
    with pytest.raises((ValueError, InputError)) as err:
        BOUNDARIES[boundary](bad)
    problem = "(expected (float|int)|must be a finite number)"
    assert re.fullmatch(rf"{field}(=\S+)?: {problem}", str(err.value)), str(err.value)


@pytest.mark.parametrize(
    "value, kind, want",
    [(2, float, 2.0), (np.float32(0.5), float, 0.5), (np.int64(3), int, 3), (7, int, 7)],
)
def test_checked_takes_numbers_of_its_kind(value, kind, want):
    got = units.checked("x", value, units._ANY, kind)
    assert got == want and type(got) is kind


@pytest.mark.parametrize(
    "value, kind, message",
    [(2.5, int, "x: expected int"), (None, float, "x: expected float"),
     (10**400, float, "x: must be a finite number"), (10**400, int, "x: must be a finite number"),
     (-1.0, float, "x: must be > 0")],
)
def test_checked_messages(value, kind, message):
    with pytest.raises(ValueError) as err:
        units.checked("x", value, units._POSITIVE, kind)
    assert str(err.value) == message


# -- the typed-number rule for arrays (units.floats) at every array boundary ----

ANGLES = [10.0, 20.0, 30.0]


def _with(good, entry):
    """good with its middle entry replaced by entry."""
    return [good[0], entry, *good[2:]]


def _dataset(angles):
    return JointDataset(["square_sym"] * 3, [math.nan] * 3, angles, ["forward"] * 3,
                        [1.0] * 3, [170.0] * 3, ["r1", "r2", "r3"])


def _archived_beta(beta, tmp_path, capsys):
    """ugc predict on an archive whose beta is beta: its exit 2 message as a
    ValueError, without the archive's path."""
    doc = archive.archive_document(gpr.fit(ANGLES, TARGETS, HYPER, 0.1))
    doc["beta"] = beta
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["predict", "--model", str(path), "--theta", "20"]) == 2
    prefix = f"error: archive {path}: "
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.endswith("\n"), err
    raise ValueError(err[len(prefix):-1])


# (label the message starts with, a call that passes an array with the entry
# at that boundary, also given tmp_path and capsys)
ARRAY_BOUNDARIES = {
    "deformation_angle": lambda e, *_: _dataset(_with(ANGLES, e)),
    "X": lambda e, *_: gpr.fit(_with(ANGLES, e), TARGETS, HYPER, 0.1),
    "y": lambda e, *_: gpr.fit(ANGLES, _with(TARGETS, e), HYPER, 0.1),
    "beta": lambda e, *_: gpr.fit(ANGLES, TARGETS, HYPER, 0.1, beta=_with([0.0] * 3, e)),
    "Xq": lambda e, *_: gpr.predict_many(gpr.fit(ANGLES, TARGETS, HYPER, 0.1), _with(ANGLES, e)),
    "xa": lambda e, *_: gpr.kernel_matrix(_with(ANGLES, e), ANGLES, HYPER),
    "xb": lambda e, *_: gpr.kernel_matrix(ANGLES, _with(ANGLES, e), HYPER),
    "X (basis)": lambda e, *_: gpr.basis_matrix(_with(ANGLES, e)),
    "field beta": lambda e, *fixtures: _archived_beta(_with([0.0] * 3, e), *fixtures),
    "x": lambda e, *_: joints.loo_rmse_poly(_with(ANGLES, e), TARGETS, 1),
    "y (poly)": lambda e, *_: joints.loo_rmse_poly(ANGLES, _with(TARGETS, e), 1),
}

# (id, bad entry, what the message says of it); numpy's array of the list
# hides the bool as 1.0, and float() reads the str and the bytes
BAD_ENTRIES = [
    ("bool", True, "expected float"), ("str", "20.0", "expected float"),
    ("bytes", b"20", "expected float"), ("None", None, "expected float"),
    ("ragged", [20.0, 21.0], "expected float"), ("huge-int", 10**400, "must be a finite number"),
]


@pytest.mark.parametrize("boundary, entry, problem", [
    pytest.param(boundary, entry, problem, id=f"{boundary}-{name}")
    for boundary in ARRAY_BOUNDARIES
    for name, entry, problem in BAD_ENTRIES
    if not (boundary == "field beta" and name == "bytes")  # JSON has no bytes
])
def test_every_array_boundary_refuses_a_bad_entry_naming_the_field(
    boundary, entry, problem, tmp_path, capsys
):
    with pytest.raises(ValueError) as err:
        ARRAY_BOUNDARIES[boundary](entry, tmp_path, capsys)
    assert str(err.value) == f"{boundary.split(' (')[0]}: {problem}"


# the array boundaries that refuse a NaN or infinite entry, in the words of
# the typed-number rule
FINITE_BOUNDARIES = [
    "deformation_angle", "X", "y", "beta", "Xq", "xa", "xb", "X (basis)", "x", "y (poly)",
]


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("boundary", FINITE_BOUNDARIES)
def test_array_boundaries_refuse_a_non_finite_entry_naming_the_field(boundary, entry):
    with pytest.raises(ValueError) as err:
        ARRAY_BOUNDARIES[boundary](entry)
    assert str(err.value) == f"{boundary.split(' (')[0]}: must be a finite number"


def test_floats_takes_a_number_array_without_a_copy():
    values = np.array(ANGLES)
    assert units.floats("v", values) is values
    ints = units.floats("v", np.arange(3))
    assert ints.dtype == float and ints.tolist() == [0.0, 1.0, 2.0]
    assert units.floats("v", [1, np.float32(0.5), math.nan])[1] == 0.5
    with pytest.raises(ValueError, match="^v: expected float$"):
        units.floats("v", np.array([True, False]))


# -- the frozen records (units._Record) ------------------------------------------


def _record_values():
    """Each record class's field values in field order, one field's other
    valid value (field, value), and one field's value that __post_init__
    refuses (field, value, exception), None for a record without checks."""
    model = gpr.fit(ANGLES, TARGETS, HYPER, 0.1)
    actuator = mechanics.ActuatorSpec(0.08, 3.0, 1.0)
    spec = mechanics.RingDesignSpec(100.0, 5, 40, 0.85, actuator,
                                    JointFamily(FamilyKind.SQUARE_SYM), 2, 1.05, 1.0)
    report = mechanics.design_module(spec, SQ_MODEL)
    column = ["square_sym"], [math.nan], [90.0], ["forward"], [1.0], [170.0], ["r1"]
    rows = {
        gpr.KernelHyperParams: ((2.0, (20.0,)), ("signal_variance", 3.0),
                                ("signal_variance", -1.0, ValueError)),
        gpr.KernelSpectrum: ((np.zeros((1, 1)), (1.0,), np.ones(1), np.ones((1, 1)), 0.0, None,
                              None), ("tail", 0.5), ("lam", [1.0], AttributeError)),
        gpr.FittedGP: (tuple(vars(model).values()), ("noise_variance", 0.2),
                       ("beta", [0.0] * 3, AttributeError)),
        gpr.GridSpec: (((1.0,), ((10.0,),), (0.1,)), ("signal_variances", (2.0,)),
                       ("noise_variances", (-1.0,), ValueError)),
        JointFamily: ((FamilyKind.CURVE, 0.8), ("thickness", 1.2), ("thickness", True, ValueError)),
        JointDataset: (column, ("run_id", ["r2"]), ("force", ["1.0"], ValueError)),
        joints.JointEnvelope: ((140.0, None, 2.9, 90.0), ("max_observed_force", 3.0),
                               ("return_decay_onset", 150.0, ValueError)),
        joints.JointFamilyModel: ((FamilyKind.SQUARE_SYM, model, None, None, None),
                                  ("force_loo_rmse", 0.5), ("kind", FamilyKind.CURVE, ValueError)),
        archive.ArchiveInfo: (("curve", "m1"), ("model_id", "m2"), None),
        mechanics.ActuatorSpec: ((0.08, 3.0, 1.0), ("spindle_radius", 4.0),
                                 ("rated_torque", -1.0, ValueError)),
        mechanics.RingDesignSpec: (tuple(vars(spec).values()), ("target_ratio", 0.9),
                                   ("joints_per_ring", 41, ValueError)),
        mechanics.MotorRequirements: ((42.0, 1.9, 0.126, True), ("overdrive", False), None),
        mechanics.DesignReport: (tuple(vars(report).values()), ("flags", ()), None),
    }
    return {cls.__name__: (cls, *row) for cls, row in rows.items()}


RECORDS = [
    "KernelHyperParams", "KernelSpectrum", "FittedGP", "GridSpec", "JointFamily", "JointDataset",
    "JointEnvelope", "JointFamilyModel", "ArchiveInfo", "ActuatorSpec", "RingDesignSpec",
    "MotorRequirements", "DesignReport",
]

# repr text of @dataclass(frozen=True), which the records had before units._Record
PINNED_REPRS = {
    "KernelHyperParams": "KernelHyperParams(signal_variance=2.0, length_scales=(20.0,))",
    "JointFamily": "JointFamily(kind=<FamilyKind.CURVE: 'curve'>, thickness=0.8)",
    "ArchiveInfo": "ArchiveInfo(family='curve', model_id='m1')",
    "GridSpec": "GridSpec(signal_variances=(1.0,), length_scale_grids=((10.0,),), "
                "noise_variances=(0.1,))",
    "MotorRequirements": "MotorRequirements(total_force=42.0, min_spindle_radius=1.9, "
                         "torque_at_spindle=0.126, overdrive=True)",
}


def _outcome(call):
    """call()'s value, or the type of what it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - compared with the twin's
        return type(exc)


@pytest.mark.parametrize("name", RECORDS)
def test_record_keeps_the_frozen_dataclass_contract(name):
    cls, values, (other, other_value), bad = _record_values()[name]
    names = [f.name for f in dataclasses.fields(cls)]
    assert len(names) == len(values)
    record = cls(*values)
    stored = tuple(getattr(record, n) for n in names)
    assert list(vars(record)) == names
    assert repr(cls(**dict(zip(names, values)))) == repr(record)  # keywords bind as positions

    # frozen: no field (nor any other attribute) assigned or deleted
    for attribute in (names[0], "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, attribute, values[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, names[0])
    assert getattr(record, names[0]) is stored[0]

    # ==, hash and repr as the methods @dataclass(frozen=True) generates give
    # them, on a twin built with it from the same stored values
    twin_cls = dataclasses.make_dataclass(cls.__name__, list(zip(names, [object] * len(names))),
                                          frozen=True, eq=cls is not JointDataset)
    twin = twin_cls(*stored)
    copy, changed = dataclasses.replace(record), dataclasses.replace(record, **{other: other_value})
    twin_copy = twin_cls(*(getattr(copy, n) for n in names))
    twin_changed = twin_cls(*(getattr(changed, n) for n in names))
    assert repr(record) == repr(twin) == PINNED_REPRS.get(name, repr(twin))
    for ours, theirs in [
        (lambda: record == copy, lambda: twin == twin_copy),
        (lambda: record == changed, lambda: twin == twin_changed),
        (lambda: record != copy, lambda: twin != twin_copy),
        (lambda: record == stored, lambda: twin == stored),
        (lambda: hash(record) == hash(copy), lambda: hash(twin) == hash(twin_copy)),
    ]:
        assert _outcome(ours) == _outcome(theirs)
    if cls is JointDataset:  # by identity, as with eq=False
        assert record == record and record != copy and hash(record) == object.__hash__(record)
    elif _outcome(lambda: hash(twin)) is not TypeError:
        assert hash(record) == hash(twin)

    # replace builds what the constructor builds from the changed values
    assert repr(changed) == repr(cls(**dict(zip(names, values)) | {other: other_value}))
    assert repr(changed) != repr(record)

    # __post_init__ runs on positional and keyword construction alike
    if bad is not None:
        field, value, error = bad
        position = names.index(field)
        with pytest.raises(error):
            cls(*values[:position], value, *values[position + 1:])
        with pytest.raises(error):
            cls(**dict(zip(names, values)) | {field: value})

    # a missing, repeated or unknown argument
    with pytest.raises(TypeError, match=f"missing .*'{names[0]}'"):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(*values, extra=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match=r"positional arguments but \d+ were given"):
        cls(*values, None)
