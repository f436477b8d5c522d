"""The package's public names, pinned: adding or removing one edits this list."""

import inspect

import ugckit
from ugckit import errors, joints

PUBLIC_NAMES = [
    "ActuatorSpec",
    "DesignReport",
    "Direction",
    "FamilyKind",
    "FittedGP",
    "GridSpec",
    "JointDataset",
    "JointEnvelope",
    "JointFamily",
    "JointFamilyModel",
    "KernelHyperParams",
    "RingDesignSpec",
    "average_runs",
    "builtin_model",
    "design_module",
    "envelope_for",
    "envelope_table_as_json",
    "fit",
    "fit_family_model",
    "load_archive",
    "motor_requirements",
    "parse_measurements",
    "predict_many",
    "required_bend_angle",
    "ring_geometry",
    "save_model",
    "target_arc",
    "tune_hyperparams",
]


def test_all_is_the_pinned_list():
    assert sorted(ugckit.__all__) == PUBLIC_NAMES
    assert len(set(ugckit.__all__)) == len(ugckit.__all__)


def test_every_public_name_resolves():
    namespace = {}
    exec("from ugckit import *", namespace)
    for name in PUBLIC_NAMES:
        assert getattr(ugckit, name) is namespace[name]


def test_predict_many_is_the_joint_query():
    assert ugckit.predict_many is joints.predict_many


ERROR_CLASSES = [
    "BadNumberError",
    "ComputationError",
    "CorruptArchiveError",
    "DesignSpecError",
    "GeometryInfeasibleError",
    "InputError",
    "MissingColumnError",
    "MissingThicknessError",
    "NotPositiveDefiniteError",
    "OutOfRangeError",
    "OutOfValidatedRangeError",
    "UgcError",
    "UnsupportedDimensionError",
]


def test_errors_defines_the_pinned_classes():
    # a new error class needs a caller that tells it from its base
    defined = [name for name, obj in vars(errors).items() if inspect.isclass(obj)]
    assert sorted(defined) == ERROR_CLASSES
