"""ugckit: design and analysis toolkit for compliant ring modules.

Fits Gaussian-process force and return-angle models to compliant-joint bench
data, ships built-in calibrated coefficients for two joint families, and
sizes the actuator, spindle, and per-joint bend angle needed to contract a
cable-driven ring to a target radius.
"""

from .archive import load_archive, save_model
from .data import (
    Direction,
    FamilyKind,
    JointDataset,
    JointFamily,
    average_runs,
    parse_measurements,
)
from .gpr import (
    FittedGP,
    GridSpec,
    KernelHyperParams,
    fit,
    tune_hyperparams,
)
from .joints import (
    JointEnvelope,
    JointFamilyModel,
    builtin_model,
    envelope_for,
    envelope_table_as_json,
    fit_family_model,
    predict_many,
)
from .mechanics import (
    ActuatorSpec,
    DesignReport,
    RingDesignSpec,
    design_module,
    motor_requirements,
    required_bend_angle,
    ring_geometry,
    target_arc,
)

__version__ = "0.1.0"

__all__ = [
    "ActuatorSpec",
    "Direction",
    "DesignReport",
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
