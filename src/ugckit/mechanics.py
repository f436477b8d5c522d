"""Ring-module sizing: fold geometry and motor math.

The module is a ring of n mirrored sections, contracted by cables wound on a
central spindle. Sizing works through a fixed pipeline:

    ring geometry -> target arc -> bend angle per joint -> per-joint force
    -> total cable force -> spindle torque and radius -> overdrive flag

The bend angle comes from a right-triangle approximation of one folding
half-section: hypotenuse = half the original arc, adjacent = half the
shortened arc, so the angle is arccos of the contraction ratio. The fold
must also physically fit: its height (the inward excursion of the folded
material) may not exceed the contracted radius, or the fold would cross the
module center; that is the feasibility bound on deep contractions.

The report quotes the joint's envelope (yield and self-contact angles) but
compares no angle with it: a feasible design's bend, arccos of a ratio in
(0, 1], stays below 90 deg, short of every yield and self-contact angle in
the table.

design_module takes the total cable force as

    F = joints_per_ring * per-joint force * friction_loss_factor

with the per-joint force in N from the joint model at the bend angle, or
from the spec's override (40 joints at 1.05 N and a factor of 1 give
42 N). Torque math converts to SI here and nowhere else: tau = F * r with
r in meters.
"""

import functools
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import get_args, get_type_hints

from . import joints, units
from .data import FamilyKind, JointFamily
from .errors import (
    DesignSpecError,
    GeometryInfeasibleError,
    MissingThicknessError,
    OutOfValidatedRangeError,
)
from .units import _ANY, _POSITIVE, _RATIO, _at_least, checked

DEFAULT_SAFETY_FACTOR = 1.5
SPINDLE_GRID_MM = 0.1  # manufacturable spindle radius resolution

FLAG_OVERDRIVE = "overdrive"


# -- design-spec fields ----------------------------------------------------------
# Each field of a design spec is declared once, on its dataclass field: _spec
# adds its JSON key and rule, and the annotation gives its kind (int, float or a
# nested document's class). The constructors and the JSON reader and writer all
# walk _spec_fields. A field's default sets its key's presence in JSON: with no
# default the key is required, with None it may be null or absent, and with any
# other default it may be absent and then takes that value.


def _spec(key=None, rule=_ANY, default=MISSING):
    """A design-spec field: its JSON key, when it differs from the attribute
    name, and its rule (test, message text)."""
    return field(default=default, metadata={"key": key, "rule": rule})


@functools.cache
def _spec_fields(cls) -> tuple:
    """(attribute, JSON key, kind, rule, default) for each field of a spec
    class, in field order; kind is the annotated type, None unwrapped."""
    hints = get_type_hints(cls)
    rows = []
    for f in fields(cls):
        kind = next(t for t in get_args(hints[f.name]) or (hints[f.name],) if t is not type(None))
        rows.append((f.name, f.metadata["key"] or f.name, kind, f.metadata["rule"], f.default))
    return tuple(rows)


def _check_attributes(obj) -> None:
    """Store obj's numbers as their fields' kinds and require its nested fields
    to be instances of theirs; ValueError naming the first bad one."""
    for name, _, kind, rule, default in _spec_fields(type(obj)):
        value = getattr(obj, name)
        if kind not in (int, float):
            if not isinstance(value, kind):
                raise ValueError(f"{name}={value!r}: expected {kind.__name__}")
        elif not (value is None and default is None):
            object.__setattr__(obj, name, checked(f"{name}={value!r}", value, rule, kind))


@dataclass(frozen=True)
class ActuatorSpec:
    """Central motor: rated torque (N*m), spindle radius (mm), and how much
    torque overshoot the drive electronics tolerate (>= 1)."""

    rated_torque: float = _spec("rated_torque_nm", _POSITIVE)  # N*m
    spindle_radius: float = _spec("spindle_radius_mm", _POSITIVE)  # mm
    overdrive_factor: float = _spec(rule=_at_least(1), default=1.0)

    def __post_init__(self):
        _check_attributes(self)


def _spread_problem(joints_per_ring=None, n_sections=None, **_) -> str | None:
    """The one cross-field rule; attribute values by name, a missing one passes."""
    if joints_per_ring is None or n_sections is None or joints_per_ring % n_sections == 0:
        return None
    return "joints_per_ring: must be divisible by n_sections"


@dataclass(frozen=True)
class RingDesignSpec:
    """Geometry and targets for one ring module.

    joints_per_ring counts every joint across all ring layers (a two-layer
    ring with 20 joints per layer has joints_per_ring = 40).
    """

    outer_radius: float = _spec("outer_radius_mm", _POSITIVE)  # mm
    n_sections: int = _spec(rule=_at_least(2))
    joints_per_ring: int = _spec(rule=_POSITIVE)
    target_ratio: float = _spec(rule=_RATIO)  # remaining-radius fraction in (0, 1]
    actuator: ActuatorSpec = _spec()
    joint: JointFamily = _spec()
    ring_layers: int = _spec(rule=_at_least(1), default=2)
    per_joint_force_override: float | None = _spec("per_joint_force_n", _at_least(0), default=None)
    friction_loss_factor: float = _spec(rule=_POSITIVE, default=1.0)

    def __post_init__(self):
        _check_attributes(self)
        problem = _spread_problem(**vars(self))
        if problem:
            raise ValueError(problem)


def ring_geometry(outer_radius: float, n_sections: int) -> tuple[float, float]:
    """(section arc, half-section arc) in mm for a ring of n mirrored sections.

    Mirror symmetry splits every section into two identical halves, so the
    half-section arc is the unit all bend analysis runs on. The section arc
    must be finite, and half the half-section arc, the hypotenuse of
    required_bend_angle, must not round to 0.
    """
    outer_radius = checked(f"outer_radius={outer_radius!r}", outer_radius, _POSITIVE)
    n_sections = checked(f"n_sections={n_sections!r}", n_sections, _at_least(1), int)
    section_arc = 2.0 * math.pi * outer_radius / n_sections
    half = section_arc / 2.0
    if not (section_arc < math.inf and half / 2.0 > 0.0):
        raise ValueError(
            f"outer_radius={outer_radius!r}: the section arc over {n_sections} sections, "
            f"{section_arc!r} mm, must be finite and its quarter > 0 mm"
        )
    return section_arc, half


def target_arc(half_section_arc: float, target_ratio: float) -> tuple[float, float]:
    """Shortened half-section arc and the reduction delta, in mm."""
    half_section_arc = checked(f"half_section_arc={half_section_arc!r}", half_section_arc, _ANY)
    target_ratio = checked(f"target_ratio={target_ratio!r}", target_ratio, _RATIO)
    new_arc = half_section_arc * target_ratio
    return new_arc, half_section_arc - new_arc


def required_bend_angle(half_section_arc: float, delta: float) -> float:
    """Per-joint bend angle (deg) to shorten a half-section arc by delta.

    Right triangle: hypotenuse = half_section_arc / 2 (half the folding arc),
    adjacent = (half_section_arc - delta) / 2. The cosine ratio must land in
    [0, 1], and the hypotenuse must not be 0; otherwise no such triangle exists.
    """
    half_section_arc = checked(f"half_section_arc={half_section_arc!r}", half_section_arc, _ANY)
    delta = checked(f"delta={delta!r}", delta, _ANY)
    if delta >= half_section_arc:
        raise GeometryInfeasibleError(
            f"arc reduction {delta:g} mm >= half-section arc {half_section_arc:g} mm"
        )
    hypotenuse = half_section_arc / 2.0
    if hypotenuse == 0.0:
        raise GeometryInfeasibleError(f"half-section arc {half_section_arc:g} mm halves to 0")
    adjacent = (half_section_arc - delta) / 2.0
    ratio = adjacent / hypotenuse
    if not 0.0 <= ratio <= 1.0:
        raise GeometryInfeasibleError(f"cosine ratio {ratio:g} outside [0, 1]")
    return units.rad_to_deg(math.acos(ratio))


def fold_depth(half_section_arc: float, bend_angle_deg: float) -> float:
    """Inward excursion (mm) of the folded half-section: hyp * sin(bend)."""
    return (half_section_arc / 2.0) * math.sin(units.deg_to_rad(bend_angle_deg))


@dataclass(frozen=True)
class MotorRequirements:
    total_force: float  # N
    min_spindle_radius: float  # mm, inf when unloaded
    torque_at_spindle: float  # N*m at the configured radius
    overdrive: bool


def motor_requirements(
    total_joints: int, per_joint_force: float, actuator: ActuatorSpec
) -> MotorRequirements:
    """Cable force, minimum spindle radius, and torque at the configured radius.

    The motor torque relates to cable force through tau = F * r, so the
    smallest workable spindle is rated_torque / F; an oversized spindle
    demands more torque than rated and raises the overdrive flag (scaled by
    the actuator's overdrive tolerance). ValueError where the total force or
    the torque is past the float range.
    """
    total_joints = checked(f"total_joints={total_joints!r}", total_joints, _at_least(0), int)
    per_joint_force = checked(
        f"per_joint_force={per_joint_force!r}", per_joint_force, _at_least(0)
    )
    total_force = total_joints * per_joint_force
    if not math.isfinite(total_force):
        raise ValueError(
            f"total force of total_joints={total_joints!r} at "
            f"per_joint_force={per_joint_force!r} is not finite"
        )
    if total_force == 0.0:
        return MotorRequirements(
            total_force=0.0,
            min_spindle_radius=math.inf,
            torque_at_spindle=0.0,
            overdrive=False,
        )
    min_radius_mm = units.m_to_mm(actuator.rated_torque / total_force)
    torque = total_force * units.mm_to_m(actuator.spindle_radius)
    if not math.isfinite(torque):
        raise ValueError(
            f"torque of total force {total_force!r} N at "
            f"spindle_radius={actuator.spindle_radius!r} mm is not finite"
        )
    overdrive = torque > actuator.rated_torque * actuator.overdrive_factor
    return MotorRequirements(
        total_force=total_force,
        min_spindle_radius=min_radius_mm,
        torque_at_spindle=torque,
        overdrive=overdrive,
    )


def _ceil_to_grid(value_mm: float) -> float:
    # tiny slack keeps exact grid values from jumping a step; never below one step
    steps = value_mm / SPINDLE_GRID_MM - 1e-9
    return max(1, math.ceil(steps)) * SPINDLE_GRID_MM if math.isfinite(steps) else math.inf


def recommended_spindle_radius(min_radius_mm: float, safety_factor: float) -> float:
    """Manufacturable spindle recommendation (mm).

    The minimum radius is first rounded up to the 0.1 mm grid, then scaled
    by the safety factor and rounded up to the grid again. Rounding before
    the safety factor keeps the recommendation anchored to a radius that can
    actually be printed. Each rounding may undershoot by up to 1e-10 mm, so
    1.5 * 49.2 = 73.80000000000001 stays 73.8, and gives at least one step.
    A recommendation past the float range, like the minimum radius of an
    unloaded ring, is inf: unbounded.
    """
    return _ceil_to_grid(_ceil_to_grid(min_radius_mm) * safety_factor)


@dataclass(frozen=True)
class DesignReport:
    """Every intermediate of one design run; numbers are mm, deg, N, N*m."""

    outer_radius: float = field(metadata={"unit": "mm"})
    n_sections: int = field(metadata={"unit": "1"})
    total_joints: int = field(metadata={"unit": "1"})
    target_ratio: float = field(metadata={"unit": "1"})
    section_arc: float = field(metadata={"unit": "mm"})
    half_section_arc: float = field(metadata={"unit": "mm"})
    target_half_arc: float = field(metadata={"unit": "mm"})
    arc_delta: float = field(metadata={"unit": "mm"})
    bend_angle: float = field(metadata={"unit": "deg"})
    fold_depth: float = field(metadata={"unit": "mm"})
    contracted_radius: float = field(metadata={"unit": "mm"})
    per_joint_force: float = field(metadata={"unit": "N"})
    per_joint_force_source: str  # "model" | "override" | "identity"
    model_force: float | None = field(metadata={"unit": "N"})
    model_force_std: float | None = field(metadata={"unit": "N"})
    friction_loss_factor: float = field(metadata={"unit": "1"})
    total_force: float = field(metadata={"unit": "N"})
    rated_torque: float = field(metadata={"unit": "N*m"})
    spindle_radius: float = field(metadata={"unit": "mm"})
    torque_at_spindle: float = field(metadata={"unit": "N*m"})
    min_spindle_radius: float = field(metadata={"unit": "mm"})
    safety_factor: float = field(metadata={"unit": "1"})
    recommended_spindle_radius: float = field(metadata={"unit": "mm"})
    predicted_return_angle: float | None = field(metadata={"unit": "deg"})
    yield_angle: float = field(metadata={"unit": "deg"})
    self_contact_angle: float | None = field(metadata={"unit": "deg"})
    flags: tuple[str, ...] = ()
    diagnostics: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        """Each quantity as {"value", "unit"}, with null for a missing or
        non-finite value; the other fields as they are."""
        doc = {"quantities": {}}
        for f in fields(self):
            value = getattr(self, f.name)
            if "unit" not in f.metadata:
                doc[f.name] = list(value) if isinstance(value, tuple) else value
                continue
            if isinstance(value, float) and not math.isfinite(value):
                value = None
            doc["quantities"][f.name] = {"value": value, "unit": f.metadata["unit"]}
        return doc

    def format_summary(self) -> str:
        unit_of = {f.name: f.metadata.get("unit") for f in fields(self)}

        def fmt(name):
            v = getattr(self, name)
            if v is None:
                return "n/a"
            if isinstance(v, float) and not math.isfinite(v):
                return "unbounded"
            return f"{v:.6g}" if unit_of[name] == "1" else f"{v:.6g} {unit_of[name]}"

        rows = [
            ("outer radius", fmt("outer_radius")),
            ("sections", fmt("n_sections")),
            ("total joints", fmt("total_joints")),
            ("target ratio", fmt("target_ratio")),
            ("half-section arc", fmt("half_section_arc")),
            ("target half arc", fmt("target_half_arc")),
            ("bend angle per joint", fmt("bend_angle")),
            ("per-joint force", f"{fmt('per_joint_force')} ({self.per_joint_force_source})"),
            ("total cable force", fmt("total_force")),
            ("torque at spindle", fmt("torque_at_spindle")),
            ("min spindle radius", fmt("min_spindle_radius")),
            ("recommended spindle", fmt("recommended_spindle_radius")),
            ("predicted return angle", fmt("predicted_return_angle")),
            ("flags", ", ".join(self.flags) if self.flags else "none"),
        ]
        width = max(len(name) for name, _ in rows)
        lines = ["ring module design summary", "-" * 40]
        lines += [f"{name.ljust(width)}  {val}" for name, val in rows]
        if self.diagnostics:
            lines.append("notes:")
            lines += [f"  - {d}" for d in self.diagnostics]
        return "\n".join(lines)


def design_module(
    spec: RingDesignSpec,
    joint_model: joints.JointFamilyModel,
    safety_factor: float = DEFAULT_SAFETY_FACTOR,
) -> DesignReport:
    """Run the full sizing pipeline for one ring design.

    The one flag is overdrive; the joint's envelope angles are quoted, not
    compared (see the module docstring). Geometric infeasibility (the fold
    not fitting inside the contracted ring), out-of-range curve queries and
    a total force or torque past the float range abort.
    """
    safety_factor = checked(f"safety_factor={safety_factor!r}", safety_factor, _POSITIVE)
    if joint_model.kind is not spec.joint.kind:
        raise ValueError(
            f"model covers {joint_model.kind.value}, design uses {spec.joint.kind.value}"
        )

    section, half = ring_geometry(spec.outer_radius, spec.n_sections)
    new_half, delta = target_arc(half, spec.target_ratio)
    bend = required_bend_angle(half, delta)

    depth = fold_depth(half, bend)
    contracted_radius = spec.outer_radius * spec.target_ratio
    if depth > contracted_radius:
        raise GeometryInfeasibleError(
            f"fold depth {depth:.2f} mm exceeds the contracted radius "
            f"{contracted_radius:.2f} mm; the fold would cross the module center"
        )

    diagnostics: list[str] = []
    model_force = model_std = None

    if bend == 0.0:
        # identity design: nothing bends, nothing loads the cables
        per_joint = 0.0
        source = "identity"
        return_angle = 180.0
    else:
        try:
            means, stds, (return_angle,), (flags,) = joints.predict_many(
                joint_model, [bend], spec.joint.thickness
            )
            model_force, model_std = means.item(), stds.item()
            diagnostics += [f"force model warning: {w}" for w in flags]
        except OutOfValidatedRangeError:
            if spec.per_joint_force_override is None:
                raise
            diagnostics.append(
                f"model force unavailable at {bend:.2f} deg (outside validated range)"
            )
            _, _, (return_angle,), _ = joints.predict_many(
                joint_model, [bend], spec.joint.thickness, allow_extrapolation=True
            )
        if spec.per_joint_force_override is not None:
            per_joint = spec.per_joint_force_override
            source = "override"
            if model_force is not None:
                diagnostics.append(
                    f"override {per_joint:.6g} N vs model prediction {model_force:.6g} N "
                    f"at {bend:.2f} deg"
                )
        else:
            per_joint = model_force
            source = "model"

    motor = motor_requirements(
        spec.joints_per_ring, per_joint * spec.friction_loss_factor, spec.actuator
    )
    if motor.total_force == 0.0:
        diagnostics.append("no cable load; spindle radius unconstrained")

    env = joints.envelope_for(spec.joint)

    return DesignReport(
        outer_radius=spec.outer_radius,
        n_sections=spec.n_sections,
        total_joints=spec.joints_per_ring,
        target_ratio=spec.target_ratio,
        section_arc=section,
        half_section_arc=half,
        target_half_arc=new_half,
        arc_delta=delta,
        bend_angle=bend,
        fold_depth=depth,
        contracted_radius=contracted_radius,
        per_joint_force=per_joint,
        per_joint_force_source=source,
        model_force=model_force,
        model_force_std=model_std,
        friction_loss_factor=spec.friction_loss_factor,
        total_force=motor.total_force,
        rated_torque=spec.actuator.rated_torque,
        spindle_radius=spec.actuator.spindle_radius,
        torque_at_spindle=motor.torque_at_spindle,
        min_spindle_radius=motor.min_spindle_radius,
        safety_factor=safety_factor,
        recommended_spindle_radius=recommended_spindle_radius(
            motor.min_spindle_radius, safety_factor
        ),
        predicted_return_angle=return_angle,
        yield_angle=env.yield_angle,
        self_contact_angle=env.self_contact_angle,
        flags=(FLAG_OVERDRIVE,) if motor.overdrive else (),
        diagnostics=tuple(diagnostics),
    )


# -- design-spec JSON wire format ------------------------------------------------


def _unknown_keys(doc: dict, known, prefix: str, problems: list[str]) -> None:
    problems += [f"unknown field: {prefix}{k}" for k in doc if k not in known]


def _joint_from_json(doc: dict, problems: list[str]) -> JointFamily | None:
    _unknown_keys(doc, ("family", "thickness_mm"), "joint.", problems)
    try:
        kind = FamilyKind(doc.get("family"))
    except ValueError:
        problems.append(f"field joint.family: unknown family {doc.get('family')!r}")
        return None
    try:
        return JointFamily(kind, doc.get("thickness_mm"))
    except (ValueError, MissingThicknessError) as exc:
        problems.append(f"field joint.thickness_mm: {exc}")
    return None


def _read_fields(doc: dict, cls, problems: list[str], prefix: str = "") -> dict:
    """Attribute values of cls's spec fields in doc; appends a problem for each
    field that is missing or breaks its rule and for each key that no field
    names (prefix is the key path of a nested document)."""
    values = {}
    for name, key, kind, rule, default in _spec_fields(cls):
        raw = doc.get(key)
        path = prefix + key
        if kind not in (int, float):
            if not isinstance(raw, dict):
                problems.append(f"missing field: {path}")
            elif kind is JointFamily:
                values[name] = _joint_from_json(raw, problems)
            else:
                count = len(problems)
                nested = _read_fields(raw, kind, problems, f"{path}.")
                if len(problems) == count:
                    values[name] = kind(**nested)
        elif key not in doc:
            if default is MISSING:
                problems.append(f"missing field: {path}")
        elif raw is not None or default is not None:
            try:
                values[name] = checked(f"field {path}", raw, rule, kind)
            except ValueError as exc:
                problems.append(str(exc))
    _unknown_keys(doc, {key for _, key, *_ in _spec_fields(cls)}, prefix, problems)
    return values


def spec_from_json_dict(doc: dict) -> RingDesignSpec:
    """Build a RingDesignSpec from its JSON document, collecting every schema
    problem before failing."""
    if not isinstance(doc, dict):
        raise DesignSpecError(["design spec root is not a JSON object"])
    problems: list[str] = []
    values = _read_fields(doc, RingDesignSpec, problems)
    spread = _spread_problem(**values)
    if spread:
        problems.append(f"field {spread}")
    if problems:
        raise DesignSpecError(problems)
    return RingDesignSpec(**values)


def _write_fields(obj) -> dict:
    doc = {}
    for name, key, kind, _, _ in _spec_fields(type(obj)):
        value = getattr(obj, name)
        if kind is JointFamily:
            value = {"family": value.kind.value, "thickness_mm": value.thickness}
        elif kind not in (int, float):
            value = _write_fields(value)
        elif value is None:
            continue  # a nullable field left unset
        doc[key] = value
    return doc


def spec_to_json_dict(spec: RingDesignSpec) -> dict:
    return _write_fields(spec)
