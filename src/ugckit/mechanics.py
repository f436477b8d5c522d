"""Ring-module sizing: fold geometry, spring-chain forces, and motor math.

The module is a ring of n mirrored sections, contracted by cables wound on a
central spindle. Sizing works through a fixed pipeline:

    ring geometry -> target arc -> bend angle per joint -> per-joint force
    -> total cable force -> spindle torque and radius -> envelope checks

The bend angle comes from a right-triangle approximation of one folding
half-section: hypotenuse = half the original arc, adjacent = half the
shortened arc, so the angle is arccos of the contraction ratio. The fold
must also physically fit: its height (the inward excursion of the folded
material) may not exceed the contracted radius, or the fold would cross the
module center; that is the feasibility bound on deep contractions.

Cable force follows the two-sided spring-chain sum

    F = 2 * sum_i k_i * dtheta_i / R

with k_i in N*mm/deg, angles in deg and R in mm, so the units cancel to
newtons without conversion. Torque math converts to SI here and nowhere
else: tau = F * r with r in meters.
"""

import math
from dataclasses import dataclass

from . import joints, units
from .data import FamilyKind, JointFamily
from .errors import (
    DesignSpecError,
    GeometryInfeasibleError,
    OutOfValidatedRangeError,
    ZeroDeflectionError,
)

DEFAULT_SAFETY_FACTOR = 1.5
SPINDLE_GRID_MM = 0.1  # manufacturable spindle radius resolution

FLAG_YIELD = "yield_exceeded"
FLAG_SELF_CONTACT = "self_contact"
FLAG_OVERDRIVE = "overdrive"


@dataclass(frozen=True)
class ActuatorSpec:
    """Central motor: rated torque (N*m), spindle radius (mm), and how much
    torque overshoot the drive electronics tolerate (>= 1)."""

    rated_torque: float  # N*m
    spindle_radius: float  # mm
    overdrive_factor: float = 1.0

    def __post_init__(self):
        if self.rated_torque <= 0 or self.spindle_radius <= 0 or self.overdrive_factor < 1:
            raise ValueError("actuator values must be positive (overdrive_factor >= 1)")


@dataclass(frozen=True)
class RingDesignSpec:
    """Geometry and targets for one ring module.

    joints_per_ring counts every joint across all ring layers (a two-layer
    ring with 20 joints per layer has joints_per_ring = 40).
    """

    outer_radius: float  # mm
    n_sections: int
    joints_per_ring: int
    target_ratio: float  # remaining-radius fraction in (0, 1]
    actuator: ActuatorSpec
    joint: JointFamily
    ring_layers: int = 2
    per_joint_force_override: float | None = None  # N
    friction_loss_factor: float = 1.0

    def __post_init__(self):
        if self.outer_radius <= 0:
            raise ValueError(f"outer_radius must be positive, got {self.outer_radius}")
        if self.n_sections < 2:
            raise ValueError(f"n_sections must be >= 2, got {self.n_sections}")
        if self.joints_per_ring <= 0 or self.joints_per_ring % self.n_sections != 0:
            raise ValueError(
                f"joints_per_ring ({self.joints_per_ring}) must be a positive "
                f"multiple of n_sections ({self.n_sections})"
            )
        if not 0.0 < self.target_ratio <= 1.0:
            raise ValueError(f"target_ratio must be in (0, 1], got {self.target_ratio}")
        if self.ring_layers < 1:
            raise ValueError(f"ring_layers must be >= 1, got {self.ring_layers}")
        if self.per_joint_force_override is not None and self.per_joint_force_override < 0:
            raise ValueError("per_joint_force_override must be >= 0")
        if self.friction_loss_factor <= 0:
            raise ValueError("friction_loss_factor must be positive")


@dataclass(frozen=True)
class SpringChain:
    """Series of torsional springs along one half-section.

    elements holds (stiffness k in N*mm/deg, cumulative angle in deg) pairs;
    consecutive angle differences are the per-spring deflections, measured
    from a flat reference of 0. current_radius is R(t) in mm, optionally
    clamped into [min_radius, max_radius].
    """

    elements: tuple[tuple[float, float], ...]
    current_radius: float  # mm
    min_radius: float | None = None
    max_radius: float | None = None

    def __post_init__(self):
        if not self.elements:
            raise ValueError("spring chain needs at least one element")
        if any(k <= 0 for k, _ in self.elements):
            raise ValueError("all spring stiffnesses must be positive")
        r = self.current_radius
        if self.min_radius is not None:
            r = max(r, self.min_radius)
        if self.max_radius is not None:
            r = min(r, self.max_radius)
        object.__setattr__(self, "current_radius", r)
        if self.current_radius <= 0:
            raise ValueError(f"current_radius must be positive, got {self.current_radius}")


def ring_geometry(outer_radius: float, n_sections: int) -> tuple[float, float]:
    """(section arc, half-section arc) in mm for a ring of n mirrored sections.

    Mirror symmetry splits every section into two identical halves, so the
    half-section arc is the unit all bend analysis runs on.
    """
    if outer_radius <= 0:
        raise ValueError(f"outer_radius must be positive, got {outer_radius}")
    if n_sections < 1:
        raise ValueError(f"n_sections must be >= 1, got {n_sections}")
    section_arc = 2.0 * math.pi * outer_radius / n_sections
    return section_arc, section_arc / 2.0


def target_arc(half_section_arc: float, target_ratio: float) -> tuple[float, float]:
    """Shortened half-section arc and the reduction delta, in mm."""
    if not 0.0 < target_ratio <= 1.0:
        raise ValueError(f"target_ratio must be in (0, 1], got {target_ratio}")
    new_arc = half_section_arc * target_ratio
    return new_arc, half_section_arc - new_arc


def required_bend_angle(half_section_arc: float, delta: float) -> float:
    """Per-joint bend angle (deg) to shorten a half-section arc by delta.

    Right triangle: hypotenuse = half_section_arc / 2 (half the folding arc),
    adjacent = (half_section_arc - delta) / 2. The cosine ratio must land in
    [0, 1]; outside it no such triangle exists.
    """
    if delta >= half_section_arc:
        raise GeometryInfeasibleError(
            f"arc reduction {delta:g} mm >= half-section arc {half_section_arc:g} mm"
        )
    hypotenuse = half_section_arc / 2.0
    adjacent = (half_section_arc - delta) / 2.0
    ratio = adjacent / hypotenuse
    if not 0.0 <= ratio <= 1.0:
        raise GeometryInfeasibleError(f"cosine ratio {ratio:g} outside [0, 1]")
    return units.rad_to_deg(math.acos(ratio))


def fold_depth(half_section_arc: float, bend_angle_deg: float) -> float:
    """Inward excursion (mm) of the folded half-section: hyp * sin(bend)."""
    return (half_section_arc / 2.0) * math.sin(units.deg_to_rad(bend_angle_deg))


def section_force(chain: SpringChain) -> float:
    """Two-sided cable force (N) of one section: 2 * sum k_i dtheta_i / R."""
    prev = 0.0
    total = 0.0
    for k, angle in chain.elements:
        total += k * (angle - prev)
        prev = angle
    return 2.0 * total / chain.current_radius


def effective_stiffness(force: float, delta_theta: float, radius: float) -> float:
    """Aggregate stiffness k = R * F / dtheta in N*mm/deg.

    F is the full two-sided section force, so k covers both mirror halves;
    a one-sided chain element reproducing F carries k / 2.
    """
    if delta_theta <= 0:
        raise ZeroDeflectionError(f"delta_theta must be positive, got {delta_theta}")
    return radius * force / delta_theta


@dataclass(frozen=True)
class MotorRequirements:
    total_force: float  # N
    min_spindle_radius: float  # mm, inf when unloaded
    torque_at_spindle: float  # N*m at the configured radius
    overdrive: bool
    no_load: bool


def motor_requirements(
    total_joints: int, per_joint_force: float, actuator: ActuatorSpec
) -> MotorRequirements:
    """Cable force, minimum spindle radius, and torque at the configured radius.

    The motor torque relates to cable force through tau = F * r, so the
    smallest workable spindle is rated_torque / F; an oversized spindle
    demands more torque than rated and raises the overdrive flag (scaled by
    the actuator's overdrive tolerance).
    """
    if total_joints < 0 or per_joint_force < 0:
        raise ValueError("joint count and per-joint force must be non-negative")
    total_force = total_joints * per_joint_force
    if total_force == 0.0:
        return MotorRequirements(
            total_force=0.0,
            min_spindle_radius=math.inf,
            torque_at_spindle=0.0,
            overdrive=False,
            no_load=True,
        )
    min_radius_mm = units.m_to_mm(actuator.rated_torque / total_force)
    torque = total_force * units.mm_to_m(actuator.spindle_radius)
    overdrive = torque > actuator.rated_torque * actuator.overdrive_factor
    return MotorRequirements(
        total_force=total_force,
        min_spindle_radius=min_radius_mm,
        torque_at_spindle=torque,
        overdrive=overdrive,
        no_load=False,
    )


def _ceil_to_grid(value_mm: float) -> float:
    # tiny slack keeps exact grid values from jumping a step
    return math.ceil(value_mm / SPINDLE_GRID_MM - 1e-9) * SPINDLE_GRID_MM


def recommended_spindle_radius(min_radius_mm: float, safety_factor: float) -> float:
    """Manufacturable spindle recommendation (mm).

    The minimum radius is first rounded up to the 0.1 mm grid, then scaled
    by the safety factor and rounded up to the grid again. Rounding before
    the safety factor keeps the recommendation anchored to a radius that can
    actually be printed.
    """
    if not math.isfinite(min_radius_mm):
        return math.inf
    return _ceil_to_grid(_ceil_to_grid(min_radius_mm) * safety_factor)


@dataclass(frozen=True)
class DesignReport:
    """Every intermediate of one design run; numbers are mm, deg, N, N*m."""

    outer_radius: float
    n_sections: int
    total_joints: int
    target_ratio: float
    section_arc: float
    half_section_arc: float
    target_half_arc: float
    arc_delta: float
    bend_angle: float
    fold_depth: float
    contracted_radius: float
    per_joint_force: float
    per_joint_force_source: str  # "model" | "override" | "identity"
    model_force: float | None
    model_force_std: float | None
    friction_loss_factor: float
    total_force: float
    rated_torque: float
    spindle_radius: float
    torque_at_spindle: float
    min_spindle_radius: float
    safety_factor: float
    recommended_spindle_radius: float
    predicted_return_angle: float | None
    yield_angle: float
    self_contact_angle: float | None
    flags: tuple[str, ...] = ()
    diagnostics: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        def q(value, unit):
            if value is None or (isinstance(value, float) and not math.isfinite(value)):
                return {"value": None, "unit": unit}
            return {"value": value, "unit": unit}

        return {
            "quantities": {
                "outer_radius": q(self.outer_radius, "mm"),
                "n_sections": q(self.n_sections, "1"),
                "total_joints": q(self.total_joints, "1"),
                "target_ratio": q(self.target_ratio, "1"),
                "section_arc": q(self.section_arc, "mm"),
                "half_section_arc": q(self.half_section_arc, "mm"),
                "target_half_arc": q(self.target_half_arc, "mm"),
                "arc_delta": q(self.arc_delta, "mm"),
                "bend_angle": q(self.bend_angle, "deg"),
                "fold_depth": q(self.fold_depth, "mm"),
                "contracted_radius": q(self.contracted_radius, "mm"),
                "per_joint_force": q(self.per_joint_force, "N"),
                "model_force": q(self.model_force, "N"),
                "model_force_std": q(self.model_force_std, "N"),
                "friction_loss_factor": q(self.friction_loss_factor, "1"),
                "total_force": q(self.total_force, "N"),
                "rated_torque": q(self.rated_torque, "N*m"),
                "spindle_radius": q(self.spindle_radius, "mm"),
                "torque_at_spindle": q(self.torque_at_spindle, "N*m"),
                "min_spindle_radius": q(self.min_spindle_radius, "mm"),
                "safety_factor": q(self.safety_factor, "1"),
                "recommended_spindle_radius": q(self.recommended_spindle_radius, "mm"),
                "predicted_return_angle": q(self.predicted_return_angle, "deg"),
                "yield_angle": q(self.yield_angle, "deg"),
                "self_contact_angle": q(self.self_contact_angle, "deg"),
            },
            "per_joint_force_source": self.per_joint_force_source,
            "flags": list(self.flags),
            "diagnostics": list(self.diagnostics),
        }

    def format_summary(self) -> str:
        def fmt(v, unit=""):
            if v is None:
                return "n/a"
            if isinstance(v, float) and not math.isfinite(v):
                return "unbounded"
            s = f"{v:.6g}"
            return f"{s} {unit}".rstrip()

        rows = [
            ("outer radius", fmt(self.outer_radius, "mm")),
            ("sections", fmt(self.n_sections)),
            ("total joints", fmt(self.total_joints)),
            ("target ratio", fmt(self.target_ratio)),
            ("half-section arc", fmt(self.half_section_arc, "mm")),
            ("target half arc", fmt(self.target_half_arc, "mm")),
            ("bend angle per joint", fmt(self.bend_angle, "deg")),
            ("per-joint force", fmt(self.per_joint_force, "N") + f" ({self.per_joint_force_source})"),
            ("total cable force", fmt(self.total_force, "N")),
            ("torque at spindle", fmt(self.torque_at_spindle, "N*m")),
            ("min spindle radius", fmt(self.min_spindle_radius, "mm")),
            ("recommended spindle", fmt(self.recommended_spindle_radius, "mm")),
            ("predicted return angle", fmt(self.predicted_return_angle, "deg")),
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

    Envelope violations are reported as flags, never as errors; geometric
    infeasibility (the fold not fitting inside the contracted ring) and
    out-of-range curve queries do abort.
    """
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

    flags: list[str] = []
    diagnostics: list[str] = []
    model_force = model_std = None
    return_angle: float | None = None

    if bend == 0.0:
        # identity design: nothing bends, nothing loads the cables
        per_joint = 0.0
        source = "identity"
        return_angle = 180.0
    else:
        try:
            pred = joints.predict_force(joint_model, bend, spec.joint.thickness)
            model_force, model_std = pred.mean, pred.std
            for w in pred.warnings:
                diagnostics.append(f"force model warning: {w}")
        except OutOfValidatedRangeError:
            if spec.per_joint_force_override is None:
                raise
            diagnostics.append(
                f"model force unavailable at {bend:.2f} deg (outside validated range)"
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
        if joint_model.return_model is not None:
            return_angle = joints.predict_return_angle(
                joint_model, bend, spec.joint.thickness, allow_extrapolation=True
            )

    motor = motor_requirements(
        spec.joints_per_ring, per_joint * spec.friction_loss_factor, spec.actuator
    )
    if motor.overdrive:
        flags.append(FLAG_OVERDRIVE)
    if motor.no_load:
        diagnostics.append("no cable load; spindle radius unconstrained")

    env = joints.envelope_for(spec.joint)
    if bend > env.yield_angle:
        flags.append(FLAG_YIELD)
    if env.self_contact_angle is not None and bend >= env.self_contact_angle:
        flags.append(FLAG_SELF_CONTACT)

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
        flags=tuple(flags),
        diagnostics=tuple(diagnostics),
    )


# -- design-spec JSON wire format ------------------------------------------------

_FAMILY_TOKENS = {k.value for k in FamilyKind}


def _json_number(val) -> float | None:
    """val as a float if it is a finite JSON number (not a bool), else None."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    try:
        return units.finite_float(val)
    except ValueError:
        return None


def spec_from_json_dict(doc: dict) -> RingDesignSpec:
    """Build a RingDesignSpec from its JSON document, collecting every schema
    problem before failing."""
    problems: list[str] = []

    def req(obj, key, kind, pred=None, why=""):
        if not isinstance(obj, dict) or key not in obj:
            problems.append(f"missing field: {key}")
            return None
        val = obj[key]
        if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
            val = _json_number(val)
            if val is None:
                problems.append(f"field {key}: must be a finite number")
                return None
        if not isinstance(val, kind) or isinstance(val, bool):
            problems.append(f"field {key}: expected {kind.__name__}")
            return None
        if pred is not None and not pred(val):
            problems.append(f"field {key}: {why}")
            return None
        return val

    if not isinstance(doc, dict):
        raise DesignSpecError(["design spec root is not a JSON object"])

    outer = req(doc, "outer_radius_mm", float, lambda v: v > 0, "must be > 0")
    nsec = req(doc, "n_sections", int, lambda v: v >= 2, "must be >= 2")
    jpr = req(doc, "joints_per_ring", int, lambda v: v > 0, "must be > 0")
    layers = req(doc, "ring_layers", int, lambda v: v >= 1, "must be >= 1")
    ratio = req(doc, "target_ratio", float, lambda v: 0 < v <= 1, "must be in (0, 1]")

    act = doc.get("actuator")
    if not isinstance(act, dict):
        problems.append("missing field: actuator")
        torque = spindle = over = None
    else:
        torque = req(act, "rated_torque_nm", float, lambda v: v > 0, "must be > 0")
        spindle = req(act, "spindle_radius_mm", float, lambda v: v > 0, "must be > 0")
        over = _json_number(act.get("overdrive_factor", 1.0))
        if over is None or over < 1:
            problems.append("field overdrive_factor: must be a finite number >= 1")

    joint_doc = doc.get("joint")
    family = None
    if not isinstance(joint_doc, dict):
        problems.append("missing field: joint")
    else:
        tok = joint_doc.get("family")
        if tok not in _FAMILY_TOKENS:
            problems.append(f"field joint.family: unknown family {tok!r}")
        else:
            kind = FamilyKind(tok)
            thick = joint_doc.get("thickness_mm")
            if kind is FamilyKind.CURVE:
                thick = _json_number(thick)
                if thick is None or thick <= 0:
                    problems.append(
                        "field joint.thickness_mm: curve joints need a finite value > 0"
                    )
                else:
                    family = JointFamily(kind, thick)
            else:
                if thick is not None:
                    problems.append("field joint.thickness_mm: must be null for this family")
                else:
                    family = JointFamily(kind)

    override = _json_number(doc.get("per_joint_force_n"))
    if doc.get("per_joint_force_n") is not None and (override is None or override < 0):
        problems.append("field per_joint_force_n: must be a finite number >= 0")

    friction = _json_number(doc.get("friction_loss_factor", 1.0))
    if friction is None or friction <= 0:
        problems.append("field friction_loss_factor: must be a finite number > 0")

    if jpr is not None and nsec is not None and jpr % nsec != 0:
        problems.append("field joints_per_ring: must be divisible by n_sections")

    known = {
        "outer_radius_mm", "n_sections", "joints_per_ring", "ring_layers",
        "target_ratio", "actuator", "joint", "per_joint_force_n", "friction_loss_factor",
    }
    problems += [f"unknown field: {k}" for k in doc if k not in known]

    if problems:
        raise DesignSpecError(problems)
    return RingDesignSpec(
        outer_radius=outer,
        n_sections=nsec,
        joints_per_ring=jpr,
        target_ratio=ratio,
        actuator=ActuatorSpec(torque, spindle, over),
        joint=family,
        ring_layers=layers,
        per_joint_force_override=override,
        friction_loss_factor=friction,
    )


def spec_to_json_dict(spec: RingDesignSpec) -> dict:
    doc = {
        "outer_radius_mm": spec.outer_radius,
        "n_sections": spec.n_sections,
        "joints_per_ring": spec.joints_per_ring,
        "ring_layers": spec.ring_layers,
        "target_ratio": spec.target_ratio,
        "actuator": {
            "rated_torque_nm": spec.actuator.rated_torque,
            "spindle_radius_mm": spec.actuator.spindle_radius,
            "overdrive_factor": spec.actuator.overdrive_factor,
        },
        "joint": {
            "family": spec.joint.kind.value,
            "thickness_mm": spec.joint.thickness,
        },
        "friction_loss_factor": spec.friction_loss_factor,
    }
    if spec.per_joint_force_override is not None:
        doc["per_joint_force_n"] = spec.per_joint_force_override
    return doc
