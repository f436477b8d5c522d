import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ugckit import joints, mechanics
from ugckit.data import FamilyKind, JointFamily
from ugckit.errors import DesignSpecError, GeometryInfeasibleError

ACTUATOR = mechanics.ActuatorSpec(rated_torque=0.08, spindle_radius=3.0)


def reference_ring_spec(**overrides):
    kwargs = dict(
        outer_radius=100.0,
        n_sections=5,
        joints_per_ring=40,
        target_ratio=0.85,
        actuator=ACTUATOR,
        joint=JointFamily(FamilyKind.SQUARE_SYM),
        ring_layers=2,
        per_joint_force_override=1.05,
    )
    kwargs.update(overrides)
    return mechanics.RingDesignSpec(**kwargs)


class TestRingGeometry:
    def test_reference_ring(self):
        section, half = mechanics.ring_geometry(100.0, 5)
        assert half == pytest.approx(62.83, abs=0.005)
        assert section == pytest.approx(125.66, abs=0.01)

    def test_single_section_full_circumference(self):
        section, half = mechanics.ring_geometry(100.0, 1)
        assert section == pytest.approx(628.32, abs=0.005)
        assert half == pytest.approx(314.16, abs=0.005)

    def test_half_radius(self):
        _, half = mechanics.ring_geometry(50.0, 5)
        assert half == pytest.approx(31.42, abs=0.005)

    def test_sections_tile_the_circumference(self):
        for n in (1, 2, 5, 8, 12):
            section, _ = mechanics.ring_geometry(73.0, n)
            assert n * section == pytest.approx(2 * math.pi * 73.0, rel=1e-9)

    @pytest.mark.parametrize(
        "radius, n, message",
        [
            (0.0, 5, "outer_radius=0.0: must be > 0"),
            (-10.0, 5, "outer_radius=-10.0: must be > 0"),
            (math.nan, 5, "outer_radius=nan: must be a finite number"),
            (100.0, 0, "n_sections=0: must be >= 1"),
            # the section arc overflowed to inf, or the bend's hypotenuse
            # rounded to 0 and required_bend_angle divided by it
            (1e308, 5, "outer_radius=1e+308: the section arc over 5 sections, inf mm, "
                       "must be finite and its quarter > 0 mm"),
            (5e-324, 4, "outer_radius=5e-324: the section arc over 4 sections, 1e-323 mm, "
                        "must be finite and its quarter > 0 mm"),
        ],
        ids=["radius-zero", "radius-neg", "radius-nan", "sections-zero", "arc-inf", "arc-tiny"],
    )
    def test_rejects_bad_values(self, radius, n, message):
        with pytest.raises(ValueError) as err:
            mechanics.ring_geometry(radius, n)
        assert str(err.value) == message


class TestTargetArc:
    def test_reference_contraction(self):
        new_arc, delta = mechanics.target_arc(62.83185307179586, 0.85)
        assert new_arc == pytest.approx(53.41, abs=0.005)
        assert delta == pytest.approx(9.42, abs=0.005)

    def test_identity_ratio(self):
        new_arc, delta = mechanics.target_arc(40.0, 1.0)
        assert new_arc == 40.0
        assert delta == 0.0

    def test_half_ratio(self):
        new_arc, _ = mechanics.target_arc(62.83185307179586, 0.5)
        assert new_arc == pytest.approx(31.42, abs=0.005)

    @pytest.mark.parametrize(
        "ratio, problem",
        [(0.0, "must be in (0, 1]"), (-0.5, "must be in (0, 1]"),
         (1.0000001, "must be in (0, 1]"), (math.nan, "must be a finite number")],
    )
    def test_rejects_a_ratio_outside_the_unit_interval(self, ratio, problem):
        with pytest.raises(ValueError) as err:
            mechanics.target_arc(62.83, ratio)
        assert str(err.value) == f"target_ratio={ratio!r}: {problem}"


class TestRequiredBendAngle:
    def test_reference_fold(self):
        # independent oracle: cos(angle) = adjacent/hypotenuse = 26.70/31.42
        half = 62.83185307179586
        delta = 9.424777960769379
        oracle = math.degrees(math.acos(((half - delta) / 2.0) / (half / 2.0)))
        angle = mechanics.required_bend_angle(half, delta)
        assert angle == pytest.approx(oracle, abs=1e-12)
        assert angle == pytest.approx(31.8, abs=0.1)

    def test_zero_delta_zero_angle(self):
        assert mechanics.required_bend_angle(62.83, 0.0) == 0.0

    def test_delta_at_or_past_arc_infeasible(self):
        with pytest.raises(GeometryInfeasibleError):
            mechanics.required_bend_angle(60.0, 60.0)
        with pytest.raises(GeometryInfeasibleError):
            mechanics.required_bend_angle(60.0, 75.0)

    def test_negative_delta_infeasible(self):
        with pytest.raises(GeometryInfeasibleError):
            mechanics.required_bend_angle(60.0, -5.0)

    @pytest.mark.parametrize("half, delta", [(0.0, -1.0), (5e-324, 0.0)])
    def test_arc_that_halves_to_zero_infeasible(self, half, delta):
        # the hypotenuse half / 2 is 0: the cosine ratio divided by zero
        with pytest.raises(GeometryInfeasibleError, match="halves to 0$"):
            mechanics.required_bend_angle(half, delta)

    @given(st.floats(min_value=0.001, max_value=0.998))
    def test_monotone_in_delta(self, frac):
        arc = 62.83
        a1 = mechanics.required_bend_angle(arc, frac * arc)
        a2 = mechanics.required_bend_angle(arc, (frac + 0.0005) * arc)
        assert a2 > a1


class TestFoldDepth:
    def test_flat_fold_has_no_depth(self):
        assert mechanics.fold_depth(62.83, 0.0) == 0.0

    def test_right_angle_fold_reaches_the_hypotenuse(self):
        assert mechanics.fold_depth(60.0, 90.0) == pytest.approx(30.0, abs=1e-12)

    @pytest.mark.parametrize("ratio", [0.5, 0.7, 0.85, 0.95])
    def test_depth_is_the_opposite_leg(self, ratio):
        # independent oracle: Pythagoras on hypotenuse half/2 and adjacent new_half/2
        _, half = mechanics.ring_geometry(100.0, 5)
        new_half, delta = mechanics.target_arc(half, ratio)
        bend = mechanics.required_bend_angle(half, delta)
        oracle = math.sqrt((half / 2.0) ** 2 - (new_half / 2.0) ** 2)
        assert mechanics.fold_depth(half, bend) == pytest.approx(oracle, rel=1e-12)


class TestMotorRequirements:
    def test_reference_numbers(self):
        req = mechanics.motor_requirements(40, 1.05, ACTUATOR)
        assert req.total_force == 42.0
        assert req.min_spindle_radius == pytest.approx(1.905, abs=1e-3)
        assert req.torque_at_spindle == pytest.approx(0.126, abs=1e-12)
        assert req.overdrive  # 0.126 N*m > 0.08 N*m rating

    def test_no_load(self):
        req = mechanics.motor_requirements(1, 0.0, ACTUATOR)
        assert req.total_force == 0.0
        assert math.isinf(req.min_spindle_radius)
        assert not req.overdrive

    def test_torque_radius_unit_round_trip_exact(self):
        req = mechanics.motor_requirements(40, 1.05, ACTUATOR)
        assert req.min_spindle_radius / 1000.0 * req.total_force == pytest.approx(
            0.08, rel=1e-12
        )

    def test_overdrive_respects_tolerance(self):
        tolerant = mechanics.ActuatorSpec(0.08, 3.0, overdrive_factor=2.0)
        req = mechanics.motor_requirements(40, 1.05, tolerant)
        assert not req.overdrive  # 0.126 <= 0.08 * 2

    def test_torque_at_the_rating_is_not_overdrive(self):
        # 1 N on a 1000 mm spindle is exactly the 1 N*m rating
        req = mechanics.motor_requirements(4, 0.25, mechanics.ActuatorSpec(1.0, 1000.0))
        assert req.torque_at_spindle == 1.0
        assert not req.overdrive

    def test_torque_past_the_rating_is_overdrive(self):
        req = mechanics.motor_requirements(4, 0.2500001, mechanics.ActuatorSpec(1.0, 1000.0))
        assert req.torque_at_spindle > 1.0
        assert req.overdrive

    def test_no_joints_is_unloaded(self):
        req = mechanics.motor_requirements(0, 1.05, ACTUATOR)
        assert req.total_force == 0.0
        assert math.isinf(req.min_spindle_radius)
        assert req.torque_at_spindle == 0.0
        assert not req.overdrive

    @pytest.mark.parametrize(
        "joints_, force, message",
        [
            (40, math.nan, "per_joint_force=nan: must be a finite number"),
            (40, math.inf, "per_joint_force=inf: must be a finite number"),
            (40, -1.0, "per_joint_force=-1.0: must be >= 0"),
            (-1, 1.05, "total_joints=-1: must be >= 0"),
            (40.0, 1.05, "total_joints=40.0: expected int"),
        ],
        ids=["force-nan", "force-inf", "force-neg", "joints-neg", "joints-float"],
    )
    def test_rejects_bad_values(self, joints_, force, message):
        # nan gave nan in every field; inf gave a min_spindle_radius of 0.0
        with pytest.raises(ValueError) as err:
            mechanics.motor_requirements(joints_, force, ACTUATOR)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "joints_, force, spindle, message",
        [
            (40, 1e308, 3.0, "total force of total_joints=40 at per_joint_force=1e+308 "
             "is not finite"),
            (1, 1e308, 1e10, "torque of total force 1e+308 N at spindle_radius=10000000000.0 "
             "mm is not finite"),
        ],
        ids=["total-force", "torque"],
    )
    def test_rejects_totals_past_the_float_range(self, joints_, force, spindle, message):
        # (40, 1e308) returned total_force=inf and min_spindle_radius=0.0
        with pytest.raises(ValueError) as err:
            mechanics.motor_requirements(joints_, force, mechanics.ActuatorSpec(0.08, spindle))
        assert str(err.value) == message


class TestRecommendedSpindle:
    def test_reference_recommendation(self):
        assert mechanics.recommended_spindle_radius(1.9047619047619047, 1.5) == pytest.approx(
            3.0, abs=1e-12
        )

    def test_exact_grid_value_stays(self):
        assert mechanics.recommended_spindle_radius(2.0, 1.5) == pytest.approx(3.0, abs=1e-12)

    def test_unbounded_stays_unbounded(self):
        assert math.isinf(mechanics.recommended_spindle_radius(math.inf, 1.5))

    @pytest.mark.parametrize("value", [0.1, 1.0, 2.5, 12.3])
    def test_grid_values_stay_at_factor_one(self, value):
        assert mechanics.recommended_spindle_radius(value, 1.0) == pytest.approx(value, abs=1e-12)

    def test_slack_keeps_a_product_just_past_the_grid(self):
        # 49.14 rounds to 49.2, and 49.2 * 1.5 is 73.80000000000001
        assert mechanics.recommended_spindle_radius(49.14, 1.5) == pytest.approx(73.8, abs=1e-12)

    @given(
        st.floats(min_value=0.01, max_value=50.0),
        st.floats(min_value=1.0, max_value=3.0),
    )
    def test_a_grid_multiple_no_smaller_than_the_scaled_minimum(self, min_radius, factor):
        rec = mechanics.recommended_spindle_radius(min_radius, factor)
        steps = rec / mechanics.SPINDLE_GRID_MM
        assert steps == pytest.approx(round(steps), abs=1e-6)
        assert rec >= min_radius * factor - 1e-9
        assert rec < (min_radius + mechanics.SPINDLE_GRID_MM) * factor + mechanics.SPINDLE_GRID_MM

    @pytest.mark.parametrize("min_radius", [1e-320, 1e-10])
    @pytest.mark.parametrize("factor, expected", [(1.0, 0.1), (1.5, 0.2)])
    def test_a_tiny_radius_rounds_up_to_one_grid_step(self, min_radius, factor, expected):
        # returned 0.0
        assert mechanics.recommended_spindle_radius(min_radius, factor) == pytest.approx(
            expected, abs=1e-12
        )


class TestDesignModule:
    def test_reference_design(self):
        report = mechanics.design_module(
            reference_ring_spec(), joints.builtin_model(FamilyKind.SQUARE_SYM)
        )
        assert report.half_section_arc == pytest.approx(62.83, abs=0.05)
        assert report.target_half_arc == pytest.approx(53.41, abs=0.05)
        assert report.bend_angle == pytest.approx(31.79, abs=0.1)
        assert report.total_force == 42.0
        assert report.min_spindle_radius == pytest.approx(1.905, abs=1e-3)
        assert report.recommended_spindle_radius >= 3.0
        assert report.per_joint_force_source == "override"
        # the model's own prediction is surfaced alongside the override
        assert report.model_force == pytest.approx(2.2073, abs=1e-3)
        assert any("override" in d for d in report.diagnostics)
        assert mechanics.FLAG_OVERDRIVE in report.flags  # 0.126 N*m at r=3 mm
        # the square row of the envelope table, quoted
        assert (report.yield_angle, report.self_contact_angle) == (90.0, 150.0)

    def test_identity_design_zero_everything(self):
        report = mechanics.design_module(
            reference_ring_spec(target_ratio=1.0), joints.builtin_model(FamilyKind.SQUARE_SYM)
        )
        assert report.bend_angle == 0.0
        assert report.total_force == 0.0
        assert report.per_joint_force == 0.0
        assert report.flags == ()
        assert report.predicted_return_angle == 180.0

    def test_no_design_bend_reaches_the_envelope(self):
        # the report quotes the envelope and compares no angle with it; that
        # holds only while every row yields at 90 deg or more and self-contacts
        # at 110 deg or more, and every feasible design bends less than 90 deg
        for row in joints.envelope_table_as_json()["envelopes"]:
            assert row["yield_angle_deg"] >= 90.0, row
            assert row["self_contact_angle_deg"] is None or row["self_contact_angle_deg"] >= 110.0
        model = joints.builtin_model(FamilyKind.SQUARE_SYM)
        for n in [*range(2, 401), 10**3, 10**6, 10**12]:
            # the fold fits while (pi / 2n) sqrt(1 - r^2) <= r, so the deepest
            # feasible ratio, and with it the largest bend, sits at the edge
            a = math.pi / (2 * n)
            edge = a / math.sqrt(1.0 + a * a)
            ratios = [10.0**-k for k in range(18)] + [edge * (1 + 1e-12 * j) for j in range(4)]
            feasible = {}
            _, half = mechanics.ring_geometry(100.0, n)
            for ratio in ratios:
                try:
                    bend = mechanics.required_bend_angle(half, mechanics.target_arc(half, ratio)[1])
                except GeometryInfeasibleError:  # the arc reduction rounds to the whole arc
                    continue
                if mechanics.fold_depth(half, bend) <= 100.0 * ratio:
                    feasible[bend] = ratio
            # the pipeline itself at the largest feasible bend
            spec = reference_ring_spec(
                n_sections=n, joints_per_ring=n, target_ratio=feasible[max(feasible)]
            )
            report = mechanics.design_module(spec, model)
            assert report.bend_angle == max(feasible) < 90.0, n
            assert report.flags in ((), (mechanics.FLAG_OVERDRIVE,))

    def test_deep_contraction_infeasible(self):
        with pytest.raises(GeometryInfeasibleError):
            mechanics.design_module(
                reference_ring_spec(target_ratio=0.1), joints.builtin_model(FamilyKind.SQUARE_SYM)
            )

    def test_model_supplies_force_without_override(self):
        report = mechanics.design_module(
            reference_ring_spec(per_joint_force_override=None),
            joints.builtin_model(FamilyKind.SQUARE_SYM),
        )
        assert report.per_joint_force_source == "model"
        assert report.per_joint_force == pytest.approx(2.2073, abs=1e-3)
        assert report.total_force == pytest.approx(40 * report.per_joint_force, rel=1e-15)

    def test_report_self_consistent(self):
        from ugckit import units

        report = mechanics.design_module(
            reference_ring_spec(), joints.builtin_model(FamilyKind.SQUARE_SYM)
        )
        section, half = mechanics.ring_geometry(report.outer_radius, report.n_sections)
        assert report.section_arc == section
        assert report.half_section_arc == half
        new_half, delta = mechanics.target_arc(half, report.target_ratio)
        assert report.target_half_arc == new_half
        assert report.arc_delta == delta
        assert report.bend_angle == mechanics.required_bend_angle(half, delta)
        assert report.total_force == report.total_joints * report.per_joint_force
        assert report.torque_at_spindle == report.total_force * units.mm_to_m(
            report.spindle_radius
        )
        assert report.min_spindle_radius == units.m_to_mm(
            report.rated_torque / report.total_force
        )
        assert report.recommended_spindle_radius == mechanics.recommended_spindle_radius(
            report.min_spindle_radius, report.safety_factor
        )

    def test_override_outside_window_keeps_extrapolated_return_angle(self, curve_dataset):
        model = joints.fit_family_model(curve_dataset, FamilyKind.CURVE)
        spec = reference_ring_spec(
            target_ratio=0.95, joint=JointFamily(FamilyKind.CURVE, 0.8)
        )
        report = mechanics.design_module(spec, model)
        low, high = joints.VALIDATED_ANGLE_RANGE
        assert not low <= report.bend_angle <= high
        assert report.model_force is None
        assert report.per_joint_force_source == "override"
        assert (
            f"model force unavailable at {report.bend_angle:.2f} deg (outside validated range)"
            in report.diagnostics
        )
        assert [report.predicted_return_angle] == joints.predict_many(
            model, [report.bend_angle], 0.8, allow_extrapolation=True
        )[2]

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mechanics.design_module(
                reference_ring_spec(joint=JointFamily(FamilyKind.CURVE, 0.4)),
                joints.builtin_model(FamilyKind.SQUARE_SYM),
            )

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.inf])
    def test_safety_factor_must_be_finite_and_positive(self, factor):
        with pytest.raises(ValueError, match="safety_factor"):
            mechanics.design_module(
                reference_ring_spec(), joints.builtin_model(FamilyKind.SQUARE_SYM),
                safety_factor=factor,
            )

    def test_every_unit_field_is_a_quantity(self):
        from dataclasses import fields

        report = mechanics.design_module(
            reference_ring_spec(), joints.builtin_model(FamilyKind.SQUARE_SYM)
        )
        doc = report.to_json_dict()
        with_unit = [f.name for f in fields(report) if "unit" in f.metadata]
        assert list(doc["quantities"]) == with_unit
        assert len(with_unit) == 25
        assert set(doc) == {"quantities", "per_joint_force_source", "flags", "diagnostics"}

    def test_json_units_attached(self):
        report = mechanics.design_module(
            reference_ring_spec(), joints.builtin_model(FamilyKind.SQUARE_SYM)
        )
        doc = report.to_json_dict()
        assert doc["quantities"]["half_section_arc"]["unit"] == "mm"
        assert doc["quantities"]["bend_angle"]["unit"] == "deg"
        assert doc["quantities"]["torque_at_spindle"]["unit"] == "N*m"
        assert doc["quantities"]["total_force"]["value"] == 42.0
        summary = report.format_summary()
        assert "total cable force" in summary
        assert "42" in summary

    def test_summary_text_pinned(self):
        report = mechanics.design_module(
            reference_ring_spec(), joints.builtin_model(FamilyKind.SQUARE_SYM)
        )
        assert report.format_summary() == "\n".join([
            "ring module design summary",
            "----------------------------------------",
            "outer radius            100 mm",
            "sections                5",
            "total joints            40",
            "target ratio            0.85",
            "half-section arc        62.8319 mm",
            "target half arc         53.4071 mm",
            "bend angle per joint    31.7883 deg",
            "per-joint force         1.05 N (override)",
            "total cable force       42 N",
            "torque at spindle       0.126 N*m",
            "min spindle radius      1.90476 mm",
            "recommended spindle     3 mm",
            "predicted return angle  n/a",
            "flags                   overdrive",
            "notes:",
            "  - override 1.05 N vs model prediction 2.20714 N at 31.79 deg",
        ])


class TestSpecJson:
    def good_doc(self):
        return {
            "outer_radius_mm": 100.0,
            "n_sections": 5,
            "joints_per_ring": 40,
            "ring_layers": 2,
            "target_ratio": 0.85,
            "actuator": {
                "rated_torque_nm": 0.08,
                "spindle_radius_mm": 3.0,
                "overdrive_factor": 1.0,
            },
            "joint": {"family": "square_sym", "thickness_mm": None},
            "per_joint_force_n": 1.05,
        }

    def test_round_trip(self):
        spec = mechanics.spec_from_json_dict(self.good_doc())
        doc = mechanics.spec_to_json_dict(spec)
        assert mechanics.spec_from_json_dict(doc) == spec

    def test_problems_are_collected(self):
        doc = self.good_doc()
        del doc["outer_radius_mm"]
        doc["target_ratio"] = 1.5
        doc["bogus"] = 1
        with pytest.raises(DesignSpecError) as err:
            mechanics.spec_from_json_dict(doc)
        text = " ".join(err.value.problems)
        assert "outer_radius_mm" in text
        assert "target_ratio" in text
        assert "bogus" in text

    def test_divisibility_checked(self):
        doc = self.good_doc()
        doc["joints_per_ring"] = 41
        with pytest.raises(DesignSpecError):
            mechanics.spec_from_json_dict(doc)

    @pytest.mark.parametrize(
        "path",
        [
            ("outer_radius_mm",),
            ("target_ratio",),
            ("actuator", "rated_torque_nm"),
            ("actuator", "spindle_radius_mm"),
            ("actuator", "overdrive_factor"),
            ("per_joint_force_n",),
            ("friction_loss_factor",),
            ("joint", "thickness_mm"),
        ],
    )
    @pytest.mark.parametrize(
        "literal", ["Infinity", "NaN", "1e400", pytest.param("1" + "0" * 400, id="int1e400")]
    )
    def test_non_finite_numbers_rejected(self, path, literal):
        doc = self.good_doc()
        doc["joint"] = {"family": "curve", "thickness_mm": 0.8}
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = "PLACEHOLDER"
        doc = json.loads(json.dumps(doc).replace('"PLACEHOLDER"', literal))
        with pytest.raises(DesignSpecError) as err:
            mechanics.spec_from_json_dict(doc)
        assert len(err.value.problems) == 1
        assert path[-1] in err.value.problems[0]

    @pytest.mark.parametrize("key, name, value", [("actuator", "overdrive", 2.0),
                                                  ("joint", "thickness", 3)])
    def test_unknown_nested_keys_rejected(self, key, name, value):
        doc = self.good_doc()
        doc[key][name] = value
        with pytest.raises(DesignSpecError) as err:
            mechanics.spec_from_json_dict(doc)
        assert err.value.problems == [f"unknown field: {key}.{name}"]

    def test_absent_ring_layers_reads_as_the_library_default(self):
        doc = self.good_doc()
        del doc["ring_layers"]
        spec = mechanics.spec_from_json_dict(doc)
        assert spec.ring_layers == 2
        library = {k: v for k, v in vars(spec).items() if k != "ring_layers"}
        assert mechanics.RingDesignSpec(**library) == spec

    @pytest.mark.parametrize("cls", [mechanics.RingDesignSpec, mechanics.ActuatorSpec])
    def test_every_field_declares_its_key_and_rule(self, cls):
        # a field added without _spec has no JSON key or rule to check it by
        for f in fields(cls):
            assert {"key", "rule"} <= f.metadata.keys(), f.name

    @pytest.mark.parametrize(
        "key, default, nullable",
        [("ring_layers", 2, False), ("friction_loss_factor", 1.0, False),
         ("per_joint_force_n", None, True)],
    )
    def test_presence_follows_the_default(self, key, default, nullable):
        doc = self.good_doc()
        doc.pop(key, None)
        absent = mechanics.spec_to_json_dict(mechanics.spec_from_json_dict(doc))
        assert absent.get(key) == default
        doc[key] = None
        if nullable:
            assert mechanics.spec_from_json_dict(doc) == mechanics.spec_from_json_dict(absent)
        else:
            with pytest.raises(DesignSpecError):
                mechanics.spec_from_json_dict(doc)

    def test_curve_joint_needs_thickness(self):
        doc = self.good_doc()
        doc["joint"] = {"family": "curve", "thickness_mm": None}
        with pytest.raises(DesignSpecError):
            mechanics.spec_from_json_dict(doc)


# Every numeric field of a design spec: the attribute path the constructors
# take, the JSON path, and one value outside the field's range.
NUMERIC_FIELDS = [
    (("outer_radius",), ("outer_radius_mm",), 0.0),
    (("n_sections",), ("n_sections",), 1),
    (("joints_per_ring",), ("joints_per_ring",), 0),
    (("ring_layers",), ("ring_layers",), 0),
    (("target_ratio",), ("target_ratio",), 1.5),
    (("per_joint_force_override",), ("per_joint_force_n",), -1.0),
    (("friction_loss_factor",), ("friction_loss_factor",), 0.0),
    (("actuator", "rated_torque"), ("actuator", "rated_torque_nm"), 0.0),
    (("actuator", "spindle_radius"), ("actuator", "spindle_radius_mm"), -3.0),
    (("actuator", "overdrive_factor"), ("actuator", "overdrive_factor"), 0.5),
    (("joint", "thickness"), ("joint", "thickness_mm"), 0.0),
]


def curve_spec_doc():
    doc = TestSpecJson().good_doc()
    doc["joint"] = {"family": "curve", "thickness_mm": 0.8}
    doc["friction_loss_factor"] = 1.2
    return doc


class TestLibraryAndJsonAgree:
    @pytest.mark.parametrize(
        "attr, key, out_of_range", NUMERIC_FIELDS, ids=[".".join(k) for _, k, _ in NUMERIC_FIELDS]
    )
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "out_of_range"])
    def test_constructor_and_reader_reject_the_same_values(self, attr, key, out_of_range, bad):
        value = out_of_range if bad == "out_of_range" else float(bad)
        if attr[0] == "actuator":
            kwargs = {"rated_torque": 0.08, "spindle_radius": 3.0, attr[1]: value}
            build = lambda: mechanics.ActuatorSpec(**kwargs)  # noqa: E731
        elif attr[0] == "joint":
            build = lambda: JointFamily(FamilyKind.CURVE, value)  # noqa: E731
        else:
            build = lambda: reference_ring_spec(**{attr[0]: value})  # noqa: E731
        with pytest.raises(ValueError, match=attr[-1]):
            build()

        doc = curve_spec_doc()
        parent = doc
        for k in key[:-1]:
            parent = parent[k]
        parent[key[-1]] = value
        with pytest.raises(DesignSpecError) as err:
            mechanics.spec_from_json_dict(doc)
        assert len(err.value.problems) == 1
        assert key[-1] in err.value.problems[0]

    @pytest.mark.parametrize(
        "attr, value",
        [("actuator", None), ("joint", None), ("actuator", JointFamily(FamilyKind.SQUARE_SYM)),
         ("joint", ACTUATOR)],
        ids=["actuator-none", "joint-none", "actuator-joint", "joint-actuator"],
    )
    def test_nested_fields_need_their_types(self, attr, value):
        with pytest.raises(ValueError, match=f"^{attr}="):
            reference_ring_spec(**{attr: value})

    def test_divisibility_rule_shared(self):
        with pytest.raises(ValueError, match="joints_per_ring: must be divisible by n_sections"):
            reference_ring_spec(joints_per_ring=41)
        doc = curve_spec_doc()
        doc["joints_per_ring"] = 41
        with pytest.raises(DesignSpecError) as err:
            mechanics.spec_from_json_dict(doc)
        assert err.value.problems == ["field joints_per_ring: must be divisible by n_sections"]

    def test_integer_fields_take_integrals_only(self):
        spec = reference_ring_spec(n_sections=np.int64(5), ring_layers=np.int32(2))
        assert type(spec.n_sections) is int and type(spec.ring_layers) is int
        for bad in (5.0, True):
            with pytest.raises(ValueError, match=f"n_sections={bad!r}: expected int"):
                reference_ring_spec(n_sections=bad)

    def test_float_fields_store_floats(self):
        spec = reference_ring_spec(outer_radius=100, target_ratio=np.float32(0.5))
        assert type(spec.outer_radius) is float and type(spec.target_ratio) is float
        with pytest.raises(ValueError, match="friction_loss_factor=True: expected float"):
            reference_ring_spec(friction_loss_factor=True)
        doc = curve_spec_doc()
        doc["outer_radius_mm"] = 100
        echo = mechanics.spec_to_json_dict(mechanics.spec_from_json_dict(doc))
        assert json.dumps(echo["outer_radius_mm"]) == "100.0"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            (("per_joint_force_n",), -1, "field per_joint_force_n: must be >= 0"),
            (("per_joint_force_n",), "1", "field per_joint_force_n: expected float"),
            (("friction_loss_factor",), None, "field friction_loss_factor: expected float"),
            (("friction_loss_factor",), math.inf,
             "field friction_loss_factor: must be a finite number"),
            (("actuator", "overdrive_factor"), 0.5,
             "field actuator.overdrive_factor: must be >= 1"),
            (("actuator", "overdrive_factor"), math.nan,
             "field actuator.overdrive_factor: must be a finite number"),
        ],
        ids=["override-range", "override-type", "friction-null", "friction-inf",
             "overdrive-range", "overdrive-nan"],
    )
    def test_optional_fields_worded_like_required_ones(self, key, value, message):
        doc = curve_spec_doc()
        parent = doc
        for k in key[:-1]:
            parent = parent[k]
        parent[key[-1]] = value
        with pytest.raises(DesignSpecError) as err:
            mechanics.spec_from_json_dict(doc)
        assert err.value.problems == [message]

    @pytest.mark.parametrize(
        "value, message",
        [(None, "missing field: actuator.rated_torque_nm"),
         (0.0, "field actuator.rated_torque_nm: must be > 0")],
        ids=["missing", "range"],
    )
    def test_nested_problems_name_their_path(self, value, message):
        doc = curve_spec_doc()
        if value is None:
            del doc["actuator"]["rated_torque_nm"]
        else:
            doc["actuator"]["rated_torque_nm"] = value
        with pytest.raises(DesignSpecError) as err:
            mechanics.spec_from_json_dict(doc)
        assert err.value.problems == [message]

    def test_null_override_reads_as_absent(self):
        doc = curve_spec_doc()
        doc["per_joint_force_n"] = None
        assert mechanics.spec_from_json_dict(doc).per_joint_force_override is None
        assert "per_joint_force_n" not in mechanics.spec_to_json_dict(
            mechanics.spec_from_json_dict(doc)
        )

    @pytest.mark.parametrize("family", [["square_sym"], {"curve": 1}, 3])
    def test_family_token_must_be_a_string(self, family):
        doc = curve_spec_doc()
        doc["joint"]["family"] = family
        with pytest.raises(DesignSpecError) as err:
            mechanics.spec_from_json_dict(doc)
        assert err.value.problems == [f"field joint.family: unknown family {family!r}"]
